//! Scheduler-aware drop-ins for `std::sync` types.
//!
//! Every type here is dual-mode: inside [`crate::model`] each operation is a
//! scheduling decision point; outside a model it delegates straight to the
//! `std` primitive it wraps. Atomics store their values in real `std`
//! atomics (the shim contains no `unsafe`), so the checker explores
//! *interleavings* under sequential consistency rather than C11 weak-memory
//! reorderings — see the crate docs for the full list of deliberate gaps.

use crate::sched::{self, Scheduler};
use std::sync::Arc as StdArc;
use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, RwLock as StdRwLock,
    RwLockReadGuard as StdRwLockReadGuard, RwLockWriteGuard as StdRwLockWriteGuard,
};

pub use std::sync::Arc;
pub use std::sync::{LockResult, PoisonError};

/// Scheduling decision point if the calling thread is controlled by a model.
fn maybe_point() {
    if let Some((sched, me)) = sched::current() {
        sched.point(me);
    }
}

fn addr_id<T: ?Sized>(r: &T) -> u64 {
    (r as *const T).cast::<u8>() as usize as u64
}

/// Model-checked atomics mirroring `std::sync::atomic`.
pub mod atomic {
    use super::maybe_point;
    pub use std::sync::atomic::Ordering;

    macro_rules! atomic_common {
        ($name:ident, $std:path, $val:ty) => {
            /// Model-checked counterpart of the same-named `std` atomic.
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// Create a new atomic (usable in `static` initializers).
                pub const fn new(v: $val) -> Self {
                    Self {
                        inner: <$std>::new(v),
                    }
                }

                /// Atomic load; a decision point under a model.
                pub fn load(&self, order: Ordering) -> $val {
                    maybe_point();
                    self.inner.load(order)
                }

                /// Atomic store; a decision point under a model.
                pub fn store(&self, v: $val, order: Ordering) {
                    maybe_point();
                    self.inner.store(v, order);
                }

                /// Consume the atomic; never a decision point.
                pub fn into_inner(self) -> $val {
                    self.inner.into_inner()
                }
            }
        };
    }

    macro_rules! atomic_int_ops {
        ($name:ident, $val:ty) => {
            impl $name {
                /// Atomic add; a decision point under a model.
                pub fn fetch_add(&self, v: $val, order: Ordering) -> $val {
                    maybe_point();
                    self.inner.fetch_add(v, order)
                }

                /// Atomic weak compare-exchange; a decision point under a
                /// model (the shim never fails it spuriously).
                pub fn compare_exchange_weak(
                    &self,
                    current: $val,
                    new: $val,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$val, $val> {
                    maybe_point();
                    self.inner
                        .compare_exchange_weak(current, new, success, failure)
                }
            }
        };
    }

    atomic_common!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    atomic_common!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    atomic_int_ops!(AtomicUsize, usize);
    atomic_int_ops!(AtomicU64, u64);
}

type Model = (StdArc<Scheduler>, usize);

// ---- Mutex ----------------------------------------------------------------

/// Model-checked counterpart of `std::sync::Mutex`.
///
/// Under a model the lock state lives in the scheduler (keyed by object
/// address), so acquisition order is explored exhaustively; the inner `std`
/// mutex only carries the data and is taken with `try_lock` once logical
/// ownership is granted. The shim never poisons, but signatures keep the
/// `std` `LockResult` shape so call sites compile unchanged in both modes.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(t: T) -> Self {
        Mutex {
            inner: StdMutex::new(t),
        }
    }

    /// Consume the mutex, returning the data.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    fn id(&self) -> u64 {
        addr_id(&self.inner)
    }

    /// Acquire the lock, blocking (in model mode: a decision point, then a
    /// scheduler-visible blocking acquire).
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if let Some((sched, me)) = sched::current() {
            sched.mutex_lock(me, self.id());
            let inner = self
                .inner
                .try_lock()
                .expect("loom shim: logical mutex owner could not take the inner lock");
            Ok(MutexGuard {
                lock: self,
                inner: Some(inner),
                model: Some((sched, me)),
            })
        } else {
            match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    lock: self,
                    inner: Some(g),
                    model: None,
                }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                    model: None,
                })),
            }
        }
    }
}

/// RAII guard for [`Mutex`]; releasing it is a decision point under a model.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    model: Option<Model>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after release")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the data lock before the logical release: the scheduler
        // may hand the token to a waiter inside `mutex_unlock`, and that
        // waiter immediately try-locks the inner mutex.
        self.inner = None;
        if let Some((sched, me)) = self.model.take() {
            sched.mutex_unlock(me, self.lock.id());
        }
    }
}

// ---- Condvar --------------------------------------------------------------

/// Result of a timed condvar wait. `std`'s equivalent has no public
/// constructor, so the shim defines its own; under a model a "timed" wait
/// never times out (time is not modeled).
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Model-checked counterpart of `std::sync::Condvar`.
///
/// `notify_one` deliberately wakes *all* model waiters: every waiter
/// re-checks its predicate under the mutex (required anyway for spurious
/// wakeups), and waking a superset keeps exploration exhaustive over which
/// waiter wins the race.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: StdCondvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: StdCondvar::new(),
        }
    }

    fn id(&self) -> u64 {
        addr_id(&self.inner)
    }

    /// Release the guard's mutex, park until notified, re-acquire.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if let Some((sched, me)) = guard.model.take() {
            let lock = guard.lock;
            // Drop the inner guard before the logical release inside
            // `condvar_wait` (same ordering rule as MutexGuard::drop);
            // `model` is already taken so this drop is release-silent.
            guard.inner = None;
            drop(guard);
            sched.condvar_wait(me, self.id(), lock.id());
            let inner = lock
                .inner
                .try_lock()
                .expect("loom shim: logical mutex owner could not take the inner lock");
            Ok(MutexGuard {
                lock,
                inner: Some(inner),
                model: Some((sched, me)),
            })
        } else {
            let lock = guard.lock;
            let inner = guard.inner.take().expect("guard accessed after release");
            std::mem::forget(guard);
            match self.inner.wait(inner) {
                Ok(g) => Ok(MutexGuard {
                    lock,
                    inner: Some(g),
                    model: None,
                }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    lock,
                    inner: Some(p.into_inner()),
                    model: None,
                })),
            }
        }
    }

    /// Timed wait. Under a model this is a plain [`Condvar::wait`] that
    /// reports "not timed out" (model time does not advance).
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        if guard.model.is_some() {
            match self.wait(guard) {
                Ok(g) => Ok((g, WaitTimeoutResult { timed_out: false })),
                Err(p) => {
                    let g = p.into_inner();
                    Err(PoisonError::new((
                        g,
                        WaitTimeoutResult { timed_out: false },
                    )))
                }
            }
        } else {
            let lock = guard.lock;
            let mut guard = guard;
            let inner = guard.inner.take().expect("guard accessed after release");
            std::mem::forget(guard);
            match self.inner.wait_timeout(inner, dur) {
                Ok((g, t)) => Ok((
                    MutexGuard {
                        lock,
                        inner: Some(g),
                        model: None,
                    },
                    WaitTimeoutResult {
                        timed_out: t.timed_out(),
                    },
                )),
                Err(p) => {
                    let (g, t) = p.into_inner();
                    Err(PoisonError::new((
                        MutexGuard {
                            lock,
                            inner: Some(g),
                            model: None,
                        },
                        WaitTimeoutResult {
                            timed_out: t.timed_out(),
                        },
                    )))
                }
            }
        }
    }

    /// Wake one waiter (under a model: all waiters — see the type docs).
    pub fn notify_one(&self) {
        if let Some((sched, me)) = sched::current() {
            sched.condvar_notify_all(me, self.id());
        } else {
            self.inner.notify_one();
        }
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        if let Some((sched, me)) = sched::current() {
            sched.condvar_notify_all(me, self.id());
        } else {
            self.inner.notify_all();
        }
    }
}

// ---- RwLock ---------------------------------------------------------------

/// Model-checked counterpart of `std::sync::RwLock`.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(t: T) -> Self {
        RwLock {
            inner: StdRwLock::new(t),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    fn id(&self) -> u64 {
        addr_id(&self.inner)
    }

    /// Acquire a shared read lock.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        if let Some((sched, me)) = sched::current() {
            sched.rw_read_lock(me, self.id());
            let inner = self
                .inner
                .try_read()
                .expect("loom shim: logical read-lock holder could not take the inner lock");
            Ok(RwLockReadGuard {
                lock: self,
                inner: Some(inner),
                model: Some((sched, me)),
            })
        } else {
            match self.inner.read() {
                Ok(g) => Ok(RwLockReadGuard {
                    lock: self,
                    inner: Some(g),
                    model: None,
                }),
                Err(p) => Err(PoisonError::new(RwLockReadGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                    model: None,
                })),
            }
        }
    }

    /// Acquire the exclusive write lock.
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        if let Some((sched, me)) = sched::current() {
            sched.rw_write_lock(me, self.id());
            let inner = self
                .inner
                .try_write()
                .expect("loom shim: logical write-lock holder could not take the inner lock");
            Ok(RwLockWriteGuard {
                lock: self,
                inner: Some(inner),
                model: Some((sched, me)),
            })
        } else {
            match self.inner.write() {
                Ok(g) => Ok(RwLockWriteGuard {
                    lock: self,
                    inner: Some(g),
                    model: None,
                }),
                Err(p) => Err(PoisonError::new(RwLockWriteGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                    model: None,
                })),
            }
        }
    }
}

/// RAII shared-read guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<StdRwLockReadGuard<'a, T>>,
    model: Option<Model>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some((sched, me)) = self.model.take() {
            sched.rw_read_unlock(me, self.lock.id());
        }
    }
}

/// RAII exclusive-write guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<StdRwLockWriteGuard<'a, T>>,
    model: Option<Model>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after release")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some((sched, me)) = self.model.take() {
            sched.rw_write_unlock(me, self.lock.id());
        }
    }
}
