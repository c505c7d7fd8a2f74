//! Scheduler-aware threads.
//!
//! Under a model, [`spawn`] registers a controlled thread with the active
//! scheduler: the OS thread it creates parks immediately and only runs when
//! the scheduler hands it the token, so controlled code stays serialized.
//! Outside a model, these are thin wrappers over `std::thread`.

use crate::sched::{self, thread_panicked};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex as StdMutex};

/// Handle to a spawned thread; mirrors `std::thread::JoinHandle`.
#[derive(Debug)]
pub struct JoinHandle<T> {
    /// Model-mode: the controlled thread id and its result slot.
    model: Option<(usize, Arc<StdMutex<Option<T>>>)>,
    /// Non-model mode: the real handle.
    std_handle: Option<std::thread::JoinHandle<T>>,
}

impl<T> JoinHandle<T> {
    /// Wait for the thread to finish and return its value. In model mode the
    /// join is a scheduler-visible blocking point.
    pub fn join(self) -> Result<T, Box<dyn std::any::Any + Send + 'static>> {
        if let Some(h) = self.std_handle {
            return h.join();
        }
        let (tid, slot) = self.model.expect("join handle in neither mode");
        let (sched, me) = sched::current()
            .expect("loom shim: model thread handles must be joined from inside the model");
        sched.join_thread(me, tid);
        let v = match slot.lock() {
            Ok(mut g) => g.take(),
            Err(p) => p.into_inner().take(),
        };
        Ok(v.expect("loom shim: joined thread finished without a result"))
    }
}

/// Spawn a thread; mirrors `std::thread::spawn`. A decision point under a
/// model (the child may be scheduled before the parent continues).
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    spawn_named("loom-worker", f)
}

/// [`spawn`] with an OS thread name (the name plays no role in scheduling).
fn spawn_named<F, T>(name: &str, f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    if let Some((sched, me)) = sched::current() {
        let tid = sched.register_thread();
        let slot: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
        let slot2 = Arc::clone(&slot);
        let sched2 = Arc::clone(&sched);
        let os = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                sched::set_current(Some((Arc::clone(&sched2), tid)));
                let body = catch_unwind(AssertUnwindSafe(|| {
                    sched2.thread_started(tid);
                    let v = f();
                    match slot2.lock() {
                        Ok(mut g) => *g = Some(v),
                        Err(p) => *p.into_inner() = Some(v),
                    }
                    sched2.thread_finished(tid);
                }));
                if let Err(payload) = body {
                    thread_panicked(&sched2, tid, payload);
                }
                sched::set_current(None);
            })
            .expect("loom shim: failed to spawn model OS thread");
        sched.add_os_handle(os);
        // The child is registered and parked; give the scheduler a chance to
        // run it before the parent proceeds.
        sched.point(me);
        JoinHandle {
            model: Some((tid, slot)),
            std_handle: None,
        }
    } else {
        let h = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(f)
            .expect("failed to spawn thread");
        JoinHandle {
            model: None,
            std_handle: Some(h),
        }
    }
}
