//! Synchronization facade for the concurrency-bearing gpnm crates.
//!
//! The lock-free core (`gpnm-pool`'s work-stealing deques, the epoch-swapped
//! `ReadFront` in `gpnm-service`) imports every atomic, lock, condvar,
//! thread spawn, and spin hint through this crate instead of `std` directly. Normally that is
//! a zero-cost re-export of `std::sync`; compiled with `--cfg gpnm_loom`
//! it re-exports the `shims/loom` model checker instead, so `loom_*`
//! integration tests can explore the bounded interleavings of those
//! protocols exhaustively (see `shims/loom` for the scheduler and its
//! `LOOM_MAX_PREEMPTIONS` / `LOOM_MAX_BRANCHES` / `LOOM_MAX_ITERATIONS`
//! exploration knobs).
//!
//! The workspace lint (`cargo run -p gpnm-xtask -- lint`) enforces that the
//! three concurrency-bearing source files use this facade rather than
//! `std::sync::atomic`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

#[cfg(not(gpnm_loom))]
pub use std::sync::{
    Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard, TryLockError, TryLockResult, WaitTimeoutResult,
};

#[cfg(gpnm_loom)]
pub use loom::sync::{
    Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard, TryLockError, TryLockResult, WaitTimeoutResult,
};

/// Atomic types and memory orderings (std or loom, by configuration).
pub mod atomic {
    #[cfg(not(gpnm_loom))]
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };

    #[cfg(gpnm_loom)]
    pub use loom::sync::atomic::{
        fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}

/// Thread spawning and yielding (std or loom, by configuration).
pub mod thread {
    #[cfg(not(gpnm_loom))]
    pub use std::thread::{yield_now, JoinHandle};

    /// Spawn a thread; mirrors `std::thread::spawn`.
    #[cfg(not(gpnm_loom))]
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        std::thread::spawn(f)
    }

    /// Spawn a thread with an OS-visible name. Panics if the OS refuses to
    /// spawn (matching the previous `Builder::spawn().expect(..)` call sites).
    #[cfg(not(gpnm_loom))]
    pub fn spawn_named<F, T>(name: &str, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(f)
            .expect("failed to spawn thread")
    }

    #[cfg(gpnm_loom)]
    pub use loom::thread::{spawn, spawn_named, yield_now, JoinHandle};
}

/// Spin-loop hint (std or loom, by configuration). Under the model checker
/// this yields, so spin-wait loops cannot livelock exploration.
pub mod hint {
    #[cfg(not(gpnm_loom))]
    pub use std::hint::spin_loop;

    #[cfg(gpnm_loom)]
    pub use loom::hint::spin_loop;
}

/// True when this build routes synchronization through the loom model
/// checker (`--cfg gpnm_loom`); lets tests assert which mode they run in.
pub const LOOM_MODELED: bool = cfg!(gpnm_loom);
