//! Synchronization facade for the concurrency-bearing gpnm crates.
//!
//! The modelled code (the `ReadFront` views and subscriptions in
//! `gpnm-service`) and the pager's and telemetry's counters import every
//! atomic, lock, condvar and thread spawn through this crate instead of
//! `std` directly. Normally that is a zero-cost re-export of `std::sync`;
//! compiled with `--cfg gpnm_loom` it re-exports the `shims/loom` model
//! checker instead, so `loom_*` integration tests can explore the bounded
//! interleavings of those protocols exhaustively (see `shims/loom` for the
//! scheduler and its `LOOM_MAX_PREEMPTIONS` / `LOOM_MAX_BRANCHES` /
//! `LOOM_MAX_ITERATIONS` exploration knobs).
//!
//! The facade carries only what the workspace uses: both modes must
//! provide every item, so each unused re-export is shim code kept alive
//! for nothing. The workspace lint (`cargo run -p gpnm-xtask -- lint`)
//! enforces that the two facade files use it rather than
//! `std::sync::atomic`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

#[cfg(not(gpnm_loom))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};

#[cfg(gpnm_loom)]
pub use loom::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};

/// Atomic types and memory orderings (std or loom, by configuration).
pub mod atomic {
    #[cfg(not(gpnm_loom))]
    pub use std::sync::atomic::{AtomicU64, Ordering};

    #[cfg(gpnm_loom)]
    pub use loom::sync::atomic::{AtomicU64, Ordering};
}

/// Thread spawning (std or loom, by configuration).
pub mod thread {
    #[cfg(not(gpnm_loom))]
    pub use std::thread::JoinHandle;

    /// Spawn a thread; mirrors `std::thread::spawn`.
    #[cfg(not(gpnm_loom))]
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        std::thread::spawn(f)
    }

    #[cfg(gpnm_loom)]
    pub use loom::thread::{spawn, JoinHandle};
}
