//! Loom model tests for the worker pool's queue/latch protocol.
//!
//! Build with `RUSTFLAGS="--cfg gpnm_loom"`; in ordinary builds this file
//! compiles to nothing. Each test explores every interleaving (up to the
//! `LOOM_MAX_PREEMPTIONS` preemption bound) of a small pool run, checking
//! the no-lost-task / no-double-pop invariant: every spawned task runs
//! exactly once, no matter how workers and the helping caller interleave
//! on the one queue.
#![cfg(gpnm_loom)]

use gpnm_pool::WorkerPool;
use gpnm_sync::atomic::{AtomicUsize, Ordering};
use gpnm_sync::Arc;

/// One worker plus the helping caller: both pop the front of the one
/// queue, racing each other for every task. Exactly-once execution must
/// hold in every schedule.
#[test]
fn scope_runs_every_task_exactly_once() {
    loom::model(|| {
        let pool = WorkerPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        pool.scope(|scope| {
            for _ in 0..2 {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    // RELAXED: the scope's latch (a mutex) orders this
                    // against the final read; the counter needs atomicity
                    // only.
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        // RELAXED: reading after scope() returned — the latch synchronized.
        assert_eq!(counter.load(Ordering::Relaxed), 2, "task lost or run twice");
        drop(pool); // shutdown + join under the model: the worker must exit
    });
}

/// Two workers racing one queue (and the caller, once it waits): a
/// `notify_one` may wake either worker, and both may find the queue
/// non-empty between the push and their pop — no task may be lost or
/// popped twice.
#[test]
fn two_workers_racing_one_queue_run_each_task_once() {
    loom::model(|| {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        pool.scope(|scope| {
            for _ in 0..2 {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    // RELAXED: see scope_runs_every_task_exactly_once.
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        // RELAXED: reading after scope() returned — the latch synchronized.
        assert_eq!(
            counter.load(Ordering::Relaxed),
            2,
            "racing workers lost or duplicated a task"
        );
    });
}

/// Shutdown handshake: dropping an idle pool must wake the parked worker
/// and join it in every interleaving (no lost shutdown notification).
#[test]
fn drop_joins_idle_worker() {
    loom::model(|| {
        let pool = WorkerPool::new(1);
        drop(pool);
    });
}
