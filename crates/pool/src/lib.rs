//! Scoped fan-out over the machine's lanes, on `std::thread::scope`.
//!
//! Its one caller is a cluster's shard fan-out: each tick hands every
//! shard's commit-and-refresh, as a task that borrows from the caller's
//! stack, to one [`WorkerPool::scope`]:
//!
//! ```
//! use gpnm_pool::WorkerPool;
//!
//! let data = vec![1u32, 2, 3, 4, 5, 6, 7, 8];
//! let sums = std::sync::Mutex::new(Vec::new());
//! WorkerPool::global().scope(|scope| {
//!     for chunk in data.chunks(4) {
//!         let sums = &sums;
//!         scope.spawn(move || sums.lock().unwrap().push(chunk.iter().sum::<u32>()));
//!     }
//! });
//! assert_eq!(sums.into_inner().unwrap().iter().sum::<u32>(), 36);
//! ```
//!
//! Design points:
//!
//! * **Collect, then split into at most `lanes()` groups.** [`PoolScope::spawn`]
//!   only records its task. Once `f` returns, the scope splits the tasks, in
//!   spawn order, into at most [`WorkerPool::lanes`] contiguous groups: the
//!   caller runs group 0 and every other group runs on one thread of a
//!   `std::thread::scope`. A scope therefore never runs more than `lanes()`
//!   threads, the caller included, however many tasks it was handed, and a
//!   lone task runs on the caller without spawning anything. Borrowing is
//!   `std::thread::scope`'s, so the crate has no `unsafe`.
//! * **No scope nests.** A shard task runs its whole tick on its own
//!   thread and opens no scope. A nested scope would be bounded by
//!   `lanes()` on its own, not out of one shared budget, and so could
//!   oversubscribe the machine.
//! * **Panic propagation.** A panicking task does not stop its group: every
//!   task still runs, and the scope re-raises the first panic on the
//!   scoping thread once all of them have finished.
//!
//! **Why scoped threads over a persistent pool:** a pool whose workers
//! outlive the scope must erase the tasks' borrow lifetimes to queue them.
//! Until this crate moved to `std::thread::scope`, that took the workspace's
//! only `unsafe` (a lifetime-erasing `transmute`), a task queue, a scope
//! latch, a helping-caller argument for why nested scopes cannot deadlock, a
//! model-checker suite and a Miri CI job. The cost is a thread spawn and
//! join per scope, 31–35 µs on a 2-core Xeon box: measured on the benchmark of
//! record (ten pairs), a 2-shard cluster tick reads ≈ 6% slower at the
//! median (1.13 → 1.19 ms) and a dense-backend subsequent query ≈ 2%
//! slower (33.8 → 34.6 ms, function-aligned builds; the dense backend
//! fanned out its deletion rows then and opens no scope now). Both stayed
//! well inside the benchmark's bounds.
//!
//! **Why not one thread per task:** the tasks of one scope would then
//! oversubscribe the machine whenever a caller spawns more tasks than there
//! are lanes; grouping keeps the old pool's bound without its queue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::any::Any;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// A task spawned into a scope, boxed until the scope runs it.
type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Pool telemetry: cumulative scope/task counters and the live
/// `gpnm_pool_active_tasks` gauge (read against `gpnm_pool_lanes` for
/// lane occupancy).
mod pool_metrics {
    use std::sync::{Arc, OnceLock};

    /// Cached handles into the global metrics registry — resolved once so
    /// the per-task cost is a relaxed atomic bump, not a registry lookup.
    struct PoolMetrics {
        tasks: Arc<gpnm_telemetry::Counter>,
        scopes: Arc<gpnm_telemetry::Counter>,
        active: Arc<gpnm_telemetry::Gauge>,
    }

    fn metrics() -> &'static PoolMetrics {
        static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let registry = gpnm_telemetry::global();
            PoolMetrics {
                tasks: registry.counter("gpnm_pool_tasks_total"),
                scopes: registry.counter("gpnm_pool_scopes_total"),
                active: registry.gauge("gpnm_pool_active_tasks"),
            }
        })
    }

    pub fn scope_opened() {
        metrics().scopes.inc();
    }

    pub fn task_submitted() {
        metrics().tasks.inc();
    }

    pub fn task_started() {
        metrics().active.add(1.0);
    }

    pub fn task_finished() {
        metrics().active.add(-1.0);
    }

    pub fn pool_sized(lanes: usize) {
        gpnm_telemetry::global()
            .gauge("gpnm_pool_lanes")
            .set(lanes as f64);
    }
}

/// The machine's lane count and the scoped fan-out over it. See the crate
/// docs for the design.
#[derive(Debug)]
pub struct WorkerPool {
    lanes: usize,
}

impl WorkerPool {
    /// The process-wide pool: `available_parallelism` lanes, the scoping
    /// caller being one of them.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let lanes = std::thread::available_parallelism().map_or(1, usize::from);
            pool_metrics::pool_sized(lanes);
            WorkerPool { lanes }
        })
    }

    /// Threads a scope runs its tasks on at most, the caller included.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Run `f` with a scope whose spawned tasks may borrow from the current
    /// stack frame, then run those tasks on at most [`lanes`](Self::lanes)
    /// threads. Returns once every task has finished; panics if any task
    /// panicked. If `f` itself panics, no task runs.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope PoolScope<'scope, 'env>) -> R,
    {
        pool_metrics::scope_opened();
        let scope = PoolScope {
            tasks: RefCell::new(Vec::new()),
            _scope: PhantomData,
        };
        let value = f(&scope);
        let mut first = scope.tasks.into_inner();
        if first.is_empty() {
            return value;
        }
        // Contiguous groups of `chunk` tasks, split off the back; the
        // front group stays with the caller.
        let chunk = first.len().div_ceil(self.lanes);
        let mut rest = Vec::new();
        while first.len() > chunk {
            rest.push(first.split_off(first.len() - chunk));
        }
        let panic = std::thread::scope(|s| {
            let handles: Vec<_> = rest
                .into_iter()
                .map(|group| s.spawn(move || run_group(group)))
                .collect();
            let mut panic = run_group(first);
            for handle in handles {
                let group_panic = handle.join().expect("run_group catches task panics");
                panic = panic.or(group_panic);
            }
            panic
        });
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        value
    }
}

/// Run every task of `group` in order, even past a panicking one; return
/// the first panic's payload.
fn run_group(group: Vec<Task<'_>>) -> Option<Box<dyn Any + Send>> {
    let mut first = None;
    for task in group {
        pool_metrics::task_started();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            first.get_or_insert(payload);
        }
        pool_metrics::task_finished();
    }
    first
}

/// Handle for spawning borrowed-data tasks; see [`WorkerPool::scope`].
pub struct PoolScope<'scope, 'env> {
    tasks: RefCell<Vec<Task<'env>>>,
    _scope: PhantomData<&'scope ()>,
}

impl<'env> PoolScope<'_, 'env> {
    /// Add `f` to the scope. It runs, on the caller or on one of the
    /// scope's threads, after the closure passed to [`WorkerPool::scope`]
    /// returns, and is finished when that call returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        pool_metrics::task_submitted();
        self.tasks.borrow_mut().push(Box::new(f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn scope_joins_all_tasks_and_allows_borrows() {
        let data: Vec<u64> = (0..1000).collect();
        let total = AtomicUsize::new(0);
        WorkerPool::global().scope(|scope| {
            for chunk in data.chunks(100) {
                let total = &total;
                scope.spawn(move || {
                    let s: u64 = chunk.iter().sum();
                    // RELAXED: the scope's join orders this against the
                    // final read; the counter needs atomicity only.
                    total.fetch_add(s as usize, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.into_inner(), 1000 * 999 / 2);
    }

    #[test]
    fn scope_runs_on_at_most_lanes_threads() {
        let lanes = WorkerPool::global().lanes();
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(HashSet::new());
        WorkerPool::global().scope(|scope| {
            for _ in 0..3 * lanes {
                let ran_on = &ran_on;
                scope.spawn(move || {
                    ran_on.lock().unwrap().insert(std::thread::current().id());
                });
            }
        });
        let ran_on = ran_on.into_inner().unwrap();
        assert!(
            ran_on.len() <= lanes,
            "{} threads for {lanes} lanes",
            ran_on.len()
        );
        assert!(ran_on.contains(&caller), "the caller runs a group");
    }

    #[test]
    fn a_lone_task_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(None);
        WorkerPool::global().scope(|scope| {
            let ran_on = &ran_on;
            scope.spawn(move || *ran_on.lock().unwrap() = Some(std::thread::current().id()));
        });
        assert_eq!(ran_on.into_inner().unwrap(), Some(caller));
    }

    #[test]
    fn sequential_scopes_each_join_their_tasks() {
        let counter = AtomicUsize::new(0);
        for round in 1..=50 {
            WorkerPool::global().scope(|scope| {
                for _ in 0..4 {
                    let counter = &counter;
                    scope.spawn(move || {
                        // RELAXED: the scope's join synchronizes; atomicity only.
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            // RELAXED: read after the scope joined.
            assert_eq!(counter.load(Ordering::Relaxed), 4 * round);
        }
    }

    #[test]
    fn scope_returns_closure_value() {
        let out = WorkerPool::global().scope(|scope| {
            scope.spawn(|| {});
            42
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn task_panic_propagates_after_siblings_finish() {
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::global().scope(|scope| {
                let finished = &finished;
                scope.spawn(|| panic!("boom"));
                for _ in 0..8 {
                    scope.spawn(move || {
                        // RELAXED: the scope's join synchronizes; atomicity only.
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = result.expect_err("scope must re-panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(finished.into_inner(), 8, "siblings all ran");
        // The pool survives a panicked scope.
        let ok = AtomicUsize::new(0);
        WorkerPool::global().scope(|scope| {
            let ok = &ok;
            scope.spawn(move || {
                // RELAXED: the scope's join synchronizes; atomicity only.
                ok.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ok.into_inner(), 1);
    }

    #[test]
    fn concurrent_scopes_from_many_threads() {
        let grand_total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let grand_total = &grand_total;
                s.spawn(move || {
                    for _ in 0..10 {
                        WorkerPool::global().scope(|scope| {
                            for _ in 0..3 {
                                scope.spawn(move || {
                                    // RELAXED: the scope's join synchronizes.
                                    grand_total.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    }
                });
            }
        });
        assert_eq!(grand_total.into_inner(), 120);
    }

    #[test]
    fn nested_scope_from_worker_context_completes() {
        // An outer scope's tasks, some on the outer scope's threads, each
        // open an inner scope with threads of its own.
        let total = AtomicUsize::new(0);
        WorkerPool::global().scope(|outer| {
            for _ in 0..8 {
                let total = &total;
                outer.spawn(move || {
                    WorkerPool::global().scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move || {
                                // RELAXED: the scope's join synchronizes.
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.into_inner(), 32);

        // Three levels deep, one task each: everything stays on the caller.
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(None);
        WorkerPool::global().scope(|a| {
            let ran_on = &ran_on;
            a.spawn(move || {
                WorkerPool::global().scope(|b| {
                    b.spawn(move || {
                        WorkerPool::global().scope(|c| {
                            c.spawn(move || {
                                *ran_on.lock().unwrap() = Some(std::thread::current().id());
                            });
                        });
                    });
                });
            });
        });
        assert_eq!(ran_on.into_inner().unwrap(), Some(caller));
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.lanes() >= 1);
        let hits = AtomicUsize::new(0);
        a.scope(|scope| {
            for _ in 0..16 {
                let hits = &hits;
                scope.spawn(move || {
                    // RELAXED: the scope's join synchronizes; atomicity only.
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.into_inner(), 16);
    }
}
