//! A persistent worker pool with a scoped-submit API.
//!
//! The repair hot paths of UA-GPNM (parallel BFS-row recomputation, the §V
//! per-partition APSP, row composition) were previously parallelized with
//! `crossbeam::thread::scope`, which spawns and joins OS threads *per
//! batch*. Thread spawn costs tens of microseconds; a DER-II batch issues
//! many small parallel sections, so spawn/join dominated the parallel win
//! on the paper's update scales (ROADMAP: "evaluate a persistent worker
//! pool"). This crate keeps one set of workers alive for the process
//! lifetime and hands out borrowed-data scopes over them:
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
//! * **Persistent workers, scoped borrows.** Tasks may borrow from the
//!   caller's stack frame: [`WorkerPool::scope`] does not return until every
//!   task spawned in it has finished, which makes the internal lifetime
//!   erasure sound (the same argument `std::thread::scope` makes).
//! * **One FIFO.** Every submission goes to the back of one queue behind
//!   one pool-wide lock, and workers and waiting callers pop its front.
//!   Tasks on these paths are chunk-sized (a shard's tick, a pattern's
//!   refresh, dozens of BFS rows), so queue traffic is far too low for the
//!   lock to contend. Rejected alternative: per-worker deques with
//!   round-robin dealing and steal-from-the-longest (PRs 2–24). Under the
//!   single lock they scheduled as one FIFO anyway, and on the 2-lane
//!   reference box (one worker plus the caller) there was only one deque.
//! * **The caller helps.** While waiting for its tasks, the scoping thread
//!   executes queued tasks itself. A pool with zero workers degenerates to
//!   serial execution on the caller, nested scopes cannot deadlock the
//!   pool, and `available_parallelism` minus one workers plus the caller
//!   saturates the machine without oversubscribing it.
//! * **Nesting, including from worker context.** A task running *on a pool
//!   worker* may open its own [`WorkerPool::scope`] on the same pool — the
//!   shape a sharded tick produces (shard tasks fan out per-pattern refresh
//!   scopes). This cannot deadlock: a scope's waiter executes queued tasks
//!   itself before sleeping, so every blocked waiter either drains its own
//!   pending work or is waiting on a strictly deeper scope, and the
//!   innermost blocked scope always has its tasks queued where its waiter
//!   can reach them.
//! * **Panic propagation.** A panicking task poisons its scope; the scope
//!   re-panics on the submitting thread after all sibling tasks finish,
//!   matching the `crossbeam::thread::scope(...).expect(...)` behavior the
//!   call sites relied on.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use gpnm_sync::atomic::{AtomicBool, Ordering};
use gpnm_sync::thread::JoinHandle;
use gpnm_sync::{Arc, Condvar, Mutex};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// A type-erased, lifetime-erased task. Erasure to `'static` is sound
/// because [`WorkerPool::scope`] joins every task it submitted before the
/// borrowed environment can go out of scope.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Pool telemetry: cumulative scope/task counters and the live
/// `gpnm_pool_active_tasks` gauge (read against `gpnm_pool_lanes` for
/// lane occupancy). Compiled out under loom model checking — the metrics
/// registry lives in process-wide statics, and loom state must not leak
/// across model iterations.
#[cfg(not(gpnm_loom))]
mod pool_metrics {
    use super::{Arc, OnceLock};

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

/// No-op stand-in under `--cfg gpnm_loom`; see the real module above.
#[cfg(gpnm_loom)]
mod pool_metrics {
    pub fn scope_opened() {}
    pub fn task_submitted() {}
    pub fn task_started() {}
    pub fn task_finished() {}
    pub fn pool_sized(_lanes: usize) {}
}

/// The task queue and shutdown flag shared between the pool handle and
/// workers.
struct Shared {
    state: Mutex<State>,
    /// Signaled when a task is pushed or shutdown begins.
    work_available: Condvar,
}

struct State {
    /// Queued tasks, oldest first; workers and waiting callers pop the
    /// front.
    queue: VecDeque<Task>,
    shutdown: bool,
}

/// Completion latch of one [`WorkerPool::scope`] call.
struct ScopeLatch {
    /// Tasks submitted and not yet finished.
    pending: Mutex<usize>,
    /// Signaled when `pending` reaches zero.
    done: Condvar,
    /// Set if any task panicked.
    panicked: AtomicBool,
}

impl ScopeLatch {
    fn new() -> Arc<Self> {
        Arc::new(ScopeLatch {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        })
    }
}

/// A persistent pool of worker threads. See the crate docs for the design.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawn a pool with `workers` persistent worker threads. `0` is valid:
    /// tasks then run on the thread that calls [`WorkerPool::scope`].
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                gpnm_sync::thread::spawn_named(&format!("gpnm-pool-{i}"), move || {
                    worker_loop(&shared)
                })
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
            threads: workers,
        }
    }

    /// The process-wide pool, created on first use with
    /// `available_parallelism - 1` workers (the scoping caller is the
    /// remaining lane). All repair paths share it, so parallel sections
    /// never oversubscribe each other.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let lanes = std::thread::available_parallelism().map_or(1, usize::from);
            let pool = WorkerPool::new(lanes.saturating_sub(1));
            pool_metrics::pool_sized(pool.lanes());
            pool
        })
    }

    /// Number of persistent worker threads (the caller lane not included).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Parallel lanes a scope can use: the workers plus the helping caller.
    pub fn lanes(&self) -> usize {
        self.threads + 1
    }

    /// Run `f` with a scope whose spawned tasks may borrow from the current
    /// stack frame. Returns once `f` *and every task it spawned* have
    /// finished; panics if any task panicked.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope PoolScope<'scope, 'env>) -> R,
    {
        pool_metrics::scope_opened();
        let scope = PoolScope {
            pool: self,
            latch: ScopeLatch::new(),
            _env: PhantomData,
        };
        // Even if `f` itself panics, already-spawned tasks still borrow the
        // environment: the wait below must happen before unwinding past it.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.wait(&scope.latch);
        match result {
            Ok(value) => {
                if scope.latch.panicked.load(Ordering::Acquire) {
                    panic!("worker pool task panicked");
                }
                value
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Block until `latch` drains, executing queued tasks while waiting.
    fn wait(&self, latch: &Arc<ScopeLatch>) {
        loop {
            {
                let pending = latch.pending.lock().expect("latch lock");
                if *pending == 0 {
                    return;
                }
            }
            // Help: run any queued task (ours or a sibling scope's — both
            // make progress). If nothing is queued, our remaining tasks are
            // running on workers; sleep until one finishes.
            let task = self
                .shared
                .state
                .lock()
                .expect("pool lock")
                .queue
                .pop_front();
            match task {
                Some(task) => task(),
                None => {
                    let pending = latch.pending.lock().expect("latch lock");
                    if *pending > 0 {
                        drop(latch.done.wait(pending).expect("latch wait"));
                    }
                }
            }
        }
    }

    /// Queue an erased task and wake a worker.
    fn push(&self, task: Task) {
        self.shared
            .state
            .lock()
            .expect("pool lock")
            .queue
            .push_back(task);
        self.shared.work_available.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.state.lock().expect("pool lock").shutdown = true;
        self.shared.work_available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.state.lock().expect("pool lock");
    loop {
        if let Some(task) = state.queue.pop_front() {
            drop(state);
            task(); // panics are caught inside the task wrapper
            state = shared.state.lock().expect("pool lock");
            continue;
        }
        if state.shutdown {
            return;
        }
        state = shared.work_available.wait(state).expect("pool wait");
    }
}

/// Handle for submitting borrowed-data tasks; see [`WorkerPool::scope`].
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    latch: Arc<ScopeLatch>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> PoolScope<'_, 'env> {
    /// Queue `f` on the pool. It starts as soon as a worker (or the waiting
    /// caller) is free and is guaranteed finished when the enclosing
    /// [`WorkerPool::scope`] returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        *self.latch.pending.lock().expect("latch lock") += 1;
        pool_metrics::task_submitted();
        let latch = Arc::clone(&self.latch);
        let wrapper: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            pool_metrics::task_started();
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                latch.panicked.store(true, Ordering::Release);
            }
            pool_metrics::task_finished();
            let mut pending = latch.pending.lock().expect("latch lock");
            *pending -= 1;
            if *pending == 0 {
                latch.done.notify_all();
            }
        });
        // SAFETY: the enclosing `WorkerPool::scope` call blocks until this
        // task has run to completion (the latch above), so every borrow of
        // `'env` inside `wrapper` is live for as long as the task can
        // observe it. This is the lifetime argument of `std::thread::scope`,
        // applied to pooled threads instead of freshly spawned ones.
        let task: Task = unsafe { std::mem::transmute(wrapper) };
        self.pool.push(task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_sync::atomic::AtomicUsize;

    #[test]
    fn scope_joins_all_tasks_and_allows_borrows() {
        let pool = WorkerPool::new(3);
        let data: Vec<u64> = (0..1000).collect();
        let total = AtomicUsize::new(0);
        pool.scope(|scope| {
            for chunk in data.chunks(100) {
                let total = &total;
                scope.spawn(move || {
                    let s: u64 = chunk.iter().sum();
                    // RELAXED: scope() latch orders this against the final
                    // read; the counter needs atomicity only.
                    total.fetch_add(s as usize, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.into_inner(), 1000 * 999 / 2);
    }

    #[test]
    fn zero_worker_pool_runs_on_caller() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 0);
        assert_eq!(pool.lanes(), 1);
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(None);
        pool.scope(|scope| {
            let ran_on = &ran_on;
            scope.spawn(move || *ran_on.lock().unwrap() = Some(std::thread::current().id()));
        });
        assert_eq!(ran_on.into_inner().unwrap(), Some(caller));
    }

    #[test]
    fn sequential_scopes_reuse_workers() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.scope(|scope| {
                for _ in 0..4 {
                    let counter = &counter;
                    scope.spawn(move || {
                        // RELAXED: scope() latch synchronizes; atomicity only.
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(counter.into_inner(), 200);
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = WorkerPool::new(1);
        let out = pool.scope(|scope| {
            scope.spawn(|| {});
            42
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn task_panic_propagates_after_siblings_finish() {
        let pool = WorkerPool::new(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let finished2 = Arc::clone(&finished);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                let finished = &finished2;
                scope.spawn(|| panic!("boom"));
                for _ in 0..8 {
                    scope.spawn(move || {
                        // RELAXED: scope() latch synchronizes; atomicity only.
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "scope must re-panic");
        // RELAXED: read after the scope's latch synchronized.
        assert_eq!(finished.load(Ordering::Relaxed), 8, "siblings all ran");
        // The pool survives a panicked scope.
        let ok = AtomicUsize::new(0);
        pool.scope(|scope| {
            let ok = &ok;
            scope.spawn(move || {
                // RELAXED: scope() latch synchronizes; atomicity only.
                ok.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ok.into_inner(), 1);
    }

    #[test]
    fn concurrent_scopes_from_many_threads() {
        let pool = WorkerPool::new(2);
        let grand_total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = &pool;
                let grand_total = &grand_total;
                s.spawn(move || {
                    for _ in 0..10 {
                        pool.scope(|scope| {
                            for _ in 0..3 {
                                scope.spawn(move || {
                                    // RELAXED: scope() latch synchronizes.
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
        // The sharded-tick shape: an outer scope's tasks run on pool
        // workers and each opens an inner scope on the *same* pool. With
        // more outer tasks than lanes, some inner scopes necessarily run
        // from worker context while every worker is busy — progress then
        // depends on waiters helping, which is what this test pins down.
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..8 {
                let total = &total;
                let pool = &pool;
                outer.spawn(move || {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move || {
                                // RELAXED: scope() latch synchronizes.
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.into_inner(), 32);

        // Three levels deep, zero workers: everything degenerates to the
        // caller without hanging.
        let pool = WorkerPool::new(0);
        let hits = AtomicUsize::new(0);
        pool.scope(|a| {
            let hits = &hits;
            let pool = &pool;
            a.spawn(move || {
                pool.scope(|b| {
                    b.spawn(move || {
                        pool.scope(|c| {
                            c.spawn(move || {
                                // RELAXED: scope() latch synchronizes.
                                hits.fetch_add(1, Ordering::Relaxed);
                            });
                        });
                    });
                });
            });
        });
        assert_eq!(hits.into_inner(), 1);
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
                    // RELAXED: scope() latch synchronizes; atomicity only.
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.into_inner(), 16);
    }
}
