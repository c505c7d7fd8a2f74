//! Deterministic token-passing scheduler with preemption-bounded DFS replay.
//!
//! One [`Scheduler`] lives for one *execution* of the model closure. All
//! controlled threads share it; exactly one thread holds the "token"
//! (`Sched::active`) at any time, so controlled code is fully serialized.
//! Every instrumented operation calls into the scheduler, which records a
//! [`Choice`] (the set of runnable threads and which one was picked) and
//! either continues the current thread or hands the token to another.
//!
//! Between executions, [`model_with`] computes the next schedule to try by
//! scanning the recorded choices backwards for the deepest decision with an
//! unexplored alternative (classic DFS over schedules), then replays that
//! prefix. Exploration terminates when no decision has an untried
//! alternative.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering as StdOrdering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Hard cap on controlled threads per execution; model tests are supposed to
/// be tiny (2–3 threads), so hitting this indicates a runaway spawn loop.
const MAX_THREADS: usize = 16;

/// Exploration bounds for [`model_with`]. Defaults come from the
/// `LOOM_MAX_PREEMPTIONS` / `LOOM_MAX_BRANCHES` / `LOOM_MAX_ITERATIONS`
/// environment knobs (see the crate docs).
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Maximum involuntary context switches per execution (CHESS-style
    /// preemption bound). Forced switches at blocking points are free.
    pub max_preemptions: usize,
    /// Maximum decision points in a single execution.
    pub max_branches: usize,
    /// Maximum executions before the model fails loudly.
    pub max_iterations: usize,
    /// Print the number of explored interleavings when done.
    pub log: bool,
}

impl Config {
    /// Read the exploration bounds from the environment, falling back to the
    /// documented defaults.
    pub fn from_env() -> Self {
        fn env_usize(name: &str, default: usize) -> usize {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(default)
        }
        Config {
            max_preemptions: env_usize("LOOM_MAX_PREEMPTIONS", 2),
            max_branches: env_usize("LOOM_MAX_BRANCHES", 5_000),
            max_iterations: env_usize("LOOM_MAX_ITERATIONS", 500_000),
            log: std::env::var("LOOM_LOG").is_ok_and(|v| v == "1"),
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::from_env()
    }
}

/// Panic payload used to unwind controlled threads once an execution has
/// failed; recognized (and silenced) by the thread wrappers and panic hook.
pub(crate) struct ModelAbort;

/// What a controlled thread is blocked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// Waiting to acquire the mutex with this resource id.
    Mutex(u64),
    /// Waiting to acquire a read lock.
    RwRead(u64),
    /// Waiting to acquire a write lock.
    RwWrite(u64),
    /// Parked on a condvar until notified.
    Condvar(u64),
    /// Waiting for the thread with this id to finish.
    Join(usize),
    /// The model's root thread waiting for every spawned thread to finish.
    JoinAll,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Runnable,
    Blocked(Block),
    Finished,
}

/// Shared lock/rwlock bookkeeping, keyed by object address.
#[derive(Debug, Default)]
struct ResState {
    /// Exclusive owner (mutex holder or rwlock writer).
    owner: Option<usize>,
    /// Shared reader count (rwlock only).
    readers: usize,
}

/// One recorded decision: the candidate threads (current-thread-first, so
/// index 0 is "keep running") and which index was picked this execution.
#[derive(Debug, Clone)]
struct Choice {
    choices: Vec<usize>,
    picked: usize,
}

struct Sched {
    threads: Vec<TState>,
    /// The thread currently holding the execution token.
    active: usize,
    /// Decisions recorded so far this execution.
    schedule: Vec<Choice>,
    /// Thread ids to pick at each decision, replayed from the previous
    /// execution's schedule prefix; past its end the DFS default (index 0)
    /// applies.
    replay: Vec<usize>,
    step: usize,
    preemptions: usize,
    failed: Option<String>,
    resources: HashMap<u64, ResState>,
    cfg: Config,
}

pub(crate) struct Scheduler {
    mx: StdMutex<Sched>,
    cv: StdCondvar,
    /// OS handles of spawned controlled threads, joined at execution end.
    os_handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Scheduler { .. }")
    }
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

/// The scheduler/thread-id pair for the calling thread, if it is a controlled
/// thread of an active model execution.
pub(crate) fn current() -> Option<(Arc<Scheduler>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn set_current(v: Option<(Arc<Scheduler>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

type Guard<'a> = StdMutexGuard<'a, Sched>;

impl Scheduler {
    fn new(cfg: Config, replay: Vec<usize>) -> Self {
        Scheduler {
            mx: StdMutex::new(Sched {
                threads: vec![TState::Runnable], // tid 0 = the model root
                active: 0,
                schedule: Vec::new(),
                replay,
                step: 0,
                preemptions: 0,
                failed: None,
                resources: HashMap::new(),
                cfg,
            }),
            cv: StdCondvar::new(),
            os_handles: StdMutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> Guard<'_> {
        // The scheduler's own mutex is never poisoned observably: controlled
        // threads only panic via ModelAbort *outside* these critical
        // sections. Recover defensively anyway.
        match self.mx.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Record the execution as failed (first failure wins) and wake every
    /// controlled thread so it can unwind via [`ModelAbort`].
    pub(crate) fn fail(&self, msg: String) {
        let mut g = self.lock();
        if g.failed.is_none() {
            let trace = render_trace(&g.schedule);
            g.failed = Some(format!("{msg}\n  schedule so far: [{trace}]"));
        }
        self.cv.notify_all();
    }

    /// Core decision: pick which thread runs next and hand it the token.
    ///
    /// `me` is the deciding thread (the current token holder). Its own state
    /// must already reflect the operation being performed (e.g. set to
    /// `Blocked` before a blocking acquire). Panics with [`ModelAbort`] if
    /// the execution has already failed.
    fn decide(&self, g: &mut Sched, me: usize) {
        if g.failed.is_some() {
            std::panic::panic_any(ModelAbort);
        }
        let enabled: Vec<usize> = g
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == TState::Runnable)
            .map(|(i, _)| i)
            .collect();
        if enabled.is_empty() {
            if g.threads.iter().all(|t| *t == TState::Finished) {
                // Last thread finishing; nothing left to schedule.
                return;
            } else {
                let stuck: Vec<String> = g
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !matches!(t, TState::Finished))
                    .map(|(i, t)| format!("thread {i}: {t:?}"))
                    .collect();
                let trace = render_trace(&g.schedule);
                g.failed = Some(format!(
                    "deadlock: no runnable thread\n  {}\n  schedule so far: [{trace}]",
                    stuck.join("\n  ")
                ));
                self.cv.notify_all();
                std::panic::panic_any(ModelAbort);
            }
        }
        if g.schedule.len() >= g.cfg.max_branches {
            let trace = render_trace(&g.schedule);
            g.failed = Some(format!(
                "exceeded LOOM_MAX_BRANCHES ({}) decision points in one execution; \
                 raise the bound or shrink the model\n  schedule so far: [{trace}]",
                g.cfg.max_branches
            ));
            self.cv.notify_all();
            std::panic::panic_any(ModelAbort);
        }
        // Current-thread-first so that choice index 0 ("the default") means
        // "keep running without a context switch".
        let me_enabled = enabled.contains(&me);
        let mut choices = Vec::with_capacity(enabled.len());
        if me_enabled {
            choices.push(me);
        }
        choices.extend(enabled.iter().copied().filter(|&t| t != me));
        // Once the preemption budget is spent, an enabled current thread
        // must keep running; switches remain free where `me` is blocked.
        if me_enabled && g.preemptions >= g.cfg.max_preemptions {
            choices.truncate(1);
        }
        let picked = if g.step < g.replay.len() {
            let want = g.replay[g.step];
            match choices.iter().position(|&t| t == want) {
                Some(i) => i,
                None => {
                    let trace = render_trace(&g.schedule);
                    g.failed = Some(format!(
                        "internal: schedule replay diverged at step {} \
                         (wanted thread {want}, candidates {choices:?}); \
                         the model closure is not deterministic\n  \
                         schedule so far: [{trace}]",
                        g.step
                    ));
                    self.cv.notify_all();
                    std::panic::panic_any(ModelAbort);
                }
            }
        } else {
            0
        };
        let next = choices[picked];
        if me_enabled && next != me {
            g.preemptions += 1;
        }
        g.schedule.push(Choice { choices, picked });
        g.step += 1;
        g.active = next;
        if next != me {
            self.cv.notify_all();
        }
    }

    /// Block until this thread holds the token (aborting if the execution
    /// failed), returning the re-acquired scheduler guard.
    fn wait_token<'a>(&'a self, mut g: Guard<'a>, me: usize) -> Guard<'a> {
        loop {
            if g.failed.is_some() {
                drop(g);
                std::panic::panic_any(ModelAbort);
            }
            if g.active == me && g.threads[me] == TState::Runnable {
                return g;
            }
            g = match self.cv.wait(g) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// A plain decision point (atomic op, fence, etc.): maybe switch, then
    /// wait until this thread runs again.
    pub(crate) fn point(self: &Arc<Self>, me: usize) {
        let mut g = self.lock();
        self.decide(&mut g, me);
        let _g = self.wait_token(g, me);
    }

    // ---- mutex / rwlock -------------------------------------------------

    pub(crate) fn mutex_lock(self: &Arc<Self>, me: usize, id: u64) {
        let mut g = self.lock();
        self.decide(&mut g, me);
        g = self.wait_token(g, me);
        loop {
            let res = g.resources.entry(id).or_default();
            if res.owner.is_none() && res.readers == 0 {
                res.owner = Some(me);
                return;
            }
            g.threads[me] = TState::Blocked(Block::Mutex(id));
            self.decide(&mut g, me);
            g = self.wait_token(g, me);
        }
    }

    pub(crate) fn mutex_unlock(self: &Arc<Self>, me: usize, id: u64) {
        let mut g = self.lock();
        if g.failed.is_some() {
            // Unwinding via ModelAbort: release silently so guard drops
            // never double-panic.
            if let Some(res) = g.resources.get_mut(&id) {
                res.owner = None;
            }
            return;
        }
        if let Some(res) = g.resources.get_mut(&id) {
            res.owner = None;
        }
        Self::wake_lock_waiters(&mut g, id);
        // Releasing a lock is itself a decision point: the freshly woken
        // waiters are schedulable *now*, which is where lock-handoff races
        // live.
        self.decide(&mut g, me);
        let _g = self.wait_token(g, me);
    }

    pub(crate) fn rw_read_lock(self: &Arc<Self>, me: usize, id: u64) {
        let mut g = self.lock();
        self.decide(&mut g, me);
        g = self.wait_token(g, me);
        loop {
            let res = g.resources.entry(id).or_default();
            if res.owner.is_none() {
                res.readers += 1;
                return;
            }
            g.threads[me] = TState::Blocked(Block::RwRead(id));
            self.decide(&mut g, me);
            g = self.wait_token(g, me);
        }
    }

    pub(crate) fn rw_read_unlock(self: &Arc<Self>, me: usize, id: u64) {
        let mut g = self.lock();
        if g.failed.is_some() {
            if let Some(res) = g.resources.get_mut(&id) {
                res.readers = res.readers.saturating_sub(1);
            }
            return;
        }
        if let Some(res) = g.resources.get_mut(&id) {
            res.readers = res.readers.saturating_sub(1);
        }
        Self::wake_lock_waiters(&mut g, id);
        self.decide(&mut g, me);
        let _g = self.wait_token(g, me);
    }

    pub(crate) fn rw_write_lock(self: &Arc<Self>, me: usize, id: u64) {
        let mut g = self.lock();
        self.decide(&mut g, me);
        g = self.wait_token(g, me);
        loop {
            let res = g.resources.entry(id).or_default();
            if res.owner.is_none() && res.readers == 0 {
                res.owner = Some(me);
                return;
            }
            g.threads[me] = TState::Blocked(Block::RwWrite(id));
            self.decide(&mut g, me);
            g = self.wait_token(g, me);
        }
    }

    pub(crate) fn rw_write_unlock(self: &Arc<Self>, me: usize, id: u64) {
        self.mutex_unlock(me, id);
    }

    fn wake_lock_waiters(g: &mut Sched, id: u64) {
        for t in g.threads.iter_mut() {
            if matches!(
                t,
                TState::Blocked(Block::Mutex(b) | Block::RwRead(b) | Block::RwWrite(b)) if *b == id
            ) {
                *t = TState::Runnable;
            }
        }
    }

    // ---- condvar --------------------------------------------------------

    /// Atomically release mutex `mutex_id`, park on condvar `cv_id` until
    /// notified, then re-acquire the mutex.
    pub(crate) fn condvar_wait(self: &Arc<Self>, me: usize, cv_id: u64, mutex_id: u64) {
        let mut g = self.lock();
        if g.failed.is_some() {
            drop(g);
            std::panic::panic_any(ModelAbort);
        }
        if let Some(res) = g.resources.get_mut(&mutex_id) {
            res.owner = None;
        }
        Self::wake_lock_waiters(&mut g, mutex_id);
        g.threads[me] = TState::Blocked(Block::Condvar(cv_id));
        self.decide(&mut g, me);
        g = self.wait_token(g, me);
        // Notified; re-acquire the mutex (no extra decision point first —
        // being scheduled here *is* the wakeup).
        loop {
            let res = g.resources.entry(mutex_id).or_default();
            if res.owner.is_none() && res.readers == 0 {
                res.owner = Some(me);
                return;
            }
            g.threads[me] = TState::Blocked(Block::Mutex(mutex_id));
            self.decide(&mut g, me);
            g = self.wait_token(g, me);
        }
    }

    /// Wake all threads parked on `cv_id`. `notify_one` also routes here:
    /// waking more threads than a real notify is sound (every waiter
    /// re-checks its predicate under the mutex, exactly as it must for
    /// spurious wakeups), and it keeps the schedule space exhaustive over
    /// which waiter actually wins.
    pub(crate) fn condvar_notify_all(self: &Arc<Self>, me: usize, cv_id: u64) {
        let mut g = self.lock();
        if g.failed.is_some() {
            return;
        }
        for t in g.threads.iter_mut() {
            if matches!(t, TState::Blocked(Block::Condvar(b)) if *b == cv_id) {
                *t = TState::Runnable;
            }
        }
        self.decide(&mut g, me);
        let _g = self.wait_token(g, me);
    }

    // ---- threads --------------------------------------------------------

    /// Register a new controlled thread and return its id. No decision point
    /// here: the caller spawns the OS thread first (so the child can actually
    /// accept the token) and then takes a [`Scheduler::point`].
    pub(crate) fn register_thread(self: &Arc<Self>) -> usize {
        let mut g = self.lock();
        if g.failed.is_some() {
            drop(g);
            std::panic::panic_any(ModelAbort);
        }
        if g.threads.len() >= MAX_THREADS {
            let trace = render_trace(&g.schedule);
            g.failed = Some(format!(
                "model spawned more than {MAX_THREADS} threads; model tests must stay small\n  \
                 schedule so far: [{trace}]"
            ));
            self.cv.notify_all();
            drop(g);
            std::panic::panic_any(ModelAbort);
        }
        let tid = g.threads.len();
        g.threads.push(TState::Runnable);
        tid
    }

    pub(crate) fn add_os_handle(&self, h: std::thread::JoinHandle<()>) {
        match self.os_handles.lock() {
            Ok(mut v) => v.push(h),
            Err(p) => p.into_inner().push(h),
        }
    }

    /// Entry point for a freshly spawned controlled thread: park until the
    /// scheduler hands it the token for the first time.
    pub(crate) fn thread_started(self: &Arc<Self>, me: usize) {
        let g = self.lock();
        let _g = self.wait_token(g, me);
    }

    /// Mark `me` finished, wake joiners, and hand the token on. Does not
    /// wait (the OS thread exits).
    pub(crate) fn thread_finished(self: &Arc<Self>, me: usize) {
        let mut g = self.lock();
        g.threads[me] = TState::Finished;
        for t in g.threads.iter_mut() {
            if matches!(t, TState::Blocked(Block::Join(b)) if *b == me) {
                *t = TState::Runnable;
            }
        }
        Self::maybe_wake_join_all(&mut g);
        if g.failed.is_some() {
            self.cv.notify_all();
            return;
        }
        let r = catch_unwind(AssertUnwindSafe(|| self.decide(&mut g, me)));
        drop(g);
        if r.is_err() {
            // Deadlock or budget failure detected while finishing: the
            // failure is recorded; just let this thread exit.
            self.cv.notify_all();
        }
    }

    pub(crate) fn join_thread(self: &Arc<Self>, me: usize, target: usize) {
        let mut g = self.lock();
        self.decide(&mut g, me);
        g = self.wait_token(g, me);
        while g.threads[target] != TState::Finished {
            g.threads[me] = TState::Blocked(Block::Join(target));
            self.decide(&mut g, me);
            g = self.wait_token(g, me);
        }
    }

    fn maybe_wake_join_all(g: &mut Sched) {
        let all_done = g
            .threads
            .iter()
            .all(|t| matches!(t, TState::Finished | TState::Blocked(Block::JoinAll)));
        if all_done {
            for t in g.threads.iter_mut() {
                if matches!(t, TState::Blocked(Block::JoinAll)) {
                    *t = TState::Runnable;
                }
            }
        }
    }

    /// Called by the root thread after the model closure returns: wait for
    /// every spawned thread to finish so each execution is fully drained.
    fn root_drain(self: &Arc<Self>) {
        let mut g = self.lock();
        if g.failed.is_some() {
            drop(g);
            std::panic::panic_any(ModelAbort);
        }
        g.threads[0] = TState::Blocked(Block::JoinAll);
        Self::maybe_wake_join_all(&mut g);
        if g.threads[0] == TState::Runnable {
            // Everyone already finished; no decision needed.
            return;
        }
        self.decide(&mut g, 0);
        let _g = self.wait_token(g, 0);
    }

    fn join_os_threads(&self) {
        let handles = {
            let mut v = match self.os_handles.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            std::mem::take(&mut *v)
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

fn render_trace(schedule: &[Choice]) -> String {
    schedule
        .iter()
        .map(|c| c.choices[c.picked].to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// The deepest-alternative successor of `schedule`, or `None` when the DFS
/// is exhausted.
fn next_replay(schedule: &[Choice]) -> Option<Vec<usize>> {
    for i in (0..schedule.len()).rev() {
        let c = &schedule[i];
        if c.picked + 1 < c.choices.len() {
            let mut replay: Vec<usize> =
                schedule[..i].iter().map(|p| p.choices[p.picked]).collect();
            replay.push(c.choices[c.picked + 1]);
            return Some(replay);
        }
    }
    None
}

// Reference-counted install of a panic hook that silences ModelAbort unwinds
// (they are control flow, not failures) while forwarding real panics.
static HOOK_USERS: AtomicUsize = AtomicUsize::new(0);

struct HookGuard;

impl HookGuard {
    fn install() -> HookGuard {
        // RELAXED: the counter only gates idempotent hook installation; the
        // hook itself is set under no ordering requirement (worst case two
        // equivalent hooks race, both silence ModelAbort identically).
        if HOOK_USERS.fetch_add(1, StdOrdering::Relaxed) == 0 {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().downcast_ref::<ModelAbort>().is_none() {
                    prev(info);
                }
            }));
        }
        HookGuard
    }
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        // Deliberately never uninstall: concurrent model() calls (parallel
        // test threads) share the hook, and the replacement forwards real
        // panics, so leaving it installed is harmless.
        // RELAXED: see install().
        HOOK_USERS.fetch_sub(1, StdOrdering::Relaxed);
    }
}

/// Run `f` once per schedule until the bounded schedule space is exhausted,
/// using bounds from the environment ([`Config::from_env`]).
///
/// Panics (with the failing schedule) if any execution panics, deadlocks, or
/// exceeds a bound.
pub fn model<F>(f: F)
where
    F: Fn() + 'static,
{
    model_with(Config::from_env(), f);
}

/// [`model`] with explicit exploration bounds.
pub fn model_with<F>(cfg: Config, f: F)
where
    F: Fn() + 'static,
{
    let _hook = HookGuard::install();
    let mut replay: Vec<usize> = Vec::new();
    let mut iterations: usize = 0;
    loop {
        iterations += 1;
        if iterations > cfg.max_iterations {
            panic!(
                "loom shim: exceeded LOOM_MAX_ITERATIONS ({}) before exhausting the \
                 schedule space; raise the bound or shrink the model",
                cfg.max_iterations
            );
        }
        let sched = Arc::new(Scheduler::new(cfg, std::mem::take(&mut replay)));
        set_current(Some((sched.clone(), 0)));
        let body = catch_unwind(AssertUnwindSafe(|| {
            f();
            sched.root_drain();
        }));
        if let Err(payload) = &body {
            if payload.downcast_ref::<ModelAbort>().is_none() {
                // A genuine panic in the root thread: record it so spawned
                // threads unwind too.
                sched.fail(format!("model thread 0 panicked: {}", panic_msg(payload)));
            }
        }
        sched.join_os_threads();
        set_current(None);
        let (failed, schedule) = {
            let g = sched.lock();
            (g.failed.clone(), g.schedule.clone())
        };
        if let Some(msg) = failed {
            panic!("loom shim: model failed on interleaving #{iterations}:\n  {msg}");
        }
        match next_replay(&schedule) {
            Some(r) => replay = r,
            None => break,
        }
    }
    if cfg.log {
        eprintln!("loom shim: explored {iterations} interleavings");
    }
}

fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Report a controlled (non-root) thread's panic as a model failure.
pub(crate) fn thread_panicked(
    sched: &Arc<Scheduler>,
    me: usize,
    payload: Box<dyn std::any::Any + Send>,
) {
    if payload.downcast_ref::<ModelAbort>().is_some() {
        return;
    }
    sched.fail(format!(
        "model thread {me} panicked: {}",
        panic_msg(payload.as_ref())
    ));
}
