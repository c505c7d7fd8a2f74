//! The concurrent read front-end: published snapshots ([`ReadView`]) and
//! bounded match-delta subscriptions ([`Subscription`]).
//!
//! A tick owns its host exclusively (`&mut self`), but serving readers
//! must not: readers keep reading while ticks run. The writer builds each
//! pattern's next view off to the side — the whole tick's work happens
//! with no front-end lock held — and *publishes* it after commit, so a
//! reader can only ever observe a fully-committed view:
//!
//! * every handle's live view sits in one map, `RwLock<HashMap<u64,
//!   Arc<ReadView>>>`. A read takes the read lock for one lookup and one
//!   `Arc` clone; a tick's publication takes the write lock **once**,
//!   swaps every handle's pointer, and drops the superseded views after
//!   releasing it. The views themselves are immutable — the
//!   shared-immutable hand-off *Asynchronous Graph Pattern Matching on
//!   Multiprocessor Systems* (PAPERS.md) gives its workers — so the lock
//!   guards pointers, never a tick;
//! * subscriptions ride the same publication: after the views of a tick
//!   are swapped in, the tick's [`MatchDelta`]s fan out, under one lock of
//!   the subscriber map, to per-subscriber bounded queues. A slow
//!   consumer is never buffered without bound — once its queue is full,
//!   everything it missed is folded (via [`MatchDelta::compose`]) into
//!   **one** coalesced [`SubEvent::Lagged`] catch-up delta;
//! * an offer wakes a consumer only if one is waiting. A consumer raises
//!   its queue's waiter count under the queue's lock before it waits on
//!   the condition variable, and lowers it after. The offer reads the
//!   count under the same lock and notifies only when it is non-zero, so
//!   a consumer that drains with [`Subscription::try_recv`] costs the
//!   writer no wake-up call. No wake-up is lost: a consumer about to wait
//!   has raised the count before it unlocks, and the condition variable
//!   itself covers the gap between its unlock and its sleep. `close`
//!   always notifies.
//!
//! The [`ReadFront`] is the shared, cloneable bundle of all of this:
//! hosts hand it out via `reader()`, reader threads keep their clone —
//! and their views and subscriptions — while `&mut self` ticks proceed
//! on the host. Dropping the host closes every subscription on its front.
//!
//! Measured on `trickle_read` (12 patterns, 2-update ticks, one reader
//! thread; seed 11, 2 cores). Per-tick medians of two 5 s rounds a side,
//! from instrumented copies of the per-handle design below and this one:
//! publication fell from 14.8–16.4 µs a tick to 7.6 µs — building the
//! views and deltas 1.6–1.8 → 1.7–1.9 µs, the swap 6.8–6.9 → 1.4–1.5 µs,
//! the fan-out 6.9–7.0 → 1.9–2.0 µs — and from 31–35% of the host's tick
//! to 20–21%. Over ten alternating 20 s runs a side, `tick_p50_ms` read
//! 0.0312 → 0.0265 and the reader's `read_view` 95.5 → 49.6 ns.
//!
//! Rejected alternatives:
//!
//! * *One lock per handle* (the design this one replaced): each handle's
//!   entry held its view in its own `RwLock<Arc<ReadView>>` and its
//!   subscribers in its own `Mutex`, and every offer called `notify_all`
//!   whether or not a consumer waited. A tick of k patterns paid k map
//!   lookups, k view write locks and k subscriber locks, and a wake-up
//!   system call per subscriber (std's futex condition variable issues
//!   one even with no waiter), so publication was the largest phase of
//!   `trickle_read`'s tick, though about 3% of its ticks change any
//!   result. A read paid two read locks and two `Arc` clones (the
//!   entry's and the view's).
//! * *An epoch-swapped double buffer* (the design before that): an
//!   `AtomicU64` epoch naming the live one of two `RwLock` slots, a
//!   `try_read` + spin retry, a seqlock re-check of the epoch. It
//!   avoided no lock — every `read_view` already took the handle map's
//!   `RwLock` first, and each slot was an `RwLock` too — and its spare
//!   slot kept every superseded view alive for one more publication. Sizing run (`trickle_read`,
//!   four alternating pairs, `--seconds 5`): the reader went from 101.7 /
//!   82.8 / 77.6 / 77.4 ns per read with the double buffer to 83.4 / 76.0
//!   / 72.6 / 75.4 with one lock, `tick_p50_ms` stayed within 0.100–0.104
//!   on both sides, and every run printed `correct: true`.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak,
};
use std::time::Duration;

use gpnm_matcher::{MatchDelta, MatchResult};

use crate::host::HandleId;

/// Default bounded capacity of a subscription's pending-delta queue —
/// the backlog a consumer may accumulate before the stream degrades to a
/// coalesced [`SubEvent::Lagged`] catch-up instead of buffering without
/// bound. Override per subscription with
/// [`ReadFront::subscribe_with_capacity`].
pub const DEFAULT_SUBSCRIPTION_CAPACITY: usize = 64;

/// One pattern's published snapshot: the full result as of a committed
/// tick, immutable behind an `Arc`. This is what every concurrent reader
/// sees — the writer never mutates a published view, it publishes a new
/// one. The view shares its match sets with the host's live result, and
/// with earlier views, until a later tick writes them (see
/// [`MatchResult::visible`]): publishing it copies no set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadView {
    /// The full match table at `result_version`.
    pub result: MatchResult,
    /// How many ticks this pattern's result has absorbed — the version
    /// [`MatchDelta::result_version`] counts against.
    pub result_version: u64,
    /// The host tick at which this view was published.
    pub tick: u64,
}

impl ReadView {
    /// The view a host publishes of `result` at `result_version` and host
    /// `tick`: the visible sets alone, shared with `result` by reference
    /// ([`MatchResult::visible`]) — never the withheld relation, and never
    /// a copy of a set.
    pub fn of(result: &MatchResult, result_version: u64, tick: u64) -> ReadView {
        ReadView {
            result: result.visible(),
            result_version,
            tick,
        }
    }
}

/// Typed error of the standalone read path: the handle was never
/// published here, or has been closed by deregistration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// No live published state for this handle.
    UnknownHandle(HandleId),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::UnknownHandle(id) => {
                write!(f, "no published state for {id} (unknown or deregistered)")
            }
        }
    }
}

impl std::error::Error for ReadError {}

/// What a [`Subscription`] yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubEvent {
    /// One tick's delta, in order, gap-free.
    Delta(MatchDelta),
    /// The consumer fell behind its bounded queue: every missed tick has
    /// been folded into one catch-up delta via [`MatchDelta::compose`],
    /// stamped with the newest missed `result_version`. Applying it
    /// advances the consumer as if it had applied each missed delta
    /// in order.
    Lagged {
        /// How many per-tick deltas were coalesced into `delta`.
        missed_versions: u64,
        /// The composition of every missed delta.
        delta: MatchDelta,
    },
    /// The pattern was deregistered (or its host dropped). Always the
    /// final event; any deltas published before the close are still
    /// delivered first.
    Closed,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A reader panicking mid-`recv` must not wedge the writer (or other
    // clones of the front): recover the guard and keep serving.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// Publish-path counters, resolved once per process.
mod read_metrics {
    use std::sync::{Arc, OnceLock};

    use gpnm_telemetry::Counter;

    struct Series {
        views: Arc<Counter>,
        deltas: Arc<Counter>,
        lagged: Arc<Counter>,
    }

    pub fn tick_published(views: u64, deltas_offered: u64, newly_lagged: u64) {
        static SERIES: OnceLock<Series> = OnceLock::new();
        let f = SERIES.get_or_init(|| {
            let reg = gpnm_telemetry::global();
            Series {
                views: reg.counter("gpnm_read_views_published_total"),
                deltas: reg.counter("gpnm_read_deltas_fanned_total"),
                lagged: reg.counter("gpnm_read_sub_lagged_total"),
            }
        });
        f.views.add(views);
        f.deltas.add(deltas_offered);
        f.lagged.add(newly_lagged);
    }
}

/// Consumer-side queue state. `pending` and `lagged` are mutually
/// exclusive: overflow drains the whole queue into the coalesced record,
/// and further publishes fold into it until the consumer drains it.
struct SubState {
    pending: VecDeque<MatchDelta>,
    lagged: Option<(u64, MatchDelta)>,
    closed: bool,
    /// Consumers blocked in `recv` / `recv_timeout`. Raised under this
    /// lock before each wait and lowered after it, so an `offer` that
    /// reads 0 here knows nobody can be asleep on `ready`.
    waiting: usize,
}

struct SubShared {
    state: Mutex<SubState>,
    ready: Condvar,
    capacity: usize,
}

impl SubShared {
    fn new(capacity: usize) -> Self {
        SubShared {
            state: Mutex::new(SubState {
                pending: VecDeque::new(),
                lagged: None,
                closed: false,
                waiting: 0,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Writer side: enqueue one published delta, degrading to the
    /// coalesced lagged record instead of growing past `capacity`, and
    /// wake the consumer only if one is waiting. Returns whether this
    /// offer *newly* degraded the stream (the full-queue → lagged
    /// transition; folds into an existing lagged record return `false`).
    fn offer(&self, delta: &MatchDelta) -> bool {
        let mut st = lock(&self.state);
        if st.closed {
            return false;
        }
        let mut newly_lagged = false;
        if let Some((missed, acc)) = st.lagged.take() {
            st.lagged = Some((missed + 1, acc.compose(delta)));
        } else if st.pending.len() >= self.capacity {
            let mut missed = 1u64; // the delta that did not fit
            let mut acc = delta.clone();
            // Compose right-to-left so each step is older ∘ newer.
            while let Some(d) = st.pending.pop_back() {
                missed += 1;
                acc = d.compose(&acc);
            }
            st.lagged = Some((missed, acc));
            newly_lagged = true;
        } else {
            st.pending.push_back(delta.clone());
        }
        let wake = st.waiting > 0;
        drop(st);
        if wake {
            self.ready.notify_all();
        }
        newly_lagged
    }

    fn close(&self) {
        lock(&self.state).closed = true;
        self.ready.notify_all();
    }

    fn pop(st: &mut SubState) -> Option<SubEvent> {
        if let Some((missed_versions, delta)) = st.lagged.take() {
            return Some(SubEvent::Lagged {
                missed_versions,
                delta,
            });
        }
        if let Some(delta) = st.pending.pop_front() {
            return Some(SubEvent::Delta(delta));
        }
        if st.closed {
            return Some(SubEvent::Closed);
        }
        None
    }
}

/// An ordered, gap-free stream of one pattern's per-tick deltas.
///
/// Events arrive in `result_version` order with no version skipped:
/// either each tick is its own [`SubEvent::Delta`], or — if the consumer
/// fell behind its bounded queue — the missed ticks arrive folded into
/// one [`SubEvent::Lagged`] whose delta spans them all. Folding the
/// stream with [`MatchDelta::apply_to`] over a base
/// [`ReadView`] therefore reconstructs the live result exactly; apply
/// every event whose `result_version` exceeds the base's
/// `result_version` (a delta at or below it is already contained in the
/// base snapshot).
///
/// Dropping the subscription unsubscribes: the writer prunes it at the
/// next publication.
#[derive(Debug)]
pub struct Subscription {
    shared: Arc<SubShared>,
}

impl fmt::Debug for SubShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubShared")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Subscription {
    /// Next event, blocking until one is available. Returns
    /// [`SubEvent::Closed`] exactly once at end of stream; calling again
    /// after that keeps returning `Closed`.
    pub fn recv(&self) -> SubEvent {
        let mut st = lock(&self.shared.state);
        loop {
            if let Some(event) = SubShared::pop(&mut st) {
                return event;
            }
            st.waiting += 1;
            st = self
                .shared
                .ready
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st.waiting -= 1;
        }
    }

    /// Next event if one is ready, without blocking.
    pub fn try_recv(&self) -> Option<SubEvent> {
        SubShared::pop(&mut lock(&self.shared.state))
    }

    /// Next event, waiting at most `timeout`. `None` means the wait
    /// timed out with no event ready.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<SubEvent> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = lock(&self.shared.state);
        loop {
            if let Some(event) = SubShared::pop(&mut st) {
                return Some(event);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            st.waiting += 1;
            let (guard, _) = self
                .shared
                .ready
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st = guard;
            st.waiting -= 1;
        }
    }
}

/// Where a [`PinnedReader`] finds its handle's final view once the handle
/// is closed: empty while the handle is live, set once by `close`.
type PinCell = OnceLock<Arc<ReadView>>;

/// Who watches one handle: its subscribers, and the cells of its live
/// pinned readers.
#[derive(Default)]
struct Watchers {
    subs: Vec<Arc<SubShared>>,
    pins: Vec<Weak<PinCell>>,
}

/// The front's two locks. Lock order: `watchers` before `views`; only
/// `close`, `pinned` and `subscribe` hold both.
#[derive(Default)]
struct FrontInner {
    /// Every handle's live view. Locked only to clone an `Arc` out
    /// (readers) or to swap a tick's views in (publication), never across
    /// a tick; the stored `Arc`s are always whole, fully built views, so
    /// a poisoned lock is recovered rather than propagated.
    views: RwLock<HashMap<u64, Arc<ReadView>>>,
    /// Subscribers and pins, by handle; a handle nobody watches has no
    /// entry.
    watchers: Mutex<HashMap<u64, Watchers>>,
}

impl FrontInner {
    fn views(&self) -> RwLockReadGuard<'_, HashMap<u64, Arc<ReadView>>> {
        self.views
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn views_mut(&self) -> RwLockWriteGuard<'_, HashMap<u64, Arc<ReadView>>> {
        self.views
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn load(&self, id: u64) -> Option<Arc<ReadView>> {
        self.views().get(&id).cloned()
    }

    /// The watchers of `id` under the held `watchers` lock, created on
    /// first use; `UnknownHandle` unless `id` has a live view.
    fn watch<'a>(
        &self,
        watchers: &'a mut HashMap<u64, Watchers>,
        id: HandleId,
    ) -> Result<&'a mut Watchers, ReadError> {
        if !self.views().contains_key(&id.raw()) {
            return Err(ReadError::UnknownHandle(id));
        }
        Ok(watchers.entry(id.raw()).or_default())
    }
}

/// The shared read front-end of one host: published [`ReadView`]s and
/// delta [`Subscription`]s for every registered pattern, usable from any
/// thread while the host ticks.
///
/// Obtained from a host's `reader()` (or the [`crate::PatternHost`]
/// method of the same name); cloning is cheap (`Arc`) and every clone
/// observes the same publications. The read path
/// ([`ReadFront::read_view`]) takes no lock the writer ever holds across
/// a tick: publication write-locks the view map only to swap a tick's
/// pointers in, and a read holds its read lock for one lookup and one
/// `Arc` clone. Any number of readers may read concurrently with `apply`.
///
/// The `publish*`/`close` methods are the **host side** of the contract;
/// application code only reads.
#[derive(Debug, Clone, Default)]
pub struct ReadFront {
    inner: Arc<FrontInner>,
}

impl fmt::Debug for FrontInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrontInner").finish_non_exhaustive()
    }
}

impl ReadFront {
    /// An empty front with nothing published.
    pub fn new() -> Self {
        Self::default()
    }

    /// The last published snapshot of `handle` — an `Arc` clone under the
    /// view map's read lock, which publication holds only for a tick's
    /// pointer swaps; always a fully-committed view.
    pub fn read_view(&self, handle: impl Into<HandleId>) -> Result<Arc<ReadView>, ReadError> {
        let id = handle.into();
        self.inner
            .load(id.raw())
            .ok_or(ReadError::UnknownHandle(id))
    }

    /// A reader pinned to one handle: it keeps serving the handle's last
    /// published view after the handle is closed, where
    /// [`ReadFront::read_view`] errs. While the handle is live a view
    /// costs what `read_view` costs, plus one check.
    pub fn pinned(&self, handle: impl Into<HandleId>) -> Result<PinnedReader, ReadError> {
        let id = handle.into();
        let closed = Arc::new(PinCell::new());
        let mut watchers = lock(&self.inner.watchers);
        let watch = self.inner.watch(&mut watchers, id)?;
        watch.pins.retain(|pin| pin.strong_count() > 0);
        watch.pins.push(Arc::downgrade(&closed));
        Ok(PinnedReader {
            front: Arc::clone(&self.inner),
            id: id.raw(),
            closed,
        })
    }

    /// Subscribe to `handle`'s delta stream with the
    /// [default backlog](DEFAULT_SUBSCRIPTION_CAPACITY).
    pub fn subscribe(&self, handle: impl Into<HandleId>) -> Result<Subscription, ReadError> {
        self.subscribe_with_capacity(handle, DEFAULT_SUBSCRIPTION_CAPACITY)
    }

    /// Subscribe with an explicit pending-queue capacity (`≥ 1`); a
    /// consumer lagging past it receives a coalesced
    /// [`SubEvent::Lagged`] instead of unbounded buffering.
    pub fn subscribe_with_capacity(
        &self,
        handle: impl Into<HandleId>,
        capacity: usize,
    ) -> Result<Subscription, ReadError> {
        let shared = Arc::new(SubShared::new(capacity));
        let mut watchers = lock(&self.inner.watchers);
        self.inner
            .watch(&mut watchers, handle.into())?
            .subs
            .push(Arc::clone(&shared));
        Ok(Subscription { shared })
    }

    /// Host side: publish `view` as `handle`'s live snapshot, serving the
    /// handle from here on if it was not published before
    /// (registration). No delta fan-out — tick publication goes through
    /// [`ReadFront::publish_tick`].
    pub fn publish(&self, handle: impl Into<HandleId>, view: ReadView) {
        let view = Arc::new(view);
        let superseded = self.inner.views_mut().insert(handle.into().raw(), view);
        // A view no reader holds is freed here, outside the lock.
        drop(superseded);
    }

    /// Host side: publish one committed tick. **All** views are swapped
    /// in, under one write lock, before **any** delta fans out, so by
    /// the time a subscriber wakes, `read_view` already serves a snapshot
    /// at least as new as the event — a late joiner can take a view as
    /// its base and apply exactly the events with `result_version` beyond
    /// it. The fan-out then takes the watcher lock once; it prunes dropped
    /// subscribers and wakes only consumers blocked in `recv`.
    pub fn publish_tick(&self, items: impl IntoIterator<Item = (HandleId, ReadView, MatchDelta)>) {
        // Built outside the lock; after the swap each slot holds the view
        // it superseded (a handle's first view keeps a second reference),
        // released at the end of this call with no lock held.
        let mut tick: Vec<(u64, Arc<ReadView>, MatchDelta)> = items
            .into_iter()
            .map(|(id, view, delta)| (id.raw(), Arc::new(view), delta))
            .collect();
        let mut views = self.inner.views_mut();
        for (id, view, _) in tick.iter_mut() {
            match views.get_mut(id) {
                Some(live) => std::mem::swap(live, view),
                None => {
                    views.insert(*id, Arc::clone(view));
                }
            }
        }
        drop(views);

        let (mut offered, mut newly_lagged) = (0u64, 0u64);
        let mut watchers = lock(&self.inner.watchers);
        for (id, _, delta) in &tick {
            let Some(watch) = watchers.get_mut(id) else {
                continue;
            };
            watch.subs.retain(|sub| Arc::strong_count(sub) > 1);
            for sub in &watch.subs {
                offered += 1;
                if sub.offer(delta) {
                    newly_lagged += 1;
                }
            }
        }
        drop(watchers);
        read_metrics::tick_published(tick.len() as u64, offered, newly_lagged);
    }

    /// Host side: stop serving `handle` (deregistration). Live
    /// subscriptions receive their queued deltas, then a final
    /// [`SubEvent::Closed`]; subsequent `read_view`/`subscribe` calls
    /// get [`ReadError::UnknownHandle`]. Pinned readers created earlier
    /// keep serving the last published view.
    pub fn close(&self, handle: impl Into<HandleId>) {
        let id = handle.into().raw();
        // Both locks, in order: a `pinned` or `subscribe` racing this call
        // either lands in the removed watchers or finds no view.
        let mut watchers = lock(&self.inner.watchers);
        let watch = watchers.remove(&id).unwrap_or_default();
        let mut views = self.inner.views_mut();
        let last = views.remove(&id);
        // Each pin gets the final view under the write lock that removes
        // it, so a pin whose lookup misses finds its cell set.
        if let Some(last) = &last {
            for pin in watch.pins.iter().filter_map(Weak::upgrade) {
                let _ = pin.set(Arc::clone(last));
            }
        }
        drop(views);
        drop(watchers);
        for sub in &watch.subs {
            sub.close();
        }
    }
}

/// A handle-pinned reader: [`PinnedReader::view`] serves the handle's live
/// view, and keeps serving the last published one after deregistration;
/// take a fresh one from [`ReadFront::pinned`] to observe
/// re-registration.
#[derive(Debug, Clone)]
pub struct PinnedReader {
    front: Arc<FrontInner>,
    id: u64,
    closed: Arc<PinCell>,
}

impl PinnedReader {
    /// The last published snapshot — infallible: `close` hands the final
    /// view to every live pin before it unpublishes the handle.
    pub fn view(&self) -> Arc<ReadView> {
        if let Some(last) = self.closed.get() {
            return Arc::clone(last);
        }
        self.front.load(self.id).unwrap_or_else(|| {
            // Absent from the map: `close` set the cell before it removed
            // the view, under the write lock the failed lookup waited on.
            Arc::clone(self.closed.get().expect("close sets every pin"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_graph::{LabelInterner, NodeId, PatternGraph, PatternNodeId};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    fn pattern1() -> PatternGraph {
        let mut li = LabelInterner::new();
        let a = li.intern("A");
        let mut p = PatternGraph::new();
        p.add_node(a);
        p
    }

    fn view_with(nodes: &[u32], version: u64) -> ReadView {
        let mut result = MatchResult::for_pattern(&pattern1());
        for &n in nodes {
            result.set_mut(PatternNodeId(0)).insert(NodeId(n));
        }
        ReadView {
            result,
            result_version: version,
            tick: version,
        }
    }

    fn delta_between(prev: &ReadView, next: &ReadView) -> MatchDelta {
        next.result.delta_from(&prev.result, next.result_version)
    }

    #[test]
    fn read_view_tracks_publications() {
        let front = ReadFront::new();
        let id = HandleId(0);
        assert_eq!(front.read_view(id), Err(ReadError::UnknownHandle(id)));
        front.publish(id, view_with(&[1], 0));
        assert_eq!(front.read_view(id).unwrap().result_version, 0);
        front.publish(id, view_with(&[1, 2], 1));
        let v = front.read_view(id).unwrap();
        assert_eq!(v.result_version, 1);
        assert_eq!(v.result.total_matches(), 2);
        // Clones observe the same publications.
        let clone = front.clone();
        assert_eq!(clone.read_view(id).unwrap().result_version, 1);
    }

    #[test]
    fn publish_releases_the_superseded_view() {
        let front = ReadFront::new();
        let id = HandleId(0);
        front.publish(id, view_with(&[1], 0));
        let held = front.read_view(id).unwrap();
        assert_eq!(Arc::strong_count(&held), 2, "the front holds the live view");
        front.publish(id, view_with(&[1, 2], 1));
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "the front keeps no reference to a superseded view"
        );

        // A held view is immutable: later publications never touch it.
        let snapshot = (*held).clone();
        for v in 2..102u64 {
            front.publish(id, view_with(&[v as u32], v));
        }
        assert_eq!(*held, snapshot, "held view unchanged by 100 publications");
        assert_eq!(front.read_view(id).unwrap().result_version, 101);
    }

    #[test]
    fn pinned_reader_survives_close() {
        let front = ReadFront::new();
        let id = HandleId(3);
        front.publish(id, view_with(&[7], 0));
        let pinned = front.pinned(id).unwrap();
        front.close(id);
        assert_eq!(front.read_view(id), Err(ReadError::UnknownHandle(id)));
        assert!(front.pinned(id).is_err());
        assert_eq!(pinned.view().result_version, 0, "last view still served");
    }

    #[test]
    fn subscription_streams_in_order_then_closes() {
        let front = ReadFront::new();
        let id = HandleId(0);
        let v0 = view_with(&[1], 0);
        front.publish(id, v0.clone());
        let sub = front.subscribe(id).unwrap();
        assert_eq!(sub.try_recv(), None);

        let v1 = view_with(&[1, 2], 1);
        let v2 = view_with(&[2], 2);
        front.publish_tick(vec![(id, v1.clone(), delta_between(&v0, &v1))]);
        front.publish_tick(vec![(id, v2.clone(), delta_between(&v1, &v2))]);
        front.close(id);

        let SubEvent::Delta(d1) = sub.recv() else {
            panic!("first event is a delta")
        };
        assert_eq!(d1.result_version, 1);
        let SubEvent::Delta(d2) = sub.recv() else {
            panic!("second event is a delta")
        };
        assert_eq!(d2.result_version, 2);
        assert_eq!(sub.recv(), SubEvent::Closed);
        assert_eq!(sub.recv(), SubEvent::Closed, "closed is sticky");

        // The stream reconstructs the final result from the base view.
        let rebuilt = d2.apply_to(&d1.apply_to(&v0.result));
        assert_eq!(rebuilt, v2.result);
    }

    #[test]
    fn slow_consumer_gets_one_coalesced_lagged_event() {
        let front = ReadFront::new();
        let id = HandleId(0);
        let mut views = vec![view_with(&[1], 0)];
        front.publish(id, views[0].clone());
        let sub = front.subscribe_with_capacity(id, 2).unwrap();

        // Publish 5 ticks without the consumer draining: tick 3
        // overflows the capacity-2 queue.
        for v in 1..=5u64 {
            let nodes: Vec<u32> = (0..=v as u32).collect();
            let next = view_with(&nodes, v);
            let delta = delta_between(views.last().unwrap(), &next);
            front.publish_tick(vec![(id, next.clone(), delta)]);
            views.push(next);
        }

        // Overflow folds the *whole* backlog into one catch-up event —
        // the queued-but-undelivered ticks included — so ordered
        // delivery survives (the coalesced delta is always the newest
        // thing the consumer sees next).
        let SubEvent::Lagged {
            missed_versions,
            delta,
        } = sub.recv()
        else {
            panic!("overflow coalesces")
        };
        assert_eq!(missed_versions, 5, "all five ticks folded into one");
        assert_eq!(delta.result_version, 5, "stamped with the newest version");
        assert_eq!(sub.try_recv(), None, "queue drained");

        // Gap-free: the single catch-up delta reconstructs tick 5.
        let rebuilt = delta.apply_to(&views[0].result);
        assert_eq!(rebuilt, views[5].result);
    }

    #[test]
    fn lagged_keeps_folding_until_drained() {
        let front = ReadFront::new();
        let id = HandleId(0);
        let mut prev = view_with(&[1], 0);
        front.publish(id, prev.clone());
        let base = prev.clone();
        let sub = front.subscribe_with_capacity(id, 1).unwrap();
        for v in 1..=4u64 {
            let next = view_with(&[v as u32, v as u32 + 1], v);
            let delta = delta_between(&prev, &next);
            front.publish_tick(vec![(id, next.clone(), delta)]);
            prev = next;
        }
        let SubEvent::Lagged {
            missed_versions,
            delta,
        } = sub.recv()
        else {
            panic!("ticks 1..=4 coalesce")
        };
        assert_eq!(missed_versions, 4);
        assert_eq!(delta.result_version, 4);
        let rebuilt = delta.apply_to(&base.result);
        assert_eq!(rebuilt, prev.result);
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let front = ReadFront::new();
        let id = HandleId(0);
        let v0 = view_with(&[1], 0);
        front.publish(id, v0.clone());
        let keep = front.subscribe(id).unwrap();
        let dropped = front.subscribe(id).unwrap();
        drop(dropped);
        let v1 = view_with(&[2], 1);
        front.publish_tick(vec![(id, v1.clone(), delta_between(&v0, &v1))]);
        let watchers = lock(&front.inner.watchers);
        assert_eq!(
            watchers[&id.raw()].subs.len(),
            1,
            "dropped subscriber pruned"
        );
        drop(watchers);
        assert!(matches!(keep.recv(), SubEvent::Delta(_)));
    }

    #[test]
    fn recv_timeout_times_out_empty_and_delivers_ready() {
        let front = ReadFront::new();
        let id = HandleId(0);
        let v0 = view_with(&[1], 0);
        front.publish(id, v0.clone());
        let sub = front.subscribe(id).unwrap();
        assert_eq!(sub.recv_timeout(Duration::from_millis(10)), None);
        let v1 = view_with(&[2], 1);
        front.publish_tick(vec![(id, v1.clone(), delta_between(&v0, &v1))]);
        assert!(matches!(
            sub.recv_timeout(Duration::from_millis(100)),
            Some(SubEvent::Delta(_))
        ));
    }

    /// A consumer blocked in `recv` (or `recv_timeout`) while another
    /// thread publishes. The writer publishes tick `v` only once the
    /// consumer has taken tick `v − 1`, so most offers find it asleep and
    /// must wake it; a lost wakeup fails on the writer's deadline instead
    /// of hanging the test.
    fn blocked_consumer_receives_every_tick(recv: fn(&Subscription) -> Option<SubEvent>) {
        const TICKS: u64 = 1_000;
        let front = ReadFront::new();
        let id = HandleId(0);
        let mut prev = view_with(&[0], 0);
        front.publish(id, prev.clone());
        let sub = front.subscribe(id).unwrap();
        let taken = Arc::new(AtomicU64::new(0));
        let consumer = {
            let taken = Arc::clone(&taken);
            std::thread::spawn(move || {
                for v in 1..=TICKS {
                    match recv(&sub) {
                        Some(SubEvent::Delta(d)) => assert_eq!(d.result_version, v, "in order"),
                        other => panic!("tick {v}: expected its delta, got {other:?}"),
                    }
                    taken.store(v, Ordering::Release);
                }
                assert_eq!(recv(&sub), Some(SubEvent::Closed));
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let wait_for = |v: u64| {
            while taken.load(Ordering::Acquire) < v {
                if consumer.is_finished() {
                    return; // it panicked: `join` below reports why
                }
                assert!(
                    Instant::now() < deadline,
                    "consumer never took tick {v}: a lost wakeup"
                );
                std::thread::yield_now();
            }
        };
        for v in 1..=TICKS {
            wait_for(v - 1);
            let next = view_with(&[v as u32], v);
            front.publish_tick(vec![(id, next.clone(), delta_between(&prev, &next))]);
            prev = next;
        }
        wait_for(TICKS);
        front.close(id);
        consumer
            .join()
            .expect("consumer took every tick, then Closed");
    }

    #[test]
    fn a_consumer_blocked_in_recv_receives_every_tick() {
        blocked_consumer_receives_every_tick(|sub| Some(sub.recv()));
    }

    #[test]
    fn a_consumer_blocked_in_recv_timeout_receives_every_tick() {
        blocked_consumer_receives_every_tick(|sub| sub.recv_timeout(Duration::from_secs(60)));
    }

    #[test]
    fn every_view_is_swapped_in_before_any_delta_fans_out() {
        // Hold the subscriber lock while a tick of three publishes:
        // fan-out blocks there, so every view must already be live. A tick
        // that fanned out before the swap, or item by item beside it,
        // would block with a view still unpublished.
        let front = ReadFront::new();
        let ids = [HandleId(0), HandleId(1), HandleId(2)];
        let v0 = view_with(&[1], 0);
        let v1 = view_with(&[1, 2], 1);
        let subs: Vec<Subscription> = ids
            .iter()
            .map(|&id| {
                front.publish(id, v0.clone());
                front.subscribe(id).unwrap()
            })
            .collect();
        let blocked = lock(&front.inner.watchers);
        let items: Vec<_> = ids
            .iter()
            .map(|&id| (id, v1.clone(), delta_between(&v0, &v1)))
            .collect();
        let writer = {
            let front = front.clone();
            std::thread::spawn(move || front.publish_tick(items))
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while ids
            .iter()
            .any(|&id| front.read_view(id).unwrap().result_version < 1)
        {
            assert!(
                Instant::now() < deadline,
                "a view was still unpublished while fan-out was blocked"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(blocked);
        writer.join().expect("writer");
        for sub in &subs {
            assert!(matches!(sub.recv(), SubEvent::Delta(d) if d.result_version == 1));
        }
    }

    #[test]
    fn concurrent_readers_only_see_committed_epochs() {
        let front = ReadFront::new();
        let id = HandleId(0);
        front.publish(id, view_with(&[0], 0));
        let committed: Vec<ReadView> = (0..200u64)
            .map(|v| view_with(&[v as u32 % 7, (v as u32 % 5) + 10], v))
            .collect();
        let stop = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let pinned = front.pinned(id).unwrap();
                let stop = Arc::clone(&stop);
                let committed = committed.clone();
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut observations = 0u64;
                    loop {
                        let v = pinned.view();
                        // Monotone, and bitwise one of the committed views.
                        assert!(v.result_version >= last, "versions never rewind");
                        last = v.result_version;
                        if v.result_version > 0 {
                            let expected = &committed[v.result_version as usize];
                            assert_eq!(v.result, expected.result, "never torn");
                        }
                        observations += 1;
                        // Check *after* observing, so even a reader that
                        // lost the whole race to the writer verifies the
                        // final epoch at least once.
                        // RELAXED: test shutdown flag; no data published
                        // through it.
                        if stop.load(Ordering::Relaxed) != 0 {
                            return observations;
                        }
                    }
                })
            })
            .collect();
        for v in committed.iter().skip(1) {
            front.publish(id, v.clone());
        }
        // RELAXED: see the reader side above.
        stop.store(1, Ordering::Relaxed);
        for reader in readers {
            assert!(reader.join().expect("no reader panicked") > 0);
        }
        assert_eq!(front.read_view(id).unwrap().result_version, 199);
    }
}
