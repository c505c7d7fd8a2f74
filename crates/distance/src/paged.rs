//! The paged row store and [`PagedIndex`], the out-of-core bounded-row
//! backend: disk-resident sparse rows with an in-memory hot-row cache.
//!
//! ## Why
//!
//! [`crate::SparseIndex`] bounds memory by *row selection* — only
//! pattern-relevant sources get a row — but every resident row still lives
//! on the heap, so graph size is ultimately capped by RAM. `PagedIndex`
//! bounds memory by *storage*: rows are the exact same level-grouped
//! word images (`SparseRow`), serialized into fixed-size pages of an anonymous
//! spill file (see [`crate::pager`]), and only a byte-budgeted working set
//! of **hot rows** stays deserialized in memory. The in-memory footprint
//! is `O(row directory + cache budget)` regardless of how many rows the
//! requirement set implies — which is what lets a 10M+-node replay run
//! under a 2 GiB address-space ceiling.
//!
//! ## Contract
//!
//! The algorithm is [`crate::rows`] — literally the code
//! [`crate::SparseIndex`] runs; this module is its second [`RowStore`].
//! Probe/commit deltas and [`crate::DistanceOracle`] answers are therefore
//! identical to the sparse backend's by construction, and what the
//! backend-equivalence proptest suites assert record for record is that
//! this store's serialisation, eviction and write-through are transparent.
//!
//! Commits write *through* the cache: the cached row image is mutated,
//! then its spill extent is rewritten append-wise (the old extent joins
//! the pager's free list), so cache and disk never disagree and eviction
//! is always a plain drop. A build or rebuild bulk-loads rows straight to
//! the spill file and leaves the cache cold (rows warm on use).
//!
//! ## The cache sits behind one lock
//!
//! The index is shared-immutable while patterns refresh and mutated only
//! between refreshes, so the one thing concurrent readers can race on is
//! the cache itself. It is a plain struct ([`HotRows`]) in a
//! `std::sync::Mutex`:
//!
//! * the `&mut` repair paths (`fetch` / `put` / `update` / `remove` /
//!   `clear` / re-budgeting) reach it through `Mutex::get_mut` and take no
//!   lock at all;
//! * the shared read path (`with_row`, every oracle probe) holds the lock
//!   for the directory lookup, the clock bit and the hit/miss count, and
//!   clones the row's `Arc` out — the row *scan* runs outside the lock,
//!   so two readers sharing the backend never serialise on it. A miss
//!   reads the row from the spill file unlocked and takes the lock once
//!   more to insert it.
//!
//! The policy: a read miss caches its row only while that keeps the cache
//! within budget and never evicts — at budget it stays a read-through —
//! and the clock (second-chance) ring evicts on exclusive operations only.
//!
//! **What sized it.** One traced benchmark round (`gpnm-bench --workload
//! paged_squeeze --seed 11 --seconds 0 --trace 1`) reads
//! `distance.cache_hit_ratio` 0.554 at `distance.pages_read` 54.6 a tick:
//! ≈123 row accesses a tick, shared and exclusive path together, in a
//! ≈156 µs tick. At 100k nodes (`gpnm replay --backend paged --nodes
//! 100000 --edges 400000 --labels 60 --patterns 8 --ticks 3 --updates 20
//! --seed 7 --stats`, the `paging:` line) a tick makes 13–33 k accesses,
//! exclusive and shared path together, in a 25–63 ms tick. An
//! uncontended lock at ≈25 ns is ≈2 % and ≈1.3 % of those ticks.
//!
//! **Rejected: a lock-free published directory** — this module until
//! PR 24: `Vec<AtomicPtr<_>>` slots published by a budget-gated CAS and
//! freed only under `&mut`, a side queue to register promotions in the
//! ring later, a deliberately lossy hit counter. It bought a hit path of
//! one `Acquire` load when the matcher paid one row access per *pair*;
//! since the row-scan probe (`any_within`, one access per probe) and
//! ball-local repair that traffic is gone, and what remained was 8
//! `unsafe` sites, 17 relaxed-ordering arguments and a model-checker suite.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use gpnm_graph::DataGraph;

use crate::backend::{IoStats, SlenRequirements};
use crate::pager::{PageFile, RowLoc, DEFAULT_PAGE_SIZE};
use crate::rows::{grow_with_slack, BoundedRows, RowStore, SparseRow};

/// Tuning knobs for [`PagedIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedConfig {
    /// Spill-file page size in bytes (default 64 KiB). Rows shorter than a
    /// page never cross a page boundary.
    pub page_size: usize,
    /// Hot-row cache budget in bytes (default 64 MiB). The cache may
    /// exceed it transiently by the single row an operation has pinned.
    pub cache_budget_bytes: usize,
}

impl Default for PagedConfig {
    fn default() -> Self {
        PagedConfig {
            page_size: DEFAULT_PAGE_SIZE,
            cache_budget_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Bookkeeping charged per cached row on top of its entry storage: the
/// `Arc` and `Vec` headers and the row's directory, clock-bit and ring
/// slots.
const ENTRY_OVERHEAD: usize = 64;

fn row_footprint(row: &SparseRow) -> usize {
    ENTRY_OVERHEAD + row.capacity() * std::mem::size_of::<u32>()
}

/// Why an `expect` on the cache lock can fire: nothing panics while
/// holding it short of a bug in this module.
const POISONED: &str = "a thread panicked while holding the hot-row cache lock";

/// The hot-row cache: a slot-indexed directory of deserialized rows, a
/// clock ring over them and the paging counters. Rows are `Arc`s so the
/// shared read path can scan one after releasing the lock; no clone
/// outlives `with_row`, so under `&mut` every row is uniquely owned.
#[derive(Debug, Default)]
struct HotRows {
    /// Slot-indexed like the store's row directory (`None` = not cached).
    rows: Vec<Option<Arc<SparseRow>>>,
    /// Clock bits, slot-indexed like `rows`.
    touched: Vec<bool>,
    /// Clock ring (second-chance eviction order): every cached slot, once.
    ring: VecDeque<u32>,
    /// Current footprint per [`row_footprint`].
    bytes: usize,
    /// Byte budget evictions drive toward.
    budget: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl HotRows {
    fn new(budget: usize, slots: usize) -> Self {
        let mut cache = HotRows {
            budget,
            ..HotRows::default()
        };
        cache.grow(slots);
        cache
    }

    fn grow(&mut self, n: usize) {
        grow_with_slack(&mut self.rows, n, || None);
        grow_with_slack(&mut self.touched, n, || false);
    }

    /// The shared path's lookup: counts the access and touches a hit.
    fn lookup(&mut self, slot: u32) -> Option<Arc<SparseRow>> {
        let row = self.rows[slot as usize].clone();
        if row.is_some() {
            self.touched[slot as usize] = true;
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        row
    }

    /// The shared path's insert after a miss. Budget-gated and
    /// non-evicting: when the cache is full the miss stays a read-through
    /// and rebalancing waits for the next exclusive operation. A racing
    /// reader may have cached the slot first — keep theirs.
    fn promote(&mut self, slot: u32, row: SparseRow) {
        if self.rows[slot as usize].is_none() && self.bytes + row_footprint(&row) <= self.budget {
            self.admit(slot, row);
        }
    }

    /// Cache `row` in vacant `slot`, touched and at the back of the ring.
    fn admit(&mut self, slot: u32, row: SparseRow) {
        self.bytes += row_footprint(&row);
        self.rows[slot as usize] = Some(Arc::new(row));
        self.touched[slot as usize] = true;
        self.ring.push_back(slot);
    }

    /// Exclusive access to `slot`'s cached row.
    fn row_mut(&mut self, slot: u32) -> Option<&mut SparseRow> {
        let row = self.rows[slot as usize].as_mut()?;
        Some(Arc::get_mut(row).expect("no row clone outlives `with_row`"))
    }

    /// Insert (or replace) `slot`'s cached image and re-balance the budget.
    fn insert(&mut self, slot: u32, row: SparseRow) {
        let added = row_footprint(&row);
        if let Some(cached) = self.row_mut(slot) {
            let removed = row_footprint(cached);
            *cached = row;
            self.touched[slot as usize] = true;
            self.bytes = self.bytes + added - removed;
        } else {
            self.admit(slot, row);
        }
        self.evict_to_budget(slot);
    }

    /// Drop `slot` from the cache entirely (row left the index).
    fn remove(&mut self, slot: u32) {
        if let Some(row) = self.rows[slot as usize].take() {
            self.bytes -= row_footprint(&row);
            self.ring.retain(|&s| s != slot);
        }
    }

    /// Evict clock-cold rows until the cache fits its budget. `protect`
    /// pins one slot (the row the caller holds or is about to borrow).
    fn evict_to_budget(&mut self, protect: u32) {
        while self.bytes > self.budget {
            let Some(slot) = self.ring.pop_front() else {
                break;
            };
            if slot == protect {
                self.ring.push_back(slot);
                if self.ring.len() == 1 {
                    break; // only the pinned row remains
                }
                continue;
            }
            if std::mem::take(&mut self.touched[slot as usize]) {
                self.ring.push_back(slot); // second chance
                continue;
            }
            let row = self.rows[slot as usize]
                .take()
                .expect("the ring holds cached slots only");
            self.bytes -= row_footprint(&row);
            self.evictions += 1;
        }
    }

    /// Drop every cached row (cold restart); slots and counters stay.
    fn clear(&mut self) {
        self.rows.iter_mut().for_each(|r| *r = None);
        self.ring.clear();
        self.bytes = 0;
    }
}

/// Spill-file row storage behind a hot-row cache: where [`PagedIndex`] keeps
/// its rows. Opaque — it exists as a name for the alias to mention.
#[derive(Debug)]
pub struct PagedStore {
    /// Slot-indexed row directory (`None` = not a candidate source).
    locs: Vec<Option<RowLoc>>,
    /// How many of `locs` are `Some` (kept so the per-tick stats are O(1)).
    resident: usize,
    file: PageFile,
    /// Has exactly `locs.len()` slots.
    cache: Mutex<HotRows>,
}

impl PagedStore {
    pub(crate) fn new(config: PagedConfig) -> Self {
        PagedStore {
            locs: Vec::new(),
            resident: 0,
            file: PageFile::create(config.page_size),
            cache: Mutex::new(HotRows::new(config.cache_budget_bytes, 0)),
        }
    }
}

impl Default for PagedStore {
    fn default() -> Self {
        PagedStore::new(PagedConfig::default())
    }
}

impl Clone for PagedStore {
    /// An independent replica with its **own spill file** (rows are copied
    /// extent by extent) and a fresh, empty cache at the same budget.
    fn clone(&self) -> Self {
        let mut file = PageFile::create(self.file.page_size());
        let mut locs: Vec<Option<RowLoc>> = vec![None; self.locs.len()];
        for (i, loc) in self.locs.iter().enumerate() {
            if let Some(loc) = loc {
                locs[i] = Some(file.write_row(&self.file.read_row(*loc)));
            }
        }
        let budget = self.cache.lock().expect(POISONED).budget;
        PagedStore {
            cache: Mutex::new(HotRows::new(budget, locs.len())),
            locs,
            resident: self.resident,
            file,
        }
    }
}

impl RowStore for PagedStore {
    const KIND: &'static str = "paged";

    fn slots(&self) -> usize {
        self.locs.len()
    }

    fn grow(&mut self, n: usize) {
        grow_with_slack(&mut self.locs, n, || None);
        self.cache.get_mut().expect(POISONED).grow(n);
    }

    #[inline]
    fn is_resident(&self, slot: u32) -> bool {
        self.locs[slot as usize].is_some()
    }

    fn resident(&self) -> usize {
        self.resident
    }

    /// Make `slot`'s row cached (loading it from the spill file on a miss)
    /// and return a reference to it.
    fn fetch(&mut self, slot: u32) -> Option<&SparseRow> {
        let loc = self.locs[slot as usize]?;
        let cache = self.cache.get_mut().expect(POISONED);
        if cache.rows[slot as usize].is_some() {
            cache.hits += 1;
        } else {
            cache.misses += 1;
            let row = SparseRow::from_words(self.file.read_row(loc));
            cache.insert(slot, row);
        }
        cache.rows[slot as usize].as_deref()
    }

    /// Replace `slot`'s row: rewrite the spill extent (append + free-list)
    /// and refresh the cached image — the write-through commit path.
    fn put(&mut self, slot: u32, row: SparseRow) {
        match self.locs[slot as usize].take() {
            Some(old) => self.file.free_row(old),
            None => self.resident += 1,
        }
        self.locs[slot as usize] = Some(self.file.write_row(row.words()));
        self.cache.get_mut().expect(POISONED).insert(slot, row);
    }

    /// The cold bulk load: the row goes to the spill file only.
    fn load(&mut self, slot: u32, row: SparseRow) {
        debug_assert!(self.locs[slot as usize].is_none(), "load into a live slot");
        self.locs[slot as usize] = Some(self.file.write_row(row.words()));
        self.resident += 1;
    }

    /// Mutate `slot`'s cached row in place, then rewrite its spill extent
    /// so disk and cache stay in agreement.
    fn update(&mut self, slot: u32, f: impl FnOnce(&mut SparseRow)) {
        self.fetch(slot).expect("update of a non-resident row");
        let cache = self.cache.get_mut().expect(POISONED);
        let row = cache.row_mut(slot).expect("just fetched");
        let before = row_footprint(row);
        f(row);
        let after = row_footprint(row);
        let old = self.locs[slot as usize].take().expect("resident row");
        self.file.free_row(old);
        self.locs[slot as usize] = Some(self.file.write_row(row.words()));
        cache.touched[slot as usize] = true;
        cache.bytes = cache.bytes + after - before;
        cache.evict_to_budget(slot);
    }

    /// Drop `slot` from the index: free its extent and cached image.
    fn remove(&mut self, slot: u32) {
        if let Some(old) = self.locs[slot as usize].take() {
            self.file.free_row(old);
            self.resident -= 1;
        }
        self.cache.get_mut().expect(POISONED).remove(slot);
    }

    /// The spill file restarts empty and the cache cold.
    fn clear(&mut self) {
        self.locs.iter_mut().for_each(|l| *l = None);
        self.resident = 0;
        self.file.reset();
        self.cache.get_mut().expect(POISONED).clear();
    }

    /// One cache probe, and on a miss one spill read of the whole row.
    /// `f` never runs under the cache lock.
    #[inline]
    fn with_row<R>(&self, slot: u32, f: impl FnOnce(&SparseRow) -> R) -> Option<R> {
        let loc = self.locs.get(slot as usize).copied().flatten()?;
        let cached = self.cache.lock().expect(POISONED).lookup(slot);
        if let Some(row) = cached {
            return Some(f(&row));
        }
        let row = SparseRow::from_words(self.file.read_row(loc));
        let answer = f(&row);
        self.cache.lock().expect(POISONED).promote(slot, row);
        Some(answer)
    }

    fn mem_bytes(&self) -> usize {
        // The in-memory share only: row + cache directories, hot rows and
        // pager metadata. The spill file is deliberately absent — bounding
        // this number is the whole point of the backend.
        let cache = self.cache.lock().expect(POISONED);
        self.locs.capacity() * std::mem::size_of::<Option<RowLoc>>()
            + cache.rows.capacity() * std::mem::size_of::<Option<Arc<SparseRow>>>()
            + cache.touched.capacity()
            + cache.bytes
            + self.file.meta_bytes()
    }

    fn io_stats(&self) -> Option<IoStats> {
        let cache = self.cache.lock().expect(POISONED);
        Some(IoStats {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            pages_read: self.file.pages_read(),
            pages_written: self.file.pages_written(),
        })
    }
}

/// Disk-resident bounded-row `SLen` index with a hot-row cache:
/// [`BoundedRows`] over a spill file — the fourth `SlenBackend`, for
/// graphs whose index never fits in RAM.
///
/// Same code and projection semantics as [`crate::SparseIndex`] (see
/// [`BoundedRows`]); choose it when `Σ|ball_B(candidate)|` rows outgrow
/// memory, and size the working set with [`PagedIndex::set_cache_budget`].
pub type PagedIndex = BoundedRows<PagedStore>;

impl BoundedRows<PagedStore> {
    /// Build with explicit knobs (the trait's `SlenBackend::build` uses
    /// [`PagedConfig::default`]).
    pub fn with_config(graph: &DataGraph, reqs: &SlenRequirements, config: PagedConfig) -> Self {
        Self::with_store(graph, reqs, PagedStore::new(config))
    }

    /// The hot-row cache budget, in bytes.
    pub fn cache_budget(&self) -> usize {
        self.store.cache.lock().expect(POISONED).budget
    }

    /// Re-budget the hot-row cache, evicting down if it shrank.
    pub fn set_cache_budget(&mut self, bytes: usize) {
        let cache = self.store.cache.get_mut().expect(POISONED);
        cache.budget = bytes;
        cache.evict_to_budget(u32::MAX);
    }

    /// Rows currently deserialized in the cache.
    pub fn cached_rows(&self) -> usize {
        self.store.cache.lock().expect(POISONED).ring.len()
    }

    /// Current cache footprint in bytes.
    pub fn cache_bytes(&self) -> usize {
        self.store.cache.lock().expect(POISONED).bytes
    }

    /// Spill-file size high-water mark, in pages.
    pub fn spill_pages(&self) -> u64 {
        self.store.file.page_count()
    }

    /// Spill-file page size in bytes.
    pub fn page_size(&self) -> usize {
        self.store.file.page_size()
    }
}

/// A 2-page cache: every fetch beyond the pinned row evicts.
#[cfg(test)]
pub(crate) fn tiny() -> PagedConfig {
    PagedConfig {
        page_size: 256,
        cache_budget_bytes: 512,
    }
}

// The algorithm's tests are the generic suite in `crate::rows`, which runs
// over this store under the `tiny()` cache; only what the store itself
// adds is tested here.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{RepairHint, SlenBackend};
    use crate::oracle::DistanceOracle;
    use crate::sparse::SparseIndex;
    use gpnm_graph::paper::fig1;
    use gpnm_graph::{Bound, NodeId, NodeSet};

    /// Fig. 1's four pattern labels, each a source at the pattern's
    /// deepest bound: seven rows, enough to overflow a 2-page cache. (The
    /// pattern's own requirements make only PM and SE sources.)
    fn pattern_label_reqs(f: &gpnm_graph::paper::Fig1) -> SlenRequirements {
        let mut reqs = SlenRequirements::empty();
        for label in ["PM", "SE", "S", "TE"] {
            reqs.absorb_edge(f.interner.get(label).unwrap(), Bound::Hops(4));
        }
        reqs
    }

    fn fig1_paged(config: PagedConfig) -> (gpnm_graph::paper::Fig1, PagedIndex) {
        let f = fig1();
        let reqs = pattern_label_reqs(&f);
        let p = PagedIndex::with_config(&f.graph, &reqs, config);
        (f, p)
    }

    #[test]
    fn tiny_cache_still_answers_exactly_and_evicts() {
        let (mut f, mut p) = fig1_paged(tiny());
        assert_eq!(p.kind(), "paged");
        let reqs = pattern_label_reqs(&f);
        let mut s = SparseIndex::build(&f.graph, &reqs);
        let n = f.graph.slot_count();
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (NodeId::from_index(i), NodeId::from_index(j));
                assert_eq!(p.distance(x, y), s.distance(x, y), "d({x:?},{y:?})");
            }
        }
        // Read-path promotions are budget-gated, so churn the cache
        // through the `&mut` repair path too (fetch → insert → evict): every
        // other source reaches S1 within the horizon, so deleting it fetches
        // and patches all seven rows.
        f.graph.remove_node(f.s1).unwrap();
        let hint = RepairHint::Baseline;
        let commit_p = SlenBackend::commit_delete_node(&mut p, &f.graph, f.s1, hint);
        let commit_s = SlenBackend::commit_delete_node(&mut s, &f.graph, f.s1, hint);
        assert_eq!(commit_p.changed, commit_s.changed);
        let io = p.io_stats().expect("paged reports IO");
        assert!(io.cache_evictions > 0, "2-page budget must churn: {io:?}");
        assert!(io.pages_read > 0);
    }

    #[test]
    fn build_and_rebuild_leave_the_cache_cold() {
        let (f, mut p) = fig1_paged(PagedConfig::default());
        assert_eq!(p.cached_rows(), 0, "bulk load bypasses the cache");
        assert!(p.spill_pages() > 0);
        p.distance(f.pm1, f.se1);
        assert_eq!(p.cached_rows(), 1);
        let reqs = pattern_label_reqs(&f);
        p.rebuild(&f.graph, &reqs);
        assert_eq!(p.cached_rows(), 0, "rebuild restarts cold");
        assert_eq!(p.resident_rows(), 7);
    }

    #[test]
    fn clone_is_an_independent_replica() {
        let (mut f, p) = fig1_paged(PagedConfig::default());
        let clone = p.clone();
        assert_eq!(clone.resident_rows(), p.resident_rows());
        assert_eq!(clone.cache_budget(), p.cache_budget());
        // Mutating the clone must not disturb the original.
        let mut clone = clone;
        f.graph.add_edge(f.se1, f.te2).unwrap();
        SlenBackend::commit_insert_edge(&mut clone, &f.graph, f.se1, f.te2, RepairHint::Baseline);
        f.graph.remove_edge(f.se1, f.te2).unwrap();
        let reqs = pattern_label_reqs(&f);
        let fresh = SparseIndex::build(&f.graph, &reqs);
        let n = f.graph.slot_count();
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (NodeId::from_index(i), NodeId::from_index(j));
                assert_eq!(p.distance(x, y), fresh.distance(x, y), "original drifted");
            }
        }
    }

    #[test]
    fn rebudgeting_shrinks_the_cache() {
        let (f, mut p) = fig1_paged(PagedConfig::default());
        let n = f.graph.slot_count();
        for i in 0..n {
            for j in 0..n {
                p.distance(NodeId::from_index(i), NodeId::from_index(j));
            }
        }
        assert_eq!(
            p.cached_rows(),
            p.resident_rows(),
            "default budget holds all"
        );
        p.set_cache_budget(0);
        assert!(p.cached_rows() <= 1, "zero budget keeps at most the pin");
        assert!(p.mem_bytes() > 0);
    }

    #[test]
    fn any_within_fetches_a_cold_row_exactly_once() {
        let (f, mut p) = fig1_paged(tiny());
        // Zero budget: every row is cold and no read promotes, so a member
        // loop would pay one spill read per member probed.
        p.set_cache_budget(0);
        assert_eq!(p.cached_rows(), 0);
        let before = p.io_stats().expect("paged reports IO");
        // From PM1: PM2 and S1 are 3 hops away, TE2 unreachable.
        let set: NodeSet = [f.pm2, f.s1, f.te2].into_iter().collect();
        assert!(!p.any_within(f.pm1, &set, Bound::Hops(2)));
        let after = p.io_stats().expect("paged reports IO");
        assert_eq!(after.cache_misses - before.cache_misses, 1);
        assert_eq!(after.pages_read - before.pages_read, 1);
        assert_eq!(after.cache_hits, before.cache_hits);
        assert!(p.any_within(f.pm1, &set, Bound::Hops(3)));
    }

    #[test]
    fn read_path_promotions_respect_the_budget_and_evict_later() {
        let (f, mut p) = fig1_paged(PagedConfig {
            page_size: 256,
            cache_budget_bytes: row_footprint(&SparseRow::default()) + 64,
        });
        let n = f.graph.slot_count();
        for i in 0..n {
            for j in 0..n {
                p.distance(NodeId::from_index(i), NodeId::from_index(j));
            }
        }
        // The read path never exceeds the budget on its own.
        assert!(
            p.cache_bytes() <= p.cache_budget(),
            "read promotions overshot: {} > {}",
            p.cache_bytes(),
            p.cache_budget()
        );
        // Promoted rows are in the ring, so shrinking to zero evicts them.
        p.set_cache_budget(0);
        assert_eq!(p.cached_rows(), 0, "rebudget must reclaim promoted rows");
    }

    #[test]
    fn concurrent_readers_answer_exactly_and_count_every_access() {
        const READERS: usize = 4;
        let (f, mut p) = fig1_paged(tiny());
        let reqs = pattern_label_reqs(&f);
        let s = SparseIndex::build(&f.graph, &reqs);
        let nodes: Vec<NodeId> = (0..f.graph.slot_count()).map(NodeId::from_index).collect();
        let all: NodeSet = nodes.iter().copied().collect();
        let resident = p.resident_rows() as u64;
        assert!(resident > 0);
        let before = p.io_stats().expect("paged reports IO");

        // No writer exists: the readers share `&p`, and the barrier starts
        // them together so their lookups and promotions interleave.
        let start = std::sync::Barrier::new(READERS);
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    start.wait();
                    for &x in &nodes {
                        for &y in &nodes {
                            assert_eq!(p.distance(x, y), s.distance(x, y), "d({x:?},{y:?})");
                        }
                        for hops in 0..4 {
                            let bound = Bound::Hops(hops);
                            assert_eq!(p.any_within(x, &all, bound), s.any_within(x, &all, bound));
                        }
                    }
                });
            }
        });

        // One access per probe of a resident source — none lost to a race.
        let after = p.io_stats().expect("paged reports IO");
        let per_row = nodes.len() as u64 + 4;
        assert_eq!(
            (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses),
            READERS as u64 * resident * per_row
        );
        assert_eq!(after.cache_evictions, 0, "the read path never evicts");
        let largest_row = row_footprint(&SparseRow::from_words(vec![0; 2 * nodes.len()]));
        assert!(p.cache_bytes() <= p.cache_budget() + READERS * largest_row);
        let promoted = p.cached_rows();
        assert!(
            promoted > 0 && promoted < resident as usize,
            "2 pages hold some rows, not all"
        );

        // What the readers promoted, the exclusive path finds cached.
        let cached: Vec<u32> = p
            .store
            .cache
            .get_mut()
            .expect(POISONED)
            .ring
            .iter()
            .copied()
            .collect();
        assert_eq!(cached.len(), promoted);
        for slot in cached {
            let before = p.io_stats().expect("paged reports IO");
            assert!(p.store.fetch(slot).is_some());
            let after = p.io_stats().expect("paged reports IO");
            assert_eq!(after.cache_hits, before.cache_hits + 1);
            assert_eq!(after.pages_read, before.pages_read);
        }
    }
}
