//! The paged row store and [`PagedIndex`], the out-of-core bounded-row
//! backend: disk-resident sparse rows with an in-memory hot-row cache.
//!
//! ## Why
//!
//! [`crate::SparseIndex`] bounds memory by *row selection* — only
//! pattern-relevant sources get a row — but every resident row still lives
//! on the heap, so graph size is ultimately capped by RAM. `PagedIndex`
//! bounds memory by *storage*: rows are the exact same sorted
//! `(target, dist)` runs, serialized into fixed-size pages of an anonymous
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
//! ## The read path is lock-free
//!
//! The refresh phase makes its oracle probes by the hundred thousand per
//! tick (fanned out across pool workers) — one row access per `distance`
//! call and one per `any_within` witness probe, however many members the
//! probed set has — so the hit path cannot afford a lock or a hash: the
//! cache directory is a slot-indexed `Vec<AtomicPtr<CacheEntry>>` and a
//! hit is one `Acquire` load away from the row. This is sound because
//! cached entries are only ever *freed* by `&mut self` methods (commits,
//! eviction, re-budgeting) — and Rust's aliasing rules guarantee no
//! `&self` reader can exist while those run. A read miss loads the row
//! from the spill file and *publishes* it with a budget-gated CAS (losers
//! free their own unpublished copy; when the cache is at budget the miss
//! stays a read-through and eviction waits for the next `&mut` operation).

use gpnm_sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use gpnm_sync::Mutex;
use std::collections::VecDeque;
use std::ptr;

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

/// One cached row. `touched` is the clock bit the lock-free read path sets
/// on every hit; `in_ring` (mutated under `&mut` only) tracks whether the
/// slot is already registered in the eviction ring.
#[derive(Debug)]
struct CacheEntry {
    row: SparseRow,
    touched: AtomicBool,
    in_ring: bool,
}

/// Per-entry bookkeeping overhead (box + directory + ring slots), on top
/// of the row's entry storage.
const ENTRY_OVERHEAD: usize = std::mem::size_of::<CacheEntry>() + 32;

fn row_footprint(row: &SparseRow) -> usize {
    ENTRY_OVERHEAD + row.entries.capacity() * std::mem::size_of::<(u32, u32)>()
}

#[derive(Debug, Default)]
struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheStats {
    /// Deliberately racy hit counter: a relaxed load+store pair instead of
    /// `fetch_add`, because this sits on the per-distance-call hot path
    /// (millions per tick) where an RMW's cost is measurable. Concurrent
    /// readers may drop an increment; the counter is diagnostics, not
    /// accounting.
    #[inline(always)]
    fn bump_hit(&self) {
        // RELAXED: lossy statistics (see above) — no ordering, no RMW.
        self.hits.store(
            self.hits.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
    }
}

/// The hot-row cache: a slot-indexed directory of heap-boxed rows.
///
/// # Safety invariant
///
/// Every non-null pointer in `slots` owns a live `Box<CacheEntry>`.
/// Pointers are **published** either by `&mut` methods or by the `&self`
/// CAS in [`CacheDir::try_promote`]; they are **freed** only by `&mut`
/// methods ([`CacheDir::remove`], [`CacheDir::evict_to_budget`],
/// [`CacheDir::clear`]) or `Drop`. Since an `&mut CacheDir` cannot coexist
/// with `&self` borrows, no reader can observe a dangling pointer.
#[derive(Debug)]
struct CacheDir {
    slots: Vec<AtomicPtr<CacheEntry>>,
    /// Clock ring over cached slots (second-chance eviction order).
    /// Touched only under `&mut`; read-path promotions queue up in
    /// `promoted` until the next `&mut` operation drains them in.
    ring: VecDeque<u32>,
    /// Slots published by `&self` promotions, awaiting ring registration.
    promoted: Mutex<Vec<u32>>,
    /// Current footprint per [`row_footprint`].
    bytes: AtomicUsize,
    /// Cached-row count (kept so `cached_rows` is O(1)).
    count: AtomicUsize,
    /// Byte budget evictions drive toward. Mutated under `&mut` only.
    budget: usize,
}

// SAFETY: `slots` holds owning pointers managed per the invariant above;
// `CacheEntry` itself is `Send + Sync` (rows are plain data, the clock bit
// is atomic). The raw pointers are what inhibit the auto-impls.
unsafe impl Send for CacheDir {}
// SAFETY: same invariant as `Send` above; shared (`&self`) paths only
// `Acquire`-load the published pointer or CAS-publish a fresh one — they
// never free, so `&CacheDir` across threads cannot double-free or tear.
unsafe impl Sync for CacheDir {}

impl CacheDir {
    fn new(budget: usize) -> Self {
        CacheDir {
            slots: Vec::new(),
            ring: VecDeque::new(),
            promoted: Mutex::new(Vec::new()),
            bytes: AtomicUsize::new(0),
            count: AtomicUsize::new(0),
            budget,
        }
    }

    fn ensure_slots(&mut self, n: usize) {
        grow_with_slack(&mut self.slots, n, || AtomicPtr::new(ptr::null_mut()));
    }

    /// Lock-free shared lookup — the distance hot path.
    #[inline(always)]
    fn get(&self, slot: u32) -> Option<&CacheEntry> {
        let ptr = self.slots.get(slot as usize)?.load(Ordering::Acquire);
        // SAFETY: non-null published pointers are freed only under `&mut
        // self`, which cannot run while this `&self` borrow is live.
        (!ptr.is_null()).then(|| unsafe { &*ptr })
    }

    /// Shared-path promotion after a read miss. Budget-gated and
    /// non-evicting: when the cache is full the miss stays a
    /// read-through, and rebalancing waits for the next `&mut` op.
    fn try_promote(&self, slot: u32, row: SparseRow) -> bool {
        let added = row_footprint(&row);
        // RELAXED: the budget gate is advisory check-then-act — two racing
        // promotions to *different* slots can both pass and overshoot by
        // up to one row per concurrent promoter (see the `PagedConfig`
        // budget doc). A stronger ordering would not close that window;
        // only a lock would, and this sits on the miss path.
        if self.bytes.load(Ordering::Relaxed) + added > self.budget {
            return false;
        }
        let Some(cell) = self.slots.get(slot as usize) else {
            return false;
        };
        let fresh = Box::into_raw(Box::new(CacheEntry {
            row,
            touched: AtomicBool::new(true),
            in_ring: false,
        }));
        // RELAXED: failure ordering — a lost CAS only frees our copy, no
        // data is read through it. Success is `AcqRel`: `Release` publishes
        // the boxed row to `Acquire` loads in `get`.
        match cell.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => {
                // RELAXED: byte/row accounting is read for the advisory
                // gate above and `&mut` rebalancing (already synchronized);
                // atomicity is all the increments need.
                self.bytes.fetch_add(added, Ordering::Relaxed);
                self.count.fetch_add(1, Ordering::Relaxed);
                self.promoted
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(slot);
                true
            }
            // A racing reader published first — keep theirs, drop ours
            // (never published, so this free is race-free).
            Err(_) => {
                // SAFETY: `fresh` came from Box::into_raw above and the
                // CAS failed, so it was never published — we still hold
                // the only pointer to it.
                drop(unsafe { Box::from_raw(fresh) });
                false
            }
        }
    }

    /// Exclusive lookup for the `&mut` repair paths.
    fn entry_mut(&mut self, slot: u32) -> Option<&mut CacheEntry> {
        let ptr = *self.slots.get_mut(slot as usize)?.get_mut();
        // SAFETY: `&mut self` is exclusive — no reader holds this entry.
        (!ptr.is_null()).then(|| unsafe { &mut *ptr })
    }

    /// Insert (or replace) `slot`'s cached image and re-balance the budget.
    fn insert(&mut self, stats: &CacheStats, slot: u32, row: SparseRow) {
        self.ensure_slots(slot as usize + 1);
        let added = row_footprint(&row);
        if let Some(entry) = self.entry_mut(slot) {
            let removed = row_footprint(&entry.row);
            entry.row = row;
            *entry.touched.get_mut() = true;
            let bytes = self.bytes.get_mut();
            *bytes = *bytes + added - removed;
        } else {
            let fresh = Box::into_raw(Box::new(CacheEntry {
                row,
                touched: AtomicBool::new(true),
                in_ring: true,
            }));
            *self.slots[slot as usize].get_mut() = fresh;
            self.ring.push_back(slot);
            *self.bytes.get_mut() += added;
            *self.count.get_mut() += 1;
        }
        self.evict_to_budget(stats, slot);
    }

    /// Drop `slot` from the cache entirely (row left the index).
    fn remove(&mut self, slot: u32) {
        let Some(cell) = self.slots.get_mut(slot as usize) else {
            return;
        };
        let ptr = std::mem::replace(cell.get_mut(), ptr::null_mut());
        if ptr.is_null() {
            return;
        }
        // SAFETY: exclusive access; the pointer was just unpublished.
        let entry = unsafe { Box::from_raw(ptr) };
        *self.bytes.get_mut() -= row_footprint(&entry.row);
        *self.count.get_mut() -= 1;
        self.ring.retain(|&s| s != slot);
        self.promoted
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|&s| s != slot);
    }

    /// Register read-path promotions in the clock ring (idempotent via
    /// the per-entry `in_ring` flag).
    fn drain_promotions(&mut self) {
        let pending = std::mem::take(self.promoted.get_mut().unwrap_or_else(|e| e.into_inner()));
        for slot in pending {
            let needs_ring = match self.entry_mut(slot) {
                Some(entry) if !entry.in_ring => {
                    entry.in_ring = true;
                    true
                }
                _ => false,
            };
            if needs_ring {
                self.ring.push_back(slot);
            }
        }
    }

    /// Evict clock-cold rows until the cache fits its budget. `protect`
    /// pins one slot (the row the caller holds or is about to borrow).
    fn evict_to_budget(&mut self, stats: &CacheStats, protect: u32) {
        self.drain_promotions();
        while *self.bytes.get_mut() > self.budget {
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
            let touched = match self.entry_mut(slot) {
                None => continue, // stale ring entry
                Some(entry) => std::mem::take(entry.touched.get_mut()),
            };
            if touched {
                self.ring.push_back(slot); // second chance
                continue;
            }
            let ptr = std::mem::replace(self.slots[slot as usize].get_mut(), ptr::null_mut());
            // SAFETY: exclusive access; the pointer was just unpublished.
            let entry = unsafe { Box::from_raw(ptr) };
            *self.bytes.get_mut() -= row_footprint(&entry.row);
            *self.count.get_mut() -= 1;
            // RELAXED: diagnostics counter; readers tolerate staleness.
            stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Free every cached row (cold restart).
    fn clear(&mut self) {
        for cell in &mut self.slots {
            let ptr = std::mem::replace(cell.get_mut(), ptr::null_mut());
            if !ptr.is_null() {
                // SAFETY: exclusive access; the pointer was just unpublished.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
        self.ring.clear();
        self.promoted
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        *self.bytes.get_mut() = 0;
        *self.count.get_mut() = 0;
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        self.clear();
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
    cache: CacheDir,
    stats: CacheStats,
}

impl PagedStore {
    pub(crate) fn new(config: PagedConfig) -> Self {
        PagedStore {
            locs: Vec::new(),
            resident: 0,
            file: PageFile::create(config.page_size),
            cache: CacheDir::new(config.cache_budget_bytes),
            stats: CacheStats::default(),
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
        let mut cache = CacheDir::new(self.cache.budget);
        cache.ensure_slots(locs.len());
        PagedStore {
            locs,
            resident: self.resident,
            file,
            cache,
            stats: CacheStats::default(),
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
        self.cache.ensure_slots(n);
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
        if self.cache.entry_mut(slot).is_some() {
            // RELAXED: diagnostics counters; readers tolerate staleness.
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            // RELAXED: as above.
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            let row = SparseRow {
                entries: self.file.read_row(loc),
            };
            self.cache.insert(&self.stats, slot, row);
        }
        Some(&self.cache.entry_mut(slot).expect("just ensured").row)
    }

    /// Replace `slot`'s row: rewrite the spill extent (append + free-list)
    /// and refresh the cached image — the write-through commit path.
    fn put(&mut self, slot: u32, row: SparseRow) {
        match self.locs[slot as usize].take() {
            Some(old) => self.file.free_row(old),
            None => self.resident += 1,
        }
        self.locs[slot as usize] = Some(self.file.write_row(&row.entries));
        self.cache.insert(&self.stats, slot, row);
    }

    /// The cold bulk load: the row goes to the spill file only.
    fn load(&mut self, slot: u32, row: SparseRow) {
        debug_assert!(self.locs[slot as usize].is_none(), "load into a live slot");
        self.locs[slot as usize] = Some(self.file.write_row(&row.entries));
        self.resident += 1;
    }

    /// Mutate `slot`'s cached row in place, then rewrite its spill extent
    /// so disk and cache stay in agreement.
    fn update(&mut self, slot: u32, f: impl FnOnce(&mut SparseRow)) {
        self.fetch(slot).expect("update of a non-resident row");
        let (before, after);
        {
            let entry = self.cache.entry_mut(slot).expect("just fetched");
            before = row_footprint(&entry.row);
            f(&mut entry.row);
            *entry.touched.get_mut() = true;
            after = row_footprint(&entry.row);
            let old = self.locs[slot as usize].take().expect("resident row");
            self.file.free_row(old);
            self.locs[slot as usize] = Some(self.file.write_row(&entry.row.entries));
        }
        let bytes = self.cache.bytes.get_mut();
        *bytes = *bytes + after - before;
        self.cache.evict_to_budget(&self.stats, slot);
    }

    /// Drop `slot` from the index: free its extent and cached image.
    fn remove(&mut self, slot: u32) {
        if let Some(old) = self.locs[slot as usize].take() {
            self.file.free_row(old);
            self.resident -= 1;
        }
        self.cache.remove(slot);
    }

    /// The spill file restarts empty and the cache cold.
    fn clear(&mut self) {
        self.locs.iter_mut().for_each(|l| *l = None);
        self.resident = 0;
        self.file.reset();
        self.cache.clear();
    }

    /// One cache probe, and on a miss one spill read of the whole row.
    #[inline]
    fn with_row<R>(&self, slot: u32, f: impl FnOnce(&SparseRow) -> R) -> Option<R> {
        let loc = self.locs.get(slot as usize).copied().flatten()?;
        if let Some(entry) = self.cache.get(slot) {
            // Check-then-set keeps the clock bit read-mostly: repeated hits
            // on a hot row must not dirty its cache line every call.
            // RELAXED: the clock bit is an eviction heuristic — a touch
            // that a racing evictor misses costs one early eviction, never
            // correctness.
            if !entry.touched.load(Ordering::Relaxed) {
                entry.touched.store(true, Ordering::Relaxed);
            }
            self.stats.bump_hit();
            return Some(f(&entry.row));
        }
        // Miss: read the row from the spill file and publish it (another
        // reader may win the race — keep theirs).
        // RELAXED: diagnostics counter; readers tolerate staleness.
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let row = SparseRow {
            entries: self.file.read_row(loc),
        };
        let answer = f(&row);
        self.cache.try_promote(slot, row);
        Some(answer)
    }

    fn mem_bytes(&self) -> usize {
        // The in-memory share only: row + cache directories, hot rows and
        // pager metadata. The spill file is deliberately absent — bounding
        // this number is the whole point of the backend.
        self.locs.capacity() * std::mem::size_of::<Option<RowLoc>>()
            + self.cache.slots.capacity() * std::mem::size_of::<AtomicPtr<CacheEntry>>()
            // RELAXED: monitoring snapshot; may trail in-flight promotions.
            + self.cache.bytes.load(Ordering::Relaxed)
            + self.file.meta_bytes()
    }

    fn io_stats(&self) -> Option<IoStats> {
        Some(IoStats {
            // RELAXED: monitoring snapshot of lossy counters.
            cache_hits: self.stats.hits.load(Ordering::Relaxed),
            cache_misses: self.stats.misses.load(Ordering::Relaxed),
            cache_evictions: self.stats.evictions.load(Ordering::Relaxed),
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
        self.store.cache.budget
    }

    /// Re-budget the hot-row cache, evicting down if it shrank.
    pub fn set_cache_budget(&mut self, bytes: usize) {
        let PagedStore { cache, stats, .. } = &mut self.store;
        cache.budget = bytes;
        cache.evict_to_budget(stats, u32::MAX);
    }

    /// Rows currently deserialized in the cache.
    pub fn cached_rows(&self) -> usize {
        // RELAXED: monitoring snapshot; may trail in-flight promotions.
        self.store.cache.count.load(Ordering::Relaxed)
    }

    /// Current cache footprint in bytes.
    pub fn cache_bytes(&self) -> usize {
        // RELAXED: monitoring snapshot; may trail in-flight promotions.
        self.store.cache.bytes.load(Ordering::Relaxed)
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

    fn fig1_paged(config: PagedConfig) -> (gpnm_graph::paper::Fig1, PagedIndex) {
        let f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let p = PagedIndex::with_config(&f.graph, &reqs, config);
        (f, p)
    }

    #[test]
    fn tiny_cache_still_answers_exactly_and_evicts() {
        let (mut f, mut p) = fig1_paged(tiny());
        assert_eq!(p.kind(), "paged");
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let mut s = SparseIndex::build(&f.graph, &reqs);
        let n = f.graph.slot_count();
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (NodeId::from_index(i), NodeId::from_index(j));
                assert_eq!(p.distance(x, y), s.distance(x, y), "d({x:?},{y:?})");
            }
        }
        // Read-path promotions are budget-gated, so churn the cache
        // through the `&mut` repair path too (fetch → insert → evict): the
        // one repair that still reads every row is a node-delete commit.
        f.graph.remove_node(f.pm1).unwrap();
        let hint = RepairHint::Baseline;
        let commit_p = SlenBackend::commit_delete_node(&mut p, &f.graph, f.pm1, hint);
        let commit_s = SlenBackend::commit_delete_node(&mut s, &f.graph, f.pm1, hint);
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
        let reqs = SlenRequirements::of_pattern(&f.pattern);
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
        let reqs = SlenRequirements::of_pattern(&f.pattern);
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
        // Read-path promotions land in the ring at the next `&mut` op.
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
            cache_budget_bytes: row_footprint(&SparseRow {
                entries: Vec::new(),
            }) + 64,
        });
        let n = f.graph.slot_count();
        for i in 0..n {
            for j in 0..n {
                p.distance(NodeId::from_index(i), NodeId::from_index(j));
            }
        }
        // The lock-free read path never exceeds the budget on its own.
        assert!(
            p.cache_bytes() <= p.cache_budget(),
            "read promotions overshot: {} > {}",
            p.cache_bytes(),
            p.cache_budget()
        );
        // Shrinking to zero drains the promoted rows through the ring.
        p.set_cache_budget(0);
        assert_eq!(p.cached_rows(), 0, "rebudget must reclaim promoted rows");
    }
}

/// Model-checking surface for the loom suite (`--cfg gpnm_loom` builds
/// only): a thin handle over the crate-private [`CacheDir`] so the
/// `loom_paged_cache` integration tests can drive the budget-gated CAS
/// publish and clock eviction protocols directly.
#[cfg(gpnm_loom)]
#[doc(hidden)]
pub mod loom_model {
    use super::*;

    /// A hot-row cache directory plus its stats, sized for model tests.
    pub struct ModelCache {
        dir: CacheDir,
        stats: CacheStats,
    }

    impl ModelCache {
        /// Cache with `slots` addressable slots and a `budget`-byte cap.
        pub fn new(slots: usize, budget: usize) -> Self {
            let mut dir = CacheDir::new(budget);
            dir.ensure_slots(slots);
            ModelCache {
                dir,
                stats: CacheStats::default(),
            }
        }

        fn row(len: usize) -> SparseRow {
            SparseRow {
                entries: (0..len as u32).map(|t| (t, 1)).collect(),
            }
        }

        /// What a `len`-entry row charges against the byte budget.
        pub fn row_bytes(len: usize) -> usize {
            row_footprint(&Self::row(len))
        }

        /// Shared-path promotion (the racing CAS publish under test).
        /// Returns whether **this** call published the row.
        pub fn try_promote(&self, slot: u32, len: usize) -> bool {
            self.dir.try_promote(slot, Self::row(len))
        }

        /// Shared-path lookup: entry length of `slot`'s cached row.
        pub fn get_len(&self, slot: u32) -> Option<usize> {
            self.dir.get(slot).map(|e| e.row.entries.len())
        }

        /// Shared-path clock-bit touch, exactly as the distance hot path
        /// does it (check-then-set to keep hot hits store-free).
        pub fn mark_touched(&self, slot: u32) {
            if let Some(entry) = self.dir.get(slot) {
                // RELAXED: the clock bit is an eviction heuristic; see the
                // identical pattern in `PagedStore::with_row`.
                if !entry.touched.load(Ordering::Relaxed) {
                    entry.touched.store(true, Ordering::Relaxed);
                }
            }
        }

        /// Exclusive insert (the `&mut` write-through path).
        pub fn insert(&mut self, slot: u32, len: usize) {
            self.dir.insert(&self.stats, slot, Self::row(len));
        }

        /// Exclusive removal.
        pub fn remove(&mut self, slot: u32) {
            self.dir.remove(slot);
        }

        /// Re-aim the byte budget and evict down to it (`protect` pins one
        /// slot, as the repair paths do for the row they hold).
        pub fn rebudget(&mut self, budget: usize, protect: u32) {
            self.dir.budget = budget;
            self.dir.evict_to_budget(&self.stats, protect);
        }

        /// Cached-row count per the atomic accounting.
        pub fn cached_rows(&self) -> usize {
            // RELAXED: test-side observation after joins; no ordering load.
            self.dir.count.load(Ordering::Relaxed)
        }

        /// Byte footprint per the atomic accounting.
        pub fn bytes(&self) -> usize {
            // RELAXED: test-side observation after joins; no ordering load.
            self.dir.bytes.load(Ordering::Relaxed)
        }

        /// Eviction count (second-chance clock victims).
        pub fn evictions(&self) -> u64 {
            // RELAXED: test-side observation after joins; no ordering load.
            self.stats.evictions.load(Ordering::Relaxed)
        }
    }
}
