//! Bounded rows: the one `SLen` repair algorithm behind [`crate::SparseIndex`]
//! and [`crate::PagedIndex`], generic over where the rows are kept.
//!
//! ## 1. Purpose
//!
//! GPNM only ever consults `SLen` through `within(v, v', f_e)` checks whose
//! source `v` carries a label that occurs in the pattern (the matcher seeds
//! sets from label candidates; DER-I candidates and DER-III re-checks range
//! over matched/label sets too), and whose bound `f_e` is one of the
//! pattern's bounded path lengths. So the index only needs, per
//! *candidate* node `x` (label ∈ pattern labels), the distances
//! `d(x, y) ≤ B` where `B` is the pattern's maximum finite bound — any
//! longer distance is indistinguishable from ∞ for every check the engine
//! performs. Patterns containing an unbounded (`*`) edge need full
//! reachability, so `B` falls back to [`INF`] and rows are untruncated
//! (still candidate-sources-only). Memory is `O(Σ_candidates |ball_B(x)|)`
//! instead of `O(n²)`.
//!
//! ## 2. Representation: one [`BoundedRows<S>`] over a `RowStore`
//!
//! Each resident row is a sorted `(target, dist)` vector (`SparseRow`)
//! filled by a BFS truncated at depth `B` over the shared [`CsrSnapshot`].
//! [`BoundedRows`] owns the requirement set, the snapshot and the BFS
//! scratch, and carries the only copy of the build, insert-edge,
//! delete-edge, delete-node and requirement-retarget routines plus the
//! only `impl SlenBackend` / `impl DistanceOracle`. *Where a row lives* is
//! the crate-private `RowStore` seam: resident? / fetch / put / update /
//! remove / clear / grow for the `&mut` repair paths, `with_row` for the
//! `&self` oracle probes, and the store's own accounting (`mem_bytes`,
//! `io_stats`, `cost_hints`, `KIND`). Two stores exist:
//!
//! * `MemStore` ([`crate::SparseIndex`]) — a slot-indexed
//!   `Vec<Option<SparseRow>>`; every operation is an index.
//! * `PagedStore` ([`crate::PagedIndex`]) — a row directory into a spill
//!   file behind a byte-budgeted, lock-free hot-row cache; `put`/`update`
//!   write through, `fetch` fills the cache and evicts.
//!
//! The seam is sealed (`pub(crate)`): the repair routines rely on stores
//! returning exactly the row that was last put, which an outside
//! implementation could not be held to.
//!
//! **Why not two copies.** That was the tree until PR 13: `paged.rs`
//! re-implemented `sparse.rs` function for function (~330 code lines) with
//! a proptest suite kept to prove the copies agree. They drifted anyway
//! (the slot-growth fix for the `Vec::resize` doubling transient reached
//! one copy only; the `any_within` probe had to be threaded through both),
//! and every further repair optimization would have been written and
//! proven twice.
//!
//! **Why not `dyn RowStore`.** `distance`/`any_within` run by the hundred
//! thousand per tick; a virtual call there blocks inlining the in-memory
//! row lookup into the matcher's loops, and `update`/`with_row` take
//! closures, so a dyn-compatible seam would also box or double-dispatch
//! them. A type parameter costs nothing at run time and one extra
//! monomorphization at build time.
//!
//! **Why no cache inside the in-memory store.** Giving both stores the same
//! "cache over backing rows" shape would make the store contract uniform,
//! but the in-memory store's backing rows *are* its hot rows: a cache in
//! front adds a clock bit, a budget and an eviction path that can never
//! fire, on the lookup path the sparse workloads spend most of their
//! refresh time in.
//!
//! ## 3. Repair
//!
//! The dense delta-proportional repair carries over in truncated form:
//!
//! * *Edge insert `(u, v)`*: only resident sources `x` with
//!   `d_B(x, u) + 1 < d_B(x, v)` can change (the dense triangle-inequality
//!   pruning, applied to the truncated function), and candidate targets
//!   come from one truncated BFS row of `v` (valid pre- *and* post-insert:
//!   a simple shortest path from `v` cannot use an edge *into* `v`). An
//!   insert with no such source does no BFS and no write.
//! * *Edge delete `(u, v)`*: only resident sources with
//!   `d_B(x, u) + 1 == d_B(x, v)` can lose a path; their rows are re-run by
//!   truncated BFS. A source whose `d(x, v)` exceeds `B` can only change
//!   beyond the truncation horizon — invisible to the engine by
//!   construction.
//! * *Node delete*: resident sources whose row reaches the node, plus the
//!   node's own row.
//!
//! Every candidate scan fetches each resident row exactly once, in slot
//! order; probes never write. Deltas are the dense deltas *projected* onto
//! resident sources with distances `> B` mapped to ∞ — exactly the
//! projection the matcher observes, which the backend-equivalence proptest
//! suite asserts record-for-record against [`crate::IncrementalIndex`]
//! (and, between the two stores, proves the paged store's serialisation,
//! eviction and write-through transparent).

use std::fmt::Debug;

use gpnm_graph::{Bound, CsrGraph, CsrSnapshot, DataGraph, Label, NodeId, NodeSet};

use crate::aff::AffDelta;
use crate::backend::{CostHints, IoStats, RepairHint, SlenBackend, SlenRequirements};
use crate::oracle::DistanceOracle;
use crate::{sat_add, INF};

/// One resident row: `(target slot, distance)` sorted by slot. The paged
/// store's on-disk rows are these vectors serialized.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SparseRow {
    pub(crate) entries: Vec<(u32, u32)>,
}

impl SparseRow {
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> Option<u32> {
        self.entries
            .binary_search_by_key(&slot, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Whether some entry within `bound` targets a member of `set`: one
    /// pass over the row against the bitset.
    #[inline]
    pub(crate) fn any_within(&self, set: &NodeSet, bound: Bound) -> bool {
        self.entries
            .iter()
            .any(|&(t, d)| bound.admits(d) && set.contains(NodeId(t)))
    }

    /// Merge `updates` (sorted by slot, each an improvement or insertion)
    /// into the row, keeping it sorted.
    pub(crate) fn apply_sorted_updates(&mut self, updates: &[(u32, u32)]) {
        let mut merged = Vec::with_capacity(self.entries.len() + updates.len());
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < updates.len() {
            match self.entries[i].0.cmp(&updates[j].0) {
                std::cmp::Ordering::Less => {
                    merged.push(self.entries[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(updates[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(updates[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.entries[i..]);
        merged.extend_from_slice(&updates[j..]);
        self.entries = merged;
    }
}

/// What the truncated BFS must pretend is absent (deletion probes).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Skip {
    Nothing,
    Edge(NodeId, NodeId),
    Node(NodeId),
}

/// BFS from `source`, truncated at `depth` hops ([`INF`] = untruncated),
/// honoring `skip`. `dist` is an all-[`INF`] scratch array that is restored
/// before returning; `queue` is reusable scratch.
pub(crate) fn bfs_truncated(
    csr: &CsrGraph,
    source: NodeId,
    depth: u32,
    skip: Skip,
    dist: &mut [u32],
    queue: &mut Vec<NodeId>,
) -> SparseRow {
    debug_assert!(dist.len() >= csr.slot_count());
    queue.clear();
    dist[source.index()] = 0;
    queue.push(source);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let du = dist[u.index()];
        if du >= depth {
            continue; // at the truncation horizon: do not expand further
        }
        let u_is_skip_source = matches!(skip, Skip::Edge(a, _) if a == u);
        for &v in csr.out_neighbors(u) {
            match skip {
                Skip::Edge(_, b) if u_is_skip_source && v == b => continue,
                Skip::Node(s) if v == s => continue,
                _ => {}
            }
            if dist[v.index()] == INF {
                dist[v.index()] = du + 1;
                queue.push(v);
            }
        }
    }
    let mut entries: Vec<(u32, u32)> = queue.iter().map(|&v| (v.0, dist[v.index()])).collect();
    for &v in queue.iter() {
        dist[v.index()] = INF; // restore the all-INF invariant
    }
    entries.sort_unstable_by_key(|e| e.0);
    SparseRow { entries }
}

/// Record every difference between two sorted sparse rows of source `x`
/// (absent entries read as [`INF`]), in ascending target order.
pub(crate) fn diff_rows(x: NodeId, old: &SparseRow, new: &SparseRow, delta: &mut AffDelta) {
    let (a, b) = (&old.entries, &new.entries);
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                delta.record(x, NodeId(a[i].0), a[i].1, INF);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                delta.record(x, NodeId(b[j].0), INF, b[j].1);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if a[i].1 != b[j].1 {
                    delta.record(x, NodeId(a[i].0), a[i].1, b[j].1);
                }
                i += 1;
                j += 1;
            }
        }
    }
    for &(y, d) in &a[i..] {
        delta.record(x, NodeId(y), d, INF);
    }
    for &(y, d) in &b[j..] {
        delta.record(x, NodeId(y), INF, d);
    }
}

/// Grow a slot-aligned vector to `n` elements without the doubling
/// transient. `Vec::resize` grows by doubling, which at 10M+ slots
/// allocates a second quarter-GiB buffer while the old one is still
/// live — enough to blow a tight address-space budget on a single
/// node insert. Reserving ~1.5% headroom past `n` instead keeps a
/// long run of single-slot commits realloc-free and bounds the
/// transient to the exact new size.
pub(crate) fn grow_with_slack<T>(v: &mut Vec<T>, n: usize, fill: impl FnMut() -> T) {
    if n > v.capacity() {
        v.reserve_exact(n + n / 64 + 16 - v.len());
    }
    if v.len() < n {
        v.resize_with(n, fill);
    }
}

/// Where bounded rows live — the seam between the one repair algorithm
/// ([`BoundedRows`]) and its two storages. Slots are data-graph node slots.
///
/// Contract: after `put(s, r)` / `load(s, r)` / `update(s, f)`, `fetch(s)`
/// and `with_row(s, ..)` observe exactly that row until the next write to
/// `s`. The `&mut` methods are only called with slots below
/// [`RowStore::slots`], `update` only on a resident one; `with_row` accepts
/// any slot.
pub(crate) trait RowStore: Debug + Default + Send + Sync {
    /// Backend name the store gives its [`BoundedRows`] instantiation.
    const KIND: &'static str;

    /// Number of addressable slots.
    fn slots(&self) -> usize;

    /// Make slots `0..n` addressable (never shrinks).
    fn grow(&mut self, n: usize);

    /// Whether `slot` holds a row.
    fn is_resident(&self, slot: u32) -> bool;

    /// `slot`'s row on the exclusive repair path (a paged store faults it
    /// into its cache); `None` when `slot` holds no row.
    fn fetch(&mut self, slot: u32) -> Option<&SparseRow>;

    /// Replace (or create) `slot`'s row.
    fn put(&mut self, slot: u32, row: SparseRow);

    /// `put` into a just-[`RowStore::clear`]ed store: the build/rebuild
    /// bulk load. A store with a cache may leave it cold.
    fn load(&mut self, slot: u32, row: SparseRow) {
        self.put(slot, row);
    }

    /// Mutate resident `slot`'s row in place.
    fn update(&mut self, slot: u32, f: impl FnOnce(&mut SparseRow));

    /// Drop `slot`'s row, if any.
    fn remove(&mut self, slot: u32);

    /// Drop every row; the slot space stays.
    fn clear(&mut self);

    /// Run `f` over `slot`'s row on the shared read path — every oracle
    /// probe. `None` when `slot` holds no row.
    fn with_row<R>(&self, slot: u32, f: impl FnOnce(&SparseRow) -> R) -> Option<R>;

    /// In-memory footprint of the stored rows and their directories.
    fn mem_bytes(&self) -> usize;

    /// Cumulative paging counters; `None` for a store that never pages.
    fn io_stats(&self) -> Option<IoStats> {
        None
    }

    /// Cost hints of the storage (see [`CostHints`]).
    fn cost_hints(&self) -> CostHints {
        CostHints::default()
    }
}

/// Whether `reqs` makes nodes labeled `label` distance sources.
fn requires(reqs: &SlenRequirements, label: Option<Label>) -> bool {
    label.is_some_and(|l| reqs.labels().binary_search(&l).is_ok())
}

/// Every node `reqs` makes a distance source, label-major.
fn required_sources<'a>(
    reqs: &'a SlenRequirements,
    graph: &'a DataGraph,
) -> impl Iterator<Item = NodeId> + 'a {
    reqs.labels()
        .iter()
        .flat_map(|&l| graph.nodes_with_label(l).iter().copied())
}

/// Bounded-row `SLen` index over candidate sources only, generic over its
/// row storage. Use it through its two instantiations,
/// [`crate::SparseIndex`] (rows on the heap) and [`crate::PagedIndex`]
/// (rows in a spill file behind a hot-row cache); both run the same code
/// and emit identical deltas.
///
/// [`DistanceOracle::distance`] answers [`INF`] for any pair outside the
/// resident projection — sound for every consumer in this workspace
/// because they all source distance queries at pattern-labeled nodes and
/// compare them against the pattern's bounds only (the projection
/// [`SlenRequirements`] captures), but *not* a general-purpose APSP oracle.
#[derive(Debug, Clone)]
pub struct BoundedRows<S> {
    /// The covered requirement set (source labels + truncation depth) —
    /// the single source of truth for what is resident.
    reqs: SlenRequirements,
    pub(crate) store: S,
    snapshot: CsrSnapshot,
    dist_buf: Vec<u32>,
    queue_buf: Vec<NodeId>,
}

// The private bound is the seal: `RowStore` is crate-private by design, so
// only this crate's two stores can instantiate the public surface.
#[allow(private_bounds)]
impl<S: RowStore> BoundedRows<S> {
    /// Index `graph` for `reqs`, keeping the rows in `store`.
    pub(crate) fn with_store(graph: &DataGraph, reqs: &SlenRequirements, store: S) -> Self {
        let mut index = BoundedRows {
            reqs: reqs.clone(),
            store,
            snapshot: CsrSnapshot::new(),
            dist_buf: Vec::new(),
            queue_buf: Vec::new(),
        };
        index.materialize_all(graph);
        index
    }

    /// The truncation depth currently honored ([`INF`] = untruncated).
    pub fn depth(&self) -> u32 {
        self.reqs.depth()
    }

    /// The source labels currently materialized.
    pub fn labels(&self) -> &[Label] {
        self.reqs.labels()
    }

    fn ensure_slots(&mut self, graph: &DataGraph) {
        let n = graph.slot_count();
        self.store.grow(n);
        grow_with_slack(&mut self.dist_buf, n, || INF);
    }

    /// One truncated BFS row at the current depth. Every BFS goes through
    /// here, so the snapshot is rebuilt only by a pass that needs a row.
    fn bfs(&mut self, graph: &DataGraph, source: NodeId, skip: Skip) -> SparseRow {
        bfs_truncated(
            self.snapshot.get(graph),
            source,
            self.reqs.depth(),
            skip,
            &mut self.dist_buf,
            &mut self.queue_buf,
        )
    }

    /// Candidate scan: fetch every resident row but `except`'s exactly
    /// once, in slot order, and keep what `pick` selects.
    fn scan<T>(
        &mut self,
        except: Option<NodeId>,
        mut pick: impl FnMut(NodeId, &SparseRow) -> Option<T>,
    ) -> Vec<T> {
        let mut picked = Vec::new();
        for slot in 0..self.store.slots() as u32 {
            let x = NodeId(slot);
            if Some(x) == except {
                continue;
            }
            let Some(row) = self.store.fetch(slot) else {
                continue;
            };
            if let Some(hit) = pick(x, row) {
                picked.push(hit);
            }
        }
        picked
    }

    /// Recompute every row the requirement set implies, from scratch.
    fn materialize_all(&mut self, graph: &DataGraph) {
        self.ensure_slots(graph);
        self.store.clear();
        let sources: Vec<NodeId> = required_sources(&self.reqs, graph).collect();
        for x in sources {
            let row = self.bfs(graph, x, Skip::Nothing);
            self.store.load(x.0, row);
        }
    }

    /// Re-aim coverage at exactly `target`. Rows whose label left are
    /// dropped; a shrunken horizon re-truncates in place (a depth-B row
    /// filtered to `d ≤ B'` *is* the depth-B' row, no BFS needed); a deeper
    /// horizon re-runs every surviving row, then newly required sources
    /// are materialized — puts in slot order first, label order second.
    fn retarget(&mut self, graph: &DataGraph, target: SlenRequirements) {
        self.ensure_slots(graph);
        if self.reqs == target {
            return;
        }
        let deeper = target.depth() > self.reqs.depth();
        let shallower = target.depth() < self.reqs.depth();
        self.reqs = target;
        let depth = self.reqs.depth();
        let mut todo: Vec<NodeId> = Vec::new();
        for slot in 0..self.store.slots() as u32 {
            if !self.store.is_resident(slot) {
                continue;
            }
            if !requires(&self.reqs, graph.label(NodeId(slot))) {
                self.store.remove(slot);
            } else if shallower {
                self.store
                    .update(slot, |row| row.entries.retain(|&(_, d)| d <= depth));
            } else if deeper {
                todo.push(NodeId(slot));
            }
        }
        todo.extend(required_sources(&self.reqs, graph).filter(|x| !self.store.is_resident(x.0)));
        for x in todo {
            let row = self.bfs(graph, x, Skip::Nothing);
            self.store.put(x.0, row);
        }
    }

    /// Shared insert-edge repair: the truncated analogue of the dense
    /// affected-source × finite-target pruning. Valid with the graph in
    /// either its pre-insert (probe) or post-insert (commit) state: a
    /// simple shortest path from `v` never traverses an edge into `v`, so
    /// the BFS row of `v` is identical in both.
    fn insert_edge_delta(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        commit: bool,
    ) -> AffDelta {
        self.ensure_slots(graph);
        let depth = self.reqs.depth();
        let mut delta = AffDelta::new();
        // Affected sources first: `x` with `d_B(x,u) + 1 < d_B(x,v)` and
        // within the horizon. Needs only row lookups, so the (much more
        // expensive) BFS row of `v` is skipped entirely for the common
        // no-candidate insert.
        let candidates = self.scan(None, |x, row| {
            let through = sat_add(row.get(u.0)?, 1);
            let within = through <= depth && through < row.get(v.0).unwrap_or(INF);
            within.then_some((x, through))
        });
        if candidates.is_empty() {
            return delta;
        }
        let vrow = self.bfs(graph, v, Skip::Nothing);
        let mut updates: Vec<(u32, u32)> = Vec::new();
        for (x, through) in candidates {
            updates.clear();
            let row = self.store.fetch(x.0).expect("candidate is resident");
            for &(y, dvy) in &vrow.entries {
                let cand = sat_add(through, dvy);
                if cand > depth {
                    continue;
                }
                let old = row.get(y).unwrap_or(INF);
                if cand < old {
                    delta.record(x, NodeId(y), old, cand);
                    if commit {
                        updates.push((y, cand));
                    }
                }
            }
            if commit && !updates.is_empty() {
                self.store
                    .update(x.0, |row| row.apply_sorted_updates(&updates));
            }
        }
        delta
    }

    /// Re-run `sources`' rows after a deletion, recording every change and,
    /// on commit, storing the new rows. A probe's graph still holds what is
    /// being deleted, so its BFS skips `deleted`; a commit's is already
    /// without it.
    fn rerun_rows(
        &mut self,
        graph: &DataGraph,
        sources: Vec<NodeId>,
        deleted: Skip,
        commit: bool,
        delta: &mut AffDelta,
    ) {
        let skip = if commit { Skip::Nothing } else { deleted };
        for x in sources {
            let new_row = self.bfs(graph, x, skip);
            let old_row = self.store.fetch(x.0).expect("source is resident");
            diff_rows(x, old_row, &new_row, delta);
            if commit {
                self.store.put(x.0, new_row);
            }
        }
    }

    fn delete_edge_delta(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        commit: bool,
    ) -> AffDelta {
        self.ensure_slots(graph);
        // Resident sources whose shortest path to `v` may run through the
        // edge `(u, v)` — the truncated delete-candidate test.
        let candidates = self.scan(None, |x, row| {
            (sat_add(row.get(u.0)?, 1) == row.get(v.0)?).then_some(x)
        });
        let mut delta = AffDelta::new();
        self.rerun_rows(graph, candidates, Skip::Edge(u, v), commit, &mut delta);
        delta
    }

    fn delete_node_delta(&mut self, graph: &DataGraph, id: NodeId, commit: bool) -> AffDelta {
        self.ensure_slots(graph);
        let sources = self.scan(Some(id), |x, row| row.get(id.0).map(|_| x));
        let mut delta = AffDelta::new();
        // The node's own row: every entry becomes INF.
        if let Some(row) = self.store.fetch(id.0) {
            for &(y, d) in &row.entries {
                delta.record(id, NodeId(y), d, INF);
            }
            if commit {
                self.store.remove(id.0);
            }
        }
        self.rerun_rows(graph, sources, Skip::Node(id), commit, &mut delta);
        delta
    }
}

#[allow(private_bounds)]
impl<S: RowStore> DistanceOracle for BoundedRows<S> {
    #[inline]
    fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        self.store
            .with_row(u.0, |row| row.get(v.0))
            .flatten()
            .unwrap_or(INF)
    }

    /// One row access per call, however many members `set` has.
    #[inline]
    fn any_within(&self, u: NodeId, set: &NodeSet, bound: Bound) -> bool {
        self.store
            .with_row(u.0, |row| row.any_within(set, bound))
            .unwrap_or(false)
    }
}

#[allow(private_bounds)]
impl<S: RowStore> SlenBackend for BoundedRows<S> {
    fn kind(&self) -> &'static str {
        S::KIND
    }

    fn build(graph: &DataGraph, reqs: &SlenRequirements) -> Self {
        Self::with_store(graph, reqs, S::default())
    }

    fn rebuild(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        // Absorb the widened requirements first: the single materialize
        // pass below then covers old and new coverage together.
        self.reqs.absorb(reqs);
        self.materialize_all(graph);
    }

    fn sync_requirements(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        // Coverage is monotone here: aim at the union.
        let mut target = self.reqs.clone();
        target.absorb(reqs);
        self.retarget(graph, target);
    }

    fn narrow_requirements(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        self.retarget(graph, reqs.clone());
    }

    fn probe_insert_edge(&mut self, graph: &DataGraph, u: NodeId, v: NodeId) -> AffDelta {
        debug_assert!(!graph.has_edge(u, v), "probe_insert_edge on present edge");
        self.insert_edge_delta(graph, u, v, false)
    }

    fn probe_delete_edge(&mut self, graph: &DataGraph, u: NodeId, v: NodeId) -> AffDelta {
        debug_assert!(graph.has_edge(u, v), "probe_delete_edge on absent edge");
        self.delete_edge_delta(graph, u, v, false)
    }

    fn probe_delete_node(&mut self, graph: &DataGraph, id: NodeId) -> AffDelta {
        debug_assert!(graph.contains(id), "probe_delete_node on absent node");
        self.delete_node_delta(graph, id, false)
    }

    fn commit_insert_edge(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        _hint: RepairHint,
    ) -> AffDelta {
        debug_assert!(graph.has_edge(u, v), "commit before graph mutation");
        self.insert_edge_delta(graph, u, v, true)
    }

    fn commit_delete_edge(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        _hint: RepairHint,
    ) -> AffDelta {
        debug_assert!(!graph.has_edge(u, v), "commit before graph mutation");
        self.delete_edge_delta(graph, u, v, true)
    }

    fn commit_insert_node(&mut self, graph: &DataGraph, id: NodeId, _hint: RepairHint) -> AffDelta {
        self.ensure_slots(graph);
        if requires(&self.reqs, graph.label(id)) {
            // An isolated newcomer's row is just itself at distance 0.
            self.store.put(
                id.0,
                SparseRow {
                    entries: vec![(id.0, 0)],
                },
            );
        }
        AffDelta::new()
    }

    fn commit_delete_node(&mut self, graph: &DataGraph, id: NodeId, _hint: RepairHint) -> AffDelta {
        debug_assert!(!graph.contains(id), "commit before graph mutation");
        self.delete_node_delta(graph, id, true)
    }

    fn resident_rows(&self) -> usize {
        (0..self.store.slots() as u32)
            .filter(|&slot| self.store.is_resident(slot))
            .count()
    }

    fn mem_bytes(&self) -> usize {
        self.store.mem_bytes()
    }

    fn io_stats(&self) -> Option<IoStats> {
        self.store.io_stats()
    }

    fn cost_hints(&self) -> CostHints {
        self.store.cost_hints()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::apsp_matrix;
    use crate::incremental::IncrementalIndex;
    use crate::paged::{tiny, PagedStore};
    use crate::sparse::MemStore;
    use crate::DistanceMatrix;
    use gpnm_graph::paper::{fig1, Fig1};

    fn fig1_rows<S: RowStore>(store: S) -> (Fig1, BoundedRows<S>) {
        let f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let index = BoundedRows::with_store(&f.graph, &reqs, store);
        (f, index)
    }

    /// The truncated-projection equality every test leans on.
    fn assert_projection<S: RowStore>(
        s: &BoundedRows<S>,
        graph: &DataGraph,
        dense: &DistanceMatrix,
    ) {
        let n = graph.slot_count();
        for i in 0..n {
            let x = NodeId::from_index(i);
            if !s.store.is_resident(x.0) {
                continue;
            }
            for j in 0..n {
                let y = NodeId::from_index(j);
                let d = dense.get(x, y);
                let expected = if d <= s.depth() { d } else { INF };
                assert_eq!(s.distance(x, y), expected, "d({x:?},{y:?})");
            }
        }
    }

    /// Same residency and the same answer for every pair.
    fn assert_same_index<A: RowStore, B: RowStore>(
        a: &BoundedRows<A>,
        b: &BoundedRows<B>,
        graph: &DataGraph,
    ) {
        assert_eq!(a.resident_rows(), b.resident_rows());
        assert_eq!(a.depth(), b.depth());
        let n = graph.slot_count();
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (NodeId::from_index(i), NodeId::from_index(j));
                assert_eq!(a.distance(x, y), b.distance(x, y), "d({x:?},{y:?})");
            }
        }
    }

    fn sorted(delta: &AffDelta) -> Vec<(NodeId, NodeId, u32, u32)> {
        let mut changed = delta.changed.clone();
        changed.sort_unstable();
        changed
    }

    fn wide_reqs(f: &Fig1) -> SlenRequirements {
        // Widen: DB becomes a pattern label; deepen: a bound of 6 arrives.
        let mut wide = SlenRequirements::of_pattern(&f.pattern);
        wide.absorb_label(f.interner.get("DB").unwrap());
        wide.absorb_bound(Bound::Hops(6));
        wide
    }

    fn build_matches_truncated_dense<S: RowStore>(store: S) {
        let (f, s) = fig1_rows(store);
        assert_eq!(s.kind(), S::KIND);
        // All four pattern labels cover 7 of the 8 nodes (DB1 is not a
        // pattern label).
        assert_eq!(s.resident_rows(), 7);
        assert_eq!(s.depth(), 4);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
        assert_eq!(s.distance(f.db1, f.se1), INF, "non-resident row reads INF");
    }

    fn commits_track_dense_through_a_mixed_sequence<S: RowStore>(store: S) {
        let (mut f, mut s) = fig1_rows(store);
        let mut dense = IncrementalIndex::build(&f.graph);

        f.graph.add_edge(f.se1, f.te2).unwrap();
        dense.commit_insert_edge(f.se1, f.te2);
        s.commit_insert_edge(&f.graph, f.se1, f.te2, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());

        f.graph.remove_edge(f.pm1, f.db1).unwrap();
        dense.commit_delete_edge(&f.graph, f.pm1, f.db1);
        s.commit_delete_edge(&f.graph, f.pm1, f.db1, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());

        let label = f.interner.get("TE").unwrap();
        let id = f.graph.add_node(label);
        dense.commit_insert_node(f.graph.slot_count());
        s.commit_insert_node(&f.graph, id, RepairHint::Baseline);
        assert_eq!(s.distance(id, id), 0, "required newcomer is resident");

        f.graph.add_edge(f.s1, id).unwrap();
        dense.commit_insert_edge(f.s1, id);
        s.commit_insert_edge(&f.graph, f.s1, id, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());

        f.graph.remove_node(f.se1).unwrap();
        dense.commit_delete_node(&f.graph, f.se1);
        s.commit_delete_node(&f.graph, f.se1, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());
        assert_eq!(s.distance(f.se1, f.se2), INF, "tombstone row dropped");
    }

    fn probe_equals_commit_delta<S: RowStore>(store: S) {
        let (mut f, mut s) = fig1_rows(store);
        let probe = s.probe_insert_edge(&f.graph, f.se1, f.te2);
        f.graph.add_edge(f.se1, f.te2).unwrap();
        let commit = s.commit_insert_edge(&f.graph, f.se1, f.te2, RepairHint::Baseline);
        assert_eq!(probe.changed, commit.changed);

        let probe = s.probe_delete_edge(&f.graph, f.se1, f.s1);
        f.graph.remove_edge(f.se1, f.s1).unwrap();
        let commit = s.commit_delete_edge(&f.graph, f.se1, f.s1, RepairHint::Baseline);
        assert_eq!(sorted(&probe), sorted(&commit));

        let probe = s.probe_delete_node(&f.graph, f.s1);
        f.graph.remove_node(f.s1).unwrap();
        let commit = s.commit_delete_node(&f.graph, f.s1, RepairHint::Baseline);
        assert_eq!(sorted(&probe), sorted(&commit));
    }

    fn sync_requirements_deepens_and_widens<S: RowStore>(store: S) {
        let (f, mut s) = fig1_rows(store);
        assert_eq!(s.resident_rows(), 7);
        s.sync_requirements(&f.graph, &wide_reqs(&f));
        assert_eq!(s.resident_rows(), 8);
        assert_eq!(s.depth(), 6);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
        // Narrower requirements are a no-op (coverage is monotone).
        let narrow = SlenRequirements::of_pattern(&f.pattern);
        s.sync_requirements(&f.graph, &narrow);
        assert_eq!(s.resident_rows(), 8);
        assert_eq!(s.depth(), 6);
    }

    fn narrow_requirements_matches_a_fresh_build<S: RowStore>(store: S) {
        let (f, mut s) = fig1_rows(store);
        s.sync_requirements(&f.graph, &wide_reqs(&f));
        assert_eq!(s.resident_rows(), 8);
        assert_eq!(s.depth(), 6);
        // Narrow back to the bare pattern: rows drop, entries re-truncate,
        // and the result is indistinguishable from building fresh.
        let narrow = SlenRequirements::of_pattern(&f.pattern);
        s.narrow_requirements(&f.graph, &narrow);
        let fresh = BoundedRows::with_store(&f.graph, &narrow, MemStore::default());
        assert_same_index(&s, &fresh, &f.graph);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
    }

    fn narrow_requirements_can_widen_too<S: RowStore>(store: S) {
        // "Narrow" re-targets: a requirement set that is wider on one axis
        // and absent on another still lands exactly.
        let (f, mut s) = fig1_rows(store);
        let mut only_db = SlenRequirements::empty();
        only_db.absorb_label(f.interner.get("DB").unwrap());
        only_db.absorb_bound(Bound::Hops(6));
        s.narrow_requirements(&f.graph, &only_db);
        assert_eq!(s.resident_rows(), 1, "only DB1's row survives");
        assert_eq!(s.depth(), 6);
        let fresh = BoundedRows::with_store(&f.graph, &only_db, MemStore::default());
        assert_same_index(&s, &fresh, &f.graph);
    }

    fn unbounded_requirements_store_full_rows<S: RowStore>(store: S) {
        let f = fig1();
        let mut reqs = SlenRequirements::of_pattern(&f.pattern);
        reqs.absorb_bound(Bound::Unbounded);
        let s = BoundedRows::with_store(&f.graph, &reqs, store);
        assert_eq!(s.depth(), INF);
        let dense = apsp_matrix(&f.graph);
        assert_projection(&s, &f.graph, &dense);
        // PM1 reaches TE1 in 5 hops — beyond the bounded pattern's horizon
        // of 4, but a full row must resolve it.
        assert_eq!(s.distance(f.pm2, f.te1), dense.get(f.pm2, f.te1));
    }

    /// Run the whole algorithm suite over one store.
    macro_rules! store_suite {
        ($name:ident, $store:expr) => {
            mod $name {
                use super::*;

                #[test]
                fn build_matches_truncated_dense() {
                    super::build_matches_truncated_dense($store);
                }
                #[test]
                fn commits_track_dense_through_a_mixed_sequence() {
                    super::commits_track_dense_through_a_mixed_sequence($store);
                }
                #[test]
                fn probe_equals_commit_delta() {
                    super::probe_equals_commit_delta($store);
                }
                #[test]
                fn sync_requirements_deepens_and_widens() {
                    super::sync_requirements_deepens_and_widens($store);
                }
                #[test]
                fn narrow_requirements_matches_a_fresh_build() {
                    super::narrow_requirements_matches_a_fresh_build($store);
                }
                #[test]
                fn narrow_requirements_can_widen_too() {
                    super::narrow_requirements_can_widen_too($store);
                }
                #[test]
                fn unbounded_requirements_store_full_rows() {
                    super::unbounded_requirements_store_full_rows($store);
                }
            }
        };
    }

    store_suite!(mem, MemStore::default());
    // A 2-page cache, so nearly every fetch of the suite evicts.
    store_suite!(paged_tiny, PagedStore::new(tiny()));

    // ------------------------------------------------------------------
    // What the seam is for: a store that records how it is driven.
    // ------------------------------------------------------------------

    /// An in-memory store counting every call on the `&mut` repair path.
    #[derive(Debug, Default)]
    struct Recording {
        inner: MemStore,
        /// `fetch` calls per slot.
        fetches: Vec<u32>,
        /// The slot of every `put`, in call order.
        puts: Vec<u32>,
        /// `put` + `update` + `remove` + `clear` calls.
        writes: usize,
    }

    impl Recording {
        fn reset(&mut self) {
            self.fetches.iter_mut().for_each(|c| *c = 0);
            self.puts.clear();
            self.writes = 0;
        }

        /// Fetch counts of the resident slots, in slot order.
        fn resident_fetches(&self) -> Vec<u32> {
            (0..self.inner.slots() as u32)
                .filter(|&s| self.inner.is_resident(s))
                .map(|s| self.fetches[s as usize])
                .collect()
        }
    }

    impl RowStore for Recording {
        const KIND: &'static str = "recording";

        fn slots(&self) -> usize {
            self.inner.slots()
        }
        fn grow(&mut self, n: usize) {
            self.inner.grow(n);
            self.fetches.resize(n, 0);
        }
        fn is_resident(&self, slot: u32) -> bool {
            self.inner.is_resident(slot)
        }
        fn fetch(&mut self, slot: u32) -> Option<&SparseRow> {
            let row = self.inner.fetch(slot)?;
            self.fetches[slot as usize] += 1;
            Some(row)
        }
        fn put(&mut self, slot: u32, row: SparseRow) {
            self.puts.push(slot);
            self.writes += 1;
            self.inner.put(slot, row);
        }
        fn update(&mut self, slot: u32, f: impl FnOnce(&mut SparseRow)) {
            self.writes += 1;
            self.inner.update(slot, f);
        }
        fn remove(&mut self, slot: u32) {
            self.writes += 1;
            self.inner.remove(slot);
        }
        fn clear(&mut self) {
            self.writes += 1;
            self.inner.clear();
        }
        fn with_row<R>(&self, slot: u32, f: impl FnOnce(&SparseRow) -> R) -> Option<R> {
            self.inner.with_row(slot, f)
        }
        fn mem_bytes(&self) -> usize {
            self.inner.mem_bytes()
        }
    }

    /// Fetch counts are in slot order `PM1, PM2, SE1, SE2, S1, TE1, TE2`
    /// (DB1 has no row); distances per `gpnm_graph::paper::TABLE_III`.
    #[test]
    fn probes_never_write_and_scan_each_resident_row_once() {
        let (f, mut s) = fig1_rows(Recording::default());

        // `SE1 -> TE2` improves every source but TE2 itself: the scan reads
        // each row once, then each of the six candidates once more.
        s.store.reset();
        assert!(!s.probe_insert_edge(&f.graph, f.se1, f.te2).is_empty());
        assert_eq!(s.store.resident_fetches(), [2, 2, 2, 2, 2, 2, 1]);
        assert_eq!(s.store.writes, 0);

        // `PM1 -> DB1` carries a shortest path of PM1 only.
        s.store.reset();
        assert!(!s.probe_delete_edge(&f.graph, f.pm1, f.db1).is_empty());
        assert_eq!(s.store.resident_fetches(), [2, 1, 1, 1, 1, 1, 1]);
        assert_eq!(s.store.writes, 0);

        // Every other source reaches S1 within the horizon; S1's own row is
        // read once, after the scan and not by it.
        s.store.reset();
        assert!(!s.probe_delete_node(&f.graph, f.s1).is_empty());
        assert_eq!(s.store.resident_fetches(), [2, 2, 2, 2, 1, 2, 2]);
        assert_eq!(s.store.writes, 0);

        // And nothing a probe did changed an answer.
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let fresh = BoundedRows::with_store(&f.graph, &reqs, MemStore::default());
        assert_same_index(&s, &fresh, &f.graph);
    }

    #[test]
    fn insert_without_an_affected_source_does_no_bfs_and_no_write() {
        let (mut f, mut s) = fig1_rows(Recording::default());
        // DB is not a source label, so the newcomer gets no row — and no
        // resident row reaches it, so the edge out of it affects nobody.
        let db = f.graph.add_node(f.interner.get("DB").unwrap());
        s.commit_insert_node(&f.graph, db, RepairHint::Baseline);
        f.graph.add_edge(db, f.se1).unwrap();
        s.store.reset();
        assert!(s.snapshot.is_stale(&f.graph));
        let delta = s.commit_insert_edge(&f.graph, db, f.se1, RepairHint::Baseline);
        assert!(delta.is_empty());
        assert_eq!(s.store.writes, 0);
        assert_eq!(s.store.resident_fetches(), vec![1; 7], "the scan only");
        assert!(
            s.snapshot.is_stale(&f.graph),
            "every BFS goes through the snapshot: none ran"
        );
    }

    #[test]
    fn sync_is_retarget_at_the_union_with_puts_in_slot_then_label_order() {
        let f = fig1();
        let reqs_of = |label: &str, hops: u32| {
            let mut reqs = SlenRequirements::empty();
            reqs.absorb_label(f.interner.get(label).unwrap());
            reqs.absorb_bound(Bound::Hops(hops));
            reqs
        };
        let te_only = reqs_of("TE", 2);
        let mut union = te_only.clone();
        union.absorb(&reqs_of("PM", 4));
        // Deeper: the surviving TE rows re-run in slot order; then the
        // newly required PM sources — although their slots come first.
        let expected = [f.te1.0, f.te2.0, f.pm1.0, f.pm2.0];

        let mut synced = BoundedRows::with_store(&f.graph, &te_only, Recording::default());
        synced.store.reset();
        synced.sync_requirements(&f.graph, &reqs_of("PM", 4));
        assert_eq!(synced.store.puts, expected);
        assert_eq!(synced.store.writes, 4, "no row dropped or re-truncated");

        let mut narrowed = BoundedRows::with_store(&f.graph, &te_only, Recording::default());
        narrowed.store.reset();
        narrowed.narrow_requirements(&f.graph, &union);
        assert_eq!(narrowed.store.puts, expected);
        assert_same_index(&synced, &narrowed, &f.graph);
        assert_eq!(synced.labels(), union.labels());
    }
}
