//! The pluggable `SLen` backend abstraction: the repair lifecycle every
//! engine strategy drives, behind one trait.
//!
//! [`crate::DistanceOracle`] answers point lookups; [`SlenBackend`]
//! subsumes it with the full *repairable index* contract the GPNM engine
//! needs: build from a graph, grow/tombstone slots as nodes come and go,
//! and commit each applied update, returning the [`AffDelta`] it caused
//! (DER-II's `Aff_N`). Two index types ship:
//!
//! * [`crate::IncrementalIndex`] — the dense `n × n` matrix of §IV with
//!   delta-proportional repair: inserts touch affected sources × finite
//!   targets, deletes re-settle only the entries they change. Exact for
//!   every pair; `O(n²)` memory, so it stops fitting around ~50k nodes
//!   (42 GB at 100k, growth headroom included). The runtime `partitioned`
//!   kind, and the one the paper-scale experiments use.
//! * [`crate::SparseIndex`] — bounded rows for *candidate* sources only
//!   (nodes whose label occurs in the pattern), truncated at the pattern's
//!   maximum finite bound. Memory proportional to candidate rows × nodes
//!   within the bound, which is what unlocks 100k+-node graphs.
//!   [`crate::PagedIndex`] is the same index ([`crate::BoundedRows`]) with
//!   its rows in a spill file behind a hot-row cache.
//!
//! What a backend must cover is captured by [`SlenRequirements`]: the
//! matcher only ever asks for distances *from* pattern-labeled nodes and
//! only compares them against the pattern's bounds, so a backend may
//! restrict itself to that projection. Dense backends ignore requirements
//! (they cover everything); the sparse backend materializes exactly the
//! requirement set and [`SlenBackend::sync_requirements`] grows it when a
//! batch's pattern updates widen the pattern.

use gpnm_graph::{Bound, DataGraph, Label, NodeId, PatternGraph};

use crate::aff::AffDelta;
use crate::incremental::IncrementalIndex;
use crate::kind::BackendKind;
use crate::oracle::DistanceOracle;
use crate::INF;

/// What the pattern (plus any pending pattern updates) requires of the
/// `SLen` index: which source labels are consulted, and how deep.
///
/// The matcher's `within(v, v', bound)` checks always originate at a node
/// `v` whose label occurs in the pattern, and a distance `d > depth` is
/// indistinguishable from ∞ for every finite bound `≤ depth`. A backend
/// honoring a requirement set is therefore exact *for the projection the
/// engine observes* even if it stores nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlenRequirements {
    /// Labels whose nodes can be distance sources (sorted, deduplicated).
    labels: Vec<Label>,
    /// Maximum finite bound to resolve; [`INF`] when some pattern edge is
    /// unbounded (`*`), which needs full reachability rows.
    depth: u32,
}

impl SlenRequirements {
    /// The empty requirement set: no source labels, depth 0. The natural
    /// starting point for a union that [`SlenRequirements::absorb`]s one
    /// pattern at a time (the multi-pattern service's register path).
    pub fn empty() -> Self {
        SlenRequirements {
            labels: Vec::new(),
            depth: 0,
        }
    }

    /// Requirements of `pattern` as it stands.
    pub fn of_pattern(pattern: &PatternGraph) -> Self {
        let mut labels: Vec<Label> = pattern.nodes().filter_map(|u| pattern.label(u)).collect();
        labels.sort_unstable();
        labels.dedup();
        let mut reqs = SlenRequirements { labels, depth: 0 };
        for e in pattern.edges() {
            reqs.absorb_bound(e.bound);
        }
        reqs
    }

    /// Widen to also cover sources labeled `label` (a pattern-node insert).
    pub fn absorb_label(&mut self, label: Label) {
        if let Err(pos) = self.labels.binary_search(&label) {
            self.labels.insert(pos, label);
        }
    }

    /// Widen to also resolve `bound` (a pattern-edge insert).
    pub fn absorb_bound(&mut self, bound: Bound) {
        let needed = match bound {
            Bound::Hops(k) => k,
            Bound::Unbounded => INF,
        };
        self.depth = self.depth.max(needed);
    }

    /// Widen to the union with `other`.
    pub fn absorb(&mut self, other: &SlenRequirements) {
        for &label in other.labels() {
            self.absorb_label(label);
        }
        self.depth = self.depth.max(other.depth);
    }

    /// The required source labels, sorted ascending.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The required resolution depth ([`INF`] = full rows).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// How many of `graph`'s nodes a bounded backend honoring this
    /// requirement set would keep a row for — the nodes whose label is a
    /// required source label. This is placement introspection: a shard
    /// scheduler comparing "what would this shard's index grow to if the
    /// pattern landed here" calls this on the prospective requirement
    /// union instead of building the index to find out.
    pub fn covered_rows(&self, graph: &DataGraph) -> usize {
        self.labels
            .iter()
            .map(|&l| graph.nodes_with_label(l).len())
            .sum()
    }
}

/// Project a dense [`AffDelta`] onto a bounded backend's observable
/// slice: keep records whose source passes `resident`, clamp distances
/// beyond `depth` to [`INF`], and drop records the clamp turns into
/// no-ops. This *is* the sparse backend's delta contract — the
/// equivalence proptests assert `sparse.changed == project_delta(dense,
/// depth, resident)` record for record. `resident` must reflect residency
/// at the time the delta was produced (for a node-deletion commit:
/// *before* the node left the graph).
pub fn project_delta<F: Fn(NodeId) -> bool>(
    delta: &AffDelta,
    depth: u32,
    resident: F,
) -> Vec<(NodeId, NodeId, u32, u32)> {
    let clamp = |d: u32| if d <= depth { d } else { INF };
    delta
        .changed
        .iter()
        .filter_map(|&(x, y, old, new)| {
            if !resident(x) {
                return None;
            }
            let (old, new) = (clamp(old), clamp(new));
            (old != new).then_some((x, y, old, new))
        })
        .collect()
}

/// Paging/caching activity counters of an out-of-core backend, cumulative
/// since construction. Monotone: per-tick activity is the difference of
/// two snapshots ([`IoStats::since`]), which is how the serving layer's
/// `TickStats` reports paging behavior per tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Row lookups answered from the in-memory hot-row cache.
    pub cache_hits: u64,
    /// Row lookups that had to read the spill file.
    pub cache_misses: u64,
    /// Rows evicted to keep the cache inside its byte budget.
    pub cache_evictions: u64,
    /// Spill-file pages read.
    pub pages_read: u64,
    /// Spill-file pages written.
    pub pages_written: u64,
}

impl IoStats {
    /// The activity between `earlier` and `self` (both cumulative).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            pages_read: self.pages_read.saturating_sub(earlier.pages_read),
            pages_written: self.pages_written.saturating_sub(earlier.pages_written),
        }
    }

    /// Fraction of row lookups served from the cache (`1.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// An argument of [`SlenBackend`]'s commits that selects nothing: every
/// backend repairs the same way for both values.
///
/// It once chose whether the dense matrix recomputed a delete's rows by
/// BFS on the worker pool (the paper's §V distributed maintenance, its
/// UA-GPNM arm). Every dense delete now re-settles only the entries it
/// changes, at ≈0.4 µs a re-settled row (a node delete on the
/// email-EU-core stand-in) against 31–44 µs for one scoped thread spawn,
/// so there is nothing left worth fanning out. The engine and the service
/// pass [`RepairHint::Baseline`] from one place
/// (`gpnm_engine::pipeline::commit_data_update`). The type stays in the
/// commit signatures only because the benchmark of record
/// (`gpnm-bench/src/staged.rs`) passes it by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairHint {
    /// The value every in-tree caller passes.
    Baseline,
    /// Repairs exactly as [`RepairHint::Baseline`] does, in every backend.
    Accelerated,
}

/// A repairable `SLen` index: the full lifecycle the GPNM engine drives.
///
/// Contract shared by every method: `graph` is the engine's data graph.
/// A commit receives it in its **post-update** state (the caller mutates
/// the graph first), returns every distance the update changed and leaves
/// the index exact for that state — where "exact" means exact for the
/// projection of the backend's current [`SlenRequirements`]; dense
/// backends are exact everywhere. Every mutation of the graph must be
/// mirrored by exactly one commit call. There is no read-only "what if"
/// evaluation: an update's effect is the delta its commit emits.
///
/// Backends are `Send + Sync`: after a batch's commit pass the index is
/// consulted read-only by per-pattern refresh work (one merged repair
/// pass or a re-match per pattern), which a service may fan out over the
/// `gpnm-pool` lanes, and whole backends move between threads when a
/// cluster fans a tick out across shards. Thread-safe sharing is part of
/// the contract, not an implementation detail. No commit runs on more than
/// one thread.
pub trait SlenBackend: DistanceOracle + Send + Sync {
    /// Short backend name for CLIs and reports (`"partitioned"`,
    /// `"sparse"`, …).
    fn kind(&self) -> &'static str;

    /// Build an index of `graph` covering `reqs`.
    fn build(graph: &DataGraph, reqs: &SlenRequirements) -> Self
    where
        Self: Sized;

    /// Recompute everything from the current graph (the Scratch strategy),
    /// widening coverage to the union of the already-covered requirements
    /// and `reqs` in the same single pass — Scratch callers hand in the
    /// post-batch pattern's requirements instead of paying a separate
    /// [`SlenBackend::sync_requirements`] recompute first.
    fn rebuild(&mut self, graph: &DataGraph, reqs: &SlenRequirements);

    /// Grow coverage so every lookup implied by `reqs` is answerable.
    /// Requirements only widen (extra coverage is harmless); dense
    /// backends no-op.
    fn sync_requirements(&mut self, _graph: &DataGraph, _reqs: &SlenRequirements) {}

    /// Shrink (or re-target) coverage to exactly `reqs` — the
    /// deregistration counterpart of [`SlenBackend::sync_requirements`].
    /// After the call the backend must be exact for the `reqs` projection;
    /// storage for anything outside it may be reclaimed. Dense backends
    /// cover everything for free and no-op.
    fn narrow_requirements(&mut self, _graph: &DataGraph, _reqs: &SlenRequirements) {}

    /// A no-op that no backend overrides. It stays because the benchmark
    /// of record (`gpnm-bench/src/staged.rs`) calls it by name; nothing
    /// else does.
    fn prepare_accelerator(&mut self, _graph: &DataGraph) {}

    /// Repair after the caller inserted edge `(u, v)`.
    fn commit_insert_edge(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        hint: RepairHint,
    ) -> AffDelta;

    /// Repair after the caller deleted edge `(u, v)`.
    fn commit_delete_edge(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        hint: RepairHint,
    ) -> AffDelta;

    /// Register the freshly inserted (isolated) node `id`: grow the slot
    /// space. An isolated newcomer changes no existing distance, so the
    /// delta is empty.
    fn commit_insert_node(&mut self, graph: &DataGraph, id: NodeId, hint: RepairHint) -> AffDelta;

    /// Repair after the caller deleted node `id` (tombstone its slot).
    /// Commit directly after that [`DataGraph::remove_node`], with no other
    /// mutation of `graph` in between: the bounded-row backends read the
    /// node's in- and out-edges from [`DataGraph::last_removed`], which the
    /// next successful mutation clears, and panic if it does not name `id`.
    fn commit_delete_node(&mut self, graph: &DataGraph, id: NodeId, hint: RepairHint) -> AffDelta;

    /// Number of distance rows currently materialized.
    fn resident_rows(&self) -> usize;

    /// Approximate heap footprint of the distance storage, in bytes.
    /// Out-of-core backends report their *in-memory* share (cache + row
    /// directory), not the spill file.
    fn mem_bytes(&self) -> usize;

    /// Cumulative paging counters, for backends that spill to storage.
    /// In-memory backends return `None`.
    fn io_stats(&self) -> Option<IoStats> {
        None
    }
}

// ======================================================================
// Dense backend: the incremental n × n matrix, the `partitioned` kind.
// ======================================================================

impl SlenBackend for IncrementalIndex {
    fn kind(&self) -> &'static str {
        BackendKind::Partitioned.name()
    }

    fn build(graph: &DataGraph, _reqs: &SlenRequirements) -> Self {
        IncrementalIndex::build(graph)
    }

    fn rebuild(&mut self, graph: &DataGraph, _reqs: &SlenRequirements) {
        *self = IncrementalIndex::build(graph);
    }

    fn commit_insert_edge(
        &mut self,
        _graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        _hint: RepairHint,
    ) -> AffDelta {
        self.commit_insert_edge(u, v)
    }

    fn commit_delete_edge(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        _hint: RepairHint,
    ) -> AffDelta {
        self.commit_delete_edge(graph, u, v)
    }

    fn commit_insert_node(
        &mut self,
        graph: &DataGraph,
        _id: NodeId,
        _hint: RepairHint,
    ) -> AffDelta {
        self.commit_insert_node(graph.slot_count())
    }

    fn commit_delete_node(&mut self, graph: &DataGraph, id: NodeId, _hint: RepairHint) -> AffDelta {
        self.commit_delete_node(graph, id)
    }

    fn resident_rows(&self) -> usize {
        self.matrix().n()
    }

    fn mem_bytes(&self) -> usize {
        self.matrix().mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::apsp_matrix;
    use gpnm_graph::paper::fig1;
    use gpnm_graph::{Bound, PatternGraphBuilder};

    #[test]
    fn requirements_of_fig1_pattern() {
        let f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        // PM, SE, S, TE — four labels; max bound in the pattern is 4.
        assert_eq!(reqs.labels().len(), 4);
        assert_eq!(reqs.depth(), 4);
    }

    #[test]
    fn requirements_absorb_monotonically() {
        let f = fig1();
        let mut reqs = SlenRequirements::of_pattern(&f.pattern);
        reqs.absorb_bound(Bound::Hops(2));
        assert_eq!(reqs.depth(), 4, "smaller bounds never shrink depth");
        reqs.absorb_bound(Bound::Hops(9));
        assert_eq!(reqs.depth(), 9);
        reqs.absorb_bound(Bound::Unbounded);
        assert_eq!(reqs.depth(), INF);
        let db = f.interner.get("DB").unwrap();
        let before = reqs.labels().len();
        reqs.absorb_label(db);
        assert_eq!(reqs.labels().len(), before + 1);
        reqs.absorb_label(db);
        assert_eq!(reqs.labels().len(), before + 1, "labels dedupe");
    }

    #[test]
    fn covered_rows_counts_required_label_nodes() {
        let f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        // fig1 has 2 PMs, 2 SEs, 1 S, 2 TEs matching the pattern's four
        // labels; DB1 is the only node outside the requirement set.
        assert_eq!(reqs.covered_rows(&f.graph), f.graph.node_count() - 1);
        assert_eq!(SlenRequirements::empty().covered_rows(&f.graph), 0);
    }

    #[test]
    fn unbounded_pattern_requires_full_depth() {
        let f = fig1();
        let (p, _, _) = PatternGraphBuilder::new()
            .node("PM", "PM")
            .node("SE", "SE")
            .edge_unbounded("PM", "SE")
            .build_with_interner(f.interner.clone())
            .unwrap();
        assert_eq!(SlenRequirements::of_pattern(&p).depth(), INF);
    }

    #[test]
    fn dense_kind_name_parses_back_to_partitioned() {
        let f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let b = <IncrementalIndex as SlenBackend>::build(&f.graph, &reqs);
        assert_eq!(
            b.kind().parse::<BackendKind>(),
            Ok(BackendKind::Partitioned)
        );
    }

    #[test]
    fn dense_backend_round_trips_through_the_trait() {
        let mut f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let mut b = <IncrementalIndex as SlenBackend>::build(&f.graph, &reqs);
        f.graph.add_edge(f.se1, f.te2).unwrap();
        let delta =
            SlenBackend::commit_insert_edge(&mut b, &f.graph, f.se1, f.te2, RepairHint::Baseline);
        assert!(!delta.is_empty());
        assert_eq!(b.matrix(), &apsp_matrix(&f.graph));
        assert_eq!(b.resident_rows(), f.graph.slot_count());
    }

    #[test]
    fn dense_backend_accelerated_commits_stay_exact() {
        let mut f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let mut b = <IncrementalIndex as SlenBackend>::build(&f.graph, &reqs);
        f.graph.remove_edge(f.se1, f.se2).unwrap();
        SlenBackend::commit_delete_edge(&mut b, &f.graph, f.se1, f.se2, RepairHint::Accelerated);
        assert_eq!(b.matrix(), &apsp_matrix(&f.graph));
        f.graph.remove_node(f.db1).unwrap();
        SlenBackend::commit_delete_node(&mut b, &f.graph, f.db1, RepairHint::Accelerated);
        assert_eq!(b.matrix(), &apsp_matrix(&f.graph));
        // Both hints repair alike, so they interleave freely.
        f.graph.add_edge(f.se1, f.te2).unwrap();
        SlenBackend::commit_insert_edge(&mut b, &f.graph, f.se1, f.te2, RepairHint::Baseline);
        f.graph.remove_edge(f.se1, f.te2).unwrap();
        SlenBackend::commit_delete_edge(&mut b, &f.graph, f.se1, f.te2, RepairHint::Accelerated);
        assert_eq!(b.matrix(), &apsp_matrix(&f.graph));
    }
}
