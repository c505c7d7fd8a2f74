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
//! * [`crate::SparseIndex`] — bounded rows for edge *sources* only (nodes
//!   whose label some pattern edge leaves), each truncated at the deepest
//!   bound on those edges, its last level holding only the targets some
//!   of those edges read there. Memory proportional to source rows ×
//!   nodes within their bounds, which is what unlocks 100k+-node graphs.
//!   [`crate::PagedIndex`] is the same index ([`crate::BoundedRows`]) with
//!   its rows in a spill file behind a hot-row cache.
//!
//! What a backend must cover is captured by [`SlenRequirements`]: the
//! matcher only ever asks for distances *from* nodes matching a pattern
//! edge's source *to* nodes labelled like its target, and only compares
//! them against that edge's bound, so a backend may restrict itself to
//! that projection ([`project_delta`] states it record by record). Dense
//! backends ignore requirements (they cover everything); the bounded
//! backends materialize exactly the requirement set and
//! [`SlenBackend::sync_requirements`] grows it when a batch's pattern
//! updates widen the pattern.

use gpnm_graph::{Bound, DataGraph, Label, LabelInterner, NodeId, PatternGraph};

use crate::aff::AffDelta;
use crate::incremental::IncrementalIndex;
use crate::kind::BackendKind;
use crate::oracle::DistanceOracle;
use crate::INF;

/// What the pattern (plus any pending pattern updates) requires of the
/// `SLen` index: which nodes are distance sources, how deep each one's row
/// must resolve — its *horizon* — and which targets it keeps there.
///
/// The matcher's `within(v, v', b)` checks always originate at a node `v`
/// matching the source `u` of a pattern edge `(u, u', b)`, with `v'`
/// labelled like `u'`. So a label gets rows only if some pattern edge
/// leaves a node with that label, and its horizon is the deepest bound on
/// those edges — [`INF`] for a `*` edge, which needs full reachability
/// rows. A distance beyond a source's horizon is indistinguishable from ∞
/// for every bound its edges carry. At the horizon itself, only the
/// targets of the edges that reach it are read: a row keeps `y` at
/// distance `h` only if `label(y)` is one of them (its *kept labels*), and
/// every target nearer than `h`. A full-row (`*`) horizon has no last
/// level, so it keeps every label and lists none. A backend honoring a
/// requirement set is therefore exact *for the projection the engine
/// observes* even if it stores nothing else.
///
/// The form is canonical per source label — `(horizon, kept labels)` —
/// so two sets that answer every [`SlenRequirements::keeps`] alike compare
/// equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlenRequirements {
    /// One entry per source label, sorted by label.
    sources: Vec<Source>,
}

/// One source label's requirement: its horizon and, for a finite one, the
/// target labels kept at it, ascending and distinct. The bounded rows index
/// these by label, one lookup per row they touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Source {
    pub(crate) label: Label,
    pub(crate) horizon: u32,
    pub(crate) kept: Vec<Label>,
}

impl Source {
    /// Whether a row of this label keeps a `to` target at distance `d`:
    /// inside the horizon, or on it with `to` kept.
    #[inline]
    pub(crate) fn keeps(&self, to: Label, d: u32) -> bool {
        d < self.horizon || d == self.horizon && self.kept.binary_search(&to).is_ok()
    }

    /// [`Source::keeps`] for target node `y` of `graph`, which reads `y`'s
    /// label only when `d` is the horizon (a tombstone is kept nowhere).
    #[inline]
    pub(crate) fn keeps_node(&self, graph: &DataGraph, y: NodeId, d: u32) -> bool {
        d < self.horizon || d == self.horizon && graph.label(y).is_some_and(|l| self.keeps(l, d))
    }
}

impl SlenRequirements {
    /// The empty requirement set: no source labels. The natural starting
    /// point for a union that [`SlenRequirements::absorb`]s one pattern at
    /// a time (the multi-pattern service's register path).
    pub fn empty() -> Self {
        SlenRequirements {
            sources: Vec::new(),
        }
    }

    /// Requirements of `pattern` as it stands: one
    /// [`SlenRequirements::absorb_edge`] per edge, at its endpoints' labels.
    pub fn of_pattern(pattern: &PatternGraph) -> Self {
        let mut reqs = SlenRequirements::empty();
        for e in pattern.edges() {
            if let (Some(from), Some(to)) = (pattern.label(e.from), pattern.label(e.to)) {
                reqs.absorb_edge(from, to, e.bound);
            }
        }
        reqs
    }

    /// Widen to also resolve `bound` from every node labeled `from` to
    /// every node labeled `to` (a pattern edge between nodes with those
    /// labels). An edge deeper than `from`'s horizon resets its kept
    /// labels to `to`; one at the horizon adds `to`; a shallower one
    /// changes nothing.
    pub fn absorb_edge(&mut self, from: Label, to: Label, bound: Bound) {
        let horizon = match bound {
            Bound::Hops(k) => k,
            Bound::Unbounded => INF,
        };
        let kept = if horizon == INF { Vec::new() } else { vec![to] };
        self.absorb_source(Source {
            label: from,
            horizon,
            kept,
        });
    }

    fn absorb_source(&mut self, other: Source) {
        let at = self.sources.binary_search_by_key(&other.label, |s| s.label);
        let mine = match at {
            Ok(i) => &mut self.sources[i],
            Err(i) => return self.sources.insert(i, other),
        };
        if other.horizon > mine.horizon {
            *mine = other;
        } else if other.horizon == mine.horizon {
            mine.kept.extend(other.kept);
            mine.kept.sort_unstable();
            mine.kept.dedup();
        }
    }

    /// Widen to the union with `other`: per label, the deeper horizon, and
    /// at equal horizons both kept sets.
    pub fn absorb(&mut self, other: &SlenRequirements) {
        for source in &other.sources {
            self.absorb_source(source.clone());
        }
    }

    /// The source labels, ascending.
    pub fn labels(&self) -> impl ExactSizeIterator<Item = Label> + '_ {
        self.sources.iter().map(|s| s.label)
    }

    /// The per-label requirements, ascending by label.
    pub(crate) fn sources(&self) -> &[Source] {
        &self.sources
    }

    fn source(&self, label: Label) -> Option<&Source> {
        let at = self.sources.binary_search_by_key(&label, |s| s.label);
        at.ok().map(|i| &self.sources[i])
    }

    /// How deep rows of `label`'s nodes resolve ([`INF`] = full rows);
    /// `None` when `label` is no source.
    pub fn horizon(&self, label: Label) -> Option<u32> {
        self.source(label).map(|s| s.horizon)
    }

    /// The target labels rows of `label`'s nodes keep at their horizon,
    /// ascending: empty when `label` is no source, and for a full-row
    /// horizon, which has no last level to cut.
    pub fn kept(&self, label: Label) -> &[Label] {
        self.source(label).map_or(&[], |s| &s.kept)
    }

    /// Whether a row of a `from` node keeps a `to` target at distance `d`:
    /// `from` is a source and `d` lies inside its horizon, or on it with
    /// `to` kept.
    pub fn keeps(&self, from: Label, to: Label, d: u32) -> bool {
        self.source(from).is_some_and(|s| s.keeps(to, d))
    }

    /// The map as `{name:horizon[kept, …], …}`, label names from `names`
    /// and `*` for a full-row horizon — the form reports print, e.g.
    /// `{L3:3[L8,L20], L10:1[L11], L5:*}`.
    pub fn render(&self, names: &LabelInterner) -> String {
        let entries: Vec<String> = self
            .sources
            .iter()
            .map(|s| {
                let name = names.name_or_placeholder(s.label);
                if s.horizon == INF {
                    return format!("{name}:*");
                }
                let kept: Vec<_> = s
                    .kept
                    .iter()
                    .map(|&l| names.name_or_placeholder(l))
                    .collect();
                format!("{name}:{}[{}]", s.horizon, kept.join(","))
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }
}

/// Project a dense [`AffDelta`] onto a bounded backend's observable
/// slice: keep the records a row of `reqs` keeps on either side —
/// [`SlenRequirements::keeps`] at the labels `label` gives source and
/// target — read every other distance as [`INF`], and drop records that
/// turns into no-ops. This *is* the bounded backends' delta contract —
/// the equivalence proptests assert `sparse.changed == project_delta(dense,
/// reqs, label)` record for record. `label` must give the labels at the
/// time the delta was produced (for a node-deletion commit: *before* the
/// node left the graph).
pub fn project_delta<F: Fn(NodeId) -> Option<Label>>(
    delta: &AffDelta,
    reqs: &SlenRequirements,
    label: F,
) -> Vec<(NodeId, NodeId, u32, u32)> {
    delta
        .changed
        .iter()
        .filter_map(|&(x, y, old, new)| {
            let (from, to) = (label(x)?, label(y)?);
            let clamp = |d: u32| if reqs.keeps(from, to, d) { d } else { INF };
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
/// changes, on one thread: a node delete's rows are the one dense repair
/// large enough to split, and the split measured gains no median query
/// (the crate docs' rejected alternatives). The engine and the service
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
        // Edges leave PM (bound 3 to SE and to S) and SE (bound 4 to TE);
        // S and TE are sinks and need no rows.
        let [pm, se, s, te] = ["PM", "SE", "S", "TE"].map(|l| f.interner.get(l).unwrap());
        assert_eq!(reqs.labels().collect::<Vec<_>>(), {
            let mut sources = vec![pm, se];
            sources.sort_unstable();
            sources
        });
        assert_eq!(reqs.horizon(pm), Some(3));
        assert_eq!(reqs.horizon(se), Some(4));
        assert_eq!((reqs.horizon(s), reqs.horizon(te)), (None, None));
        assert_eq!(reqs.kept(pm), {
            let mut kept = vec![se, s];
            kept.sort_unstable();
            kept
        });
        assert_eq!(reqs.kept(se), [te]);
        assert_eq!(deepest(&reqs), Some(4));
        // Below the horizon every target is kept; at it, only the kept ones.
        assert!(reqs.keeps(pm, te, 2) && reqs.keeps(pm, s, 3));
        assert!(!reqs.keeps(pm, te, 3) && !reqs.keeps(pm, se, 4));
        assert!(!reqs.keeps(te, pm, 0), "a sink keeps nothing");
        let mut shown = reqs.clone();
        shown.absorb_edge(te, pm, Bound::Unbounded);
        assert_eq!(shown.render(&f.interner), "{PM:3[SE,S], SE:4[TE], TE:*}");
        assert_eq!(SlenRequirements::empty().render(&f.interner), "{}");
    }

    #[test]
    fn requirements_absorb_monotonically() {
        let f = fig1();
        let [pm, se, s, te, db] = ["PM", "SE", "S", "TE", "DB"].map(|l| f.interner.get(l).unwrap());
        let mut reqs = SlenRequirements::of_pattern(&f.pattern);
        reqs.absorb_edge(pm, db, Bound::Hops(2));
        assert_eq!(reqs.horizon(pm), Some(3), "a smaller bound never shrinks");
        assert!(!reqs.keeps(pm, db, 3), "nor adds a kept label");
        reqs.absorb_edge(pm, db, Bound::Hops(3));
        assert!(
            reqs.keeps(pm, db, 3),
            "an edge at the horizon adds its target"
        );
        reqs.absorb_edge(pm, te, Bound::Hops(9));
        assert_eq!(reqs.horizon(pm), Some(9));
        assert_eq!(reqs.kept(pm), [te], "a deeper edge resets the kept labels");
        assert_eq!(reqs.horizon(se), Some(4), "other labels keep theirs");
        assert_eq!(deepest(&reqs), Some(9));
        let before = reqs.labels().len();
        reqs.absorb_edge(db, s, Bound::Hops(1));
        assert_eq!(reqs.labels().len(), before + 1);
        reqs.absorb_edge(db, s, Bound::Hops(1));
        assert_eq!(reqs.labels().len(), before + 1, "labels dedupe");
        assert_eq!(reqs.kept(db), [s], "and so do kept labels");
        reqs.absorb_edge(db, s, Bound::Unbounded);
        assert_eq!((reqs.horizon(db), deepest(&reqs)), (Some(INF), Some(INF)));
        assert_eq!(reqs.kept(db), [] as [Label; 0], "a full row lists none");
        assert!(reqs.keeps(db, pm, 1_000), "and keeps every label");
        // The union takes the deeper horizon per label, and both kept sets
        // at an equal one.
        let mut union = SlenRequirements::empty();
        union.absorb_edge(se, pm, Bound::Hops(7));
        union.absorb_edge(pm, se, Bound::Hops(9));
        union.absorb(&reqs);
        assert_eq!((union.horizon(se), union.kept(se)), (Some(7), &[pm][..]));
        assert_eq!(union.horizon(pm), Some(9));
        let mut both = vec![se, te];
        both.sort_unstable();
        assert_eq!(union.kept(pm), both);
        // Edge by edge or set by set, the same canonical form.
        let mut by_edge = SlenRequirements::empty();
        for (from, to, b) in [
            (pm, se, 9),
            (se, pm, 7),
            (pm, te, 9),
            (pm, s, 2),
            (se, te, 4),
        ] {
            by_edge.absorb_edge(from, to, Bound::Hops(b));
        }
        let mut by_set = SlenRequirements::empty();
        by_set.absorb(&reqs_of(&[(se, te, 4), (pm, te, 9)]));
        by_set.absorb(&reqs_of(&[(pm, s, 2), (se, pm, 7), (pm, se, 9)]));
        assert_eq!(by_edge, by_set);
        assert_eq!(deepest(&SlenRequirements::empty()), None);
    }

    /// The deepest horizon of any source label; `None` with none.
    fn deepest(reqs: &SlenRequirements) -> Option<u32> {
        reqs.labels().filter_map(|l| reqs.horizon(l)).max()
    }

    fn reqs_of(edges: &[(Label, Label, u32)]) -> SlenRequirements {
        let mut reqs = SlenRequirements::empty();
        for &(from, to, b) in edges {
            reqs.absorb_edge(from, to, Bound::Hops(b));
        }
        reqs
    }

    #[test]
    fn projection_clamps_each_source_at_its_own_horizon() {
        let mut delta = AffDelta::new();
        let [x, y, z, w] = [0, 1, 2, 3].map(NodeId);
        let [lx, ly, lz, lw] = [0, 1, 2, 3].map(Label);
        let reqs = reqs_of(&[(lx, lw, 2), (ly, lz, 4)]);
        delta.record(x, y, 3, 1); // x's horizon 2: INF -> 1
        delta.record(x, z, 4, 3); // beyond x's horizon either way: dropped
        delta.record(x, y, 1, 2); // y is not kept at x's horizon: 1 -> INF
        delta.record(x, w, 1, 2); // w is: kept as is
        delta.record(y, z, 4, 3); // y's horizon 4: kept as is
        delta.record(z, x, 1, 2); // z has no row: dropped
        let label = |n: NodeId| Some(Label(n.0));
        assert_eq!(
            project_delta(&delta, &reqs, label),
            [(x, y, INF, 1), (x, y, 1, INF), (x, w, 1, 2), (y, z, 4, 3)]
        );
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
        assert_eq!(deepest(&SlenRequirements::of_pattern(&p)), Some(INF));
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
