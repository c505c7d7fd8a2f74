//! The sparse bounded-row `SLen` backend — candidate rows only, truncated
//! at the pattern's maximum finite bound.
//!
//! ## Why it is enough
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
//! (still candidate-sources-only).
//!
//! ## Representation and cost
//!
//! Each resident row is a sorted `(target, dist)` vector filled by a BFS
//! truncated at depth `B` over the shared [`CsrSnapshot`] (PR-2
//! machinery: a DER-II *probe* batch against an unmutated graph shares
//! one CSR build; commits mutate the graph, so each commit's first BFS
//! pays one in-place, allocation-reusing rebuild). Memory is `O(Σ_candidates |ball_B(x)|)`
//! instead of `O(n²)` — on a 100k-node power-law graph with a 6-node
//! pattern over 60 labels that is tens of MB instead of 40 GB, which is
//! what lets the `gpnm` binary run 100k+-node end-to-end experiments.
//!
//! ## Repair
//!
//! The PR-2 delta-proportional repair carries over in truncated form:
//!
//! * *Edge insert `(u, v)`*: only resident sources `x` with
//!   `d_B(x, u) + 1 < d_B(x, v)` can change (the dense triangle-inequality
//!   pruning, applied to the truncated function), and candidate targets
//!   come from one truncated BFS row of `v` (valid pre- *and* post-insert:
//!   a simple shortest path from `v` cannot use an edge *into* `v`).
//! * *Edge delete `(u, v)`*: only resident sources with
//!   `d_B(x, u) + 1 == d_B(x, v)` can lose a path; their rows are re-run by
//!   truncated BFS. A source whose `d(x, v)` exceeds `B` can only change
//!   beyond the truncation horizon — invisible to the engine by
//!   construction.
//! * *Node delete*: resident sources whose row reaches the node, plus the
//!   node's own row.
//!
//! Deltas are therefore the dense deltas *projected* onto resident sources
//! with distances `> B` mapped to ∞ — exactly the projection the matcher
//! observes, which is what the backend-equivalence proptest suite asserts
//! record-for-record against [`crate::IncrementalIndex`].

use gpnm_graph::{Bound, CsrGraph, CsrSnapshot, DataGraph, Label, NodeId, NodeSet};

use crate::aff::AffDelta;
use crate::backend::{RepairHint, SlenBackend, SlenRequirements};
use crate::oracle::DistanceOracle;
use crate::{sat_add, INF};

/// One resident row: `(target slot, distance)` sorted by slot. Shared with
/// the paged backend, whose on-disk rows are these vectors serialized.
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

/// Bounded-row sparse `SLen` index over candidate sources only.
///
/// [`DistanceOracle::distance`] answers [`INF`] for any pair outside the
/// resident projection — sound for every consumer in this workspace
/// because they all source distance queries at pattern-labeled nodes (see
/// the module docs), but *not* a general-purpose APSP oracle.
#[derive(Debug, Clone)]
pub struct SparseIndex {
    /// The covered requirement set (source labels + truncation depth) —
    /// the single source of truth for what is resident.
    reqs: SlenRequirements,
    /// Slot-indexed resident rows (`None` = not a candidate source).
    rows: Vec<Option<SparseRow>>,
    snapshot: CsrSnapshot,
    dist_buf: Vec<u32>,
    queue_buf: Vec<NodeId>,
}

impl SparseIndex {
    /// The truncation depth currently honored ([`INF`] = untruncated).
    pub fn depth(&self) -> u32 {
        self.reqs.depth()
    }

    /// The source labels currently materialized.
    pub fn labels(&self) -> &[Label] {
        self.reqs.labels()
    }

    /// Total `(target, dist)` entries across all resident rows.
    pub fn entry_count(&self) -> usize {
        self.rows.iter().flatten().map(|r| r.entries.len()).sum()
    }

    fn required(&self, label: Option<Label>) -> bool {
        label.is_some_and(|l| self.reqs.labels().binary_search(&l).is_ok())
    }

    #[inline]
    fn row(&self, u: NodeId) -> Option<&SparseRow> {
        self.rows.get(u.index()).and_then(|r| r.as_ref())
    }

    fn ensure_slots(&mut self, graph: &DataGraph) {
        let n = graph.slot_count();
        if self.rows.len() < n {
            self.rows.resize(n, None);
        }
        if self.dist_buf.len() < n {
            self.dist_buf.resize(n, INF);
        }
    }

    /// Recompute every row the requirement set implies, from scratch.
    fn materialize_all(&mut self, graph: &DataGraph) {
        self.ensure_slots(graph);
        let depth = self.reqs.depth();
        let Self {
            reqs,
            rows,
            snapshot,
            dist_buf,
            queue_buf,
            ..
        } = self;
        rows.iter_mut().for_each(|r| *r = None);
        let csr = snapshot.get(graph);
        for &label in reqs.labels() {
            for &x in graph.nodes_with_label(label) {
                rows[x.index()] = Some(bfs_truncated(
                    csr,
                    x,
                    depth,
                    Skip::Nothing,
                    dist_buf,
                    queue_buf,
                ));
            }
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
        let candidates: Vec<(usize, u32)> = self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let row = r.as_ref()?;
                let through = sat_add(row.get(u.0)?, 1);
                let within = through <= depth && through < row.get(v.0).unwrap_or(INF);
                within.then_some((i, through))
            })
            .collect();
        if candidates.is_empty() {
            return delta;
        }
        let Self {
            rows,
            snapshot,
            dist_buf,
            queue_buf,
            ..
        } = self;
        let csr = snapshot.get(graph);
        let vrow = bfs_truncated(csr, v, depth, Skip::Nothing, dist_buf, queue_buf);
        let mut updates: Vec<(u32, u32)> = Vec::new();
        for (i, through) in candidates {
            let row_slot = &mut rows[i];
            let row = row_slot.as_ref().expect("candidate is resident");
            let x = NodeId::from_index(i);
            updates.clear();
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
                row_slot
                    .as_mut()
                    .expect("resident row")
                    .apply_sorted_updates(&updates);
            }
        }
        delta
    }

    /// Resident sources whose shortest path to `v` may run through the
    /// edge `(u, v)` — the truncated delete-candidate test.
    fn delete_edge_candidates(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let row = r.as_ref()?;
                let dxu = row.get(u.0)?;
                let dxv = row.get(v.0)?;
                (sat_add(dxu, 1) == dxv).then(|| NodeId::from_index(i))
            })
            .collect()
    }

    fn delete_edge_delta(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        commit: bool,
    ) -> AffDelta {
        self.ensure_slots(graph);
        let candidates = self.delete_edge_candidates(u, v);
        let depth = self.reqs.depth();
        let Self {
            rows,
            snapshot,
            dist_buf,
            queue_buf,
            ..
        } = self;
        let csr = snapshot.get(graph);
        // Probe: the edge is still present, skip it. Commit: already gone.
        let skip = if commit {
            Skip::Nothing
        } else {
            Skip::Edge(u, v)
        };
        let mut delta = AffDelta::new();
        for x in candidates {
            let new_row = bfs_truncated(csr, x, depth, skip, dist_buf, queue_buf);
            diff_rows(
                x,
                rows[x.index()].as_ref().expect("candidate is resident"),
                &new_row,
                &mut delta,
            );
            if commit {
                rows[x.index()] = Some(new_row);
            }
        }
        delta
    }

    fn delete_node_delta(&mut self, graph: &DataGraph, id: NodeId, commit: bool) -> AffDelta {
        self.ensure_slots(graph);
        let sources: Vec<NodeId> = self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let row = r.as_ref()?;
                (i != id.index() && row.get(id.0).is_some()).then(|| NodeId::from_index(i))
            })
            .collect();
        let depth = self.reqs.depth();
        let Self {
            rows,
            snapshot,
            dist_buf,
            queue_buf,
            ..
        } = self;
        let mut delta = AffDelta::new();
        // The node's own row: every entry becomes INF.
        if let Some(row) = rows[id.index()].as_ref() {
            for &(y, d) in &row.entries {
                delta.record(id, NodeId(y), d, INF);
            }
            if commit {
                rows[id.index()] = None;
            }
        }
        let csr = snapshot.get(graph);
        let skip = if commit {
            Skip::Nothing
        } else {
            Skip::Node(id)
        };
        for x in sources {
            let new_row = bfs_truncated(csr, x, depth, skip, dist_buf, queue_buf);
            diff_rows(
                x,
                rows[x.index()].as_ref().expect("source is resident"),
                &new_row,
                &mut delta,
            );
            if commit {
                rows[x.index()] = Some(new_row);
            }
        }
        delta
    }
}

impl DistanceOracle for SparseIndex {
    #[inline]
    fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        self.row(u).and_then(|r| r.get(v.0)).unwrap_or(INF)
    }

    #[inline]
    fn any_within(&self, u: NodeId, set: &NodeSet, bound: Bound) -> bool {
        self.row(u).is_some_and(|r| r.any_within(set, bound))
    }
}

impl SlenBackend for SparseIndex {
    fn kind(&self) -> &'static str {
        "sparse"
    }

    fn build(graph: &DataGraph, reqs: &SlenRequirements) -> Self {
        let n = graph.slot_count();
        let mut index = SparseIndex {
            reqs: reqs.clone(),
            rows: vec![None; n],
            snapshot: CsrSnapshot::new(),
            dist_buf: vec![INF; n],
            queue_buf: Vec::new(),
        };
        index.materialize_all(graph);
        index
    }

    fn rebuild(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        // Absorb the widened requirements first: the single materialize
        // pass below then covers old and new coverage together.
        self.reqs.absorb(reqs);
        self.materialize_all(graph);
    }

    fn sync_requirements(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        self.ensure_slots(graph);
        let deeper = reqs.depth() > self.reqs.depth();
        let widened = reqs
            .labels()
            .iter()
            .any(|l| self.reqs.labels().binary_search(l).is_err());
        if !deeper && !widened {
            return;
        }
        self.reqs.absorb(reqs);
        let depth = self.reqs.depth();
        if deeper {
            // Every resident row was truncated too early: re-run them all
            // at the new horizon.
            let Self {
                rows,
                snapshot,
                dist_buf,
                queue_buf,
                ..
            } = self;
            let csr = snapshot.get(graph);
            for (i, row_slot) in rows.iter_mut().enumerate() {
                if row_slot.is_some() {
                    *row_slot = Some(bfs_truncated(
                        csr,
                        NodeId::from_index(i),
                        depth,
                        Skip::Nothing,
                        dist_buf,
                        queue_buf,
                    ));
                }
            }
        }
        if widened {
            // Materialize the newly required sources (existing rows are
            // already at the right depth).
            let Self {
                reqs,
                rows,
                snapshot,
                dist_buf,
                queue_buf,
                ..
            } = self;
            let csr = snapshot.get(graph);
            for &label in reqs.labels() {
                for &x in graph.nodes_with_label(label) {
                    if rows[x.index()].is_none() {
                        rows[x.index()] = Some(bfs_truncated(
                            csr,
                            x,
                            depth,
                            Skip::Nothing,
                            dist_buf,
                            queue_buf,
                        ));
                    }
                }
            }
        }
    }

    fn narrow_requirements(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        self.ensure_slots(graph);
        if self.reqs == *reqs {
            return;
        }
        let deeper = reqs.depth() > self.reqs.depth();
        let shallower = reqs.depth() < self.reqs.depth();
        self.reqs = reqs.clone();
        let depth = self.reqs.depth();
        let Self {
            reqs,
            rows,
            snapshot,
            dist_buf,
            queue_buf,
            ..
        } = self;
        let required =
            |label: Option<Label>| label.is_some_and(|l| reqs.labels().binary_search(&l).is_ok());
        // Drop rows whose source label left the requirement set. A shrunken
        // horizon needs no BFS: a depth-B truncated row is exactly the full
        // row filtered to `d ≤ B`, so retaining the near entries of a
        // deeper row *is* the shallower row.
        for (i, slot) in rows.iter_mut().enumerate() {
            let Some(row) = slot.as_mut() else { continue };
            if !required(graph.label(NodeId::from_index(i))) {
                *slot = None;
            } else if shallower {
                row.entries.retain(|&(_, d)| d <= depth);
            }
        }
        // A deeper horizon (or a label the old set lacked) needs fresh BFS.
        let mut todo: Vec<NodeId> = Vec::new();
        if deeper {
            todo.extend(
                rows.iter()
                    .enumerate()
                    .filter(|(_, r)| r.is_some())
                    .map(|(i, _)| NodeId::from_index(i)),
            );
        }
        for &label in reqs.labels() {
            for &x in graph.nodes_with_label(label) {
                if rows[x.index()].is_none() {
                    todo.push(x);
                }
            }
        }
        if !todo.is_empty() {
            let csr = snapshot.get(graph);
            for x in todo {
                rows[x.index()] = Some(bfs_truncated(
                    csr,
                    x,
                    depth,
                    Skip::Nothing,
                    dist_buf,
                    queue_buf,
                ));
            }
        }
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
        if self.required(graph.label(id)) {
            // An isolated newcomer's row is just itself at distance 0.
            self.rows[id.index()] = Some(SparseRow {
                entries: vec![(id.0, 0)],
            });
        }
        AffDelta::new()
    }

    fn commit_delete_node(&mut self, graph: &DataGraph, id: NodeId, _hint: RepairHint) -> AffDelta {
        debug_assert!(!graph.contains(id), "commit before graph mutation");
        self.delete_node_delta(graph, id, true)
    }

    fn resident_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }

    fn mem_bytes(&self) -> usize {
        // Capacity, not len: `apply_sorted_updates` and `retain` leave slack
        // in row vectors, and the slot vector itself over-allocates on
        // growth. `max_index_gb` admission and `LeastLoaded` placement
        // compare against the real allocation, not the live entry count.
        self.rows.capacity() * std::mem::size_of::<Option<SparseRow>>()
            + self
                .rows
                .iter()
                .flatten()
                .map(|r| r.entries.capacity())
                .sum::<usize>()
                * std::mem::size_of::<(u32, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::apsp_matrix;
    use crate::incremental::IncrementalIndex;
    use gpnm_graph::paper::fig1;

    fn fig1_sparse() -> (gpnm_graph::paper::Fig1, SparseIndex) {
        let f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let s = SparseIndex::build(&f.graph, &reqs);
        (f, s)
    }

    /// The truncated-projection equality every test leans on.
    fn assert_projection(s: &SparseIndex, graph: &DataGraph, dense: &crate::DistanceMatrix) {
        let n = graph.slot_count();
        for i in 0..n {
            let x = NodeId::from_index(i);
            if s.rows[i].is_none() {
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

    #[test]
    fn build_matches_truncated_dense() {
        let (f, s) = fig1_sparse();
        // All four pattern labels cover 7 of the 8 nodes (DB1 is not a
        // pattern label).
        assert_eq!(s.resident_rows(), 7);
        assert_eq!(s.depth(), 4);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
        assert_eq!(s.distance(f.db1, f.se1), INF, "non-resident row reads INF");
    }

    #[test]
    fn commits_track_dense_through_a_mixed_sequence() {
        let (mut f, mut s) = fig1_sparse();
        let mut dense = IncrementalIndex::build(&f.graph);

        f.graph.add_edge(f.se1, f.te2).unwrap();
        dense.commit_insert_edge(f.se1, f.te2);
        SlenBackend::commit_insert_edge(&mut s, &f.graph, f.se1, f.te2, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());

        f.graph.remove_edge(f.pm1, f.db1).unwrap();
        dense.commit_delete_edge(&f.graph, f.pm1, f.db1);
        SlenBackend::commit_delete_edge(&mut s, &f.graph, f.pm1, f.db1, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());

        let label = f.interner.get("TE").unwrap();
        let id = f.graph.add_node(label);
        dense.commit_insert_node(f.graph.slot_count());
        SlenBackend::commit_insert_node(&mut s, &f.graph, id, RepairHint::Baseline);
        assert_eq!(s.distance(id, id), 0, "required newcomer is resident");

        f.graph.add_edge(f.s1, id).unwrap();
        dense.commit_insert_edge(f.s1, id);
        SlenBackend::commit_insert_edge(&mut s, &f.graph, f.s1, id, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());

        f.graph.remove_node(f.se1).unwrap();
        dense.commit_delete_node(&f.graph, f.se1);
        SlenBackend::commit_delete_node(&mut s, &f.graph, f.se1, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());
        assert_eq!(s.distance(f.se1, f.se2), INF, "tombstone row dropped");
    }

    #[test]
    fn probe_equals_commit_delta() {
        let (mut f, mut s) = fig1_sparse();
        let probe = SlenBackend::probe_insert_edge(&mut s, &f.graph, f.se1, f.te2);
        f.graph.add_edge(f.se1, f.te2).unwrap();
        let commit =
            SlenBackend::commit_insert_edge(&mut s, &f.graph, f.se1, f.te2, RepairHint::Baseline);
        assert_eq!(probe.changed, commit.changed);

        let probe = SlenBackend::probe_delete_edge(&mut s, &f.graph, f.se1, f.s1);
        f.graph.remove_edge(f.se1, f.s1).unwrap();
        let commit =
            SlenBackend::commit_delete_edge(&mut s, &f.graph, f.se1, f.s1, RepairHint::Baseline);
        let (mut p, mut c) = (probe.changed.clone(), commit.changed.clone());
        p.sort_unstable();
        c.sort_unstable();
        assert_eq!(p, c);

        let probe = SlenBackend::probe_delete_node(&mut s, &f.graph, f.s1);
        f.graph.remove_node(f.s1).unwrap();
        let commit = SlenBackend::commit_delete_node(&mut s, &f.graph, f.s1, RepairHint::Baseline);
        let (mut p, mut c) = (probe.changed.clone(), commit.changed.clone());
        p.sort_unstable();
        c.sort_unstable();
        assert_eq!(p, c);
    }

    #[test]
    fn sync_requirements_deepens_and_widens() {
        let (f, mut s) = fig1_sparse();
        assert_eq!(s.resident_rows(), 7);
        let mut reqs = SlenRequirements::of_pattern(&f.pattern);
        // Widen: DB becomes a pattern label; deepen: a bound of 6 arrives.
        reqs.absorb_label(f.interner.get("DB").unwrap());
        reqs.absorb_bound(gpnm_graph::Bound::Hops(6));
        s.sync_requirements(&f.graph, &reqs);
        assert_eq!(s.resident_rows(), 8);
        assert_eq!(s.depth(), 6);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
        // Narrower requirements are a no-op (coverage is monotone).
        let narrow = SlenRequirements::of_pattern(&f.pattern);
        s.sync_requirements(&f.graph, &narrow);
        assert_eq!(s.resident_rows(), 8);
        assert_eq!(s.depth(), 6);
    }

    #[test]
    fn narrow_requirements_matches_a_fresh_build() {
        let (f, mut s) = fig1_sparse();
        // Widen first: DB becomes a source label, the horizon deepens to 6.
        let mut wide = SlenRequirements::of_pattern(&f.pattern);
        wide.absorb_label(f.interner.get("DB").unwrap());
        wide.absorb_bound(gpnm_graph::Bound::Hops(6));
        s.sync_requirements(&f.graph, &wide);
        assert_eq!(s.resident_rows(), 8);
        assert_eq!(s.depth(), 6);
        // Narrow back to the bare pattern: rows drop, entries re-truncate,
        // and the result is indistinguishable from building fresh.
        let narrow = SlenRequirements::of_pattern(&f.pattern);
        s.narrow_requirements(&f.graph, &narrow);
        let fresh = SparseIndex::build(&f.graph, &narrow);
        assert_eq!(s.resident_rows(), fresh.resident_rows());
        assert_eq!(s.depth(), fresh.depth());
        assert_eq!(s.entry_count(), fresh.entry_count());
        let n = f.graph.slot_count();
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (NodeId::from_index(i), NodeId::from_index(j));
                assert_eq!(s.distance(x, y), fresh.distance(x, y), "d({x:?},{y:?})");
            }
        }
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
    }

    #[test]
    fn narrow_requirements_can_widen_too() {
        // "Narrow" re-targets: a requirement set that is wider on one axis
        // and absent on another still lands exactly.
        let (f, mut s) = fig1_sparse();
        let mut only_db = SlenRequirements::empty();
        only_db.absorb_label(f.interner.get("DB").unwrap());
        only_db.absorb_bound(gpnm_graph::Bound::Hops(6));
        s.narrow_requirements(&f.graph, &only_db);
        assert_eq!(s.resident_rows(), 1, "only DB1's row survives");
        assert_eq!(s.depth(), 6);
        let fresh = SparseIndex::build(&f.graph, &only_db);
        assert_eq!(s.entry_count(), fresh.entry_count());
        assert_eq!(s.distance(f.db1, f.se2), fresh.distance(f.db1, f.se2));
    }

    #[test]
    fn unbounded_requirements_store_full_rows() {
        let f = fig1();
        let mut reqs = SlenRequirements::of_pattern(&f.pattern);
        reqs.absorb_bound(gpnm_graph::Bound::Unbounded);
        let s = SparseIndex::build(&f.graph, &reqs);
        assert_eq!(s.depth(), INF);
        let dense = apsp_matrix(&f.graph);
        assert_projection(&s, &f.graph, &dense);
        // PM1 reaches TE1 in 5 hops — beyond the bounded pattern's horizon
        // of 4, but a full row must resolve it.
        assert_eq!(s.distance(f.pm2, f.te1), dense.get(f.pm2, f.te1));
    }
}
