//! Incremental maintenance of the `SLen` matrix under single updates.
//!
//! This is the machinery behind the paper's Algorithm 2 step 1 ("apply the
//! Dijkstra's algorithm for updating the shortest path lengths between the
//! affected nodes") and behind DER-II's per-update `Aff_N` sets. One mode:
//! a **commit** applies the update to the matrix (the graph is mutated by
//! the caller first) and returns the [`AffDelta`] between the matrix
//! before and after — the `AFF` pairs and `Aff_N` of that update. To
//! evaluate an update against the *original* `SLen`, as paper Example 8
//! does for each `UDi ∈ ΔGD` independently, commit it on a clone.
//!
//! Correctness notes (tested against from-scratch APSP):
//!
//! * *Edge insert `(u,v)`*: a shortest path in `G+e` uses `e` at most once
//!   (shortest paths are simple), so
//!   `d'(x,y) = min(d(x,y), d(x,u) + 1 + d(v,y))` over *old* distances.
//! * *Edge delete `(u,v)`*: only sources `x` with `d(x,u) + 1 == d(x,v)`
//!   can lose a shortest path through `e`; their rows are recomputed by
//!   BFS. Everyone else's row is provably unchanged.
//! * *Node insert*: an isolated node changes no existing distance.
//! * *Node delete*: only sources that could reach the node are affected;
//!   their rows are recomputed with the node masked out, and the node's own
//!   row/column go to [`crate::INF`].
//!
//! Cost model (the paper's premise that repair cost scales with the
//! *delta*, not the graph):
//!
//! * Insert commits iterate **affected sources × finite targets** instead
//!   of all `n²` pairs: only `x` with `d(x,u) + 1 < d(x,v)` can change any
//!   entry (take `y = v`; for every other `y` the triangle inequality gives
//!   `d(x,u) + 1 + d(v,y) ≥ d(x,v) + d(v,y) ≥ d(x,y)`), and only `y` with
//!   `d(v,y)` finite can produce a finite candidate.
//! * Delete commits run BFS over a generation-stamped [`CsrSnapshot`]
//!   instead of building a fresh [`CsrGraph`] per call: the snapshot
//!   rebuilds *in place* when the graph's version moves, reusing the
//!   allocation.

use gpnm_graph::{CsrGraph, CsrSnapshot, DataGraph, NodeId};

use crate::aff::AffDelta;
use crate::apsp::{apsp_matrix, bfs_row};
use crate::matrix::DistanceMatrix;
use crate::oracle::DistanceOracle;
use crate::{sat_add, INF};

/// Owns the `SLen` matrix and repairs it update by update.
#[derive(Debug, Clone)]
pub struct IncrementalIndex {
    matrix: DistanceMatrix,
    // Scratch reused across repairs to keep the hot path allocation-free.
    row_buf: Vec<u32>,
    queue_buf: Vec<NodeId>,
    /// Affected sources of an insert: `x` with `d(x,u) + 1 < d(x,v)`.
    src_buf: Vec<NodeId>,
    /// Finite `(target, d(v, target))` pairs of the inserted edge's head.
    tgt_buf: Vec<(u32, u32)>,
    /// Cached CSR view for delete repair; rebuilt only when the graph's
    /// version moves.
    snapshot: CsrSnapshot,
}

impl IncrementalIndex {
    /// Build the index from scratch (per-source BFS APSP).
    pub fn build(graph: &DataGraph) -> Self {
        let matrix = apsp_matrix(graph);
        let n = matrix.n();
        IncrementalIndex {
            matrix,
            row_buf: vec![INF; n],
            queue_buf: Vec::with_capacity(n),
            src_buf: Vec::new(),
            tgt_buf: Vec::new(),
            snapshot: CsrSnapshot::new(),
        }
    }

    /// The current matrix.
    #[inline]
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.matrix
    }

    /// The cached CSR view of `graph` (rebuilt only if stale) — the same
    /// snapshot the delete commits use. The pooled deletion repair drives
    /// its own row recomputation and shares it through this accessor
    /// instead of materializing a second CSR of the same graph.
    pub(crate) fn csr(&mut self, graph: &DataGraph) -> &CsrGraph {
        self.snapshot.get(graph)
    }

    /// Split-borrow the delete-repair working set: the cached CSR of
    /// `graph` alongside the matrix and the BFS scratch buffers.
    #[allow(clippy::type_complexity)]
    fn delete_repair_parts(
        &mut self,
        graph: &DataGraph,
    ) -> (
        &CsrGraph,
        &mut DistanceMatrix,
        &mut Vec<u32>,
        &mut Vec<NodeId>,
    ) {
        let Self {
            snapshot,
            matrix,
            row_buf,
            queue_buf,
            ..
        } = self;
        (snapshot.get(graph), matrix, row_buf, queue_buf)
    }

    // ==================================================================
    // Commits (mutate the matrix; the caller has already mutated the graph)
    // ==================================================================

    /// Apply an edge insertion `(u, v)` to the matrix.
    ///
    /// Prunes to affected sources × finite targets (see the module docs):
    /// on sparse graphs the scanned pair count is proportional to the
    /// update's actual blast radius, not `n²`. The pruning stays valid
    /// while rows mutate: `d(x,u)` can never shrink through `(u,v)` (that
    /// path revisits `u`), row `v` can never shrink (revisits `v`), and a
    /// source outside the set has its row untouched, so its membership test
    /// never changes.
    pub fn commit_insert_edge(&mut self, u: NodeId, v: NodeId) -> AffDelta {
        let mut delta = AffDelta::new();
        self.collect_insert_affected(u, v);
        for &x_id in &self.src_buf {
            let through = sat_add(self.matrix.get(x_id, u), 1);
            let xrow = self.matrix.row_mut(x_id);
            for &(y, dvy) in &self.tgt_buf {
                let cand = sat_add(through, dvy);
                if cand < xrow[y as usize] {
                    delta.record(x_id, NodeId(y), xrow[y as usize], cand);
                    xrow[y as usize] = cand;
                }
            }
        }
        delta
    }

    /// Apply an edge deletion to the matrix. `graph` is the *post-delete*
    /// graph (the edge is already gone). BFS runs over the cached CSR
    /// snapshot, which rebuilds in place (no per-commit allocation).
    pub fn commit_delete_edge(&mut self, graph: &DataGraph, u: NodeId, v: NodeId) -> AffDelta {
        debug_assert!(
            !graph.has_edge(u, v),
            "commit_delete_edge before graph mutation"
        );
        let candidates = self.delete_candidates(u, v);
        let (csr, matrix, row_buf, queue_buf) = self.delete_repair_parts(graph);
        let mut delta = AffDelta::new();
        for x in candidates {
            bfs_row(csr, x, row_buf, queue_buf);
            diff_row(matrix, x, row_buf, &mut delta);
            matrix.set_row(x, row_buf);
        }
        delta
    }

    /// Register a node insertion: grow the matrix to cover the new slot.
    /// An isolated node changes no existing distance, so the delta is empty.
    pub fn commit_insert_node(&mut self, new_slot_count: usize) -> AffDelta {
        self.matrix.grow(new_slot_count);
        let n = self.matrix.n();
        self.row_buf.resize(n, INF);
        AffDelta::new()
    }

    /// Apply a node deletion. `graph` is the post-delete graph.
    pub fn commit_delete_node(&mut self, graph: &DataGraph, id: NodeId) -> AffDelta {
        debug_assert!(
            !graph.contains(id),
            "commit_delete_node before graph mutation"
        );
        let sources = self.delete_node_candidates(id);
        let mut delta = AffDelta::new();
        self.clear_slot(id, &mut delta);
        let (csr, matrix, row_buf, queue_buf) = self.delete_repair_parts(graph);
        for x in sources {
            // The graph no longer contains `id`, so a plain BFS suffices.
            bfs_row(csr, x, row_buf, queue_buf);
            diff_row(matrix, x, row_buf, &mut delta);
            matrix.set_row(x, row_buf);
        }
        delta
    }

    /// Fill `src_buf` with the insert-affected sources of `(u, v)` — the
    /// `x` with `d(x,u) + 1 < d(x,v)` (module docs prove no other source
    /// can change) — and `tgt_buf` with the finite `(y, d(v,y))` targets.
    /// Both in ascending slot order, so the pruned loop records changes in
    /// exactly the order of an all-pairs scan.
    fn collect_insert_affected(&mut self, u: NodeId, v: NodeId) {
        let n = self.matrix.n();
        self.tgt_buf.clear();
        for (y, &dvy) in self.matrix.row(v).iter().enumerate() {
            if dvy != INF {
                self.tgt_buf.push((y as u32, dvy));
            }
        }
        self.src_buf.clear();
        if self.tgt_buf.is_empty() {
            return; // v unreachable-from (tombstone): nothing can improve
        }
        for x in 0..n {
            let x_id = NodeId::from_index(x);
            let dxu = self.matrix.get(x_id, u);
            if dxu != INF && sat_add(dxu, 1) < self.matrix.get(x_id, v) {
                self.src_buf.push(x_id);
            }
        }
    }

    /// Sources whose shortest path to `v` may run through the edge
    /// `(u, v)`: exactly those with `d(x,u) + 1 == d(x,v)`. Crate-visible
    /// so the partitioned backend, which recomputes the rows on the worker
    /// pool, can drive the repair itself.
    pub(crate) fn delete_candidates(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let n = self.matrix.n();
        (0..n)
            .map(NodeId::from_index)
            .filter(|&x| {
                let dxu = self.matrix.get(x, u);
                dxu != INF && sat_add(dxu, 1) == self.matrix.get(x, v)
            })
            .collect()
    }

    /// Sources that could reach `id` (candidates for node-deletion repair),
    /// excluding `id` itself.
    pub(crate) fn delete_node_candidates(&self, id: NodeId) -> Vec<NodeId> {
        let n = self.matrix.n();
        (0..n)
            .map(NodeId::from_index)
            .filter(|&x| x != id && self.matrix.get(x, id) != INF)
            .collect()
    }

    /// Replace the row of `x` with `new_row`, recording every change into
    /// `delta`. Used by the partitioned backend, which recomputes deletion
    /// rows on the worker pool instead of with this index's serial BFS;
    /// applied in source order, the rows record what the serial loop does.
    pub(crate) fn apply_row(&mut self, x: NodeId, new_row: &[u32], delta: &mut AffDelta) {
        diff_row(&self.matrix, x, new_row, delta);
        self.matrix.set_row(x, new_row);
    }

    /// First step of a node-deletion repair, on the serial and the pooled
    /// path alike: record the deleted node's finite row entries as
    /// vanishing, then clear the row. The column clears as the sources'
    /// rows are applied — every `x` with a finite `d(x, id)` is a source,
    /// and its post-delete row has [`INF`] at `id` — so the delta lists
    /// `id`'s row first and each `(x, id)` inside `x`'s row diff.
    pub(crate) fn clear_slot(&mut self, id: NodeId, delta: &mut AffDelta) {
        let row = self.matrix.row_mut(id);
        for (y, d) in row.iter_mut().enumerate() {
            if *d != INF {
                delta.record(id, NodeId::from_index(y), *d, INF);
                *d = INF;
            }
        }
    }
}

impl DistanceOracle for IncrementalIndex {
    #[inline(always)]
    fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        self.matrix.get(u, v)
    }
}

/// Record every difference between `matrix`'s row of `x` and `new_row`.
fn diff_row(matrix: &DistanceMatrix, x: NodeId, new_row: &[u32], delta: &mut AffDelta) {
    let old_row = matrix.row(x);
    for (y, (&old, &new)) in old_row.iter().zip(new_row.iter()).enumerate() {
        if old != new {
            delta.record(x, NodeId::from_index(y), old, new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_graph::paper::{fig1, TABLE_V, TABLE_VI};

    fn assert_matches_table(matrix: &DistanceMatrix, table: &[[u32; 8]; 8], what: &str) {
        for (i, row) in table.iter().enumerate() {
            for (j, &expected) in row.iter().enumerate() {
                assert_eq!(
                    matrix.get(NodeId::from_index(i), NodeId::from_index(j)),
                    expected,
                    "{what}[{i}][{j}]"
                );
            }
        }
    }

    #[test]
    fn table_v_golden_ud1_insert() {
        // UD1: insert e(SE1, TE2) — paper Example 8, Table V.
        let mut f = fig1();
        let mut idx = IncrementalIndex::build(&f.graph);
        f.graph.add_edge(f.se1, f.te2).unwrap();
        let delta = idx.commit_insert_edge(f.se1, f.te2);
        assert_matches_table(idx.matrix(), &TABLE_V, "SLen_new(UD1)");
        // Paper Table VII: all eight nodes are affected by UD1.
        assert_eq!(delta.affected.len(), 8);
    }

    #[test]
    fn table_vi_golden_ud2_insert() {
        // UD2: insert e(DB1, S1) — paper Example 8, Table VI.
        let mut f = fig1();
        let mut idx = IncrementalIndex::build(&f.graph);
        f.graph.add_edge(f.db1, f.s1).unwrap();
        let delta = idx.commit_insert_edge(f.db1, f.s1);
        assert_matches_table(idx.matrix(), &TABLE_VI, "SLen_new(UD2)");
        // Paper Table VII: affected = {PM1, SE2, S1, TE1, DB1}.
        let affected: Vec<NodeId> = delta.affected.iter().collect();
        assert_eq!(affected, vec![f.pm1, f.se2, f.s1, f.te1, f.db1]);
    }

    #[test]
    fn insert_then_recompute_agree() {
        let mut f = fig1();
        let mut idx = IncrementalIndex::build(&f.graph);
        f.graph.add_edge(f.te1, f.db1).unwrap();
        idx.commit_insert_edge(f.te1, f.db1);
        assert_eq!(idx.matrix(), &apsp_matrix(&f.graph));
    }

    #[test]
    fn delete_then_recompute_agree() {
        let mut f = fig1();
        let mut idx = IncrementalIndex::build(&f.graph);
        f.graph.remove_edge(f.se1, f.se2).unwrap();
        idx.commit_delete_edge(&f.graph, f.se1, f.se2);
        assert_eq!(idx.matrix(), &apsp_matrix(&f.graph));
    }

    #[test]
    fn node_insert_grows_matrix_without_changes() {
        let mut f = fig1();
        let mut idx = IncrementalIndex::build(&f.graph);
        let label = f.interner.get("SE").unwrap();
        let new = f.graph.add_node(label);
        let delta = idx.commit_insert_node(f.graph.slot_count());
        assert!(delta.is_empty());
        assert_eq!(idx.matrix().n(), 9);
        assert_eq!(idx.matrix().get(new, new), 0);
        assert_eq!(idx.matrix(), &apsp_matrix(&f.graph));
    }

    #[test]
    fn node_delete_matches_recompute() {
        let mut f = fig1();
        let mut idx = IncrementalIndex::build(&f.graph);
        f.graph.remove_node(f.se1).unwrap();
        let commit = idx.commit_delete_node(&f.graph, f.se1);
        assert_eq!(idx.matrix(), &apsp_matrix(&f.graph));
        // SE1 is on many shortest paths; deleting it affects everyone who
        // could reach it.
        assert!(commit.affected.contains(f.pm2));
        assert!(commit.affected.contains(f.se1));
    }

    #[test]
    fn mixed_sequence_stays_exact() {
        let mut f = fig1();
        let mut idx = IncrementalIndex::build(&f.graph);
        // insert, delete, node add, edge to it, node delete — then compare.
        f.graph.add_edge(f.se1, f.te2).unwrap();
        idx.commit_insert_edge(f.se1, f.te2);
        f.graph.remove_edge(f.pm1, f.db1).unwrap();
        idx.commit_delete_edge(&f.graph, f.pm1, f.db1);
        let label = f.interner.get("TE").unwrap();
        let n = f.graph.add_node(label);
        idx.commit_insert_node(f.graph.slot_count());
        f.graph.add_edge(f.s1, n).unwrap();
        idx.commit_insert_edge(f.s1, n);
        f.graph.remove_node(f.te1).unwrap();
        idx.commit_delete_node(&f.graph, f.te1);
        assert_eq!(idx.matrix(), &apsp_matrix(&f.graph));
    }
}
