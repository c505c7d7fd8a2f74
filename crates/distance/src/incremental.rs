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
//! Correctness notes (tested against from-scratch APSP, delta and matrix,
//! after every commit of random update sequences):
//!
//! * *Edge insert `(u,v)`*: a shortest path in `G+e` uses `e` at most once
//!   (shortest paths are simple), so
//!   `d'(x,y) = min(d(x,y), d(x,u) + 1 + d(v,y))` over *old* distances.
//! * *Edge delete `(u,v)`*: only sources `x` with `d(x,u) + 1 == d(x,v)`
//!   can lose a shortest path through `e`, and of those only the ones where
//!   `v` has no **standing parent** — an in-neighbour `w` left in the graph
//!   with `d(x,w) + 1 == d(x,v)`. A standing parent keeps `d(x,v)`, and
//!   then every other entry of the row, since a path to `y` that used `e`
//!   can use the parent's instead. Each remaining row is **re-settled**
//!   with `v` seeded as affected: the decremental step of Ramalingam & Reps
//!   shared with the bounded rows (`rows` module docs §3, run here
//!   untruncated), which finds the targets whose every shortest path ran
//!   through `e`, level by level, and settles just those. The matrix row
//!   *is* the distance array it works on, so nothing is copied.
//! * *Node insert*: an isolated node changes no existing distance.
//! * *Node delete `id`*: only sources with a finite `d(x,id)` are affected.
//!   The post-delete graph has lost `id`'s edges, but the matrix has not:
//!   `id`'s **own row lists its children**, the `z` with `d(id,z) == 1`,
//!   and is read before it is cleared. No target nearer to `x` than `id`
//!   routes through it, so for each source the affected set starts at
//!   level `d(x,id)` with `id` alone (seeded: it goes to [`INF`]), and at
//!   the next level with the children at `d(x,id) + 1` that have no
//!   standing parent at `d(x,id)`; the re-settle grows and settles the
//!   rest. A tombstone's adjacency is empty, so nothing reaches `id` again.
//!
//! Every commit records its changes source by source, ascending, and by
//! target within a source — the order a row-major diff of the matrices
//! lists them — with a node delete's own row first. DER-II and the
//! EH-Tree read deltas in that order.
//!
//! Cost model (the paper's premise that repair cost scales with the
//! *delta*, not the graph):
//!
//! * Insert commits iterate **affected sources × finite targets** instead
//!   of all `n²` pairs: only `x` with `d(x,u) + 1 < d(x,v)` can change any
//!   entry (take `y = v`; for every other `y` the triangle inequality gives
//!   `d(x,u) + 1 + d(v,y) ≥ d(x,v) + d(v,y) ≥ d(x,y)`), and only `y` with
//!   `d(v,y)` finite can produce a finite candidate.
//! * Delete commits read two columns of the matrix to find their
//!   candidates (`O(n)`), test `v`'s in-neighbours (or `id`'s children's)
//!   for a standing parent, and re-settle what is left: `O(Σ in-degree)`
//!   over the affected targets and their children, plus a heap over the
//!   affected set. A re-settled row costs its change, not a BFS of the
//!   graph's 26 k edges: on the email-EU-core stand-in (1 005 nodes, one
//!   Xeon core) a node delete re-settles ≈990 rows at ≈0.4 µs each, and an
//!   edge delete takes ≈29 µs, most of it the two-column candidate scan.
//! * A node insert appends one row inside the matrix's stride (see
//!   [`DistanceMatrix`]), so it copies nothing until the headroom runs out.

use gpnm_graph::{DataGraph, NodeId};

use crate::aff::AffDelta;
use crate::apsp::apsp_matrix;
use crate::matrix::DistanceMatrix;
use crate::oracle::DistanceOracle;
use crate::rows::Resettle;
use crate::{sat_add, INF};

/// Owns the `SLen` matrix and repairs it update by update.
#[derive(Debug, Clone)]
pub struct IncrementalIndex {
    matrix: DistanceMatrix,
    // Scratch reused across repairs to keep the hot path allocation-free.
    /// Affected sources of an insert: `x` with `d(x,u) + 1 < d(x,v)`.
    src_buf: Vec<NodeId>,
    /// Finite `(target, d(v, target))` pairs of the inserted edge's head.
    tgt_buf: Vec<(u32, u32)>,
    /// The delete commits' re-settle.
    resettle: Resettle,
}

impl IncrementalIndex {
    /// Build the index from scratch: [`apsp_matrix`], every live node's
    /// BFS run 64 sources to a pass, each source one bit of a `u64`.
    pub fn build(graph: &DataGraph) -> Self {
        IncrementalIndex {
            matrix: apsp_matrix(graph),
            src_buf: Vec::new(),
            tgt_buf: Vec::new(),
            resettle: Resettle::default(),
        }
    }

    /// The current matrix.
    #[inline]
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.matrix
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
    /// graph (the edge is already gone). Re-settles, in place, the rows
    /// whose only parents of `v` ran through the edge.
    pub fn commit_delete_edge(&mut self, graph: &DataGraph, u: NodeId, v: NodeId) -> AffDelta {
        debug_assert!(
            !graph.has_edge(u, v),
            "commit_delete_edge before graph mutation"
        );
        let mut delta = AffDelta::new();
        for x in (0..self.matrix.n()).map(NodeId::from_index) {
            let (du, dv) = (self.matrix.get(x, u), self.matrix.get(x, v));
            if du == INF || du + 1 != dv {
                continue;
            }
            let row = self.matrix.row_mut(x);
            if has_standing_parent(graph, row, v, dv - 1) {
                continue;
            }
            self.resettle.clear();
            self.resettle.seed(row, v, dv);
            self.resettle.run(graph, row, INF, |_| true);
            record(&mut delta, x, &self.resettle);
        }
        delta
    }

    /// Register a node insertion: grow the matrix to cover the new slot.
    /// An isolated node changes no existing distance, so the delta is empty.
    pub fn commit_insert_node(&mut self, new_slot_count: usize) -> AffDelta {
        self.matrix.grow(new_slot_count);
        AffDelta::new()
    }

    /// Apply a node deletion. `graph` is the post-delete graph: `id`'s
    /// children come from its row of the matrix, read before it is cleared.
    pub fn commit_delete_node(&mut self, graph: &DataGraph, id: NodeId) -> AffDelta {
        debug_assert!(
            !graph.contains(id),
            "commit_delete_node before graph mutation"
        );
        let mut delta = AffDelta::new();
        let own = self.matrix.row_mut(id);
        let children: Vec<NodeId> = (0..own.len())
            .filter(|&z| own[z] == 1)
            .map(NodeId::from_index)
            .collect();
        for (y, d) in own.iter_mut().enumerate() {
            if *d != INF {
                delta.record(id, NodeId::from_index(y), *d, INF);
                *d = INF;
            }
        }
        for x in (0..self.matrix.n()).map(NodeId::from_index) {
            let did = self.matrix.get(x, id);
            if did == INF {
                continue;
            }
            let row = self.matrix.row_mut(x);
            self.resettle.clear();
            self.resettle.seed(row, id, did);
            for &z in &children {
                if row[z.index()] == did + 1 && !has_standing_parent(graph, row, z, did) {
                    self.resettle.seed(row, z, did + 1);
                }
            }
            self.resettle.run(graph, row, INF, |_| true);
            record(&mut delta, x, &self.resettle);
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
}

/// Whether `z` keeps an in-neighbour in `graph` at distance `level` in
/// `row` — a parent one level up that the update did not take away.
fn has_standing_parent(graph: &DataGraph, row: &[u32], z: NodeId, level: u32) -> bool {
    graph
        .in_neighbors(z)
        .iter()
        .any(|w| row[w.index()] == level)
}

/// Record a re-settled row of `x`: its changes, ascending by target.
fn record(delta: &mut AffDelta, x: NodeId, resettle: &Resettle) {
    for &(y, old, new) in &resettle.affected {
        delta.record(x, NodeId(y), old, new);
    }
}

impl DistanceOracle for IncrementalIndex {
    #[inline(always)]
    fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        self.matrix.get(u, v)
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

    proptest::proptest! {
        /// Every commit against from-scratch APSP, on random graphs with
        /// unreachable parts and a hub, under random interleavings of edge
        /// and node inserts and deletes. After each commit the matrix equals
        /// `apsp_matrix` of the graph, and the delta is the diff of the
        /// matrices before and after, record for record in the documented
        /// order: row-major, with a node delete's own row first.
        #[test]
        fn commits_equal_recompute_and_its_diff(
            n in 16usize..40,
            edges in proptest::collection::vec((0usize..40, 0usize..40), 0..100),
            hub in (0usize..40, 0usize..24),
            ops in proptest::collection::vec((0u8..8, 0usize..64, 0usize..64), 1..40),
        ) {
            let label = gpnm_graph::Label::from_index(0);
            let mut g = DataGraph::new();
            let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(label)).collect();
            // Random edges among three quarters of the nodes leave the rest
            // unreachable until an op wires them in. The hub has `fan`
            // edges out and `fan` in, so many rows route through it.
            let wired = n * 3 / 4;
            for (a, b) in edges {
                let _ = g.add_edge(ids[a % wired], ids[b % wired]);
            }
            let (hub, fan) = (ids[hub.0 % n], hub.1.min(n));
            for i in 0..fan {
                let _ = g.add_edge(hub, ids[i]);
                let _ = g.add_edge(ids[i * 7 % n], hub);
            }
            let mut idx = IncrementalIndex::build(&g);
            for (kind, a, b) in ops {
                let live: Vec<NodeId> = g.nodes().collect();
                let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
                let before = idx.matrix().clone();
                let mut own_row = None;
                let delta = match kind {
                    0..=2 => {
                        let Some(&x) = live.get(a % live.len().max(1)) else { continue };
                        let y = live[b % live.len()];
                        if g.add_edge(x, y).is_err() {
                            continue;
                        }
                        idx.commit_insert_edge(x, y)
                    }
                    3..=5 => {
                        let Some(&(x, y)) = edges.get(a % edges.len().max(1)) else { continue };
                        g.remove_edge(x, y).unwrap();
                        idx.commit_delete_edge(&g, x, y)
                    }
                    6 => {
                        g.add_node(label);
                        idx.commit_insert_node(g.slot_count())
                    }
                    _ => {
                        // Every other node delete aims at the hub while it lives.
                        let id = if b % 2 == 0 && g.contains(hub) {
                            hub
                        } else {
                            let Some(&id) = live.get(a % live.len().max(1)) else { continue };
                            id
                        };
                        g.remove_node(id).unwrap();
                        own_row = Some(id);
                        idx.commit_delete_node(&g, id)
                    }
                };
                proptest::prop_assert_eq!(idx.matrix(), &apsp_matrix(&g));
                if before.n() != idx.matrix().n() {
                    proptest::prop_assert!(delta.is_empty());
                    continue;
                }
                let (own, rest): (Vec<_>, Vec<_>) =
                    before.diff(idx.matrix()).partition(|r| Some(r.0) == own_row);
                proptest::prop_assert_eq!(delta.changed, [own, rest].concat());
            }
        }
    }
}
