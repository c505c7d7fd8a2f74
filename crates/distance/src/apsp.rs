//! All-pairs shortest path lengths by bit-parallel multi-source BFS.
//!
//! Data graphs are unweighted (every collaboration edge is one hop), so BFS
//! from every source computes `SLen` in `O(|ND| · (|ND| + |ED|))` — the
//! complexity the paper cites from Ramalingam & Reps [35]. The build runs
//! those BFSs 64 at a time (Then et al., *The More the Merrier: Efficient
//! Multi-Source Graph Traversal*, VLDB 2014): bit `i` of a node's `u64`
//! words stands for the `i`-th source of the batch, and one level-synchronous
//! pass moves every source's frontier along an edge with one `OR`.
//!
//! Exactness: no operation mixes bits — the frontier, `seen` and `next`
//! words are only combined bitwise — so bit `i` evolves exactly as a
//! level-synchronous BFS from source `i` alone would. It first reaches a
//! node at level `ℓ` iff the node's distance from source `i` is `ℓ`, and
//! that is the level written into source `i`'s row.
//!
//! Cost: `⌈|ND| / 64⌉` passes. A pass scans a node's out-edges once for
//! each level at which the node is on some batch source's frontier. It is
//! on each source's frontier at one level only, so that is at most 64
//! scans, what one BFS per source pays; on a small-world graph, where a
//! batch's sources reach a node at a handful of distinct levels, it is a
//! handful. The row writes, one per reached pair, are those of one BFS per
//! source. Scratch is three `u64` words a slot plus two lists of slots. On
//! `paper_squery`'s graph (1 005 nodes, 25 571 edges; one Xeon core) the
//! build takes ≈11 ms, where one BFS per source took ≈70 ms.

use gpnm_graph::{CsrGraph, DataGraph, NodeId};

use crate::matrix::DistanceMatrix;

/// Sources a pass carries: one bit each of a `u64`.
const WIDTH: usize = u64::BITS as usize;

/// Build the full `SLen` matrix of `graph` by BFS from every live node, 64
/// sources per pass.
///
/// Tombstoned slots are never sources, and no live node has an edge to
/// one, so a tombstone's row, column and diagonal all stay [`crate::INF`]:
/// a deleted node has no paths, not even to itself. A tombstone between
/// the live sources of one pass takes no bit of it
/// (`tests::a_tombstone_inside_a_batch` pins both).
pub fn apsp_matrix(graph: &DataGraph) -> DistanceMatrix {
    let csr = CsrGraph::from_graph(graph);
    let n = graph.slot_count();
    let mut matrix = DistanceMatrix::all_inf(n);
    let sources: Vec<NodeId> = graph.nodes().collect();
    // Per slot: the batch sources that have reached it, those whose
    // frontier it is on, and those it is about to be reached by.
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    // The slots with a non-zero `frontier` / `next` word.
    let mut on_frontier: Vec<NodeId> = Vec::with_capacity(n);
    let mut on_next: Vec<NodeId> = Vec::with_capacity(n);
    // A pass ends with every `frontier` and `next` word taken back to 0
    // and both lists empty; only `seen` is reset between passes.
    for batch in sources.chunks(WIDTH) {
        seen.fill(0);
        for (i, &s) in batch.iter().enumerate() {
            seen[s.index()] = 1 << i;
            frontier[s.index()] = 1 << i;
            on_frontier.push(s);
            matrix.set(s, s, 0);
        }
        let mut level = 0;
        while !on_frontier.is_empty() {
            level += 1;
            for &u in &on_frontier {
                let bits = std::mem::take(&mut frontier[u.index()]);
                for &v in csr.out_neighbors(u) {
                    let reach = bits & !seen[v.index()];
                    if reach != 0 {
                        if next[v.index()] == 0 {
                            on_next.push(v);
                        }
                        next[v.index()] |= reach;
                    }
                }
            }
            on_frontier.clear();
            for &v in &on_next {
                let mut fresh = std::mem::take(&mut next[v.index()]);
                seen[v.index()] |= fresh;
                frontier[v.index()] = fresh;
                on_frontier.push(v);
                while fresh != 0 {
                    matrix.set(batch[fresh.trailing_zeros() as usize], v, level);
                    fresh &= fresh - 1;
                }
            }
            on_next.clear();
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::INF;
    use gpnm_graph::paper::{fig1, TABLE_III};
    use gpnm_graph::{DataGraphBuilder, Label};
    use std::collections::VecDeque;

    /// The reference: one plain queue BFS per live source.
    fn per_source_apsp(graph: &DataGraph) -> DistanceMatrix {
        let mut matrix = DistanceMatrix::all_inf(graph.slot_count());
        let mut queue = VecDeque::new();
        for source in graph.nodes() {
            let row = matrix.row_mut(source);
            row[source.index()] = 0;
            queue.push_back(source);
            while let Some(u) = queue.pop_front() {
                let du = row[u.index()];
                for &v in graph.out_neighbors(u) {
                    if row[v.index()] == INF {
                        row[v.index()] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        matrix
    }

    /// `n` nodes of one label, with the given edges between their indices.
    fn graph(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> (DataGraph, Vec<NodeId>) {
        let mut g = DataGraph::new();
        let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(Label::from_index(0))).collect();
        for (a, b) in edges {
            let _ = g.add_edge(ids[a], ids[b]);
        }
        (g, ids)
    }

    #[test]
    fn table_iii_golden() {
        let f = fig1();
        let m = apsp_matrix(&f.graph);
        for (i, row) in TABLE_III.iter().enumerate() {
            for (j, &expected) in row.iter().enumerate() {
                assert_eq!(
                    m.get(NodeId::from_index(i), NodeId::from_index(j)),
                    expected,
                    "SLen[{i}][{j}] disagrees with paper Table III"
                );
            }
        }
    }

    #[test]
    fn line_graph_distances() {
        let (g, _, names) = DataGraphBuilder::new()
            .node("a", "X")
            .node("b", "X")
            .node("c", "X")
            .edge("a", "b")
            .edge("b", "c")
            .build()
            .unwrap();
        let m = apsp_matrix(&g);
        assert_eq!(m.get(names["a"], names["c"]), 2);
        assert_eq!(m.get(names["c"], names["a"]), INF);
        assert_eq!(m.get(names["b"], names["b"]), 0);
    }

    #[test]
    fn tombstones_are_all_inf() {
        let (mut g, _, names) = DataGraphBuilder::new()
            .node("a", "X")
            .node("b", "X")
            .node("c", "X")
            .edge("a", "b")
            .edge("b", "c")
            .build()
            .unwrap();
        g.remove_node(names["b"]).unwrap();
        let m = apsp_matrix(&g);
        assert_eq!(m.get(names["a"], names["c"]), INF, "path through tombstone");
        assert_eq!(m.get(names["b"], names["b"]), INF, "tombstone diagonal");
        assert_eq!(m.get(names["a"], names["b"]), INF);
        assert_eq!(m.get(names["a"], names["a"]), 0);
    }

    /// A ring over the live nodes plus a chord per node: every batch is
    /// strongly connected to every other, so each pass writes full rows.
    #[test]
    fn batch_boundaries() {
        for n in [63, 64, 65, 128, 129] {
            let ring = (0..n).map(|i| (i, (i + 1) % n));
            let chords = (0..n).map(|i| (i, (i * 7 + 3) % n));
            let (g, _) = graph(n, ring.chain(chords));
            let m = apsp_matrix(&g);
            assert_eq!(m, per_source_apsp(&g), "{n} live nodes");
            assert_eq!(m.finite_entries(), n * n, "{n} live nodes");
        }
    }

    /// Levels run past the word width: distance is a count, not a bit.
    #[test]
    fn a_chain_longer_than_the_word() {
        let (g, ids) = graph(71, (0..70).map(|i| (i, i + 1)));
        let m = apsp_matrix(&g);
        assert_eq!(m, per_source_apsp(&g));
        assert_eq!(m.get(ids[0], ids[70]), 70);
        assert_eq!(m.get(ids[3], ids[69]), 66);
        assert_eq!(m.get(ids[70], ids[0]), INF);
    }

    /// A tombstone in the middle of a source batch takes no bit: its row,
    /// column and diagonal stay `INF`, and the live sources on either side
    /// of it keep their own rows.
    #[test]
    fn a_tombstone_inside_a_batch() {
        let n = 100;
        let (mut g, ids) = graph(n, (0..n).map(|i| (i, (i + 1) % n)));
        let dead = ids[40];
        g.remove_node(dead).unwrap();
        let m = apsp_matrix(&g);
        assert_eq!(m, per_source_apsp(&g));
        assert_eq!(m.row(dead), vec![INF; n].as_slice(), "row");
        assert!(
            ids.iter().all(|&x| m.get(x, dead) == INF),
            "column and diagonal"
        );
        assert_eq!(m.get(ids[41], ids[39]), 98, "round the ring the long way");
        assert_eq!(
            m.get(ids[39], ids[41]),
            INF,
            "the ring is cut at the tombstone"
        );
    }

    #[test]
    fn isolated_nodes_and_an_all_tombstone_graph() {
        let (mut g, ids) = graph(70, []);
        let m = apsp_matrix(&g);
        assert_eq!(m, DistanceMatrix::new(70), "isolated: the diagonal alone");
        for &id in &ids {
            g.remove_node(id).unwrap();
        }
        let m = apsp_matrix(&g);
        assert_eq!(
            m,
            DistanceMatrix::all_inf(70),
            "all tombstones: nothing finite"
        );
        assert_eq!(apsp_matrix(&DataGraph::new()).n(), 0);
    }

    proptest::proptest! {
        /// The 64-source build equals one BFS per source, on random graphs
        /// of 0–200 slots (up to four batches, the last one partial) with
        /// tombstones scattered through them.
        #[test]
        fn equals_one_bfs_per_source(
            n in 0usize..200,
            edges in proptest::collection::vec((0usize..200, 0usize..200), 0..600),
            dead in proptest::collection::vec(0usize..200, 0..40),
        ) {
            let edges = edges.into_iter().filter(|_| n > 0).map(|(a, b)| (a % n, b % n));
            let (mut g, ids) = graph(n, edges);
            for d in dead.into_iter().filter(|_| n > 0) {
                let _ = g.remove_node(ids[d % n]);
            }
            proptest::prop_assert_eq!(apsp_matrix(&g), per_source_apsp(&g));
        }
    }
}
