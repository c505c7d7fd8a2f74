//! All-pairs shortest path lengths by per-source BFS.
//!
//! Data graphs are unweighted (every collaboration edge is one hop), so a
//! BFS per source computes `SLen` in `O(|ND| · (|ND| + |ED|))` — the
//! complexity the paper cites from Ramalingam & Reps [35].

use gpnm_graph::{CsrGraph, DataGraph, NodeId};

use crate::matrix::DistanceMatrix;
use crate::INF;

/// Compute one BFS row: shortest path lengths from `source` to every slot,
/// written into `row` (length = slot count). Unreachable slots get [`INF`].
///
/// `queue` is caller-provided scratch so hot loops (a build runs one row
/// per source) don't reallocate per call.
pub fn bfs_row(csr: &CsrGraph, source: NodeId, row: &mut [u32], queue: &mut Vec<NodeId>) {
    debug_assert_eq!(row.len(), csr.slot_count());
    row.fill(INF);
    row[source.index()] = 0;
    queue.clear();
    queue.push(source);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let du = row[u.index()];
        for &v in csr.out_neighbors(u) {
            if row[v.index()] == INF {
                row[v.index()] = du + 1;
                queue.push(v);
            }
        }
    }
}

/// Build the full `SLen` matrix of `graph` by BFS from every live node.
///
/// Tombstoned slots keep all-[`INF`] rows and columns (including the
/// diagonal — a deleted node has no paths, not even to itself).
pub fn apsp_matrix(graph: &DataGraph) -> DistanceMatrix {
    let csr = CsrGraph::from_graph(graph);
    let n = graph.slot_count();
    let mut matrix = DistanceMatrix::all_inf(n);
    let mut queue = Vec::with_capacity(n);
    for source in graph.nodes() {
        bfs_row(&csr, source, matrix.row_mut(source), &mut queue);
    }
    // BFS writes 0 on the source diagonal; tombstones were never sources, so
    // their rows (and by symmetry of never being reached… columns only if no
    // edges point at them, which DataGraph guarantees) stay INF.
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_graph::paper::{fig1, TABLE_III};
    use gpnm_graph::DataGraphBuilder;

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
}
