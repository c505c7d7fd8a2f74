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
/// `queue` is caller-provided scratch so hot loops (delete repair recomputes
/// many rows) don't reallocate per call.
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

/// Recompute BFS rows for `sources` in parallel over the persistent
/// [`gpnm_pool::WorkerPool`] (`threads`: lane cap; `0` = all pool lanes).
/// Returns `(source, row)` pairs in `sources` order, whatever order the
/// lanes finish in.
///
/// This is the workhorse of UA-GPNM's deletion repair (§V: "the shortest
/// path computation will be processed distributively"): deletions
/// invalidate many rows at once, and the rows are independent. Falls back
/// to a serial loop for small batches where even pool hand-off would
/// dominate. Builds a CSR snapshot per call; hot loops that already hold a
/// cached CSR (the engine's batch repair) should call
/// [`parallel_bfs_rows_csr`] instead.
pub fn parallel_bfs_rows(
    graph: &DataGraph,
    sources: &[NodeId],
    threads: usize,
) -> Vec<(NodeId, Vec<u32>)> {
    let csr = CsrGraph::from_graph(graph);
    parallel_bfs_rows_csr(&csr, sources, threads)
}

/// [`parallel_bfs_rows`] over a caller-provided CSR snapshot — the batch
/// repair path, where a [`gpnm_graph::CsrSnapshot`] amortizes the CSR build
/// across the whole update batch.
pub fn parallel_bfs_rows_csr(
    csr: &CsrGraph,
    sources: &[NodeId],
    threads: usize,
) -> Vec<(NodeId, Vec<u32>)> {
    let n = csr.slot_count();
    let pool = gpnm_pool::WorkerPool::global();
    let lanes = if threads == 0 {
        pool.lanes()
    } else {
        threads.min(pool.lanes())
    };
    // Each source owns its output slot up front, so a chunk writes rows in
    // place and the result keeps `sources` order without a lock.
    let mut rows: Vec<(NodeId, Vec<u32>)> = sources.iter().map(|&s| (s, Vec::new())).collect();
    let fill = |slots: &mut [(NodeId, Vec<u32>)]| {
        let mut queue = Vec::with_capacity(n);
        for (s, row) in slots {
            *row = vec![INF; n];
            bfs_row(csr, *s, row, &mut queue);
        }
    };
    if lanes <= 1 || sources.len() < 16 {
        fill(&mut rows);
        return rows;
    }
    let chunk = sources.len().div_ceil(lanes);
    pool.scope(|scope| {
        for slots in rows.chunks_mut(chunk) {
            let fill = &fill;
            scope.spawn(move || fill(slots));
        }
    });
    rows
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

    proptest::proptest! {
        /// The worker-pool path computes the rows the serial loop does, in
        /// the same order. Sixteen sources or more, so the pool path is
        /// the one that runs wherever the pool has a second lane.
        #[test]
        fn pool_bfs_rows_equal_serial(
            n in 16usize..40,
            edges in proptest::collection::vec((0usize..40, 0usize..40), 0..120),
        ) {
            let mut g = DataGraph::new();
            let label = gpnm_graph::Label::from_index(0);
            let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(label)).collect();
            for (a, b) in edges {
                if a % n != b % n {
                    let _ = g.add_edge(ids[a % n], ids[b % n]);
                }
            }
            let csr = CsrGraph::from_graph(&g);
            proptest::prop_assert_eq!(
                parallel_bfs_rows_csr(&csr, &ids, 0),
                parallel_bfs_rows_csr(&csr, &ids, 1)
            );
        }
    }
}
