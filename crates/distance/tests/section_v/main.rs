//! The paper's §V label-based partition method, kept as test support.
//!
//! No backend repairs `SLen` through the partition (the crate docs'
//! "Choosing a backend" has why), so the method lives here rather than in
//! the crate's API: the label partition (§V-A), the bridge-graph
//! composition and the verbatim Algorithm 4/5 merge (§V-B), and the
//! Dijkstra they run over the bridge graph. The tests hold the paper's
//! Tables VIII/IX against both realizations, and the composition against
//! the flat APSP on random graphs.

use gpnm_distance::{apsp_matrix, INF};
use gpnm_graph::paper::{fig4, TABLE_IX, TABLE_VIII};
use gpnm_graph::{DataGraph, LabelInterner, NodeId};
use proptest::prelude::*;

mod dijkstra;
mod partition;
mod partitioned;

use partitioned::PartitionedIndex;

#[test]
fn tables_viii_ix_partitioned_distances() {
    let f = fig4();
    let idx = PartitionedIndex::build(&f.graph);
    let mut row = vec![INF; f.graph.slot_count()];
    for (i, &si) in f.se.iter().enumerate() {
        idx.compose_row(si, &mut row);
        for (j, &sj) in f.se.iter().enumerate() {
            assert_eq!(row[sj.index()], TABLE_VIII[i][j], "Table VIII [{i}][{j}]");
        }
        for (j, &tj) in f.te.iter().enumerate() {
            assert_eq!(row[tj.index()], TABLE_IX[i][j], "Table IX [{i}][{j}]");
        }
    }
}

/// Compact description of a random labeled digraph.
#[derive(Debug, Clone)]
struct GraphSpec {
    labels_per_node: Vec<u8>,
    edges: Vec<(u8, u8)>,
}

fn graph_spec(max_nodes: usize) -> impl Strategy<Value = GraphSpec> {
    (2..max_nodes).prop_flat_map(move |n| {
        (
            proptest::collection::vec(0u8..4, n),
            proptest::collection::vec((0..n as u8, 0..n as u8), 0..n * 3),
        )
            .prop_map(|(labels_per_node, edges)| GraphSpec {
                labels_per_node,
                edges,
            })
    })
}

fn build_graph(spec: &GraphSpec) -> DataGraph {
    let mut interner = LabelInterner::new();
    let labels: Vec<_> = (0..4).map(|i| interner.intern(&format!("L{i}"))).collect();
    let mut g = DataGraph::new();
    let ids: Vec<NodeId> = spec
        .labels_per_node
        .iter()
        .map(|&l| g.add_node(labels[l as usize % 4]))
        .collect();
    for &(a, b) in &spec.edges {
        let (u, v) = (ids[a as usize % ids.len()], ids[b as usize % ids.len()]);
        if u != v {
            let _ = g.add_edge(u, v);
        }
    }
    g
}

proptest! {
    /// Partitioned composition computes exactly the flat APSP.
    #[test]
    fn partitioned_apsp_is_exact(spec in graph_spec(24)) {
        let graph = build_graph(&spec);
        let idx = PartitionedIndex::build(&graph);
        prop_assert_eq!(idx.build_matrix(&graph), apsp_matrix(&graph));
    }
}
