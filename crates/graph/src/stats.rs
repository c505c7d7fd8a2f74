//! Summary statistics for data graphs, used by the workload generators'
//! self-checks and the experiment reports.

use crate::data_graph::DataGraph;

/// Degree/label statistics of a [`DataGraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Live node count.
    pub nodes: usize,
    /// Live edge count.
    pub edges: usize,
    /// Distinct labels present on live nodes.
    pub labels: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Mean out-degree over live nodes (0 if empty).
    pub mean_degree: f64,
    /// Nodes with out-degree 0 (sinks) — relevant to the paper's sparse
    /// `SLen` remark (§IV-B): rows of sinks are almost entirely infinite.
    pub sinks: usize,
    /// Nodes with in-degree 0 (sources).
    pub sources: usize,
}

impl GraphStats {
    /// Compute statistics in one pass over the graph.
    pub fn of(graph: &DataGraph) -> Self {
        let mut max_out = 0usize;
        let mut max_in = 0usize;
        let mut sinks = 0usize;
        let mut sources = 0usize;
        let mut label_seen = vec![false; graph.label_table_len()];
        let mut labels = 0usize;
        for n in graph.nodes() {
            let od = graph.out_degree(n);
            let id = graph.in_degree(n);
            max_out = max_out.max(od);
            max_in = max_in.max(id);
            if od == 0 {
                sinks += 1;
            }
            if id == 0 {
                sources += 1;
            }
            if let Some(l) = graph.label(n) {
                if !label_seen[l.index()] {
                    label_seen[l.index()] = true;
                    labels += 1;
                }
            }
        }
        let nodes = graph.node_count();
        GraphStats {
            nodes,
            edges: graph.edge_count(),
            labels,
            max_out_degree: max_out,
            max_in_degree: max_in,
            mean_degree: if nodes == 0 {
                0.0
            } else {
                graph.edge_count() as f64 / nodes as f64
            },
            sinks,
            sources,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DataGraphBuilder;

    #[test]
    fn stats_of_small_graph() {
        let (g, _, _) = DataGraphBuilder::new()
            .node("a", "X")
            .node("b", "X")
            .node("c", "Y")
            .node("d", "Z")
            .edge("a", "b")
            .edge("a", "c")
            .edge("b", "c")
            .build()
            .unwrap();
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 3);
        assert_eq!(s.labels, 3);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 2);
        assert_eq!(s.sinks, 2); // c and d
        assert_eq!(s.sources, 2); // a and d
        assert!((s.mean_degree - 0.75).abs() < 1e-9);
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = DataGraph::new();
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.mean_degree, 0.0);
    }
}
