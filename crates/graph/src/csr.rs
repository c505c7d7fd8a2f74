//! Immutable compressed-sparse-row snapshot of a [`DataGraph`].
//!
//! BFS/Dijkstra over `Vec<Vec<NodeId>>` adjacency chases one pointer per
//! node; the APSP kernels that dominate GPNM cost (paper §IV complexity
//! analysis) instead run over this flat CSR layout. The snapshot is aligned
//! to the data graph's *slots* — tombstoned slots simply have an empty
//! neighbor range — so `NodeId`s index directly without remapping.

use crate::data_graph::DataGraph;
use crate::ids::NodeId;

/// Flat forward adjacency, frozen at build time. (Backward walks read
/// [`DataGraph::in_neighbors`] on the live graph.)
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `offsets[i]..offsets[i+1]` indexes `targets` for slot `i`.
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    live_nodes: usize,
}

impl CsrGraph {
    /// Snapshot the forward adjacency of `graph`.
    pub fn from_graph(graph: &DataGraph) -> Self {
        let slots = graph.slot_count();
        let mut offsets = Vec::with_capacity(slots + 1);
        let mut targets = Vec::with_capacity(graph.edge_count());
        offsets.push(0);
        for i in 0..slots {
            targets.extend_from_slice(graph.out_neighbors(NodeId::from_index(i)));
            offsets.push(targets.len() as u32);
        }
        CsrGraph {
            offsets,
            targets,
            live_nodes: graph.node_count(),
        }
    }

    /// Number of slots the snapshot covers (live + tombstoned).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of live nodes at snapshot time.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of edges in the snapshot.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of slot `u`.
    #[inline(always)]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.offsets[u.index()] as usize;
        let hi = self.offsets[u.index() + 1] as usize;
        &self.targets[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelInterner;

    fn sample() -> (DataGraph, Vec<NodeId>) {
        let mut li = LabelInterner::new();
        let a = li.intern("A");
        let mut g = DataGraph::new();
        let nodes: Vec<_> = (0..4).map(|_| g.add_node(a)).collect();
        g.add_edge(nodes[0], nodes[1]).unwrap();
        g.add_edge(nodes[0], nodes[2]).unwrap();
        g.add_edge(nodes[2], nodes[3]).unwrap();
        (g, nodes)
    }

    #[test]
    fn forward_adjacency_matches_graph() {
        let (g, n) = sample();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.out_neighbors(n[0]), &[n[1], n[2]]);
        assert_eq!(csr.out_neighbors(n[1]), &[] as &[NodeId]);
        assert_eq!(csr.out_neighbors(n[2]), &[n[3]]);
        assert_eq!(csr.edge_count(), 3);
        assert_eq!(csr.node_count(), 4);
    }

    #[test]
    fn tombstoned_slots_have_empty_ranges() {
        let (mut g, n) = sample();
        g.remove_node(n[2]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.slot_count(), 4);
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.out_neighbors(n[2]), &[] as &[NodeId]);
        assert_eq!(csr.out_neighbors(n[0]), &[n[1]]);
    }
}
