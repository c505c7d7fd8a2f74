//! Immutable compressed-sparse-row snapshot of a [`DataGraph`].
//!
//! BFS/Dijkstra over `Vec<Vec<NodeId>>` adjacency chases one pointer per
//! node; the APSP kernels that dominate GPNM cost (paper §IV complexity
//! analysis) instead run over this flat CSR layout. The snapshot is aligned
//! to the data graph's *slots* — tombstoned slots simply have an empty
//! neighbor range — so `NodeId`s index directly without remapping.

use crate::data_graph::{DataGraph, GraphVersion};
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

impl Default for CsrGraph {
    /// An empty zero-slot snapshot (the state of a fresh [`CsrSnapshot`]).
    fn default() -> Self {
        CsrGraph {
            offsets: vec![0],
            targets: Vec::new(),
            live_nodes: 0,
        }
    }
}

impl CsrGraph {
    /// Snapshot the forward adjacency of `graph`.
    pub fn from_graph(graph: &DataGraph) -> Self {
        let mut csr = CsrGraph {
            offsets: Vec::with_capacity(graph.slot_count() + 1),
            targets: Vec::with_capacity(graph.edge_count()),
            live_nodes: 0,
        };
        csr.rebuild(graph);
        csr
    }

    /// Refill this snapshot from `graph` *in place*, reusing the existing
    /// allocations. After warm-up, rebuilding per update batch is
    /// allocation-free (the vectors only grow when the graph does), which
    /// is what keeps the delete-repair hot path off the allocator.
    ///
    /// Growth, when it does happen, reserves ~1.5% past the needed size
    /// instead of letting `reserve` double: one inserted node on a 10M-slot
    /// graph must not transiently allocate a second half-size buffer while
    /// the old one is live (that is what blows tight address-space budgets).
    pub(crate) fn rebuild(&mut self, graph: &DataGraph) {
        fn reserve_with_slack<T>(v: &mut Vec<T>, n: usize) {
            if n > v.capacity() {
                v.reserve_exact(n + n / 64 + 16 - v.len());
            }
        }
        let slots = graph.slot_count();
        self.offsets.clear();
        self.targets.clear();
        reserve_with_slack(&mut self.offsets, slots + 1);
        reserve_with_slack(&mut self.targets, graph.edge_count());
        self.offsets.push(0);
        for i in 0..slots {
            self.targets
                .extend_from_slice(graph.out_neighbors(NodeId::from_index(i)));
            self.offsets.push(self.targets.len() as u32);
        }
        self.live_nodes = graph.node_count();
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

/// A generation-stamped, lazily rebuilt [`CsrGraph`] cache.
///
/// The dense delete repair and the bounded-row bulk build need a CSR view
/// of the current graph; building one from scratch per call is O(n + m)
/// *allocation and copy* even when many calls see the same unmutated
/// graph. `CsrSnapshot` keys the cached CSR on [`DataGraph::version`]:
/// [`CsrSnapshot::get`] is a two-word comparison when the graph has not
/// mutated, and an in-place, allocation-reusing rebuild when it has.
/// Registering `k` patterns against one graph version therefore shares one
/// CSR build instead of performing `k` of them.
#[derive(Debug, Clone, Default)]
pub struct CsrSnapshot {
    /// The version of `csr`'s source graph; `None` until the first build.
    version: Option<GraphVersion>,
    csr: CsrGraph,
}

impl CsrSnapshot {
    /// An empty (stale) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The CSR view of `graph`, rebuilt (in place) only if `graph` has
    /// mutated since the cached build — or was never built.
    pub fn get(&mut self, graph: &DataGraph) -> &CsrGraph {
        let version = graph.version();
        if self.version != Some(version) {
            self.csr.rebuild(graph);
            self.version = Some(version);
        }
        &self.csr
    }

    /// Whether a call to [`CsrSnapshot::get`] for `graph` would rebuild.
    pub fn is_stale(&self, graph: &DataGraph) -> bool {
        self.version != Some(graph.version())
    }

    /// Drop the cached build (the next [`CsrSnapshot::get`] rebuilds).
    pub fn invalidate(&mut self) {
        self.version = None;
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
    fn snapshot_rebuilds_only_when_stale() {
        let (mut g, n) = sample();
        let mut snap = CsrSnapshot::new();
        assert!(snap.is_stale(&g));
        let before = snap.get(&g).edge_count();
        assert_eq!(before, 3);
        assert!(!snap.is_stale(&g), "unmutated graph: cache stays valid");
        // Failed mutations do not invalidate.
        assert!(g.add_edge(n[0], n[1]).is_err());
        assert!(!snap.is_stale(&g));
        // Successful mutations do.
        g.add_edge(n[1], n[3]).unwrap();
        assert!(snap.is_stale(&g));
        assert_eq!(snap.get(&g).out_neighbors(n[1]), &[n[3]]);
        assert!(!snap.is_stale(&g));
        snap.invalidate();
        assert!(snap.is_stale(&g));
    }

    #[test]
    fn snapshot_distinguishes_clones() {
        let (g, n) = sample();
        let mut g2 = g.clone();
        let mut snap = CsrSnapshot::new();
        snap.get(&g);
        // The clone is a different object: even though its content is
        // identical, the cache conservatively rebuilds rather than risk
        // colliding generations across diverging clones.
        assert!(snap.is_stale(&g2));
        g2.add_edge(n[1], n[0]).unwrap();
        assert_eq!(snap.get(&g2).out_neighbors(n[1]), &[n[0]]);
        assert_eq!(snap.get(&g).out_neighbors(n[1]), &[] as &[NodeId]);
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
