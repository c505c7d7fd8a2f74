//! Label-based graph partition (paper §V-A).
//!
//! Nodes sharing a label go into one partition ("people with the same role
//! usually connect with each other closely", Brandes et al. [36]).
//! Cross-partition edges are recorded with the partition of their *start*
//! node, giving rise to **inner bridge nodes** (`IB(Pi)`: members of `Pi`
//! with an out-edge leaving `Pi` — Definition 1) and **outer bridge nodes**
//! (`OB(Pi)`: non-members targeted by an edge from `Pi` — Definition 2).

use gpnm_graph::{DataGraph, NodeId};

/// Identifier of a partition. Equal to the label id that induced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// Index form for table lookups.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The label-based partition of a data graph.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// Partition per slot (`None` for tombstones).
    part_of: Vec<Option<PartitionId>>,
    /// Sorted members per partition (indexed by partition id).
    members: Vec<Vec<NodeId>>,
    /// `IB(Pi)`: sorted inner bridge nodes per partition.
    inner_bridges: Vec<Vec<NodeId>>,
    /// `OB(Pi)`: sorted outer bridge nodes per partition.
    outer_bridges: Vec<Vec<NodeId>>,
    /// All cross-partition edges `(u, v)`.
    cross_edges: Vec<(NodeId, NodeId)>,
}

impl Partition {
    /// Partition `graph` by node label.
    pub fn by_label(graph: &DataGraph) -> Self {
        let slots = graph.slot_count();
        let nparts = graph.label_table_len();
        let mut part_of = vec![None; slots];
        let mut members = vec![Vec::new(); nparts];
        for node in graph.nodes() {
            let label = graph.label(node).expect("live node has a label");
            part_of[node.index()] = Some(PartitionId(label.0));
            members[label.index()].push(node); // nodes() is ascending: sorted
        }
        let mut inner: Vec<Vec<NodeId>> = vec![Vec::new(); nparts];
        let mut outer: Vec<Vec<NodeId>> = vec![Vec::new(); nparts];
        let mut cross_edges = Vec::new();
        for (u, v) in graph.edges() {
            let pu = part_of[u.index()].expect("edge endpoint is live");
            let pv = part_of[v.index()].expect("edge endpoint is live");
            if pu != pv {
                cross_edges.push((u, v));
                push_unique_sorted(&mut inner[pu.index()], u);
                push_unique_sorted(&mut outer[pu.index()], v);
            }
        }
        Partition {
            part_of,
            members,
            inner_bridges: inner,
            outer_bridges: outer,
            cross_edges,
        }
    }

    /// Number of partition slots (= label-table width; some may be empty).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Partition of a live node.
    #[inline]
    pub fn of(&self, node: NodeId) -> Option<PartitionId> {
        self.part_of.get(node.index()).copied().flatten()
    }

    /// Sorted members of partition `p`.
    #[inline]
    pub fn members(&self, p: PartitionId) -> &[NodeId] {
        self.members.get(p.index()).map_or(&[], Vec::as_slice)
    }

    /// `IB(p)` — members of `p` with an out-edge leaving `p` (Definition 1).
    #[inline]
    pub fn inner_bridges(&self, p: PartitionId) -> &[NodeId] {
        self.inner_bridges.get(p.index()).map_or(&[], Vec::as_slice)
    }

    /// `OB(p)` — nodes outside `p` targeted by an edge from `p`
    /// (Definition 2).
    #[inline]
    pub fn outer_bridges(&self, p: PartitionId) -> &[NodeId] {
        self.outer_bridges.get(p.index()).map_or(&[], Vec::as_slice)
    }

    /// All cross-partition edges.
    pub fn cross_edges(&self) -> &[(NodeId, NodeId)] {
        &self.cross_edges
    }

    /// Ids of non-empty partitions.
    pub fn non_empty(&self) -> impl Iterator<Item = PartitionId> + '_ {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(i, _)| PartitionId(i as u32))
    }

    /// Every node incident to a cross-partition edge, ascending — the §V
    /// bridge-node universe over which the bridge graph is built.
    pub fn bridge_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.cross_edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

fn push_unique_sorted(v: &mut Vec<NodeId>, item: NodeId) {
    if let Err(pos) = v.binary_search(&item) {
        v.insert(pos, item);
    }
}

mod tests {
    use super::*;
    use gpnm_graph::paper::fig4;

    #[test]
    fn fig4_partition_structure() {
        let f = fig4();
        let part = Partition::by_label(&f.graph);
        let se = part.of(f.se[0]).unwrap();
        let te = part.of(f.te[0]).unwrap();
        let pm = part.of(f.pm1).unwrap();
        assert_ne!(se, te);
        assert_ne!(se, pm);
        assert_eq!(part.members(se), &f.se);
        assert_eq!(part.members(te), &f.te);
        assert_eq!(part.members(pm), &[f.pm1]);
        // Example text: IB(P_SE) = {SE1, SE2}, OB(P_SE) = {PM1, TE1}.
        assert_eq!(part.inner_bridges(se), &[f.se[0], f.se[1]]);
        assert_eq!(part.outer_bridges(se), &[f.te[0], f.pm1]);
        // P_TE has no outer bridge node (Example 14).
        assert!(part.outer_bridges(te).is_empty());
        // OB(P_PM) = {SE4} which belongs to P_SE (Example 14).
        assert_eq!(part.outer_bridges(pm), &[f.se[3]]);
    }

    #[test]
    fn fig4_cross_edges_and_bridge_universe() {
        let f = fig4();
        let part = Partition::by_label(&f.graph);
        let mut cross = part.cross_edges().to_vec();
        cross.sort_unstable();
        let mut expected = vec![(f.se[0], f.pm1), (f.pm1, f.se[3]), (f.se[1], f.te[0])];
        expected.sort_unstable();
        assert_eq!(cross, expected);
        let bridges = part.bridge_nodes();
        let mut expected_b = vec![f.se[0], f.se[1], f.se[3], f.te[0], f.pm1];
        expected_b.sort_unstable();
        assert_eq!(bridges, expected_b);
    }

    #[test]
    fn tombstones_have_no_partition() {
        let mut f = fig4();
        f.graph.remove_node(f.se[2]).unwrap();
        let part = Partition::by_label(&f.graph);
        assert_eq!(part.of(f.se[2]), None);
        let se = part.of(f.se[0]).unwrap();
        assert_eq!(part.members(se).len(), 3);
    }

    #[test]
    fn single_partition_has_no_bridges() {
        use gpnm_graph::DataGraphBuilder;
        let (g, _, _) = DataGraphBuilder::new()
            .node("a", "X")
            .node("b", "X")
            .edge("a", "b")
            .build()
            .unwrap();
        let part = Partition::by_label(&g);
        assert!(part.cross_edges().is_empty());
        assert!(part.bridge_nodes().is_empty());
        assert_eq!(part.non_empty().count(), 1);
    }
}
