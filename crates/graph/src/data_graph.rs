//! The dynamic, labeled, directed data graph `GD`.

use crate::error::GraphError;
use crate::ids::NodeId;
use crate::label::Label;
use crate::Result;

/// A dynamic directed graph with one [`Label`] per node.
///
/// Design points driven by the UA-GPNM workload:
///
/// * **Slot-stable ids.** `NodeId`s index into slot-aligned storage and are
///   never reused: deleting a node tombstones its slot. Distance matrices and
///   match bitsets are keyed by slot, so deletions do not invalidate them.
/// * **Sorted adjacency.** Out- and in-neighbor lists are kept sorted, so
///   `has_edge` is a binary search and set-style merges in the matcher are
///   cheap. Insertion cost is O(degree), which is the right trade for the
///   paper's update batches (hundreds of updates against graphs with
///   thousands of nodes).
/// * **Label index.** `nodes_with_label` is O(1) to locate — BGS seeds its
///   candidate sets by label, and the §V partition method partitions by
///   label, so this index is on the hot path of both.
///
/// Mutations return [`GraphError`] and leave the graph untouched on failure.
#[derive(Debug, Clone, Default)]
pub struct DataGraph {
    /// Label per slot; `None` marks a tombstoned (deleted) slot.
    labels: Vec<Option<Label>>,
    /// Sorted out-neighbors per slot.
    out: Vec<Vec<NodeId>>,
    /// Sorted in-neighbors per slot.
    inn: Vec<Vec<NodeId>>,
    /// Sorted live node ids per label id.
    by_label: Vec<Vec<NodeId>>,
    /// Number of live (non-tombstoned) nodes.
    live_nodes: usize,
    /// Number of live edges.
    live_edges: usize,
    /// What the last successful mutation removed, when it was a
    /// [`DataGraph::remove_node`]; see [`DataGraph::last_removed`].
    last_removed: Option<RemovedNode>,
}

/// Everything removed alongside a node, sufficient to undo the deletion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemovedNode {
    /// The deleted node's id (now a tombstone).
    pub id: NodeId,
    /// The deleted node's label.
    pub label: Label,
    /// Out-edges `(id, v)` that were removed with the node.
    pub out_edges: Vec<NodeId>,
    /// In-edges `(u, id)` that were removed with the node.
    pub in_edges: Vec<NodeId>,
}

impl DataGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with room for `nodes` slots, plus a small growth
    /// headroom (~1.5%). Updates-aware graphs are expected to grow past
    /// their initial size; without the slack, the first `InsertNode` on an
    /// exactly-sized graph doubles the node vectors, and at 10M+ slots
    /// that transient (old + doubled allocation live at once) costs 3x the
    /// steady-state footprint of the largest vector.
    pub fn with_capacity(nodes: usize) -> Self {
        let cap = nodes + nodes / 64 + 16;
        DataGraph {
            labels: Vec::with_capacity(cap),
            out: Vec::with_capacity(cap),
            inn: Vec::with_capacity(cap),
            ..Self::default()
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of live nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Total number of slots ever allocated (live + tombstoned). Slot-aligned
    /// side structures (distance matrices, bitsets) must be sized to this.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.labels.len()
    }

    /// Whether `id` refers to a live node.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.labels.get(id.index()).is_some_and(Option::is_some)
    }

    /// The label of a live node.
    #[inline]
    pub fn label(&self, id: NodeId) -> Option<Label> {
        self.labels.get(id.index()).copied().flatten()
    }

    /// Whether the edge `u -> v` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out
            .get(u.index())
            .is_some_and(|adj| adj.binary_search(&v).is_ok())
    }

    /// Sorted out-neighbors of `u` (empty for tombstones and unknown ids).
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.out.get(u.index()).map_or(&[], Vec::as_slice)
    }

    /// Sorted in-neighbors of `u`.
    #[inline]
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.inn.get(u.index()).map_or(&[], Vec::as_slice)
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_neighbors(u).len()
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.in_neighbors(u).len()
    }

    /// Sorted live nodes carrying `label` (empty slice if none).
    #[inline]
    pub fn nodes_with_label(&self, label: Label) -> &[NodeId] {
        self.by_label.get(label.index()).map_or(&[], Vec::as_slice)
    }

    /// Largest label id present (plus one); the label-keyed table width.
    pub fn label_table_len(&self) -> usize {
        self.by_label.len()
    }

    /// Iterate over live node ids in slot order.
    pub fn nodes(&self) -> NodeIter<'_> {
        NodeIter {
            labels: &self.labels,
            next: 0,
            remaining: self.live_nodes,
        }
    }

    /// Iterate over live edges `(u, v)` in `(slot, neighbor)` order.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            slot: 0,
            pos: 0,
            remaining: self.live_edges,
        }
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Insert a fresh node with `label`, returning its id.
    pub fn add_node(&mut self, label: Label) -> NodeId {
        let id = NodeId::from_index(self.labels.len());
        self.labels.push(Some(label));
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        self.label_bucket(label).push(id); // fresh id is the maximum: stays sorted
        self.live_nodes += 1;
        self.mutated();
        id
    }

    /// Delete a live node and all incident edges.
    ///
    /// Returns the removed label and incident edges, from which
    /// [`DataGraph::restore_node`] undoes the operation. The graph keeps
    /// that record until its next successful mutation
    /// ([`DataGraph::last_removed`]): the in- and out-edges are what a
    /// distance index repairs the deletion from.
    pub fn remove_node(&mut self, id: NodeId) -> Result<&RemovedNode> {
        let label = self.label(id).ok_or(GraphError::MissingNode(id))?;
        let out_edges = std::mem::take(&mut self.out[id.index()]);
        let in_edges = std::mem::take(&mut self.inn[id.index()]);
        for &v in &out_edges {
            remove_sorted(&mut self.inn[v.index()], id);
        }
        for &u in &in_edges {
            remove_sorted(&mut self.out[u.index()], id);
        }
        self.live_edges -= out_edges.len() + in_edges.len();
        self.labels[id.index()] = None;
        remove_sorted(&mut self.by_label[label.index()], id);
        self.live_nodes -= 1;
        Ok(self.last_removed.insert(RemovedNode {
            id,
            label,
            out_edges,
            in_edges,
        }))
    }

    /// The node the last successful mutation removed, with the edges that
    /// went with it — `None` when that mutation was anything but a
    /// [`DataGraph::remove_node`]. A failed mutation leaves it as it was;
    /// a clone carries it.
    #[inline]
    pub fn last_removed(&self) -> Option<&RemovedNode> {
        self.last_removed.as_ref()
    }

    /// Insert the edge `u -> v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if u == v {
            return Err(GraphError::SelfLoop);
        }
        if !self.contains(u) {
            return Err(GraphError::MissingNode(u));
        }
        if !self.contains(v) {
            return Err(GraphError::MissingNode(v));
        }
        let adj = &mut self.out[u.index()];
        match adj.binary_search(&v) {
            Ok(_) => return Err(GraphError::DuplicateEdge(u, v)),
            Err(pos) => adj.insert(pos, v),
        }
        let radj = &mut self.inn[v.index()];
        let pos = radj.binary_search(&u).unwrap_err();
        radj.insert(pos, u);
        self.live_edges += 1;
        self.mutated();
        Ok(())
    }

    /// Delete the edge `u -> v`.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if !self.contains(u) {
            return Err(GraphError::MissingNode(u));
        }
        if !self.contains(v) {
            return Err(GraphError::MissingNode(v));
        }
        let adj = &mut self.out[u.index()];
        match adj.binary_search(&v) {
            Ok(pos) => {
                adj.remove(pos);
            }
            Err(_) => return Err(GraphError::MissingEdge(u, v)),
        }
        let radj = &mut self.inn[v.index()];
        let pos = radj
            .binary_search(&u)
            .expect("in-adjacency out of sync with out-adjacency");
        radj.remove(pos);
        self.live_edges -= 1;
        self.mutated();
        Ok(())
    }

    /// Re-insert a node removed by [`DataGraph::remove_node`] *at its old
    /// slot*, restoring its incident edges. Fails if the slot was since
    /// reoccupied (cannot happen — slots are never reused) or any edge
    /// endpoint has been deleted in the meantime.
    pub fn restore_node(&mut self, removed: &RemovedNode) -> Result<()> {
        let idx = removed.id.index();
        if idx >= self.labels.len() || self.labels[idx].is_some() {
            return Err(GraphError::DuplicateEdge(removed.id, removed.id));
        }
        for &v in &removed.out_edges {
            if !self.contains(v) {
                return Err(GraphError::MissingNode(v));
            }
        }
        for &u in &removed.in_edges {
            if !self.contains(u) {
                return Err(GraphError::MissingNode(u));
            }
        }
        self.labels[idx] = Some(removed.label);
        insert_sorted(self.label_bucket(removed.label), removed.id);
        self.live_nodes += 1;
        for &v in &removed.out_edges {
            insert_sorted(&mut self.out[idx], v);
            insert_sorted(&mut self.inn[v.index()], removed.id);
        }
        for &u in &removed.in_edges {
            insert_sorted(&mut self.inn[idx], u);
            insert_sorted(&mut self.out[u.index()], removed.id);
        }
        self.live_edges += removed.out_edges.len() + removed.in_edges.len();
        self.mutated();
        Ok(())
    }

    /// Bulk-load edges of the form `(u, v)` over pre-created nodes.
    ///
    /// Duplicate edges and self-loops are skipped (real-world edge lists
    /// such as the SNAP dumps contain both); returns the number inserted.
    pub fn add_edges_lenient<I>(&mut self, edges: I) -> usize
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut inserted = 0;
        for (u, v) in edges {
            if self.add_edge(u, v).is_ok() {
                inserted += 1;
            }
        }
        inserted
    }

    /// Book a successful mutation other than a node removal: no removal
    /// record.
    fn mutated(&mut self) {
        self.last_removed = None;
    }

    fn label_bucket(&mut self, label: Label) -> &mut Vec<NodeId> {
        if label.index() >= self.by_label.len() {
            self.by_label.resize_with(label.index() + 1, Vec::new);
        }
        &mut self.by_label[label.index()]
    }

    /// Verify internal invariants (sorted adjacency, mirror consistency,
    /// counters). Used by tests and debug assertions only — O(n + m log m).
    pub fn check_invariants(&self) -> bool {
        let mut edges = 0;
        for (i, adj) in self.out.iter().enumerate() {
            if !adj.windows(2).all(|w| w[0] < w[1]) {
                return false;
            }
            if self.labels[i].is_none() && !adj.is_empty() {
                return false;
            }
            edges += adj.len();
            for &v in adj {
                if self.inn[v.index()]
                    .binary_search(&NodeId::from_index(i))
                    .is_err()
                {
                    return false;
                }
            }
        }
        if edges != self.live_edges {
            return false;
        }
        let live = self.labels.iter().filter(|l| l.is_some()).count();
        if live != self.live_nodes {
            return false;
        }
        for (lid, bucket) in self.by_label.iter().enumerate() {
            if !bucket.windows(2).all(|w| w[0] < w[1]) {
                return false;
            }
            for &n in bucket {
                if self.label(n) != Some(Label::from_index(lid)) {
                    return false;
                }
            }
        }
        true
    }
}

fn remove_sorted(v: &mut Vec<NodeId>, item: NodeId) {
    if let Ok(pos) = v.binary_search(&item) {
        v.remove(pos);
    }
}

fn insert_sorted(v: &mut Vec<NodeId>, item: NodeId) {
    if let Err(pos) = v.binary_search(&item) {
        v.insert(pos, item);
    }
}

/// Iterator over live node ids. See [`DataGraph::nodes`].
pub struct NodeIter<'g> {
    labels: &'g [Option<Label>],
    next: usize,
    /// Live nodes not yet yielded — every live slot sits at index ≥ `next`,
    /// so the remaining count is exact and `collect` pre-allocates.
    remaining: usize,
}

impl Iterator for NodeIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.next < self.labels.len() {
            let idx = self.next;
            self.next += 1;
            if self.labels[idx].is_some() {
                self.remaining -= 1;
                return Some(NodeId::from_index(idx));
            }
        }
        None
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for NodeIter<'_> {}

impl std::iter::FusedIterator for NodeIter<'_> {}

/// Iterator over live edges. See [`DataGraph::edges`].
pub struct EdgeIter<'g> {
    graph: &'g DataGraph,
    slot: usize,
    pos: usize,
    /// Live edges not yet yielded (exact; see [`NodeIter::size_hint`]).
    remaining: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        while self.slot < self.graph.out.len() {
            let adj = &self.graph.out[self.slot];
            if self.pos < adj.len() {
                let item = (NodeId::from_index(self.slot), adj[self.pos]);
                self.pos += 1;
                self.remaining -= 1;
                return Some(item);
            }
            self.slot += 1;
            self.pos = 0;
        }
        None
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for EdgeIter<'_> {}

impl std::iter::FusedIterator for EdgeIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelInterner;

    fn two_labels() -> (LabelInterner, Label, Label) {
        let mut li = LabelInterner::new();
        let a = li.intern("A");
        let b = li.intern("B");
        (li, a, b)
    }

    #[test]
    fn add_nodes_and_edges() {
        let (_, a, b) = two_labels();
        let mut g = DataGraph::new();
        let n0 = g.add_node(a);
        let n1 = g.add_node(b);
        let n2 = g.add_node(a);
        g.add_edge(n0, n1).unwrap();
        g.add_edge(n1, n2).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(n0, n1));
        assert!(!g.has_edge(n1, n0));
        assert_eq!(g.out_neighbors(n1), &[n2]);
        assert_eq!(g.in_neighbors(n1), &[n0]);
        assert!(g.check_invariants());
    }

    #[test]
    fn label_index_tracks_membership() {
        let (_, a, b) = two_labels();
        let mut g = DataGraph::new();
        let n0 = g.add_node(a);
        let n1 = g.add_node(a);
        let n2 = g.add_node(b);
        assert_eq!(g.nodes_with_label(a), &[n0, n1]);
        assert_eq!(g.nodes_with_label(b), &[n2]);
        g.remove_node(n0).unwrap();
        assert_eq!(g.nodes_with_label(a), &[n1]);
    }

    #[test]
    fn duplicate_edge_rejected() {
        let (_, a, _) = two_labels();
        let mut g = DataGraph::new();
        let n0 = g.add_node(a);
        let n1 = g.add_node(a);
        g.add_edge(n0, n1).unwrap();
        assert_eq!(g.add_edge(n0, n1), Err(GraphError::DuplicateEdge(n0, n1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let (_, a, _) = two_labels();
        let mut g = DataGraph::new();
        let n0 = g.add_node(a);
        assert_eq!(g.add_edge(n0, n0), Err(GraphError::SelfLoop));
    }

    #[test]
    fn missing_endpoints_rejected() {
        let (_, a, _) = two_labels();
        let mut g = DataGraph::new();
        let n0 = g.add_node(a);
        let ghost = NodeId(77);
        assert_eq!(g.add_edge(n0, ghost), Err(GraphError::MissingNode(ghost)));
        assert_eq!(
            g.remove_edge(ghost, n0),
            Err(GraphError::MissingNode(ghost))
        );
    }

    #[test]
    fn remove_edge_and_missing_edge() {
        let (_, a, _) = two_labels();
        let mut g = DataGraph::new();
        let n0 = g.add_node(a);
        let n1 = g.add_node(a);
        g.add_edge(n0, n1).unwrap();
        g.remove_edge(n0, n1).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.remove_edge(n0, n1), Err(GraphError::MissingEdge(n0, n1)));
        assert!(g.check_invariants());
    }

    #[test]
    fn remove_node_tombstones_slot_and_drops_incident_edges() {
        let (_, a, b) = two_labels();
        let mut g = DataGraph::new();
        let n0 = g.add_node(a);
        let n1 = g.add_node(b);
        let n2 = g.add_node(a);
        g.add_edge(n0, n1).unwrap();
        g.add_edge(n1, n2).unwrap();
        g.add_edge(n2, n0).unwrap();
        let removed = g.remove_node(n1).unwrap();
        assert_eq!(removed.label, b);
        assert_eq!(removed.out_edges, vec![n2]);
        assert_eq!(removed.in_edges, vec![n0]);
        assert!(!g.contains(n1));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.slot_count(), 3, "slot must remain allocated");
        // Ids are never reused.
        let n3 = g.add_node(b);
        assert_eq!(n3, NodeId(3));
        assert!(g.check_invariants());
    }

    #[test]
    fn restore_node_round_trips() {
        let (_, a, b) = two_labels();
        let mut g = DataGraph::new();
        let n0 = g.add_node(a);
        let n1 = g.add_node(b);
        let n2 = g.add_node(a);
        g.add_edge(n0, n1).unwrap();
        g.add_edge(n1, n2).unwrap();
        let snapshot = g.clone();
        let removed = g.remove_node(n1).unwrap().clone();
        g.restore_node(&removed).unwrap();
        assert_eq!(g.node_count(), snapshot.node_count());
        assert_eq!(g.edge_count(), snapshot.edge_count());
        assert!(g.has_edge(n0, n1) && g.has_edge(n1, n2));
        assert!(g.check_invariants());
    }

    #[test]
    fn operations_on_tombstone_fail() {
        let (_, a, _) = two_labels();
        let mut g = DataGraph::new();
        let n0 = g.add_node(a);
        let n1 = g.add_node(a);
        g.remove_node(n0).unwrap();
        assert_eq!(g.add_edge(n0, n1), Err(GraphError::MissingNode(n0)));
        assert_eq!(g.remove_node(n0), Err(GraphError::MissingNode(n0)));
        assert_eq!(g.label(n0), None);
    }

    #[test]
    fn node_and_edge_iterators_skip_tombstones() {
        let (_, a, _) = two_labels();
        let mut g = DataGraph::new();
        let n0 = g.add_node(a);
        let n1 = g.add_node(a);
        let n2 = g.add_node(a);
        g.add_edge(n0, n1).unwrap();
        g.add_edge(n1, n2).unwrap();
        g.remove_node(n1).unwrap();
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![n0, n2]);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn iterators_report_exact_size() {
        let (_, a, _) = two_labels();
        let mut g = DataGraph::new();
        let n0 = g.add_node(a);
        let n1 = g.add_node(a);
        let n2 = g.add_node(a);
        g.add_edge(n0, n1).unwrap();
        g.add_edge(n1, n2).unwrap();
        g.remove_node(n0).unwrap();
        let mut nodes = g.nodes();
        assert_eq!(nodes.size_hint(), (2, Some(2)));
        assert_eq!(nodes.len(), 2);
        nodes.next();
        assert_eq!(nodes.size_hint(), (1, Some(1)));
        let mut edges = g.edges();
        assert_eq!(edges.size_hint(), (1, Some(1)));
        edges.next();
        assert_eq!(edges.size_hint(), (0, Some(0)));
        assert_eq!(edges.next(), None);
    }

    #[test]
    fn lenient_bulk_load_skips_bad_edges() {
        let (_, a, _) = two_labels();
        let mut g = DataGraph::new();
        let n0 = g.add_node(a);
        let n1 = g.add_node(a);
        let inserted = g.add_edges_lenient(vec![(n0, n1), (n0, n1), (n0, n0), (n1, n0)]);
        assert_eq!(inserted, 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn failed_mutation_leaves_graph_unchanged() {
        let (_, a, _) = two_labels();
        let mut g = DataGraph::new();
        let n0 = g.add_node(a);
        let n1 = g.add_node(a);
        g.add_edge(n0, n1).unwrap();
        let before = g.clone();
        let _ = g.add_edge(n0, n1);
        let _ = g.remove_edge(n1, n0);
        let _ = g.remove_node(NodeId(99));
        assert_eq!(g.edge_count(), before.edge_count());
        assert_eq!(g.node_count(), before.node_count());
        assert!(g.check_invariants());
    }

    /// `n0 -> n1 -> n2 -> n3`, then `n1` removed.
    fn path_without_n1() -> (DataGraph, [NodeId; 4], RemovedNode) {
        let (_, a, b) = two_labels();
        let mut g = DataGraph::new();
        let n = [a, b, a, a].map(|l| g.add_node(l));
        for w in n.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        assert_eq!(g.last_removed(), None);
        let removed = g.remove_node(n[1]).unwrap().clone();
        let expected = RemovedNode {
            id: n[1],
            label: b,
            out_edges: vec![n[2]],
            in_edges: vec![n[0]],
        };
        assert_eq!(removed, expected);
        (g, n, removed)
    }

    #[test]
    fn last_removed_lives_until_the_next_successful_mutation() {
        let (mut g, [n0, n1, n2, _], removed) = path_without_n1();
        assert_eq!(g.last_removed(), Some(&removed), "remove_node sets it");
        assert_eq!(
            g.clone().last_removed(),
            Some(&removed),
            "a clone carries it"
        );
        // A failed mutation leaves the record and the graph untouched.
        assert!(g.add_edge(n0, n0).is_err());
        assert!(g.add_edge(n0, n1).is_err());
        assert!(g.remove_edge(n0, n2).is_err());
        assert!(g.remove_node(n1).is_err());
        let taken = RemovedNode {
            id: n0,
            ..removed.clone()
        };
        assert!(g.restore_node(&taken).is_err(), "slot still live");
        assert_eq!(g.last_removed(), Some(&removed));
        assert_eq!((g.node_count(), g.edge_count()), (3, 1));
        // Every other successful mutation clears it.
        type Mutation = fn(&mut DataGraph, [NodeId; 4]);
        let others: [(&str, Mutation); 4] = [
            ("add_node", |g, _| {
                g.add_node(Label(0));
            }),
            ("add_edge", |g, [n0, _, n2, _]| g.add_edge(n0, n2).unwrap()),
            ("remove_edge", |g, [_, _, n2, n3]| {
                g.remove_edge(n2, n3).unwrap()
            }),
            ("restore_node", |g, _| {
                let removed = g.last_removed().unwrap().clone();
                g.restore_node(&removed).unwrap();
            }),
        ];
        for (what, mutate) in others {
            let (mut g, n, _) = path_without_n1();
            mutate(&mut g, n);
            assert_eq!(g.last_removed(), None, "{what} clears it");
            assert!(g.check_invariants());
        }
    }
}
