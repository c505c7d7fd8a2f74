//! Ordered batches of updates with apply support.

use std::collections::{HashMap, HashSet};

use gpnm_graph::{DataGraph, GraphError, NodeId, PatternGraph, PatternNodeId};

use crate::update::{DataUpdate, PatternUpdate, Update};

/// What applying one update produced — enough to report and to predict ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppliedUpdate {
    /// An edge changed (either graph).
    Edge,
    /// A data node was created with this id.
    CreatedData(NodeId),
    /// A pattern node was created with this id.
    CreatedPattern(PatternNodeId),
    /// A data node was removed.
    RemovedData(NodeId),
    /// A pattern node was removed.
    RemovedPattern(PatternNodeId),
}

/// An ordered sequence of updates — the `ΔG(ΔGP, ΔGD)` of the experiments.
///
/// Order matters: later updates may reference nodes created earlier
/// (created ids are deterministic: the next free slot).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateBatch {
    updates: Vec<Update>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a list.
    pub fn from_updates(updates: Vec<Update>) -> Self {
        UpdateBatch { updates }
    }

    /// Append an update.
    pub fn push(&mut self, u: impl Into<Update>) {
        self.updates.push(u.into());
    }

    /// All updates in order.
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// Number of updates (`|ΔG|`).
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Apply the whole batch to both graphs, in order. Fails fast on the
    /// first invalid update, leaving the graphs in the partially-updated
    /// state (callers that need atomicity validate on clones first).
    pub fn apply_all(
        &self,
        graph: &mut DataGraph,
        pattern: &mut PatternGraph,
    ) -> Result<Vec<AppliedUpdate>, GraphError> {
        let mut applied = Vec::with_capacity(self.updates.len());
        for u in &self.updates {
            applied.push(match u {
                Update::Data(d) => apply_data(d, graph)?,
                Update::Pattern(p) => apply_pattern(p, pattern)?,
            });
        }
        Ok(applied)
    }

    /// Validate the batch without touching the originals. Returns the first
    /// error, if any — validation never panics, whatever the batch contains.
    ///
    /// Data updates are checked against an `O(batch)`-memory overlay of the
    /// borrowed graph rather than a clone — cloning a 10M-node graph per
    /// validation is exactly the kind of transient doubling the out-of-core
    /// backend exists to avoid. Pattern graphs are a handful of nodes, so
    /// the pattern side still validates on a clone.
    pub fn validate(&self, graph: &DataGraph, pattern: &PatternGraph) -> Result<(), GraphError> {
        let mut overlay = DataOverlay::new(graph);
        let mut p = pattern.clone();
        for u in &self.updates {
            match u {
                Update::Data(d) => overlay.check(d)?,
                Update::Pattern(pu) => {
                    apply_pattern(pu, &mut p)?;
                }
            }
        }
        Ok(())
    }

    /// Index of the first pattern update, if any — the check a data-only
    /// consumer (the multi-pattern service, which has no single "the
    /// pattern" to route a pattern update to) runs before
    /// [`UpdateBatch::validate_data`].
    pub fn first_pattern_update(&self) -> Option<usize> {
        self.updates.iter().position(|u| u.is_pattern())
    }

    /// Validate the batch's *data* updates against `graph` alone, without
    /// needing a pattern graph. Pattern updates are ignored (callers that
    /// must reject them check [`UpdateBatch::first_pattern_update`] first);
    /// the pattern and data id spaces are disjoint, so skipping them cannot
    /// change a data update's validity. Clone-free, like
    /// [`UpdateBatch::validate`].
    pub fn validate_data(&self, graph: &DataGraph) -> Result<(), GraphError> {
        let mut overlay = DataOverlay::new(graph);
        for u in &self.updates {
            if let Update::Data(d) = u {
                overlay.check(d)?;
            }
        }
        Ok(())
    }
}

/// Batch-local view of a [`DataGraph`] for validation: the base graph stays
/// borrowed and untouched, and only the batch's own mutations are tracked —
/// `O(batch)` memory where a clone would be `O(graph)`.
///
/// Soundness leans on two [`DataGraph`] guarantees: node slots are never
/// reused (so the id of the k-th inserted node is exactly
/// `slot_count + k`, and a deleted node can never come back to resurrect
/// an edge override), and [`DataGraph::add_node`] is infallible. Error
/// values and their precedence mirror [`DataGraph::add_edge`] /
/// [`DataGraph::remove_edge`] / [`DataGraph::remove_node`] exactly, so the
/// first error reported equals what applying the batch would hit.
struct DataOverlay<'g> {
    base: &'g DataGraph,
    /// Predicted id index of the next inserted node.
    next_slot: usize,
    /// Nodes (base or batch-inserted) deleted by this batch.
    deleted: HashSet<NodeId>,
    /// Batch-local edge presence overrides (`true` = inserted, `false` =
    /// deleted); absent entries defer to the base graph.
    edges: HashMap<(NodeId, NodeId), bool>,
}

impl<'g> DataOverlay<'g> {
    fn new(base: &'g DataGraph) -> Self {
        DataOverlay {
            base,
            next_slot: base.slot_count(),
            deleted: HashSet::new(),
            edges: HashMap::new(),
        }
    }

    fn live(&self, id: NodeId) -> bool {
        if self.deleted.contains(&id) {
            return false;
        }
        if id.index() >= self.base.slot_count() {
            id.index() < self.next_slot
        } else {
            self.base.contains(id)
        }
    }

    /// Edge presence as the partially-applied batch would see it. Callers
    /// check endpoint liveness first (a deleted endpoint's overrides are
    /// stale, and slots never revive to expose them).
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edges
            .get(&(u, v))
            .copied()
            .unwrap_or_else(|| self.base.has_edge(u, v))
    }

    /// Validate one data update and fold it into the overlay.
    fn check(&mut self, update: &DataUpdate) -> Result<(), GraphError> {
        match *update {
            DataUpdate::InsertEdge { from, to } => {
                if from == to {
                    return Err(GraphError::SelfLoop);
                }
                if !self.live(from) {
                    return Err(GraphError::MissingNode(from));
                }
                if !self.live(to) {
                    return Err(GraphError::MissingNode(to));
                }
                if self.has_edge(from, to) {
                    return Err(GraphError::DuplicateEdge(from, to));
                }
                self.edges.insert((from, to), true);
            }
            DataUpdate::DeleteEdge { from, to } => {
                if !self.live(from) {
                    return Err(GraphError::MissingNode(from));
                }
                if !self.live(to) {
                    return Err(GraphError::MissingNode(to));
                }
                if !self.has_edge(from, to) {
                    return Err(GraphError::MissingEdge(from, to));
                }
                self.edges.insert((from, to), false);
            }
            DataUpdate::InsertNode { .. } => {
                self.next_slot += 1;
            }
            DataUpdate::DeleteNode { node } => {
                if !self.live(node) {
                    return Err(GraphError::MissingNode(node));
                }
                self.deleted.insert(node);
            }
        }
        Ok(())
    }
}

/// Apply one data update.
pub(crate) fn apply_data(
    update: &DataUpdate,
    graph: &mut DataGraph,
) -> Result<AppliedUpdate, GraphError> {
    match *update {
        DataUpdate::InsertEdge { from, to } => {
            graph.add_edge(from, to)?;
            Ok(AppliedUpdate::Edge)
        }
        DataUpdate::DeleteEdge { from, to } => {
            graph.remove_edge(from, to)?;
            Ok(AppliedUpdate::Edge)
        }
        DataUpdate::InsertNode { label } => Ok(AppliedUpdate::CreatedData(graph.add_node(label))),
        DataUpdate::DeleteNode { node } => {
            graph.remove_node(node)?;
            Ok(AppliedUpdate::RemovedData(node))
        }
    }
}

/// Apply one pattern update.
pub(crate) fn apply_pattern(
    update: &PatternUpdate,
    pattern: &mut PatternGraph,
) -> Result<AppliedUpdate, GraphError> {
    match *update {
        PatternUpdate::InsertEdge { from, to, bound } => {
            pattern.add_edge(from, to, bound)?;
            Ok(AppliedUpdate::Edge)
        }
        PatternUpdate::DeleteEdge { from, to } => {
            pattern.remove_edge(from, to)?;
            Ok(AppliedUpdate::Edge)
        }
        PatternUpdate::InsertNode { label } => {
            Ok(AppliedUpdate::CreatedPattern(pattern.add_node(label)))
        }
        PatternUpdate::DeleteNode { node } => {
            pattern.remove_node(node)?;
            Ok(AppliedUpdate::RemovedPattern(node))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_graph::paper::fig1;
    use gpnm_graph::Bound;

    #[test]
    fn apply_example2_batch() {
        // Example 6: UP1, UP2, UD1, UD2.
        let mut f = fig1();
        let mut batch = UpdateBatch::new();
        batch.push(PatternUpdate::InsertEdge {
            from: f.p_pm,
            to: f.p_te,
            bound: Bound::Hops(2),
        });
        batch.push(PatternUpdate::InsertEdge {
            from: f.p_s,
            to: f.p_te,
            bound: Bound::Hops(4),
        });
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        batch.push(DataUpdate::InsertEdge {
            from: f.db1,
            to: f.s1,
        });
        assert_eq!(batch.len(), 4);
        batch.validate(&f.graph, &f.pattern).unwrap();
        batch.apply_all(&mut f.graph, &mut f.pattern).unwrap();
        assert!(f.graph.has_edge(f.se1, f.te2));
        assert!(f.graph.has_edge(f.db1, f.s1));
        assert_eq!(f.pattern.bound(f.p_pm, f.p_te), Some(Bound::Hops(2)));
        assert_eq!(f.pattern.bound(f.p_s, f.p_te), Some(Bound::Hops(4)));
    }

    #[test]
    fn batch_can_reference_created_nodes() {
        let mut f = fig1();
        let se = f.interner.get("SE").unwrap();
        // The id the insert will produce is the next slot.
        let predicted = NodeId::from_index(f.graph.slot_count());
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertNode { label: se });
        batch.push(DataUpdate::InsertEdge {
            from: predicted,
            to: f.te1,
        });
        let applied = batch.apply_all(&mut f.graph, &mut f.pattern).unwrap();
        assert_eq!(applied[0], AppliedUpdate::CreatedData(predicted));
        assert!(f.graph.has_edge(predicted, f.te1));
    }

    #[test]
    fn invalid_update_fails_fast() {
        let mut f = fig1();
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.pm1,
            to: f.se2, // already exists
        });
        assert!(batch.validate(&f.graph, &f.pattern).is_err());
        let err = batch.apply_all(&mut f.graph, &mut f.pattern);
        assert!(err.is_err());
    }

    #[test]
    fn validate_data_ignores_pattern_updates() {
        let f = fig1();
        let mut batch = UpdateBatch::new();
        batch.push(PatternUpdate::InsertEdge {
            from: f.p_pm,
            to: f.p_te,
            bound: Bound::Hops(2),
        });
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        assert_eq!(batch.first_pattern_update(), Some(0));
        batch.validate_data(&f.graph).expect("data side is valid");
        // An invalid data update still surfaces.
        let mut bad = UpdateBatch::new();
        bad.push(DataUpdate::InsertEdge {
            from: f.pm1,
            to: f.se2, // exists
        });
        assert!(bad.first_pattern_update().is_none());
        assert!(bad.validate_data(&f.graph).is_err());
    }

    #[test]
    fn validate_leaves_originals_untouched() {
        let f = fig1();
        let se = f.interner.get("SE").unwrap();
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertNode { label: se });
        let before_nodes = f.graph.node_count();
        batch.validate(&f.graph, &f.pattern).unwrap();
        assert_eq!(f.graph.node_count(), before_nodes);
    }

    /// The overlay validator must agree with the ground truth — applying
    /// the batch to clones — on the exact first error, across random
    /// batches that deliberately mix valid updates with self-loops,
    /// duplicate/missing edges, dead and not-yet-created node references,
    /// and inserts chained onto batch-created nodes.
    #[test]
    fn overlay_validation_matches_clone_apply() {
        use gpnm_graph::Label;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x0E71A);
        for round in 0..300 {
            // A small random graph with a few tombstoned slots.
            let mut g = DataGraph::new();
            let nodes: Vec<NodeId> = (0..rng.gen_range(4..14))
                .map(|i| g.add_node(Label(i % 3)))
                .collect();
            for _ in 0..rng.gen_range(0..30) {
                let u = nodes[rng.gen_range(0..nodes.len())];
                let v = nodes[rng.gen_range(0..nodes.len())];
                let _ = g.add_edge(u, v);
            }
            if rng.gen_bool(0.5) {
                let _ = g.remove_node(nodes[rng.gen_range(0..nodes.len())]);
            }
            let pattern = PatternGraph::new();

            // Ids range past slot_count so batches can reference both
            // batch-created slots and never-created ones.
            let id_space = g.slot_count() + 3;
            let mut batch = UpdateBatch::new();
            for _ in 0..rng.gen_range(1..12) {
                let u = NodeId::from_index(rng.gen_range(0..id_space));
                let v = NodeId::from_index(rng.gen_range(0..id_space));
                match rng.gen_range(0..4) {
                    0 => batch.push(DataUpdate::InsertEdge { from: u, to: v }),
                    1 => batch.push(DataUpdate::DeleteEdge { from: u, to: v }),
                    2 => batch.push(DataUpdate::InsertNode {
                        label: Label(rng.gen_range(0..3)),
                    }),
                    _ => batch.push(DataUpdate::DeleteNode { node: u }),
                }
            }

            let reference = {
                let mut g2 = g.clone();
                let mut p2 = pattern.clone();
                batch.apply_all(&mut g2, &mut p2).map(|_| ())
            };
            assert_eq!(
                batch.validate(&g, &pattern),
                reference,
                "overlay diverged from clone-apply on round {round}: {batch:?}"
            );
            assert_eq!(
                batch.validate_data(&g),
                reference,
                "validate_data diverged on a data-only batch, round {round}"
            );
        }
    }
}
