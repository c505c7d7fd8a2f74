//! Description of the incremental work one repair call must do.

use gpnm_graph::{NodeSet, PatternNodeId};

/// What [`crate::repair`] must re-establish.
///
/// Built by the engine from an update's candidate/affected sets:
///
/// * `verify` — data nodes whose current memberships must be re-checked
///   (the update's `Can_RN`/`Aff_N` dirty set). Removal cascades beyond
///   this set are handled inside the repair.
/// * `addition_sources` — pattern nodes that may *gain* members (a deleted
///   pattern edge, an inserted pattern node, or a data update that
///   shortened a distance across one of the node's bounds). The repair
///   re-seeds these — and every pattern node that transitively depends
///   on them — from full label candidates, because additions cascade (a
///   new partner can legitimize a node that was previously out).
#[derive(Debug, Clone, Default)]
pub struct RepairPlan {
    /// Data nodes to re-verify for removal.
    pub verify: NodeSet,
    /// Pattern nodes that may gain members.
    pub addition_sources: Vec<PatternNodeId>,
}

impl RepairPlan {
    /// A plan with nothing to do.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan is a no-op.
    pub fn is_empty(&self) -> bool {
        self.verify.is_empty() && self.addition_sources.is_empty()
    }

    /// Merge `other` into `self` (union of dirty work).
    pub fn merge(&mut self, other: &RepairPlan) {
        self.verify.union_with(&other.verify);
        for &p in &other.addition_sources {
            if !self.addition_sources.contains(&p) {
                self.addition_sources.push(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_graph::NodeId;

    #[test]
    fn empty_plan() {
        let p = RepairPlan::new();
        assert!(p.is_empty());
    }

    #[test]
    fn merge_unions_both_parts() {
        let mut a = RepairPlan::new();
        a.verify.insert(NodeId(1));
        a.addition_sources.push(PatternNodeId(0));
        let mut b = RepairPlan::new();
        b.verify.insert(NodeId(2));
        b.addition_sources.push(PatternNodeId(0));
        b.addition_sources.push(PatternNodeId(1));
        a.merge(&b);
        assert_eq!(a.verify.len(), 2);
        assert_eq!(a.addition_sources, vec![PatternNodeId(0), PatternNodeId(1)]);
    }
}
