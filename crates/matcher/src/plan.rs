//! Description of the incremental work one repair call must do.

use gpnm_graph::{NodeId, NodeSet, PatternNodeId};

/// What [`crate::repair`] must re-establish.
///
/// Built by the engine from an update's candidate/affected sets:
///
/// * `verify` — data nodes whose current memberships must be re-checked
///   (the update's `Can_RN`/`Aff_N` dirty set). Removal cascades beyond
///   this set are handled inside the repair.
/// * `gains` — the *root gains* of a data update: `(u, x)` pairs that
///   may newly match because one of `x`'s distances crossed a bound of
///   `u` (or because `x` is a fresh node of `u`'s label). The repair
///   grows each pattern node's candidates from these and from the
///   backward balls of the candidates it depends on (see
///   [`crate::repair`]).
/// * `addition_sources` — pattern nodes any member of whose label may be
///   gained: a deleted pattern edge, an inserted pattern node, or the
///   neighbours of a deleted one. Pattern updates only; the repair seeds
///   these from their whole label class.
#[derive(Debug, Clone, Default)]
pub struct RepairPlan {
    /// Data nodes to re-verify for removal.
    pub verify: NodeSet,
    /// `(pattern node, data node)` pairs that may newly match.
    pub gains: Vec<(PatternNodeId, NodeId)>,
    /// Pattern nodes whose whole label class may gain members.
    pub addition_sources: Vec<PatternNodeId>,
}

impl RepairPlan {
    /// A plan with nothing to do.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan is a no-op.
    pub fn is_empty(&self) -> bool {
        self.verify.is_empty() && self.gains.is_empty() && self.addition_sources.is_empty()
    }

    /// Merge `other`'s additions (gains and sources) into `self`, leaving
    /// `verify` alone — what a pass that pairs one update's `verify` set
    /// with a whole batch's additions needs. A repeated gain costs
    /// nothing (candidates are a set), so gains are appended as they are.
    pub fn merge_additions(&mut self, other: &RepairPlan) {
        self.gains.extend_from_slice(&other.gains);
        for &p in &other.addition_sources {
            if !self.addition_sources.contains(&p) {
                self.addition_sources.push(p);
            }
        }
    }

    /// Merge `other` into `self` (union of dirty work).
    pub fn merge(&mut self, other: &RepairPlan) {
        self.verify.union_with(&other.verify);
        self.merge_additions(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        a.gains.push((PatternNodeId(2), NodeId(5)));
        let mut b = RepairPlan::new();
        b.verify.insert(NodeId(2));
        b.addition_sources.push(PatternNodeId(0));
        b.addition_sources.push(PatternNodeId(1));
        b.gains.push((PatternNodeId(3), NodeId(6)));
        a.merge(&b);
        assert_eq!(a.verify.len(), 2);
        assert_eq!(a.addition_sources, vec![PatternNodeId(0), PatternNodeId(1)]);
        assert_eq!(
            a.gains,
            vec![(PatternNodeId(2), NodeId(5)), (PatternNodeId(3), NodeId(6))]
        );
    }

    #[test]
    fn merge_additions_leaves_verify_alone() {
        let mut a = RepairPlan::new();
        let mut b = RepairPlan::new();
        b.verify.insert(NodeId(2));
        b.gains.push((PatternNodeId(0), NodeId(2)));
        a.merge_additions(&b);
        assert!(a.verify.is_empty());
        assert!(!a.is_empty(), "a gain alone is work");
    }
}
