//! The effect of one update on `SLen`: changed pairs and affected nodes.

use gpnm_graph::{NodeId, NodeSet};

/// Distance changes caused by a single data-graph update.
///
/// This is the paper's `AFF[ui, vj] = [a, b]` notation (Table II) plus the
/// derived `Aff_N(UDi)` set of §IV-A Type II: a node is *affected* iff it is
/// an endpoint of some pair whose shortest path length changed.
#[derive(Debug, Clone, Default)]
pub struct AffDelta {
    /// `(u, v, old, new)` for every pair whose distance changed.
    pub changed: Vec<(NodeId, NodeId, u32, u32)>,
    /// Endpoints of changed pairs — `Aff_N`.
    pub affected: NodeSet,
}

impl AffDelta {
    /// An empty delta (update had no distance effect).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `d(u, v)` changed from `old` to `new`.
    pub fn record(&mut self, u: NodeId, v: NodeId, old: u32, new: u32) {
        debug_assert_ne!(old, new, "recorded a non-change");
        self.changed.push((u, v, old, new));
        self.affected.insert(u);
        self.affected.insert(v);
    }

    /// Whether the update changed any distance.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }

    /// Number of changed pairs.
    pub fn len(&self) -> usize {
        self.changed.len()
    }

    /// Merge another delta into this one (used when one logical update
    /// expands to several primitive ops, e.g. node deletion = delete all
    /// incident edges + clear the slot).
    pub fn merge(&mut self, other: AffDelta) {
        self.changed.extend(other.changed);
        self.affected.union_with(&other.affected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::INF;

    #[test]
    fn record_tracks_endpoints() {
        let mut d = AffDelta::new();
        d.record(NodeId(1), NodeId(2), INF, 3);
        d.record(NodeId(1), NodeId(4), 5, 4);
        assert_eq!(d.len(), 2);
        let members: Vec<_> = d.affected.iter().collect();
        assert_eq!(members, vec![NodeId(1), NodeId(2), NodeId(4)]);
    }

    #[test]
    fn merge_unions_affected() {
        let mut a = AffDelta::new();
        a.record(NodeId(0), NodeId(1), INF, 1);
        let mut b = AffDelta::new();
        b.record(NodeId(2), NodeId(3), 4, 2);
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.affected.len(), 4);
    }

    #[test]
    fn empty_delta() {
        let d = AffDelta::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
