//! Result deltas: what one tick changed in a pattern's match sets.

use gpnm_graph::{NodeId, PatternNodeId};

use crate::result::MatchResult;

/// The difference between two [`MatchResult`]s, as explicit
/// `(pattern node, data node)` pairs — the continuous-query answer shape:
/// a standing-query subscriber wants *what changed*, not the full table.
///
/// Invariant (checked by the service equivalence suite):
/// `new = added ∪ (prev ∖ removed)`, with `added ∩ prev = ∅` and
/// `removed ⊆ prev` — see [`MatchDelta::apply_to`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchDelta {
    /// Pairs present now but not before, ascending by (slot, node).
    pub added: Vec<(PatternNodeId, NodeId)>,
    /// Pairs present before but not now, ascending by (slot, node).
    pub removed: Vec<(PatternNodeId, NodeId)>,
    /// Monotone version of the result this delta advances *to*; version
    /// `v` is reconstructed by applying deltas `1..=v` in order to the
    /// initial (version-0) result.
    pub result_version: u64,
}

impl MatchDelta {
    /// Whether the tick changed nothing for this pattern.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total changed pairs.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Fold `next` (the delta of the following tick) into `self`, yielding
    /// one delta spanning both ticks: applying the composition to the
    /// pre-`self` result equals applying `self` then `next`.
    ///
    /// With states `S0 →(self) S1 →(next) S2`, a pair is net-added iff it
    /// was added by one tick and not taken back by the other —
    /// `(A₁ ∖ R₂) ∪ (A₂ ∖ R₁)` — and symmetrically for net-removed. The
    /// two unions are disjoint because a pair cannot be added (or removed)
    /// by both ticks. Composition is how a lagging subscription coalesces
    /// the per-tick deltas a slow consumer missed into one
    /// catch-up delta.
    pub fn compose(&self, next: &MatchDelta) -> MatchDelta {
        let sorted = |pairs: &[(PatternNodeId, NodeId)]| {
            let mut v = pairs.to_vec();
            v.sort_unstable();
            v
        };
        let (a1, r1) = (sorted(&self.added), sorted(&self.removed));
        let (a2, r2) = (sorted(&next.added), sorted(&next.removed));
        let minus = |keep: &[(PatternNodeId, NodeId)], drop: &[(PatternNodeId, NodeId)]| {
            keep.iter()
                .copied()
                .filter(|p| drop.binary_search(p).is_err())
                .collect::<Vec<_>>()
        };
        let mut added = minus(&a1, &r2);
        added.extend(minus(&a2, &r1));
        added.sort_unstable();
        let mut removed = minus(&r1, &a2);
        removed.extend(minus(&r2, &a1));
        removed.sort_unstable();
        MatchDelta {
            added,
            removed,
            result_version: next.result_version,
        }
    }

    /// Reconstruct the post-tick result from the pre-tick one:
    /// `added ∪ (prev ∖ removed)`.
    pub fn apply_to(&self, prev: &MatchResult) -> MatchResult {
        let mut next = prev.visible();
        if let Some(max_slot) = self.added.iter().map(|&(p, _)| p.index()).max() {
            next.grow(max_slot + 1);
        }
        for &(p, v) in &self.removed {
            next.set_mut(p).remove(v);
        }
        for &(p, v) in &self.added {
            next.set_mut(p).insert(v);
        }
        next
    }
}

impl MatchResult {
    /// The delta from `prev` to `self`, stamped `result_version`.
    pub fn delta_from(&self, prev: &MatchResult, result_version: u64) -> MatchDelta {
        let mut delta = MatchDelta {
            result_version,
            ..Default::default()
        };
        for (p, v, added) in prev.diff(self) {
            if added {
                delta.added.push((p, v));
            } else {
                delta.removed.push((p, v));
            }
        }
        delta.added.sort_unstable();
        delta.removed.sort_unstable();
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_graph::{LabelInterner, PatternGraph};

    fn pattern2() -> PatternGraph {
        let mut li = LabelInterner::new();
        let a = li.intern("A");
        let b = li.intern("B");
        let mut p = PatternGraph::new();
        p.add_node(a);
        p.add_node(b);
        p
    }

    #[test]
    fn delta_round_trips() {
        let p = pattern2();
        let mut prev = MatchResult::for_pattern(&p);
        prev.set_mut(PatternNodeId(0)).insert(NodeId(1));
        prev.set_mut(PatternNodeId(1)).insert(NodeId(5));
        let mut next = prev.clone();
        next.set_mut(PatternNodeId(0)).remove(NodeId(1));
        next.set_mut(PatternNodeId(0)).insert(NodeId(2));
        next.set_mut(PatternNodeId(1)).insert(NodeId(6));

        let delta = next.delta_from(&prev, 3);
        assert_eq!(delta.result_version, 3);
        assert_eq!(
            delta.added,
            vec![(PatternNodeId(0), NodeId(2)), (PatternNodeId(1), NodeId(6))]
        );
        assert_eq!(delta.removed, vec![(PatternNodeId(0), NodeId(1))]);
        assert_eq!(delta.len(), 3);
        assert_eq!(delta.apply_to(&prev), next);
    }

    #[test]
    fn empty_delta_is_identity() {
        let p = pattern2();
        let mut r = MatchResult::for_pattern(&p);
        r.set_mut(PatternNodeId(1)).insert(NodeId(9));
        let delta = r.delta_from(&r, 1);
        assert!(delta.is_empty());
        assert_eq!(delta.apply_to(&r), r);
    }

    #[test]
    fn compose_spans_two_ticks() {
        let p = pattern2();
        let mut s0 = MatchResult::for_pattern(&p);
        s0.set_mut(PatternNodeId(0)).insert(NodeId(1));
        s0.set_mut(PatternNodeId(1)).insert(NodeId(5));
        // Tick 1: drop (0,1), add (0,2) and (1,6).
        let mut s1 = s0.clone();
        s1.set_mut(PatternNodeId(0)).remove(NodeId(1));
        s1.set_mut(PatternNodeId(0)).insert(NodeId(2));
        s1.set_mut(PatternNodeId(1)).insert(NodeId(6));
        // Tick 2: re-add (0,1), drop (1,6) again, drop the original (1,5).
        let mut s2 = s1.clone();
        s2.set_mut(PatternNodeId(0)).insert(NodeId(1));
        s2.set_mut(PatternNodeId(1)).remove(NodeId(6));
        s2.set_mut(PatternNodeId(1)).remove(NodeId(5));

        let d1 = s1.delta_from(&s0, 1);
        let d2 = s2.delta_from(&s1, 2);
        let composed = d1.compose(&d2);
        assert_eq!(
            composed,
            s2.delta_from(&s0, 2),
            "composition equals the direct two-tick delta"
        );
        assert_eq!(composed.apply_to(&s0), s2);
        // (0,1) was removed then re-added, (1,6) added then removed:
        // neither survives the composition.
        assert!(!composed.added.contains(&(PatternNodeId(1), NodeId(6))));
        assert!(!composed.removed.contains(&(PatternNodeId(0), NodeId(1))));
    }

    #[test]
    fn compose_is_associative_and_versioned() {
        let p = pattern2();
        let states: Vec<MatchResult> = (0..4)
            .map(|i| {
                let mut r = MatchResult::for_pattern(&p);
                for v in 0..=(i * 3 % 5) {
                    r.set_mut(PatternNodeId(v % 2)).insert(NodeId(v));
                }
                r
            })
            .collect();
        let deltas: Vec<MatchDelta> = (1..states.len())
            .map(|i| states[i].delta_from(&states[i - 1], i as u64))
            .collect();
        let left = deltas[0].compose(&deltas[1]).compose(&deltas[2]);
        let right = deltas[0].compose(&deltas[1].compose(&deltas[2]));
        assert_eq!(left, right);
        assert_eq!(left.result_version, 3);
        assert_eq!(left.apply_to(&states[0]), states[3]);
    }

    #[test]
    fn apply_grows_for_new_slots() {
        let p = pattern2();
        let prev = MatchResult::for_pattern(&p);
        let mut next = prev.clone();
        next.grow(4);
        next.set_mut(PatternNodeId(3)).insert(NodeId(2));
        let delta = next.delta_from(&prev, 1);
        assert_eq!(delta.added, vec![(PatternNodeId(3), NodeId(2))]);
        assert_eq!(delta.apply_to(&prev), next);
    }
}
