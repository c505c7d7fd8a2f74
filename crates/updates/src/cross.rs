//! DER-III: cross-graph elimination (paper Algorithm 3, Example 9).

use gpnm_distance::DistanceOracle;
use gpnm_graph::NodeSet;
use gpnm_matcher::MatchResult;

use crate::candidates::Candidates;
use crate::update::PatternUpdate;

/// Whether a data update's affected nodes `aff` (the `Aff_N` of the
/// [`gpnm_distance::AffDelta`] its commit emitted) make pattern update `up`
/// a no-op:
///
/// 1. `Aff_N(UD) ⊇ Can_N(UP)` — the data update touches every candidate
///    (Algorithm 3 step 3), and
/// 2. under the *new* `SLen`, every matched pair of the inserted edge's
///    endpoints satisfies the bound (Example 9: `AFF(PM2,TE2) = (∞, 2)`
///    and `2 ≤ 2`), so no node needs to be added or removed.
///
/// Only edge insertions can be cross-eliminated this way: a data update
/// shortens/loses paths, which can exactly compensate a tightened
/// constraint; the paper's examples and our implementation agree on this
/// scope. Other pattern update kinds return `false`.
pub fn cross_eliminates<O: DistanceOracle>(
    up: &PatternUpdate,
    can: &Candidates,
    aff: &NodeSet,
    new_oracle: &O,
    iquery: &MatchResult,
) -> bool {
    let PatternUpdate::InsertEdge { from, to, bound } = *up else {
        return false;
    };
    if !aff.is_superset_of(&can.can_rn) || can.can_rn.is_empty() {
        // An empty Can_RN means the insert was already satisfied — nothing
        // to eliminate (and nothing to repair); treat as not-cross-related.
        return false;
    }
    if from.index() >= iquery.slot_count() || to.index() >= iquery.slot_count() {
        return false;
    }
    // Under SLen_new, every matcher must have a partner (dual rule).
    for v in iquery.matches_of(from) {
        if !new_oracle.any_within(v, iquery.set(to), bound) {
            return false;
        }
    }
    for v2 in iquery.matches_of(to) {
        let ok = iquery
            .matches_of(from)
            .any(|v| new_oracle.within(v, v2, bound));
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::candidates_for;
    use gpnm_distance::{apsp_matrix, IncrementalIndex};
    use gpnm_graph::paper::fig1;
    use gpnm_graph::Bound;
    use gpnm_matcher::{match_graph, MatchSemantics};

    #[test]
    fn example_9_up1_eliminated_by_ud1() {
        let f = fig1();
        let slen = apsp_matrix(&f.graph);
        let iq = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        let up1 = PatternUpdate::InsertEdge {
            from: f.p_pm,
            to: f.p_te,
            bound: Bound::Hops(2),
        };
        let can = candidates_for(&f.pattern, &f.graph, &slen, &iq, &up1);
        // Commit UD1: its delta is Aff_N(UD1), the index SLen_new.
        let mut idx = IncrementalIndex::build(&f.graph);
        let aff = idx.commit_insert_edge(f.se1, f.te2);
        assert!(
            cross_eliminates(&up1, &can, &aff.affected, &idx, &iq),
            "paper Example 9: UP1 <=> UD1"
        );
    }

    #[test]
    fn no_elimination_without_the_data_update() {
        // Against the *old* SLen, PM2 still has no TE within 2: no
        // elimination.
        let f = fig1();
        let slen = apsp_matrix(&f.graph);
        let iq = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        let up1 = PatternUpdate::InsertEdge {
            from: f.p_pm,
            to: f.p_te,
            bound: Bound::Hops(2),
        };
        let can = candidates_for(&f.pattern, &f.graph, &slen, &iq, &up1);
        // UD2 does not cover Can_RN(UP1) = {PM2, TE2} (Table VII row UD2
        // lacks PM2/TE2) so containment already fails.
        let mut idx = IncrementalIndex::build(&f.graph);
        let aff2 = idx.commit_insert_edge(f.db1, f.s1);
        assert!(!cross_eliminates(&up1, &can, &aff2.affected, &idx, &iq));
    }

    #[test]
    fn non_insert_updates_never_cross_eliminate() {
        let f = fig1();
        let slen = apsp_matrix(&f.graph);
        let iq = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        let del = PatternUpdate::DeleteEdge {
            from: f.p_se,
            to: f.p_te,
        };
        let can = candidates_for(&f.pattern, &f.graph, &slen, &iq, &del);
        assert!(!cross_eliminates(&del, &can, &NodeSet::new(), &slen, &iq));
    }
}
