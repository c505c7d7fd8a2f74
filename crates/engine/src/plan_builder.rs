//! Translate updates (plus their detection artifacts) into repair plans.
//!
//! The [`gpnm_matcher::repair`] contract (see its docs) asks the caller
//! for every *primary* membership trigger. This module centralizes that
//! derivation so every strategy satisfies the contract the same way.

use gpnm_distance::AffDelta;
use gpnm_graph::{DataGraph, NodeId, PatternGraph, PatternNodeId};
use gpnm_matcher::{MatchResult, RepairPlan};
use gpnm_updates::{Candidates, DataUpdate, PatternUpdate};

/// Plan for a data update, given the `SLen` delta its commit produced.
///
/// * `verify` — the affected nodes (their distances changed).
/// * `gains` — only distance *decreases* (edge inserts) or fresh nodes can
///   admit new members; deletions only remove. For an edge insert, each
///   changed record `(x, y, old, new)` with `new < old` that *crosses a
///   bound* — a pattern edge `(u, u', b)` with `label(x) = label(u)`,
///   `label(y) = label(u')` and `b` admitting `new` but not `old` — gains
///   `(u, x)` when `x` is not yet matched to `u` (in the relation — see
///   below). A shorter `d(x, y)` constrains only `x`: `y`'s own
///   membership reads distances *from* `y`, so the record gains nothing
///   at `y`. A fresh node is a gain under every pattern node of its
///   label. No gain is listed twice.
///
/// Data-update plans name no `addition_sources`: [`gpnm_matcher::repair`]
/// grows every other candidate from these root gains.
///
/// ## Why crossings are enough
///
/// Let `S_old` be the standing maximum simulation — the relation `result`
/// stands for ([`MatchResult::relation_contains`]), which the total-match
/// rule may be withholding from the visible sets — and call `(u, x)`
/// *gained* when it is in the new maximum simulation but not in `S_old`.
/// [`gpnm_matcher::repair`] grows candidates from the root gains through
/// the bounded balls of the candidates each pattern node depends on, so
/// the plan is sound iff every gained pair ends up a candidate. Suppose
/// some did not, and let `G` be the gained pairs outside the candidates.
/// Then `S_old ∪ G` would already be a simulation in the *old* state,
/// contradicting the maximality of `S_old`: take `(u, x) ∈ G` and an edge
/// `(u, u', b)`. Its new-state witness `x'` is an old member of `u'`, or
/// `(u', x')` is itself gained — and outside the candidates, because the
/// ball of a candidate `(u', x')` reaches `x`, which is within `b` of it,
/// and would make `(u, x)` a candidate. In both cases `(u', x') ∈ S_old ∪
/// G`. Its distance from `x` is within `b` now; had it not been before,
/// some insert of the batch moved it across `b` with `x` unmatched, which
/// names `(u, x)` a gain. So the witness was within `b` in the old state
/// too. Node slots are never reused, so a member that did not exist in
/// the old state came from an `InsertNode`, whose arm names it under every
/// pattern node of its label. Nothing above needs `S_old` to be total, so
/// the argument applies to a withheld relation directly: an unmatched
/// pattern is repaired like any other, and "matched" / "unmatched" in the
/// rule above mean membership in the relation, not in the visible sets —
/// read off the (empty) visible sets, every crossing would name a gain.
/// The relation is exact because the two things that could stale it end
/// in a re-match instead: an outside edit of the visible sets
/// ([`MatchResult::set_mut`]) discards it, and a pattern update forgets it
/// ([`MatchResult::forget_relation`], called by
/// `GpnmEngine::apply_pattern_update`, whose DER-I candidates come from
/// the visible sets) — a visibly-empty result with no relation is
/// re-matched by `repair`, not repaired.
pub fn plan_for_data_update(
    update: &DataUpdate,
    delta: &AffDelta,
    pattern: &PatternGraph,
    graph: &DataGraph,
    result: &MatchResult,
    created: Option<NodeId>,
) -> RepairPlan {
    let mut plan = RepairPlan::new();
    plan.verify = delta.affected.clone();
    plan.verify.extend(created);
    push_data_update_gains(
        update,
        delta,
        pattern,
        graph,
        result,
        created,
        &mut plan.gains,
    );
    plan.gains.sort_unstable();
    plan.gains.dedup();
    plan
}

/// The pattern-dependent half of [`plan_for_data_update`]: append the
/// update's root gains against `pattern` to `gains`, unsorted and possibly
/// repeated. The other half, `verify`, is the update's `Aff_N` plus any
/// created node, the same for every pattern: a host unions it once per
/// tick and passes it to [`gpnm_matcher::repair_gains`] by reference.
pub fn push_data_update_gains(
    update: &DataUpdate,
    delta: &AffDelta,
    pattern: &PatternGraph,
    graph: &DataGraph,
    result: &MatchResult,
    created: Option<NodeId>,
    gains: &mut Vec<(PatternNodeId, NodeId)>,
) {
    match update {
        DataUpdate::InsertEdge { .. } => {
            for &(x, y, old, new) in &delta.changed {
                if new >= old {
                    continue;
                }
                let (lx, ly) = (graph.label(x), graph.label(y));
                for u in pattern.nodes().filter(|&u| pattern.label(u) == lx) {
                    for &(succ, bound) in pattern.out_edges(u) {
                        let crossed = bound.admits(new) && !bound.admits(old);
                        if crossed && pattern.label(succ) == ly && !result.relation_contains(u, x) {
                            gains.push((u, x));
                        }
                    }
                }
            }
        }
        DataUpdate::InsertNode { label } => {
            if let Some(id) = created {
                for u in pattern.nodes() {
                    if pattern.label(u) == Some(*label) {
                        gains.push((u, id));
                    }
                }
            }
        }
        // Deletions only lengthen/lose paths: no additions possible.
        DataUpdate::DeleteEdge { .. } | DataUpdate::DeleteNode { .. } => {}
    }
}

/// Plan for a pattern update, given its DER-I candidate sets.
///
/// The plan must be computed against the *pre-update* pattern for
/// `DeleteNode` (the incident edges are consulted); all strategies call it
/// right before applying the update.
pub fn plan_for_pattern_update(
    update: &PatternUpdate,
    candidates: &Candidates,
    pattern: &PatternGraph,
    next_pattern_slot: usize,
) -> RepairPlan {
    let mut plan = RepairPlan::new();
    plan.verify = candidates.can_rn.clone();
    match *update {
        // A new constraint only removes members.
        PatternUpdate::InsertEdge { .. } => {}
        // A removed constraint can admit members at both endpoints.
        PatternUpdate::DeleteEdge { from, to } => {
            plan.addition_sources.push(from);
            plan.addition_sources.push(to);
        }
        // The new pattern node (its id is the next slot) starts unmatched.
        PatternUpdate::InsertNode { .. } => {
            plan.addition_sources
                .push(PatternNodeId::from_index(next_pattern_slot));
        }
        // Neighbors' constraints relax when a pattern node disappears.
        PatternUpdate::DeleteNode { node } => {
            let mut neighbors: Vec<PatternNodeId> = pattern
                .out_edges(node)
                .iter()
                .map(|&(t, _)| t)
                .chain(pattern.in_edges(node).iter().map(|&(s, _)| s))
                .collect();
            neighbors.sort_unstable();
            neighbors.dedup();
            plan.addition_sources.extend(neighbors);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_distance::IncrementalIndex;
    use gpnm_graph::paper::fig1;
    use gpnm_graph::{Bound, DataGraphBuilder, PatternGraphBuilder};
    use gpnm_matcher::{match_graph, MatchSemantics};
    use gpnm_updates::candidates_for;

    const SIMULATION: MatchSemantics = MatchSemantics::Simulation;

    #[test]
    fn data_insert_plan_names_root_gains() {
        // Chain pattern A -> B -> C (bounds 1). Neither a1 nor b1 is in
        // the relation: b1 has no C. Inserting a1 -> b1 crosses (A, B)'s
        // bound at (a1, b1): it gains (A, a1) and only that — b1's
        // membership reads distances *from* b1, which did not change.
        let (mut g, li, n) = DataGraphBuilder::new()
            .node("a1", "A")
            .node("b1", "B")
            .node("a2", "A")
            .node("b2", "B")
            .node("c2", "C")
            .edge("a2", "b2")
            .edge("b2", "c2")
            .build()
            .unwrap();
        let (p, _, pn) = PatternGraphBuilder::new()
            .node("A", "A")
            .node("B", "B")
            .node("C", "C")
            .edge("A", "B", 1)
            .edge("B", "C", 1)
            .build_with_interner(li)
            .unwrap();
        let mut idx = IncrementalIndex::build(&g);
        let mut result = match_graph(&p, &g, &idx, SIMULATION);
        assert!(!result.relation_contains(pn["A"], n["a1"]));
        assert!(!result.relation_contains(pn["B"], n["b1"]));
        let up = DataUpdate::InsertEdge {
            from: n["a1"],
            to: n["b1"],
        };
        g.add_edge(n["a1"], n["b1"]).unwrap();
        let delta = idx.commit_insert_edge(n["a1"], n["b1"]);
        let plan = plan_for_data_update(&up, &delta, &p, &g, &result, None);
        assert_eq!(plan.gains, vec![(pn["A"], n["a1"])]);
        assert!(plan.addition_sources.is_empty());
        assert!(plan.verify.contains(n["a1"]));
        gpnm_matcher::repair(&p, &g, &idx, &mut result, &plan);
        assert_eq!(result, match_graph(&p, &g, &idx, SIMULATION));
    }

    #[test]
    fn data_insert_that_crosses_no_bound_has_no_additions() {
        let mut f = fig1();
        let mut idx = IncrementalIndex::build(&f.graph);
        let mut result = match_graph(&f.pattern, &f.graph, &idx, SIMULATION);
        // TE2 -> DB1 shortens TE2's paths to DB1, SE1, SE2 and PM2, and
        // nothing else reaches TE2: every changed record starts at TE2, a
        // TE node, and TE has no outgoing bound.
        let up = DataUpdate::InsertEdge {
            from: f.te2,
            to: f.db1,
        };
        f.graph.add_edge(f.te2, f.db1).unwrap();
        let delta = idx.commit_insert_edge(f.te2, f.db1);
        assert!(delta.changed.iter().all(|&(x, ..)| x == f.te2));
        let plan = plan_for_data_update(&up, &delta, &f.pattern, &f.graph, &result, None);
        assert!(plan.gains.is_empty());
        assert!(!plan.verify.is_empty());
        gpnm_matcher::repair(&f.pattern, &f.graph, &idx, &mut result, &plan);
        assert_eq!(result, match_graph(&f.pattern, &f.graph, &idx, SIMULATION));
    }

    #[test]
    fn data_delete_plan_has_no_additions() {
        let mut f = fig1();
        let mut idx = IncrementalIndex::build(&f.graph);
        let result = match_graph(&f.pattern, &f.graph, &idx, SIMULATION);
        let up = DataUpdate::DeleteEdge {
            from: f.se1,
            to: f.s1,
        };
        f.graph.remove_edge(f.se1, f.s1).unwrap();
        let delta = idx.commit_delete_edge(&f.graph, f.se1, f.s1);
        let plan = plan_for_data_update(&up, &delta, &f.pattern, &f.graph, &result, None);
        assert!(plan.gains.is_empty() && plan.addition_sources.is_empty());
    }

    #[test]
    fn pattern_plans_by_kind() {
        let f = fig1();
        let idx = IncrementalIndex::build(&f.graph);
        let iq = match_graph(&f.pattern, &f.graph, &idx, SIMULATION);
        // Insert: verify = Can_RN, no additions.
        let ins = PatternUpdate::InsertEdge {
            from: f.p_pm,
            to: f.p_te,
            bound: Bound::Hops(2),
        };
        let can = candidates_for(&f.pattern, &f.graph, &idx, &iq, &ins);
        let plan = plan_for_pattern_update(&ins, &can, &f.pattern, f.pattern.slot_count());
        assert!(plan.addition_sources.is_empty());
        assert!(plan.verify.contains(f.pm2));
        // Delete: endpoints become addition sources.
        let del = PatternUpdate::DeleteEdge {
            from: f.p_se,
            to: f.p_te,
        };
        let can = candidates_for(&f.pattern, &f.graph, &idx, &iq, &del);
        let plan = plan_for_pattern_update(&del, &can, &f.pattern, f.pattern.slot_count());
        assert_eq!(plan.addition_sources, vec![f.p_se, f.p_te]);
        // DeleteNode: pattern neighbors become addition sources.
        let deln = PatternUpdate::DeleteNode { node: f.p_se };
        let can = candidates_for(&f.pattern, &f.graph, &idx, &iq, &deln);
        let plan = plan_for_pattern_update(&deln, &can, &f.pattern, f.pattern.slot_count());
        assert!(plan.addition_sources.contains(&f.p_pm));
        assert!(plan.addition_sources.contains(&f.p_te));
    }
}
