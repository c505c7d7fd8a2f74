//! The bounded-graph-simulation fixpoint and its incremental repair.

use gpnm_distance::DistanceOracle;
use gpnm_graph::{DataGraph, NodeId, NodeSet, PatternGraph, PatternNodeId};

use crate::plan::RepairPlan;
use crate::result::MatchResult;
use crate::semantics::MatchSemantics;

/// Verify one `(pattern node, data node)` membership against the *current*
/// sets in `result`.
///
/// The node must still be live in `graph` with `u`'s label (a node deleted
/// by a data update lingers in old sets — label mismatch on the tombstone
/// evicts it even when `u` has no edge constraints). Then, simulation
/// semantics: for every pattern edge `(u, u', b)` out of `u`, some current
/// member `v'` of `u'` must satisfy `d(v, v') ≤ b`. Dual semantics
/// additionally requires, for every `(w, u, b)` into `u`, some member
/// `v''` of `w` with `d(v'', v) ≤ b`.
pub fn verify_node<O: DistanceOracle>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    result: &MatchResult,
    oracle: &O,
    semantics: MatchSemantics,
    u: PatternNodeId,
    v: NodeId,
) -> bool {
    if graph.label(v) != pattern.label(u) {
        return false;
    }
    for &(succ, bound) in pattern.out_edges(u) {
        if !oracle.any_within(v, result.set(succ), bound) {
            return false;
        }
    }
    if semantics.checks_predecessors() {
        // Fixed target, varying source: no backend keeps reverse rows, so
        // this side stays a pair probe per member.
        for &(pred, bound) in pattern.in_edges(u) {
            let found = result
                .set(pred)
                .iter()
                .any(|v0| oracle.within(v0, v, bound));
            if !found {
                return false;
            }
        }
    }
    true
}

/// Batch GPNM: compute the maximum bounded simulation of `pattern` in
/// `graph` under `semantics`, using `oracle` for path lengths.
///
/// Seeds every live pattern node with its full label-candidate set, then
/// prunes to the greatest fixpoint. If any live pattern node ends empty,
/// `GP ⋠ GD` and every visible set is empty (§III-B); the relation itself
/// is withheld inside the result, not dropped (see [`MatchResult`]).
pub fn match_graph<O: DistanceOracle>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    semantics: MatchSemantics,
) -> MatchResult {
    let mut result = MatchResult::for_pattern(pattern);
    let mut pending: Vec<bool> = vec![false; pattern.slot_count()];
    for u in pattern.nodes() {
        let label = pattern.label(u).expect("live pattern node");
        let set = result.slot_mut(u);
        for &v in graph.nodes_with_label(label) {
            set.insert(v);
        }
        pending[u.index()] = true;
    }
    prune_to_fixpoint(
        pattern,
        graph,
        &mut result,
        oracle,
        semantics,
        &mut pending,
        None,
    );
    enforce_total_match(pattern, &mut result);
    result
}

/// Incremental repair: bring `result` (valid for some earlier graph state)
/// up to date with the *current* `graph`/`pattern`/`oracle`. Returns
/// whether it had to fall back to [`match_graph`] (see the last paragraph).
///
/// ## Correctness sketch (the invariant every engine strategy leans on)
///
/// The repair works on the **relation** `result` stands for — the maximum
/// simulation `S_old` of the earlier state, which is unique and well
/// defined whether or not it is total. Where the total-match rule withheld
/// it, the repair first puts it back; the visible sets are only ever its
/// projection.
///
/// Soundness requires of the caller only that `plan` covers every *primary*
/// membership trigger:
///
/// * every data node whose distances changed or whose pattern constraints
///   changed is in `plan.verify`, and
/// * every pattern node that can gain members *relative to `S_old`* is in
///   `plan.addition_sources`.
///
/// The repair then (1) closes `addition_sources` under reverse dependency
/// (under simulation semantics `u` depends on its successors; under dual,
/// on both directions), because a new partner in `u'` can admit nodes into
/// any `u` that depends on it; (2) re-seeds closed addition targets from
/// full label candidates — a superset of their true final sets — while
/// every other pattern node keeps its `S_old` set, which is a superset of
/// its final set because it can gain nothing; (3) runs the same pruning
/// fixpoint as the batch matcher, verifying the seeded sets plus
/// `plan.verify` members, cascading every removal to dependent sets.
/// Pruning a superset of the maximum simulation from above converges
/// exactly to the maximum simulation — nothing in that argument needs a
/// set to be non-empty — so the relation equals [`match_graph`]'s on the
/// current state, and projecting it by the total-match rule gives equal
/// visible sets: both equalities the test-suite asserts on randomized
/// workloads (`==` and [`MatchResult::relation_eq`]).
///
/// Two invalidation rules keep the kept relation exact, and both end in
/// the fallback: an outside edit of the visible sets
/// ([`MatchResult::set_mut`]) discards a withheld relation, and a caller
/// that mutates the *pattern* with a plan derived from the visible sets
/// calls [`MatchResult::forget_relation`] first. A visibly-empty result
/// that carries no relation has nothing sound to start from and is
/// re-matched; that is the only case that re-matches.
pub fn repair<O: DistanceOracle>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    semantics: MatchSemantics,
    result: &mut MatchResult,
    plan: &RepairPlan,
) -> bool {
    repair_with(
        pattern,
        graph,
        oracle,
        semantics,
        result,
        &plan.verify,
        &plan.addition_sources,
    )
}

/// [`repair`] with the plan's two halves borrowed separately, for callers
/// that pair one update's `verify` set with a source list merged over a
/// whole batch and would otherwise clone the set into a [`RepairPlan`].
pub fn repair_with<O: DistanceOracle>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    semantics: MatchSemantics,
    result: &mut MatchResult,
    verify: &NodeSet,
    addition_sources: &[PatternNodeId],
) -> bool {
    let kept_relation = result.restore_relation();
    result.grow(pattern.slot_count());

    // Tombstoned pattern slots must not retain matches — and this must
    // happen before any early return: a batch whose only effect is a
    // pattern-node deletion arrives with an otherwise-empty plan.
    for i in 0..result.slot_count() {
        let p = PatternNodeId::from_index(i);
        if !pattern.contains(p) {
            result.slot_mut(p).clear();
        }
    }
    // Visibly empty and no relation carried (built or edited from outside,
    // or forgotten by a pattern update): nothing sound to start from.
    let no_relation = !kept_relation && result.is_empty() && pattern.node_count() > 0;
    if verify.is_empty() && addition_sources.is_empty() {
        // Still enforce the total-match rule: a pattern-node deletion can
        // turn a previously-empty result non-empty only via additions,
        // which would come with addition_sources.
        if !no_relation {
            enforce_total_match(pattern, result);
        }
        return false;
    }
    if no_relation {
        *result = match_graph(pattern, graph, oracle, semantics);
        return true;
    }

    // (1) Close addition sources under reverse dependency.
    let affected = close_addition_sources(pattern, addition_sources, semantics);

    // (2) Re-seed affected pattern nodes from label candidates.
    let mut pending: Vec<bool> = vec![false; pattern.slot_count()];
    for u in pattern.nodes() {
        if affected[u.index()] {
            let label = pattern.label(u).expect("live pattern node");
            let set = result.slot_mut(u);
            set.clear();
            for &v in graph.nodes_with_label(label) {
                set.insert(v);
            }
            pending[u.index()] = true;
        } else if result.set(u).intersects(verify) {
            pending[u.index()] = true;
        }
    }

    // (3) Prune. Non-affected pattern nodes only re-verify their dirty
    // members on the first visit; cascaded visits verify whole sets.
    let verify_filter = Some((verify, affected.as_slice()));
    prune_to_fixpoint(
        pattern,
        graph,
        result,
        oracle,
        semantics,
        &mut pending,
        verify_filter,
    );
    enforce_total_match(pattern, result);
    false
}

/// Reverse-dependency closure of the addition sources.
fn close_addition_sources(
    pattern: &PatternGraph,
    sources: &[PatternNodeId],
    semantics: MatchSemantics,
) -> Vec<bool> {
    let mut affected = vec![false; pattern.slot_count()];
    let mut work: Vec<PatternNodeId> = Vec::with_capacity(sources.len());
    for &s in sources {
        if s.index() < affected.len() && pattern.contains(s) && !affected[s.index()] {
            affected[s.index()] = true;
            work.push(s);
        }
    }
    while let Some(u) = work.pop() {
        // Under simulation semantics, membership in `w` depends on the sets
        // of w's successors: if u gained members, every w with (w -> u)
        // may gain members too.
        for &(w, _) in pattern.in_edges(u) {
            if !affected[w.index()] {
                affected[w.index()] = true;
                work.push(w);
            }
        }
        if semantics.checks_predecessors() {
            for &(w, _) in pattern.out_edges(u) {
                if !affected[w.index()] {
                    affected[w.index()] = true;
                    work.push(w);
                }
            }
        }
    }
    affected
}

/// Round-robin pruning until no pattern node is pending.
///
/// `verify_filter = Some((dirty, affected))` restricts the *first*
/// verification sweep of non-`affected` pattern nodes to members of
/// `dirty`; cascaded sweeps (after a dependent set shrinks) always verify
/// the full set, first visit or not. `None` verifies full sets everywhere
/// (batch mode).
fn prune_to_fixpoint<O: DistanceOracle>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    result: &mut MatchResult,
    oracle: &O,
    semantics: MatchSemantics,
    pending: &mut [bool],
    verify_filter: Option<(&NodeSet, &[bool])>,
) {
    let mut first_sweep = vec![true; pattern.slot_count()];
    let mut removals: Vec<NodeId> = Vec::new();
    while let Some(u) = (0..pending.len())
        .map(PatternNodeId::from_index)
        .find(|p| pending[p.index()])
    {
        pending[u.index()] = false;
        if !pattern.contains(u) {
            continue;
        }
        removals.clear();
        let restrict_to_dirty = match verify_filter {
            Some((_, affected)) => first_sweep[u.index()] && !affected[u.index()],
            None => false,
        };
        first_sweep[u.index()] = false;
        for v in result.set(u).iter() {
            if restrict_to_dirty {
                let (dirty, _) = verify_filter.expect("restrict implies filter");
                if !dirty.contains(v) {
                    continue;
                }
            }
            if !verify_node(pattern, graph, result, oracle, semantics, u, v) {
                removals.push(v);
            }
        }
        if removals.is_empty() {
            continue;
        }
        for &v in &removals {
            result.slot_mut(u).remove(v);
        }
        // Removal cascade: any pattern node whose checks reference u's set.
        // A cascaded visit verifies the whole set even when it is `w`'s
        // first: its members lost a potential witness without being dirty.
        for &(w, _) in pattern.in_edges(u) {
            pending[w.index()] = true;
            first_sweep[w.index()] = false;
        }
        if semantics.checks_predecessors() {
            for &(w, _) in pattern.out_edges(u) {
                pending[w.index()] = true;
                first_sweep[w.index()] = false;
            }
        }
    }
}

/// §III-B: if any live pattern node has no matcher, there is no match of
/// `GP` in `GD` at all — every visible set is empty. The relation is moved
/// aside, not cleared, so the next [`repair`] starts from it.
fn enforce_total_match(pattern: &PatternGraph, result: &mut MatchResult) {
    let incomplete = pattern
        .nodes()
        .any(|u| u.index() >= result.slot_count() || result.set(u).is_empty());
    if incomplete && pattern.node_count() > 0 {
        result.withhold_relation();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_distance::{apsp_matrix, IncrementalIndex};
    use gpnm_graph::paper::fig1;
    use gpnm_graph::{Bound, DataGraphBuilder, PatternGraphBuilder};

    #[test]
    fn table_i_golden_simulation() {
        let f = fig1();
        let slen = apsp_matrix(&f.graph);
        let m = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        assert_eq!(
            m.matches_of(f.p_pm).collect::<Vec<_>>(),
            vec![f.pm1, f.pm2],
            "PM matches PM1, PM2 (Example 5)"
        );
        assert_eq!(m.matches_of(f.p_se).collect::<Vec<_>>(), vec![f.se1, f.se2]);
        assert_eq!(m.matches_of(f.p_s).collect::<Vec<_>>(), vec![f.s1]);
        assert_eq!(m.matches_of(f.p_te).collect::<Vec<_>>(), vec![f.te1, f.te2]);
    }

    #[test]
    fn dual_semantics_drops_unreachable_te2() {
        // Under dual simulation TE2 needs an SE within 4 hops pointing at
        // it; none exists in the original graph (column TE2 of Table III is
        // all infinite), so TE2 falls out — and only TE2.
        let f = fig1();
        let slen = apsp_matrix(&f.graph);
        let m = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::DualSimulation);
        assert_eq!(m.matches_of(f.p_te).collect::<Vec<_>>(), vec![f.te1]);
        assert_eq!(m.matches_of(f.p_pm).collect::<Vec<_>>(), vec![f.pm1, f.pm2]);
    }

    #[test]
    fn unmatchable_pattern_clears_everything() {
        let f = fig1();
        let slen = apsp_matrix(&f.graph);
        let (pattern, _, _) = PatternGraphBuilder::new()
            .node("PM", "PM")
            .node("SE", "SE")
            .edge("PM", "SE", 3)
            .node("GHOST", "NoSuchLabel")
            .build_with_interner(f.interner.clone())
            .unwrap();
        let m = match_graph(&pattern, &f.graph, &slen, MatchSemantics::Simulation);
        assert!(m.is_empty(), "a pattern node without matches empties all");
    }

    #[test]
    fn unbounded_edges_accept_any_finite_path() {
        let (g, li, names) = DataGraphBuilder::new()
            .node("a1", "A")
            .node("b1", "B")
            .node("m1", "M")
            .node("m2", "M")
            .edge("a1", "m1")
            .edge("m1", "m2")
            .edge("m2", "b1")
            .build()
            .unwrap();
        let (p, _, pn) = PatternGraphBuilder::new()
            .node("A", "A")
            .node("B", "B")
            .edge_unbounded("A", "B")
            .build_with_interner(li)
            .unwrap();
        let slen = apsp_matrix(&g);
        let m = match_graph(&p, &g, &slen, MatchSemantics::Simulation);
        assert!(m.contains(pn["A"], names["a1"]));
        // Tighten to 2 hops: the 3-hop path no longer qualifies.
        let mut p2 = p.clone();
        p2.remove_edge(pn["A"], pn["B"]).unwrap();
        p2.add_edge(pn["A"], pn["B"], Bound::Hops(2)).unwrap();
        let m2 = match_graph(&p2, &g, &slen, MatchSemantics::Simulation);
        assert!(m2.is_empty());
    }

    #[test]
    fn example2_cross_elimination_leaves_result_unchanged() {
        // Paper Example 2/9: apply UP1 (insert PM->TE bound 2) together
        // with UD1 (insert SE1->TE2): the GPNM result equals IQuery.
        let mut f = fig1();
        let slen = apsp_matrix(&f.graph);
        let before = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        f.graph.add_edge(f.se1, f.te2).unwrap();
        f.pattern.add_edge(f.p_pm, f.p_te, Bound::Hops(2)).unwrap();
        let slen2 = apsp_matrix(&f.graph);
        let after = match_graph(&f.pattern, &f.graph, &slen2, MatchSemantics::Simulation);
        assert_eq!(before, after, "UP1 and UD1 eliminate each other");
    }

    #[test]
    fn repair_handles_pattern_edge_insert() {
        let mut f = fig1();
        let slen = IncrementalIndex::build(&f.graph);
        let mut result = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        // Insert PM->TE bound 2 *without* UD1: PM2 loses its match.
        f.pattern.add_edge(f.p_pm, f.p_te, Bound::Hops(2)).unwrap();
        let mut plan = RepairPlan::new();
        plan.verify.insert(f.pm1);
        plan.verify.insert(f.pm2);
        plan.verify.insert(f.te1);
        plan.verify.insert(f.te2);
        repair(
            &f.pattern,
            &f.graph,
            &slen,
            MatchSemantics::Simulation,
            &mut result,
            &plan,
        );
        let scratch = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        assert_eq!(result, scratch);
        assert_eq!(result.matches_of(f.p_pm).collect::<Vec<_>>(), vec![f.pm1]);
    }

    #[test]
    fn repair_handles_pattern_edge_delete_with_additions() {
        let mut f = fig1();
        let slen = IncrementalIndex::build(&f.graph);
        // Tighten first so something is excluded...
        f.pattern.add_edge(f.p_pm, f.p_te, Bound::Hops(2)).unwrap();
        let mut result = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        assert_eq!(result.matches_of(f.p_pm).collect::<Vec<_>>(), vec![f.pm1]);
        // ...then delete the tightening: PM2 must come back via additions.
        f.pattern.remove_edge(f.p_pm, f.p_te).unwrap();
        let mut plan = RepairPlan::new();
        plan.addition_sources.push(f.p_pm);
        repair(
            &f.pattern,
            &f.graph,
            &slen,
            MatchSemantics::Simulation,
            &mut result,
            &plan,
        );
        let scratch = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        assert_eq!(result, scratch);
        assert_eq!(
            result.matches_of(f.p_pm).collect::<Vec<_>>(),
            vec![f.pm1, f.pm2]
        );
    }

    #[test]
    fn repair_handles_data_update_after_commit() {
        let mut f = fig1();
        let mut slen = IncrementalIndex::build(&f.graph);
        f.pattern.add_edge(f.p_pm, f.p_te, Bound::Hops(2)).unwrap();
        let mut result = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        // UD1: insert SE1->TE2; distances shrink, PM2 re-qualifies.
        f.graph.add_edge(f.se1, f.te2).unwrap();
        let delta = slen.commit_insert_edge(f.se1, f.te2);
        let mut plan = RepairPlan::new();
        plan.verify = delta.affected.clone();
        // Distance decreases can admit new members anywhere among affected
        // labels; the engine derives sources from the delta — here PM/TE.
        plan.addition_sources.push(f.p_pm);
        plan.addition_sources.push(f.p_te);
        repair(
            &f.pattern,
            &f.graph,
            &slen,
            MatchSemantics::Simulation,
            &mut result,
            &plan,
        );
        let scratch = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        assert_eq!(result, scratch);
        assert_eq!(
            result.matches_of(f.p_pm).collect::<Vec<_>>(),
            vec![f.pm1, f.pm2]
        );
    }

    #[test]
    fn repair_with_empty_plan_is_noop() {
        let f = fig1();
        let slen = IncrementalIndex::build(&f.graph);
        let mut result = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        let before = result.clone();
        repair(
            &f.pattern,
            &f.graph,
            &slen,
            MatchSemantics::Simulation,
            &mut result,
            &RepairPlan::new(),
        );
        assert_eq!(result, before);
    }

    #[test]
    fn repair_cascades_removals_across_pattern_edges() {
        // Chain pattern A->B->C; removing C's only matcher must cascade to
        // B's and A's.
        let (mut g, li, names) = DataGraphBuilder::new()
            .node("a", "A")
            .node("b", "B")
            .node("c", "C")
            .edge("a", "b")
            .edge("b", "c")
            .build()
            .unwrap();
        let (p, _, _) = PatternGraphBuilder::new()
            .node("A", "A")
            .node("B", "B")
            .node("C", "C")
            .edge("A", "B", 2)
            .edge("B", "C", 2)
            .build_with_interner(li)
            .unwrap();
        let mut slen = IncrementalIndex::build(&g);
        let mut result = match_graph(&p, &g, &slen, MatchSemantics::Simulation);
        assert_eq!(result.total_matches(), 3);
        // Delete edge b->c: C keeps its (unconstrained) matcher but B loses
        // its path to it, cascading to A; then the empty rule fires... B has
        // no matcher => entire result clears.
        g.remove_edge(names["b"], names["c"]).unwrap();
        let delta = slen.commit_delete_edge(&g, names["b"], names["c"]);
        let mut plan = RepairPlan::new();
        plan.verify = delta.affected.clone();
        repair(
            &p,
            &g,
            &slen,
            MatchSemantics::Simulation,
            &mut result,
            &plan,
        );
        let scratch = match_graph(&p, &g, &slen, MatchSemantics::Simulation);
        assert_eq!(result, scratch);
        assert!(result.is_empty());
    }

    #[test]
    fn cascade_reaches_clean_members_on_a_first_visit() {
        // Chain pattern A->B->C over two disjoint data chains. Only c1 is
        // dirty: it leaves C, and that removal must evict b1 (and then a1)
        // although neither is dirty and B's first visit is the cascaded
        // one. C, B and A each keep a second member, so the total-match
        // rule does not hide a stale b1 by clearing everything.
        let (mut g, li, names) = DataGraphBuilder::new()
            .node("a1", "A")
            .node("b1", "B")
            .node("c1", "C")
            .node("a2", "A")
            .node("b2", "B")
            .node("c2", "C")
            .edge("a1", "b1")
            .edge("b1", "c1")
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
        let mut result = match_graph(&p, &g, &apsp_matrix(&g), MatchSemantics::Simulation);
        assert_eq!(result.total_matches(), 6);
        g.remove_node(names["c1"]).unwrap();
        let slen = apsp_matrix(&g);
        let mut plan = RepairPlan::new();
        plan.verify.insert(names["c1"]);
        repair(
            &p,
            &g,
            &slen,
            MatchSemantics::Simulation,
            &mut result,
            &plan,
        );
        assert!(
            !result.contains(pn["B"], names["b1"]),
            "b1 lost its only witness"
        );
        assert_eq!(
            result,
            match_graph(&p, &g, &slen, MatchSemantics::Simulation)
        );
        assert_eq!(result.total_matches(), 3);
    }

    /// Chain pattern A->B->C (bounds 1) over a graph where A's only
    /// matcher can be cut off and a different one connected later.
    fn chain_fixture() -> (
        DataGraph,
        PatternGraph,
        std::collections::HashMap<String, NodeId>,
        std::collections::HashMap<String, PatternNodeId>,
    ) {
        let (g, li, names) = DataGraphBuilder::new()
            .node("a1", "A")
            .node("b1", "B")
            .node("c1", "C")
            .node("a2", "A")
            .node("b2", "B")
            .node("c2", "C")
            .node("a3", "A")
            .node("b3", "B")
            .edge("a1", "b1")
            .edge("b1", "c1")
            .edge("a2", "b2")
            .edge("b3", "c2")
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
        (g, p, names, pn)
    }

    #[test]
    fn unmatched_pattern_is_repaired_not_rematched_until_it_revives() {
        const SEM: MatchSemantics = MatchSemantics::Simulation;
        let (mut g, p, n, pn) = chain_fixture();
        let mut slen = IncrementalIndex::build(&g);
        let mut result = match_graph(&p, &g, &slen, SEM);
        assert_eq!(result.total_matches(), 5, "a1 | b1 b3 | c1 c2");

        enum Step {
            Insert(&'static str, &'static str),
            Delete(&'static str, &'static str),
            DeleteNode(&'static str),
        }
        // (update, whether the pattern has a match afterwards)
        let steps = [
            (Step::Delete("a1", "b1"), false), // A loses its only matcher
            (Step::Delete("b1", "c1"), false), // the hidden B shrinks
            (Step::Insert("b1", "c2"), false), // ...and grows back
            (Step::DeleteNode("c1"), false),   // the hidden C shrinks
            (Step::Insert("a3", "b3"), true),  // A gains a3: revives
        ];
        let all_nodes: Vec<PatternNodeId> = p.nodes().collect();
        for (i, (step, matched)) in steps.iter().enumerate() {
            let mut plan = RepairPlan::new();
            match *step {
                Step::Insert(u, v) => {
                    g.add_edge(n[u], n[v]).unwrap();
                    plan.verify = slen.commit_insert_edge(n[u], n[v]).affected;
                    plan.addition_sources = all_nodes.clone();
                }
                Step::Delete(u, v) => {
                    g.remove_edge(n[u], n[v]).unwrap();
                    plan.verify = slen.commit_delete_edge(&g, n[u], n[v]).affected;
                }
                Step::DeleteNode(v) => {
                    g.remove_node(n[v]).unwrap();
                    plan.verify = slen.commit_delete_node(&g, n[v]).affected;
                    plan.verify.insert(n[v]);
                }
            }
            let rematched = repair(&p, &g, &slen, SEM, &mut result, &plan);
            assert!(!rematched, "step {i} repaired the kept relation");
            let scratch = match_graph(&p, &g, &slen, SEM);
            assert_eq!(result, scratch, "step {i}: visible sets");
            assert!(result.relation_eq(&scratch), "step {i}: relation");
            assert_eq!(!result.is_empty(), *matched, "step {i}");
            if !matched {
                // The relation is kept and non-trivial, just not shown.
                assert!(result.relation_contains(pn["B"], n["b3"]), "step {i}");
                assert!(!result.contains(pn["B"], n["b3"]), "step {i}");
            }
        }
        assert_eq!(
            result.matches_of(pn["A"]).collect::<Vec<_>>(),
            vec![n["a3"]]
        );
    }

    /// Counts the witness probes the matcher makes.
    struct CountingOracle<'a, O> {
        inner: &'a O,
        probes: std::cell::Cell<usize>,
    }

    impl<O: DistanceOracle> DistanceOracle for CountingOracle<'_, O> {
        fn distance(&self, u: NodeId, v: NodeId) -> u32 {
            self.inner.distance(u, v)
        }

        fn any_within(&self, u: NodeId, set: &NodeSet, bound: gpnm_graph::Bound) -> bool {
            self.probes.set(self.probes.get() + 1);
            self.inner.any_within(u, set, bound)
        }
    }

    #[test]
    fn unmatched_tick_probes_dirty_relation_members_not_a_label_class() {
        // 40 A nodes each one hop from its own B node; pattern A->B plus a
        // GHOST pattern node whose label no data node carries, so the
        // pattern never matches while A and B keep 40 hidden members each.
        const WIDTH: usize = 40;
        let mut builder = DataGraphBuilder::new();
        for i in 0..WIDTH {
            builder = builder
                .node(&format!("a{i}"), "A")
                .node(&format!("b{i}"), "B")
                .edge(&format!("a{i}"), &format!("b{i}"));
        }
        let (mut g, li, n) = builder.build().unwrap();
        let (p, _, pn) = PatternGraphBuilder::new()
            .node("A", "A")
            .node("B", "B")
            .node("GHOST", "NoSuchLabel")
            .edge("A", "B", 1)
            .build_with_interner(li)
            .unwrap();
        const SEM: MatchSemantics = MatchSemantics::Simulation;
        let mut slen = IncrementalIndex::build(&g);
        let mut result = match_graph(&p, &g, &slen, SEM);
        assert!(result.is_empty());
        assert!(result.relation_contains(pn["A"], n["a0"]));

        g.remove_edge(n["a0"], n["b0"]).unwrap();
        let mut plan = RepairPlan::new();
        plan.verify = slen.commit_delete_edge(&g, n["a0"], n["b0"]).affected;
        // verify ∩ relation = {(A, a0), (B, b0)}; only A has an out-edge
        // to probe.
        let counting = CountingOracle {
            inner: &slen,
            probes: std::cell::Cell::new(0),
        };
        let rematched = repair(&p, &g, &counting, SEM, &mut result, &plan);
        assert!(!rematched);
        assert_eq!(counting.probes.get(), 1, "one dirty member with an edge");
        assert!(!result.relation_contains(pn["A"], n["a0"]));

        let scratch_probes = CountingOracle {
            inner: &slen,
            probes: std::cell::Cell::new(0),
        };
        let scratch = match_graph(&p, &g, &scratch_probes, SEM);
        assert!(
            scratch_probes.probes.get() >= WIDTH,
            "scratch scans the class"
        );
        assert_eq!(result, scratch);
        assert!(result.relation_eq(&scratch));
    }

    #[test]
    fn result_edited_from_outside_is_rematched() {
        // A subscriber-style `fold` goes through `set_mut`: the withheld
        // relation is discarded, so the next repair must take the
        // fallback — and still land on scratch.
        const SEM: MatchSemantics = MatchSemantics::Simulation;
        let (mut g, p, n, pn) = chain_fixture();
        let mut slen = IncrementalIndex::build(&g);
        g.remove_edge(n["a1"], n["b1"]).unwrap();
        slen.commit_delete_edge(&g, n["a1"], n["b1"]);
        let mut result = match_graph(&p, &g, &slen, SEM);
        assert!(result.is_empty() && result.relation_contains(pn["B"], n["b3"]));
        let before = result.clone();
        result.set_mut(pn["A"]).remove(n["a1"]); // a no-op edit
        assert_eq!(result, before, "`==` is over the visible sets");
        assert!(!result.relation_eq(&before), "the relation is gone");

        g.add_edge(n["a3"], n["b3"]).unwrap();
        let mut plan = RepairPlan::new();
        plan.verify = slen.commit_insert_edge(n["a3"], n["b3"]).affected;
        plan.addition_sources.push(pn["A"]);
        let rematched = repair(&p, &g, &slen, SEM, &mut result, &plan);
        assert!(rematched, "no relation to repair: fallback");
        let scratch = match_graph(&p, &g, &slen, SEM);
        assert_eq!(result, scratch);
        assert!(result.relation_eq(&scratch));
        assert!(result.contains(pn["A"], n["a3"]));
    }
}
