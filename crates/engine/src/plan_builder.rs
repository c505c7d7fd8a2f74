//! Translate updates (plus their detection artifacts) into repair plans.
//!
//! The [`gpnm_matcher::repair`] contract (see its docs) asks the caller
//! for every *primary* membership trigger. This module centralizes that
//! derivation so every strategy satisfies the contract the same way.
//!
//! A data update's root gains come from a [`GainTable`]: the pattern
//! edges of one or more patterns, grouped by their source's label. The
//! hosts keep one table for all their patterns and rebuild it only when
//! a pattern registers or leaves; [`plan_for_data_update`], the engine's
//! one-pattern case, builds one for its pattern. Either way the crossing
//! rule lives in [`GainTable::push_gains`] alone.

use gpnm_distance::AffDelta;
use gpnm_graph::{Bound, DataGraph, Label, NodeId, PatternGraph, PatternNodeId};
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
    // Deletions only remove members: no table to build.
    if matches!(
        update,
        DataUpdate::InsertEdge { .. } | DataUpdate::InsertNode { .. }
    ) {
        let table = GainTable::new([pattern]);
        let gains = std::slice::from_mut(&mut plan.gains);
        table.push_gains(update, delta, graph, created, |_| result, gains);
        plan.gains.sort_unstable();
        plan.gains.dedup();
    }
    plan
}

/// The root gains of every pattern a host serves, indexed by label: the
/// pattern-dependent half of [`plan_for_data_update`] for k patterns at
/// once. (The other half, `verify`, is the update's `Aff_N` plus any
/// created node, the same for every pattern: a host unions it once per
/// tick and passes it to [`gpnm_matcher::repair_gains`] by reference.)
///
/// The table holds every live pattern edge `(u, u', b)` of every pattern,
/// grouped by `label(u)`, and every live pattern node, grouped by its own
/// label. A changed record `(x, y, old, new)` is tested only against the
/// edges whose source carries `label(x)`, so deriving a tick's gains
/// costs its records, not records × patterns × pattern nodes — the
/// type-indexed alpha memory of a discrimination network (*Generalized
/// Discrimination Networks*, PAPERS.md). The rule applied is the one
/// [`plan_for_data_update`] documents, and the gains come out per pattern
/// in the order a scan of that pattern's nodes and out-edges would push
/// them: the entries of one label keep pattern, node and edge order.
///
/// A host builds the table when its set of patterns changes and reads it
/// on every tick; patterns are named by their position in the sequence
/// the table was built from.
#[derive(Debug, Clone, Default)]
pub struct GainTable {
    /// Every live pattern edge, by the label of its source.
    edges: ByLabel<GainEdge>,
    /// Every live pattern node `(pattern, u)`, by `label(u)`: the gains of
    /// an `InsertNode`.
    nodes: ByLabel<(usize, PatternNodeId)>,
}

/// One pattern edge `(u, u', b)` of pattern `pattern`, stored under
/// `label(u)`.
#[derive(Debug, Clone, Copy)]
struct GainEdge {
    pattern: usize,
    u: PatternNodeId,
    succ_label: Label,
    bound: Bound,
}

impl GainTable {
    /// The table of `patterns`, which it names `0, 1, …` in order.
    pub fn new<'p>(patterns: impl IntoIterator<Item = &'p PatternGraph>) -> Self {
        let (mut edges, mut nodes) = (Vec::new(), Vec::new());
        for (pattern, p) in patterns.into_iter().enumerate() {
            for u in p.nodes() {
                let Some(label) = p.label(u) else { continue };
                nodes.push((label, (pattern, u)));
                for &(succ, bound) in p.out_edges(u) {
                    if let Some(succ_label) = p.label(succ) {
                        let edge = GainEdge {
                            pattern,
                            u,
                            succ_label,
                            bound,
                        };
                        edges.push((label, edge));
                    }
                }
            }
        }
        GainTable {
            edges: ByLabel::new(edges),
            nodes: ByLabel::new(nodes),
        }
    }

    /// Append `update`'s root gains to `gains[i]` for each pattern `i`,
    /// unsorted and possibly repeated, given the `SLen` delta its commit
    /// produced. `relation(i)` is pattern `i`'s standing result, read at
    /// this update's post-state like `graph`.
    pub fn push_gains<'r>(
        &self,
        update: &DataUpdate,
        delta: &AffDelta,
        graph: &DataGraph,
        created: Option<NodeId>,
        relation: impl Fn(usize) -> &'r MatchResult,
        gains: &mut [Vec<(PatternNodeId, NodeId)>],
    ) {
        match update {
            DataUpdate::InsertEdge { .. } => {
                for &(x, y, old, new) in &delta.changed {
                    if new >= old {
                        continue;
                    }
                    let edges = self.edges.get(graph.label(x));
                    if edges.is_empty() {
                        continue;
                    }
                    let ly = graph.label(y);
                    for e in edges {
                        let crossed = e.bound.admits(new) && !e.bound.admits(old);
                        if crossed
                            && Some(e.succ_label) == ly
                            && !relation(e.pattern).relation_contains(e.u, x)
                        {
                            gains[e.pattern].push((e.u, x));
                        }
                    }
                }
            }
            DataUpdate::InsertNode { label } => {
                if let Some(id) = created {
                    for &(pattern, u) in self.nodes.get(Some(*label)) {
                        gains[pattern].push((u, id));
                    }
                }
            }
            // Deletions only lengthen/lose paths: no additions possible.
            DataUpdate::DeleteEdge { .. } | DataUpdate::DeleteNode { .. } => {}
        }
    }
}

/// Items grouped by label in one flat array, CSR style: label `l`'s items
/// are `items[offsets[l]..offsets[l + 1]]`, in the order they were given.
#[derive(Debug, Clone)]
struct ByLabel<T> {
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T> Default for ByLabel<T> {
    fn default() -> Self {
        ByLabel {
            offsets: Vec::new(),
            items: Vec::new(),
        }
    }
}

impl<T> ByLabel<T> {
    fn new(mut keyed: Vec<(Label, T)>) -> Self {
        // Stable: a label's items keep their order.
        keyed.sort_by_key(|&(label, _)| label);
        let labels = keyed.last().map_or(0, |&(label, _)| label.index() + 1);
        let mut offsets = vec![0; labels + 1];
        for (label, _) in &keyed {
            offsets[label.index() + 1] += 1;
        }
        for l in 0..labels {
            offsets[l + 1] += offsets[l];
        }
        let items = keyed.into_iter().map(|(_, item)| item).collect();
        ByLabel { offsets, items }
    }

    /// The items of `label`; none for a label no item carries, or `None`.
    fn get(&self, label: Option<Label>) -> &[T] {
        let Some(l) = label.map(Label::index) else {
            return &[];
        };
        match (self.offsets.get(l), self.offsets.get(l + 1)) {
            (Some(&start), Some(&end)) => &self.items[start..end],
            _ => &[],
        }
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
    use gpnm_distance::{IncrementalIndex, INF};
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

    /// The per-pattern rule [`GainTable`] replaced, verbatim: one
    /// pattern's root gains, scanning its nodes for every changed record.
    fn reference_gains(
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
                            if crossed
                                && pattern.label(succ) == ly
                                && !result.relation_contains(u, x)
                            {
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
            DataUpdate::DeleteEdge { .. } | DataUpdate::DeleteNode { .. } => {}
        }
    }

    type GainLists = Vec<Vec<(PatternNodeId, NodeId)>>;

    /// Each pattern's gains from a [`GainTable`] of `patterns`, and from
    /// [`reference_gains`].
    fn both_gains(
        update: &DataUpdate,
        delta: &AffDelta,
        patterns: &[PatternGraph],
        graph: &DataGraph,
        results: &[MatchResult],
        created: Option<NodeId>,
    ) -> (GainLists, GainLists) {
        let table = GainTable::new(patterns);
        let mut gains = vec![Vec::new(); patterns.len()];
        table.push_gains(update, delta, graph, created, |i| &results[i], &mut gains);
        let mut reference = vec![Vec::new(); patterns.len()];
        for (i, out) in reference.iter_mut().enumerate() {
            let (p, r) = (&patterns[i], &results[i]);
            reference_gains(update, delta, p, graph, r, created, out);
        }
        (gains, reference)
    }

    proptest::proptest! {
        /// The table's gains for k patterns equal, pattern by pattern and
        /// in order, what the per-pattern rule pushes. Labels are shared
        /// across patterns and within one, bounds are 1–3 or `*`, some
        /// pattern nodes are tombstoned (with their edges), and the
        /// records improve, worsen, or go to or from `INF` (distance 5
        /// below) — what a real commit would emit or not. Relations come
        /// from a real match, so some sources are already members.
        #[test]
        fn a_gain_table_gains_what_the_per_pattern_rule_gains(
            labels in proptest::collection::vec(0u32..3, 1..12),
            edges in proptest::collection::vec((0usize..12, 0usize..12), 0..30),
            patterns in proptest::collection::vec(
                (
                    proptest::collection::vec(0u32..4, 1..6),
                    proptest::collection::vec((0usize..6, 0usize..6, 0u32..4), 0..10),
                    proptest::prelude::any::<u8>(),
                ),
                1..5,
            ),
            records in proptest::collection::vec((0usize..12, 0usize..12, 0u32..6, 0u32..6), 0..40),
            fresh in 0u32..4,
        ) {
            let mut graph = DataGraph::new();
            let ids: Vec<NodeId> = labels.iter().map(|&l| graph.add_node(Label(l))).collect();
            let n = ids.len();
            for (a, b) in edges {
                let _ = graph.add_edge(ids[a % n], ids[b % n]);
            }
            let mut drawn = Vec::new();
            for (node_labels, pattern_edges, dead) in patterns {
                let mut p = PatternGraph::new();
                let us: Vec<PatternNodeId> =
                    node_labels.iter().map(|&l| p.add_node(Label(l))).collect();
                for (a, b, k) in pattern_edges {
                    let bound = if k == 0 { Bound::Unbounded } else { Bound::Hops(k) };
                    let _ = p.add_edge(us[a % us.len()], us[b % us.len()], bound);
                }
                // Tombstones; the first node always lives.
                for (i, &u) in us.iter().enumerate().skip(1) {
                    if dead >> i & 1 == 1 {
                        p.remove_node(u).unwrap();
                    }
                }
                drawn.push(p);
            }
            let idx = IncrementalIndex::build(&graph);
            let results: Vec<MatchResult> =
                drawn.iter().map(|p| match_graph(p, &graph, &idx, SIMULATION)).collect();
            let dist = |d: u32| if d == 5 { INF } else { d };
            let mut delta = AffDelta::new();
            for (x, y, old, new) in records {
                if old != new {
                    delta.record(ids[x % n], ids[y % n], dist(old), dist(new));
                }
            }
            let insert = DataUpdate::InsertEdge { from: ids[0], to: ids[0] };
            let (gains, reference) = both_gains(&insert, &delta, &drawn, &graph, &results, None);
            proptest::prop_assert_eq!(gains, reference);
            let delete = DataUpdate::DeleteEdge { from: ids[0], to: ids[0] };
            let (gains, reference) = both_gains(&delete, &delta, &drawn, &graph, &results, None);
            proptest::prop_assert_eq!(gains, reference);
            let node = DataUpdate::InsertNode { label: Label(fresh) };
            let created = Some(graph.add_node(Label(fresh)));
            let none = AffDelta::new();
            let (gains, reference) = both_gains(&node, &none, &drawn, &graph, &results, created);
            proptest::prop_assert_eq!(gains, reference);
        }
    }

    #[test]
    fn two_patterns_sharing_a_source_label_gain_by_their_own_bounds() {
        // P0 is A -(1)-> B, P1 is A -(3)-> B, and a1 reaches no B yet.
        // `d(a1, b1)` falling from INF to 2 crosses P1's bound only; a
        // fall from 4 to 1 crosses both.
        let (g, li, n) = DataGraphBuilder::new()
            .node("a1", "A")
            .node("b1", "B")
            .build()
            .unwrap();
        let (p0, li, p0n) = PatternGraphBuilder::new()
            .node("A", "A")
            .node("B", "B")
            .edge("A", "B", 1)
            .build_with_interner(li)
            .unwrap();
        let (p1, _, p1n) = PatternGraphBuilder::new()
            .node("B", "B")
            .node("A", "A")
            .edge("A", "B", 3)
            .build_with_interner(li)
            .unwrap();
        let idx = IncrementalIndex::build(&g);
        let patterns = [p0, p1];
        let results: Vec<MatchResult> = patterns
            .iter()
            .map(|p| match_graph(p, &g, &idx, SIMULATION))
            .collect();
        let table = GainTable::new(&patterns);
        let up = DataUpdate::InsertEdge {
            from: n["a1"],
            to: n["b1"],
        };
        let gains_of = |old, new| {
            let mut delta = AffDelta::new();
            delta.record(n["a1"], n["b1"], old, new);
            let mut gains = vec![Vec::new(); 2];
            table.push_gains(&up, &delta, &g, None, |i| &results[i], &mut gains);
            gains
        };
        let a1 = n["a1"];
        assert_eq!(gains_of(INF, 2), vec![vec![], vec![(p1n["A"], a1)]]);
        assert_eq!(
            gains_of(4, 1),
            vec![vec![(p0n["A"], a1)], vec![(p1n["A"], a1)]]
        );
        // Worsening records, and improvements within both bounds, gain
        // nothing.
        assert_eq!(gains_of(1, 4), vec![vec![], vec![]]);
        assert_eq!(gains_of(3, 2), vec![vec![], vec![]]);
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
