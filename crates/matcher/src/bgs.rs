//! The bounded-graph-simulation fixpoint and its incremental repair.

use gpnm_distance::DistanceOracle;
use gpnm_graph::{Bound, DataGraph, NodeId, NodeSet, PatternGraph, PatternNodeId};

use crate::delta::MatchDelta;
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

/// What one [`repair`] or [`repair_gains`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Whether it fell back to [`match_graph`] (see [`repair`]'s last
    /// paragraph).
    pub rematched: bool,
    /// `(pattern node, data node)` candidates it grew outside the old
    /// relation — the members it had to verify beyond `plan.verify`.
    pub candidates: usize,
}

/// What a repair did to the relation, before any projection: the raw
/// material of [`repair_gains`]'s delta, which [`repair`] drops unread.
struct Repaired {
    outcome: RepairOutcome,
    shown_before: bool,
    /// Every candidate admitted, pruned again or not.
    admitted: Vec<(PatternNodeId, NodeId)>,
    /// Every old member removed: a tombstoned slot's, or pruned.
    removed: Vec<(PatternNodeId, NodeId)>,
}

/// Incremental repair: bring `result` (valid for some earlier graph state)
/// up to date with the *current* `graph`/`pattern`/`oracle`.
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
///   changed is in `plan.verify`;
/// * every `(u, x)` whose distance from `x` crossed one of `u`'s bounds
///   with `x` outside `S_old(u)`, and every fresh data node under each
///   pattern node of its label, is in `plan.gains`; and
/// * every pattern node whose whole label class may gain members (a
///   pattern update relaxed its constraints) is in
///   `plan.addition_sources`.
///
/// The repair then
///
/// 1. **grows candidates**, keeping only live nodes of `u`'s label
///    outside `S_old(u)`. The reverse-dependency closure of
///    `plan.addition_sources` (under simulation `u` depends on its
///    successors; under dual, on both directions) takes its whole label
///    classes, as a pattern update may relax any member's constraints.
///    Every other `Cand(u)` starts from `u`'s gains and grows to a
///    fixpoint: new members of `Cand(u')` add, for each pattern edge `(u,
///    u', b)`, the nodes of `u`'s label within `b` of them (a BFS of
///    depth `b` over in-edges); under dual semantics also, for each `(u',
///    w, b)`, the nodes of `w`'s label within `b` *from* them (over
///    out-edges). So a data update's candidates reach only the pattern
///    nodes, and the data nodes, its gains' balls reach.
/// 2. **seeds** every set with `S_old(u) ∪ Cand(u)`; and
/// 3. **prunes** to the greatest fixpoint, with `u`'s *dirty* members
///    `plan.verify ∪ Cand(u)`: a sweep checks only the dirty members of
///    the set until the sweep is made *whole*. A removal that includes an
///    old member (one of `S_old`) makes every dependent's sweeps whole
///    from then on; a removal of fresh candidates only makes them
///    pending. The sources' closure sweeps whole from the start: a
///    pattern update changes constraints whose members its `verify` need
///    not name (DER-I names no `Can_RN` for an edge into a pattern node
///    the same batch inserted).
///
/// **The seed is a superset of the new maximum simulation.** Let `G` be
/// the gained pairs (new, not in `S_old`) outside `Cand`. Then `S_old ∪ G`
/// is a simulation in the *old* state, which by the maximality of
/// `S_old` forces `G = ∅`: take `(u, x) ∈ G` and an edge `(u, u', b)` (a
/// deleted pattern edge, or a deleted pattern node's, makes its ends
/// sources, whose whole class is in `Cand`; so is the class of every
/// node that depends on a source). The new-state witness `x'`
/// of `(u, x)` is an old member of `u'`, or `(u', x')` is gained. If it is
/// gained and in `Cand(u')`, the BFS from `x'` reached `x` — within `b`
/// now — and put `(u, x)` in `Cand`; so it is in `G`. Either way `(u', x')
/// ∈ S_old ∪ G`. Had `d(x, x')` been over `b` before, some insert of the
/// batch moved it across `b` with `x` outside `S_old(u)`, which names
/// `(u, x)` a root gain. A node that did not exist before is a root gain
/// under every pattern node of its label. So the old distance was within
/// `b` too (the predecessor side is the mirrored argument).
///
/// **Skipping clean members is exact.** Outside the sources' closure, a
/// member of `u` that is neither in `plan.verify` nor a candidate is an
/// old member whose distances and constraints did not change, so its old
/// witnesses still qualify, and they stay in the sets until some old
/// member is removed. That removal makes the dependents' sweeps whole.
/// A whole sweep may keep a clean member on a
/// *fresh* witness, which a later removal of fresh candidates alone could
/// take away — so once a node has had a whole sweep, every later sweep of
/// it is whole too. Pruning a superset of the maximum simulation from
/// above, never dropping a member that still has its witnesses, converges
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
///
/// ## The delta
///
/// [`repair_gains`] (the hosts' entry) also returns what the call changed
/// in the **visible** sets, ascending by (slot, node) and stamped version
/// 0: exactly `after.delta_from(&before, 0)`. `repair` (the engine's
/// per-update entry, which publishes nothing) builds none. The delta is
/// built from what the repair itself did to
/// the relation: the old members it removed (a tombstoned slot's, or
/// pruned ones outside `Cand`) and the candidates it admitted that
/// survived the pruning — a candidate admitted and then pruned in the same
/// call is in neither list. The projection decides what a reader saw
/// change: relation shown before and after, exactly those pairs; withheld
/// before and shown after, every pair of the new relation added; shown
/// before and withheld after, every pair of the old relation removed;
/// withheld on both sides, nothing. The fallback re-match adds every pair
/// it shows. No set is copied or diffed for it.
pub fn repair<O: DistanceOracle>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    semantics: MatchSemantics,
    result: &mut MatchResult,
    plan: &RepairPlan,
) -> RepairOutcome {
    let additions = Additions {
        gains: &plan.gains,
        sources: &plan.addition_sources,
    };
    let verify = &plan.verify;
    repair_parts(pattern, graph, oracle, semantics, result, verify, additions).outcome
}

/// [`repair`] for a data update's plan, with the `verify` set borrowed:
/// the hosts' entry. A data update's `verify` set does not depend on the
/// pattern, so a host builds one for the whole tick and hands every
/// pattern a reference to it beside that pattern's own root `gains`. Data
/// updates name no addition sources. Returns the visible delta beside the
/// outcome ([`repair`]'s "The delta").
pub fn repair_gains<O: DistanceOracle>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    semantics: MatchSemantics,
    result: &mut MatchResult,
    verify: &NodeSet,
    gains: &[(PatternNodeId, NodeId)],
) -> (RepairOutcome, MatchDelta) {
    let additions = Additions {
        gains,
        sources: &[],
    };
    let repaired = repair_parts(pattern, graph, oracle, semantics, result, verify, additions);
    (repaired.outcome.clone(), project(repaired, result))
}

/// The additions half of a [`RepairPlan`], borrowed.
#[derive(Clone, Copy)]
struct Additions<'a> {
    gains: &'a [(PatternNodeId, NodeId)],
    sources: &'a [PatternNodeId],
}

fn repair_parts<O: DistanceOracle>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    semantics: MatchSemantics,
    result: &mut MatchResult,
    verify: &NodeSet,
    additions: Additions<'_>,
) -> Repaired {
    let shown_before = !result.restore_relation();
    result.grow(pattern.slot_count());

    // Tombstoned pattern slots must not retain matches — and this must
    // happen before any early return: a batch whose only effect is a
    // pattern-node deletion arrives with an otherwise-empty plan.
    let mut removed = Vec::new();
    for i in 0..result.slot_count() {
        let p = PatternNodeId::from_index(i);
        if !pattern.contains(p) && !result.set(p).is_empty() {
            removed.extend(result.set(p).iter().map(|v| (p, v)));
            result.clear_slot(p);
        }
    }
    // Visibly empty and no relation carried (built or edited from outside,
    // or forgotten by a pattern update): nothing sound to start from.
    let no_relation = shown_before && result.is_empty() && pattern.node_count() > 0;
    let plan_empty =
        verify.is_empty() && additions.gains.is_empty() && additions.sources.is_empty();
    if plan_empty {
        // Still enforce the total-match rule: a pattern-node deletion can
        // turn a previously-empty result non-empty only via additions,
        // which would come with addition sources.
        if !no_relation {
            enforce_total_match(pattern, result);
        }
        return Repaired {
            outcome: RepairOutcome::default(),
            shown_before,
            admitted: Vec::new(),
            removed,
        };
    }
    if no_relation {
        // What was shown is exactly what the tombstones took.
        *result = match_graph(pattern, graph, oracle, semantics);
        return Repaired {
            outcome: RepairOutcome {
                rematched: true,
                candidates: 0,
            },
            shown_before,
            admitted: Vec::new(),
            removed,
        };
    }

    // (1) Grow candidates; (2) seed `S_old ∪ Cand`.
    let whole = close_addition_sources(pattern, additions.sources, semantics);
    let (fresh, admitted) = grow_candidates(pattern, graph, result, semantics, additions, &whole);
    let mut pending: Vec<bool> = vec![false; pattern.slot_count()];
    for u in pattern.nodes() {
        let cand = &fresh[u.index()];
        if !cand.is_empty() {
            result.slot_mut(u).union_with(cand);
        }
        pending[u.index()] =
            whole[u.index()] || !cand.is_empty() || result.set(u).intersects(verify);
    }

    // (3) Prune, sweeping dirty members until a sweep is made whole.
    let dirty = Dirty {
        verify,
        fresh: &fresh,
        whole,
    };
    removed.extend(prune_to_fixpoint(
        pattern,
        graph,
        result,
        oracle,
        semantics,
        &mut pending,
        Some(dirty),
    ));
    enforce_total_match(pattern, result);
    Repaired {
        outcome: RepairOutcome {
            rematched: false,
            candidates: admitted.len(),
        },
        shown_before,
        admitted,
        removed,
    }
}

/// Every pair of the visible sets, ascending by (slot, node).
fn shown_pairs(result: &MatchResult) -> Vec<(PatternNodeId, NodeId)> {
    (0..result.slot_count())
        .map(PatternNodeId::from_index)
        .flat_map(|p| result.matches_of(p).map(move |v| (p, v)))
        .collect()
}

/// The visible delta of what `repaired` did to `result`'s relation (see
/// [`repair`]'s "The delta").
fn project(repaired: Repaired, result: &MatchResult) -> MatchDelta {
    let Repaired {
        outcome,
        shown_before,
        admitted: mut added,
        mut removed,
    } = repaired;
    if outcome.rematched {
        return MatchDelta {
            added: shown_pairs(result),
            removed,
            result_version: 0,
        };
    }
    // A candidate the pruning removed again never became a member. (Read
    // the relation: the total-match rule may have withheld it since.)
    added.retain(|&(u, v)| result.relation_contains(u, v));
    let mut delta = MatchDelta::default();
    match (shown_before, result.shows_relation()) {
        (true, true) => {
            added.sort_unstable();
            removed.sort_unstable();
            delta.added = added;
            delta.removed = removed;
        }
        (false, true) => delta.added = shown_pairs(result),
        (true, false) => {
            // The old relation: the new one without what was added, plus
            // what was removed.
            added.sort_unstable();
            for (i, set) in result.relation().iter().enumerate() {
                let p = PatternNodeId::from_index(i);
                let kept = set.iter().map(|v| (p, v));
                removed.extend(kept.filter(|pair| added.binary_search(pair).is_err()));
            }
            removed.sort_unstable();
            delta.removed = removed;
        }
        (false, false) => {}
    }
    delta
}

/// Step (1) of [`repair`]: every pattern node's candidates `Cand(u)`,
/// grown to a fixpoint from the plan's gains through the bounded balls
/// of the candidates `u` depends on, and every pair it admitted, in
/// admission order. `relation` holds `S_old`; the pattern nodes `closure`
/// marks start from their whole label class.
fn grow_candidates(
    pattern: &PatternGraph,
    graph: &DataGraph,
    relation: &MatchResult,
    semantics: MatchSemantics,
    additions: Additions<'_>,
    closure: &[bool],
) -> (Vec<NodeSet>, Vec<(PatternNodeId, NodeId)>) {
    let slots = pattern.slot_count();
    let mut cand = vec![NodeSet::new(); slots];
    // Members of `cand[u]` whose balls are still to be walked.
    let mut unwalked: Vec<Vec<NodeId>> = vec![Vec::new(); slots];
    // Admit `v` into `Cand(u)` if it is a live node of u's label outside
    // `S_old(u)`, queueing its balls the first time.
    let admit =
        |u: PatternNodeId, v: NodeId, cand: &mut [NodeSet], unwalked: &mut [Vec<NodeId>]| {
            let fits = graph.label(v).is_some_and(|l| pattern.label(u) == Some(l));
            if fits && !relation.set(u).contains(v) && cand[u.index()].insert(v) {
                unwalked[u.index()].push(v);
            }
        };
    for u in pattern.nodes().filter(|u| closure[u.index()]) {
        let label = pattern.label(u).expect("live pattern node");
        for &v in graph.nodes_with_label(label) {
            admit(u, v, &mut cand, &mut unwalked);
        }
    }
    for &(u, x) in additions.gains {
        admit(u, x, &mut cand, &mut unwalked);
    }

    // Every admitted pair is queued once and walked once: the walks list
    // them all.
    let mut admitted = Vec::new();
    let mut ball = Ball::default();
    while let Some(i) = unwalked.iter().position(|w| !w.is_empty()) {
        let roots = std::mem::take(&mut unwalked[i]);
        let u_new = PatternNodeId::from_index(i);
        admitted.extend(roots.iter().map(|&v| (u_new, v)));
        // `w` depends on `u_new` through `(w, u_new, b)`: a node of w's
        // label within `b` of a new candidate may now have its witness.
        let backward = pattern.in_edges(u_new).iter().map(|&(w, b)| (w, b, true));
        // Dual semantics: `(u_new, w, b)` asks members of `w` for a
        // predecessor in `u_new` within `b`.
        let forward = pattern
            .out_edges(u_new)
            .iter()
            .filter(|_| semantics.checks_predecessors())
            .map(|&(w, b)| (w, b, false));
        for (w, bound, backward) in backward.chain(forward) {
            // A closure node holds its whole class already, and the
            // closure is closed under dependency: only walks out of gains'
            // candidates go on.
            if closure[w.index()] {
                continue;
            }
            for &v in ball.walk(graph, &roots, bound, backward) {
                admit(w, v, &mut cand, &mut unwalked);
            }
        }
    }
    (cand, admitted)
}

/// Scratch for a multi-source bounded BFS, reused across walks: the nodes
/// reached, level by level, and their membership set. Each walk costs
/// what it visits — clearing removes only the previous walk's members.
#[derive(Default)]
struct Ball {
    seen: NodeSet,
    members: Vec<NodeId>,
}

impl Ball {
    /// Every node within `bound` hops of some root — *to* a root over
    /// in-edges when `backward`, *from* one over out-edges otherwise —
    /// the roots included.
    fn walk(
        &mut self,
        graph: &DataGraph,
        roots: &[NodeId],
        bound: Bound,
        backward: bool,
    ) -> &[NodeId] {
        for &v in &self.members {
            self.seen.remove(v);
        }
        self.members.clear();
        for &r in roots {
            if self.seen.insert(r) {
                self.members.push(r);
            }
        }
        let depth = match bound {
            Bound::Hops(k) => k,
            Bound::Unbounded => u32::MAX,
        };
        let mut level = 0..self.members.len();
        for _ in 0..depth {
            if level.is_empty() {
                break;
            }
            let end = self.members.len();
            for i in level {
                let v = self.members[i];
                let next = if backward {
                    graph.in_neighbors(v)
                } else {
                    graph.out_neighbors(v)
                };
                for &n in next {
                    if self.seen.insert(n) {
                        self.members.push(n);
                    }
                }
            }
            level = end..self.members.len();
        }
        &self.members
    }
}

/// Reverse-dependency closure of the addition sources: the pattern nodes
/// whose sweeps are whole from the start.
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

/// Which members a repair's sweeps must check: `verify` for every pattern
/// node plus each node's own candidates (`fresh`), until a sweep is made
/// whole. `whole[u]` makes every sweep of `u` whole from the start.
struct Dirty<'a> {
    verify: &'a NodeSet,
    fresh: &'a [NodeSet],
    whole: Vec<bool>,
}

/// Round-robin pruning until no pattern node is pending.
///
/// `dirty = Some(..)` (a repair) restricts each pattern node's sweeps to
/// its dirty members until a removal that includes an old member — one
/// not among the node's candidates — makes its dependents' sweeps whole;
/// a whole sweep stays whole for the rest of the fixpoint (see [`repair`]
/// for why both rules are needed), and returns the old members it
/// removed. `None` verifies whole sets everywhere (batch mode) and
/// returns nothing.
fn prune_to_fixpoint<O: DistanceOracle>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    result: &mut MatchResult,
    oracle: &O,
    semantics: MatchSemantics,
    pending: &mut [bool],
    dirty: Option<Dirty<'_>>,
) -> Vec<(PatternNodeId, NodeId)> {
    let (mut whole, dirty) = match dirty {
        Some(d) => (d.whole, Some((d.verify, d.fresh))),
        None => (vec![true; pattern.slot_count()], None),
    };
    let mut removals: Vec<NodeId> = Vec::new();
    let mut removed_old = Vec::new();
    while let Some(u) = (0..pending.len())
        .map(PatternNodeId::from_index)
        .find(|p| pending[p.index()])
    {
        pending[u.index()] = false;
        if !pattern.contains(u) {
            continue;
        }
        removals.clear();
        let set = result.set(u);
        let mut check = |v: NodeId| {
            if !verify_node(pattern, graph, result, oracle, semantics, u, v) {
                removals.push(v);
            }
        };
        match dirty {
            Some((verify, fresh)) if !whole[u.index()] => {
                set.intersection(verify).for_each(&mut check);
                fresh[u.index()]
                    .intersection(set)
                    .filter(|&v| !verify.contains(v))
                    .for_each(&mut check);
            }
            _ => set.iter().for_each(&mut check),
        }
        if removals.is_empty() {
            continue;
        }
        let old_removed = match dirty {
            Some((_, fresh)) => {
                let len = removed_old.len();
                let old = removals.iter().filter(|&&v| !fresh[u.index()].contains(v));
                removed_old.extend(old.map(|&v| (u, v)));
                removed_old.len() > len
            }
            None => true,
        };
        let set = result.slot_mut(u);
        for &v in &removals {
            set.remove(v);
        }
        // Removal cascade: any pattern node whose checks reference u's set.
        let dependents = pattern.in_edges(u).iter().chain(
            pattern
                .out_edges(u)
                .iter()
                .filter(|_| semantics.checks_predecessors()),
        );
        for &(w, _) in dependents {
            pending[w.index()] = true;
            whole[w.index()] |= old_removed;
        }
    }
    removed_old
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
            let rematched = repair(&p, &g, &slen, SEM, &mut result, &plan).rematched;
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
        let rematched = repair(&p, &g, &counting, SEM, &mut result, &plan).rematched;
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
    fn a_gain_two_pattern_hops_from_its_root_is_grown_through_backward_balls() {
        // Chain A->B->C->D (bounds 1). a1->b1->c1 waits for c1->d1; the
        // a2 chain is complete, a3 is an A that nothing reaches. The insert
        // crosses only (C, D): its one root gain is (C, c1). (B, b1) and
        // (A, a1) — two pattern hops from the root — become candidates
        // only through the backward balls of c1 and then of b1.
        const SEM: MatchSemantics = MatchSemantics::Simulation;
        let (mut g, li, n) = DataGraphBuilder::new()
            .node("a1", "A")
            .node("b1", "B")
            .node("c1", "C")
            .node("d1", "D")
            .node("a2", "A")
            .node("b2", "B")
            .node("c2", "C")
            .node("d2", "D")
            .node("a3", "A")
            .edge("a1", "b1")
            .edge("b1", "c1")
            .edge("a2", "b2")
            .edge("b2", "c2")
            .edge("c2", "d2")
            .build()
            .unwrap();
        let (p, _, pn) = PatternGraphBuilder::new()
            .node("A", "A")
            .node("B", "B")
            .node("C", "C")
            .node("D", "D")
            .edge("A", "B", 1)
            .edge("B", "C", 1)
            .edge("C", "D", 1)
            .build_with_interner(li)
            .unwrap();
        let mut slen = IncrementalIndex::build(&g);
        let mut result = match_graph(&p, &g, &slen, SEM);
        assert!(!result.contains(pn["A"], n["a1"]));

        g.add_edge(n["c1"], n["d1"]).unwrap();
        let mut plan = RepairPlan::new();
        plan.verify = slen.commit_insert_edge(n["c1"], n["d1"]).affected;
        plan.gains.push((pn["C"], n["c1"]));
        let outcome = repair(&p, &g, &slen, SEM, &mut result, &plan);
        assert_eq!(outcome.candidates, 3, "c1, b1 and a1 — not a3");
        let scratch = match_graph(&p, &g, &slen, SEM);
        assert_eq!(result, scratch);
        assert!(result.relation_eq(&scratch));
        assert!(result.contains(pn["A"], n["a1"]));
    }

    #[test]
    fn a_clean_member_held_up_by_a_fresh_witness_is_swept_again() {
        // Pattern 2-cycle U0 <-> U1 (bounds 1) over a core cycle xc <-> yc.
        // y_old stands on x_old, and x_old on yc. Deleting x_old->yc
        // changes x_old's row only (y_old still reaches yc through z):
        // x_old is dirty, y_old is clean. The plan also names the pairs
        // (U0, x_new) and (U1, y_new) — a plan may over-approximate its
        // gains. The sweeps then go: U0 drops x_old, an old member, so
        // U1's next sweep is whole; it keeps y_old on the *fresh* x_new
        // and drops y_new; U0 then drops x_new, a fresh candidate only.
        // y_old has lost every witness, but it is clean: only the rule
        // that a node once swept whole is swept whole again removes it.
        const SEM: MatchSemantics = MatchSemantics::Simulation;
        let (mut g, li, n) = DataGraphBuilder::new()
            .node("xc", "X")
            .node("yc", "Y")
            .node("x_old", "X")
            .node("y_old", "Y")
            .node("z", "Z")
            .node("x_new", "X")
            .node("y_new", "Y")
            .edge("xc", "yc")
            .edge("yc", "xc")
            .edge("x_old", "yc")
            .edge("y_old", "x_old")
            .edge("y_old", "z")
            .edge("z", "yc")
            .edge("y_old", "x_new")
            .edge("x_new", "y_new")
            .build()
            .unwrap();
        let (p, _, pn) = PatternGraphBuilder::new()
            .node("U0", "X")
            .node("U1", "Y")
            .edge("U0", "U1", 1)
            .edge("U1", "U0", 1)
            .build_with_interner(li)
            .unwrap();
        let mut slen = IncrementalIndex::build(&g);
        let mut result = match_graph(&p, &g, &slen, SEM);
        assert!(result.contains(pn["U1"], n["y_old"]));
        assert!(!result.contains(pn["U0"], n["x_new"]));

        g.remove_edge(n["x_old"], n["yc"]).unwrap();
        let mut plan = RepairPlan::new();
        plan.verify = slen.commit_delete_edge(&g, n["x_old"], n["yc"]).affected;
        assert!(plan.verify.contains(n["x_old"]) && !plan.verify.contains(n["y_old"]));
        plan.gains.push((pn["U0"], n["x_new"]));
        plan.gains.push((pn["U1"], n["y_new"]));
        let outcome = repair(&p, &g, &slen, SEM, &mut result, &plan);
        assert_eq!(outcome.candidates, 2);
        assert!(
            !result.contains(pn["U1"], n["y_old"]),
            "y_old lost x_old and x_new"
        );
        let scratch = match_graph(&p, &g, &slen, SEM);
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
        let rematched = repair(&p, &g, &slen, SEM, &mut result, &plan).rematched;
        assert!(rematched, "no relation to repair: fallback");
        let scratch = match_graph(&p, &g, &slen, SEM);
        assert_eq!(result, scratch);
        assert!(result.relation_eq(&scratch));
        assert!(result.contains(pn["A"], n["a3"]));
    }

    /// `repair_gains` on `result` for a data plan, asserting that its delta
    /// is the diff of the visible sets, pair for pair and in order, and that
    /// `repair` on a copy reaches the same result and outcome.
    fn repair_checked<O: DistanceOracle>(
        p: &PatternGraph,
        g: &DataGraph,
        oracle: &O,
        result: &mut MatchResult,
        plan: &RepairPlan,
    ) -> (RepairOutcome, MatchDelta) {
        assert!(plan.addition_sources.is_empty(), "a data plan");
        let (before, mut plain) = (result.clone(), result.clone());
        let sem = MatchSemantics::Simulation;
        let (outcome, delta) = repair_gains(p, g, oracle, sem, result, &plan.verify, &plan.gains);
        assert_eq!(delta, result.delta_from(&before, 0));
        assert_eq!(repair(p, g, oracle, sem, &mut plain, plan), outcome);
        assert_eq!(&plain, result);
        (outcome, delta)
    }

    /// `chain_fixture` with `a1 -> b1` deleted: A has no matcher, so the
    /// relation `∅ | b1 b3 | c1 c2` is withheld.
    fn withheld_chain() -> (
        DataGraph,
        PatternGraph,
        IncrementalIndex,
        MatchResult,
        std::collections::HashMap<String, NodeId>,
        std::collections::HashMap<String, PatternNodeId>,
    ) {
        let (mut g, p, n, pn) = chain_fixture();
        let mut slen = IncrementalIndex::build(&g);
        let mut result = match_graph(&p, &g, &slen, MatchSemantics::Simulation);
        g.remove_edge(n["a1"], n["b1"]).unwrap();
        let mut plan = RepairPlan::new();
        plan.verify = slen.commit_delete_edge(&g, n["a1"], n["b1"]).affected;
        repair(
            &p,
            &g,
            &slen,
            MatchSemantics::Simulation,
            &mut result,
            &plan,
        );
        assert!(result.is_empty() && result.relation_contains(pn["B"], n["b3"]));
        (g, p, slen, result, n, pn)
    }

    #[test]
    fn delta_shown_to_shown_omits_a_candidate_admitted_then_pruned() {
        // The fixture of `a_clean_member_held_up_by_a_fresh_witness_is_
        // swept_again`, cut down: x_new and y_new are admitted as
        // candidates and pruned again in the same call.
        let (mut g, li, n) = DataGraphBuilder::new()
            .node("xc", "X")
            .node("yc", "Y")
            .node("x_old", "X")
            .node("y_old", "Y")
            .node("z", "Z")
            .node("x_new", "X")
            .node("y_new", "Y")
            .edge("xc", "yc")
            .edge("yc", "xc")
            .edge("x_old", "yc")
            .edge("y_old", "x_old")
            .edge("y_old", "z")
            .edge("z", "yc")
            .edge("y_old", "x_new")
            .edge("x_new", "y_new")
            .build()
            .unwrap();
        let (p, _, pn) = PatternGraphBuilder::new()
            .node("U0", "X")
            .node("U1", "Y")
            .edge("U0", "U1", 1)
            .edge("U1", "U0", 1)
            .build_with_interner(li)
            .unwrap();
        let mut slen = IncrementalIndex::build(&g);
        let mut result = match_graph(&p, &g, &slen, MatchSemantics::Simulation);
        g.remove_edge(n["x_old"], n["yc"]).unwrap();
        let mut plan = RepairPlan::new();
        plan.verify = slen.commit_delete_edge(&g, n["x_old"], n["yc"]).affected;
        plan.gains.push((pn["U0"], n["x_new"]));
        plan.gains.push((pn["U1"], n["y_new"]));
        let (outcome, delta) = repair_checked(&p, &g, &slen, &mut result, &plan);
        assert_eq!(outcome.candidates, 2);
        assert!(!result.is_empty(), "the xc <-> yc core still matches");
        assert!(delta.added.is_empty(), "both candidates were pruned");
        assert_eq!(
            delta.removed,
            vec![(pn["U0"], n["x_old"]), (pn["U1"], n["y_old"])]
        );
    }

    #[test]
    fn delta_shown_to_withheld_removes_every_shown_pair() {
        let (mut g, p, n, _) = chain_fixture();
        let mut slen = IncrementalIndex::build(&g);
        let mut result = match_graph(&p, &g, &slen, MatchSemantics::Simulation);
        let shown = result.total_matches();
        g.remove_edge(n["a1"], n["b1"]).unwrap();
        let mut plan = RepairPlan::new();
        plan.verify = slen.commit_delete_edge(&g, n["a1"], n["b1"]).affected;
        let (_, delta) = repair_checked(&p, &g, &slen, &mut result, &plan);
        assert!(result.is_empty());
        assert!(delta.added.is_empty());
        assert_eq!(delta.removed.len(), shown, "every shown pair");
    }

    #[test]
    fn delta_shown_to_withheld_keeps_a_surviving_candidate_out_of_the_removals() {
        // A loses a1 (shown -> withheld) in the repair that admits a new B
        // member, b4 -> c2: b4 joins the withheld relation, so it was never
        // shown and is no removal.
        let (mut g, p, n, pn) = chain_fixture();
        let mut slen = IncrementalIndex::build(&g);
        let mut result = match_graph(&p, &g, &slen, MatchSemantics::Simulation);
        let shown = result.total_matches();
        g.remove_edge(n["a1"], n["b1"]).unwrap();
        let mut plan = RepairPlan::new();
        plan.verify = slen.commit_delete_edge(&g, n["a1"], n["b1"]).affected;
        let b4 = g.add_node(g.label(n["b1"]).unwrap());
        slen.commit_insert_node(g.slot_count());
        g.add_edge(b4, n["c2"]).unwrap();
        plan.verify
            .union_with(&slen.commit_insert_edge(b4, n["c2"]).affected);
        plan.gains.push((pn["B"], b4));
        let (outcome, delta) = repair_checked(&p, &g, &slen, &mut result, &plan);
        assert_eq!(outcome.candidates, 1);
        assert!(result.is_empty() && result.relation_contains(pn["B"], b4));
        assert!(delta.added.is_empty());
        assert_eq!(
            delta.removed.len(),
            shown,
            "every shown pair, and only those"
        );
    }

    #[test]
    fn delta_withheld_to_withheld_is_empty() {
        let (mut g, p, mut slen, mut result, n, pn) = withheld_chain();
        g.remove_edge(n["b1"], n["c1"]).unwrap();
        let mut plan = RepairPlan::new();
        plan.verify = slen.commit_delete_edge(&g, n["b1"], n["c1"]).affected;
        let (_, delta) = repair_checked(&p, &g, &slen, &mut result, &plan);
        assert!(
            !result.relation_contains(pn["B"], n["b1"]),
            "the hidden B shrank"
        );
        assert!(delta.is_empty());
    }

    #[test]
    fn delta_withheld_to_shown_adds_every_pair() {
        let (mut g, p, mut slen, mut result, n, pn) = withheld_chain();
        g.add_edge(n["a3"], n["b3"]).unwrap();
        let mut plan = RepairPlan::new();
        plan.verify = slen.commit_insert_edge(n["a3"], n["b3"]).affected;
        plan.gains.push((pn["A"], n["a3"]));
        let (_, delta) = repair_checked(&p, &g, &slen, &mut result, &plan);
        assert!(!result.is_empty(), "A gained a3: the pattern revives");
        assert!(delta.removed.is_empty());
        assert_eq!(delta.added.len(), result.total_matches());
    }

    #[test]
    fn delta_of_a_rematch_adds_every_shown_pair() {
        let (mut g, p, mut slen, mut result, n, pn) = withheld_chain();
        result.set_mut(pn["A"]).remove(n["a1"]); // discards the relation
        g.add_edge(n["a3"], n["b3"]).unwrap();
        let mut plan = RepairPlan::new();
        plan.verify = slen.commit_insert_edge(n["a3"], n["b3"]).affected;
        let (outcome, delta) = repair_checked(&p, &g, &slen, &mut result, &plan);
        assert!(outcome.rematched);
        assert_eq!(delta.added.len(), result.total_matches());
        assert!(delta.removed.is_empty());
    }

    #[test]
    fn delta_of_an_empty_plan_follows_the_projection_and_the_tombstones() {
        // A pattern kept unmatched by GHOST alone: deleting GHOST with an
        // otherwise-empty plan shows the relation (every pair added).
        let f = fig1();
        let slen = IncrementalIndex::build(&f.graph);
        let (mut p, _, pn) = PatternGraphBuilder::new()
            .node("PM", "PM")
            .node("SE", "SE")
            .edge("PM", "SE", 3)
            .node("GHOST", "NoSuchLabel")
            .build_with_interner(f.interner.clone())
            .unwrap();
        let mut result = match_graph(&p, &f.graph, &slen, MatchSemantics::Simulation);
        assert!(result.is_empty());
        p.remove_node(pn["GHOST"]).unwrap();
        let (_, delta) = repair_checked(&p, &f.graph, &slen, &mut result, &RepairPlan::new());
        let scratch = match_graph(&p, &f.graph, &slen, MatchSemantics::Simulation);
        assert!(!result.is_empty() && result == scratch);
        assert_eq!(delta.added.len(), result.total_matches());
        assert!(delta.removed.is_empty());
        // Deleting a shown node with no edges takes only its own pairs:
        // its slot is tombstoned and cleared.
        let lone = p.add_node(f.interner.get("TE").expect("fig. 1 label"));
        let mut result = match_graph(&p, &f.graph, &slen, MatchSemantics::Simulation);
        let lone_pairs: Vec<_> = result.matches_of(lone).map(|v| (lone, v)).collect();
        assert!(!lone_pairs.is_empty());
        p.remove_node(lone).unwrap();
        let (_, delta) = repair_checked(&p, &f.graph, &slen, &mut result, &RepairPlan::new());
        assert!(delta.added.is_empty());
        assert_eq!(delta.removed, lone_pairs);
    }

    #[test]
    fn a_write_copies_only_the_set_it_touches_and_only_while_shared() {
        let f = fig1();
        let slen = apsp_matrix(&f.graph);
        let mut live = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        let view = live.visible();
        let set_ptr = |r: &MatchResult, p| r.set(p) as *const NodeSet;
        assert_eq!(set_ptr(&view, f.p_pm), set_ptr(&live, f.p_pm), "shared");
        live.slot_mut(f.p_pm).remove(f.pm2);
        assert_ne!(set_ptr(&view, f.p_pm), set_ptr(&live, f.p_pm), "copied");
        assert!(view.contains(f.p_pm, f.pm2), "the view is untouched");
        assert_eq!(set_ptr(&view, f.p_se), set_ptr(&live, f.p_se), "unwritten");
        let written = set_ptr(&live, f.p_pm);
        live.slot_mut(f.p_pm).remove(f.pm1);
        assert_eq!(
            set_ptr(&live, f.p_pm),
            written,
            "unshared: written in place"
        );
    }
}
