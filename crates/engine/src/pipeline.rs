//! The engine's repair pipeline, decomposed into per-pattern steps.
//!
//! [`crate::GpnmEngine`] fuses three concerns inside `subsequent_query`:
//! committing updates to the graph + `SLen` backend, deriving per-update
//! repair plans, and running the eliminative repair. A multi-pattern
//! deployment wants them *separated*: one data graph and one backend serve
//! many standing patterns, so the graph/`SLen` commit must happen **once**
//! per batch while plan derivation and repair run once per pattern. This
//! module exposes exactly that seam:
//!
//! 1. [`commit_data_update`] — apply one data update to the graph and
//!    repair the backend, returning the [`CommittedUpdate`] record (the
//!    `SLen` [`AffDelta`] plus any created node id).
//! 2. [`plan_for_data_update`] (re-exported) — derive one pattern's
//!    [`RepairPlan`] from a committed update. Must be called *during* the
//!    commit pass, while the graph sits at that update's post-state —
//!    exactly where the single-pattern engine calls it. A plan's `verify`
//!    set does not depend on the pattern, so the hosts union it once per
//!    tick and build only each pattern's root gains
//!    ([`push_data_update_gains`], also re-exported).
//! 3. [`SharedElimination::detect`] — DER-II elimination analysis
//!    (affected-set containment → EH-Tree). Only `gpnm-bench`'s staged
//!    replay calls it, to time it; no host calls it, and no refresh reads
//!    it.
//! 4. [`refresh_pattern`] — the hosts' one refresh: a single repair pass
//!    per pattern over the tick's verify set and the pattern's gains, at
//!    the post-batch state, returning the pattern's delta.
//!
//! `GpnmEngine` commits through [`commit_data_update`] and plans through
//! the same plan builders, so the two front doors cannot drift apart
//! there: they share commit, plan and match. They differ on purpose
//! after that: the engine interleaves pattern updates, detects
//! eliminations and runs the paper's one pass **per surviving update**
//! (`run_survivor_repairs` — the cost model Fig. 5–9 measure), the hosts
//! commit the whole batch first and run one pass over the union.

use std::time::{Duration, Instant};

use gpnm_distance::{AffDelta, RepairHint, SlenBackend};
use gpnm_graph::{DataGraph, NodeId, NodeSet, PatternGraph, PatternNodeId};
use gpnm_matcher::{
    match_graph, repair, repair_gains, MatchDelta, MatchResult, MatchSemantics, RepairPlan,
};
use gpnm_updates::{DataUpdate, EhTree, EliminationGraph, Update, UpdateEffect};

use crate::error::EngineError;

pub use crate::plan_builder::{
    plan_for_data_update, plan_for_pattern_update, push_data_update_gains,
};

/// One data update after its single shared commit: what the graph and
/// backend absorbed, and what a plan or an elimination analysis reads.
#[derive(Debug, Clone)]
pub struct CommittedUpdate {
    /// The update as applied.
    pub update: DataUpdate,
    /// The `SLen` changes the commit produced (`AFF` + `Aff_N`).
    pub delta: AffDelta,
    /// The node id a `DataUpdate::InsertNode` created.
    pub created: Option<NodeId>,
}

impl CommittedUpdate {
    /// Whether the update can only add structure (insertions admit new
    /// members; deletions only remove).
    pub fn is_insertion(&self) -> bool {
        matches!(
            self.update,
            DataUpdate::InsertEdge { .. } | DataUpdate::InsertNode { .. }
        )
    }

    /// Every name [`CommittedUpdate::kind`] returns.
    pub const KINDS: [&'static str; 4] =
        ["insert_edge", "delete_edge", "insert_node", "delete_node"];

    /// The update's kind as telemetry names it: the `kind` of the TRACE
    /// `engine_commit` event and of `gpnm_slen_repair_seconds`.
    pub fn kind(&self) -> &'static str {
        Self::KINDS[match self.update {
            DataUpdate::InsertEdge { .. } => 0,
            DataUpdate::DeleteEdge { .. } => 1,
            DataUpdate::InsertNode { .. } => 2,
            DataUpdate::DeleteNode { .. } => 3,
        }]
    }
}

/// Apply one data update to `graph` and repair `index`, returning the
/// committed record. Fails (without mutating anything) if the update is
/// invalid against the current graph — callers that pre-validate whole
/// batches can `expect` this. The one place a [`RepairHint`] is chosen for
/// the engine and the hosts; it selects nothing (see its docs).
pub fn commit_data_update<B: SlenBackend>(
    graph: &mut DataGraph,
    index: &mut B,
    update: &DataUpdate,
) -> Result<CommittedUpdate, EngineError> {
    const HINT: RepairHint = RepairHint::Baseline;
    // The repair is timed apart from the mutation: the event below
    // carries the `SLen` layer's share alone.
    fn timed(repair: impl FnOnce() -> AffDelta) -> (AffDelta, Duration) {
        let t = Instant::now();
        let delta = repair();
        (delta, t.elapsed())
    }
    let ((delta, took), created) = match *update {
        DataUpdate::InsertEdge { from, to } => {
            graph.add_edge(from, to)?;
            let repair = || index.commit_insert_edge(graph, from, to, HINT);
            (timed(repair), None)
        }
        DataUpdate::DeleteEdge { from, to } => {
            graph.remove_edge(from, to)?;
            let repair = || index.commit_delete_edge(graph, from, to, HINT);
            (timed(repair), None)
        }
        DataUpdate::InsertNode { label } => {
            let id = graph.add_node(label);
            let repair = || index.commit_insert_node(graph, id, HINT);
            (timed(repair), Some(id))
        }
        DataUpdate::DeleteNode { node } => {
            graph.remove_node(node)?;
            let repair = || index.commit_delete_node(graph, node, HINT);
            (timed(repair), None)
        }
    };
    let committed = CommittedUpdate {
        update: *update,
        delta,
        created,
    };
    tracing::event!(
        tracing::Level::TRACE,
        "engine_commit",
        kind = committed.kind(),
        slen_changes = committed.delta.changed.len(),
        affected = committed.delta.affected.len(),
        repair_ns = u64::try_from(took.as_nanos()).unwrap_or(u64::MAX),
    );
    Ok(committed)
}

/// Where one pattern's refresh spent its work, and what it changed.
#[derive(Debug, Clone, Default)]
pub struct RefreshStats {
    /// Repair passes run: one per [`refresh_pattern`] call, zero when the
    /// tick committed nothing (or under [`crate::RefreshStrategy::Rematch`]).
    pub repair_calls: usize,
    /// Match repair (or re-match) time.
    pub repair_time: Duration,
    /// Whether the repair pass fell back to [`match_graph`] because
    /// `result` was visibly empty and carried no relation to repair (see
    /// [`repair`]). A steady-state host tick expects `false`.
    pub rematched: bool,
    /// `(pattern node, data node)` candidates the repair grew outside the
    /// standing relation ([`gpnm_matcher::RepairOutcome::candidates`]).
    pub candidates: usize,
    /// The visible change, stamped version 0 (the delta
    /// [`gpnm_matcher::repair_gains`] returns); empty when no repair pass
    /// ran.
    pub delta: MatchDelta,
}

/// A batch's DER-II elimination analysis: containment detection and the
/// EH-Tree over committed records. The effects consume only the update
/// kind and its `SLen` `Aff_N` coverage — nothing pattern-specific.
///
/// Kept only because `gpnm-bench` names it: its staged replay times
/// `detect`. No refresh reads it, and no host calls it. Removed with
/// ROADMAP D2(b).
#[derive(Debug, Clone)]
pub struct SharedElimination {
    /// DER-II detection time (containment + relations).
    pub detect_time: Duration,
    /// EH-Tree construction time.
    pub tree_time: Duration,
}

impl SharedElimination {
    /// Detect eliminations among `committed` and build the EH-Tree, timing
    /// each half. The tree itself is not kept: nothing reads it.
    pub fn detect(committed: &[CommittedUpdate]) -> Self {
        let t = Instant::now();
        let effects: Vec<UpdateEffect> = committed
            .iter()
            .enumerate()
            .map(|(j, cu)| UpdateEffect {
                index: j,
                update: Update::Data(cu.update),
                coverage: cu.delta.affected.clone(),
                insertion: cu.is_insertion(),
                cross_eliminates: Vec::new(),
            })
            .collect();
        let relations = EliminationGraph::detect(&effects);
        let detect_time = t.elapsed();
        let t = Instant::now();
        std::hint::black_box(EhTree::build(&effects, &relations));
        let tree_time = t.elapsed();
        SharedElimination {
            detect_time,
            tree_time,
        }
    }
}

/// Refresh one pattern's `result` after a shared commit pass — the hosts'
/// one refresh (the service and every cluster shard): **one**
/// [`repair_gains`] over `verify` and `gains`, at the post-batch state.
///
/// `verify` must be the union of the tick's committed updates' `Aff_N`
/// sets and created nodes — one set for every pattern — and `gains` what
/// [`push_data_update_gains`] appended for them *against this pattern*
/// during the commit pass: together, the fold of the plans
/// [`plan_for_data_update`] would derive. By refresh time the graph and
/// index are read-only, and pruning a superset of the maximum simulation
/// from above is confluent ([`repair`]'s own argument), so one pass over
/// the union reaches exactly the fixed point the paper's pass-per-survivor
/// loop reaches — [`crate::GpnmEngine`] keeps that loop, whose per-update
/// cost is what the paper's figures measure. An update the paper eliminates has
/// its `Aff_N` inside another's, so the union is what the survivors' sets
/// cover. A host whose reduced batch committed nothing does not call this.
///
/// The repair runs inside a TRACE `match_repair` span (the matcher's
/// share of a pattern's refresh), and a fallback to [`match_graph`] emits
/// a TRACE `repair_rematch` event.
pub fn refresh_pattern<B: SlenBackend>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    index: &B,
    semantics: MatchSemantics,
    result: &mut MatchResult,
    verify: &NodeSet,
    gains: &[(PatternNodeId, NodeId)],
) -> RefreshStats {
    let span = tracing::span!(tracing::Level::TRACE, "match_repair");
    let _entered = span.enter();
    let t = Instant::now();
    let (outcome, delta) = repair_gains(pattern, graph, index, semantics, result, verify, gains);
    if outcome.rematched {
        tracing::event!(tracing::Level::TRACE, "repair_rematch");
    }
    RefreshStats {
        repair_calls: 1,
        repair_time: t.elapsed(),
        rematched: outcome.rematched,
        candidates: outcome.candidates,
        delta,
    }
}

/// [`refresh_pattern`] over any number of plans, or a re-match. Kept only
/// because `gpnm-bench`'s staged replay calls it; removed with ROADMAP
/// D2(b).
///
/// `plans` holds one [`plan_for_data_update`] plan per committed update,
/// or any folding of them; an empty slice means the reduced batch was
/// empty and runs no pass.
/// [`crate::RefreshStrategy::Eliminative`] folds them and runs
/// [`refresh_pattern`]; [`crate::RefreshStrategy::Rematch`] discards the
/// standing result and re-matches from the post-batch index. Both reach
/// the same fixed point (`every_refresh_strategy_reaches_the_same_fixed_point`).
/// `shared` is not read.
#[allow(clippy::too_many_arguments)] // the bench's call shape
pub fn refresh_pattern_strategy<B: SlenBackend>(
    strategy: crate::RefreshStrategy,
    pattern: &PatternGraph,
    graph: &DataGraph,
    index: &B,
    semantics: MatchSemantics,
    result: &mut MatchResult,
    plans: &[RepairPlan],
    _shared: &SharedElimination,
) -> RefreshStats {
    match strategy {
        crate::RefreshStrategy::Eliminative if plans.is_empty() => RefreshStats::default(),
        crate::RefreshStrategy::Eliminative => {
            let mut merged = RepairPlan::new();
            for plan in plans {
                merged.merge(plan);
            }
            debug_assert!(merged.addition_sources.is_empty(), "data plans only");
            let (verify, gains) = (&merged.verify, &merged.gains);
            refresh_pattern(pattern, graph, index, semantics, result, verify, gains)
        }
        crate::RefreshStrategy::Rematch => {
            let t = Instant::now();
            *result = match_graph(pattern, graph, index, semantics);
            RefreshStats {
                repair_time: t.elapsed(),
                ..RefreshStats::default()
            }
        }
    }
}

/// Run one repair pass per survivor plan, seeding the merged additions
/// (gains and sources) into the first call only (additions cascade inside
/// `repair`, so one seeding suffices; later passes are pure verify
/// passes). Returns the number of repair calls made. The engine's
/// eliminative strategies only: the hosts fold the survivors into one
/// pass ([`refresh_pattern`]).
pub(crate) fn run_survivor_repairs<B: SlenBackend>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    index: &B,
    semantics: MatchSemantics,
    result: &mut MatchResult,
    survivor_plans: &[&RepairPlan],
    mut pass: RepairPlan,
) -> usize {
    if survivor_plans.is_empty() {
        // No survivors (empty reduced batch) but additions pending —
        // cannot happen with a non-empty tree, guarded for safety.
        if pass.is_empty() {
            return 0;
        }
        repair(pattern, graph, index, semantics, result, &pass);
        return 1;
    }
    for plan in survivor_plans {
        pass.verify.clone_from(&plan.verify);
        repair(pattern, graph, index, semantics, result, &pass);
        pass.gains.clear();
        pass.addition_sources.clear();
    }
    survivor_plans.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_distance::IncrementalIndex;
    use gpnm_graph::paper::{fig1, Fig1};
    use gpnm_graph::GraphError;
    use gpnm_matcher::match_graph;

    #[test]
    fn commit_is_typed_fallible_without_mutation() {
        let mut f = fig1();
        let mut index = IncrementalIndex::build(&f.graph);
        let bad = DataUpdate::InsertEdge {
            from: f.pm1,
            to: f.se2, // already exists
        };
        let before_edges = f.graph.edge_count();
        let err = commit_data_update(&mut f.graph, &mut index, &bad)
            .expect_err("duplicate edge must be refused");
        assert_eq!(
            err,
            EngineError::InvalidBatch(GraphError::DuplicateEdge(f.pm1, f.se2))
        );
        assert_eq!(f.graph.edge_count(), before_edges);
    }

    /// Fig. 1 after one committed tick: the pre-batch result plus the
    /// plans and elimination analysis a host's refresh consumes.
    struct Tick {
        f: Fig1,
        index: IncrementalIndex,
        base: MatchResult,
        plans: Vec<RepairPlan>,
        shared: SharedElimination,
    }

    const SEMANTICS: MatchSemantics = MatchSemantics::Simulation;

    fn committed_tick() -> Tick {
        let mut f = fig1();
        let mut index = IncrementalIndex::build(&f.graph);
        let base = match_graph(&f.pattern, &f.graph, &index, SEMANTICS);
        let updates = [
            DataUpdate::InsertEdge {
                from: f.se1,
                to: f.te2,
            },
            DataUpdate::DeleteEdge {
                from: f.se1,
                to: f.s1,
            },
        ];
        let mut committed = Vec::new();
        let mut plans = Vec::new();
        for u in &updates {
            let cu = commit_data_update(&mut f.graph, &mut index, u).expect("valid update");
            plans.push(plan_for_data_update(
                u, &cu.delta, &f.pattern, &f.graph, &base, cu.created,
            ));
            committed.push(cu);
        }
        let shared = SharedElimination::detect(&committed);
        Tick {
            f,
            index,
            base,
            plans,
            shared,
        }
    }

    fn refresh(tick: &Tick, strategy: crate::RefreshStrategy) -> (MatchResult, RefreshStats) {
        let mut result = tick.base.clone();
        let stats = refresh_pattern_strategy(
            strategy,
            &tick.f.pattern,
            &tick.f.graph,
            &tick.index,
            SEMANTICS,
            &mut result,
            &tick.plans,
            &tick.shared,
        );
        (result, stats)
    }

    #[test]
    fn commit_then_refresh_matches_scratch() {
        let tick = committed_tick();
        let mut folded = RepairPlan::new();
        for plan in &tick.plans {
            folded.merge(plan);
        }
        let mut result = tick.base.clone();
        let stats = refresh_pattern(
            &tick.f.pattern,
            &tick.f.graph,
            &tick.index,
            SEMANTICS,
            &mut result,
            &folded.verify,
            &folded.gains,
        );
        assert_eq!(stats.repair_calls, 1, "one folded pass for the whole batch");
        let scratch = match_graph(&tick.f.pattern, &tick.f.graph, &tick.index, SEMANTICS);
        assert_eq!(result, scratch);
        assert_eq!(stats.delta, result.delta_from(&tick.base, 0));
    }

    #[test]
    fn every_refresh_strategy_reaches_the_same_fixed_point() {
        let tick = committed_tick();
        let scratch = match_graph(&tick.f.pattern, &tick.f.graph, &tick.index, SEMANTICS);
        for strategy in crate::RefreshStrategy::ALL {
            let (result, _) = refresh(&tick, strategy);
            assert_eq!(result, scratch, "{strategy} diverged from scratch");
        }
    }
}
