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
//!    `SLen` [`AffDelta`] plus any created node id) every pattern's
//!    detection consumes.
//! 2. [`plan_for_data_update`] (re-exported) — derive one pattern's
//!    [`RepairPlan`] from a committed update. Must be called *during* the
//!    commit pass, while the graph sits at that update's post-state —
//!    exactly where the single-pattern engine calls it.
//! 3. [`refresh_pattern`] — one pattern's DER-II elimination analysis
//!    (affected-set containment → EH-Tree) plus the survivor repair
//!    passes, over the shared committed records.
//!
//! `GpnmEngine` itself drives the same functions (its `commit_data` and
//! survivor-repair loop delegate here), so the single-pattern path and the
//! `gpnm-service` multi-pattern path cannot drift apart.

use std::time::{Duration, Instant};

use gpnm_distance::{AffDelta, RepairHint, SlenBackend};
use gpnm_graph::{DataGraph, NodeId, PatternGraph};
use gpnm_matcher::{match_graph, repair, repair_with, MatchResult, MatchSemantics, RepairPlan};
use gpnm_updates::{DataUpdate, EhTree, EliminationGraph, Update, UpdateEffect};

use crate::error::EngineError;

pub use crate::plan_builder::{plan_for_data_update, plan_for_pattern_update};

/// One data update after its single shared commit: what the graph and
/// backend absorbed, and what every pattern's detection needs to know.
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
}

/// Apply one data update to `graph` and repair `index`, returning the
/// committed record. Fails (without mutating anything) if the update is
/// invalid against the current graph — callers that pre-validate whole
/// batches can `expect` this.
pub fn commit_data_update<B: SlenBackend>(
    graph: &mut DataGraph,
    index: &mut B,
    update: &DataUpdate,
    hint: RepairHint,
) -> Result<CommittedUpdate, EngineError> {
    let (delta, created) = match *update {
        DataUpdate::InsertEdge { from, to } => {
            graph.add_edge(from, to)?;
            (index.commit_insert_edge(graph, from, to, hint), None)
        }
        DataUpdate::DeleteEdge { from, to } => {
            graph.remove_edge(from, to)?;
            (index.commit_delete_edge(graph, from, to, hint), None)
        }
        DataUpdate::InsertNode { label } => {
            let id = graph.add_node(label);
            (index.commit_insert_node(graph, id, hint), Some(id))
        }
        DataUpdate::DeleteNode { node } => {
            graph.remove_node(node)?;
            (index.commit_delete_node(graph, node, hint), None)
        }
    };
    let kind = match *update {
        DataUpdate::InsertEdge { .. } => "insert_edge",
        DataUpdate::DeleteEdge { .. } => "delete_edge",
        DataUpdate::InsertNode { .. } => "insert_node",
        DataUpdate::DeleteNode { .. } => "delete_node",
    };
    tracing::event!(
        tracing::Level::TRACE,
        "engine_commit",
        kind = kind,
        slen_changes = delta.changed.len(),
        affected = delta.affected.len(),
    );
    Ok(CommittedUpdate {
        update: *update,
        delta,
        created,
    })
}

/// Where one pattern's refresh spent its work.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefreshStats {
    /// Updates whose repair pass the EH-Tree eliminated.
    pub eliminated: usize,
    /// Repair passes actually run.
    pub repair_calls: usize,
    /// Elimination detection time (containment + relations). Zero when a
    /// precomputed [`SharedElimination`] was supplied.
    pub detect_time: Duration,
    /// EH-Tree construction time. Zero when precomputed.
    pub tree_time: Duration,
    /// Match repair time.
    pub repair_time: Duration,
}

/// The pattern-*independent* half of a tick's elimination analysis:
/// DER-II containment detection and the EH-Tree over the shared committed
/// records. The effects consume only the update kind and its `SLen`
/// `Aff_N` coverage — nothing pattern-specific — so a multi-pattern tick
/// computes this **once** and shares it across every
/// [`refresh_pattern_shared`] call instead of rebuilding k identical
/// trees.
#[derive(Debug, Clone)]
pub struct SharedElimination {
    tree: EhTree,
    /// DER-II detection time (containment + relations).
    pub detect_time: Duration,
    /// EH-Tree construction time.
    pub tree_time: Duration,
}

impl SharedElimination {
    /// Detect eliminations among `committed` and build the EH-Tree.
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
        let tree = EhTree::build(&effects, &relations);
        let tree_time = t.elapsed();
        SharedElimination {
            tree,
            detect_time,
            tree_time,
        }
    }

    /// Indices (into the committed slice) of the surviving updates.
    pub fn survivors(&self) -> &[usize] {
        self.tree.roots()
    }

    /// How many updates the tree eliminated.
    pub fn eliminated_count(&self) -> usize {
        self.tree.eliminated_count()
    }
}

/// Refresh one pattern's `result` after a shared commit pass: detect
/// DER-II eliminations among the committed data updates, build the
/// EH-Tree, and run one repair pass per surviving update.
///
/// `plans[i]` must be the plan [`plan_for_data_update`] derived for
/// `committed[i]` *against this pattern* during the commit pass. The
/// graph/backend must be in their post-batch state. Multi-pattern callers
/// should run [`SharedElimination::detect`] once and use
/// [`refresh_pattern_shared`] per pattern instead.
pub fn refresh_pattern<B: SlenBackend>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    index: &B,
    semantics: MatchSemantics,
    result: &mut MatchResult,
    committed: &[CommittedUpdate],
    plans: &[RepairPlan],
) -> RefreshStats {
    assert_eq!(
        committed.len(),
        plans.len(),
        "one plan per committed update"
    );
    let shared = SharedElimination::detect(committed);
    let mut stats =
        refresh_pattern_shared(pattern, graph, index, semantics, result, plans, &shared);
    stats.detect_time = shared.detect_time;
    stats.tree_time = shared.tree_time;
    stats
}

/// [`refresh_pattern`] with the elimination analysis precomputed — the
/// multi-pattern fast path: one [`SharedElimination`] serves every
/// registered pattern of a tick.
pub fn refresh_pattern_shared<B: SlenBackend>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    index: &B,
    semantics: MatchSemantics,
    result: &mut MatchResult,
    plans: &[RepairPlan],
    shared: &SharedElimination,
) -> RefreshStats {
    let mut stats = RefreshStats {
        eliminated: shared.eliminated_count(),
        ..Default::default()
    };

    // Addition sources union over *every* update (eliminated included) —
    // same contract as the engine (DESIGN.md §2): coverage containment
    // justifies skipping an eliminated update's verify pass, but its
    // pattern-node-level addition sources must still seed the first call.
    let mut all_additions = RepairPlan::new();
    for plan in plans {
        for &p in &plan.addition_sources {
            if !all_additions.addition_sources.contains(&p) {
                all_additions.addition_sources.push(p);
            }
        }
    }
    let survivor_plans: Vec<&RepairPlan> = shared.survivors().iter().map(|&r| &plans[r]).collect();

    let t = Instant::now();
    stats.repair_calls = run_survivor_repairs(
        pattern,
        graph,
        index,
        semantics,
        result,
        &survivor_plans,
        &all_additions,
    );
    stats.repair_time = t.elapsed();
    stats
}

/// [`refresh_pattern_shared`] with the per-pattern half of the tick
/// chosen by a [`crate::RefreshStrategy`] — the seam an adaptive
/// controller swaps per pattern, per tick:
///
/// * [`crate::RefreshStrategy::Eliminative`] delegates to
///   [`refresh_pattern_shared`] (EH-Tree survivors, one verify pass each);
/// * [`crate::RefreshStrategy::PerUpdate`] runs one verify pass per
///   *committed* update, ignoring the elimination analysis — the
///   INC-GPNM refresh shape;
/// * [`crate::RefreshStrategy::Rematch`] discards the standing result and
///   re-matches from the post-batch index — the Scratch refresh shape.
///
/// All three converge to the same fixed point (repair passes verify down
/// to exactly the full match — the invariant
/// `commit_then_refresh_matches_scratch` pins), so the choice trades cost
/// only; the service equivalence proptests assert bitwise-equal results
/// across forced mid-stream switches.
#[allow(clippy::too_many_arguments)] // refresh_pattern_shared's signature + the strategy selector
pub fn refresh_pattern_strategy<B: SlenBackend>(
    strategy: crate::RefreshStrategy,
    pattern: &PatternGraph,
    graph: &DataGraph,
    index: &B,
    semantics: MatchSemantics,
    result: &mut MatchResult,
    plans: &[RepairPlan],
    shared: &SharedElimination,
) -> RefreshStats {
    let span = tracing::span!(
        tracing::Level::TRACE,
        "strategy_refresh",
        strategy = strategy.name(),
        plans = plans.len(),
    );
    let _entered = span.enter();
    match strategy {
        crate::RefreshStrategy::Eliminative => {
            refresh_pattern_shared(pattern, graph, index, semantics, result, plans, shared)
        }
        crate::RefreshStrategy::PerUpdate => {
            let mut stats = RefreshStats::default();
            let mut all_additions = RepairPlan::new();
            for plan in plans {
                for &p in &plan.addition_sources {
                    if !all_additions.addition_sources.contains(&p) {
                        all_additions.addition_sources.push(p);
                    }
                }
            }
            let every_plan: Vec<&RepairPlan> = plans.iter().collect();
            let t = Instant::now();
            stats.repair_calls = run_survivor_repairs(
                pattern,
                graph,
                index,
                semantics,
                result,
                &every_plan,
                &all_additions,
            );
            stats.repair_time = t.elapsed();
            stats
        }
        crate::RefreshStrategy::Rematch => {
            let t = Instant::now();
            *result = match_graph(pattern, graph, index, semantics);
            RefreshStats {
                repair_time: t.elapsed(),
                ..Default::default()
            }
        }
    }
}

/// Run one repair pass per survivor plan, seeding the merged addition
/// sources into the first call only (additions cascade inside `repair`,
/// so one seeding suffices; later passes are pure verify passes). Returns
/// the number of repair calls made. Shared by [`refresh_pattern`] and the
/// engine's eliminative strategies.
pub fn run_survivor_repairs<B: SlenBackend>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    index: &B,
    semantics: MatchSemantics,
    result: &mut MatchResult,
    survivor_plans: &[&RepairPlan],
    all_additions: &RepairPlan,
) -> usize {
    let mut repair_calls = 0;
    let mut additions = all_additions.addition_sources.as_slice();
    for plan in survivor_plans {
        repair_with(
            pattern,
            graph,
            index,
            semantics,
            result,
            &plan.verify,
            additions,
        );
        additions = &[];
        repair_calls += 1;
    }
    if repair_calls == 0 && !additions.is_empty() {
        // No survivors (empty reduced batch) but additions pending —
        // cannot happen with a non-empty tree, guarded for safety.
        repair(pattern, graph, index, semantics, result, all_additions);
        repair_calls += 1;
    }
    repair_calls
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_distance::IncrementalIndex;
    use gpnm_graph::paper::fig1;
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
        let err = commit_data_update(&mut f.graph, &mut index, &bad, RepairHint::Baseline)
            .expect_err("duplicate edge must be refused");
        assert_eq!(
            err,
            EngineError::InvalidBatch(GraphError::DuplicateEdge(f.pm1, f.se2))
        );
        assert_eq!(f.graph.edge_count(), before_edges);
    }

    #[test]
    fn commit_then_refresh_matches_scratch() {
        let mut f = fig1();
        let mut index = IncrementalIndex::build(&f.graph);
        let semantics = MatchSemantics::Simulation;
        let mut result = match_graph(&f.pattern, &f.graph, &index, semantics);

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
            let cu = commit_data_update(&mut f.graph, &mut index, u, RepairHint::Baseline)
                .expect("valid update");
            plans.push(plan_for_data_update(
                u, &cu.delta, &f.pattern, &f.graph, &result, cu.created,
            ));
            committed.push(cu);
        }
        let stats = refresh_pattern(
            &f.pattern,
            &f.graph,
            &index,
            semantics,
            &mut result,
            &committed,
            &plans,
        );
        assert!(stats.repair_calls >= 1);
        let scratch = match_graph(&f.pattern, &f.graph, &index, semantics);
        assert_eq!(result, scratch);
    }

    #[test]
    fn every_refresh_strategy_reaches_the_same_fixed_point() {
        let mut f = fig1();
        let mut index = IncrementalIndex::build(&f.graph);
        let semantics = MatchSemantics::Simulation;
        let base = match_graph(&f.pattern, &f.graph, &index, semantics);

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
            let cu = commit_data_update(&mut f.graph, &mut index, u, RepairHint::Baseline)
                .expect("valid update");
            plans.push(plan_for_data_update(
                u, &cu.delta, &f.pattern, &f.graph, &base, cu.created,
            ));
            committed.push(cu);
        }
        let shared = SharedElimination::detect(&committed);
        let scratch = match_graph(&f.pattern, &f.graph, &index, semantics);
        for strategy in crate::RefreshStrategy::ALL {
            let mut result = base.clone();
            refresh_pattern_strategy(
                strategy,
                &f.pattern,
                &f.graph,
                &index,
                semantics,
                &mut result,
                &plans,
                &shared,
            );
            assert_eq!(result, scratch, "{strategy} diverged from scratch");
        }
    }
}
