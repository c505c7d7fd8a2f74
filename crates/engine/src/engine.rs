//! The GPNM engine: owns the graphs, the `SLen` backend and the current
//! result; answers initial and subsequent queries under any strategy.
//!
//! [`GpnmEngine`] is generic over the [`SlenBackend`] maintaining the
//! distance index — the architectural seam behind backend selection
//! (`partitioned` / `sparse` / `paged`, see [`crate::BackendKind`]). The
//! default backend is [`IncrementalIndex`] (the `partitioned` kind), which
//! reproduces the paper's setup: a dense matrix, repaired in proportion to
//! each update's change under every strategy.
//! [`gpnm_distance::SparseIndex`] trades exhaustive coverage for
//! bounded-row storage and is what large-graph runs use.

use std::time::Instant;

use gpnm_distance::{
    AffDelta, AnyBackend, BackendKind, BudgetError, DistanceMatrix, IncrementalIndex, SlenBackend,
    SlenRequirements,
};
use gpnm_graph::{DataGraph, NodeId, NodeSet, PatternGraph};
use gpnm_matcher::{match_graph, repair, MatchResult, MatchSemantics, RepairPlan};
use gpnm_updates::{
    candidates_for, cross_eliminates, reduce_batch, Candidates, DataUpdate, EhTree,
    EliminationGraph, PatternUpdate, Update, UpdateBatch, UpdateEffect,
};

use crate::error::EngineError;
use crate::pipeline;
use crate::plan_builder::{plan_for_data_update, plan_for_pattern_update};
use crate::stats::ExecStats;
use crate::strategy::Strategy;

/// Which single-graph/cross-graph eliminations a strategy detects.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ElimScope {
    /// EH-GPNM \[14\]: Type II among data updates only.
    DataOnly,
    /// UA-GPNM: Types I + II + III.
    Full,
}

/// A GPNM query engine over one data graph and one pattern graph, generic
/// over the `SLen` backend `B`.
///
/// The engine keeps the `SLen` index exact across updates (exact for the
/// backend's covered projection — see [`SlenBackend`]), so any number of
/// subsequent queries can be chained; each [`GpnmEngine::subsequent_query`]
/// advances the graphs to their post-batch state.
#[derive(Debug, Clone)]
pub struct GpnmEngine<B: SlenBackend = IncrementalIndex> {
    graph: DataGraph,
    pattern: PatternGraph,
    semantics: MatchSemantics,
    index: B,
    result: MatchResult,
    queried: bool,
}

impl GpnmEngine<IncrementalIndex> {
    /// Build an engine on the default (paper-faithful) backend: the dense
    /// matrix.
    pub fn new(graph: DataGraph, pattern: PatternGraph, semantics: MatchSemantics) -> Self {
        Self::with_backend(graph, pattern, semantics)
    }

    /// The current dense `SLen` matrix (always exact for the current
    /// graph). Only the dense backend exposes this; generic code should go
    /// through [`gpnm_distance::DistanceOracle`] instead.
    pub fn slen(&self) -> &DistanceMatrix {
        self.index.matrix()
    }
}

impl GpnmEngine<AnyBackend> {
    /// Build an engine whose backend is chosen at runtime by `kind` — the
    /// one constructor behind every `--backend`-style configuration knob.
    /// The budgets mean what they mean on every host: `max_index_gb`
    /// admits or refuses a dense matrix, `cache_budget_mb` sizes a paged
    /// hot-row cache. Fails exactly when [`AnyBackend::configured`] does.
    /// Statically-typed callers keep [`GpnmEngine::with_backend`]
    /// (`GpnmEngine::<SparseIndex>::with_backend(..)` and friends).
    pub fn with_backend_kind(
        kind: BackendKind,
        graph: DataGraph,
        pattern: PatternGraph,
        semantics: MatchSemantics,
        max_index_gb: f64,
        cache_budget_mb: Option<f64>,
    ) -> Result<Self, BudgetError> {
        let reqs = SlenRequirements::of_pattern(&pattern);
        let index = AnyBackend::configured(kind, &graph, &reqs, max_index_gb, cache_budget_mb)?;
        Ok(Self::from_backend(graph, pattern, semantics, index))
    }
}

impl<B: SlenBackend> GpnmEngine<B> {
    /// Build an engine whose backend type is chosen by the caller:
    /// `GpnmEngine::<SparseIndex>::with_backend(..)`. The backend is
    /// constructed from the pattern's [`SlenRequirements`].
    pub fn with_backend(
        graph: DataGraph,
        pattern: PatternGraph,
        semantics: MatchSemantics,
    ) -> Self {
        let reqs = SlenRequirements::of_pattern(&pattern);
        let index = B::build(&graph, &reqs);
        Self::from_backend(graph, pattern, semantics, index)
    }

    /// Wrap an already-built backend. The backend must be exact for
    /// `graph` and cover `pattern`'s requirements.
    pub fn from_backend(
        graph: DataGraph,
        pattern: PatternGraph,
        semantics: MatchSemantics,
        index: B,
    ) -> Self {
        let result = MatchResult::for_pattern(&pattern);
        GpnmEngine {
            graph,
            pattern,
            semantics,
            index,
            result,
            queried: false,
        }
    }

    /// The current data graph.
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// The current pattern graph.
    pub fn pattern(&self) -> &PatternGraph {
        &self.pattern
    }

    /// The `SLen` backend.
    pub fn backend(&self) -> &B {
        &self.index
    }

    /// The active match semantics.
    pub fn semantics(&self) -> MatchSemantics {
        self.semantics
    }

    /// The most recent query result (IQuery after
    /// [`GpnmEngine::initial_query`], SQuery after
    /// [`GpnmEngine::subsequent_query`]).
    pub fn result(&self) -> &MatchResult {
        &self.result
    }

    /// A no-op: no backend has anything to prepare. It stays because the
    /// benchmark of record (`gpnm-bench/src/squery.rs`) calls it by name;
    /// nothing else does.
    pub fn prepare_partition(&mut self) {}

    /// Compute `IQuery` — the batch GPNM of the current graphs.
    pub fn initial_query(&mut self) -> &MatchResult {
        self.result = match_graph(&self.pattern, &self.graph, &self.index, self.semantics);
        self.queried = true;
        &self.result
    }

    /// From-scratch GPNM of the *current* state without touching the
    /// engine — the correctness oracle used by the test-suite.
    pub fn scratch_query(&self) -> MatchResult {
        match_graph(&self.pattern, &self.graph, &self.index, self.semantics)
    }

    /// Answer `SQuery` after `batch`, using `strategy`.
    ///
    /// On success the engine's graphs, `SLen` and result reflect the
    /// post-batch state. An invalid batch (duplicate edge, missing node,
    /// …) fails *before* any mutation, as a typed [`EngineError`].
    pub fn subsequent_query(
        &mut self,
        batch: &UpdateBatch,
        strategy: Strategy,
    ) -> Result<ExecStats, EngineError> {
        batch.validate(&self.graph, &self.pattern)?;
        if !self.queried {
            self.initial_query();
        }
        let start = Instant::now();
        // Widen the backend's coverage to everything this batch can ask
        // for *before* any detection: DER-I probes a pattern insert's new
        // bound against the pre-update index, so requirements must be the
        // union of the standing pattern and every pending pattern edge
        // insert, each at the label its source node has when it arrives —
        // which may be a node inserted earlier in the same batch, so the
        // batch is walked on a copy of the pattern. Scratch skips the
        // pre-sync — its rebuild covers the widened requirements in the
        // same single pass.
        let t = Instant::now();
        let mut reqs = SlenRequirements::of_pattern(&self.pattern);
        let mut pending = self.pattern.clone();
        for u in batch.updates() {
            let Update::Pattern(pu) = u else { continue };
            if let PatternUpdate::InsertEdge { from, bound, .. } = *pu {
                if let Some(label) = pending.label(from) {
                    reqs.absorb_edge(label, bound);
                }
            }
            apply_to_pattern(&mut pending, pu);
        }
        if strategy != Strategy::Scratch {
            self.index.sync_requirements(&self.graph, &reqs);
        }
        let sync_time = t.elapsed();
        let mut stats = match strategy {
            Strategy::Scratch => self.run_scratch(batch, &reqs),
            Strategy::IncGpnm => self.run_inc(batch),
            Strategy::EhGpnm => self.run_eliminative(batch, ElimScope::DataOnly),
            Strategy::UaGpnm => self.run_eliminative(batch, ElimScope::Full),
        };
        stats.strategy = strategy.name();
        stats.slen_time += sync_time;
        stats.total_time = start.elapsed();
        Ok(stats)
    }

    // ==================================================================
    // Strategy: from scratch
    // ==================================================================

    fn run_scratch(&mut self, batch: &UpdateBatch, reqs: &SlenRequirements) -> ExecStats {
        let mut stats = ExecStats {
            updates_submitted: batch.len(),
            updates_after_reduction: batch.len(),
            ..Default::default()
        };
        let t = Instant::now();
        batch
            .apply_all(&mut self.graph, &mut self.pattern)
            .expect("batch validated");
        self.index.rebuild(&self.graph, reqs);
        stats.slen_time = t.elapsed();
        let t = Instant::now();
        self.result = match_graph(&self.pattern, &self.graph, &self.index, self.semantics);
        stats.repair_time = t.elapsed();
        stats.repair_calls = 1;
        stats
    }

    // ==================================================================
    // Strategy: INC-GPNM — one incremental pass per update
    // ==================================================================

    fn run_inc(&mut self, batch: &UpdateBatch) -> ExecStats {
        let mut stats = ExecStats {
            updates_submitted: batch.len(),
            updates_after_reduction: batch.len(),
            ..Default::default()
        };
        // Pattern updates first (they act on the pattern only), each with
        // its own detect + repair.
        for u in batch.updates() {
            let Update::Pattern(pu) = u else { continue };
            let t = Instant::now();
            let can = candidates_for(&self.pattern, &self.graph, &self.index, &self.result, pu);
            let plan = plan_for_pattern_update(pu, &can, &self.pattern, self.pattern.slot_count());
            stats.detect_time += t.elapsed();
            self.apply_pattern_update(pu);
            let t = Instant::now();
            repair(
                &self.pattern,
                &self.graph,
                &self.index,
                self.semantics,
                &mut self.result,
                &plan,
            );
            stats.repair_time += t.elapsed();
            stats.repair_calls += 1;
        }
        // Data updates, strictly one at a time: commit SLen, then repair.
        for u in batch.updates() {
            let Update::Data(du) = u else { continue };
            let t = Instant::now();
            let (delta, created) = self.commit_data(du);
            stats.slen_time += t.elapsed();
            stats.slen_changes += delta.len();
            let t = Instant::now();
            let plan = plan_for_data_update(
                du,
                &delta,
                &self.pattern,
                &self.graph,
                &self.result,
                created,
            );
            stats.detect_time += t.elapsed();
            let t = Instant::now();
            repair(
                &self.pattern,
                &self.graph,
                &self.index,
                self.semantics,
                &mut self.result,
                &plan,
            );
            stats.repair_time += t.elapsed();
            stats.repair_calls += 1;
        }
        stats
    }

    // ==================================================================
    // Strategies: EH-GPNM / UA-GPNM — eliminate, then repair
    // ==================================================================

    fn run_eliminative(&mut self, batch: &UpdateBatch, scope: ElimScope) -> ExecStats {
        let mut stats = ExecStats {
            updates_submitted: batch.len(),
            ..Default::default()
        };

        // ---- net-effect reduction (the §I-B cancellation pre-pass) ----
        let t = Instant::now();
        let reduced = match scope {
            ElimScope::Full => reduce_batch(&self.graph, &self.pattern, batch),
            ElimScope::DataOnly => {
                // EH-GPNM reduces data updates only; pattern updates pass
                // through untouched.
                let data_only = UpdateBatch::from_updates(
                    batch
                        .updates()
                        .iter()
                        .filter(|u| !u.is_pattern())
                        .copied()
                        .collect(),
                );
                let reduced_data = reduce_batch(&self.graph, &self.pattern, &data_only);
                let mut all: Vec<Update> = batch
                    .updates()
                    .iter()
                    .filter(|u| u.is_pattern())
                    .copied()
                    .collect();
                all.extend(reduced_data.updates().iter().copied());
                UpdateBatch::from_updates(all)
            }
        };
        stats.updates_after_reduction = reduced.len();
        stats.reduce_time = t.elapsed();

        // ---- phase A: pattern updates — DER-I against the base SLen ----
        struct PatternEffect {
            update: PatternUpdate,
            can: Candidates,
            plan: RepairPlan,
            insertion: bool,
        }
        let mut pattern_effects: Vec<PatternEffect> = Vec::new();
        for u in reduced.updates() {
            let Update::Pattern(pu) = u else { continue };
            let t = Instant::now();
            let can = candidates_for(&self.pattern, &self.graph, &self.index, &self.result, pu);
            let plan = plan_for_pattern_update(pu, &can, &self.pattern, self.pattern.slot_count());
            stats.detect_time += t.elapsed();
            self.apply_pattern_update(pu);
            pattern_effects.push(PatternEffect {
                update: *pu,
                can,
                plan,
                insertion: matches!(
                    pu,
                    PatternUpdate::InsertEdge { .. } | PatternUpdate::InsertNode { .. }
                ),
            });
        }

        // ---- phase B: data updates — commit SLen, keep Aff_N (DER-II) ----
        struct DataEffect {
            update: DataUpdate,
            affected: NodeSet,
            plan: RepairPlan,
            insertion: bool,
        }
        let mut data_effects: Vec<DataEffect> = Vec::new();
        for u in reduced.updates() {
            let Update::Data(du) = u else { continue };
            let t = Instant::now();
            let (delta, created) = self.commit_data(du);
            stats.slen_time += t.elapsed();
            stats.slen_changes += delta.len();
            let t = Instant::now();
            let plan = plan_for_data_update(
                du,
                &delta,
                &self.pattern,
                &self.graph,
                &self.result,
                created,
            );
            stats.detect_time += t.elapsed();
            data_effects.push(DataEffect {
                update: *du,
                affected: delta.affected,
                plan,
                insertion: matches!(
                    du,
                    DataUpdate::InsertEdge { .. } | DataUpdate::InsertNode { .. }
                ),
            });
        }

        // ---- detection: assemble effects, find relations, build tree ----
        let t = Instant::now();
        let mut effects: Vec<UpdateEffect> = Vec::new();
        match scope {
            ElimScope::Full => {
                for (i, pe) in pattern_effects.iter().enumerate() {
                    effects.push(UpdateEffect {
                        index: i,
                        update: Update::Pattern(pe.update),
                        coverage: pe.can.can_n(),
                        insertion: pe.insertion,
                        cross_eliminates: Vec::new(),
                    });
                }
                let base = pattern_effects.len();
                for (j, de) in data_effects.iter().enumerate() {
                    // DER-III: which pattern inserts does this data update
                    // make a no-op? (checked against the final SLen)
                    let cross: Vec<usize> = pattern_effects
                        .iter()
                        .enumerate()
                        .filter(|(_, pe)| {
                            cross_eliminates(
                                &pe.update,
                                &pe.can,
                                &de.affected,
                                &self.index,
                                &self.result,
                            )
                        })
                        .map(|(i, _)| i)
                        .collect();
                    effects.push(UpdateEffect {
                        index: base + j,
                        update: Update::Data(de.update),
                        coverage: de.affected.clone(),
                        insertion: de.insertion,
                        cross_eliminates: cross,
                    });
                }
            }
            ElimScope::DataOnly => {
                // EH-GPNM: only data effects participate in elimination.
                for (j, de) in data_effects.iter().enumerate() {
                    effects.push(UpdateEffect {
                        index: j,
                        update: Update::Data(de.update),
                        coverage: de.affected.clone(),
                        insertion: de.insertion,
                        cross_eliminates: Vec::new(),
                    });
                }
            }
        }
        let relations = EliminationGraph::detect(&effects);
        stats.detect_time += t.elapsed();

        let t = Instant::now();
        let tree = EhTree::build(&effects, &relations);
        stats.tree_time = t.elapsed();
        stats.eliminated = tree.eliminated_count();

        // ---- repair: one pass per surviving update ----
        // Additions (gains and sources) come from *every* update
        // (eliminated included): coverage containment guarantees the
        // eliminated update's verify set is covered by its eliminator, but
        // the pairs an update may make matchable are not, and must be
        // unioned explicitly (DESIGN.md §2).
        let t = Instant::now();
        let mut all_additions = RepairPlan::new();
        for pe in &pattern_effects {
            all_additions.merge_additions(&pe.plan);
        }
        for de in &data_effects {
            all_additions.merge_additions(&de.plan);
        }

        // Survivor verify-plans, in EH-Tree root order. A root's pass
        // verifies its whole subtree: containment puts an eliminated
        // update's *coverage* inside its eliminator's, but not the
        // `verify` set its plan derived from that coverage, so the nodes
        // an eliminated update would re-check ride with its root.
        // Coverage over (pattern node, data node) pairs would make
        // containment cover `verify` too, but it changes the paper's
        // elimination counts (Figs. 5–9), so the tree keeps data nodes.
        let base = match scope {
            ElimScope::Full => pattern_effects.len(),
            ElimScope::DataOnly => 0,
        };
        let tree_plan = |i: usize| match i.checked_sub(base) {
            Some(j) => &data_effects[j].plan,
            None => &pattern_effects[i].plan,
        };
        let subtree_plans: Vec<RepairPlan> = tree
            .roots()
            .iter()
            .map(|&root| {
                let mut plan = RepairPlan::new();
                let mut stack = vec![root];
                while let Some(i) = stack.pop() {
                    plan.verify.union_with(&tree_plan(i).verify);
                    stack.extend_from_slice(tree.children(i));
                }
                plan
            })
            .collect();
        let mut survivor_plans: Vec<&RepairPlan> = Vec::new();
        if scope == ElimScope::DataOnly {
            // Every pattern update survives: EH-GPNM's tree holds data only.
            survivor_plans.extend(pattern_effects.iter().map(|pe| &pe.plan));
        }
        survivor_plans.extend(&subtree_plans);

        stats.repair_calls += pipeline::run_survivor_repairs(
            &self.pattern,
            &self.graph,
            &self.index,
            self.semantics,
            &mut self.result,
            &survivor_plans,
            all_additions,
        );
        stats.repair_time = t.elapsed();
        stats
    }

    // ==================================================================
    // Update application primitives
    // ==================================================================

    /// The one place a pattern is mutated under the standing result. Every
    /// caller derived its plan from DER-I candidates, which read the
    /// *visible* sets; a relation the total-match rule is withholding is
    /// not covered by such a plan, so it is forgotten here and the next
    /// repair re-matches (see [`MatchResult::forget_relation`]).
    fn apply_pattern_update(&mut self, update: &PatternUpdate) {
        self.result.forget_relation();
        apply_to_pattern(&mut self.pattern, update);
    }

    /// Apply one data update to the graph and repair `SLen` through the
    /// backend. Delegates to the shared [`pipeline::commit_data_update`]
    /// step; the batch was validated up front, so failure here is a bug.
    fn commit_data(&mut self, update: &DataUpdate) -> (AffDelta, Option<NodeId>) {
        let committed = pipeline::commit_data_update(&mut self.graph, &mut self.index, update)
            .expect("batch validated");
        (committed.delta, committed.created)
    }
}

/// Apply one validated pattern update to `pattern`.
fn apply_to_pattern(pattern: &mut PatternGraph, update: &PatternUpdate) {
    match *update {
        PatternUpdate::InsertEdge { from, to, bound } => {
            pattern.add_edge(from, to, bound).expect("batch validated");
        }
        PatternUpdate::DeleteEdge { from, to } => {
            pattern.remove_edge(from, to).expect("batch validated");
        }
        PatternUpdate::InsertNode { label } => {
            pattern.add_node(label);
        }
        PatternUpdate::DeleteNode { node } => {
            pattern.remove_node(node).expect("batch validated");
        }
    }
}
