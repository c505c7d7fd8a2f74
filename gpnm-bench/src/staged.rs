//! The staged replay: the service's tick pipeline rebuilt from the public
//! per-layer calls, each wrapped in a bench-owned span.
//!
//! One tick is validate → reduce → per update {graph mutation, `SLen`
//! commit, one repair plan per pattern} → DER-II detection + EH-Tree →
//! per-pattern refresh → publish. It walks the same state trajectory as
//! the host it shadows, so its deltas must equal the host's tick by tick
//! and its tick time must stay close to the host's — otherwise the layer
//! split it reports describes some other program.

use std::time::Instant;

use gpnm_distance::{AnyBackend, RepairHint, SlenBackend, SlenRequirements};
use gpnm_engine::pipeline::{
    plan_for_data_update, refresh_pattern_strategy, CommittedUpdate, SharedElimination,
};
use gpnm_engine::RefreshStrategy;
use gpnm_graph::{DataGraph, PatternGraph};
use gpnm_matcher::{match_graph, MatchDelta, MatchResult, MatchSemantics, RepairPlan};
use gpnm_service::{HandleId, ReadFront, ReadView, Subscription};
use gpnm_updates::{reduce_batch, DataUpdate, Update, UpdateBatch};

use crate::spans::SpanLog;
use crate::spec::Spec;

/// Span names, one per layer call. The prefix is the crate (layer) name.
pub mod names {
    /// Root span of one staged tick.
    pub const TICK: &str = "tick";
    /// `UpdateBatch::validate_data`.
    pub const VALIDATE: &str = "updates.validate";
    /// `reduce_batch`.
    pub const REDUCE: &str = "updates.reduce";
    /// `DataGraph` mutators.
    pub const MUTATE: &str = "graph.mutate";
    /// `SlenBackend::commit_*` (and the accelerator preparation).
    pub const REPAIR: &str = "distance.repair";
    /// `plan_for_data_update`.
    pub const PLAN: &str = "engine.plan";
    /// DER-II detection inside `SharedElimination::detect`.
    pub const DETECT: &str = "updates.detect";
    /// EH-Tree construction inside `SharedElimination::detect`.
    pub const EHTREE: &str = "updates.ehtree";
    /// `refresh_pattern_strategy`.
    pub const REFRESH: &str = "matcher.repair";
    /// Result snapshot + delta extraction around each refresh.
    pub const DELTA: &str = "service.delta";
    /// View construction + `ReadFront::publish_tick`.
    pub const PUBLISH: &str = "service.publish";
}

struct Session {
    id: HandleId,
    pattern: PatternGraph,
    result: MatchResult,
    version: u64,
    /// Kept so the front fans out to as many subscribers as the host's.
    sub: Subscription,
}

/// One staged pipeline over its own graph replica and index.
pub struct Staged {
    graph: DataGraph,
    index: AnyBackend,
    sessions: Vec<Session>,
    front: ReadFront,
    tick: u64,
    /// Index construction time (`distance.build_ms`).
    pub build_ns: u64,
    /// Initial matches of all patterns (`matcher.initial_match_ms`).
    pub initial_match_ns: u64,
}

const SEMANTICS: MatchSemantics = MatchSemantics::Simulation;

impl Staged {
    /// Build the state a host holds after registering `patterns`: an index
    /// of `spec`'s backend kind over the union of their requirements, and
    /// each pattern's initial match published on a read front.
    pub fn new(spec: &Spec, graph: DataGraph, patterns: &[PatternGraph]) -> Staged {
        let mut reqs = SlenRequirements::empty();
        for pattern in patterns {
            reqs.absorb(&SlenRequirements::of_pattern(pattern));
        }
        let t = Instant::now();
        let mut index = AnyBackend::of_kind(spec.backend, &graph, &reqs);
        if let (AnyBackend::Paged(paged), Some(mb)) = (&mut index, spec.cache_budget_mb) {
            paged.set_cache_budget((mb * (1u64 << 20) as f64) as usize);
        }
        let build_ns = ns(t);

        let front = ReadFront::new();
        let t = Instant::now();
        let results: Vec<MatchResult> = patterns
            .iter()
            .map(|p| match_graph(p, &graph, &index, SEMANTICS))
            .collect();
        let initial_match_ns = ns(t);
        let sessions = patterns
            .iter()
            .zip(results)
            .enumerate()
            .map(|(i, (pattern, result))| {
                let id = HandleId::from_raw(i as u64);
                front.publish(
                    id,
                    ReadView {
                        result: result.clone(),
                        result_version: 0,
                        tick: 0,
                    },
                );
                let sub = front.subscribe(id).expect("just published");
                Session {
                    id,
                    pattern: pattern.clone(),
                    result,
                    version: 0,
                    sub,
                }
            })
            .collect();
        Staged {
            graph,
            index,
            sessions,
            front,
            tick: 0,
            build_ns,
            initial_match_ns,
        }
    }

    /// Execute one tick, recording one span per layer call into `log`.
    /// `strategies[i]` is the refresh strategy the shadowed host ran for
    /// pattern `i` this tick (empty = the default for all). `validate` is
    /// false for the second and later replicas of a cluster, which
    /// validates a batch once. Returns one delta per pattern.
    pub fn tick(
        &mut self,
        batch: &UpdateBatch,
        strategies: &[RefreshStrategy],
        validate: bool,
        log: &mut SpanLog,
    ) -> Result<Vec<MatchDelta>, String> {
        log.enter(names::TICK);
        if validate {
            log.within(names::VALIDATE, || batch.validate_data(&self.graph))
                .map_err(|e| format!("staged validate: {e}"))?;
        }
        let reduced = log.within(names::REDUCE, || {
            reduce_batch(&self.graph, &PatternGraph::new(), batch)
        });
        log.within(names::REPAIR, || {
            self.index.prepare_accelerator(&self.graph)
        });

        let mut committed: Vec<CommittedUpdate> = Vec::with_capacity(reduced.len());
        let mut plans: Vec<Vec<RepairPlan>> = self
            .sessions
            .iter()
            .map(|_| Vec::with_capacity(reduced.len()))
            .collect();
        for update in reduced.updates() {
            let Update::Data(du) = update else {
                return Err("staged replay takes data-only batches".to_owned());
            };
            let cu = self.commit(du, log)?;
            for (sess, pattern_plans) in self.sessions.iter().zip(plans.iter_mut()) {
                pattern_plans.push(log.within(names::PLAN, || {
                    plan_for_data_update(
                        du,
                        &cu.delta,
                        &sess.pattern,
                        &self.graph,
                        &sess.result,
                        cu.created,
                    )
                }));
            }
            committed.push(cu);
        }

        // `detect` does both halves in one call and reports each half's
        // time, which is what splits it into two spans here.
        let shared = SharedElimination::detect(&committed);
        log.record(names::DETECT, duration_ns(shared.detect_time));
        log.record(names::EHTREE, duration_ns(shared.tree_time));

        let mut deltas = Vec::with_capacity(self.sessions.len());
        for (i, (sess, pattern_plans)) in self.sessions.iter_mut().zip(&plans).enumerate() {
            let strategy = strategies.get(i).copied().unwrap_or_default();
            log.enter(names::DELTA);
            let prev = sess.result.clone();
            log.within(names::REFRESH, || {
                refresh_pattern_strategy(
                    strategy,
                    &sess.pattern,
                    &self.graph,
                    &self.index,
                    SEMANTICS,
                    &mut sess.result,
                    pattern_plans,
                    &shared,
                )
            });
            sess.version += 1;
            deltas.push(sess.result.delta_from(&prev, sess.version));
            log.exit();
        }

        self.tick += 1;
        log.within(names::PUBLISH, || {
            let items: Vec<(HandleId, ReadView, MatchDelta)> = self
                .sessions
                .iter()
                .zip(&deltas)
                .map(|(sess, delta)| {
                    let view = ReadView {
                        result: sess.result.clone(),
                        result_version: sess.version,
                        tick: self.tick,
                    };
                    (sess.id, view, delta.clone())
                })
                .collect();
            self.front.publish_tick(items);
        });
        log.exit();

        // Drain outside the tick so queues never back up into `Lagged`.
        for sess in &self.sessions {
            while sess.sub.try_recv().is_some() {}
        }
        Ok(deltas)
    }

    fn commit(&mut self, du: &DataUpdate, log: &mut SpanLog) -> Result<CommittedUpdate, String> {
        let hint = RepairHint::Accelerated;
        let (graph, index) = (&mut self.graph, &mut self.index);
        let bad = |e| format!("staged commit: {e}");
        let (delta, created) = match *du {
            DataUpdate::InsertEdge { from, to } => {
                log.within(names::MUTATE, || graph.add_edge(from, to))
                    .map_err(bad)?;
                let delta = log.within(names::REPAIR, || {
                    index.commit_insert_edge(graph, from, to, hint)
                });
                (delta, None)
            }
            DataUpdate::DeleteEdge { from, to } => {
                log.within(names::MUTATE, || graph.remove_edge(from, to))
                    .map_err(bad)?;
                let delta = log.within(names::REPAIR, || {
                    index.commit_delete_edge(graph, from, to, hint)
                });
                (delta, None)
            }
            DataUpdate::InsertNode { label } => {
                let id = log.within(names::MUTATE, || graph.add_node(label));
                let delta = log.within(names::REPAIR, || index.commit_insert_node(graph, id, hint));
                (delta, Some(id))
            }
            DataUpdate::DeleteNode { node } => {
                log.within(names::MUTATE, || graph.remove_node(node).map(drop))
                    .map_err(bad)?;
                let delta = log.within(names::REPAIR, || {
                    index.commit_delete_node(graph, node, hint)
                });
                (delta, None)
            }
        };
        Ok(CommittedUpdate {
            update: *du,
            delta,
            created,
        })
    }
}

fn ns(since: Instant) -> u64 {
    duration_ns(since.elapsed())
}

fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
