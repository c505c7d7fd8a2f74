//! Service/engine equivalence: a `GpnmService` hosting k registered
//! patterns must produce, per handle and per tick, results **bitwise
//! identical** to k independent `GpnmEngine`s fed the same batches — on
//! every backend and under both semantics. On top of result equality the
//! suite asserts the delta contract: each tick's `MatchDelta` reconstructs
//! the new result from the previous one (`added ∪ (prev ∖ removed)`), with
//! a monotone `result_version`. A third of the generated patterns come from
//! an arm biased to have **no match** (a bound-1 chain): for those the
//! visible sets are empty on both sides whatever the repair did, so every
//! tick also asserts `relation_eq` against a fresh `match_graph` — the
//! withheld simulation relation must be exact on the tick it could go
//! stale, not only on the tick the pattern revives.
//!
//! This is the load-bearing proof that the shared single-pass repair
//! changes *cost*, not *answers*.

use proptest::prelude::*;

use gpnm_distance::{BackendKind, IncrementalIndex, SlenBackend, SlenRequirements, SparseIndex};
use gpnm_engine::pipeline::{
    commit_data_update, plan_for_data_update, refresh_pattern_strategy, SharedElimination,
};
use gpnm_engine::{GpnmEngine, RefreshStrategy, Strategy};
use gpnm_graph::{Bound, DataGraph, Label, LabelInterner, NodeId, PatternGraph};
use gpnm_matcher::{match_graph, MatchResult, MatchSemantics, RepairPlan};
use gpnm_service::{GpnmService, PatternHandle, PatternHost, ServiceError, TickOutcome};
use gpnm_updates::{reduce_batch, DataUpdate, Update, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random labeled digraph (the engine equivalence suites' distribution).
fn random_graph(
    rng: &mut StdRng,
    nodes: usize,
    edges: usize,
    labels: usize,
) -> (DataGraph, LabelInterner) {
    let mut interner = LabelInterner::new();
    let label_ids: Vec<Label> = (0..labels)
        .map(|i| interner.intern(&format!("L{i}")))
        .collect();
    let mut g = DataGraph::new();
    let ids: Vec<NodeId> = (0..nodes)
        .map(|_| g.add_node(label_ids[rng.gen_range(0..labels)]))
        .collect();
    let mut added = 0;
    let mut attempts = 0;
    while added < edges && attempts < edges * 20 {
        attempts += 1;
        let u = ids[rng.gen_range(0..nodes)];
        let v = ids[rng.gen_range(0..nodes)];
        if u != v && g.add_edge(u, v).is_ok() {
            added += 1;
        }
    }
    (g, interner)
}

/// Random small finite-bounded pattern over the same label alphabet. One
/// draw in three takes the *starved* arm: a four-node chain of bound-1
/// edges, which these sparse graphs rarely satisfy from the head while the
/// tail keeps a non-empty simulation set — a standing query with no match
/// and a withheld relation that the ticks grow, shrink and now and then
/// revive.
fn random_pattern(rng: &mut StdRng, interner: &LabelInterner, labels: usize) -> PatternGraph {
    let starved = rng.gen_range(0..3) == 0;
    let n: usize = if starved { 4 } else { rng.gen_range(2..=4) };
    let mut p = PatternGraph::new();
    let nodes: Vec<_> = (0..n)
        .map(|_| {
            let l = interner
                .get(&format!("L{}", rng.gen_range(0..labels)))
                .expect("label interned");
            p.add_node(l)
        })
        .collect();
    if starved {
        for pair in nodes.windows(2) {
            p.add_edge(pair[0], pair[1], Bound::Hops(1))
                .expect("a fresh chain edge");
        }
        return p;
    }
    let edges = rng.gen_range(1..=n);
    let mut added = 0;
    let mut attempts = 0;
    while added < edges && attempts < 50 {
        attempts += 1;
        let a = nodes[rng.gen_range(0..n)];
        let b = nodes[rng.gen_range(0..n)];
        if a != b && p.add_edge(a, b, Bound::Hops(rng.gen_range(1..=4))).is_ok() {
            added += 1;
        }
    }
    p
}

/// Random *data-only* batch, valid by construction against `graph`.
fn random_data_batch(
    rng: &mut StdRng,
    graph: &DataGraph,
    interner: &LabelInterner,
    len: usize,
) -> UpdateBatch {
    let mut g = graph.clone();
    let mut batch = UpdateBatch::new();
    for _ in 0..len {
        let choice = rng.gen_range(0..100);
        let live: Vec<NodeId> = g.nodes().collect();
        if choice < 40 && live.len() >= 2 {
            let u = live[rng.gen_range(0..live.len())];
            let v = live[rng.gen_range(0..live.len())];
            if u != v && g.add_edge(u, v).is_ok() {
                batch.push(DataUpdate::InsertEdge { from: u, to: v });
            }
        } else if choice < 70 {
            let edges: Vec<_> = g.edges().collect();
            if !edges.is_empty() {
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                g.remove_edge(u, v).expect("edge just listed");
                batch.push(DataUpdate::DeleteEdge { from: u, to: v });
            }
        } else if choice < 85 {
            let l = Label(rng.gen_range(0..interner.len() as u32));
            g.add_node(l);
            batch.push(DataUpdate::InsertNode { label: l });
        } else if live.len() > 3 {
            let v = live[rng.gen_range(0..live.len())];
            g.remove_node(v).expect("node just listed");
            batch.push(DataUpdate::DeleteNode { node: v });
        }
    }
    batch
}

/// `handle`'s standing result must stand for exactly what a from-scratch
/// match over the service's own graph and index computes: equal visible
/// sets and an equal relation (`relation_eq` — the withheld sets where the
/// total-match rule hides them). Returns whether the pattern is unmatched
/// while its relation is non-empty, the case only `relation_eq` can see.
fn assert_fresh<B: SlenBackend>(
    service: &GpnmService<B>,
    handle: PatternHandle,
    semantics: MatchSemantics,
    context: &str,
) -> bool {
    let got = service.result(handle).unwrap();
    let pattern = service.pattern(handle).unwrap();
    let fresh = match_graph(pattern, service.graph(), service.backend(), semantics);
    assert_eq!(got, &fresh, "visible sets vs fresh match ({context})");
    assert!(
        got.relation_eq(&fresh),
        "stale relation vs fresh match ({context}): {got:?} != {fresh:?}"
    );
    let hidden = pattern
        .nodes()
        .any(|u| service.graph().nodes().any(|v| got.relation_contains(u, v)));
    got.is_empty() && hidden
}

/// Run k patterns through one service and k independent engines (backend
/// `B` on both sides), assert bitwise-equal results per handle per tick,
/// plus the delta-reconstruction invariant and [`assert_fresh`]. Returns
/// `(unmatched, revived)`: pattern-ticks spent unmatched over a non-empty
/// relation, and how many of those were followed by a tick with a match.
fn check_equivalence<B: SlenBackend>(
    seed: u64,
    k: usize,
    ticks: usize,
    semantics: MatchSemantics,
) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = rng.gen_range(2..6);
    let nodes = rng.gen_range(8..32);
    let edges = rng.gen_range(nodes / 2..nodes * 3);
    let (graph, interner) = random_graph(&mut rng, nodes, edges, labels);

    let mut service = GpnmService::<B>::new(graph.clone());
    let mut engines: Vec<GpnmEngine<B>> = Vec::new();
    let mut handles = Vec::new();
    for i in 0..k {
        let pattern = random_pattern(&mut rng, &interner, labels);
        let handle = service
            .register_pattern(pattern.clone(), semantics)
            .expect("non-empty pattern");
        let mut engine = GpnmEngine::<B>::with_backend(graph.clone(), pattern, semantics);
        engine.initial_query();
        assert_eq!(
            service.result(handle).unwrap(),
            engine.result(),
            "initial result diverged (seed {seed}, pattern {i})"
        );
        handles.push(handle);
        engines.push(engine);
    }

    let mut prev: Vec<MatchResult> = handles
        .iter()
        .map(|&h| service.result(h).unwrap().clone())
        .collect();
    let mut was_hidden: Vec<bool> = handles
        .iter()
        .map(|&h| assert_fresh(&service, h, semantics, &format!("seed {seed}, initial")))
        .collect();
    let (mut unmatched, mut revived) = (0, 0);
    for tick in 0..ticks {
        let len = rng.gen_range(1..8);
        let batch = random_data_batch(&mut rng, service.graph(), &interner, len);
        let report = service.apply(&batch).expect("valid data batch");
        assert_eq!(report.tick, tick as u64 + 1);
        assert_eq!(report.deltas.len(), k, "one delta per registered pattern");
        let strategy = Strategy::PAPER[tick % Strategy::PAPER.len()];
        for i in 0..k {
            engines[i]
                .subsequent_query(&batch, strategy)
                .expect("valid batch");
            let got = service.result(handles[i]).unwrap();
            assert_eq!(
                got,
                engines[i].result(),
                "tick {tick} pattern {i} diverged from its engine \
                 (seed {seed}, {strategy}, {semantics:?})"
            );
            // Delta contract: added ∪ (prev ∖ removed) = new, version moves.
            let delta = report.delta_for(handles[i]).expect("handle in report");
            assert_eq!(delta.result_version, tick as u64 + 1);
            // The repair's own delta is the diff, pair for pair and in order.
            assert_eq!(
                delta,
                &got.delta_from(&prev[i], delta.result_version),
                "repair delta differs from the diff (seed {seed}, tick {tick}, pattern {i})"
            );
            assert_eq!(
                &delta.apply_to(&prev[i]),
                got,
                "delta does not reconstruct the result (seed {seed}, tick {tick}, pattern {i})"
            );
            for &(p, v) in &delta.added {
                assert!(!prev[i].contains(p, v), "added pair was already present");
            }
            for &(p, v) in &delta.removed {
                assert!(prev[i].contains(p, v), "removed pair was not present");
            }
            prev[i] = got.clone();
            let context = format!("seed {seed}, tick {tick}, pattern {i}, {semantics:?}");
            let hidden = assert_fresh(&service, handles[i], semantics, &context);
            unmatched += usize::from(hidden);
            revived += usize::from(was_hidden[i] && !got.is_empty());
            was_hidden[i] = hidden;
        }
        // The graphs walked the same trajectory.
        assert_eq!(
            service.graph().node_count(),
            engines[0].graph().node_count()
        );
        assert_eq!(
            service.graph().edge_count(),
            engines[0].graph().edge_count()
        );
    }
    (unmatched, revived)
}

/// The starved arm does what it is for: over a fixed set of seeds the
/// stream spends ticks on unmatched patterns whose withheld relation is
/// non-empty, and some of them revive — so the `relation_eq` assertions
/// above are exercised, not vacuous.
#[test]
fn starved_arm_reaches_unmatched_patterns_and_revivals() {
    let (mut unmatched, mut revived) = (0, 0);
    for seed in 0..24u64 {
        for semantics in [MatchSemantics::Simulation, MatchSemantics::DualSimulation] {
            let (u, r) = check_equivalence::<SparseIndex>(seed, 3, 8, semantics);
            unmatched += u;
            revived += r;
        }
    }
    assert!(unmatched >= 50, "only {unmatched} unmatched pattern-ticks");
    assert!(revived >= 1, "no unmatched pattern ever revived");
}

/// `count` distinct ordered node pairs of `graph` with no edge between
/// them: inserted in one tick and deleted back in the next, they make a
/// balanced tick pair.
fn absent_edges(rng: &mut StdRng, graph: &DataGraph, count: usize) -> Vec<(NodeId, NodeId)> {
    let live: Vec<NodeId> = graph.nodes().collect();
    let mut picks = Vec::with_capacity(count);
    while picks.len() < count {
        let u = live[rng.gen_range(0..live.len())];
        let v = live[rng.gen_range(0..live.len())];
        if u != v && !graph.has_edge(u, v) && !picks.contains(&(u, v)) {
            picks.push((u, v));
        }
    }
    picks
}

/// The merged repair pass across batch sizes: a stream alternating
/// 1-update and 80-update balanced ticks (the proptests below draw 4–6
/// updates a tick). Every tick, the service and `match_graph` over a
/// freshly built index agree bitwise, relation included.
#[test]
fn merged_pass_matches_scratch_across_batch_sizes() {
    let semantics = MatchSemantics::Simulation;
    let mut changed_ticks = 0;
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (graph, interner) = random_graph(&mut rng, 60, 120, 4);
        let mut merged = GpnmService::<SparseIndex>::new(graph);
        let mut handles = Vec::new();
        for _ in 0..3 {
            let pattern = random_pattern(&mut rng, &interner, 4);
            handles.push(merged.register_pattern(pattern, semantics).unwrap());
        }
        let picks = absent_edges(&mut rng, merged.graph(), 81);
        let (trickle, churn) = picks.split_at(1);
        for (tick, picks) in [trickle, churn, trickle, churn].into_iter().enumerate() {
            for insert in [true, false] {
                let mut batch = UpdateBatch::new();
                for &(from, to) in picks {
                    batch.push(if insert {
                        DataUpdate::InsertEdge { from, to }
                    } else {
                        DataUpdate::DeleteEdge { from, to }
                    });
                }
                let rm = merged.apply(&batch).expect("valid batch");
                assert_eq!(rm.repair_calls, handles.len(), "one merged pass a pattern");
                let fresh = SparseIndex::build(merged.graph(), merged.requirements());
                for &hm in &handles {
                    let pattern = merged.pattern(hm).unwrap();
                    let scratch = match_graph(pattern, merged.graph(), &fresh, semantics);
                    let context = format!("seed {seed}, tick {tick}, insert {insert}");
                    assert_eq!(merged.result(hm).unwrap(), &scratch, "{context}");
                    assert!(
                        merged.result(hm).unwrap().relation_eq(&scratch),
                        "{context}"
                    );
                    let dm = rm.delta_for(hm).expect("handle in report");
                    changed_ticks += usize::from(!dm.added.is_empty() || !dm.removed.is_empty());
                }
            }
        }
    }
    assert!(changed_ticks > 0, "the stream must move some result");
}

/// A data batch the net-effect reduction empties: an edge deleted and
/// inserted again, or on an edgeless graph one inserted and deleted.
fn cancelling_batch(graph: &DataGraph) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    if let Some((from, to)) = graph.edges().next() {
        batch.push(DataUpdate::DeleteEdge { from, to });
        batch.push(DataUpdate::InsertEdge { from, to });
    } else {
        let mut live = graph.nodes();
        let (from, to) = (live.next().unwrap(), live.next().unwrap());
        batch.push(DataUpdate::InsertEdge { from, to });
        batch.push(DataUpdate::DeleteEdge { from, to });
    }
    batch
}

/// The hosts fold each update's plan into one per pattern and pass
/// `SharedElimination::detect(&[])`; the benchmark's staged replay keeps
/// one plan per update and a real `detect` over the committed records.
/// For one pattern over a stream of random data batches, the last of
/// which reduces to nothing, both refreshes must leave the same result
/// and relation (a fresh match's), grow the same candidates and run the
/// same number of passes, under every refresh strategy.
fn check_fold<B: SlenBackend>(seed: u64, semantics: MatchSemantics) {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = rng.gen_range(2..6);
    let nodes = rng.gen_range(8..32);
    let edges = rng.gen_range(nodes / 2..nodes * 3);
    let (mut graph, interner) = random_graph(&mut rng, nodes, edges, labels);
    let pattern = random_pattern(&mut rng, &interner, labels);
    let mut index = B::build(&graph, &SlenRequirements::of_pattern(&pattern));
    let mut result = match_graph(&pattern, &graph, &index, semantics);
    let ticks = 4;
    for tick in 0..ticks {
        let batch = if tick + 1 < ticks {
            let len = rng.gen_range(1..8);
            random_data_batch(&mut rng, &graph, &interner, len)
        } else {
            cancelling_batch(&graph)
        };
        let reduced = reduce_batch(&graph, &PatternGraph::new(), &batch);
        let mut committed = Vec::new();
        let mut plans = Vec::new();
        let mut folded = RepairPlan::new();
        for u in reduced.updates() {
            let Update::Data(du) = u else {
                unreachable!("a data batch")
            };
            let cu = commit_data_update(&mut graph, &mut index, du).expect("valid update");
            let plan = plan_for_data_update(du, &cu.delta, &pattern, &graph, &result, cu.created);
            folded.merge(&plan);
            plans.push(plan);
            committed.push(cu);
        }
        let host_plans = if reduced.is_empty() {
            &[][..]
        } else {
            std::slice::from_ref(&folded)
        };
        let fresh = match_graph(&pattern, &graph, &index, semantics);
        for strategy in RefreshStrategy::ALL {
            let context = format!("seed {seed}, tick {tick}, {strategy}, {semantics:?}");
            let mut staged = result.clone();
            let staged_stats = refresh_pattern_strategy(
                strategy,
                &pattern,
                &graph,
                &index,
                semantics,
                &mut staged,
                &plans,
                &SharedElimination::detect(&committed),
            );
            let mut host = result.clone();
            let host_stats = refresh_pattern_strategy(
                strategy,
                &pattern,
                &graph,
                &index,
                semantics,
                &mut host,
                host_plans,
                &SharedElimination::detect(&[]),
            );
            assert_eq!(host, staged, "{context}");
            assert!(host.relation_eq(&staged), "{context}");
            assert_eq!(host, fresh, "{context}");
            assert!(host.relation_eq(&fresh), "{context}");
            assert_eq!(host_stats.candidates, staged_stats.candidates, "{context}");
            assert_eq!(
                host_stats.repair_calls, staged_stats.repair_calls,
                "{context}"
            );
            if reduced.is_empty() {
                assert_eq!(host_stats.repair_calls, 0, "{context}");
            }
            if strategy == RefreshStrategy::Eliminative {
                result = host;
            }
        }
        assert!(
            tick + 1 < ticks || reduced.is_empty(),
            "the last batch cancels"
        );
    }
}

proptest! {
    // Each case runs 3 backends (+ both semantics split across two props),
    // k engines and several ticks; 12 cases keeps the default run under a
    // few seconds while PROPTEST_CASES still scales it in CI.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn service_matches_k_engines_simulation(seed in any::<u64>(), k in 1usize..4) {
        let _ = check_equivalence::<IncrementalIndex>(seed, k, 3, MatchSemantics::Simulation);
        let _ = check_equivalence::<SparseIndex>(seed, k, 3, MatchSemantics::Simulation);
    }

    #[test]
    fn service_matches_k_engines_dual(seed in any::<u64>(), k in 1usize..4) {
        let _ = check_equivalence::<IncrementalIndex>(seed, k, 3, MatchSemantics::DualSimulation);
        let _ = check_equivalence::<SparseIndex>(seed, k, 3, MatchSemantics::DualSimulation);
    }

    /// One folded plan per pattern refreshes exactly like the per-update
    /// plans with a real elimination analysis ([`check_fold`]).
    #[test]
    fn folded_plan_refreshes_like_per_update_plans(seed in any::<u64>()) {
        for semantics in [MatchSemantics::Simulation, MatchSemantics::DualSimulation] {
            check_fold::<IncrementalIndex>(seed, semantics);
            check_fold::<SparseIndex>(seed, semantics);
        }
    }

    /// The runtime-dispatched backend behind the builder path obeys the
    /// same equivalence (and the dense memory guard stays out of the way
    /// at test scale).
    #[test]
    fn any_backend_service_matches_engines(seed in any::<u64>()) {
        for kind in BackendKind::ALL {
            let mut rng = StdRng::seed_from_u64(seed);
            let (graph, interner) = random_graph(&mut rng, 20, 40, 4);
            let mut service = GpnmService::builder()
                .backend(kind)
                .max_index_gb(1)
                .build(graph.clone())
                .expect("tiny graph fits any budget");
            let pattern = random_pattern(&mut rng, &interner, 4);
            let h = service
                .register_pattern(pattern.clone(), MatchSemantics::Simulation)
                .unwrap();
            let mut engine = GpnmEngine::with_backend_kind(
                kind,
                graph,
                pattern,
                MatchSemantics::Simulation,
                1.0,
                None,
            )
            .expect("tiny graph fits any budget");
            engine.initial_query();
            for _ in 0..2 {
                let batch = random_data_batch(&mut rng, service.graph(), &interner, 5);
                service.apply(&batch).expect("valid");
                engine.subsequent_query(&batch, Strategy::UaGpnm).expect("valid");
                prop_assert_eq!(service.result(h).unwrap(), engine.result());
            }
            let _ = engine; // engine and service walked the same trajectory
            prop_assert_eq!(service.backend().backend_kind(), kind);
        }
    }

    /// Deregistering mid-stream narrows the shared requirement union
    /// without perturbing the surviving patterns' results.
    #[test]
    fn deregister_mid_stream_preserves_survivors(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (graph, interner) = random_graph(&mut rng, 18, 40, 4);
        let mut service = GpnmService::<SparseIndex>::new(graph.clone());
        let p1 = random_pattern(&mut rng, &interner, 4);
        let p2 = random_pattern(&mut rng, &interner, 4);
        let h1 = service.register_pattern(p1, MatchSemantics::Simulation).unwrap();
        let h2 = service
            .register_pattern(p2.clone(), MatchSemantics::Simulation)
            .unwrap();
        let mut engine2 =
            GpnmEngine::<SparseIndex>::with_backend(graph, p2, MatchSemantics::Simulation);
        engine2.initial_query();

        let batch = random_data_batch(&mut rng, service.graph(), &interner, 5);
        service.apply(&batch).expect("valid");
        engine2.subsequent_query(&batch, Strategy::UaGpnm).expect("valid");

        let rows_before = service.backend().resident_rows();
        service.deregister(h1).expect("registered");
        prop_assert!(service.backend().resident_rows() <= rows_before);
        prop_assert_eq!(service.result(h1), Err(ServiceError::UnknownHandle(h1)));

        // Survivor keeps matching its dedicated engine after the narrow.
        let batch = random_data_batch(&mut rng, service.graph(), &interner, 5);
        let report = service.apply(&batch).expect("valid");
        engine2.subsequent_query(&batch, Strategy::UaGpnm).expect("valid");
        prop_assert_eq!(service.result(h2).unwrap(), engine2.result());
        assert_fresh(
            &service,
            h2,
            MatchSemantics::Simulation,
            &format!("seed {seed}, after deregister"),
        );
        prop_assert_eq!(report.deltas.len(), 1);
        prop_assert!(report.delta_for(h1).is_none());
    }
}
