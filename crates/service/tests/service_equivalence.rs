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

use gpnm_distance::{BackendKind, IncrementalIndex, SlenBackend, SparseIndex};
use gpnm_engine::{GpnmEngine, RefreshStrategy, Strategy};
use gpnm_graph::{Bound, DataGraph, Label, LabelInterner, NodeId, PatternGraph};
use gpnm_matcher::{match_graph, MatchResult, MatchSemantics};
use gpnm_service::{GpnmService, PatternHandle, ServiceError, TickOutcome};
use gpnm_updates::{DataUpdate, UpdateBatch};
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

/// The merged repair pass where elimination is non-trivial: a stream
/// alternating 1-update and 80-update balanced ticks (the proptests below
/// draw 4–6 updates a tick, where the EH-Tree rarely eliminates
/// anything). Every tick, the `Eliminative` service, the `Rematch`
/// service and `match_graph` over a freshly built index agree bitwise.
#[test]
fn merged_pass_matches_rematch_and_scratch_across_batch_sizes() {
    let semantics = MatchSemantics::Simulation;
    let mut eliminated = 0;
    let mut changed_ticks = 0;
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (graph, interner) = random_graph(&mut rng, 60, 120, 4);
        let mut merged = GpnmService::<SparseIndex>::new(graph.clone());
        let mut rematch = GpnmService::<SparseIndex>::new(graph);
        let mut handles = Vec::new();
        for _ in 0..3 {
            let pattern = random_pattern(&mut rng, &interner, 4);
            let hm = merged.register_pattern(pattern.clone(), semantics).unwrap();
            let hr = rematch.register_pattern(pattern, semantics).unwrap();
            rematch
                .set_refresh_strategy(hr, RefreshStrategy::Rematch)
                .unwrap();
            handles.push((hm, hr));
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
                let rr = rematch.apply(&batch).expect("valid batch");
                assert_eq!(rm.repair_calls, handles.len(), "one merged pass a pattern");
                assert_eq!(rr.repair_calls, 0);
                assert_eq!(rm.eliminated, rr.eliminated);
                eliminated += rm.eliminated;
                let fresh = SparseIndex::build(merged.graph(), merged.requirements());
                for &(hm, hr) in &handles {
                    let pattern = merged.pattern(hm).unwrap();
                    let scratch = match_graph(pattern, merged.graph(), &fresh, semantics);
                    let context = format!("seed {seed}, tick {tick}, insert {insert}");
                    assert_eq!(merged.result(hm).unwrap(), &scratch, "{context}");
                    assert_eq!(rematch.result(hr).unwrap(), &scratch, "{context}");
                    assert!(
                        merged.result(hm).unwrap().relation_eq(&scratch),
                        "{context}"
                    );
                    assert!(
                        rematch.result(hr).unwrap().relation_eq(&scratch),
                        "{context}"
                    );
                    let dm = rm.delta_for(hm).expect("handle in report");
                    let dr = rr.delta_for(hr).expect("handle in report");
                    assert_eq!(
                        (&dm.added, &dm.removed, dm.result_version),
                        (&dr.added, &dr.removed, dr.result_version),
                        "{context}"
                    );
                    changed_ticks += usize::from(!dm.added.is_empty() || !dm.removed.is_empty());
                }
            }
        }
    }
    assert!(eliminated > 0, "the stream must exercise elimination");
    assert!(changed_ticks > 0, "the stream must move some result");
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
            );
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

    /// Switching a pattern's refresh strategy *mid-stream* — tick by tick,
    /// per pattern, between both arms — never changes the answers: each
    /// arm converges to the same fixed point, so a caller is free to flip
    /// between them at any tick boundary. Results stay bitwise-equal to
    /// dedicated engines and the delta contract holds across every
    /// switch.
    #[test]
    fn mid_stream_strategy_switches_preserve_results(seed in any::<u64>(), k in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (graph, interner) = random_graph(&mut rng, 20, 40, 4);
        let mut service = GpnmService::<SparseIndex>::new(graph.clone());
        let mut engines = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..k {
            let pattern = random_pattern(&mut rng, &interner, 4);
            let h = service
                .register_pattern(pattern.clone(), MatchSemantics::Simulation)
                .unwrap();
            let mut engine = GpnmEngine::<SparseIndex>::with_backend(
                graph.clone(),
                pattern,
                MatchSemantics::Simulation,
            );
            engine.initial_query();
            handles.push(h);
            engines.push(engine);
        }

        let mut prev: Vec<MatchResult> = handles
            .iter()
            .map(|&h| service.result(h).unwrap().clone())
            .collect();
        for tick in 0..5usize {
            // Each pattern lands on a different arm each tick, so every
            // (arm → arm) transition is exercised somewhere in the run.
            for (i, &h) in handles.iter().enumerate() {
                let s = RefreshStrategy::ALL[(tick + i) % RefreshStrategy::ALL.len()];
                service.set_refresh_strategy(h, s).unwrap();
                prop_assert_eq!(service.refresh_strategy(h).unwrap(), s);
            }
            let batch = random_data_batch(&mut rng, service.graph(), &interner, 5);
            let report = service.apply(&batch).expect("valid batch");
            for i in 0..k {
                engines[i]
                    .subsequent_query(&batch, Strategy::UaGpnm)
                    .expect("valid batch");
                let got = service.result(handles[i]).unwrap();
                prop_assert_eq!(
                    got,
                    engines[i].result(),
                    "tick {} pattern {} diverged after a strategy switch (seed {})",
                    tick,
                    i,
                    seed
                );
                let delta = report.delta_for(handles[i]).expect("handle in report");
                prop_assert_eq!(delta.result_version, tick as u64 + 1);
                prop_assert_eq!(&delta.apply_to(&prev[i]), got);
                prev[i] = got.clone();
                // Both arms leave the relation a fresh match would: the
                // switch back to the merged pass repairs what `Rematch`
                // left, and the other way round.
                let context = format!("seed {seed}, tick {tick}, pattern {i}, after a switch");
                assert_fresh(&service, handles[i], MatchSemantics::Simulation, &context);
            }
        }
    }

    /// An adaptive service — the tuner picking lane counts live —
    /// produces bitwise the same results and deltas as a fixed-lane
    /// service fed the same stream. The tuner moves *cost*, never
    /// *answers*.
    #[test]
    fn adaptive_service_matches_fixed(seed in any::<u64>(), k in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (graph, interner) = random_graph(&mut rng, 20, 40, 4);
        let mut adaptive = GpnmService::builder()
            .backend(BackendKind::Sparse)
            .adaptive(true)
            .build(graph.clone())
            .unwrap();
        let mut fixed = GpnmService::builder()
            .backend(BackendKind::Sparse)
            .build(graph)
            .unwrap();
        prop_assert!(adaptive.adaptive());
        prop_assert!(!fixed.adaptive());

        let mut pairs = Vec::new();
        for _ in 0..k {
            let pattern = random_pattern(&mut rng, &interner, 4);
            let ha = adaptive
                .register_pattern(pattern.clone(), MatchSemantics::Simulation)
                .unwrap();
            let hf = fixed
                .register_pattern(pattern, MatchSemantics::Simulation)
                .unwrap();
            pairs.push((ha, hf));
        }

        for _ in 0..5 {
            let batch = random_data_batch(&mut rng, adaptive.graph(), &interner, 6);
            let ra = adaptive.apply(&batch).expect("valid batch");
            let rf = fixed.apply(&batch).expect("valid batch");
            for &(ha, hf) in &pairs {
                prop_assert_eq!(adaptive.result(ha).unwrap(), fixed.result(hf).unwrap());
                let da = ra.delta_for(ha).expect("handle in report");
                let df = rf.delta_for(hf).expect("handle in report");
                prop_assert_eq!(&da.added, &df.added);
                prop_assert_eq!(&da.removed, &df.removed);
                prop_assert_eq!(da.result_version, df.result_version);
            }
        }
        // Per-pattern strategies are reported either way.
        let batch = random_data_batch(&mut rng, adaptive.graph(), &interner, 4);
        let report = adaptive.apply(&batch).expect("valid batch");
        prop_assert_eq!(report.stats.per_pattern_strategy.len(), k);
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
