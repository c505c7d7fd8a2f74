//! Cluster/service/engine equivalence: a `GpnmCluster` with any shard
//! count must produce, per handle and per tick, results **bitwise
//! identical** to one `GpnmService` hosting the same patterns *and* to k
//! independent `GpnmEngine`s — on every backend and under both semantics,
//! with registrations and deregistrations mid-stream. On top, parallel
//! per-pattern refresh (`refresh_threads > 0`) must be bitwise equal to
//! the sequential baseline. The pattern generator shares the service
//! suite's *starved* arm (patterns biased to have no match), and every tick
//! asserts `relation_eq` — cluster against single service against a fresh
//! `match_graph` — so the withheld relation of an unmatched pattern is
//! checked across deregistration, late registration and `rebalance()`
//! migration, where `==` on the (empty) visible sets proves nothing.
//!
//! This is the load-bearing proof that sharding and fan-out parallelism
//! change *cost and isolation*, not *answers*.

use proptest::prelude::*;

use gpnm_cluster::{GpnmCluster, RoundRobin, ShardLoad, ShardPlacement};
use gpnm_distance::{BackendKind, SlenBackend};
use gpnm_engine::{GpnmEngine, Strategy};
use gpnm_graph::{Bound, DataGraph, Label, LabelInterner, NodeId, PatternGraph};
use gpnm_matcher::{match_graph, MatchSemantics};
use gpnm_service::{GpnmService, PatternHost, TickOutcome};
use gpnm_updates::{DataUpdate, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random labeled digraph (the service equivalence suite's distribution).
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

/// Random small finite-bounded pattern over the same label alphabet; one
/// draw in three is the service suite's *starved* arm, a four-node chain
/// of bound-1 edges that usually has no match but keeps a non-empty
/// withheld relation.
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

/// Run the same pattern set and tick stream through a `shards`-shard
/// cluster, a single service, and k independent engines (backend `kind`
/// everywhere); assert bitwise-equal results per pattern per tick, plus
/// the delta contract on the cluster's merged report. `deregister_at`
/// drops pattern 0 from all three deployments before that tick.
fn check_equivalence(
    seed: u64,
    shards: usize,
    k: usize,
    ticks: usize,
    kind: BackendKind,
    semantics: MatchSemantics,
    refresh_threads: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = rng.gen_range(2..6);
    let nodes = rng.gen_range(8..32);
    let edges = rng.gen_range(nodes / 2..nodes * 3);
    let (graph, interner) = random_graph(&mut rng, nodes, edges, labels);

    let mut cluster = GpnmCluster::builder()
        .shards(shards)
        .backend(kind)
        .refresh_threads(refresh_threads)
        .placement(RoundRobin::new())
        .build(graph.clone())
        .expect("test graphs fit every budget");
    let mut service = GpnmService::builder()
        .backend(kind)
        .build(graph.clone())
        .expect("test graphs fit every budget");
    let mut engines = Vec::new();
    let mut cluster_handles = Vec::new();
    let mut service_handles = Vec::new();
    let register = |cluster: &mut GpnmCluster, service: &mut GpnmService<_>, rng: &mut StdRng| {
        let pattern = random_pattern(rng, &interner, labels);
        let graph = service.graph().clone();
        let ch = cluster
            .register_pattern(pattern.clone(), semantics)
            .expect("non-empty pattern");
        let sh = service
            .register_pattern(pattern.clone(), semantics)
            .expect("non-empty pattern");
        let mut engine = GpnmEngine::with_backend_kind(kind, graph, pattern, semantics);
        engine.initial_query();
        assert_eq!(
            cluster.result(ch).unwrap(),
            engine.result(),
            "initial cluster result diverged (seed {seed})"
        );
        (ch, sh, engine)
    };
    for _ in 0..k {
        let (ch, sh, engine) = register(&mut cluster, &mut service, &mut rng);
        cluster_handles.push(ch);
        service_handles.push(sh);
        engines.push(engine);
    }

    let deregister_at = ticks / 2;
    for tick in 0..ticks {
        if tick == deregister_at && cluster_handles.len() > 1 {
            // Drop pattern 0 everywhere mid-stream; the survivors' shard
            // narrows and must stay exact.
            cluster.deregister(cluster_handles.remove(0)).unwrap();
            service.deregister(service_handles.remove(0)).unwrap();
            engines.remove(0);
            // And register a fresh pattern mid-stream on the evolved graph.
            let (ch, sh, engine) = register(&mut cluster, &mut service, &mut rng);
            cluster_handles.push(ch);
            service_handles.push(sh);
            engines.push(engine);
            // And rebalance mid-stream: any migration the cost model finds
            // beneficial must carry results exactly — the asserts below
            // hold whether or not a move happened.
            cluster.rebalance().expect("healthy shards");
        }
        let len = rng.gen_range(1..8);
        let batch = random_data_batch(&mut rng, service.graph(), &interner, len);
        let cluster_report = cluster.apply(&batch).expect("valid data batch");
        let service_report = service.apply(&batch).expect("valid data batch");
        assert_eq!(cluster_report.deltas.len(), cluster_handles.len());
        assert_eq!(
            cluster_report.updates_applied,
            service_report.updates_applied
        );
        for (i, (&ch, &sh)) in cluster_handles
            .iter()
            .zip(service_handles.iter())
            .enumerate()
        {
            engines[i]
                .subsequent_query(&batch, Strategy::UaGpnm)
                .expect("valid batch");
            let got = cluster.result(ch).unwrap();
            assert_eq!(
                got,
                engines[i].result(),
                "tick {tick} pattern {i} diverged from its engine \
                 (seed {seed}, {shards} shards, {kind:?}, {semantics:?})"
            );
            assert_eq!(
                got,
                service.result(sh).unwrap(),
                "tick {tick} pattern {i}: cluster diverged from single service (seed {seed})"
            );
            // The relation too — withheld or not — and against a fresh
            // match, so a relation that a migration dropped or a repair
            // left stale fails here, on this tick.
            let fresh = match_graph(
                service.pattern(sh).unwrap(),
                service.graph(),
                service.backend(),
                semantics,
            );
            assert!(
                got.relation_eq(&fresh) && service.result(sh).unwrap().relation_eq(&fresh),
                "tick {tick} pattern {i}: stale relation (seed {seed}, {shards} shards, \
                 {kind:?}, {semantics:?}): {got:?} vs fresh {fresh:?}"
            );
            // The merged report's delta equals the single service's.
            assert_eq!(
                cluster_report.delta_for(ch).expect("handle in report"),
                service_report.delta_for(sh).expect("handle in report"),
                "merged delta diverged (seed {seed}, tick {tick}, pattern {i})"
            );
        }
        // Every shard replica walked the same trajectory.
        for shard in cluster.shards() {
            assert_eq!(shard.graph().node_count(), service.graph().node_count());
            assert_eq!(shard.graph().edge_count(), service.graph().edge_count());
        }
    }
}

/// Replays a recorded shard assignment: pattern `i` goes to `picks[i]`,
/// ignoring loads. Used to rebuild, from scratch, the exact placement a
/// rebalanced cluster ended up with.
#[derive(Debug)]
struct Scripted {
    picks: Vec<usize>,
    next: usize,
}

impl ShardPlacement for Scripted {
    fn place(&mut self, _pattern: &PatternGraph, _loads: &[ShardLoad]) -> usize {
        let shard = self.picks[self.next];
        self.next += 1;
        shard
    }

    fn name(&self) -> &'static str {
        "scripted"
    }
}

proptest! {
    // Each case runs shard counts {1, 2, 4} on one backend/semantics
    // combination; 8 cases × the three backend props keeps the default
    // run in seconds while PROPTEST_CASES scales it in CI.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cluster_matches_service_and_engines_sparse(seed in any::<u64>(), k in 1usize..5) {
        for shards in [1usize, 2, 4] {
            check_equivalence(seed, shards, k, 4, BackendKind::Sparse,
                MatchSemantics::Simulation, 0);
        }
    }

    #[test]
    fn cluster_matches_service_and_engines_dense(seed in any::<u64>(), k in 1usize..4) {
        for shards in [1usize, 2, 4] {
            check_equivalence(seed, shards, k, 3, BackendKind::Partitioned,
                MatchSemantics::DualSimulation, 0);
        }
    }

    #[test]
    fn cluster_matches_service_and_engines_partitioned(seed in any::<u64>(), k in 1usize..4) {
        for shards in [1usize, 2, 4] {
            check_equivalence(seed, shards, k, 3, BackendKind::Partitioned,
                MatchSemantics::Simulation, 0);
        }
    }

    /// Fan-out ticks with parallel per-pattern refresh inside each shard
    /// (the nested-pool shape) stay bitwise equal to everything else.
    #[test]
    fn parallel_refresh_inside_shards_is_bitwise_equal(seed in any::<u64>(), k in 2usize..6) {
        check_equivalence(seed, 2, k, 3, BackendKind::Sparse,
            MatchSemantics::Simulation, 4);
        check_equivalence(seed, 4, k, 3, BackendKind::Sparse,
            MatchSemantics::DualSimulation, 2);
    }

    /// Migration is result-preserving: after `rebalance()` moves patterns
    /// between shards, the cluster is bitwise indistinguishable from a
    /// fresh cluster that *placed* every pattern on its post-rebalance
    /// shard from the start — same results, same footprints, same deltas
    /// on the next tick. The carried-result registration seam really is a
    /// pure relocation.
    #[test]
    fn rebalance_equals_fresh_placement(seed in any::<u64>(), k in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let labels = rng.gen_range(2..6);
        let (graph, interner) = random_graph(&mut rng, 20, 40, labels);

        // Round-robin deliberately scatters patterns, then the cost model
        // pulls overlapping ones back together mid-stream.
        let mut moved = GpnmCluster::builder()
            .shards(3)
            .backend(BackendKind::Sparse)
            .placement(RoundRobin::new())
            .build(graph.clone())
            .unwrap();
        let mut patterns = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..k {
            let p = random_pattern(&mut rng, &interner, labels);
            handles.push(moved.register_pattern(p.clone(), MatchSemantics::Simulation).unwrap());
            patterns.push(p);
        }
        let mut batches = Vec::new();
        for _ in 0..3 {
            let batch = random_data_batch(&mut rng, moved.graph(), &interner, 5);
            moved.apply(&batch).expect("valid batch");
            batches.push(batch);
        }
        moved.rebalance().expect("healthy shards");
        let picks: Vec<usize> = handles
            .iter()
            .map(|&h| moved.shard_of(h).unwrap())
            .collect();

        // A fresh cluster born onto the post-rebalance placement, fed the
        // same stream.
        let mut fresh = GpnmCluster::builder()
            .shards(3)
            .backend(BackendKind::Sparse)
            .placement(Scripted { picks: picks.clone(), next: 0 })
            .build(graph)
            .unwrap();
        let mut fresh_handles = Vec::new();
        for p in &patterns {
            fresh_handles.push(
                fresh.register_pattern(p.clone(), MatchSemantics::Simulation).unwrap(),
            );
        }
        for batch in &batches {
            fresh.apply(batch).expect("valid batch");
        }

        for (&hm, &hf) in handles.iter().zip(fresh_handles.iter()) {
            prop_assert_eq!(moved.shard_of(hm).unwrap(), fresh.shard_of(hf).unwrap());
            prop_assert_eq!(moved.result(hm).unwrap(), fresh.result(hf).unwrap());
            prop_assert!(
                moved.result(hm).unwrap().relation_eq(fresh.result(hf).unwrap()),
                "a migration carries the withheld relation too"
            );
            prop_assert_eq!(
                moved.result_version(hm).unwrap(),
                fresh.result_version(hf).unwrap()
            );
        }
        prop_assert_eq!(moved.total_resident_rows(), fresh.total_resident_rows());
        for (a, b) in moved.shards().iter().zip(fresh.shards().iter()) {
            prop_assert_eq!(a.backend().resident_rows(), b.backend().resident_rows());
        }

        // And the next tick's deltas are identical pair by pair.
        let batch = random_data_batch(&mut rng, moved.graph(), &interner, 5);
        let rm = moved.apply(&batch).expect("valid batch");
        let rf = fresh.apply(&batch).expect("valid batch");
        for (&hm, &hf) in handles.iter().zip(fresh_handles.iter()) {
            let dm = rm.delta_for(hm).expect("handle in report");
            let df = rf.delta_for(hf).expect("handle in report");
            prop_assert_eq!(&dm.added, &df.added);
            prop_assert_eq!(&dm.removed, &df.removed);
            prop_assert_eq!(dm.result_version, df.result_version);
            prop_assert!(moved.result(hm).unwrap().relation_eq(fresh.result(hf).unwrap()));
        }
    }

    /// A service with parallel refresh equals one without, tick for tick —
    /// the `refresh_threads` knob's own bitwise contract, independent of
    /// sharding.
    #[test]
    fn service_parallel_refresh_is_bitwise_equal(seed in any::<u64>(), k in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let labels = rng.gen_range(2..6);
        let (graph, interner) = random_graph(&mut rng, 20, 40, labels);
        let mut seq = GpnmService::builder()
            .backend(BackendKind::Sparse)
            .build(graph.clone())
            .unwrap();
        let mut par = GpnmService::builder()
            .backend(BackendKind::Sparse)
            .refresh_threads(3)
            .build(graph)
            .unwrap();
        let mut handles = Vec::new();
        for _ in 0..k {
            let pattern = random_pattern(&mut rng, &interner, labels);
            let a = seq.register_pattern(pattern.clone(), MatchSemantics::Simulation).unwrap();
            let b = par.register_pattern(pattern, MatchSemantics::Simulation).unwrap();
            prop_assert_eq!(a, b);
            handles.push(a);
        }
        for _ in 0..4 {
            let batch = random_data_batch(&mut rng, seq.graph(), &interner, 5);
            let seq_report = seq.apply(&batch).expect("valid");
            let par_report = par.apply(&batch).expect("valid");
            for &h in &handles {
                prop_assert_eq!(seq.result(h).unwrap(), par.result(h).unwrap());
                prop_assert!(seq.result(h).unwrap().relation_eq(par.result(h).unwrap()));
                prop_assert_eq!(
                    seq_report.delta_for(h).unwrap(),
                    par_report.delta_for(h).unwrap()
                );
            }
        }
    }
}
