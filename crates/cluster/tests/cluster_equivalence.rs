//! Cluster/service/engine equivalence: a `GpnmCluster` with any shard
//! count must produce, per handle and per tick, results **bitwise
//! identical** to one `GpnmService` hosting the same patterns *and* to k
//! independent `GpnmEngine`s — on the sparse and the dense backend,
//! with registrations and deregistrations mid-stream. The pattern
//! generator shares the service suite's *starved* arm (patterns biased to
//! have no match), and every tick asserts `relation_eq` — cluster against
//! single service against a fresh `match_graph` — so the withheld relation
//! of an unmatched pattern is checked across deregistration and late
//! registration, where `==` on the (empty) visible sets proves nothing.
//!
//! This is the load-bearing proof that sharding and the shard fan-out
//! change *cost and isolation*, not *answers*.

use proptest::prelude::*;

use gpnm_cluster::GpnmCluster;
use gpnm_distance::BackendKind;
use gpnm_engine::{GpnmEngine, Strategy};
use gpnm_graph::{Bound, DataGraph, Label, LabelInterner, NodeId, PatternGraph};
use gpnm_matcher::{match_graph, MatchResult, MatchSemantics};
use gpnm_service::{GpnmService, PatternHost, TickOutcome};
use gpnm_updates::{DataUpdate, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIMULATION: MatchSemantics = MatchSemantics::Simulation;

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
fn check_equivalence(seed: u64, shards: usize, k: usize, ticks: usize, kind: BackendKind) {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = rng.gen_range(2..6);
    let nodes = rng.gen_range(8..32);
    let edges = rng.gen_range(nodes / 2..nodes * 3);
    let (graph, interner) = random_graph(&mut rng, nodes, edges, labels);

    let mut cluster = GpnmCluster::builder()
        .shards(shards)
        .backend(kind)
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
            .register_pattern(pattern.clone(), SIMULATION)
            .expect("non-empty pattern");
        let sh = service
            .register_pattern(pattern.clone(), SIMULATION)
            .expect("non-empty pattern");
        let mut engine = GpnmEngine::with_backend_kind(kind, graph, pattern, 4.0, None)
            .expect("test graphs fit every budget");
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
    // Each pattern's result as of the previous tick: the delta oracle.
    let mut prev: Vec<MatchResult> = cluster_handles
        .iter()
        .map(|&ch| cluster.result(ch).unwrap().clone())
        .collect();

    let deregister_at = ticks / 2;
    for tick in 0..ticks {
        if tick == deregister_at && cluster_handles.len() > 1 {
            // Drop pattern 0 everywhere mid-stream; the survivors' shard
            // narrows and must stay exact.
            cluster.deregister(cluster_handles.remove(0)).unwrap();
            service.deregister(service_handles.remove(0)).unwrap();
            engines.remove(0);
            prev.remove(0);
            // And register a fresh pattern mid-stream on the evolved graph.
            let (ch, sh, engine) = register(&mut cluster, &mut service, &mut rng);
            cluster_handles.push(ch);
            service_handles.push(sh);
            engines.push(engine);
            prev.push(cluster.result(ch).unwrap().clone());
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
                 (seed {seed}, {shards} shards, {kind:?})"
            );
            assert_eq!(
                got,
                service.result(sh).unwrap(),
                "tick {tick} pattern {i}: cluster diverged from single service (seed {seed})"
            );
            // The relation too — withheld or not — and against a fresh
            // match, so a relation that a repair left stale fails here, on
            // this tick.
            let fresh = match_graph(
                service.pattern(sh).unwrap(),
                service.graph(),
                service.backend(),
                SIMULATION,
            );
            assert!(
                got.relation_eq(&fresh) && service.result(sh).unwrap().relation_eq(&fresh),
                "tick {tick} pattern {i}: stale relation (seed {seed}, {shards} shards, \
                 {kind:?}): {got:?} vs fresh {fresh:?}"
            );
            // The merged report's delta equals the single service's, and
            // both are the diff against the previous tick, pair for pair
            // and in order.
            let delta = cluster_report.delta_for(ch).expect("handle in report");
            assert_eq!(
                delta,
                service_report.delta_for(sh).expect("handle in report"),
                "merged delta diverged (seed {seed}, tick {tick}, pattern {i})"
            );
            assert_eq!(
                delta,
                &got.delta_from(&prev[i], delta.result_version),
                "repair delta differs from the diff (seed {seed}, tick {tick}, pattern {i})"
            );
            assert_eq!(
                &delta.apply_to(&prev[i]),
                got,
                "delta does not fold to the view"
            );
            prev[i] = got.clone();
        }
        // Every shard replica walked the same trajectory.
        for shard in cluster.shards() {
            assert_eq!(shard.graph().node_count(), service.graph().node_count());
            assert_eq!(shard.graph().edge_count(), service.graph().edge_count());
        }
    }
}

/// Seed 10803717324649081819 on 2 sparse shards with 5 patterns over 3
/// ticks: the one case, at 1 024 cases, that failed when a repair's
/// sweep of a pattern node could turn from whole back to dirty-only (the
/// sticky *taint* rule of `gpnm_matcher::repair`). Without the rule,
/// pattern 2 keeps a stale relation at tick 2.
#[test]
fn a_whole_sweep_stays_whole_for_the_rest_of_the_fixpoint() {
    check_equivalence(10803717324649081819, 2, 5, 3, BackendKind::Sparse);
}

proptest! {
    // Each case runs shard counts {1, 2, 4} on one backend; the default
    // counts keep the run in seconds while PROPTEST_CASES scales it in CI.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cluster_matches_service_and_engines_sparse(seed in any::<u64>(), k in 1usize..6) {
        for shards in [1usize, 2, 4] {
            check_equivalence(seed, shards, k, 4, BackendKind::Sparse);
        }
    }
}

proptest! {
    // The dense matrix (`BackendKind::Partitioned`): 16 cases, on smaller
    // pattern sets and fewer ticks than sparse.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cluster_matches_service_and_engines_partitioned(seed in any::<u64>(), k in 1usize..4) {
        for shards in [1usize, 2, 4] {
            check_equivalence(seed, shards, k, 3, BackendKind::Partitioned);
        }
    }
}
