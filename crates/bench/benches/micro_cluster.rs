//! PR-5 cluster microbench: a sharded `GpnmCluster` vs the single-shard
//! sequential `GpnmService` baseline, k = 16 standing patterns on the
//! 2k-node micro graph — the deployment shape `gpnm-cluster` exists for.
//!
//! The workload models a real serving mix: four *tenant families* watch
//! disjoint label universes, and one family's patterns are *deep* (bound
//! 4) while the rest are shallow (bounds 1–2). A single service must
//! cover the **union** of every pattern's requirements — all four label
//! families, all at the union depth 4 — so every tick's shared repair
//! pays deep rows for everyone. Round-robin placement over 4 shards
//! puts each family on its own shard (pattern `i` → shard `i % 4`), so
//! only the deep family's shard keeps depth-4 rows and the other three
//! repair cheap depth-2 indices. That *requirement isolation* is work
//! reduction, not just parallelism, so the speedup survives even with no
//! parallel lanes at all; on multicore the shard fan-out and per-shard
//! `refresh_threads` compound it. The emitted JSON records `pool_lanes`
//! (the worker pool's actual parallelism during the run) so a reader can
//! tell which effect a given number measured: `pool_lanes: 1` means pure
//! work reduction.
//!
//! Before timing anything, one full tick cycle runs through both sides
//! and every pattern's standing result is asserted bitwise equal — the
//! bench doubles as an equivalence smoke test on the exact workload being
//! timed. The timed unit is the balanced tick cycle of `micro_service`
//! (insert 8 triadic-closure edges, delete them back).
//!
//! Set `MICRO_CLUSTER_JSON=<path>` to write machine-readable numbers for
//! shard counts {1, 2, 4} (CI uploads this as `BENCH_pr5.json`); set
//! `MICRO_CLUSTER_SMOKE=1` to shrink criterion and JSON budgets to a
//! single iteration.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use gpnm_cluster::{ClusterHandle, GpnmCluster, RoundRobin};
use gpnm_distance::{AnyBackend, BackendKind, SlenBackend};
use gpnm_graph::{Bound, DataGraph, Label, NodeId, PatternGraph};
use gpnm_matcher::MatchSemantics;
use gpnm_pool::WorkerPool;
use gpnm_service::{GpnmService, PatternHandle};
use gpnm_updates::{DataUpdate, UpdateBatch};
use gpnm_workload::{generate_social_graph, SocialGraphConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PATTERNS: usize = 16;
const FAMILIES: usize = 4;
const EDGES_PER_TICK: usize = 8;

/// The micro_backend/micro_service 2k-node sparse social graph.
fn setup_graph() -> (DataGraph, gpnm_graph::LabelInterner) {
    generate_social_graph(&SocialGraphConfig {
        nodes: 2000,
        edges: 3000,
        labels: 50,
        communities: 50,
        label_coherence: 0.95,
        intra_community_bias: 0.95,
        seed: 0x9212,
    })
}

/// A 6-node weakly-connected pattern over `pool` labels only, with every
/// edge bound drawn from `bounds`.
fn pool_pattern(seed: u64, pool: &[Label], bounds: (u32, u32)) -> PatternGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = PatternGraph::new();
    let nodes: Vec<_> = (0..6)
        .map(|_| p.add_node(pool[rng.gen_range(0..pool.len())]))
        .collect();
    let bound = |rng: &mut StdRng| Bound::Hops(rng.gen_range(bounds.0..=bounds.1));
    for i in 1..nodes.len() {
        let j = rng.gen_range(0..i);
        let b = bound(&mut rng);
        p.add_edge(nodes[j], nodes[i], b).expect("backbone fresh");
    }
    let mut attempts = 0;
    while p.edge_count() < 6 && attempts < 100 {
        attempts += 1;
        let a = nodes[rng.gen_range(0..nodes.len())];
        let b = nodes[rng.gen_range(0..nodes.len())];
        if a != b {
            let bd = bound(&mut rng);
            let _ = p.add_edge(a, b, bd);
        }
    }
    p
}

/// The 16-pattern tenant mix: family `f = i % 4` owns a disjoint quarter
/// of the label alphabet; family 0's patterns are deep (bound 4), the
/// rest shallow (bounds 1–2). Registration order `i` matches round-robin
/// placement, so family `f` lands intact on shard `f` of a 4-shard
/// cluster.
fn patterns(interner: &gpnm_graph::LabelInterner) -> Vec<PatternGraph> {
    let labels: Vec<Label> = interner.iter().map(|(l, _)| l).collect();
    let pools: Vec<Vec<Label>> = (0..FAMILIES)
        .map(|f| {
            labels
                .iter()
                .copied()
                .skip(f)
                .step_by(FAMILIES)
                .collect::<Vec<_>>()
        })
        .collect();
    (0..PATTERNS)
        .map(|i| {
            let family = i % FAMILIES;
            let bounds = if family == 0 { (4, 4) } else { (1, 2) };
            pool_pattern(0x9212 + i as u64, &pools[family], bounds)
        })
        .collect()
}

fn smoke() -> bool {
    std::env::var("MICRO_CLUSTER_SMOKE")
        .map(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"))
        .unwrap_or(false)
}

/// Triadic-closure insert candidates (the dominant social-update shape).
fn insert_picks(graph: &DataGraph, count: usize) -> Vec<(NodeId, NodeId)> {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let mut picks = Vec::with_capacity(count);
    let mut i = 1usize;
    while picks.len() < count && i <= nodes.len() * 4 {
        let u = nodes[(i * 7919) % nodes.len()];
        i += 1;
        for &w in graph.out_neighbors(u) {
            if let Some(&v) = graph.out_neighbors(w).first() {
                if u != v && !graph.has_edge(u, v) && !picks.contains(&(u, v)) {
                    picks.push((u, v));
                    break;
                }
            }
        }
    }
    assert_eq!(picks.len(), count, "too few triadic closures for the bench");
    picks
}

/// The balanced tick pair: insert the picks, then delete them back.
fn tick_batches(picks: &[(NodeId, NodeId)]) -> (UpdateBatch, UpdateBatch) {
    let mut fwd = UpdateBatch::new();
    let mut back = UpdateBatch::new();
    for &(u, v) in picks {
        fwd.push(DataUpdate::InsertEdge { from: u, to: v });
        back.push(DataUpdate::DeleteEdge { from: u, to: v });
    }
    (fwd, back)
}

struct Deployment {
    cluster: GpnmCluster,
    cluster_handles: Vec<ClusterHandle>,
    single: GpnmService<AnyBackend>,
    single_handles: Vec<PatternHandle>,
}

/// A `shards`-shard round-robin cluster plus the single sequential
/// service it replaces, hosting the same 16 patterns — every standing
/// result asserted identical after one full verification cycle.
fn deployment(
    graph: &DataGraph,
    pats: &[PatternGraph],
    shards: usize,
    verify: &[&UpdateBatch],
) -> Deployment {
    let mut cluster = GpnmCluster::builder()
        .shards(shards)
        .backend(BackendKind::Sparse)
        .placement(RoundRobin::new())
        .refresh_threads(4)
        .build(graph.clone())
        .expect("sparse never refused");
    let mut single = GpnmService::builder()
        .backend(BackendKind::Sparse)
        .build(graph.clone())
        .expect("sparse never refused");
    let mut cluster_handles = Vec::with_capacity(pats.len());
    let mut single_handles = Vec::with_capacity(pats.len());
    for p in pats {
        cluster_handles.push(
            cluster
                .register_pattern(p.clone(), MatchSemantics::Simulation)
                .expect("non-empty pattern"),
        );
        single_handles.push(
            single
                .register_pattern(p.clone(), MatchSemantics::Simulation)
                .expect("non-empty pattern"),
        );
    }
    for batch in verify {
        cluster.apply(batch).expect("valid tick");
        single.apply(batch).expect("valid tick");
        for (ch, sh) in cluster_handles.iter().zip(single_handles.iter()) {
            assert_eq!(
                cluster.result(*ch).expect("registered"),
                single.result(*sh).expect("registered"),
                "cluster diverged from the single service on the timed workload"
            );
        }
    }
    Deployment {
        cluster,
        cluster_handles,
        single,
        single_handles,
    }
}

/// Balanced cycles return both sides to the baseline state, so after any
/// number of timed iterations the standing results must still agree.
fn assert_in_sync(dep: &Deployment) {
    for (ch, sh) in dep.cluster_handles.iter().zip(dep.single_handles.iter()) {
        assert_eq!(
            dep.cluster.result(*ch).expect("registered"),
            dep.single.result(*sh).expect("registered"),
            "timed cycles desynchronized the cluster from the single service"
        );
    }
}

fn cluster_cycle(cluster: &mut GpnmCluster, fwd: &UpdateBatch, back: &UpdateBatch) -> usize {
    let a = cluster.apply(fwd).expect("valid tick");
    let b = cluster.apply(back).expect("valid tick");
    a.slen_changes + b.slen_changes
}

fn single_cycle(
    single: &mut GpnmService<AnyBackend>,
    fwd: &UpdateBatch,
    back: &UpdateBatch,
) -> usize {
    let a = single.apply(fwd).expect("valid tick");
    let b = single.apply(back).expect("valid tick");
    a.slen_changes + b.slen_changes
}

fn cluster_vs_single(c: &mut Criterion) {
    let (graph, interner) = setup_graph();
    let pats = patterns(&interner);
    let picks = insert_picks(&graph, EDGES_PER_TICK);
    let (fwd, back) = tick_batches(&picks);
    let mut dep = deployment(&graph, &pats, FAMILIES, &[&fwd, &back]);

    let mut group = c.benchmark_group("cluster_tick_2k_k16");
    group.sample_size(10);
    if smoke() {
        group.measurement_time(Duration::from_millis(1));
    }
    group.bench_function("cluster_4_shards", |b| {
        b.iter(|| cluster_cycle(&mut dep.cluster, &fwd, &back))
    });
    group.bench_function("single_shard_sequential", |b| {
        b.iter(|| single_cycle(&mut dep.single, &fwd, &back))
    });
    group.finish();
    assert_in_sync(&dep);
}

/// Self-timed mean over `iters` runs, nanoseconds.
fn time_ns<F: FnMut() -> usize>(iters: u32, mut f: F) -> u128 {
    std::hint::black_box(f()); // warm
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() / u128::from(iters.max(1))
}

/// Write `BENCH_pr5.json`-shaped numbers if `MICRO_CLUSTER_JSON` is set:
/// k = 16 patterns, cluster tick cost for shard counts {1, 2, 4} vs the
/// single-shard sequential service baseline, plus per-deployment index
/// footprints (rows) showing the requirement isolation.
fn emit_json(c: &mut Criterion) {
    let _ = c;
    let Some(path) = std::env::var_os("MICRO_CLUSTER_JSON") else {
        return;
    };
    let path = {
        let given = std::path::PathBuf::from(&path);
        if given.is_absolute() {
            given
        } else {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(given)
        }
    };
    let iters: u32 = if smoke() { 1 } else { 5 };
    let (graph, interner) = setup_graph();
    let pats = patterns(&interner);
    let picks = insert_picks(&graph, EDGES_PER_TICK);
    let (fwd, back) = tick_batches(&picks);

    // One baseline serves every shard count (it is the same deployment).
    let mut baseline = deployment(&graph, &pats, 1, &[&fwd, &back]);
    let single_ns = time_ns(iters, || single_cycle(&mut baseline.single, &fwd, &back));
    let single_rows = baseline.single.backend().resident_rows();
    assert_in_sync(&baseline);

    let mut rows = String::new();
    for (slot, shards) in [1usize, 2, 4].into_iter().enumerate() {
        let mut dep = deployment(&graph, &pats, shards, &[&fwd, &back]);
        let cluster_ns = time_ns(iters, || cluster_cycle(&mut dep.cluster, &fwd, &back));
        assert_in_sync(&dep);
        let speedup = single_ns as f64 / cluster_ns.max(1) as f64;
        eprintln!(
            "[micro_cluster] shards={shards}: cluster {cluster_ns} ns vs single sequential \
             {single_ns} ns ({speedup:.2}x), {} rows vs {single_rows}, pool_lanes={}",
            dep.cluster.total_resident_rows(),
            WorkerPool::global().lanes(),
        );
        if slot > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{ \"shards\": {shards}, \"cluster_tick_ns\": {cluster_ns}, \
             \"single_shard_sequential_tick_ns\": {single_ns}, \"speedup\": {speedup:.2}, \
             \"cluster_resident_rows\": {}, \"single_resident_rows\": {single_rows} }}",
            dep.cluster.total_resident_rows(),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"micro_cluster\",\n  \"graph\": {{ \"nodes\": {}, \"edges\": {} }},\n  \
         \"patterns\": {PATTERNS},\n  \"pattern_mix\": \"4 disjoint label families, family 0 \
         deep (bound 4), families 1-3 shallow (bounds 1-2)\",\n  \"updates_per_tick\": {},\n  \
         \"ticks_per_cycle\": 2,\n  \"iterations\": {},\n  \"backend\": \"sparse\",\n  \
         \"placement\": \"round-robin\",\n  \"refresh_threads\": 4,\n  \"pool_lanes\": {},\n  \
         \"shards\": [\n{}\n  ]\n}}\n",
        graph.node_count(),
        graph.edge_count(),
        EDGES_PER_TICK,
        iters,
        WorkerPool::global().lanes(),
        rows,
    );
    std::fs::write(&path, json).expect("writing MICRO_CLUSTER_JSON");
    eprintln!("[micro_cluster] wrote {}", path.to_string_lossy());
}

criterion_group!(benches, cluster_vs_single, emit_json);
criterion_main!(benches);
