//! PR-4 service microbench: shared single-pass repair (`GpnmService` with
//! k registered patterns) vs. k independent `GpnmEngine`s, on the 2k-node
//! micro graph — the continuous-query deployment the service crate exists
//! for.
//!
//! Before timing anything, one full tick cycle is run through both sides
//! and every pattern's standing result is asserted bitwise equal — the
//! bench doubles as an equivalence smoke test on the exact workload being
//! timed.
//!
//! The timed unit is a balanced *tick cycle*: one data batch inserting 8
//! triadic-closure edges, then one deleting them back, so graph and index
//! end exactly where they started and the cycle can repeat without
//! re-cloning state. Set `MICRO_SERVICE_JSON=<path>` to write
//! machine-readable numbers for k ∈ {1, 4, 16} (CI uploads this as
//! `BENCH_pr4.json`); set `MICRO_SERVICE_SMOKE=1` to shrink criterion and
//! JSON budgets to a single iteration.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use gpnm_distance::PartitionedBackend;
use gpnm_engine::{GpnmEngine, Strategy};
use gpnm_graph::{DataGraph, NodeId, PatternGraph};
use gpnm_matcher::MatchSemantics;
use gpnm_service::{GpnmService, PatternHandle};
use gpnm_updates::{DataUpdate, UpdateBatch};
use gpnm_workload::{generate_pattern, generate_social_graph, PatternConfig, SocialGraphConfig};

const EDGES_PER_TICK: usize = 8;

/// The micro_backend 2k-node sparse social graph.
fn setup_graph() -> (DataGraph, gpnm_graph::LabelInterner) {
    let (graph, interner) = generate_social_graph(&SocialGraphConfig {
        nodes: 2000,
        edges: 3000,
        labels: 50,
        communities: 50,
        label_coherence: 0.95,
        intra_community_bias: 0.95,
        seed: 0x9212,
    });
    (graph, interner)
}

/// k distinct 6-node bounded patterns over the graph's label alphabet.
fn patterns(interner: &gpnm_graph::LabelInterner, k: usize) -> Vec<PatternGraph> {
    (0..k)
        .map(|i| {
            generate_pattern(
                &PatternConfig {
                    nodes: 6,
                    edges: 6,
                    bound_range: (1, 3),
                    seed: 0x9212 + i as u64,
                },
                interner,
            )
        })
        .collect()
}

fn smoke() -> bool {
    std::env::var("MICRO_SERVICE_SMOKE")
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
    service: GpnmService<PartitionedBackend>,
    handles: Vec<PatternHandle>,
    engines: Vec<GpnmEngine<PartitionedBackend>>,
}

/// One service with k registered patterns, plus the k independent engines
/// it replaces — every standing result asserted identical after one full
/// verification cycle.
fn deployment(graph: &DataGraph, pats: &[PatternGraph], verify: &[&UpdateBatch]) -> Deployment {
    let mut service = GpnmService::<PartitionedBackend>::new(graph.clone());
    let mut handles = Vec::with_capacity(pats.len());
    let mut engines = Vec::with_capacity(pats.len());
    for p in pats {
        handles.push(
            service
                .register_pattern(p.clone(), MatchSemantics::Simulation)
                .expect("generated patterns are non-empty"),
        );
        let mut e = GpnmEngine::<PartitionedBackend>::with_backend(
            graph.clone(),
            p.clone(),
            MatchSemantics::Simulation,
        );
        e.initial_query();
        engines.push(e);
    }
    for batch in verify {
        service.apply(batch).expect("valid tick");
        for (h, e) in handles.iter().zip(engines.iter_mut()) {
            e.subsequent_query(batch, Strategy::UaGpnm).expect("valid");
            assert_eq!(
                service.result(*h).expect("registered"),
                e.result(),
                "service diverged from its dedicated engine on the timed workload"
            );
        }
    }
    Deployment {
        service,
        handles,
        engines,
    }
}

/// Balanced cycles return both sides to the baseline state, so after any
/// number of timed iterations the standing results must still agree.
fn assert_in_sync(dep: &Deployment) {
    for (h, e) in dep.handles.iter().zip(dep.engines.iter()) {
        assert_eq!(
            dep.service.result(*h).expect("registered"),
            e.result(),
            "timed cycles desynchronized the service from its engines"
        );
    }
}

fn service_cycle(
    service: &mut GpnmService<PartitionedBackend>,
    fwd: &UpdateBatch,
    back: &UpdateBatch,
) -> usize {
    let a = service.apply(fwd).expect("valid tick");
    let b = service.apply(back).expect("valid tick");
    a.slen_changes + b.slen_changes
}

fn engines_cycle(
    engines: &mut [GpnmEngine<PartitionedBackend>],
    fwd: &UpdateBatch,
    back: &UpdateBatch,
) -> usize {
    let mut total = 0;
    for e in engines.iter_mut() {
        total += e
            .subsequent_query(fwd, Strategy::UaGpnm)
            .expect("valid")
            .slen_changes;
        total += e
            .subsequent_query(back, Strategy::UaGpnm)
            .expect("valid")
            .slen_changes;
    }
    total
}

fn service_vs_engines(c: &mut Criterion) {
    let (graph, interner) = setup_graph();
    let pats = patterns(&interner, 4);
    let picks = insert_picks(&graph, EDGES_PER_TICK);
    let (fwd, back) = tick_batches(&picks);
    let mut dep = deployment(&graph, &pats, &[&fwd, &back]);

    let mut group = c.benchmark_group("service_tick_2k_k4");
    group.sample_size(10);
    if smoke() {
        group.measurement_time(Duration::from_millis(1));
    }
    group.bench_function("shared_service", |b| {
        b.iter(|| service_cycle(&mut dep.service, &fwd, &back))
    });
    group.bench_function("independent_engines", |b| {
        b.iter(|| engines_cycle(&mut dep.engines, &fwd, &back))
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

/// Write `BENCH_pr4.json`-shaped numbers if `MICRO_SERVICE_JSON` is set:
/// shared-service vs k-independent-engines tick cost for k ∈ {1, 4, 16}.
fn emit_json(c: &mut Criterion) {
    let _ = c;
    let Some(path) = std::env::var_os("MICRO_SERVICE_JSON") else {
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
    let picks = insert_picks(&graph, EDGES_PER_TICK);
    let (fwd, back) = tick_batches(&picks);

    let mut rows = String::new();
    for (slot, k) in [1usize, 4, 16].into_iter().enumerate() {
        let pats = patterns(&interner, k);
        let mut dep = deployment(&graph, &pats, &[&fwd, &back]);
        let service_ns = time_ns(iters, || service_cycle(&mut dep.service, &fwd, &back));
        let engines_ns = time_ns(iters, || engines_cycle(&mut dep.engines, &fwd, &back));
        assert_in_sync(&dep);
        let speedup = engines_ns as f64 / service_ns.max(1) as f64;
        eprintln!(
            "[micro_service] k={k}: service {service_ns} ns vs {k} engines {engines_ns} ns \
             ({speedup:.2}x)"
        );
        if slot > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{ \"patterns\": {k}, \"service_tick_ns\": {service_ns}, \
             \"independent_engines_tick_ns\": {engines_ns}, \"speedup\": {speedup:.2} }}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"micro_service\",\n  \"graph\": {{ \"nodes\": {}, \"edges\": {} }},\n  \
         \"updates_per_tick\": {},\n  \"ticks_per_cycle\": 2,\n  \"iterations\": {},\n  \
         \"backend\": \"partitioned\",\n  \"k\": [\n{}\n  ]\n}}\n",
        graph.node_count(),
        graph.edge_count(),
        EDGES_PER_TICK,
        iters,
        rows,
    );
    std::fs::write(&path, json).expect("writing MICRO_SERVICE_JSON");
    eprintln!("[micro_service] wrote {}", path.to_string_lossy());
}

criterion_group!(benches, service_vs_engines, emit_json);
criterion_main!(benches);
