//! PR-7 out-of-core microbench: the paged `SLen` backend vs. the all-RAM
//! sparse backend on a 100k-node social workload, at three hot-row cache
//! budgets — starvation ("tiny"), a working-set squeeze ("10pct" of the
//! sparse index's memory), and effectively unlimited ("inf", the warm
//! cache the acceptance bar compares against sparse).
//!
//! Before timing anything, a distance-level gate drives both backends
//! through every pick being timed and asserts the commit deltas
//! **bitwise** equal (paged is sparse behind a pager — no projection, no
//! tolerance), and each paged service's standing results are asserted
//! bitwise equal to the sparse service's on the verify cycle.
//!
//! The timed unit is the balanced tick cycle the other service benches
//! use: one batch inserting 8 triadic-closure edges, one deleting them
//! back. Set `MICRO_PAGED_JSON=<path>` to write machine-readable numbers
//! (CI uploads this as `BENCH_pr7.json`); set `MICRO_PAGED_SMOKE=1` to
//! shrink the graph and budgets to a single CI-sized iteration.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use gpnm_distance::{
    BackendKind, PagedConfig, PagedIndex, RepairHint, SlenBackend, SlenRequirements, SparseIndex,
};
use gpnm_graph::{DataGraph, NodeId, PatternGraph};
use gpnm_matcher::MatchSemantics;
use gpnm_service::{GpnmService, PatternHandle};
use gpnm_updates::{DataUpdate, UpdateBatch};
use gpnm_workload::{generate_pattern, generate_social_graph, PatternConfig, SocialGraphConfig};

const EDGES_PER_TICK: usize = 8;
const PATTERNS: usize = 4;

fn smoke() -> bool {
    std::env::var("MICRO_PAGED_SMOKE")
        .map(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"))
        .unwrap_or(false)
}

/// The 100k-node workload the acceptance bar names (smoke mode shrinks it
/// so CI's one-iteration pass stays quick).
fn setup_graph() -> (DataGraph, gpnm_graph::LabelInterner) {
    let nodes = if smoke() { 20_000 } else { 100_000 };
    let (graph, interner) = generate_social_graph(&SocialGraphConfig {
        nodes,
        edges: nodes * 3 / 2,
        labels: 50,
        communities: nodes / 40,
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

/// The union requirement set the service would register for `pats`.
fn union_reqs(pats: &[PatternGraph]) -> SlenRequirements {
    let mut reqs = SlenRequirements::of_pattern(&pats[0]);
    for p in &pats[1..] {
        reqs.absorb(&SlenRequirements::of_pattern(p));
    }
    reqs
}

/// Equivalence gate: paged commit deltas must equal sparse's
/// **bitwise** on every pick being timed, under a cache small enough to
/// churn throughout (paged is sparse behind a pager, so there is no
/// projection to forgive — same records, same order).
fn assert_bitwise_deltas(graph: &DataGraph, reqs: &SlenRequirements, picks: &[(NodeId, NodeId)]) {
    let mut sparse = SparseIndex::build(graph, reqs);
    let mut paged = PagedIndex::with_config(
        graph,
        reqs,
        PagedConfig {
            cache_budget_bytes: 256 * 1024,
            ..PagedConfig::default()
        },
    );
    let mut g = graph.clone();
    for &(u, v) in picks {
        g.add_edge(u, v).expect("pick edge insertable");
        let sc = SlenBackend::commit_insert_edge(&mut sparse, &g, u, v, RepairHint::Baseline);
        let pc = SlenBackend::commit_insert_edge(&mut paged, &g, u, v, RepairHint::Baseline);
        assert_eq!(sc.changed, pc.changed, "insert commit delta diverged");
    }
    for &(u, v) in picks.iter().rev() {
        g.remove_edge(u, v).expect("edge just inserted");
        let sc = SlenBackend::commit_delete_edge(&mut sparse, &g, u, v, RepairHint::Baseline);
        let pc = SlenBackend::commit_delete_edge(&mut paged, &g, u, v, RepairHint::Baseline);
        assert_eq!(sc.changed, pc.changed, "delete commit delta diverged");
    }
    let io = SlenBackend::io_stats(&paged).expect("paged reports IO");
    assert!(io.pages_read > 0, "the gate never touched the spill file");
}

struct Side {
    service: GpnmService<gpnm_distance::AnyBackend>,
    handles: Vec<PatternHandle>,
}

fn deploy(
    graph: &DataGraph,
    pats: &[PatternGraph],
    kind: BackendKind,
    budget_mb: Option<f64>,
) -> Side {
    let mut builder = GpnmService::builder().backend(kind);
    if let Some(mb) = budget_mb {
        builder = builder.cache_budget_mb(mb);
    }
    let mut service = builder.build(graph.clone()).expect("valid config");
    let handles = pats
        .iter()
        .map(|p| {
            service
                .register_pattern(p.clone(), MatchSemantics::Simulation)
                .expect("generated patterns are non-empty")
        })
        .collect();
    Side { service, handles }
}

fn tick_cycle(side: &mut Side, fwd: &UpdateBatch, back: &UpdateBatch) -> usize {
    let a = side.service.apply(fwd).expect("valid tick");
    let b = side.service.apply(back).expect("valid tick");
    a.slen_changes + b.slen_changes
}

/// One verify cycle: both sides tick, every standing result must agree
/// bitwise after each batch. Doubles as the cache warm-up.
fn verify_cycle(paged: &mut Side, sparse: &mut Side, fwd: &UpdateBatch, back: &UpdateBatch) {
    for batch in [fwd, back] {
        paged.service.apply(batch).expect("valid tick");
        sparse.service.apply(batch).expect("valid tick");
        for (ph, sh) in paged.handles.iter().zip(sparse.handles.iter()) {
            assert_eq!(
                paged.service.result(*ph).expect("registered"),
                sparse.service.result(*sh).expect("registered"),
                "paged service diverged from sparse on the timed workload"
            );
        }
    }
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

fn paged_vs_sparse_tick(c: &mut Criterion) {
    let (graph, interner) = setup_graph();
    let pats = patterns(&interner, PATTERNS);
    let picks = insert_picks(&graph, EDGES_PER_TICK);
    let (fwd, back) = tick_batches(&picks);
    let mut sparse = deploy(&graph, &pats, BackendKind::Sparse, None);
    // 4 GiB budget: everything stays cached — the warm-cache comparison.
    let mut paged = deploy(&graph, &pats, BackendKind::Paged, Some(4096.0));
    verify_cycle(&mut paged, &mut sparse, &fwd, &back);

    let mut group = c.benchmark_group("paged_tick");
    group.sample_size(10);
    if smoke() {
        group.measurement_time(Duration::from_millis(1));
    }
    group.bench_function("sparse", |b| {
        b.iter(|| tick_cycle(&mut sparse, &fwd, &back))
    });
    group.bench_function("paged_warm", |b| {
        b.iter(|| tick_cycle(&mut paged, &fwd, &back))
    });
    group.finish();
}

/// Write `BENCH_pr7.json`-shaped numbers if `MICRO_PAGED_JSON` is set:
/// sparse baseline tick latency, then paged at the three cache budgets
/// with the paging counters observed **during the timed cycles**.
fn emit_json(c: &mut Criterion) {
    let _ = c;
    let Some(path) = std::env::var_os("MICRO_PAGED_JSON") else {
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
    let pats = patterns(&interner, PATTERNS);
    let picks = insert_picks(&graph, EDGES_PER_TICK);
    let (fwd, back) = tick_batches(&picks);

    // Gate: bitwise-equal deltas on the exact picks being timed.
    let reqs = union_reqs(&pats);
    assert_bitwise_deltas(&graph, &reqs, &picks);

    let mut sparse = deploy(&graph, &pats, BackendKind::Sparse, None);
    let sparse_warm = tick_cycle(&mut sparse, &fwd, &back);
    std::hint::black_box(sparse_warm);
    let sparse_ns = time_ns(iters, || tick_cycle(&mut sparse, &fwd, &back));
    let sparse_mem = sparse.service.backend().mem_bytes();

    // Budgets: starvation, 10% of the sparse footprint, unlimited.
    let mib = (1u64 << 20) as f64;
    let budgets = [
        ("tiny", 0.25),
        ("10pct", (sparse_mem as f64 * 0.10 / mib).max(0.05)),
        ("inf", 4096.0),
    ];
    let mut rows = String::new();
    let mut warm_ratio = f64::NAN;
    for (slot, (label, mb)) in budgets.into_iter().enumerate() {
        let mut paged = deploy(&graph, &pats, BackendKind::Paged, Some(mb));
        verify_cycle(&mut paged, &mut sparse, &fwd, &back);
        let before = paged
            .service
            .backend()
            .io_stats()
            .expect("paged reports IO");
        // The starved budgets run one cycle: they are qualitative rows
        // (hit rate, page traffic), and a thrashing cycle costs minutes.
        // Only the warm-cache row — the acceptance ratio — gets the full
        // iteration budget.
        let row_iters = if label == "inf" { iters } else { 1 };
        let ns = time_ns(row_iters, || tick_cycle(&mut paged, &fwd, &back));
        let io = paged
            .service
            .backend()
            .io_stats()
            .expect("paged reports IO")
            .since(&before);
        let mem = paged.service.backend().mem_bytes();
        let ratio = ns as f64 / sparse_ns.max(1) as f64;
        if label == "inf" {
            warm_ratio = ratio;
        }
        eprintln!(
            "[micro_paged] {label} ({mb:.2} MiB): {ns} ns/cycle ({ratio:.2}x sparse), \
             hit_rate {:.1}%, {} evictions, {} pages read",
            io.hit_rate() * 100.0,
            io.cache_evictions,
            io.pages_read,
        );
        if slot > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{ \"label\": \"{label}\", \"budget_mb\": {mb:.2}, \"tick_ns\": {ns}, \
             \"vs_sparse\": {ratio:.2}, \"hit_rate\": {:.4}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"evictions\": {}, \"pages_read\": {}, \
             \"pages_written\": {}, \"mem_bytes\": {mem} }}",
            io.hit_rate(),
            io.cache_hits,
            io.cache_misses,
            io.cache_evictions,
            io.pages_read,
            io.pages_written,
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"micro_paged\",\n  \"graph\": {{ \"nodes\": {}, \"edges\": {} }},\n  \
         \"patterns\": {},\n  \"updates_per_tick\": {},\n  \"ticks_per_cycle\": 2,\n  \
         \"iterations\": {},\n  \"deltas_bitwise_equal\": true,\n  \
         \"sparse\": {{ \"tick_ns\": {}, \"mem_bytes\": {} }},\n  \
         \"paged\": [\n{}\n  ],\n  \"warm_vs_sparse\": {:.2}\n}}\n",
        graph.node_count(),
        graph.edge_count(),
        PATTERNS,
        EDGES_PER_TICK,
        iters,
        sparse_ns,
        sparse_mem,
        rows,
        warm_ratio,
    );
    std::fs::write(&path, json).expect("writing MICRO_PAGED_JSON");
    eprintln!("[micro_paged] wrote {}", path.to_string_lossy());
}

criterion_group!(benches, paged_vs_sparse_tick, emit_json);
criterion_main!(benches);
