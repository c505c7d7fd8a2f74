//! PR-3 backend microbenches: dense vs. sparse `SLen` backends on one
//! paper-shaped workload — build time, repair (insert+delete commit
//! cycles), and the resident-row/memory footprint.
//!
//! Before timing anything, the sparse commit deltas are asserted to equal
//! the dense deltas projected onto resident sources × the truncation
//! depth — the bench doubles as an equivalence smoke test on the exact
//! graphs being timed.
//!
//! Set `MICRO_BACKEND_JSON=<path>` to write machine-readable numbers
//! (self-timed, independent of the criterion shim's reporting) — CI's
//! bench-smoke step uploads this as `BENCH_pr3.json`. Set
//! `MICRO_BACKEND_SMOKE=1` to shrink both the criterion budget and the
//! JSON sample count to a single iteration for CI.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use gpnm_distance::{
    project_delta, AffDelta, IncrementalIndex, RepairHint, SlenBackend, SlenRequirements,
    SparseIndex,
};
use gpnm_graph::{DataGraph, NodeId, PatternGraph};
use gpnm_workload::{generate_pattern, generate_social_graph, PatternConfig, SocialGraphConfig};

/// A 2k-node sparse social graph, plus a 6-node bounded
/// pattern over its label alphabet (the sparse backend's requirement set).
fn setup() -> (DataGraph, PatternGraph) {
    let (graph, interner) = generate_social_graph(&SocialGraphConfig {
        nodes: 2000,
        edges: 3000,
        labels: 50,
        communities: 50,
        label_coherence: 0.95,
        intra_community_bias: 0.95,
        seed: 0x9212,
    });
    let pattern = generate_pattern(
        &PatternConfig {
            nodes: 6,
            edges: 6,
            bound_range: (1, 3),
            seed: 0x9212,
        },
        &interner,
    );
    (graph, pattern)
}

fn smoke() -> bool {
    std::env::var("MICRO_BACKEND_SMOKE")
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

/// The shared projection helper, bound to label residency in `graph`.
fn project(
    delta: &AffDelta,
    graph: &DataGraph,
    reqs: &SlenRequirements,
) -> Vec<(NodeId, NodeId, u32, u32)> {
    project_delta(delta, reqs.depth(), |x| {
        graph.label(x).is_some_and(|l| reqs.labels().contains(&l))
    })
}

/// Equivalence gate: over one repair cycle of every pick being timed,
/// sparse commit deltas must equal the projected dense deltas. The cycle
/// is balanced, so graph and indexes end where they started.
fn assert_equivalent(
    graph: &mut DataGraph,
    reqs: &SlenRequirements,
    dense: &mut IncrementalIndex,
    sparse: &mut SparseIndex,
    picks: &[(NodeId, NodeId)],
) {
    let hint = RepairHint::Baseline;
    for &(u, v) in picks {
        graph.add_edge(u, v).expect("pick edge insertable");
        let d = SlenBackend::commit_insert_edge(dense, graph, u, v, hint);
        let s = sparse.commit_insert_edge(graph, u, v, hint);
        assert_eq!(
            project(&d, graph, reqs),
            s.changed,
            "insert commit diverged"
        );
        graph.remove_edge(u, v).expect("edge just inserted");
        let d = SlenBackend::commit_delete_edge(dense, graph, u, v, hint);
        let s = sparse.commit_delete_edge(graph, u, v, hint);
        assert_eq!(
            project(&d, graph, reqs),
            s.changed,
            "delete commit diverged"
        );
    }
}

/// One balanced repair cycle: insert every pick edge and commit, then
/// delete it back and commit — the index ends exactly where it started,
/// so the cycle can be timed repeatedly without re-cloning 16 MB matrices.
fn repair_cycle<B: SlenBackend>(
    graph: &mut DataGraph,
    index: &mut B,
    picks: &[(NodeId, NodeId)],
) -> usize {
    let mut total = 0usize;
    for &(u, v) in picks {
        graph.add_edge(u, v).expect("pick edge insertable");
        total += index
            .commit_insert_edge(graph, u, v, RepairHint::Baseline)
            .len();
        graph.remove_edge(u, v).expect("edge just inserted");
        total += index
            .commit_delete_edge(graph, u, v, RepairHint::Baseline)
            .len();
    }
    total
}

fn backend_build(c: &mut Criterion) {
    let (graph, pattern) = setup();
    let reqs = SlenRequirements::of_pattern(&pattern);
    let mut group = c.benchmark_group("backend_build_2k");
    group.sample_size(10);
    if smoke() {
        group.measurement_time(Duration::from_millis(1));
    }
    group.bench_function("dense", |b| {
        b.iter(|| <IncrementalIndex as SlenBackend>::build(&graph, &reqs).resident_rows())
    });
    group.bench_function("sparse", |b| {
        b.iter(|| SparseIndex::build(&graph, &reqs).resident_rows())
    });
    group.finish();
}

fn backend_repair(c: &mut Criterion) {
    let (mut graph, pattern) = setup();
    let reqs = SlenRequirements::of_pattern(&pattern);
    let mut dense = <IncrementalIndex as SlenBackend>::build(&graph, &reqs);
    let mut sparse = SparseIndex::build(&graph, &reqs);
    let inserts = insert_picks(&graph, 8);
    assert_equivalent(&mut graph, &reqs, &mut dense, &mut sparse, &inserts);

    let mut group = c.benchmark_group("backend_repair_2k");
    group.sample_size(10);
    if smoke() {
        group.measurement_time(Duration::from_millis(1));
    }
    let mut g_dense = graph.clone();
    group.bench_function("dense_commit_cycle", |b| {
        b.iter(|| repair_cycle(&mut g_dense, &mut dense, &inserts))
    });
    let mut g_sparse = graph.clone();
    group.bench_function("sparse_commit_cycle", |b| {
        b.iter(|| repair_cycle(&mut g_sparse, &mut sparse, &inserts))
    });
    group.finish();
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

/// Write `BENCH_pr3.json`-shaped numbers if `MICRO_BACKEND_JSON` is set.
fn emit_json(c: &mut Criterion) {
    let _ = c;
    let Some(path) = std::env::var_os("MICRO_BACKEND_JSON") else {
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
    let (mut graph, pattern) = setup();
    let reqs = SlenRequirements::of_pattern(&pattern);
    let mut dense = <IncrementalIndex as SlenBackend>::build(&graph, &reqs);
    let mut sparse = SparseIndex::build(&graph, &reqs);
    let inserts = insert_picks(&graph, 8);
    assert_equivalent(&mut graph, &reqs, &mut dense, &mut sparse, &inserts);

    let build_dense = time_ns(iters, || {
        <IncrementalIndex as SlenBackend>::build(&graph, &reqs).resident_rows()
    });
    let build_sparse = time_ns(iters, || SparseIndex::build(&graph, &reqs).resident_rows());
    let mut g_dense = graph.clone();
    let repair_dense = time_ns(iters, || repair_cycle(&mut g_dense, &mut dense, &inserts));
    let mut g_sparse = graph.clone();
    let repair_sparse = time_ns(iters, || repair_cycle(&mut g_sparse, &mut sparse, &inserts));

    let ratio = |base: u128, fast: u128| base as f64 / fast.max(1) as f64;
    let json = format!(
        "{{\n  \"bench\": \"micro_backend\",\n  \"graph\": {{ \"nodes\": {}, \"edges\": {} }},\n  \"requirements\": {{ \"labels\": {}, \"depth\": {} }},\n  \"iterations\": {},\n  \"build\": {{\n    \"dense_ns\": {},\n    \"sparse_ns\": {},\n    \"speedup\": {:.2}\n  }},\n  \"repair_commit_cycle\": {{\n    \"dense_ns\": {},\n    \"sparse_ns\": {},\n    \"speedup\": {:.2}\n  }},\n  \"memory\": {{\n    \"dense_resident_rows\": {},\n    \"sparse_resident_rows\": {},\n    \"dense_bytes\": {},\n    \"sparse_bytes\": {},\n    \"bytes_ratio\": {:.1}\n  }}\n}}\n",
        graph.node_count(),
        graph.edge_count(),
        reqs.labels().len(),
        reqs.depth(),
        iters,
        build_dense,
        build_sparse,
        ratio(build_dense, build_sparse),
        repair_dense,
        repair_sparse,
        ratio(repair_dense, repair_sparse),
        dense.resident_rows(),
        sparse.resident_rows(),
        dense.mem_bytes(),
        sparse.mem_bytes(),
        dense.mem_bytes() as f64 / sparse.mem_bytes().max(1) as f64,
    );
    std::fs::write(&path, json).expect("writing MICRO_BACKEND_JSON");
    eprintln!("[micro_backend] wrote {}", path.to_string_lossy());
}

criterion_group!(benches, backend_build, backend_repair, emit_json);
criterion_main!(benches);
