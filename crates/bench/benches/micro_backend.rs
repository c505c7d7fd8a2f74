//! Backend microbenches: dense vs. sparse `SLen` backends on one
//! paper-shaped workload — build time and repair (insert+delete commit
//! cycles).
//!
//! Before timing anything, the sparse commit deltas are asserted to equal
//! the dense deltas projected onto resident sources × the truncation
//! depth — the bench doubles as an equivalence smoke test on the exact
//! graphs being timed.

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

criterion_group!(benches, backend_build, backend_repair);
criterion_main!(benches);
