//! Ablation: SLen construction strategies (DESIGN.md ablation table).
//!
//! * dense per-source BFS (the baseline everyone maintains) vs the §V
//!   partitioned build composed through the bridge graph,
//! * single-row recomputation: flat BFS and bridge-graph composition, on a
//!   high-locality graph (composition's favorable regime) and on the
//!   bridge-dense email shape (its unfavorable regime).
//!   Composition against BFS on the `local` graph is the record of the
//!   deletion-repair arm the dense `partitioned` backend no longer has: no
//!   graph in play is bridge-sparse enough to select it.

use criterion::{criterion_group, criterion_main, Criterion};
use gpnm_distance::{apsp_matrix, bfs_row, PartitionedIndex, INF};
use gpnm_graph::{CsrGraph, NodeId};
use gpnm_workload::{generate_social_graph, SocialGraphConfig};

fn local_graph() -> gpnm_graph::DataGraph {
    // Strong label locality: few cross-partition edges, small bridge set.
    generate_social_graph(&SocialGraphConfig {
        nodes: 1200,
        edges: 4800,
        labels: 40,
        communities: 40,
        label_coherence: 1.0,
        intra_community_bias: 0.97,
        seed: 88,
    })
    .0
}

fn dense_graph() -> gpnm_graph::DataGraph {
    generate_social_graph(&SocialGraphConfig {
        nodes: 800,
        edges: 12_000,
        labels: 30,
        communities: 30,
        label_coherence: 0.85,
        intra_community_bias: 0.6,
        seed: 89,
    })
    .0
}

fn apsp_builds(c: &mut Criterion) {
    let graph = local_graph();
    let mut group = c.benchmark_group("apsp_build");
    group.sample_size(10);
    group.bench_function("dense_bfs", |b| b.iter(|| apsp_matrix(&graph)));
    group.bench_function("partitioned_serial", |b| {
        b.iter(|| {
            let idx = PartitionedIndex::build(&graph);
            idx.build_matrix(&graph)
        })
    });
    group.finish();
}

fn row_recompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_recompute");
    group.sample_size(20);
    for (name, graph) in [("local", local_graph()), ("bridge_dense", dense_graph())] {
        let csr = CsrGraph::from_graph(&graph);
        let idx = PartitionedIndex::build(&graph);
        eprintln!(
            "[micro_apsp] {name}: {} nodes, {} bridge nodes",
            graph.node_count(),
            idx.bridge_count()
        );
        let sources: Vec<NodeId> = graph.nodes().take(64).collect();
        let mut row = vec![INF; graph.slot_count()];
        let mut queue = Vec::new();
        group.bench_function(format!("{name}/flat_bfs_64rows"), |b| {
            b.iter(|| {
                for &s in &sources {
                    bfs_row(&csr, s, &mut row, &mut queue);
                }
            })
        });
        group.bench_function(format!("{name}/compose_64rows"), |b| {
            b.iter(|| {
                for &s in &sources {
                    idx.compose_row(s, &mut row);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, apsp_builds, row_recompute);
criterion_main!(benches);
