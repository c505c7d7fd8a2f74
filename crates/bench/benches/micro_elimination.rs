//! Micro-benchmarks of the elimination machinery: DER detection, EH-Tree
//! construction, and the cancellation pre-pass (DESIGN.md ablations).

use criterion::{criterion_group, criterion_main, Criterion};
use gpnm_graph::{NodeId, NodeSet};
use gpnm_updates::{
    reduce_batch, DataUpdate, EhTree, EliminationGraph, Update, UpdateBatch, UpdateEffect,
};
use gpnm_workload::{generate_social_graph, SocialGraphConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthetic effects with nested coverage (the favorable case the paper's
/// Example 8 illustrates) mixed with incomparable ones.
fn synth_effects(n: usize, universe: usize, seed: u64) -> Vec<UpdateEffect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let size = rng.gen_range(1..universe / 2);
            let start = rng.gen_range(0..universe / 2);
            let coverage: NodeSet = (start..start + size).map(|x| NodeId(x as u32)).collect();
            UpdateEffect {
                index: i,
                update: Update::Data(DataUpdate::InsertEdge {
                    from: NodeId(0),
                    to: NodeId(i as u32 + 1),
                }),
                coverage,
                insertion: true,
                cross_eliminates: Vec::new(),
            }
        })
        .collect()
}

/// The batch shape a `churn_adaptive` host tick analyses: 210 data updates
/// over a 3 000-node graph, coverages of 22 draws from a 64-node window (a
/// ball around the update), and every seventh coverage empty (30 in all;
/// a node insert's always is).
fn churn_effects(seed: u64) -> Vec<UpdateEffect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..210)
        .map(|i| {
            let coverage: NodeSet = if i % 7 == 0 {
                NodeSet::new()
            } else {
                let centre: u32 = rng.gen_range(0..3000 - 64);
                (0..22)
                    .map(|_| NodeId(centre + rng.gen_range(0u32..64)))
                    .collect()
            };
            UpdateEffect {
                index: i,
                update: Update::Data(DataUpdate::InsertEdge {
                    from: NodeId(0),
                    to: NodeId(i as u32 + 1),
                }),
                coverage,
                insertion: true,
                cross_eliminates: Vec::new(),
            }
        })
        .collect()
}

fn detection_and_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("elimination");
    let cases = [50usize, 100, 250]
        .map(|n| (n.to_string(), synth_effects(n, 2000, 3)))
        .into_iter()
        .chain([("churn_210".to_string(), churn_effects(7))]);
    for (name, effects) in cases {
        group.bench_function(format!("detect_{name}"), |b| {
            b.iter(|| EliminationGraph::detect(&effects))
        });
        let relations = EliminationGraph::detect(&effects);
        group.bench_function(format!("tree_build_{name}"), |b| {
            b.iter(|| EhTree::build(&effects, &relations))
        });
    }
    group.finish();
}

fn cancellation(c: &mut Criterion) {
    let (graph, _) = generate_social_graph(&SocialGraphConfig {
        nodes: 500,
        edges: 2500,
        seed: 5,
        ..Default::default()
    });
    let pattern = gpnm_graph::PatternGraph::new();
    // A churny batch: 50% of the edge updates toggle back.
    let edges: Vec<_> = graph.edges().take(100).collect();
    let mut batch = UpdateBatch::new();
    for &(u, v) in &edges {
        batch.push(DataUpdate::DeleteEdge { from: u, to: v });
        batch.push(DataUpdate::InsertEdge { from: u, to: v }); // cancels
    }
    let mut group = c.benchmark_group("cancellation");
    group.bench_function("reduce_200_updates_full_churn", |b| {
        b.iter(|| reduce_batch(&graph, &pattern, &batch))
    });
    group.finish();
}

criterion_group!(benches, detection_and_tree, cancellation);
criterion_main!(benches);
