//! Sharded serving: many standing patterns placed across a `GpnmCluster`,
//! parallel fan-out ticks, per-shard index isolation.
//!
//! The distribution shape of the ROADMAP's serving north star: k shards,
//! each a full `GpnmService` over its own graph replica with a sparse
//! index narrowed to only *that shard's* patterns' requirements. A batch
//! is validated once and fanned out to all shards in parallel in one
//! pool scope; per-pattern results stay bitwise identical to a
//! single service (verified every tick here), but one deep or
//! label-hungry pattern no longer taxes every other pattern's repair.
//!
//! Run with: `cargo run --release --example sharded_serving`

use ua_gpnm::prelude::*;
use ua_gpnm::workload::{
    generate_batch, generate_pattern, generate_social_graph, PatternConfig, SocialGraphConfig,
    UpdateProtocol,
};

fn main() {
    let (graph, interner) = generate_social_graph(&SocialGraphConfig {
        nodes: 800,
        edges: 4_000,
        labels: 12,
        communities: 12,
        seed: 11,
        ..Default::default()
    });

    // A 3-shard cluster. Placement is round-robin: the `i`-th pattern
    // lands on shard `i % 3`, which spreads the patterns for the shard
    // fan-out.
    let mut cluster = GpnmCluster::builder()
        .shards(3)
        .backend(BackendKind::Sparse)
        .build(graph.clone())
        .expect("sparse backends are never refused");

    // The single service the cluster replaces — kept as a shadow to show
    // the results are bitwise identical, tick for tick.
    let mut shadow = GpnmService::builder()
        .backend(BackendKind::Sparse)
        .build(graph)
        .expect("sparse backends are never refused");

    // Six standing queries with varying depth: the deep ones (larger
    // bounds) force *their* shard's index deep, and only theirs.
    let mut handles = Vec::new();
    let mut shadow_handles = Vec::new();
    for i in 0..6u64 {
        let pattern = generate_pattern(
            &PatternConfig {
                nodes: 5,
                edges: 5,
                bound_range: if i % 3 == 0 { (3, 4) } else { (1, 2) },
                seed: 100 + i,
            },
            &interner,
        );
        let handle = cluster
            .register_pattern(pattern.clone(), MatchSemantics::Simulation)
            .expect("generated patterns are non-empty");
        let sh = shadow
            .register_pattern(pattern, MatchSemantics::Simulation)
            .expect("generated patterns are non-empty");
        println!(
            "registered {handle} on shard {} ({} matches)",
            cluster.shard_of(handle).expect("registered"),
            cluster.result(handle).expect("registered").total_matches(),
        );
        handles.push(handle);
        shadow_handles.push(sh);
    }

    // Each shard's index covers only its own patterns' source labels, each
    // at its own horizon — the isolation a single union index cannot offer.
    for (i, shard) in cluster.shards().iter().enumerate() {
        println!(
            "shard {i}: {} patterns, horizons[kept] {}, {} rows resident",
            shard.pattern_count(),
            shard.requirements().render(&interner),
            shard.backend().resident_rows(),
        );
    }
    println!(
        "single-service union for comparison: horizons[kept] {}, {} rows resident",
        shadow.requirements().render(&interner),
        shadow.backend().resident_rows(),
    );

    // Stream five ticks through both deployments.
    let protocol = UpdateProtocol::from_scale(0, 12);
    for tick in 0..5u64 {
        let batch = generate_batch(
            cluster.graph(),
            &PatternGraph::new(),
            &interner,
            &protocol,
            900 + tick,
        );
        let report = cluster.apply(&batch).expect("generated batches are valid");
        let shadow_report = shadow.apply(&batch).expect("generated batches are valid");
        println!("{}", report.summary());
        for (&h, &sh) in handles.iter().zip(shadow_handles.iter()) {
            let delta = report.delta_for(h).expect("registered");
            if !delta.added.is_empty() || !delta.removed.is_empty() {
                println!("  {h}: +{} -{}", delta.added.len(), delta.removed.len());
            }
            assert_eq!(
                cluster.result(h).expect("registered"),
                shadow.result(sh).expect("registered"),
                "sharding must never change answers"
            );
            assert_eq!(
                Some(delta),
                shadow_report.delta_for(sh),
                "merged deltas must match the single service's"
            );
        }
    }
    println!(
        "verified: {} patterns × 5 ticks bitwise identical across {} shards and the \
         single-service shadow",
        handles.len(),
        cluster.shard_count(),
    );
}
