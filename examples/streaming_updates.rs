//! Streaming sessions: many small update batches arriving between
//! queries — the Facebook-scale motivation of §I-B ("within each minute,
//! 400 new users join...").
//!
//! Chains ten subsequent queries on one engine, alternating strategies,
//! and verifies after every round that the incremental result matches a
//! from-scratch recomputation.
//!
//! Run with: `cargo run --release --example streaming_updates`

use ua_gpnm::prelude::*;
use ua_gpnm::workload::{
    generate_batch, generate_pattern, generate_social_graph, PatternConfig, SocialGraphConfig,
    UpdateProtocol,
};

fn main() {
    let (graph, interner) = generate_social_graph(&SocialGraphConfig {
        nodes: 500,
        edges: 3_000,
        labels: 10,
        communities: 10,
        seed: 7,
        ..Default::default()
    });
    let pattern = generate_pattern(
        &PatternConfig {
            nodes: 6,
            edges: 6,
            bound_range: (1, 3),
            seed: 21,
        },
        &interner,
    );

    let mut engine = GpnmEngine::new(graph, pattern, MatchSemantics::Simulation);
    engine.initial_query();
    println!(
        "session start: {} matches across {} pattern nodes",
        engine.result().total_matches(),
        engine.pattern().node_count()
    );

    let mut total_eliminated = 0usize;
    let mut total_updates = 0usize;
    for round in 0..10 {
        let protocol = UpdateProtocol::from_scale(4, 24);
        let batch = generate_batch(
            engine.graph(),
            engine.pattern(),
            &interner,
            &protocol,
            1000 + round,
        );
        let strategy = if round % 2 == 0 {
            Strategy::UaGpnm
        } else {
            Strategy::UaGpnmNoPar
        };
        let stats = engine
            .subsequent_query(&batch, strategy)
            .expect("generated batches are valid");
        total_eliminated += stats.eliminated;
        total_updates += stats.updates_submitted;
        println!(
            "round {:>2} [{:<13}] {:>5} updates, {:>3} eliminated, {:>3} repairs, {:?}, {} matches",
            round,
            strategy.name(),
            stats.updates_submitted,
            stats.eliminated,
            stats.repair_calls,
            stats.total_time,
            engine.result().total_matches()
        );
        // Session-long invariant: incremental == from scratch.
        assert_eq!(
            engine.result(),
            &engine.scratch_query(),
            "round {round} diverged from scratch recomputation"
        );
    }
    println!(
        "\nsession end: {} / {} updates eliminated across the session; every round verified against a from-scratch recomputation.",
        total_eliminated, total_updates
    );
}
