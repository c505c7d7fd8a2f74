//! Team finding in a synthetic organization — the paper's §I motivating
//! application (Lappas et al. [6]).
//!
//! Generates a community-structured collaboration graph, asks for an IT
//! project team (PM + SE + TE + S with hop bounds), then simulates a burst
//! of organizational churn (hires, departures, new collaborations) and
//! compares all four strategies on the same batch.
//!
//! Run with: `cargo run --release --example team_finding`

use ua_gpnm::prelude::*;
use ua_gpnm::workload::{generate_batch, generate_social_graph, SocialGraphConfig, UpdateProtocol};

fn main() {
    // An 800-person organization with 12 roles clustered in departments.
    let (graph, interner) = generate_social_graph(&SocialGraphConfig {
        nodes: 800,
        edges: 6_000,
        labels: 12,
        communities: 12,
        label_coherence: 0.9,
        intra_community_bias: 0.85,
        seed: 2024,
    });
    println!(
        "organization: {} people, {} collaboration edges, {} roles",
        graph.node_count(),
        graph.edge_count(),
        interner.len()
    );

    // The Figure 1(b)-style team pattern over generated role labels:
    // a PM-like lead within 3 hops of an engineer and a support role,
    // engineer within 4 hops of a tester.
    let (pattern, interner, _names) = PatternGraphBuilder::new()
        .node("lead", "L0")
        .node("engineer", "L1")
        .node("tester", "L2")
        .node("support", "L3")
        .edge("lead", "engineer", 3)
        .edge("lead", "support", 3)
        .edge("engineer", "tester", 4)
        .build_with_interner(interner)
        .expect("team pattern is well-formed");

    let mut engine = GpnmEngine::new(graph, pattern, MatchSemantics::Simulation);
    engine.initial_query();
    println!("\n== IQuery: candidates per role ==");
    for u in engine.pattern().nodes() {
        let label = engine.pattern().label(u).expect("live");
        println!(
            "  {}: {} candidates",
            interner.name_or_placeholder(label),
            engine.result().set(u).len()
        );
    }

    // Organizational churn: 8 pattern tweaks + 80 graph updates.
    let protocol = UpdateProtocol::from_scale(8, 80);
    let batch = generate_batch(engine.graph(), engine.pattern(), &interner, &protocol, 99);
    println!("\nchurn batch: {} updates", batch.len());

    println!("\n== strategy comparison on the identical batch ==");
    println!(
        "{:<15} {:>12} {:>12} {:>12} {:>12}",
        "strategy", "total", "eliminated", "repairs", "slen-changes"
    );
    let mut reference: Option<ua_gpnm::matcher::MatchResult> = None;
    for strategy in Strategy::PAPER {
        let mut run = engine.clone();
        let stats = run
            .subsequent_query(&batch, strategy)
            .expect("batch validated");
        println!(
            "{:<15} {:>12?} {:>12} {:>12} {:>12}",
            strategy.name(),
            stats.total_time,
            stats.eliminated,
            stats.repair_calls,
            stats.slen_changes
        );
        match &reference {
            None => reference = Some(run.result().clone()),
            Some(r) => assert_eq!(r, run.result(), "strategies must agree"),
        }
    }
    println!("\nall four strategies returned identical SQuery results.");
}
