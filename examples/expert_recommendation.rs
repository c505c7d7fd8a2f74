//! Expert recommendation with top-k ranking — §I's second motivating
//! application (Morris et al. [7]) plus the paper's §VIII future-work
//! item (2), selecting the top-k matching nodes.
//!
//! Matches the pattern under bounded simulation — an expert must reach a
//! moderator within 2 hops and an answerer within 3, and that answerer
//! must reach an expert within 3 (the pattern's back edge) — and ranks
//! the matched experts by aggregate closeness to their partner matches.
//!
//! Run with: `cargo run --release --example expert_recommendation`

use ua_gpnm::engine::top_k_matches;
use ua_gpnm::prelude::*;
use ua_gpnm::workload::{generate_social_graph, SocialGraphConfig};

fn main() {
    let (graph, interner) = generate_social_graph(&SocialGraphConfig {
        nodes: 600,
        edges: 4_800,
        labels: 8,
        communities: 8,
        label_coherence: 0.9,
        intra_community_bias: 0.8,
        seed: 4242,
    });

    // Question-answering triangle: an expert close to both a moderator and
    // an active answerer.
    let (pattern, interner, names) = PatternGraphBuilder::new()
        .node("expert", "L0")
        .node("moderator", "L1")
        .node("answerer", "L2")
        .edge("expert", "moderator", 2)
        .edge("expert", "answerer", 3)
        .edge("answerer", "expert", 3)
        .build_with_interner(interner)
        .expect("expert pattern is well-formed");

    let mut engine = GpnmEngine::new(graph, pattern, MatchSemantics::Simulation);
    engine.initial_query();

    let expert = names["expert"];
    let n_matched = engine.result().set(expert).len();
    println!(
        "{} experts satisfy the pattern under bounded simulation",
        n_matched
    );

    let top = top_k_matches(engine.pattern(), engine.result(), engine.slen(), expert, 5);
    println!("\n== top-5 experts by aggregate closeness ==");
    for (rank, m) in top.iter().enumerate() {
        println!(
            "  #{} node {} (closeness score {}, label {})",
            rank + 1,
            m.node,
            m.score,
            interner.name_or_placeholder(engine.graph().label(m.node).expect("live"))
        );
    }

    // The recommendation survives churn: drop the current #1's best edge
    // and re-query incrementally.
    if let Some(best) = top.first() {
        let victim = best.node;
        if let Some(&out) = engine.graph().out_neighbors(victim).first() {
            let mut batch = UpdateBatch::new();
            batch.push(DataUpdate::DeleteEdge {
                from: victim,
                to: out,
            });
            let stats = engine
                .subsequent_query(&batch, Strategy::UaGpnm)
                .expect("valid single-delete batch");
            println!(
                "\nafter deleting {victim}->{out}: repair took {:?} ({} SLen changes)",
                stats.total_time, stats.slen_changes
            );
            let new_top =
                top_k_matches(engine.pattern(), engine.result(), engine.slen(), expert, 5);
            println!("new top-5:");
            for (rank, m) in new_top.iter().enumerate() {
                println!("  #{} node {} (score {})", rank + 1, m.node, m.score);
            }
        }
    }
}
