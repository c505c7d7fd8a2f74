//! Structural assertions on the experiment harness: the paper's expected
//! *shape* in timing-independent metrics (timing itself is asserted only
//! weakly — CI machines are noisy; `paper-repro` prints measured times).

use ua_gpnm::prelude::*;
use ua_gpnm::workload::{
    generate_batch, generate_pattern, generate_social_graph, run_experiment, Dataset,
    ExperimentConfig, PatternConfig, SocialGraphConfig, UpdateProtocol,
};

#[test]
fn smoke_grid_produces_full_cells() {
    let cfg = ExperimentConfig::smoke(Dataset::EmailEuCore);
    let results = run_experiment(&cfg);
    assert_eq!(
        results.len(),
        Strategy::PAPER.len(),
        "one cell per strategy"
    );
    for cell in &results {
        assert!(cell.runs > 0);
        assert!(cell.avg_time.as_nanos() > 0);
    }
}

#[test]
fn elimination_strategies_issue_fewer_repair_calls() {
    let (graph, interner) = generate_social_graph(&SocialGraphConfig {
        nodes: 300,
        edges: 1800,
        labels: 10,
        communities: 10,
        seed: 3,
        ..Default::default()
    });
    let pattern = generate_pattern(
        &PatternConfig {
            nodes: 6,
            edges: 6,
            bound_range: (1, 3),
            seed: 3,
        },
        &interner,
    );
    let mut base = GpnmEngine::new(graph, pattern, MatchSemantics::Simulation);
    base.initial_query();
    let protocol = UpdateProtocol::from_scale(8, 60);
    let batch = generate_batch(base.graph(), base.pattern(), &interner, &protocol, 17);

    let mut calls = std::collections::HashMap::new();
    let mut results = Vec::new();
    for strategy in Strategy::PAPER {
        let mut engine = base.clone();
        let stats = engine.subsequent_query(&batch, strategy).expect("valid");
        calls.insert(strategy.name(), stats.repair_calls);
        results.push(engine.result().clone());
    }
    // All strategies agree on the answer.
    for w in results.windows(2) {
        assert_eq!(w[0], w[1]);
    }
    // INC repairs once per update; UA repairs once per EH-Tree root; EH is
    // in between (pattern updates all survive).
    assert!(calls["UA-GPNM"] <= calls["EH-GPNM"], "{calls:?}");
    assert!(calls["EH-GPNM"] <= calls["INC-GPNM"], "{calls:?}");
    assert!(
        calls["INC-GPNM"] >= batch.len() - 4,
        "INC must pay ~one call per update: {calls:?}"
    );
}

#[test]
fn eliminated_counts_grow_with_batch_size() {
    let (graph, interner) = generate_social_graph(&SocialGraphConfig {
        nodes: 300,
        edges: 1800,
        labels: 10,
        communities: 10,
        seed: 5,
        ..Default::default()
    });
    let pattern = generate_pattern(
        &PatternConfig {
            nodes: 6,
            edges: 6,
            bound_range: (1, 3),
            seed: 5,
        },
        &interner,
    );
    let mut base = GpnmEngine::new(graph, pattern, MatchSemantics::Simulation);
    base.initial_query();
    let mut last = 0usize;
    let mut grew = false;
    for scale in [20usize, 60, 120] {
        let protocol = UpdateProtocol::from_scale(6, scale);
        let batch = generate_batch(base.graph(), base.pattern(), &interner, &protocol, 23);
        let mut engine = base.clone();
        let stats = engine
            .subsequent_query(&batch, Strategy::UaGpnm)
            .expect("valid");
        if stats.eliminated > last {
            grew = true;
        }
        last = stats.eliminated;
    }
    assert!(grew, "larger batches must find more eliminations");
}
