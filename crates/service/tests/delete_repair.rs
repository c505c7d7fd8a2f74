//! Regression for the delete-repair defect: a removal that *cascaded* into
//! a pattern node on its first visit re-checked only that node's dirty
//! members, so members that had just lost their only witness survived for
//! a few ticks. The stream below (built only from the `gpnm-workload`
//! generators) reaches such a tick: at tick 19 the unfixed repair held 174
//! members where a from-scratch match gives 173.

use gpnm_distance::{BackendKind, SlenBackend, SlenRequirements, SparseIndex};
use gpnm_matcher::{match_graph, MatchSemantics};
use gpnm_service::{GpnmService, PatternHost};
use gpnm_workload::{
    generate_batch, generate_pattern, generate_social_graph, PatternConfig, SocialGraphConfig,
    UpdateProtocol,
};

#[test]
fn service_stays_equal_to_scratch_across_cascading_deletes() {
    let (graph, interner) = generate_social_graph(&SocialGraphConfig {
        nodes: 2000,
        edges: 8000,
        labels: 30,
        communities: 30,
        seed: 11,
        ..Default::default()
    });
    let pattern = generate_pattern(
        &PatternConfig {
            nodes: 6,
            edges: 6,
            bound_range: (1, 3),
            seed: 25,
        },
        &interner,
    );
    let semantics = MatchSemantics::Simulation;
    let mut service = GpnmService::builder()
        .backend(BackendKind::Sparse)
        .build(graph)
        .expect("sparse service");
    let handle = service
        .register_pattern(pattern.clone(), semantics)
        .expect("pattern registers");

    let protocol = UpdateProtocol {
        data_edge_deletes: 1,
        data_edge_inserts: 1,
        ..Default::default()
    };
    let no_pattern = gpnm_graph::PatternGraph::new();
    let reqs = SlenRequirements::of_pattern(&pattern);
    for tick in 0..60u64 {
        let batch_seed = 4u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(tick);
        let batch = generate_batch(
            service.graph(),
            &no_pattern,
            &interner,
            &protocol,
            batch_seed,
        );
        service.apply(&batch).expect("generated batch is valid");

        let fresh = SparseIndex::build(service.graph(), &reqs);
        let scratch = match_graph(&pattern, service.graph(), &fresh, semantics);
        let held = service.result(handle).expect("registered");
        assert_eq!(
            held.total_matches(),
            scratch.total_matches(),
            "tick {tick}: member count"
        );
        assert_eq!(*held, scratch, "tick {tick}: host diverged from scratch");
    }
}
