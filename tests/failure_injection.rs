//! Failure injection: invalid inputs must error early and leave every
//! piece of engine state (graphs, SLen, result) untouched.

use ua_gpnm::graph::paper::fig1;
use ua_gpnm::prelude::*;

fn engine() -> (GpnmEngine, gpnm_graph_fixture::Fig1Handles) {
    let f = fig1();
    let mut e = GpnmEngine::new(
        f.graph.clone(),
        f.pattern.clone(),
        MatchSemantics::Simulation,
    );
    e.initial_query();
    (
        e,
        gpnm_graph_fixture::Fig1Handles {
            pm1: f.pm1,
            se2: f.se2,
            te2: f.te2,
            p_pm: f.p_pm,
            p_te: f.p_te,
        },
    )
}

/// Minimal handle bundle so each test names what it pokes.
mod gpnm_graph_fixture {
    use ua_gpnm::prelude::{NodeId, PatternNodeId};
    pub struct Fig1Handles {
        pub pm1: NodeId,
        pub se2: NodeId,
        pub te2: NodeId,
        pub p_pm: PatternNodeId,
        pub p_te: PatternNodeId,
    }
}

fn assert_unchanged(e: &GpnmEngine, before: &GpnmEngine) {
    assert_eq!(e.graph().node_count(), before.graph().node_count());
    assert_eq!(e.graph().edge_count(), before.graph().edge_count());
    assert_eq!(e.pattern().edge_count(), before.pattern().edge_count());
    assert_eq!(e.result(), before.result());
    assert_eq!(e.slen(), before.slen());
}

#[test]
fn duplicate_data_edge_rejected_atomically() {
    let (mut e, h) = engine();
    let before = e.clone();
    let mut batch = UpdateBatch::new();
    batch.push(DataUpdate::InsertEdge {
        from: h.pm1,
        to: h.se2,
    }); // exists
    for strategy in Strategy::ALL {
        assert!(e.subsequent_query(&batch, strategy).is_err());
        assert_unchanged(&e, &before);
    }
}

#[test]
fn missing_node_delete_rejected() {
    let (mut e, _) = engine();
    let before = e.clone();
    let mut batch = UpdateBatch::new();
    batch.push(DataUpdate::DeleteNode { node: NodeId(4095) });
    assert!(e.subsequent_query(&batch, Strategy::UaGpnm).is_err());
    assert_unchanged(&e, &before);
}

#[test]
fn self_loop_rejected() {
    let (mut e, h) = engine();
    let before = e.clone();
    let mut batch = UpdateBatch::new();
    batch.push(DataUpdate::InsertEdge {
        from: h.te2,
        to: h.te2,
    });
    assert!(e.subsequent_query(&batch, Strategy::IncGpnm).is_err());
    assert_unchanged(&e, &before);
}

#[test]
fn later_invalid_update_rolls_back_whole_batch() {
    // The batch is valid until its last element; nothing may apply.
    let (mut e, h) = engine();
    let before = e.clone();
    let mut batch = UpdateBatch::new();
    batch.push(DataUpdate::InsertEdge {
        from: h.se2,
        to: h.te2,
    }); // fine alone
    batch.push(PatternUpdate::DeleteEdge {
        from: h.p_te,
        to: h.p_pm,
    }); // no such edge
    assert!(e.subsequent_query(&batch, Strategy::EhGpnm).is_err());
    assert_unchanged(&e, &before);
}

#[test]
fn duplicate_pattern_edge_rejected() {
    let (mut e, h) = engine();
    let before = e.clone();
    let mut batch = UpdateBatch::new();
    batch.push(PatternUpdate::InsertEdge {
        from: h.p_pm,
        to: h.p_te,
        bound: Bound::Hops(2),
    });
    batch.push(PatternUpdate::InsertEdge {
        from: h.p_pm,
        to: h.p_te,
        bound: Bound::Hops(3), // duplicate edge, different bound
    });
    assert!(e.subsequent_query(&batch, Strategy::UaGpnm).is_err());
    assert_unchanged(&e, &before);
}

#[test]
fn zero_bound_pattern_edge_rejected() {
    let (mut e, h) = engine();
    let before = e.clone();
    let mut batch = UpdateBatch::new();
    batch.push(PatternUpdate::InsertEdge {
        from: h.p_pm,
        to: h.p_te,
        bound: Bound::Hops(0),
    });
    assert!(e.subsequent_query(&batch, Strategy::UaGpnm).is_err());
    assert_unchanged(&e, &before);
}

#[test]
fn engine_usable_after_rejection() {
    // A rejected batch must not poison the engine for later valid work.
    let (mut e, h) = engine();
    let mut bad = UpdateBatch::new();
    bad.push(DataUpdate::DeleteNode { node: NodeId(999) });
    assert!(e.subsequent_query(&bad, Strategy::UaGpnm).is_err());

    let mut good = UpdateBatch::new();
    good.push(DataUpdate::InsertEdge {
        from: h.se2,
        to: h.te2,
    });
    let stats = e
        .subsequent_query(&good, Strategy::UaGpnm)
        .expect("valid batch after a rejected one");
    assert!(stats.slen_changes > 0);
    assert_eq!(e.result(), &e.scratch_query());
}
