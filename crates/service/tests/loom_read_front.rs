//! Loom model tests for the `ReadFront` publish protocol.
//!
//! Build with `RUSTFLAGS="--cfg gpnm_loom"`; in ordinary builds this file
//! compiles to nothing. The models check the two PR-6 invariants under
//! every bounded interleaving:
//!
//! 1. a concurrent reader only ever observes fully committed views, in
//!    monotone version order (the per-pattern view lock), and
//! 2. `publish_tick` swaps **all** views in before **any** delta fans out,
//!    so a woken subscriber's `read_view` is never older than the delta it
//!    was handed.
//!
//! The third test seeds the opposite ordering
//! (`publish_tick_fanout_first`, compiled only under this cfg) and proves
//! the checker catches it — the acceptance gate that the model is actually
//! sensitive to the bug class it exists for.
#![cfg(gpnm_loom)]

use gpnm_graph::{LabelInterner, NodeId, PatternGraph, PatternNodeId};
use gpnm_matcher::{MatchDelta, MatchResult};
use gpnm_service::{HandleId, ReadFront, ReadView, SubEvent};
use gpnm_sync::Arc;

fn pattern1() -> PatternGraph {
    let mut li = LabelInterner::new();
    let a = li.intern("A");
    let mut p = PatternGraph::new();
    p.add_node(a);
    p
}

fn view_with(nodes: &[u32], version: u64) -> ReadView {
    let mut result = MatchResult::for_pattern(&pattern1());
    for &n in nodes {
        result.set_mut(PatternNodeId(0)).insert(NodeId(n));
    }
    ReadView {
        result,
        result_version: version,
        tick: version,
    }
}

/// Distinct committed views: version v holds nodes {v}.
fn committed(version: u64) -> ReadView {
    view_with(&[version as u32], version)
}

fn delta_between(prev: &ReadView, next: &ReadView) -> MatchDelta {
    next.result.delta_from(&prev.result, next.result_version)
}

/// Publication safety: while a writer publishes versions 1 and 2, a pinned
/// reader sees only committed, untorn views with monotone versions — in
/// every interleaving of its read-lock-and-clone with the writer's
/// write-lock-and-swap, including both publications landing between two
/// reads.
#[test]
fn readers_observe_only_committed_epochs() {
    loom::model(|| {
        let front = ReadFront::new();
        let id = HandleId::from_raw(0);
        front.publish(id, committed(0));
        let pinned = front.pinned(id).expect("published");
        let writer = {
            let front = front.clone();
            loom::thread::spawn(move || {
                front.publish(id, committed(1));
                front.publish(id, committed(2));
            })
        };
        let mut last = 0u64;
        for _ in 0..2 {
            let v = pinned.view();
            assert!(v.result_version >= last, "version rewound");
            last = v.result_version;
            let expect = committed(v.result_version);
            assert_eq!(v.result, expect.result, "torn or uncommitted view");
        }
        writer.join().expect("writer");
        assert_eq!(pinned.view().result_version, 2, "final publish visible");
    });
}

/// Tick ordering: by the time a subscriber receives a tick's delta, the
/// published view is at least as new as that delta.
#[test]
fn subscriber_never_sees_view_older_than_its_delta() {
    loom::model(|| {
        let front = ReadFront::new();
        let id = HandleId::from_raw(0);
        let v0 = committed(0);
        let v1 = committed(1);
        front.publish(id, v0.clone());
        let sub = front.subscribe(id).expect("published");
        let consumer = {
            let front = front.clone();
            loom::thread::spawn(move || match sub.recv() {
                SubEvent::Delta(d) => {
                    let served = front.read_view(id).expect("still open");
                    assert!(
                        served.result_version >= d.result_version,
                        "view v{} is older than the delivered delta v{}",
                        served.result_version,
                        d.result_version
                    );
                }
                other => panic!("expected a delta, got {other:?}"),
            })
        };
        let delta = delta_between(&v0, &v1);
        front.publish_tick(vec![(id, v1, delta)]);
        consumer.join().expect("consumer");
    });
}

/// Seeded-bug sensitivity: fanning the delta out *before* the view swap
/// (the inverted ordering `publish_tick` exists to forbid) must be caught
/// by the same invariant check the previous test passes.
#[test]
#[should_panic(expected = "model failed")]
fn detects_fanout_before_publish() {
    loom::model(|| {
        let front = ReadFront::new();
        let id = HandleId::from_raw(0);
        let v0 = committed(0);
        let v1 = committed(1);
        front.publish(id, v0.clone());
        let sub = front.subscribe(id).expect("published");
        let consumer = {
            let front = front.clone();
            loom::thread::spawn(move || match sub.recv() {
                SubEvent::Delta(d) => {
                    let served = front.read_view(id).expect("still open");
                    assert!(
                        served.result_version >= d.result_version,
                        "view v{} is older than the delivered delta v{}",
                        served.result_version,
                        d.result_version
                    );
                }
                other => panic!("expected a delta, got {other:?}"),
            })
        };
        let delta = delta_between(&v0, &v1);
        front.publish_tick_fanout_first(vec![(id, v1, delta)]);
        consumer.join().expect("consumer");
    });
}

/// Registration race: closing a handle while a reader pins it — the pinned
/// reader keeps serving the last published view, and `read_view` flips to
/// a typed error, in every interleaving (no torn deregistration).
#[test]
fn close_race_keeps_pinned_reader_serving() {
    loom::model(|| {
        let front = ReadFront::new();
        let id = HandleId::from_raw(0);
        front.publish(id, committed(0));
        let pinned = front.pinned(id).expect("published");
        let closer = {
            let front = front.clone();
            loom::thread::spawn(move || front.close(id))
        };
        let v = pinned.view();
        assert_eq!(v.result_version, 0, "pinned view survives close");
        closer.join().expect("closer");
        assert!(front.read_view(id).is_err(), "closed handle reads error");
        let _keeps_serving = Arc::strong_count(&pinned.view());
    });
}
