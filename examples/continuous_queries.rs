//! Continuous queries: many standing patterns on one `GpnmService`,
//! streamed data-update batches, per-tick match deltas.
//!
//! The serving shape of the paper's premise — updates arrive continuously,
//! so don't re-match from scratch *and* don't repair the shared `SLen`
//! index once per pattern. Registers four standing queries over one
//! evolving social graph, streams eight ticks of updates through one
//! `apply` call each, prints what changed per query, and verifies after
//! every tick that each standing result is bitwise what a dedicated
//! single-pattern engine would report.
//!
//! Along the way it exercises the concurrent read front-end: a reader
//! thread spins on `read_view` snapshots *while* the main thread ticks
//! (readers never block on a tick), and a subscription's delta stream is
//! folded back over its base view to reconstruct the final result.
//!
//! Run with: `cargo run --release --example continuous_queries`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

    // Fallible, builder-style construction: backend and memory budget are
    // runtime configuration, and misconfiguration is an Err, not a panic.
    let mut service = GpnmService::builder()
        .backend(BackendKind::Sparse)
        .max_index_gb(1)
        .build(graph.clone())
        .expect("sparse backends are never refused");

    // Four standing queries — and, for verification, one dedicated
    // single-pattern engine each (the k-engines deployment the service
    // replaces).
    let mut handles = Vec::new();
    let mut shadows = Vec::new();
    for i in 0..4u64 {
        let pattern = generate_pattern(
            &PatternConfig {
                nodes: 5,
                edges: 5,
                bound_range: (1, 3),
                seed: 100 + i,
            },
            &interner,
        );
        let handle = service
            .register_pattern(pattern.clone(), MatchSemantics::Simulation)
            .expect("non-empty pattern");
        let mut shadow = GpnmEngine::<SparseIndex>::with_backend(graph.clone(), pattern);
        shadow.initial_query();
        println!(
            "registered {handle}: {} initial matches",
            service.result(handle).unwrap().total_matches()
        );
        handles.push(handle);
        shadows.push(shadow);
    }
    println!(
        "shared index: {} rows resident, horizons (label:hops[kept labels]) {}\n",
        service.backend().resident_rows(),
        service.requirements().render(&interner),
    );

    // The concurrent read front-end: a subscription captures every tick's
    // delta for one query, and a pinned reader on another thread consumes
    // published snapshots *while* the service ticks — `read_view` is
    // `&self` and never blocks on `apply`.
    let sub_base = service.read_view(handles[1]).unwrap();
    let sub = service.subscribe(handles[1]).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let reader_thread = {
        let pinned = service.reader().pinned(handles[0]).unwrap();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut snapshots = 0u64;
            let mut last_version = 0u64;
            while !stop.load(Ordering::Acquire) {
                let view = pinned.view();
                assert!(view.result_version >= last_version, "versions went back");
                last_version = view.result_version;
                snapshots += 1;
            }
            (snapshots, last_version)
        })
    };

    let protocol = UpdateProtocol::from_scale(0, 16); // data-only ticks
    for tick in 0..8u64 {
        let batch = generate_batch(
            service.graph(),
            &PatternGraph::new(),
            &interner,
            &protocol,
            2000 + tick,
        );
        // One apply: the graph mutates and SLen repairs exactly once,
        // every standing query gets its own delta.
        let report = service.apply(&batch).expect("generated batches are valid");
        println!("{}", report.summary());
        for (&handle, shadow) in handles.iter().zip(shadows.iter_mut()) {
            let delta = report.delta_for(handle).expect("registered");
            if !delta.is_empty() {
                println!(
                    "  {handle}: +{} -{} -> {} matches (v{})",
                    delta.added.len(),
                    delta.removed.len(),
                    service.result(handle).unwrap().total_matches(),
                    delta.result_version
                );
            }
            // The equivalence the service is built on: same batch through a
            // dedicated engine, bitwise-equal standing result.
            shadow
                .subsequent_query(&batch, Strategy::UaGpnm)
                .expect("valid batch");
            assert_eq!(
                service.result(handle).unwrap(),
                shadow.result(),
                "tick {tick}: service diverged from the dedicated engine"
            );
        }
    }

    stop.store(true, Ordering::Release);
    let (snapshots, last_version) = reader_thread.join().expect("reader thread");
    println!(
        "\nconcurrent reader: {snapshots} snapshots during the ticks, \
         last at v{last_version}"
    );

    // Fold the subscription's stream over its base view: the deltas alone
    // reconstruct the final standing result exactly.
    let mut folded = sub_base.result.clone();
    let mut events = 0;
    while let Some(SubEvent::Delta(delta)) = sub.try_recv() {
        folded = delta.apply_to(&folded);
        events += 1;
    }
    let live = service.read_view(handles[1]).unwrap();
    assert_eq!(folded, live.result, "stream diverged from the live view");
    println!(
        "subscription on {}: {events} deltas reconstruct the live view (v{})",
        handles[1], live.result_version
    );

    // Standing queries come and go: deregistering narrows the shared index
    // to what the survivors need.
    let before = service.backend().resident_rows();
    service.deregister(handles[0]).expect("registered");
    service.deregister(handles[2]).expect("registered");
    println!(
        "\nderegistered 2 of 4 queries: {} -> {} resident rows",
        before,
        service.backend().resident_rows()
    );
    println!(
        "every tick verified bitwise against {} dedicated engines.",
        shadows.len()
    );
}
