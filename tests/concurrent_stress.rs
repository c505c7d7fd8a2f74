//! Concurrency stress for the read front-end, generic over
//! [`PatternHost`]: N reader threads spin on `read_view` snapshots *while*
//! the host ticks, and every `(result, result_version)` any reader ever
//! observes must be **bitwise one of the committed epochs** — never a torn
//! or in-progress state. Subscription streams are folded over their base
//! views and must reconstruct the final published result exactly (gaps
//! surface as `Lagged` records that keep the fold exact).
//!
//! The same harness runs against a single `GpnmService` and a 4-shard
//! `GpnmCluster` with parallel fan-out — the cluster must publish each
//! tick atomically across shards. The deterministic tests scale via
//! `STRESS_READERS` / `STRESS_TICKS` (the CI `concurrency-stress` job
//! elevates them); the proptest variant scales via `PROPTEST_CASES`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use ua_gpnm::prelude::*;
use ua_gpnm::workload::{
    generate_batch, generate_pattern, generate_social_graph, PatternConfig, SocialGraphConfig,
    UpdateProtocol,
};

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn stress_graph(seed: u64, nodes: usize) -> (DataGraph, LabelInterner) {
    generate_social_graph(&SocialGraphConfig {
        nodes,
        edges: nodes * 4,
        labels: 8,
        communities: 8,
        seed,
        ..Default::default()
    })
}

/// The generic harness. Registers three standing patterns on `host`,
/// subscribes to each, spawns `readers` threads spinning on pinned
/// `read_view`s, streams `ticks` generated batches through `apply`, then:
///
/// 1. every observed `(handle, result_version)` must carry the bitwise
///    result and tick the writer committed under that version (the
///    epoch-swap safety property);
/// 2. every subscription stream, folded over its base view via
///    `MatchDelta::apply_to`, must reconstruct the final live view
///    (ordered, gap-free delivery — with `Lagged` coalescing kept exact);
/// 3. deregistration closes streams with a final `Closed` and turns the
///    handle into a typed error, not a panic.
fn stress_host<H: PatternHost>(
    mut host: H,
    interner: &LabelInterner,
    seed: u64,
    readers: usize,
    ticks: usize,
) {
    let mut handles = Vec::new();
    for i in 0..3u64 {
        let pattern = generate_pattern(
            &PatternConfig {
                nodes: 4,
                edges: 4,
                bound_range: (1, 3),
                seed: seed.wrapping_add(i),
            },
            interner,
        );
        handles.push(
            host.register_pattern(pattern, MatchSemantics::Simulation)
                .expect("non-empty pattern"),
        );
    }

    // Committed epochs: per handle, version -> (result, tick) as the
    // writer sees them right after each commit. Readers may only ever
    // observe entries of this map.
    let mut committed: HashMap<(u64, u64), (MatchResult, u64)> = HashMap::new();
    let commit = |host: &H, committed: &mut HashMap<(u64, u64), (MatchResult, u64)>| {
        for &h in &handles {
            let id: HandleId = h.into();
            let v = host.result_version(h).expect("live handle");
            committed.insert(
                (id.raw(), v),
                (host.result(h).expect("live handle").clone(), host.tick()),
            );
        }
    };
    commit(&host, &mut committed);

    // Subscribe before the first tick so streams are gap-free from the
    // base views down.
    let mut streams = Vec::new();
    for &h in &handles {
        let base = host.read_view(h).expect("published at registration");
        let sub = host.subscribe(h).expect("live handle");
        streams.push((h, sub, base.result.clone(), base.result_version));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let ids: Vec<HandleId> = handles.iter().map(|&h| h.into()).collect();
    let reader_threads: Vec<_> = (0..readers)
        .map(|r| {
            let front = host.reader();
            let stop = Arc::clone(&stop);
            let ids = ids.clone();
            std::thread::spawn(move || {
                let pinned: Vec<_> = ids
                    .iter()
                    .map(|&id| front.pinned(id).expect("live handle"))
                    .collect();
                let mut seen: HashMap<(u64, u64), Arc<ReadView>> = HashMap::new();
                // Stagger the starting handle per reader so the threads
                // don't lockstep over the same cell.
                let mut i = r;
                loop {
                    let k = i % pinned.len();
                    let view = pinned[k].view();
                    match seen.entry((ids[k].raw(), view.result_version)) {
                        Entry::Occupied(prev) => assert!(
                            Arc::ptr_eq(prev.get(), &view) || **prev.get() == *view,
                            "two views under one version differ (seed {seed})"
                        ),
                        Entry::Vacant(slot) => {
                            slot.insert(view);
                        }
                    }
                    i += 1;
                    // Observe-then-check: even if the writer finishes
                    // before this thread's first iteration, it records at
                    // least one view.
                    if stop.load(Ordering::Acquire) {
                        return seen;
                    }
                }
            })
        })
        .collect();

    let protocol = UpdateProtocol::from_scale(0, 8);
    for t in 0..ticks {
        let batch = generate_batch(
            host.graph(),
            &PatternGraph::new(),
            interner,
            &protocol,
            seed.wrapping_add(1_000 + t as u64),
        );
        let report = host.apply(&batch).expect("generated batches are valid");
        assert_eq!(report.deltas().len(), handles.len());
        commit(&host, &mut committed);
    }
    stop.store(true, Ordering::Release);

    for thread in reader_threads {
        let seen = thread.join().expect("reader thread");
        assert!(!seen.is_empty(), "reader observed nothing (seed {seed})");
        for ((raw, version), view) in seen {
            let (result, tick) = committed.get(&(raw, version)).unwrap_or_else(|| {
                panic!("observed uncommitted v{version} of pattern #{raw} (seed {seed})")
            });
            assert_eq!(
                &view.result, result,
                "observed view of pattern #{raw} v{version} is not bitwise \
                 the committed epoch (seed {seed})"
            );
            assert_eq!(view.tick, *tick, "view stamped with the wrong tick");
        }
    }

    // Fold each stream over its base: exact reconstruction, in order,
    // without gaps — a `Lagged` record accounts for every skipped version.
    for (h, sub, mut folded, mut version) in streams {
        while let Some(event) = sub.try_recv() {
            match event {
                SubEvent::Delta(delta) => {
                    assert_eq!(delta.result_version, version + 1, "gap in stream");
                    version = delta.result_version;
                    folded = delta.apply_to(&folded);
                }
                SubEvent::Lagged {
                    missed_versions,
                    delta,
                } => {
                    assert_eq!(
                        delta.result_version,
                        version + missed_versions,
                        "lagged record does not account for every missed version"
                    );
                    version = delta.result_version;
                    folded = delta.apply_to(&folded);
                }
                SubEvent::Closed => break,
            }
        }
        let live = host.read_view(h).expect("live handle");
        assert_eq!(live.result_version, version, "stream stopped early");
        assert_eq!(
            folded, live.result,
            "folded stream diverges from the live view (seed {seed})"
        );
    }

    // Deregistration: streams close, further reads are typed errors.
    let victim = handles[0];
    let orphan = host.subscribe(victim).expect("still live");
    host.deregister(victim).expect("still live");
    assert!(matches!(orphan.try_recv(), Some(SubEvent::Closed)));
    // Closed is sticky — every subsequent poll keeps saying so.
    assert!(matches!(orphan.try_recv(), Some(SubEvent::Closed)));
    assert!(host.read_view(victim).is_err());
    assert!(host.subscribe(victim).is_err());
    // The survivors still serve.
    let survivor = handles[1];
    assert!(host.read_view(survivor).is_ok());
}

#[test]
fn service_readers_only_observe_committed_epochs() {
    let readers = env_or("STRESS_READERS", 4);
    let ticks = env_or("STRESS_TICKS", 10);
    let (graph, interner) = stress_graph(42, 600);
    let service = GpnmService::builder()
        .backend(BackendKind::Sparse)
        .build(graph)
        .expect("sparse is never refused");
    stress_host(service, &interner, 42, readers, ticks);
}

/// Same harness over the out-of-core paged backend with a deliberately
/// tiny hot-row cache: two refresh lanes share the locked cache, so every
/// tick's repairs force racing promotions and clock evictions *while* the
/// epoch-swap publication is exercised — the end-to-end check of the
/// paged store's read path.
#[test]
fn paged_backend_readers_only_observe_committed_epochs() {
    let readers = env_or("STRESS_READERS", 4);
    let ticks = env_or("STRESS_TICKS", 10);
    let (graph, interner) = stress_graph(44, 600);
    let service = GpnmService::builder()
        .backend(BackendKind::Paged)
        .cache_budget_mb(0.25)
        .refresh_threads(2)
        .build(graph)
        .expect("paged accepts any graph");
    stress_host(service, &interner, 44, readers, ticks);
}

#[test]
fn cluster_readers_only_observe_committed_epochs() {
    let readers = env_or("STRESS_READERS", 4);
    let ticks = env_or("STRESS_TICKS", 10);
    let (graph, interner) = stress_graph(43, 600);
    let cluster = GpnmCluster::builder()
        .shards(4)
        .backend(BackendKind::Sparse)
        .refresh_threads(2)
        .build(graph)
        .expect("sparse is never refused");
    stress_host(cluster, &interner, 43, readers, ticks);
}

/// Typed-error surface: reads through an unknown handle are
/// `UnknownHandle` on both hosts, and a shard replica inside a cluster
/// (built with `publishing(false)`) refuses direct front-end reads with
/// `ReadFrontDisabled` instead of serving stale views.
#[test]
fn unknown_and_disabled_handles_are_typed_errors() {
    let (graph, interner) = stress_graph(7, 64);
    let pattern = generate_pattern(
        &PatternConfig {
            nodes: 3,
            edges: 3,
            bound_range: (1, 2),
            seed: 7,
        },
        &interner,
    );

    let mut service = GpnmService::builder().build(graph.clone()).unwrap();
    let sh = service
        .register_pattern(pattern.clone(), MatchSemantics::Simulation)
        .unwrap();
    service.deregister(sh).unwrap();
    assert!(matches!(
        service.read_view(sh),
        Err(ServiceError::UnknownHandle(h)) if h == sh
    ));
    assert!(matches!(
        service.subscribe(sh),
        Err(ServiceError::UnknownHandle(_))
    ));

    let mut cluster = GpnmCluster::builder().shards(2).build(graph).unwrap();
    let ch = cluster
        .register_pattern(pattern, MatchSemantics::Simulation)
        .unwrap();
    // The shard replica does not publish its own front — reads go through
    // the cluster so a tick's views swap atomically across shards.
    let shard = &cluster.shards()[cluster.shard_of(ch).unwrap()];
    let inner = shard.handles()[0];
    assert!(!shard.publishing());
    assert!(matches!(
        shard.read_view(inner),
        Err(ServiceError::ReadFrontDisabled)
    ));
    assert!(cluster.read_view(ch).is_ok());
    cluster.deregister(ch).unwrap();
    assert!(matches!(
        cluster.read_view(ch),
        Err(ClusterError::UnknownHandle(h)) if h == ch
    ));
    assert!(matches!(
        cluster.subscribe(ch),
        Err(ClusterError::UnknownHandle(_))
    ));
}

proptest! {
    // Each case runs the full harness twice (service + 2-shard cluster);
    // 4 cases keeps the default run in seconds while PROPTEST_CASES
    // scales it up in the CI concurrency-stress job.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn any_seed_commits_only_whole_epochs(seed in any::<u64>()) {
        let (graph, interner) = stress_graph(seed, 200);
        let service = GpnmService::builder()
            .backend(BackendKind::Sparse)
            .build(graph.clone())
            .expect("sparse is never refused");
        stress_host(service, &interner, seed, 2, 4);

        let cluster = GpnmCluster::builder()
            .shards(2)
            .backend(BackendKind::Sparse)
            .build(graph)
            .expect("sparse is never refused");
        stress_host(cluster, &interner, seed, 2, 4);
    }
}
