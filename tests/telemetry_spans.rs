//! Integration tests of the telemetry span tree: a cluster tick must
//! produce a correctly parented `cluster_tick → shard_tick → tick →
//! refresh → pattern_refresh` hierarchy even though the shard ticks run
//! on pool worker threads, and running with the subscriber removed must
//! record nothing at all.
//!
//! The global tracing subscriber is process state, so every test body
//! runs under one shared lock.

use std::sync::{Mutex, MutexGuard};

use ua_gpnm::distance::IoStats;
use ua_gpnm::prelude::*;
use ua_gpnm::telemetry::{install_collector, uninstall_collector, SpanData, Trace};
use ua_gpnm::workload::{
    generate_batch, generate_pattern, generate_social_graph, PatternConfig, SocialGraphConfig,
    UpdateProtocol,
};

static SUBSCRIBER_LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SUBSCRIBER_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn build_cluster(seed: u64) -> (GpnmCluster, ua_gpnm::graph::LabelInterner, PatternGraph) {
    let (graph, interner) = generate_social_graph(&SocialGraphConfig {
        nodes: 400,
        edges: 1600,
        labels: 8,
        communities: 8,
        seed,
        ..Default::default()
    });
    let mut cluster = GpnmCluster::builder()
        .shards(2)
        // Placement is round-robin: one pattern per shard.
        .build(graph)
        .expect("sparse is never refused");
    let mut first = None;
    for i in 0..2u64 {
        let pattern = generate_pattern(
            &PatternConfig {
                nodes: 4,
                edges: 4,
                bound_range: (1, 3),
                seed: seed + i,
            },
            &interner,
        );
        first.get_or_insert_with(|| pattern.clone());
        cluster
            .register_pattern(pattern, MatchSemantics::Simulation)
            .expect("registration succeeds");
    }
    (cluster, interner, first.expect("two patterns registered"))
}

fn tick_once(
    cluster: &mut GpnmCluster,
    interner: &ua_gpnm::graph::LabelInterner,
    pattern: &PatternGraph,
    seed: u64,
) {
    let protocol = UpdateProtocol::from_scale(0, 20);
    let batch = generate_batch(cluster.graph(), pattern, interner, &protocol, seed);
    cluster.apply(&batch).expect("pre-validated batch applies");
}

/// Walk `span`'s parent chain to the root, returning the names outermost
/// first.
fn ancestry(trace: &Trace, span: &SpanData) -> Vec<&'static str> {
    let mut names = vec![span.name];
    let mut parent = span.parent;
    while let Some(pid) = parent {
        let p = trace
            .spans
            .iter()
            .find(|s| s.id == pid)
            .expect("parent id recorded in the same trace");
        names.push(p.name);
        parent = p.parent;
    }
    names.reverse();
    names
}

#[test]
fn cluster_tick_spans_nest_across_the_pool_fanout() {
    let _guard = serialize();
    let (mut cluster, interner, pattern) = build_cluster(11);
    let collector = install_collector();
    tick_once(&mut cluster, &interner, &pattern, 99);
    uninstall_collector();
    let trace = collector.finish();

    let by_name =
        |name: &str| -> Vec<&SpanData> { trace.spans.iter().filter(|s| s.name == name).collect() };

    let roots = by_name("cluster_tick");
    assert_eq!(roots.len(), 1, "one tick → one cluster_tick root");
    assert_eq!(roots[0].parent, None, "cluster_tick is the root span");

    let shard_spans = by_name("shard_tick");
    assert_eq!(shard_spans.len(), 2, "one shard_tick per shard");
    for shard in &shard_spans {
        assert_eq!(
            shard.parent,
            Some(roots[0].id),
            "shard_tick parents to cluster_tick across the pool spawn"
        );
    }

    let ticks = by_name("tick");
    assert_eq!(ticks.len(), 2, "each shard replica runs one service tick");
    for tick in &ticks {
        let chain = ancestry(&trace, tick);
        assert_eq!(chain, ["cluster_tick", "shard_tick", "tick"]);
    }

    // Both registered patterns refresh; each pattern_refresh must chain
    // through its shard's refresh phase up to the cluster root, across
    // the pool thread its shard ticked on.
    let refreshes = by_name("pattern_refresh");
    assert_eq!(refreshes.len(), 2, "one pattern_refresh per pattern");
    for pr in &refreshes {
        let chain = ancestry(&trace, pr);
        assert_eq!(
            chain,
            [
                "cluster_tick",
                "shard_tick",
                "tick",
                "refresh",
                "pattern_refresh"
            ],
            "the shard's span chain must survive the pool fan-out"
        );
    }

    // Every span closed before the drain.
    for span in &trace.spans {
        assert!(span.dur_ns.is_some(), "span {} never exited", span.name);
    }
}

#[test]
fn removed_subscriber_records_nothing() {
    let _guard = serialize();
    let (mut cluster, interner, pattern) = build_cluster(23);

    // Sanity: with a collector installed the tick emits spans and events.
    let collector = install_collector();
    tick_once(&mut cluster, &interner, &pattern, 7);
    uninstall_collector();
    let active = collector.finish();
    assert!(!active.spans.is_empty());

    // With the subscriber removed the same pipeline must record nothing
    // anywhere: a collector installed *afterwards* starts empty, proving
    // the disabled path neither buffers nor leaks spans.
    tick_once(&mut cluster, &interner, &pattern, 8);
    let fresh = install_collector();
    uninstall_collector();
    let silent = fresh.finish();
    assert!(
        silent.spans.is_empty(),
        "disabled tick must record no spans"
    );
    assert!(
        silent.events.is_empty(),
        "disabled tick must record no events"
    );
}

/// Registration is traced and timed: each shard-side registration opens a
/// `register` span whose children are `rows` (the requirement sync) and
/// `match` (the initial match), and observes `gpnm_register_ns` once.
#[test]
fn registration_spans_split_row_sync_from_the_initial_match() {
    let _guard = serialize();
    let observed = || {
        let registry = ua_gpnm::telemetry::global();
        registry.histogram("gpnm_register_ns").count()
    };
    let before = observed();
    let collector = install_collector();
    let _ = build_cluster(17);
    uninstall_collector();
    let trace = collector.finish();
    assert_eq!(observed() - before, 2, "one observation per registration");

    let registers: Vec<&SpanData> = trace
        .spans
        .iter()
        .filter(|s| s.name == "register")
        .collect();
    assert_eq!(registers.len(), 2, "one register span per registration");
    for register in &registers {
        assert_eq!(register.parent, None);
        let children: Vec<&str> = trace
            .spans
            .iter()
            .filter(|s| s.parent == Some(register.id))
            .map(|s| s.name)
            .collect();
        assert_eq!(children, ["rows", "match"]);
    }
}

/// The index gauges of a cluster are its totals: the shards tick on pool
/// threads in any order, so none of them may write its own share.
#[test]
fn cluster_index_gauges_are_the_totals_over_shards() {
    let _guard = serialize();
    let (mut cluster, interner, pattern) = build_cluster(11);
    tick_once(&mut cluster, &interner, &pattern, 31);
    for shard in cluster.shards() {
        let rows = shard.backend().resident_rows();
        assert!(rows > 0, "the fixture puts a pattern on each shard");
        assert!(rows < cluster.total_resident_rows());
    }
    let registry = ua_gpnm::telemetry::global();
    assert_eq!(
        registry.gauge("gpnm_index_resident_rows").get(),
        cluster.total_resident_rows() as f64
    );
    assert_eq!(
        registry.gauge("gpnm_index_mem_bytes").get(),
        cluster.total_index_bytes() as f64
    );
}

/// The `match_graph` fallback of a repair is visible from the system's own
/// output. A standing query with no match is *carried* into the hosts'
/// refresh step without its withheld relation (a reader's `visible()`
/// copy): the first refresh has nothing to repair and re-matches — one
/// `repair_rematch` event — and every later refresh repairs the relation
/// that re-match kept, so it stays silent. A service never carries a
/// result in: every registration matches, so its own session of the query
/// always has a relation to repair.
#[test]
fn repair_rematch_fallback_is_reported_then_stays_silent() {
    use ua_gpnm::engine::pipeline::{commit_data_update, plan_for_data_update, refresh_pattern};
    use ua_gpnm::matcher::RepairPlan;

    let _guard = serialize();
    let (graph, interner) = generate_social_graph(&SocialGraphConfig {
        nodes: 200,
        edges: 800,
        labels: 4,
        communities: 4,
        seed: 5,
        ..Default::default()
    });
    // A pattern node whose label no data node carries: never matches.
    let mut interner = interner;
    let ghost = interner.intern("NoSuchLabel");
    let mut pattern = generate_pattern(
        &PatternConfig {
            nodes: 3,
            edges: 3,
            bound_range: (1, 2),
            seed: 5,
        },
        &interner,
    );
    pattern.add_node(ghost);

    let mut service = GpnmService::builder().build(graph.clone()).unwrap();
    let h = service
        .register_pattern(pattern.clone(), MatchSemantics::Simulation)
        .unwrap();
    let mut carried = service.result(h).unwrap().visible();
    assert!(carried.is_empty());
    // The carried copy's own replica, refreshed by hand the way a host
    // refreshes a session.
    let mut replica = graph;
    let mut index = AnyBackend::build(&replica, &SlenRequirements::of_pattern(&pattern));

    let mut rematches = Vec::new();
    let mut rematch_events = Vec::new();
    for tick in 0..3usize {
        // Edge churn only: no inserted node can carry the ghost label.
        let nodes: Vec<_> = service.graph().nodes().collect();
        let mut batch = UpdateBatch::new();
        for (&from, &to) in nodes.iter().zip(nodes.iter().skip(7 + tick)).take(6) {
            batch.push(if service.graph().has_edge(from, to) {
                DataUpdate::DeleteEdge { from, to }
            } else {
                DataUpdate::InsertEdge { from, to }
            });
        }
        service.apply(&batch).expect("generated batch applies");
        assert!(service.result(h).unwrap().is_empty());

        // One plan folded over the batch, as a host folds it.
        let mut plan = RepairPlan::new();
        for u in batch.updates() {
            let Update::Data(du) = u else {
                unreachable!("a data batch")
            };
            let cu = commit_data_update(&mut replica, &mut index, du).expect("valid update");
            plan.merge(&plan_for_data_update(
                du, &cu.delta, &pattern, &replica, &carried, cu.created,
            ));
        }
        let collector = install_collector();
        let (verify, gains) = (&plan.verify, &plan.gains);
        let stats = refresh_pattern(&pattern, &replica, &index, &mut carried, verify, gains);
        uninstall_collector();
        let trace = collector.finish();
        rematches.push(stats.rematched);
        rematch_events.push(
            trace
                .events
                .iter()
                .filter(|e| e.name == "repair_rematch")
                .count(),
        );
        assert!(carried.is_empty());
        assert!(
            carried.relation_eq(service.result(h).unwrap()),
            "tick {tick}: the refreshed copy stands for the service's relation"
        );
    }
    assert_eq!(rematches, [true, false, false]);
    assert_eq!(rematch_events, [1, 0, 0]);
}

/// Where a tick's `SLen` repair went is readable from the system's own
/// output: every TRACE `engine_commit` event carries its `kind` and the
/// repair's `repair_ns`; the tick's stats split `shared_repair` by kind;
/// and `gpnm_slen_repair_seconds{kind=…}` grows by exactly that split.
#[test]
fn commit_time_is_reported_by_update_kind() {
    let _guard = serialize();
    let (graph, _) = generate_social_graph(&SocialGraphConfig {
        nodes: 200,
        edges: 800,
        labels: 4,
        communities: 4,
        seed: 9,
        ..Default::default()
    });
    let mut service = GpnmService::builder().build(graph).unwrap();
    let nodes: Vec<_> = service.graph().nodes().collect();
    let (from, to) = service.graph().edges().next().expect("800 edges");
    let fresh = nodes.iter().zip(&nodes[9..]);
    let (&a, &b) = { fresh }
        .find(|&(&a, &b)| !service.graph().has_edge(a, b))
        .expect("a sparse graph has a missing pair");
    let label = service.graph().label(a).expect("live node");
    let mut batch = UpdateBatch::new();
    batch.push(DataUpdate::InsertEdge { from: a, to: b });
    batch.push(DataUpdate::DeleteEdge { from, to });
    batch.push(DataUpdate::InsertNode { label });
    batch.push(DataUpdate::DeleteNode { node: nodes[5] });

    let kinds = ["insert_edge", "delete_edge", "insert_node", "delete_node"];
    let seconds = |kind| {
        let registry = ua_gpnm::telemetry::global();
        let gauge = registry.gauge_with("gpnm_slen_repair_seconds", &[("kind", kind)]);
        gauge.get()
    };
    let before = kinds.map(seconds);
    let collector = install_collector();
    let report = service.apply(&batch).expect("valid batch");
    uninstall_collector();
    let trace = collector.finish();

    let commits = trace.events.iter().filter(|e| e.name == "engine_commit");
    let commits: Vec<_> = commits
        .map(|e| {
            let field = |key| e.fields.iter().find(|f| f.0 == key).map(|f| f.1.to_json());
            let repair_ns = field("repair_ns").expect("repair_ns on the event");
            assert!(repair_ns.parse::<u64>().is_ok(), "{repair_ns}");
            field("kind").expect("kind on the event")
        })
        .collect();
    assert_eq!(commits, kinds.map(|k| format!("\"{k}\"")));

    let by_kind = &report.stats.shared_repair_by_kind_ns;
    assert_eq!(by_kind.iter().map(|e| e.0).collect::<Vec<_>>(), kinds);
    let total: u64 = by_kind.iter().map(|e| e.1).sum();
    assert_eq!(total, report.stats.shared_repair_ns);
    for ((kind, ns), before) in by_kind.iter().zip(before) {
        let grew = seconds(kind) - before;
        assert!(
            (grew - *ns as f64 / 1e9).abs() < 1e-9,
            "{kind}: {grew} vs {ns} ns"
        );
    }
    let rendered = report.stats.render();
    assert!(rendered.contains(" [insert_edge="), "{rendered}");
    assert!(rendered.contains(" delete_node="), "{rendered}");
    assert!(report
        .stats
        .to_json()
        .contains("\"shared_repair_by_kind_ns\":{\"insert_edge\":"));
}

/// One tick, one record: what a tick flushes into the metrics registry is
/// exactly what its report carries — the total once, each phase once,
/// each counter once — and the five phases do not overlap. One sparse
/// tick and one paged tick (a cache small enough that the tick pages).
#[test]
fn registry_deltas_equal_the_tick_report() {
    let _guard = serialize();
    let registry = ua_gpnm::telemetry::global();
    let histogram = |name: &str| registry.histogram(name).sum();
    let counter = |name: &str| registry.counter(name).get();
    let phases = ["reduce", "commit", "plan", "refresh", "publish"];
    let series = |name: &str| format!("gpnm_tick_{name}_ns");
    let counters = [
        "gpnm_repair_calls_total",
        "gpnm_affected_nodes_total",
        "gpnm_updates_applied_total",
        "gpnm_paged_cache_hits_total",
        "gpnm_paged_cache_misses_total",
        "gpnm_paged_cache_evictions_total",
        "gpnm_paged_pages_read_total",
        "gpnm_paged_pages_written_total",
    ];
    for (kind, cache_mb) in [
        (BackendKind::Sparse, None),
        (BackendKind::Paged, Some(0.02)),
    ] {
        let (graph, interner) = generate_social_graph(&SocialGraphConfig {
            nodes: 300,
            edges: 1200,
            labels: 4,
            communities: 4,
            seed: 17,
            ..Default::default()
        });
        let mut builder = GpnmService::builder().backend(kind);
        if let Some(mb) = cache_mb {
            builder = builder.cache_budget_mb(mb);
        }
        let mut service = builder
            .build(graph)
            .expect("bounded rows are never refused");
        let pattern = generate_pattern(
            &PatternConfig {
                nodes: 4,
                edges: 4,
                bound_range: (1, 3),
                seed: 17,
            },
            &interner,
        );
        service
            .register_pattern(pattern.clone(), MatchSemantics::Simulation)
            .expect("registration succeeds");
        let protocol = UpdateProtocol::from_scale(0, 30);
        let batch = generate_batch(service.graph(), &pattern, &interner, &protocol, 3);

        let total_before = histogram("gpnm_tick_total_ns");
        let phases_before = phases.map(|p| histogram(&series(p)));
        let counters_before = counters.map(counter);
        let report = service.apply(&batch).expect("generated batch applies");
        let stats = &report.stats;

        let total = u64::try_from(report.total_time.as_nanos()).unwrap();
        assert_eq!(histogram("gpnm_tick_total_ns") - total_before, total);
        let phase_ns = [
            stats.reduce_ns,
            stats.shared_repair_ns,
            stats.plan_ns,
            stats.refresh_ns,
            stats.publish_ns,
        ];
        for ((phase, before), ns) in phases.iter().zip(phases_before).zip(phase_ns) {
            assert_eq!(histogram(&series(phase)) - before, ns, "{phase}");
        }
        assert!(
            phase_ns.iter().sum::<u64>() <= total,
            "{kind}: phases {phase_ns:?} overlap a {total} ns tick"
        );

        let io = match kind {
            BackendKind::Paged => stats.io.expect("the paged backend reports its IO"),
            _ => {
                assert!(stats.io.is_none(), "in-memory rows do no IO");
                IoStats::default()
            }
        };
        assert!(
            kind != BackendKind::Paged || io.pages_read + io.pages_written > 0,
            "the tiny cache pages"
        );
        let expected = [
            report.repair_calls as u64,
            stats.affected_nodes as u64,
            report.updates_applied as u64,
            io.cache_hits,
            io.cache_misses,
            io.cache_evictions,
            io.pages_read,
            io.pages_written,
        ];
        for ((name, before), want) in counters.iter().zip(counters_before).zip(expected) {
            assert_eq!(counter(name) - before, want, "{kind}: {name}");
        }
        assert!(report.updates_applied > 0 && stats.repair_calls > 0);
    }
}
