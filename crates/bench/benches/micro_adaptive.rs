//! PR-8 adaptive microbench: the online controller (`adaptive(true)`)
//! vs each fixed refresh strategy on a **phase-shifting** tick stream
//! where no fixed choice wins throughout.
//!
//! The stream alternates two regimes over the same 1.5k-node social
//! graph, k = 6 standing patterns:
//!
//! * **trickle** phases — single-update balanced ticks (insert one
//!   triadic closure, delete it back). Repair passes are proportional to
//!   the batch, so the eliminative and per-update arms cost one verify
//!   pass while `Scratch` re-pays the full match every tick.
//! * **churn** phases — 300-update balanced ticks. Per-update refresh
//!   runs one verify pass per committed update and collapses; a single
//!   re-match is now the cheap arm.
//!
//! A fixed strategy is therefore wrong in at least one phase, and the
//! controller — predicting each arm's cost from the tick's known
//! features (updates, survivors) before refreshing — must flip at the
//! phase boundaries to stay near the per-phase best. The first phase is
//! a calibration segment (the controller seeds its three cost arms
//! there) and is excluded from the per-phase criterion.
//!
//! Before timing anything, the full stream runs through all four
//! deployments and every tick's per-pattern delta is asserted bitwise
//! equal — `deltas_bitwise_equal` in the emitted JSON is an *assertion*,
//! not an observation. The stream is then replayed 12 times through
//! every deployment, one pass each in turn, and a phase's time is its
//! fastest pass. The acceptance booleans
//! (`adaptive_within_10pct_of_best_per_phase` over the measured phases,
//! `adaptive_1_5x_faster_than_worst` end-to-end) are hard asserts unless
//! `MICRO_ADAPTIVE_SMOKE=1`.
//!
//! Set `MICRO_ADAPTIVE_JSON=<path>` to write machine-readable numbers
//! (CI uploads this as `BENCH_pr8.ci.json`; the checked-in
//! `BENCH_pr8.json` is a full non-smoke run).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use gpnm_distance::{AnyBackend, BackendKind};
use gpnm_engine::RefreshStrategy;
use gpnm_graph::{Bound, DataGraph, Label, NodeId, PatternGraph};
use gpnm_matcher::MatchSemantics;
use gpnm_service::{GpnmService, PatternHandle, TickOutcome};
use gpnm_updates::{DataUpdate, UpdateBatch};
use gpnm_workload::{generate_social_graph, SocialGraphConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PATTERNS: usize = 6;
const TRICKLE_EDGES: usize = 1;
const CHURN_EDGES: usize = 300;
const TRICKLE_CYCLES: usize = 3;
const CHURN_CYCLES: usize = 2;

fn setup_graph() -> (DataGraph, gpnm_graph::LabelInterner) {
    generate_social_graph(&SocialGraphConfig {
        nodes: 1500,
        edges: 2200,
        labels: 40,
        communities: 40,
        label_coherence: 0.95,
        intra_community_bias: 0.95,
        seed: 0x9212,
    })
}

/// A 6-node weakly-connected pattern with bounds 1–3 over the full label
/// alphabet.
fn bench_pattern(seed: u64, labels: &[Label]) -> PatternGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = PatternGraph::new();
    let nodes: Vec<_> = (0..6)
        .map(|_| p.add_node(labels[rng.gen_range(0..labels.len())]))
        .collect();
    for i in 1..nodes.len() {
        let j = rng.gen_range(0..i);
        let b = Bound::Hops(rng.gen_range(1..=3));
        p.add_edge(nodes[j], nodes[i], b).expect("backbone fresh");
    }
    let mut attempts = 0;
    while p.edge_count() < 6 && attempts < 100 {
        attempts += 1;
        let a = nodes[rng.gen_range(0..nodes.len())];
        let b = nodes[rng.gen_range(0..nodes.len())];
        if a != b {
            let bd = Bound::Hops(rng.gen_range(1..=3));
            let _ = p.add_edge(a, b, bd);
        }
    }
    p
}

fn patterns(interner: &gpnm_graph::LabelInterner) -> Vec<PatternGraph> {
    let labels: Vec<Label> = interner.iter().map(|(l, _)| l).collect();
    (0..PATTERNS)
        .map(|i| bench_pattern(0x9212 + i as u64, &labels))
        .collect()
}

fn smoke() -> bool {
    std::env::var("MICRO_ADAPTIVE_SMOKE")
        .map(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"))
        .unwrap_or(false)
}

/// Triadic-closure insert candidates (the dominant social-update shape).
fn insert_picks(graph: &DataGraph, count: usize) -> Vec<(NodeId, NodeId)> {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let mut picks = Vec::with_capacity(count);
    let mut i = 1usize;
    while picks.len() < count && i <= nodes.len() * 8 {
        let u = nodes[(i * 7919) % nodes.len()];
        i += 1;
        for &w in graph.out_neighbors(u) {
            if let Some(&v) = graph.out_neighbors(w).first() {
                if u != v && !graph.has_edge(u, v) && !picks.contains(&(u, v)) {
                    picks.push((u, v));
                    break;
                }
            }
        }
    }
    assert_eq!(picks.len(), count, "too few triadic closures for the bench");
    picks
}

/// The balanced tick pair: insert the picks, then delete them back.
fn tick_batches(picks: &[(NodeId, NodeId)]) -> (UpdateBatch, UpdateBatch) {
    let mut fwd = UpdateBatch::new();
    let mut back = UpdateBatch::new();
    for &(u, v) in picks {
        fwd.push(DataUpdate::InsertEdge { from: u, to: v });
        back.push(DataUpdate::DeleteEdge { from: u, to: v });
    }
    (fwd, back)
}

struct Phase {
    name: &'static str,
    /// Calibration segment: the controller seeds its cost arms here, so
    /// the per-phase 10% criterion skips it.
    excluded: bool,
    ticks: Vec<UpdateBatch>,
}

/// The phase-shifting stream. Every phase is balanced (its ticks return
/// the graph to the baseline), so the stream can repeat and every
/// deployment walks the same trajectory.
fn build_phases(graph: &DataGraph) -> Vec<Phase> {
    let picks = insert_picks(graph, TRICKLE_EDGES + CHURN_EDGES);
    let (trickle_picks, churn_picks) = picks.split_at(TRICKLE_EDGES);
    let (tf, tb) = tick_batches(trickle_picks);
    let (cf, cb) = tick_batches(churn_picks);
    let cycle = |f: &UpdateBatch, b: &UpdateBatch, n: usize| {
        let mut ticks = Vec::with_capacity(n * 2);
        for _ in 0..n {
            ticks.push(f.clone());
            ticks.push(b.clone());
        }
        ticks
    };
    vec![
        Phase {
            name: "calibrate",
            excluded: true,
            ticks: vec![
                tf.clone(),
                tb.clone(),
                cf.clone(),
                cb.clone(),
                tf.clone(),
                tb.clone(),
            ],
        },
        Phase {
            name: "trickle",
            excluded: false,
            ticks: cycle(&tf, &tb, TRICKLE_CYCLES),
        },
        Phase {
            name: "churn",
            excluded: false,
            ticks: cycle(&cf, &cb, CHURN_CYCLES),
        },
        Phase {
            name: "trickle_return",
            excluded: false,
            ticks: cycle(&tf, &tb, TRICKLE_CYCLES),
        },
        Phase {
            name: "churn_return",
            excluded: false,
            ticks: cycle(&cf, &cb, CHURN_CYCLES),
        },
    ]
}

struct Deployment {
    name: &'static str,
    svc: GpnmService<AnyBackend>,
    handles: Vec<PatternHandle>,
}

/// One service hosting the k patterns: either pinned to a fixed refresh
/// strategy or driven by the online controller.
fn deployment(
    graph: &DataGraph,
    pats: &[PatternGraph],
    fixed: Option<RefreshStrategy>,
) -> Deployment {
    let mut svc = GpnmService::builder()
        .backend(BackendKind::Sparse)
        .adaptive(fixed.is_none())
        .build(graph.clone())
        .expect("sparse never refused");
    let mut handles = Vec::with_capacity(pats.len());
    for p in pats {
        handles.push(
            svc.register_pattern(p.clone(), MatchSemantics::Simulation)
                .expect("non-empty pattern"),
        );
    }
    if let Some(s) = fixed {
        for &h in &handles {
            svc.set_refresh_strategy(h, s).expect("registered");
        }
    }
    Deployment {
        name: fixed.map_or("adaptive", |s| s.name()),
        svc,
        handles,
    }
}

/// All four deployments over the same graph and patterns — index 0 is the
/// adaptive one, 1.. are the fixed arms in `RefreshStrategy::ALL` order.
fn deployments(graph: &DataGraph, pats: &[PatternGraph]) -> Vec<Deployment> {
    let mut deps = vec![deployment(graph, pats, None)];
    for s in RefreshStrategy::ALL {
        deps.push(deployment(graph, pats, Some(s)));
    }
    deps
}

/// Run the full stream through every deployment once, asserting every
/// tick's per-pattern delta (and standing result) bitwise equal across
/// all of them. Returns the adaptive deployment's chosen strategy for
/// pattern 0 at the end of each phase — the controller's trace.
fn assert_bitwise_equal(deps: &mut [Deployment], phases: &[Phase]) -> Vec<&'static str> {
    let mut trace = Vec::with_capacity(phases.len());
    for phase in phases {
        let mut choice = "?";
        for batch in &phase.ticks {
            let reports: Vec<_> = deps
                .iter_mut()
                .map(|d| d.svc.apply(batch).expect("valid tick"))
                .collect();
            if let Some(&(_, name)) = reports[0].stats.per_pattern_strategy.first() {
                choice = name;
            }
            for i in 1..deps.len() {
                for (j, (&h0, &hi)) in deps[0]
                    .handles
                    .iter()
                    .zip(deps[i].handles.iter())
                    .enumerate()
                {
                    let d0 = reports[0].delta_for(h0).expect("handle in report");
                    let di = reports[i].delta_for(hi).expect("handle in report");
                    assert_eq!(
                        (&d0.added, &d0.removed, d0.result_version),
                        (&di.added, &di.removed, di.result_version),
                        "phase {} pattern {j}: {} delta diverged from adaptive",
                        phase.name,
                        deps[i].name,
                    );
                    assert_eq!(
                        deps[0].svc.result(h0).expect("registered"),
                        deps[i].svc.result(hi).expect("registered"),
                        "phase {} pattern {j}: {} result diverged from adaptive",
                        phase.name,
                        deps[i].name,
                    );
                }
            }
        }
        trace.push(choice);
    }
    trace
}

/// Apply the whole stream once, keeping each phase's fastest wall time so
/// far. The stream repeats the same work every pass, so the fastest pass
/// is the one the box disturbed least — the same reading of a replay as
/// the benchmark of record's slots. Since the row-scan witness probe a
/// trickle phase is six ≈130 µs ticks: summed over a few passes, one slow
/// spell of the box moved it by more than the 10% the criterion allows.
fn run_stream(dep: &mut Deployment, phases: &[Phase], phase_ns: &mut [u128]) {
    for (pi, phase) in phases.iter().enumerate() {
        let t = Instant::now();
        for batch in &phase.ticks {
            std::hint::black_box(dep.svc.apply(batch).expect("valid tick"));
        }
        phase_ns[pi] = phase_ns[pi].min(t.elapsed().as_nanos());
    }
}

fn adaptive_vs_fixed(c: &mut Criterion) {
    let (graph, interner) = setup_graph();
    let pats = patterns(&interner);
    let phases = build_phases(&graph);
    let mut deps = deployments(&graph, &pats);
    assert_bitwise_equal(&mut deps, &phases);

    let mut group = c.benchmark_group("adaptive_stream_1p5k_k6");
    group.sample_size(10);
    if smoke() {
        group.measurement_time(Duration::from_millis(1));
    }
    for dep in &mut deps {
        let mut sink = vec![u128::MAX; phases.len()];
        group.bench_function(dep.name, |b| b.iter(|| run_stream(dep, &phases, &mut sink)));
    }
    group.finish();
}

/// Write `BENCH_pr8.json`-shaped numbers if `MICRO_ADAPTIVE_JSON` is set:
/// per-phase tick-stream cost for the adaptive controller vs each fixed
/// strategy, the equivalence assertion, and the acceptance booleans.
fn emit_json(c: &mut Criterion) {
    let _ = c;
    let Some(path) = std::env::var_os("MICRO_ADAPTIVE_JSON") else {
        return;
    };
    let path = {
        let given = std::path::PathBuf::from(&path);
        if given.is_absolute() {
            given
        } else {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(given)
        }
    };
    let iters: u32 = if smoke() { 1 } else { 12 };
    let (graph, interner) = setup_graph();
    let pats = patterns(&interner);
    let phases = build_phases(&graph);
    let mut deps = deployments(&graph, &pats);

    // Equivalence first — the timed workload is the proven-identical one.
    let trace = assert_bitwise_equal(&mut deps, &phases);

    let mut phase_ns: Vec<Vec<u128>> = vec![vec![u128::MAX; phases.len()]; deps.len()];
    for _ in 0..iters {
        for (di, dep) in deps.iter_mut().enumerate() {
            run_stream(dep, &phases, &mut phase_ns[di]);
        }
    }

    let totals: Vec<u128> = phase_ns
        .iter()
        .map(|per_phase| {
            phases
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.excluded)
                .map(|(pi, _)| per_phase[pi])
                .sum()
        })
        .collect();
    let adaptive_total = totals[0];
    let best_fixed_total = *totals[1..].iter().min().expect("three fixed arms");
    let worst_fixed_total = *totals[1..].iter().max().expect("three fixed arms");

    let mut within_10pct = true;
    let mut phase_rows = String::new();
    for (pi, phase) in phases.iter().enumerate() {
        let adaptive = phase_ns[0][pi];
        let best_fixed = (1..deps.len()).map(|di| phase_ns[di][pi]).min().unwrap();
        let ok = adaptive as f64 <= best_fixed as f64 * 1.10;
        if !phase.excluded {
            within_10pct &= ok;
        }
        let mut fixed_fields = String::new();
        for di in 1..deps.len() {
            fixed_fields.push_str(&format!(
                ", \"{}_ns\": {}",
                deps[di].name.to_lowercase().replace('-', "_"),
                phase_ns[di][pi]
            ));
        }
        if pi > 0 {
            phase_rows.push_str(",\n");
        }
        phase_rows.push_str(&format!(
            "    {{ \"phase\": \"{}\", \"ticks\": {}, \"excluded_from_criteria\": {}, \
             \"adaptive_ns\": {adaptive}{fixed_fields}, \"adaptive_choice_at_end\": \"{}\", \
             \"adaptive_within_10pct_of_best\": {ok} }}",
            phase.name,
            phase.ticks.len(),
            phase.excluded,
            trace[pi],
        ));
        eprintln!(
            "[micro_adaptive] {}: adaptive {adaptive} ns, best fixed {best_fixed} ns, \
             choice at end {} ({})",
            phase.name,
            trace[pi],
            if ok { "within 10%" } else { "OVER 10%" },
        );
    }

    let speedup_vs_worst = worst_fixed_total as f64 / adaptive_total.max(1) as f64;
    let beats_worst = speedup_vs_worst >= 1.5;
    let switches = deps[0].svc.strategy_switches();
    eprintln!(
        "[micro_adaptive] totals (measured phases): adaptive {adaptive_total} ns, best fixed \
         {best_fixed_total} ns, worst fixed {worst_fixed_total} ns ({speedup_vs_worst:.2}x vs \
         worst), {switches} switches",
    );
    if !smoke() {
        assert!(
            within_10pct,
            "adaptive exceeded 110% of the best fixed strategy in a measured phase"
        );
        assert!(
            beats_worst,
            "adaptive is only {speedup_vs_worst:.2}x faster than the worst fixed strategy \
             (needs 1.5x)"
        );
    }

    let mut fixed_totals = String::new();
    for di in 1..deps.len() {
        if di > 1 {
            fixed_totals.push_str(", ");
        }
        fixed_totals.push_str(&format!(
            "\"{}\": {}",
            deps[di].name.to_lowercase().replace('-', "_"),
            totals[di]
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"micro_adaptive\",\n  \"graph\": {{ \"nodes\": {}, \"edges\": {} \
         }},\n  \"patterns\": {PATTERNS},\n  \"backend\": \"sparse\",\n  \"workload\": \
         \"alternating trickle ({TRICKLE_EDGES}-update) and churn ({CHURN_EDGES}-update) \
         balanced ticks; calibrate phase excluded from criteria\",\n  \"iterations\": {iters},\n  \
         \"deltas_bitwise_equal\": true,\n  \"phases\": [\n{phase_rows}\n  ],\n  \
         \"adaptive_total_ns\": {adaptive_total},\n  \"fixed_totals_ns\": {{ {fixed_totals} \
         }},\n  \"strategy_switches\": {switches},\n  \
         \"adaptive_within_10pct_of_best_per_phase\": {within_10pct},\n  \
         \"speedup_vs_worst_fixed\": {speedup_vs_worst:.2},\n  \
         \"adaptive_1_5x_faster_than_worst\": {beats_worst}\n}}\n",
        graph.node_count(),
        graph.edge_count(),
    );
    std::fs::write(&path, json).expect("writing MICRO_ADAPTIVE_JSON");
    eprintln!("[micro_adaptive] wrote {}", path.to_string_lossy());
}

/// PR-10 companion to the micro_readpath guard: the adaptive tick stream
/// (spans, per-update events, strategy-decision events, metrics) with a
/// no-op subscriber installed vs telemetry fully disabled. Reported, not
/// asserted — the tick pipeline *is* instrumented, so the interesting
/// number is how much running the span/event calls costs when nobody
/// records them; the <2% hard guard lives on the uninstrumented read hot
/// path in micro_readpath.
fn telemetry_overhead(c: &mut Criterion) {
    let _ = c;
    let (graph, interner) = setup_graph();
    let pats = patterns(&interner);
    let phases = build_phases(&graph);
    let iters = if smoke() { 1 } else { 5 };

    let stream_ns = |label: &str| -> u128 {
        let mut dep = deployment(&graph, &pats, None);
        let mut sink = vec![u128::MAX; phases.len()];
        let mut best = u128::MAX;
        for _ in 0..iters {
            let t = Instant::now();
            run_stream(&mut dep, &phases, &mut sink);
            best = best.min(t.elapsed().as_nanos());
        }
        eprintln!("[micro_adaptive] stream ({label}): {best} ns");
        best
    };
    tracing::subscriber::replace_global_default(None);
    let disabled = stream_ns("telemetry disabled");
    let noop: std::sync::Arc<dyn tracing::Subscriber> =
        std::sync::Arc::new(gpnm_telemetry::NoopSubscriber::new());
    tracing::subscriber::replace_global_default(Some(noop));
    let with_noop = stream_ns("noop subscriber");
    tracing::subscriber::replace_global_default(None);
    eprintln!(
        "[micro_adaptive] noop-subscriber overhead on the adaptive stream: {:+.2}%",
        (with_noop as f64 - disabled as f64) / disabled as f64 * 100.0,
    );
}

criterion_group!(benches, adaptive_vs_fixed, emit_json, telemetry_overhead);
criterion_main!(benches);
