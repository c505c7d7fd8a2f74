//! PR-6 read-path microbench: the epoch-swapped concurrent read
//! front-end vs the exclusive-access deployment it replaces, k = 8
//! standing patterns on the 2k-node micro graph.
//!
//! Without the front-end, concurrent readers must serialize against the
//! writer on one big lock — a `Mutex<GpnmService>` — so every read
//! blocks while a tick holds the service. The front-end publishes each
//! pattern's `ReadView` behind an epoch-swapped double buffer:
//! `read_view` is `&self`, lock-free on the hot path, and always returns
//! the last committed epoch, so readers keep making progress *while
//! ticks are running*. That claim is the number this bench records.
//!
//! The measured matrix: {0, 4, 16} reader threads snapshotting every
//! handle while the writer streams balanced tick cycles (insert 8
//! triadic-closure edges, delete them back), once against the front-end
//! and once against the `Mutex` baseline, with the same reader op on
//! both sides (observe the pattern's `(result_version, tick)` identity).
//! Reported per cell:
//!
//! * `writer_cycle_ns` — the writer's time per cycle (do readers stall
//!   ticks?);
//! * `reader_views_per_sec` — aggregate snapshot rate over each reader's
//!   own live window;
//! * `during_tick_views_per_sec` — the headline: snapshot rate counting
//!   only reads completed while a tick was in flight. Front readers keep
//!   reading (the writer never takes a lock they can hit); `Mutex`
//!   readers drop to ~0 because they sleep until the tick commits.
//!
//! Wall-clock throughput on an oversubscribed box mixes in scheduler
//! noise (reader threads time-share with the writer and its pool lanes),
//! so the JSON also records `available_parallelism` — read the during-
//! tick rate as the collapse indicator, not the absolute views/sec.
//!
//! Set `MICRO_READPATH_JSON=<path>` to write machine-readable numbers
//! (CI uploads this as `BENCH_pr6.json`); set `MICRO_READPATH_SMOKE=1`
//! to shrink criterion and JSON budgets to roughly a single iteration.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use gpnm_distance::{AnyBackend, BackendKind};
use gpnm_graph::{Bound, DataGraph, Label, NodeId, PatternGraph};
use gpnm_matcher::MatchSemantics;
use gpnm_service::{GpnmService, PatternHandle};
use gpnm_updates::{DataUpdate, UpdateBatch};
use gpnm_workload::{generate_social_graph, SocialGraphConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PATTERNS: usize = 8;
const EDGES_PER_TICK: usize = 8;
const READER_COUNTS: [usize; 3] = [0, 4, 16];

/// The micro_backend/micro_service 2k-node sparse social graph.
fn setup_graph() -> (DataGraph, gpnm_graph::LabelInterner) {
    generate_social_graph(&SocialGraphConfig {
        nodes: 2000,
        edges: 3000,
        labels: 50,
        communities: 50,
        label_coherence: 0.95,
        intra_community_bias: 0.95,
        seed: 0x9212,
    })
}

/// A 6-node weakly-connected pattern over the whole label alphabet,
/// bounds 1–3 (the micro_service mix).
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
    p
}

fn smoke() -> bool {
    std::env::var("MICRO_READPATH_SMOKE")
        .map(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"))
        .unwrap_or(false)
}

/// Triadic-closure insert candidates (the dominant social-update shape).
fn insert_picks(graph: &DataGraph, count: usize) -> Vec<(NodeId, NodeId)> {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let mut picks = Vec::with_capacity(count);
    let mut i = 1usize;
    while picks.len() < count && i <= nodes.len() * 4 {
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

struct ServiceUnderTest {
    service: GpnmService<AnyBackend>,
    handles: Vec<PatternHandle>,
}

fn service(graph: &DataGraph, interner: &gpnm_graph::LabelInterner) -> ServiceUnderTest {
    let labels: Vec<Label> = interner.iter().map(|(l, _)| l).collect();
    let mut svc = GpnmService::builder()
        .backend(BackendKind::Sparse)
        .build(graph.clone())
        .expect("sparse never refused");
    let handles: Vec<PatternHandle> = (0..PATTERNS)
        .map(|i| {
            svc.register_pattern(
                bench_pattern(0x9212 + i as u64, &labels),
                MatchSemantics::Simulation,
            )
            .expect("non-empty pattern")
        })
        .collect();
    ServiceUnderTest {
        service: svc,
        handles,
    }
}

/// One measured cell: writer cost per balanced cycle, the readers'
/// aggregate snapshot rate, and the rate of snapshots completed while a
/// tick was in flight.
struct Cell {
    writer_cycle_ns: u128,
    reader_views_per_sec: f64,
    during_tick_views_per_sec: f64,
    reader_views_total: u64,
    during_tick_views_total: u64,
}

/// Run `cycles` balanced tick cycles with `readers` concurrent reader
/// threads. `read(r)` is one snapshot taken by reader `r`. `cycle(flag)`
/// is the writer's unit of work; it must raise `flag` exactly while the
/// tick is genuinely in flight (for the `Mutex` baseline: while the lock
/// is *held*, not while the writer waits for it) and return that
/// in-flight duration, so readers can attribute each completed snapshot
/// to tick-time or idle-time.
fn measure<R, W>(readers: usize, cycles: u32, read: R, mut cycle: W) -> Cell
where
    R: Fn(usize) -> u64 + Sync,
    W: FnMut(&AtomicBool) -> Duration,
{
    let stop = AtomicBool::new(false);
    let in_tick = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..readers)
            .map(|r| {
                let stop = &stop;
                let in_tick = &in_tick;
                let read = &read;
                scope.spawn(move || {
                    let start = Instant::now();
                    let mut views = 0u64;
                    let mut during = 0u64;
                    let mut sink = 0u64;
                    loop {
                        sink = sink.wrapping_add(read(r));
                        views += 1;
                        // Attributed *after* the read completes: a Mutex
                        // reader that slept through the whole tick wakes
                        // to a cleared flag and counts as idle-time.
                        // RELAXED: lossy attribution flag — a stale read
                        // misclassifies one sample, it breaks nothing.
                        if in_tick.load(Ordering::Relaxed) {
                            during += 1;
                        }
                        if stop.load(Ordering::Acquire) {
                            std::hint::black_box(sink);
                            return (views, during, start.elapsed());
                        }
                        // Real readers do work between snapshots; an
                        // occasional yield keeps a small box from
                        // starving the writer outright.
                        if views % 1024 == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();

        std::hint::black_box(cycle(&in_tick)); // warm
                                               // RELAXED: see the reader side — attribution flag, lossy by design.
        in_tick.store(false, Ordering::Relaxed);
        let start = Instant::now();
        let mut tick_time = Duration::ZERO;
        for _ in 0..cycles {
            tick_time += cycle(&in_tick);
            // A slice of idle time between ticks, as in a real serving
            // loop — this is where Mutex readers catch up.
            std::thread::yield_now();
        }
        let writer_cycle_ns = start.elapsed().as_nanos() / u128::from(cycles.max(1));
        stop.store(true, Ordering::Release);

        let mut rate = 0.0;
        let mut total = 0u64;
        let mut during_total = 0u64;
        for t in threads {
            let (views, during, elapsed) = t.join().expect("reader thread");
            rate += views as f64 / elapsed.as_secs_f64().max(1e-9);
            total += views;
            during_total += during;
        }
        Cell {
            writer_cycle_ns,
            reader_views_per_sec: rate,
            during_tick_views_per_sec: during_total as f64 / tick_time.as_secs_f64().max(1e-9),
            reader_views_total: total,
            during_tick_views_total: during_total,
        }
    })
}

/// Front-end mode: readers snapshot lock-free pinned views while the
/// writer ticks the service directly.
fn run_front(
    sut: &mut ServiceUnderTest,
    fwd: &UpdateBatch,
    back: &UpdateBatch,
    readers: usize,
    cycles: u32,
) -> Cell {
    let front = sut.service.reader();
    let pinned: Vec<_> = sut
        .handles
        .iter()
        .map(|&h| front.pinned(h).expect("registered"))
        .collect();
    let svc = &mut sut.service;
    measure(
        readers,
        cycles,
        |r| {
            let view = pinned[r % pinned.len()].view();
            view.result_version ^ view.tick
        },
        move |in_tick| {
            // RELAXED: attribution flag, lossy by design (see the reader).
            in_tick.store(true, Ordering::Relaxed);
            let start = Instant::now();
            let a = svc.apply(fwd).expect("valid tick");
            let b = svc.apply(back).expect("valid tick");
            std::hint::black_box(a.slen_changes + b.slen_changes);
            let elapsed = start.elapsed();
            // RELAXED: attribution flag, lossy by design.
            in_tick.store(false, Ordering::Relaxed);
            elapsed
        },
    )
}

/// Exclusive-access baseline: the deployment without a front-end — one
/// `Mutex<GpnmService>` that readers and the ticking writer all take.
/// The reader op observes the same `(result_version, tick)` identity as
/// the front-end reader.
fn run_exclusive(
    sut: ServiceUnderTest,
    fwd: &UpdateBatch,
    back: &UpdateBatch,
    readers: usize,
    cycles: u32,
) -> (ServiceUnderTest, Cell) {
    let handles = sut.handles.clone();
    let locked = Mutex::new(sut);
    let cell = measure(
        readers,
        cycles,
        |r| {
            let guard = locked.lock().expect("bench threads don't panic");
            let h = handles[r % handles.len()];
            let version = guard.service.result_version(h).expect("registered");
            version ^ guard.service.tick()
        },
        |in_tick| {
            // The in-flight window opens once the lock is *held* — the
            // writer queueing behind readers is starvation, not a tick.
            let mut guard = locked.lock().expect("bench threads don't panic");
            // RELAXED: attribution flag, lossy by design (see the reader).
            in_tick.store(true, Ordering::Relaxed);
            let start = Instant::now();
            let a = guard.service.apply(fwd).expect("valid tick");
            let b = guard.service.apply(back).expect("valid tick");
            std::hint::black_box(a.slen_changes + b.slen_changes);
            let elapsed = start.elapsed();
            // RELAXED: attribution flag, lossy by design.
            in_tick.store(false, Ordering::Relaxed);
            elapsed
        },
    );
    (locked.into_inner().expect("no poisoned runs"), cell)
}

fn readpath(c: &mut Criterion) {
    let (graph, interner) = setup_graph();
    let mut sut = service(&graph, &interner);

    let mut group = c.benchmark_group("readpath_2k_k8");
    group.sample_size(10);
    if smoke() {
        group.measurement_time(Duration::from_millis(1));
    }
    // The single-op read costs, uncontended: the front-end's lock-free
    // snapshot (pinned and by-handle) vs taking the big lock.
    let front = sut.service.reader();
    let pinned = front.pinned(sut.handles[0]).expect("registered");
    group.bench_function("pinned_view", |b| b.iter(|| pinned.view().result_version));
    group.bench_function("read_view_by_handle", |b| {
        b.iter(|| {
            front
                .read_view(sut.handles[0])
                .expect("registered")
                .result_version
        })
    });
    let h0 = sut.handles[0];
    let locked = Mutex::new(&mut sut.service);
    group.bench_function("exclusive_mutex_read", |b| {
        b.iter(|| {
            locked
                .lock()
                .expect("no panics")
                .result_version(h0)
                .expect("registered")
        })
    });
    group.finish();
}

/// Write `BENCH_pr6.json`-shaped numbers if `MICRO_READPATH_JSON` is set:
/// the {0, 4, 16}-reader matrix for the epoch-swapped front-end vs the
/// exclusive `Mutex` baseline.
fn emit_json(c: &mut Criterion) {
    let _ = c;
    let Some(path) = std::env::var_os("MICRO_READPATH_JSON") else {
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
    let cycles: u32 = if smoke() { 1 } else { 20 };
    let (graph, interner) = setup_graph();
    let picks = insert_picks(&graph, EDGES_PER_TICK);
    let (fwd, back) = tick_batches(&picks);

    let mut rows = String::new();
    let mut first = true;
    let mut push_row = |mode: &str, readers: usize, cell: &Cell| {
        if !std::mem::take(&mut first) {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{ \"mode\": \"{mode}\", \"readers\": {readers}, \
             \"writer_cycle_ns\": {}, \"reader_views_per_sec\": {:.0}, \
             \"during_tick_views_per_sec\": {:.0}, \"reader_views_total\": {}, \
             \"during_tick_views_total\": {} }}",
            cell.writer_cycle_ns,
            cell.reader_views_per_sec,
            cell.during_tick_views_per_sec,
            cell.reader_views_total,
            cell.during_tick_views_total,
        ));
        eprintln!(
            "[micro_readpath] {mode} readers={readers}: writer {} ns/cycle, \
             readers {:.0} views/s overall, {:.0} views/s during ticks",
            cell.writer_cycle_ns, cell.reader_views_per_sec, cell.during_tick_views_per_sec,
        );
    };

    let mut sut = service(&graph, &interner);
    for readers in READER_COUNTS {
        let cell = run_front(&mut sut, &fwd, &back, readers, cycles);
        push_row("epoch_swapped_front", readers, &cell);
    }
    for readers in READER_COUNTS {
        let (back_sut, cell) = run_exclusive(sut, &fwd, &back, readers, cycles);
        sut = back_sut;
        push_row("exclusive_mutex", readers, &cell);
    }

    let json = format!(
        "{{\n  \"bench\": \"micro_readpath\",\n  \"graph\": {{ \"nodes\": {}, \"edges\": {} }},\n  \
         \"patterns\": {PATTERNS},\n  \"updates_per_tick\": {EDGES_PER_TICK},\n  \
         \"ticks_per_cycle\": 2,\n  \"cycles\": {cycles},\n  \"backend\": \"sparse\",\n  \
         \"available_parallelism\": {},\n  \
         \"note\": \"readers snapshot (result_version, tick) while the writer ticks; \
         epoch_swapped_front reads are lock-free &self views, exclusive_mutex reads \
         serialize on one Mutex<GpnmService>. during_tick_views_per_sec is the collapse \
         indicator: front readers keep reading mid-tick, mutex readers sleep until the \
         tick commits.\",\n  \"cells\": [\n{}\n  ]\n}}\n",
        graph.node_count(),
        graph.edge_count(),
        std::thread::available_parallelism().map_or(1, usize::from),
        rows,
    );
    std::fs::write(&path, json).expect("writing MICRO_READPATH_JSON");
    eprintln!("[micro_readpath] wrote {}", path.to_string_lossy());
}

/// Median ns per `op()` over `rounds` timed batches of `iters` calls.
fn median_op_ns(rounds: usize, iters: u32, mut op: impl FnMut() -> u64) -> f64 {
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            let mut sink = 0u64;
            for _ in 0..iters {
                sink = sink.wrapping_add(std::hint::black_box(op()));
            }
            std::hint::black_box(sink);
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// PR-10 telemetry-overhead guard. The tick pipeline is instrumented
/// with spans and metrics, but the read hot path (`PinnedReader::view`)
/// carries no instrumentation at all — installing a subscriber nobody
/// reads must therefore cost it nothing. The guard measures the
/// single-snapshot cost with telemetry fully disabled vs a no-op
/// subscriber installed and (outside smoke runs) asserts the overhead
/// stays under 2%, with a half-nanosecond absolute floor so timer jitter
/// on a sub-5ns op cannot fail the build. Set `MICRO_TELEMETRY_JSON` to
/// also write BENCH_pr10.json-shaped numbers including
/// instrumented-vs-disabled *tick* timings (disabled / no-op subscriber
/// / full span collector).
fn telemetry_overhead(c: &mut Criterion) {
    let _ = c;
    let (graph, interner) = setup_graph();
    let mut sut = service(&graph, &interner);
    let front = sut.service.reader();
    let pinned = front.pinned(sut.handles[0]).expect("registered");

    let (rounds, iters, cycles) = if smoke() {
        (3, 1_000, 1u32)
    } else {
        (21, 200_000, 10u32)
    };

    tracing::subscriber::replace_global_default(None);
    let read_disabled = median_op_ns(rounds, iters, || pinned.view().result_version);
    let noop: std::sync::Arc<dyn tracing::Subscriber> =
        std::sync::Arc::new(gpnm_telemetry::NoopSubscriber::new());
    tracing::subscriber::replace_global_default(Some(noop.clone()));
    let read_noop = median_op_ns(rounds, iters, || pinned.view().result_version);
    tracing::subscriber::replace_global_default(None);

    let overhead_pct = (read_noop - read_disabled) / read_disabled.max(1e-9) * 100.0;
    eprintln!(
        "[micro_readpath] telemetry overhead on pinned view: disabled {read_disabled:.2} ns, \
         noop subscriber {read_noop:.2} ns ({overhead_pct:+.2}%)"
    );
    if !smoke() {
        assert!(
            read_noop <= read_disabled * 1.02 + 0.5,
            "telemetry with a no-op subscriber must cost <2% on the read hot path: \
             disabled {read_disabled:.2} ns vs noop {read_noop:.2} ns"
        );
    }

    let Some(path) = std::env::var_os("MICRO_TELEMETRY_JSON") else {
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

    // Instrumented-vs-disabled tick timings: the same balanced cycle the
    // reader matrix uses, with telemetry disabled, a no-op subscriber
    // (span/event calls run, nothing is recorded), and a full span
    // collector (everything recorded and drained at the end).
    let picks = insert_picks(&graph, EDGES_PER_TICK);
    let (fwd, back) = tick_batches(&picks);
    let mut tick_cycle_ns = |label: &str| -> f64 {
        let mut samples: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..cycles {
                    let a = sut.service.apply(&fwd).expect("valid tick");
                    let b = sut.service.apply(&back).expect("valid tick");
                    std::hint::black_box(a.slen_changes + b.slen_changes);
                }
                start.elapsed().as_nanos() as f64 / f64::from(cycles)
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        eprintln!("[micro_readpath] tick cycle ({label}): {median:.0} ns");
        median
    };
    tracing::subscriber::replace_global_default(None);
    let tick_disabled = tick_cycle_ns("telemetry disabled");
    tracing::subscriber::replace_global_default(Some(noop));
    let tick_noop = tick_cycle_ns("noop subscriber");
    let collector = gpnm_telemetry::install_collector();
    let tick_collector = tick_cycle_ns("span collector");
    tracing::subscriber::replace_global_default(None);
    let collected = collector.finish();

    let json = format!(
        "{{\n  \"bench\": \"micro_readpath_telemetry\",\n  \
         \"graph\": {{ \"nodes\": {}, \"edges\": {} }},\n  \
         \"patterns\": {PATTERNS},\n  \"updates_per_tick\": {EDGES_PER_TICK},\n  \
         \"read_view_ns\": {{ \"disabled\": {read_disabled:.3}, \
         \"noop_subscriber\": {read_noop:.3}, \"overhead_pct\": {overhead_pct:.3} }},\n  \
         \"tick_cycle_ns\": {{ \"disabled\": {tick_disabled:.0}, \
         \"noop_subscriber\": {tick_noop:.0}, \"span_collector\": {tick_collector:.0} }},\n  \
         \"collector_spans_per_cycle\": {:.1},\n  \
         \"note\": \"read_view_ns is the <2% guard (the read hot path carries no \
         instrumentation); tick_cycle_ns shows what full span collection costs the \
         instrumented tick pipeline.\"\n}}\n",
        graph.node_count(),
        graph.edge_count(),
        collected.spans.len() as f64 / (f64::from(cycles) * 5.0 * 2.0),
    );
    std::fs::write(&path, json).expect("writing MICRO_TELEMETRY_JSON");
    eprintln!("[micro_readpath] wrote {}", path.to_string_lossy());
}

criterion_group!(benches, readpath, emit_json, telemetry_overhead);
criterion_main!(benches);
