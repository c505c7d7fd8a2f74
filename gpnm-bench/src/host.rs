//! The host workloads: a closed loop with one writer client driving a
//! `GpnmService` or a `GpnmCluster` through the `PatternHost` API.
//!
//! Batch *t+1* is generated (time excluded from the tick clock) and
//! submitted only after tick *t* returned. A run replays one round of
//! sessions until its time is up (see [`crate::spec::Spec::sessions`]).
//! [`run_end_to_end`] measures what a user sees with tracing off;
//! [`run_traced`] runs the same streams against an untraced host, a host
//! with the span collector installed and the staged replay, tick by tick
//! in lockstep, and attributes the time.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gpnm_cluster::{GpnmCluster, RoundRobin};
use gpnm_distance::{AnyBackend, IoStats, SlenBackend, SlenRequirements};
use gpnm_engine::RefreshStrategy;
use gpnm_graph::{DataGraph, PatternGraph};
use gpnm_matcher::{match_graph, MatchDelta, MatchResult, MatchSemantics};
use gpnm_pool::WorkerPool;
use gpnm_service::{
    GpnmService, HandleId, PatternHost, ReadFront, SubEvent, Subscription, TickOutcome,
};
use gpnm_updates::UpdateBatch;

use crate::calib::Calibrator;
use crate::inputs::{data_set, fold_batch_hash, tick_batch, DataSet};
use crate::metrics::Fingerprint;
use crate::metrics::{Outcome, STAGED_TOLERANCE};
use crate::spans::{totals_by_name, SpanLog};
use crate::spec::{HostKind, Spec};
use crate::staged::{names, Staged};
use crate::stats::{
    deciles, highest_supported_percentile, mean, median, percentile, samples_beyond,
};
use crate::{peak_rss_mb, session_plan, RunOpts};

/// Reads per timed block on the reader thread.
const READ_BLOCK: u64 = 1024;

/// What the bench reads out of one tick's report, summed over shards on a
/// cluster.
#[derive(Debug, Clone, Default)]
pub struct TickCounts {
    submitted: u64,
    applied: u64,
    slen_changes: u64,
    eliminated: u64,
    repair_calls: u64,
    affected_nodes: u64,
    io: IoStats,
    /// Cumulative controller switches as of this tick.
    switches: u64,
    refresh_lanes: usize,
    /// The strategy each pattern ran, registration order (service only).
    strategies: Vec<RefreshStrategy>,
}

/// A `PatternHost` the bench can build from a [`Spec`] and read counts
/// from.
pub trait BenchHost: PatternHost + Sized {
    /// Build the host over `graph` as `spec` configures it.
    fn build(spec: &Spec, graph: DataGraph) -> Result<Self, String>;
    /// Resident index rows, summed over shards.
    fn index_rows(&self) -> usize;
    /// Index footprint in bytes, summed over shards.
    fn index_bytes(&self) -> usize;
    /// The counts one tick reported.
    fn counts(report: &Self::Report) -> TickCounts;
    /// Which staged pipeline shadows pattern `i` (its shard on a cluster).
    fn shard_of_pattern(&self, handle: Self::Handle) -> usize;
}

fn strategy_named(name: &str) -> RefreshStrategy {
    RefreshStrategy::ALL
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or_default()
}

impl BenchHost for GpnmService<AnyBackend> {
    fn build(spec: &Spec, graph: DataGraph) -> Result<Self, String> {
        let mut builder = GpnmService::builder()
            .backend(spec.backend)
            .adaptive(spec.adaptive);
        if let Some(mb) = spec.cache_budget_mb {
            builder = builder.cache_budget_mb(mb);
        }
        builder.build(graph).map_err(|e| e.to_string())
    }

    fn index_rows(&self) -> usize {
        self.backend().resident_rows()
    }

    fn index_bytes(&self) -> usize {
        self.backend().mem_bytes()
    }

    fn counts(r: &Self::Report) -> TickCounts {
        TickCounts {
            submitted: r.updates_submitted as u64,
            applied: r.updates_applied as u64,
            slen_changes: r.slen_changes as u64,
            eliminated: r.eliminated as u64,
            repair_calls: r.repair_calls as u64,
            affected_nodes: r.stats.affected_nodes as u64,
            io: r.stats.io.unwrap_or_default(),
            switches: r.stats.strategy_switches,
            refresh_lanes: r.stats.refresh_lanes,
            strategies: r
                .stats
                .per_pattern_strategy
                .iter()
                .map(|&(_, name)| strategy_named(name))
                .collect(),
        }
    }

    fn shard_of_pattern(&self, _: Self::Handle) -> usize {
        0
    }
}

impl BenchHost for GpnmCluster {
    fn build(spec: &Spec, graph: DataGraph) -> Result<Self, String> {
        let HostKind::Cluster { shards } = spec.host else {
            return Err(format!("{} is not a cluster workload", spec.name));
        };
        GpnmCluster::builder()
            .shards(shards)
            .backend(spec.backend)
            .placement(RoundRobin::new())
            .refresh_threads(0)
            .build(graph)
            .map_err(|e| e.to_string())
    }

    fn index_rows(&self) -> usize {
        self.total_resident_rows()
    }

    fn index_bytes(&self) -> usize {
        self.total_index_bytes()
    }

    fn counts(r: &Self::Report) -> TickCounts {
        let mut counts = TickCounts {
            submitted: r.updates_submitted as u64,
            applied: r.updates_applied as u64,
            slen_changes: r.slen_changes as u64,
            eliminated: r.eliminated as u64,
            repair_calls: r.repair_calls as u64,
            ..Default::default()
        };
        for shard in &r.shard_reports {
            counts.affected_nodes += shard.stats.affected_nodes as u64;
            counts.refresh_lanes = counts.refresh_lanes.max(shard.stats.refresh_lanes);
        }
        counts
    }

    fn shard_of_pattern(&self, handle: Self::Handle) -> usize {
        self.shard_of(handle).expect("handle was just registered")
    }
}

/// Advance `result` by `delta` in place (`added ∪ (prev ∖ removed)`).
fn fold(result: &mut MatchResult, delta: &MatchDelta) {
    if let Some(max_slot) = delta.added.iter().map(|&(p, _)| p.index()).max() {
        result.grow(max_slot + 1);
    }
    for &(p, v) in &delta.removed {
        result.set_mut(p).remove(v);
    }
    for &(p, v) in &delta.added {
        result.set_mut(p).insert(v);
    }
}

/// One pattern's subscription and the result its events fold to.
struct Stream {
    sub: Subscription,
    folded: MatchResult,
    events: u64,
    lagged: u64,
}

impl Stream {
    fn drain(&mut self) {
        while let Some(event) = self.sub.try_recv() {
            match event {
                SubEvent::Delta(delta) => fold(&mut self.folded, &delta),
                SubEvent::Lagged { delta, .. } => {
                    self.lagged += 1;
                    fold(&mut self.folded, &delta);
                }
                SubEvent::Closed => break,
            }
            self.events += 1;
        }
    }
}

/// What the reader thread did during one session.
struct ReaderOut {
    streams: Vec<Stream>,
    /// `read_view` calls completed inside the measured window.
    reads: u64,
    /// Time inside the timed read blocks of the measured window.
    read_ns: u64,
    /// Length of the measured window as the reader saw it.
    window: Duration,
}

/// The reader client: round-robin `read_view` over every handle in timed
/// blocks, draining one subscription per pattern between blocks.
fn reader_loop(
    front: &ReadFront,
    ids: &[HandleId],
    mut streams: Vec<Stream>,
    stop: &AtomicBool,
    measuring: &AtomicBool,
) -> Result<ReaderOut, String> {
    let (mut reads, mut read_ns, mut next) = (0u64, 0u64, 0usize);
    let mut window_start: Option<Instant> = None;
    let mut window = Duration::ZERO;
    // RELAXED: both flags are plain signals; they publish no data.
    while !stop.load(Ordering::Relaxed) {
        let counted = measuring.load(Ordering::Relaxed);
        match (counted, window_start) {
            (true, None) => window_start = Some(Instant::now()),
            (false, Some(start)) => {
                window += start.elapsed();
                window_start = None;
            }
            _ => {}
        }
        let t = Instant::now();
        for _ in 0..READ_BLOCK {
            let view = front.read_view(ids[next]).map_err(|e| e.to_string())?;
            black_box(&view);
            next = (next + 1) % ids.len();
        }
        if counted {
            read_ns += t.elapsed().as_nanos() as u64;
            reads += READ_BLOCK;
        }
        streams.iter_mut().for_each(Stream::drain);
    }
    if let Some(start) = window_start {
        window += start.elapsed();
    }
    streams.iter_mut().for_each(Stream::drain);
    Ok(ReaderOut {
        streams,
        reads,
        read_ns,
        window,
    })
}

/// Reader activity summed over a run's sessions.
#[derive(Debug, Default)]
struct ReaderTotals {
    reads: u64,
    read_ns: u64,
    window: Duration,
    events: u64,
    lagged: u64,
    ticks: u64,
}

impl ReaderTotals {
    fn add(&mut self, r: &ReaderOut) {
        self.reads += r.reads;
        self.read_ns += r.read_ns;
        self.window += r.window;
    }

    fn reads_per_s(&self) -> f64 {
        self.reads as f64 / self.window.as_secs_f64().max(1e-9)
    }

    fn read_ns(&self) -> f64 {
        self.read_ns as f64 / self.reads.max(1) as f64
    }
}

/// One session: a freshly set-up host plus everything the checks need to
/// follow it — see [`crate::spec::Spec::session_ticks`].
struct Session<H: BenchHost> {
    host: H,
    handles: Vec<H::Handle>,
    /// Each pattern's initial result advanced by every reported delta.
    folded: Vec<MatchResult>,
    /// Subscriptions the writer drains itself (empty when a reader does).
    streams: Vec<Stream>,
    /// Subscriptions handed to the reader thread when the session runs.
    reader_streams: Option<Vec<Stream>>,
    start_size: (usize, usize),
    /// `setup_s` of this session: graph handed over → patterns registered.
    setup: Duration,
}

impl<H: BenchHost> Session<H> {
    /// Build the host, register every pattern and subscribe to each.
    fn open(spec: &Spec, data: &DataSet) -> Result<Self, String> {
        let graph = data.graph.clone();
        let patterns = data.patterns.clone();
        let t = Instant::now();
        let mut host = H::build(spec, graph)?;
        let mut handles = Vec::with_capacity(patterns.len());
        for pattern in patterns {
            let handle = host
                .register_pattern(pattern, MatchSemantics::Simulation)
                .map_err(|e| e.to_string())?;
            handles.push(handle);
        }
        let setup = t.elapsed();

        let mut folded = Vec::with_capacity(handles.len());
        let mut streams = Vec::with_capacity(handles.len());
        for &h in &handles {
            folded.push(host.result(h).map_err(|e| e.to_string())?.clone());
            let base = host.read_view(h).map_err(|e| e.to_string())?;
            let sub = host.subscribe(h).map_err(|e| e.to_string())?;
            streams.push(Stream {
                sub,
                folded: base.result.clone(),
                events: 0,
                lagged: 0,
            });
        }
        let start_size = (host.graph().node_count(), host.graph().edge_count());
        let (streams, reader_streams) = if spec.reader {
            (Vec::new(), Some(streams))
        } else {
            (streams, None)
        };
        Ok(Session {
            host,
            handles,
            folded,
            streams,
            reader_streams,
            start_size,
            setup,
        })
    }

    /// Submit one batch; the returned duration is the wall time of the
    /// `apply` call alone. Folding and draining happen off the clock.
    fn tick(
        &mut self,
        batch: &UpdateBatch,
        out: &mut Outcome,
    ) -> Result<(Duration, H::Report), String> {
        let t = Instant::now();
        let report = self.host.apply(batch);
        let took = t.elapsed();
        out.attempted += 1;
        let report = report.map_err(|e| {
            out.failed += 1;
            e.to_string()
        })?;
        for (folded, (_, delta)) in self.folded.iter_mut().zip(report.deltas()) {
            fold(folded, delta);
        }
        self.streams.iter_mut().for_each(Stream::drain);
        Ok((took, report))
    }

    fn next_batch(&self, spec: &Spec, data: &DataSet, seed: u64, tick: u64) -> UpdateBatch {
        tick_batch(
            spec,
            self.host.graph(),
            &PatternGraph::new(),
            &data.interner,
            seed,
            tick,
        )
    }

    /// Run `writer` beside this session's reader thread, if it has one.
    /// The writer gets the flag that tells the reader when to count.
    fn with_reader<T>(
        &mut self,
        writer: impl FnOnce(&mut Self, &AtomicBool) -> Result<T, String>,
    ) -> Result<(T, Option<ReaderOut>), String> {
        let stop = AtomicBool::new(false);
        let measuring = AtomicBool::new(false);
        let front = self.host.reader();
        let ids: Vec<HandleId> = self.handles.iter().map(|&h| h.into()).collect();
        let reader_streams = self.reader_streams.take();
        let (written, read) = std::thread::scope(|scope| {
            let reader = reader_streams.map(|streams| {
                let (front, ids, stop, measuring) = (&front, &ids, &stop, &measuring);
                scope.spawn(move || reader_loop(front, ids, streams, stop, measuring))
            });
            let written = writer(self, &measuring);
            // RELAXED: a plain signal; publishes no data.
            stop.store(true, Ordering::Relaxed);
            let read = reader.map(|handle| handle.join().expect("reader thread panicked"));
            (written, read)
        });
        Ok((written?, read.transpose()?))
    }

    /// End the session: assert the graph stayed stationary, then check
    /// that the folded deltas equal the final result, that every
    /// subscription stream folds to the live view, and that the final
    /// result equals a from-scratch match on a freshly built index over
    /// the final graph. Returns the total matches the session ended with.
    fn close(
        self,
        spec: &Spec,
        reader: Option<&ReaderOut>,
        out: &mut Outcome,
    ) -> Result<u64, String> {
        let graph = self.host.graph();
        let end_size = (graph.node_count(), graph.edge_count());
        let drift = |a: usize, b: usize| (a as f64 - b as f64).abs() / a.max(1) as f64;
        if drift(self.start_size.0, end_size.0) > 0.10
            || drift(self.start_size.1, end_size.1) > 0.10
        {
            // Ticks measured late would not be the ticks measured early.
            return Err(format!(
                "{}: graph is not stationary: {:?} nodes/edges at start, {:?} at end",
                spec.name, self.start_size, end_size
            ));
        }
        let streams = reader.map_or(&self.streams, |r| &r.streams);
        let mut finals = Vec::with_capacity(self.handles.len());
        let mut union = SlenRequirements::empty();
        for (i, &h) in self.handles.iter().enumerate() {
            let result = self.host.result(h).map_err(|e| e.to_string())?;
            let pattern = self.host.pattern(h).map_err(|e| e.to_string())?;
            out.check(&self.folded[i] == result, || {
                format!(
                    "{}: {h}: folded deltas differ from the final result",
                    spec.name
                )
            });
            let live = self.host.read_view(h).map_err(|e| e.to_string())?;
            out.check(streams[i].folded == live.result, || {
                format!(
                    "{}: {h}: subscription stream does not fold to the live view",
                    spec.name
                )
            });
            union.absorb(&SlenRequirements::of_pattern(pattern));
            finals.push((h, pattern.clone(), result.clone()));
        }
        let graph = graph.clone();
        drop(self.host);
        // The reference index is the plain sparse one, whatever the host
        // ran on: every backend must agree with it on covered distances.
        let fresh = gpnm_distance::SparseIndex::build(&graph, &union);
        let mut matches = 0;
        for (h, pattern, result) in &finals {
            let scratch = match_graph(pattern, &graph, &fresh, MatchSemantics::Simulation);
            out.check(&scratch == result, || {
                format!(
                    "{}: {h}: final result differs from a from-scratch match",
                    spec.name
                )
            });
            matches += result.total_matches() as u64;
        }
        Ok(matches)
    }
}

/// Sums of [`TickCounts`] over the measured ticks.
#[derive(Debug, Default)]
struct Totals {
    ticks: u64,
    counts: TickCounts,
    /// Controller switches, summed over finished sessions (each session's
    /// controller counts from its own set-up, warm-up included).
    switches: u64,
    rematch_refreshes: u64,
    refreshes: u64,
}

impl Totals {
    fn add(&mut self, c: &TickCounts) {
        self.ticks += 1;
        let t = &mut self.counts;
        t.submitted += c.submitted;
        t.applied += c.applied;
        t.slen_changes += c.slen_changes;
        t.eliminated += c.eliminated;
        t.repair_calls += c.repair_calls;
        t.affected_nodes += c.affected_nodes;
        t.io.cache_hits += c.io.cache_hits;
        t.io.cache_misses += c.io.cache_misses;
        t.io.cache_evictions += c.io.cache_evictions;
        t.io.pages_read += c.io.pages_read;
        t.io.pages_written += c.io.pages_written;
        t.refresh_lanes = t.refresh_lanes.max(c.refresh_lanes);
        t.switches = c.switches;
        self.refreshes += c.strategies.len() as u64;
        self.rematch_refreshes += c
            .strategies
            .iter()
            .filter(|&&s| s == RefreshStrategy::Rematch)
            .count() as u64;
    }

    fn end_session(&mut self) {
        self.switches += std::mem::take(&mut self.counts.switches);
    }

    fn per_tick(&self, total: u64) -> f64 {
        total as f64 / self.ticks.max(1) as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

const MIB: f64 = (1u64 << 20) as f64;

/// How fast the box ran while a run measured, for the human reader.
pub(crate) fn calibration_note(workload: &str, cal: &Calibrator, replays: f64) -> String {
    format!(
        "{workload}: times are calibrated: over {} kernel samples the box ran at x{:.3} of the \
         reference time in its fastest moments (the divisor of tick times, each the fastest of \
         {replays:.1} replays) and x{:.3} typically (the divisor of setup_s)",
        cal.samples_taken(),
        cal.fastest_of(replays),
        cal.typical(),
    )
}

/// The end-to-end run of a host workload: tracing off, no collector.
pub fn run_end_to_end<H: BenchHost>(spec: &Spec, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let data = data_set(spec);
    // One slot per measured tick of a round; a slot's time is the fastest
    // of its replays.
    let mut best_ms = vec![f64::INFINITY; spec.slots()];
    let mut setup_s: Vec<f64> = Vec::new();
    // Counts come from the first round alone, so they repeat run to run.
    let mut totals = Totals::default();
    let mut readers = ReaderTotals::default();
    let mut gen_time = Duration::ZERO;
    let (mut batch_hash, mut matches_end) = (0u64, 0u64);
    let mut rss = None;
    let mut cal = Calibrator::new();

    for (round, index) in session_plan(spec.sessions, opts.seconds) {
        let first_round = round == 0;
        out.rounds = round + 1;
        cal.sample();
        let mut session = Session::<H>::open(spec, &data)?;
        cal.sample();
        setup_s.push(session.setup.as_secs_f64());
        let ((), reader) = session.with_reader(|session, measuring| {
            let mut tick = spec.first_tick(index);
            for _ in 0..spec.warmup {
                let batch = session.next_batch(spec, &data, opts.seed, tick);
                if first_round {
                    batch_hash = fold_batch_hash(batch_hash, &batch);
                }
                session.tick(&batch, &mut out)?;
                tick += 1;
            }
            // RELAXED: a plain signal to the reader; publishes no data.
            measuring.store(true, Ordering::Relaxed);
            let slots = index * spec.session_ticks..(index + 1) * spec.session_ticks;
            for best in &mut best_ms[slots] {
                let t = Instant::now();
                let batch = session.next_batch(spec, &data, opts.seed, tick);
                gen_time += t.elapsed();
                cal.poll();
                let (took, report) = session.tick(&batch, &mut out)?;
                *best = best.min(ms(took));
                if first_round {
                    batch_hash = fold_batch_hash(batch_hash, &batch);
                    totals.add(&H::counts(&report));
                }
                tick += 1;
            }
            measuring.store(false, Ordering::Relaxed);
            Ok(())
        })?;
        if let Some(r) = &reader {
            readers.add(r);
        }
        // Read before the first from-scratch check builds its reference
        // index, so the peak is the program's own.
        rss.get_or_insert_with(peak_rss_mb);
        let matches = session.close(spec, reader.as_ref(), &mut out)?;
        if first_round {
            matches_end += matches;
        }
    }

    // A slot's time is the fastest of its replays, so its divisor is the
    // kernel's time in the run's fastest moments; the set-up time is a
    // median, so its divisor is the kernel's median.
    let replays = setup_s.len() as f64 / spec.sessions as f64;
    best_ms
        .iter_mut()
        .for_each(|ms| *ms /= cal.fastest_of(replays));
    let busy_s: f64 = best_ms.iter().sum::<f64>() / 1e3;
    out.samples = best_ms.len();
    out.set("updates_per_s", totals.counts.submitted as f64 / busy_s);
    out.set("tick_p50_ms", median(&best_ms));
    out.set("tick_p90_ms", percentile(&best_ms, 90.0));
    out.set("peak_rss_mb", rss.unwrap_or_default());
    out.set("setup_s", median(&setup_s) / cal.typical());
    out.fingerprint = Fingerprint {
        ticks: spec.first_tick(spec.sessions),
        matches_end,
        slen_changes: totals.counts.slen_changes,
        // The adaptive controller picks strategies from measured times, so
        // under it the repair-pass count is not a function of the inputs
        // and has no place in an exact-count fingerprint.
        repair_calls: if spec.adaptive {
            0
        } else {
            totals.counts.repair_calls
        },
        updates_applied: totals.counts.applied,
        batch_hash,
    };
    out.notes.push(format!(
        "{}: {} tick slots ({} beyond p90; the sample supports up to p{}) in {} sessions of {}+{} \
         ticks, each slot the fastest of its replays over {} rounds ({} set-ups), {} updates/tick, \
         gen {:.1} us/tick",
        spec.name,
        best_ms.len(),
        samples_beyond(best_ms.len(), 90.0),
        highest_supported_percentile(best_ms.len()).unwrap_or(0.0),
        spec.sessions,
        spec.warmup,
        spec.session_ticks,
        out.rounds,
        setup_s.len(),
        spec.protocol().total(),
        us(gen_time) / (setup_s.len() * spec.session_ticks) as f64,
    ));
    out.notes.push(format!(
        "{}: tick ms deciles {:.2?}",
        spec.name,
        deciles(&best_ms)
    ));
    out.notes.push(calibration_note(spec.name, &cal, replays));
    if spec.reader {
        out.notes.push(format!(
            "{}: reader completed {:.0} read_view/s beside the writer ({} reads, {:.1} ns each)",
            spec.name,
            readers.reads_per_s(),
            readers.reads,
            readers.read_ns(),
        ));
    }
    Ok(out)
}

/// The traced run of a host workload. Per tick, in lockstep on one batch:
/// the untraced host (with the reader thread, if the workload has one),
/// a second host with the span collector installed, and the staged
/// replay — one pipeline per shard on a cluster.
pub fn run_traced<H: BenchHost>(spec: &Spec, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let data = data_set(spec);
    let shards = match spec.host {
        HostKind::Cluster { shards } => shards,
        _ => 1,
    };

    let mut log = SpanLog::new();
    let (mut host_us, mut traced_us, mut staged_us, mut shard_max_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut build_ms, mut initial_match_ms) = (Vec::new(), Vec::new());
    let mut totals = Totals::default();
    let mut readers = ReaderTotals::default();
    let mut gen_time = Duration::ZERO;
    let (mut collector_spans, mut matches_end, mut stream_ticks) = (0u64, 0u64, 0u64);
    let (mut index_rows, mut index_bytes, mut end_size) = (0, 0, (0, 0));

    for (round, index) in session_plan(spec.sessions, opts.seconds) {
        // Times come from every round; counts from the first alone, so
        // they repeat run to run.
        let first_round = round == 0;
        out.rounds = round + 1;
        let mut plain = Session::<H>::open(spec, &data)?;
        let mut traced = Session::<H>::open(spec, &data)?;
        // The traced host's subscriptions are drained by the writer.
        if let Some(streams) = traced.reader_streams.take() {
            traced.streams = streams;
        }

        // One staged pipeline per shard, each over its shard's patterns.
        let shard_of: Vec<usize> = plain
            .handles
            .iter()
            .map(|&h| plain.host.shard_of_pattern(h))
            .collect();
        let mut staged: Vec<(Staged, Vec<usize>)> = (0..shards)
            .map(|shard| {
                let members: Vec<usize> = (0..data.patterns.len())
                    .filter(|&i| shard_of[i] == shard)
                    .collect();
                let patterns: Vec<PatternGraph> =
                    members.iter().map(|&i| data.patterns[i].clone()).collect();
                (Staged::new(spec, data.graph.clone(), &patterns), members)
            })
            .collect();
        build_ms.push(staged.iter().map(|(s, _)| s.build_ns).sum::<u64>() as f64 / 1e6);
        initial_match_ms
            .push(staged.iter().map(|(s, _)| s.initial_match_ns).sum::<u64>() as f64 / 1e6);

        let ((), reader) = plain.with_reader(|plain, measuring| {
            for step in 0..spec.warmup + spec.session_ticks {
                let measured = step >= spec.warmup;
                // RELAXED: a plain signal to the reader.
                measuring.store(measured, Ordering::Relaxed);
                let tick = spec.first_tick(index) + step as u64;
                let t = Instant::now();
                let batch = plain.next_batch(spec, &data, opts.seed, tick);
                let gen = t.elapsed();
                readers.ticks += 1;

                let (took, report) = plain.tick(&batch, &mut out)?;
                let counts = H::counts(&report);

                let collector = gpnm_telemetry::install_collector();
                let with_collector = traced.tick(&batch, &mut out);
                gpnm_telemetry::uninstall_collector();
                let spans = collector.finish().spans.len() as u64;
                let (took_traced, _) = with_collector?;

                stream_ticks += 1;
                log.set_tick(stream_ticks);
                let spans_before = log.spans().len();
                let mut shard_ns = Vec::with_capacity(staged.len());
                for (shard, (pipeline, members)) in staged.iter_mut().enumerate() {
                    let strategies: Vec<RefreshStrategy> = members
                        .iter()
                        .filter_map(|&i| counts.strategies.get(i).copied())
                        .collect();
                    let t = Instant::now();
                    let deltas = pipeline.tick(&batch, &strategies, shard == 0, &mut log)?;
                    shard_ns.push(t.elapsed());
                    for (&i, delta) in members.iter().zip(&deltas) {
                        out.check(delta == &report.deltas()[i].1, || {
                            format!(
                                "{}: tick {tick}: staged delta of pattern {i} differs from the host's",
                                spec.name
                            )
                        });
                    }
                }
                if measured {
                    gen_time += gen;
                    host_us.push(us(took));
                    traced_us.push(us(took_traced));
                    staged_us.push(shard_ns.iter().map(|&d| us(d)).sum::<f64>());
                    shard_max_us.push(shard_ns.iter().map(|&d| us(d)).fold(0.0, f64::max));
                    collector_spans += spans;
                    if first_round {
                        totals.add(&counts);
                    }
                } else {
                    log.truncate(spans_before);
                }
            }
            measuring.store(false, Ordering::Relaxed);
            Ok(())
        })?;

        for (h_plain, h_traced) in plain.handles.iter().zip(&traced.handles) {
            let a = plain.host.result(*h_plain).map_err(|e| e.to_string())?;
            let b = traced.host.result(*h_traced).map_err(|e| e.to_string())?;
            out.check(a == b, || {
                format!(
                    "{}: {h_plain}: traced host result differs from the untraced",
                    spec.name
                )
            });
        }
        index_rows = plain.host.index_rows();
        index_bytes = plain.host.index_bytes();
        end_size = (
            plain.host.graph().node_count(),
            plain.host.graph().edge_count(),
        );
        let streams = reader.as_ref().map_or(&plain.streams, |r| &r.streams);
        readers.events += streams.iter().map(|s| s.events).sum::<u64>();
        readers.lagged += streams.iter().map(|s| s.lagged).sum::<u64>();
        if let Some(r) = &reader {
            readers.add(r);
        }
        let matches = plain.close(spec, reader.as_ref(), &mut out)?;
        if first_round {
            totals.end_session();
            matches_end += matches;
        }
    }

    // The layer table: per-tick mean self time per span name. On a
    // cluster the pipelines' spans add up over shards.
    let ticks = host_us.len().max(1) as f64;
    let by_name = totals_by_name(log.spans());
    let layer_us = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e3 / ticks)
    };
    out.samples = host_us.len();
    out.set("updates.validate_us", layer_us(names::VALIDATE));
    out.set("updates.reduce_us", layer_us(names::REDUCE));
    out.set("updates.detect_us", layer_us(names::DETECT));
    out.set("updates.ehtree_us", layer_us(names::EHTREE));
    out.set("graph.mutate_us", layer_us(names::MUTATE));
    out.set("distance.repair_us", layer_us(names::REPAIR));
    out.set("engine.plan_us", layer_us(names::PLAN));
    out.set("matcher.repair_us", layer_us(names::REFRESH));
    out.set(
        "matcher.repair_max_us",
        by_name
            .get(names::REFRESH)
            .map_or(0.0, |t| t.max_ns as f64 / 1e3),
    );
    out.set("service.delta_us", layer_us(names::DELTA));
    out.set("service.publish_us", layer_us(names::PUBLISH));

    let c = &totals.counts;
    out.set(
        "updates.net_ratio",
        c.applied as f64 / c.submitted.max(1) as f64,
    );
    out.set(
        "updates.eliminated_ratio",
        c.eliminated as f64 / (c.applied * data.patterns.len() as u64).max(1) as f64,
    );
    out.set("graph.nodes_end", end_size.0 as f64);
    out.set("graph.edges_end", end_size.1 as f64);
    out.set("distance.build_ms", median(&build_ms));
    out.set("distance.slen_changes", totals.per_tick(c.slen_changes));
    out.set("distance.affected_nodes", totals.per_tick(c.affected_nodes));
    out.set("distance.resident_rows", index_rows as f64);
    out.set("distance.index_mib", index_bytes as f64 / MIB);
    out.set("distance.cache_hit_ratio", c.io.hit_rate());
    out.set("distance.pages_read", totals.per_tick(c.io.pages_read));
    out.set(
        "distance.pages_written",
        totals.per_tick(c.io.pages_written),
    );
    out.set("distance.evictions", totals.per_tick(c.io.cache_evictions));
    out.set("matcher.initial_match_ms", median(&initial_match_ms));
    out.set("matcher.repair_calls", totals.per_tick(c.repair_calls));
    out.set("matcher.matches_end", matches_end as f64);
    out.set("adaptive.switches", totals.switches as f64);
    out.set(
        "adaptive.rematch_share",
        totals.rematch_refreshes as f64 / totals.refreshes.max(1) as f64,
    );
    out.set("pool.lanes", WorkerPool::global().lanes() as f64);
    out.set("service.refresh_lanes", c.refresh_lanes as f64);
    out.set(
        "service.sub_events",
        readers.events as f64 / readers.ticks.max(1) as f64,
    );
    out.set("service.sub_lagged", readers.lagged as f64);
    if spec.reader {
        out.set("service.read_ns", readers.read_ns());
        out.set("service.reads_per_s", readers.reads_per_s());
    }
    out.set(
        "service.apply_overhead_us",
        mean(&host_us) - mean(&shard_max_us),
    );
    if shards > 1 {
        out.set("cluster.shard_sum_us", mean(&staged_us));
        out.set("cluster.shard_max_us", mean(&shard_max_us));
        out.set(
            "cluster.fanout_overhead_us",
            mean(&host_us) - mean(&shard_max_us),
        );
        out.set("cluster.index_mib_total", index_bytes as f64 / MIB);
    }
    out.set(
        "telemetry.collector_overhead_pct",
        (median(&traced_us) / median(&host_us).max(1e-9) - 1.0) * 100.0,
    );
    out.set("telemetry.spans_per_tick", collector_spans as f64 / ticks);
    out.set("workload.gen_us", us(gen_time) / ticks);

    // The shards of a cluster tick run side by side, so the host's tick is
    // compared with the slowest shard's pipeline, not with their sum.
    let (host_p50, staged_p50) = (median(&host_us), median(&shard_max_us));
    let ratio = staged_p50 / host_p50.max(1e-9);
    out.set("trace.ticks", host_us.len() as f64);
    out.set("trace.host_tick_p50_us", host_p50);
    out.set("trace.staged_tick_p50_us", staged_p50);
    out.set("trace.staged_over_host", ratio);
    out.set("trace.host_tick_mean_us", mean(&host_us));
    out.set("trace.staged_tick_mean_us", mean(&shard_max_us));
    let verdict = if (ratio - 1.0).abs() <= STAGED_TOLERANCE {
        "representative"
    } else {
        "UNREPRESENTATIVE"
    };
    out.notes.push(format!(
        "{}: layer table is {verdict}: staged tick p50 {staged_p50:.1} us vs host {host_p50:.1} us \
         (ratio {ratio:.3}, tolerance {STAGED_TOLERANCE}) over {} ticks in {} sessions ({} rounds)",
        spec.name,
        host_us.len(),
        build_ms.len(),
        out.rounds,
    ));
    out.fingerprint.ticks = spec.first_tick(spec.sessions);
    out.fingerprint.matches_end = matches_end;
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, crate::spans::chrome_json(log.spans()))
            .map_err(|e| format!("cannot write --trace-out {}: {e}", path.display()))?;
    }
    Ok(out)
}
