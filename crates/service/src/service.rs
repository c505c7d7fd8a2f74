//! The continuous-query service: many standing patterns, one shared
//! single-pass repair per tick.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gpnm_adaptive::ThreadTuner;
use gpnm_distance::{
    AnyBackend, BackendKind, IncrementalIndex, IoStats, SlenBackend, SlenRequirements,
};
use gpnm_engine::pipeline::{
    commit_data_update, plan_for_data_update, refresh_pattern_strategy, SharedElimination,
};
use gpnm_engine::RefreshStrategy;
use gpnm_graph::{DataGraph, PatternGraph};
use gpnm_matcher::{match_graph, MatchDelta, MatchResult, MatchSemantics, RepairPlan};
use gpnm_pool::WorkerPool;
use gpnm_telemetry::{Counter, Histogram};
use gpnm_updates::{reduce_batch, Update, UpdateBatch};

use crate::error::ServiceError;
use crate::host::{HandleId, PatternHost, TickOutcome};
use crate::read::{ReadFront, ReadView, Subscription};

/// Opaque id of one registered standing pattern. Handles are unique for
/// the lifetime of the service — a deregistered handle is never reissued,
/// so a stale one can only ever yield [`ServiceError::UnknownHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternHandle(HandleId);

impl PatternHandle {
    /// The numeric id (stable, ascending in registration order).
    pub fn id(&self) -> u64 {
        self.0.raw()
    }
}

impl From<PatternHandle> for HandleId {
    fn from(handle: PatternHandle) -> HandleId {
        handle.0
    }
}

impl std::fmt::Display for PatternHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// One registered pattern's standing state.
#[derive(Debug, Clone)]
struct PatternSession {
    pattern: PatternGraph,
    semantics: MatchSemantics,
    result: MatchResult,
    version: u64,
    /// How the next tick refreshes this pattern. Every
    /// [`RefreshStrategy`] reaches the same fixed point, so this knob
    /// trades cost only.
    strategy: RefreshStrategy,
}

/// Fine-grained accounting of where one tick spent its time — the
/// observability a serving deployment tunes shard counts and
/// `refresh_threads` against. Printed by `gpnm replay --stats`.
///
/// This is the tick's one record: [`PatternHost::apply`] writes each
/// measurement here once, then flushes the finished record into the
/// global metrics registry, so `--stats`, `--stats-json` and the
/// `gpnm_tick_*` series read the same values. The four phases (reduce,
/// commit, refresh, publish) do not overlap, so their sum is at
/// most the tick's [`TickReport::total_time`]. All durations are
/// nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct TickStats {
    /// Net-effect batch reduction.
    pub reduce_ns: u64,
    /// The shared graph + `SLen` commit pass — paid once per tick, the
    /// part a per-pattern-engine deployment would pay k times.
    pub shared_repair_ns: u64,
    /// `shared_repair_ns` by update kind (`insert_edge`, `delete_edge`,
    /// `insert_node`, `delete_node`; only the kinds the tick committed).
    pub shared_repair_by_kind_ns: Vec<(&'static str, u64)>,
    /// The per-pattern refresh phase, wall clock across lanes (it starts
    /// after the commit pass returns).
    pub refresh_ns: u64,
    /// Read-front publish + subscription fan-out (`0` on a non-publishing
    /// shard replica — the cluster publishes merged views itself).
    pub publish_ns: u64,
    /// Per-pattern refresh time, in registration order. Summed this is
    /// the embarrassingly parallel half of the tick; the max entry bounds
    /// its ideal parallel wall time.
    pub per_pattern_refresh_ns: Vec<(PatternHandle, u64)>,
    /// Parallel lanes the refresh phase ran on (1 = sequential baseline).
    pub refresh_lanes: usize,
    /// Lanes a pool scope may use on this host — pool utilization
    /// of the refresh phase is `refresh_lanes / pool_lanes`.
    pub pool_lanes: usize,
    /// Refresh strategy each pattern ran this tick (display names, in
    /// registration order — parallel to `per_pattern_refresh_ns`).
    pub per_pattern_strategy: Vec<(PatternHandle, &'static str)>,
    /// Cumulative refresh-arm changes made through
    /// [`GpnmService::set_refresh_strategy`] across all patterns.
    pub strategy_switches: u64,
    /// Repair passes actually run, summed over patterns.
    pub repair_calls: usize,
    /// Repair passes that fell back to a from-scratch re-match because
    /// the standing result carried no relation (0 in steady state).
    pub repair_rematches: usize,
    /// `(pattern node, data node)` candidates the repair passes grew
    /// outside their standing relations, summed over patterns — the
    /// members a tick had to verify beyond its dirty set, to read the
    /// matcher's cost against.
    pub addition_candidates: usize,
    /// Nodes in the union of the committed updates' `Aff_N` sets (with
    /// multiplicity across updates) — how much of the graph the batch
    /// disturbed.
    pub affected_nodes: usize,
    /// The `SLen` backend that served the tick (`"partitioned"`, `"sparse"`,
    /// `"paged"`, …). Empty on a default-constructed stats value.
    pub backend_kind: &'static str,
    /// Distance rows the backend held after the tick.
    pub resident_rows: usize,
    /// The backend's in-memory footprint after the tick, in bytes
    /// (out-of-core backends report directory + cache, not the spill
    /// file).
    pub index_mem_bytes: usize,
    /// Paging activity **during this tick** (cumulative counters diffed
    /// across the tick). `None` for in-memory backends.
    pub io: Option<IoStats>,
}

impl TickStats {
    /// Summed per-pattern refresh time.
    pub fn refresh_total_ns(&self) -> u64 {
        self.per_pattern_refresh_ns.iter().map(|&(_, ns)| ns).sum()
    }

    /// The slowest single pattern's refresh time — the critical path of a
    /// perfectly parallel refresh phase.
    pub fn refresh_max_ns(&self) -> u64 {
        self.per_pattern_refresh_ns
            .iter()
            .map(|&(_, ns)| ns)
            .max()
            .unwrap_or(0)
    }

    /// Count one update's commit (graph mutation + `SLen` repair) of `ns`
    /// nanoseconds towards `shared_repair_ns` and its kind's share of it.
    fn add_commit(&mut self, kind: &'static str, ns: u64) {
        self.shared_repair_ns += ns;
        let by_kind = &mut self.shared_repair_by_kind_ns;
        match by_kind.iter_mut().find(|e| e.0 == kind) {
            Some(entry) => entry.1 += ns,
            None => by_kind.push((kind, ns)),
        }
    }

    /// The strategy name recorded for `handle` this tick, if any.
    fn strategy_of(&self, handle: PatternHandle) -> Option<&'static str> {
        self.per_pattern_strategy
            .iter()
            .find(|&&(h, _)| h == handle)
            .map(|&(_, name)| name)
    }

    /// Multi-line human rendering (the `--stats` output).
    pub fn render(&self) -> String {
        let lanes = if self.pool_lanes > 0 {
            format!("{}/{}", self.refresh_lanes, self.pool_lanes)
        } else {
            self.refresh_lanes.to_string()
        };
        let by_kind = self.shared_repair_by_kind_ns.iter();
        let by_kind: Vec<String> = by_kind
            .map(|(kind, ns)| format!("{kind}={}µs", ns / 1_000))
            .collect();
        let mut out = format!(
            "  stats: reduce={}µs shared_repair={}µs [{}] refresh(Σ)={}µs \
             refresh(max)={}µs publish={}µs lanes={lanes} switches={} \
             repairs={} candidates={} affected={}",
            self.reduce_ns / 1_000,
            self.shared_repair_ns / 1_000,
            by_kind.join(" "),
            self.refresh_total_ns() / 1_000,
            self.refresh_max_ns() / 1_000,
            self.publish_ns / 1_000,
            self.strategy_switches,
            self.repair_calls,
            self.addition_candidates,
            self.affected_nodes,
        );
        out.push_str(&format!(
            "\n  index: kind={} resident_rows={} mem={}KiB",
            self.backend_kind,
            self.resident_rows,
            self.index_mem_bytes / 1024,
        ));
        if let Some(io) = &self.io {
            out.push_str(&format!(
                "\n  paging: hits={} misses={} hit_rate={:.1}% evictions={} \
                 pages_read={} pages_written={}",
                io.cache_hits,
                io.cache_misses,
                io.hit_rate() * 100.0,
                io.cache_evictions,
                io.pages_read,
                io.pages_written,
            ));
        }
        for &(handle, ns) in &self.per_pattern_refresh_ns {
            out.push_str(&format!("\n    {handle}: refresh {}µs", ns / 1_000));
            if let Some(name) = self.strategy_of(handle) {
                out.push_str(&format!(" [{name}]"));
            }
        }
        out
    }

    /// The stats as one JSON object (hand-rolled — the workspace carries
    /// no serde). Field names mirror the struct; `io` is `null` on
    /// in-memory backends.
    pub fn to_json(&self) -> String {
        let per_pattern: Vec<String> = self
            .per_pattern_refresh_ns
            .iter()
            .map(|&(handle, ns)| {
                let strategy = self.strategy_of(handle).unwrap_or("");
                format!(
                    "{{\"handle\":{},\"refresh_ns\":{ns},\"strategy\":\"{strategy}\"}}",
                    handle.id()
                )
            })
            .collect();
        let io = match &self.io {
            Some(io) => format!(
                "{{\"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
                 \"pages_read\":{},\"pages_written\":{}}}",
                io.cache_hits, io.cache_misses, io.cache_evictions, io.pages_read, io.pages_written
            ),
            None => "null".to_string(),
        };
        let by_kind = self.shared_repair_by_kind_ns.iter();
        let by_kind: Vec<String> = by_kind
            .map(|(kind, ns)| format!("\"{kind}\":{ns}"))
            .collect();
        format!(
            "{{\"reduce_ns\":{},\"shared_repair_ns\":{},\"shared_repair_by_kind_ns\":{{{}}},\
             \"refresh_total_ns\":{},\"refresh_max_ns\":{},\"publish_ns\":{},\
             \"refresh_lanes\":{},\
             \"pool_lanes\":{},\"strategy_switches\":{},\
             \"repair_calls\":{},\"addition_candidates\":{},\"affected_nodes\":{},\
             \"backend_kind\":\"{}\",\
             \"resident_rows\":{},\"index_mem_bytes\":{},\"per_pattern\":[{}],\"io\":{}}}",
            self.reduce_ns,
            self.shared_repair_ns,
            by_kind.join(","),
            self.refresh_total_ns(),
            self.refresh_max_ns(),
            self.publish_ns,
            self.refresh_lanes,
            self.pool_lanes,
            self.strategy_switches,
            self.repair_calls,
            self.addition_candidates,
            self.affected_nodes,
            self.backend_kind,
            self.resident_rows,
            self.index_mem_bytes,
            per_pattern.join(","),
            io,
        )
    }
}

/// Nanoseconds of a [`Duration`] as the `u64` the tick record carries
/// (saturating — 584 years of headroom).
fn ns64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Registry handles a tick record flushes into, resolved once per process.
struct TickSeries {
    ticks: Arc<Counter>,
    total_ns: Arc<Histogram>,
    reduce_ns: Arc<Histogram>,
    commit_ns: Arc<Histogram>,
    refresh_ns: Arc<Histogram>,
    publish_ns: Arc<Histogram>,
    pattern_refresh_ns: Arc<Histogram>,
    updates_applied: Arc<Counter>,
    repair_calls: Arc<Counter>,
    repair_rematches: Arc<Counter>,
    affected_nodes: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    pages_read: Arc<Counter>,
    pages_written: Arc<Counter>,
}

/// Flush one finished tick into the global metrics registry: the values
/// written are the report's own, so the cumulative series and the tick's
/// [`TickStats`] cannot disagree. Called once per tick.
fn flush(report: &TickReport) {
    static SERIES: OnceLock<TickSeries> = OnceLock::new();
    let registry = gpnm_telemetry::global();
    let f = SERIES.get_or_init(|| TickSeries {
        ticks: registry.counter("gpnm_ticks_total"),
        total_ns: registry.histogram("gpnm_tick_total_ns"),
        reduce_ns: registry.histogram("gpnm_tick_reduce_ns"),
        commit_ns: registry.histogram("gpnm_tick_commit_ns"),
        refresh_ns: registry.histogram("gpnm_tick_refresh_ns"),
        publish_ns: registry.histogram("gpnm_tick_publish_ns"),
        pattern_refresh_ns: registry.histogram("gpnm_pattern_refresh_ns"),
        updates_applied: registry.counter("gpnm_updates_applied_total"),
        repair_calls: registry.counter("gpnm_repair_calls_total"),
        repair_rematches: registry.counter("gpnm_repair_rematch_total"),
        affected_nodes: registry.counter("gpnm_affected_nodes_total"),
        cache_hits: registry.counter("gpnm_paged_cache_hits_total"),
        cache_misses: registry.counter("gpnm_paged_cache_misses_total"),
        cache_evictions: registry.counter("gpnm_paged_cache_evictions_total"),
        pages_read: registry.counter("gpnm_paged_pages_read_total"),
        pages_written: registry.counter("gpnm_paged_pages_written_total"),
    });
    let stats = &report.stats;
    f.ticks.inc();
    f.total_ns.observe(ns64(report.total_time));
    f.reduce_ns.observe(stats.reduce_ns);
    f.commit_ns.observe(stats.shared_repair_ns);
    for &(kind, ns) in &stats.shared_repair_by_kind_ns {
        // Cumulative seconds; a gauge because the registry's counters are
        // integers.
        registry
            .gauge_with("gpnm_slen_repair_seconds", &[("kind", kind)])
            .add(ns as f64 / 1e9);
    }
    f.refresh_ns.observe(stats.refresh_ns);
    f.publish_ns.observe(stats.publish_ns);
    f.updates_applied.add(report.updates_applied as u64);
    f.repair_calls.add(stats.repair_calls as u64);
    f.repair_rematches.add(stats.repair_rematches as u64);
    f.affected_nodes.add(stats.affected_nodes as u64);
    for (&(_, ns), &(_, strategy)) in stats
        .per_pattern_refresh_ns
        .iter()
        .zip(&stats.per_pattern_strategy)
    {
        f.pattern_refresh_ns.observe(ns);
        registry
            .counter_with("gpnm_pattern_refresh_total", &[("strategy", strategy)])
            .inc();
    }
    if let Some(io) = &stats.io {
        f.cache_hits.add(io.cache_hits);
        f.cache_misses.add(io.cache_misses);
        f.cache_evictions.add(io.cache_evictions);
        f.pages_read.add(io.pages_read);
        f.pages_written.add(io.pages_written);
    }
}

/// What one [`PatternHost::apply`] tick did: shared-work accounting plus
/// one [`MatchDelta`] per registered pattern.
#[derive(Debug, Clone)]
pub struct TickReport {
    /// 1-based tick number (the batch count applied so far).
    pub tick: u64,
    /// Updates in the submitted batch.
    pub updates_submitted: usize,
    /// Updates surviving net-effect reduction (the ones committed).
    pub updates_applied: usize,
    /// Distance pairs the shared `SLen` repair changed.
    pub slen_changes: usize,
    /// Always 0: a host folds every update into one pass per pattern and
    /// eliminates nothing. Kept only because `gpnm-bench` names it;
    /// removed with ROADMAP D2(b).
    pub eliminated: usize,
    /// Per-pattern repair passes run, summed.
    pub repair_calls: usize,
    /// End-to-end wall time of the tick, measured once: the same value is
    /// `total_ns` in the `--stats-json` line and the tick's
    /// `gpnm_tick_total_ns` observation.
    pub total_time: Duration,
    /// Wall-clock unix milliseconds when the tick finished (sampled from
    /// the telemetry clock) — the `ts_ms` of this tick's `--stats-json`
    /// line.
    pub ts_ms: u64,
    /// Per-pattern deltas, in registration order.
    pub deltas: Vec<(PatternHandle, MatchDelta)>,
    /// Fine-grained timing/counters for the tick.
    pub stats: TickStats,
}

impl TickOutcome for TickReport {
    type Handle = PatternHandle;

    fn tick(&self) -> u64 {
        self.tick
    }

    fn deltas(&self) -> &[(PatternHandle, MatchDelta)] {
        &self.deltas
    }

    fn summary(&self) -> String {
        format!(
            "tick {}: ΔG={} (net {}), slen_changes={}, patterns={}, +{} −{}, total={:?}",
            self.tick,
            self.updates_submitted,
            self.updates_applied,
            self.slen_changes,
            self.deltas.len(),
            self.total_added(),
            self.total_removed(),
            self.total_time,
        )
    }

    fn render_stats(&self) -> String {
        self.stats.render()
    }

    fn stats_json(&self) -> String {
        format!(
            "{{\"tick\":{},\"ts_ms\":{},\"updates_submitted\":{},\"updates_applied\":{},\
             \"slen_changes\":{},\"added\":{},\"removed\":{},\"total_ns\":{},\"stats\":{}}}",
            self.tick,
            self.ts_ms,
            self.updates_submitted,
            self.updates_applied,
            self.slen_changes,
            self.total_added(),
            self.total_removed(),
            self.total_time.as_nanos(),
            self.stats.to_json(),
        )
    }
}

/// Fallible, builder-style construction of a runtime-configured service —
/// replaces the panicking constructor zoo for deployments that pick the
/// backend from configuration.
///
/// ```
/// use gpnm_distance::BackendKind;
/// use gpnm_service::GpnmService;
///
/// let fig = gpnm_graph::paper::fig1();
/// let service = GpnmService::builder()
///     .backend(BackendKind::Sparse)
///     .max_index_gb(4)
///     .build(fig.graph)
///     .expect("sparse builds are never refused");
/// ```
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    kind: BackendKind,
    max_index_gb: f64,
    cache_budget_mb: Option<f64>,
    refresh_threads: usize,
    publishing: bool,
    adaptive: bool,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            kind: BackendKind::Partitioned,
            max_index_gb: 4.0,
            cache_budget_mb: None,
            refresh_threads: 0,
            publishing: true,
            adaptive: false,
        }
    }
}

impl ServiceBuilder {
    /// A builder with the defaults: partitioned backend, 4 GiB dense-index
    /// budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the `SLen` backend.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.kind = kind;
        self
    }

    /// Memory budget for dense backends, in GiB. [`ServiceBuilder::build`]
    /// refuses a dense matrix whose estimate exceeds it (instead of
    /// handing the OOM killer a 40 GiB allocation); sparse backends are
    /// never refused.
    pub fn max_index_gb(mut self, gb: impl Into<f64>) -> Self {
        self.max_index_gb = gb.into();
        self
    }

    /// Hot-row cache budget for the paged backend, in MiB. Unset, the
    /// paged cache inherits the whole [`ServiceBuilder::max_index_gb`]
    /// budget — set this to hold the working set far below the admission
    /// ceiling. Ignored by in-memory backends.
    pub fn cache_budget_mb(mut self, mb: impl Into<f64>) -> Self {
        self.cache_budget_mb = Some(mb.into());
        self
    }

    /// Parallel lanes for the per-pattern refresh phase (default `0` =
    /// the sequential baseline, kept for ablations). After the shared
    /// commit pass the graph and index are read-only, so each registered
    /// pattern's refresh is independent; `n > 0` fans them out as up to
    /// `n` tasks of one [`gpnm_pool::WorkerPool::scope`], which runs them
    /// on at most its `lanes()` threads. Results are bitwise identical
    /// either way — the knob trades wall time only.
    pub fn refresh_threads(mut self, n: usize) -> Self {
        self.refresh_threads = n;
        self
    }

    /// Enable the refresh-parallelism tuner (default `false`): each tick
    /// it picks the refresh phase's lane count between the sequential
    /// baseline and pool fan-out from the previous tick's measured
    /// per-pattern refresh times — see [`GpnmService::set_adaptive`].
    /// Results stay bitwise identical to any fixed configuration; the
    /// tuner trades cost only.
    pub fn adaptive(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// Whether the service maintains its concurrent read front-end
    /// (default `true`): publishing [`ReadView`]s and fanning deltas to
    /// subscriptions after each commit. A cluster turns this **off** on
    /// its shard replicas so that nothing is observable until *every*
    /// shard has committed the tick — the cluster publishes the merged
    /// views itself, keeping per-tick publication atomic across shards.
    pub fn publishing(mut self, on: bool) -> Self {
        self.publishing = on;
        self
    }

    /// Build the service over `graph`. Fails — instead of panicking or
    /// OOMing — when the configuration cannot be honored.
    pub fn build(self, graph: DataGraph) -> Result<GpnmService<AnyBackend>, ServiceError> {
        if !self.max_index_gb.is_finite() || self.max_index_gb <= 0.0 {
            return Err(ServiceError::InvalidConfig(format!(
                "max_index_gb must be a positive finite number, got {}",
                self.max_index_gb
            )));
        }
        if let Some(mb) = self.cache_budget_mb {
            if !mb.is_finite() || mb <= 0.0 {
                return Err(ServiceError::InvalidConfig(format!(
                    "cache_budget_mb must be a positive finite number, got {mb}"
                )));
            }
        }
        if let Some(estimated_bytes) = self.kind.estimated_index_bytes(graph.slot_count()) {
            let limit_bytes = (self.max_index_gb * (1u64 << 30) as f64) as u128;
            if estimated_bytes > limit_bytes {
                return Err(ServiceError::IndexTooLarge {
                    nodes: graph.slot_count(),
                    estimated_bytes,
                    limit_bytes,
                });
            }
        }
        let reqs = SlenRequirements::empty();
        let mut index = AnyBackend::of_kind(self.kind, &graph, &reqs);
        if let AnyBackend::Paged(paged) = &mut index {
            // The paged cache rides the existing memory-admission plumbing:
            // its budget is the explicit cache knob when set, else the
            // whole max_index_gb allowance.
            let bytes = match self.cache_budget_mb {
                Some(mb) => (mb * (1u64 << 20) as f64) as usize,
                None => (self.max_index_gb * (1u64 << 30) as f64) as usize,
            };
            paged.set_cache_budget(bytes);
        }
        let mut service = GpnmService::from_parts(graph, index, reqs);
        service.set_refresh_threads(self.refresh_threads);
        service.publishing = self.publishing;
        service.set_adaptive(self.adaptive);
        Ok(service)
    }
}

/// The state of an adaptive service: the host-wide [`ThreadTuner`] and
/// what it is fed — the previous tick's measured per-pattern refresh
/// times, summed and worst (zero before the first tick).
#[derive(Debug, Clone, Default)]
struct AdaptiveState {
    tuner: ThreadTuner,
    refresh_total_ns: u64,
    refresh_max_ns: u64,
}

/// A continuous-query GPNM service: **one** data graph and **one** `SLen`
/// backend serving **many** registered standing patterns.
///
/// Where a [`gpnm_engine::GpnmEngine`] answers "what does this one pattern
/// match after this batch", the service answers "what changed for *every*
/// standing pattern" — and pays the expensive part (graph mutation +
/// `SLen` repair) once per batch instead of once per pattern. Each
/// [`PatternHost::apply`] tick:
///
/// 1. rejects pattern updates and invalid data updates with a typed
///    [`ServiceError`], before any mutation;
/// 2. net-reduces the batch and commits it through one shared repair
///    pass over the backend, folding every update's repair plan into one
///    per pattern;
/// 3. refreshes every registered pattern with one repair pass over that
///    folded plan — the union of every update's — at the post-batch
///    state;
/// 4. returns a [`MatchDelta`] per handle — added/removed pairs plus a
///    monotone `result_version` — instead of k full result tables.
///
/// The backend covers the *union* of all registered patterns'
/// [`SlenRequirements`]; registration widens it in place
/// ([`SlenBackend::sync_requirements`]) and deregistration narrows it
/// ([`SlenBackend::narrow_requirements`]), so a bounded sparse index stays
/// proportional to what the surviving patterns actually consult.
#[derive(Debug)]
pub struct GpnmService<B: SlenBackend = IncrementalIndex> {
    graph: DataGraph,
    index: B,
    reqs: SlenRequirements,
    sessions: Vec<(PatternHandle, PatternSession)>,
    next_handle: u64,
    tick: u64,
    refresh_threads: usize,
    front: ReadFront,
    publishing: bool,
    adaptive: Option<AdaptiveState>,
    strategy_switches: u64,
}

impl<B: SlenBackend + Clone> Clone for GpnmService<B> {
    /// The clone is an **independent** host with a fresh, unshared read
    /// front-end: sharing the original's front would let the clone's
    /// ticks publish over readers of the original. The clone republishes
    /// its sessions' current state, so its own `reader()` starts fully
    /// populated; subscriptions never carry over.
    fn clone(&self) -> Self {
        let clone = GpnmService {
            graph: self.graph.clone(),
            index: self.index.clone(),
            reqs: self.reqs.clone(),
            sessions: self.sessions.clone(),
            next_handle: self.next_handle,
            tick: self.tick,
            refresh_threads: self.refresh_threads,
            front: ReadFront::new(),
            publishing: self.publishing,
            adaptive: self.adaptive.clone(),
            strategy_switches: self.strategy_switches,
        };
        clone.republish_all();
        clone
    }
}

impl<B: SlenBackend> Drop for GpnmService<B> {
    /// Dropping the host ends every stream on its own front: each live
    /// subscription drains its queued deltas, then receives a final
    /// [`crate::SubEvent::Closed`]. A non-publishing replica's front is
    /// empty, and a clone's front is its own.
    fn drop(&mut self) {
        for (handle, _) in &self.sessions {
            self.front.close(*handle);
        }
    }
}

impl GpnmService<AnyBackend> {
    /// Start configuring a runtime-backed service — see [`ServiceBuilder`].
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }
}

impl<B: SlenBackend> GpnmService<B> {
    /// A service over `graph` with a statically-chosen backend and no
    /// registered patterns: `GpnmService::<SparseIndex>::new(graph)`.
    /// Runtime configuration goes through [`GpnmService::builder`].
    pub fn new(graph: DataGraph) -> Self {
        let reqs = SlenRequirements::empty();
        let index = B::build(&graph, &reqs);
        Self::from_parts(graph, index, reqs)
    }

    fn from_parts(graph: DataGraph, index: B, reqs: SlenRequirements) -> Self {
        GpnmService {
            graph,
            index,
            reqs,
            sessions: Vec::new(),
            next_handle: 0,
            tick: 0,
            refresh_threads: 0,
            front: ReadFront::new(),
            publishing: true,
            adaptive: None,
            strategy_switches: 0,
        }
    }

    /// Publish every session's current state to (a fresh) front — the
    /// clone path, and harmless elsewhere.
    fn republish_all(&self) {
        if !self.publishing {
            return;
        }
        for (handle, sess) in &self.sessions {
            self.front.publish(
                *handle,
                ReadView {
                    result: sess.result.visible(),
                    result_version: sess.version,
                    tick: self.tick,
                },
            );
        }
    }

    /// Set the parallel-lane budget for the per-pattern refresh phase —
    /// see [`ServiceBuilder::refresh_threads`]. `0` keeps the sequential
    /// baseline. Safe to change between ticks.
    pub fn set_refresh_threads(&mut self, n: usize) {
        self.refresh_threads = n;
    }

    /// The configured refresh parallelism (`0` = sequential).
    pub fn refresh_threads(&self) -> usize {
        self.refresh_threads
    }

    /// Enable or disable the refresh-parallelism tuner. Enabled, each
    /// tick's refresh lane count comes from the previous tick's measured
    /// per-pattern refresh times (sum against critical path plus spawn
    /// overhead — see [`ThreadTuner`]) instead of
    /// [`GpnmService::refresh_threads`]. Disabling drops the tuner's state.
    pub fn set_adaptive(&mut self, on: bool) {
        if !on {
            self.adaptive = None;
        } else if self.adaptive.is_none() {
            self.adaptive = Some(AdaptiveState::default());
        }
    }

    /// Whether the tuner is driving this service's refresh parallelism.
    pub fn adaptive(&self) -> bool {
        self.adaptive.is_some()
    }

    /// Cumulative refresh-arm changes made through
    /// [`GpnmService::set_refresh_strategy`] — the one way an arm changes.
    pub fn strategy_switches(&self) -> u64 {
        self.strategy_switches
    }

    /// Pin `handle`'s refresh strategy for subsequent ticks. Every
    /// strategy reaches the same fixed point (the `service_equivalence`
    /// suite switches mid-stream and asserts bitwise equality), so this
    /// trades cost only.
    pub fn set_refresh_strategy(
        &mut self,
        handle: PatternHandle,
        strategy: RefreshStrategy,
    ) -> Result<(), ServiceError> {
        let (_, sess) = self
            .sessions
            .iter_mut()
            .find(|(h, _)| *h == handle)
            .ok_or(ServiceError::UnknownHandle(handle))?;
        if sess.strategy != strategy {
            sess.strategy = strategy;
            self.strategy_switches += 1;
        }
        Ok(())
    }

    /// The strategy `handle`'s next refresh will run under.
    pub fn refresh_strategy(&self, handle: PatternHandle) -> Result<RefreshStrategy, ServiceError> {
        Ok(self.session(handle)?.strategy)
    }

    /// The shared `SLen` backend.
    pub fn backend(&self) -> &B {
        &self.index
    }

    /// The union requirement set the backend currently covers.
    pub fn requirements(&self) -> &SlenRequirements {
        &self.reqs
    }

    /// Whether this service publishes to its read front-end — see
    /// [`ServiceBuilder::publishing`].
    pub fn publishing(&self) -> bool {
        self.publishing
    }

    fn session(&self, handle: PatternHandle) -> Result<&PatternSession, ServiceError> {
        self.sessions
            .iter()
            .find(|(h, _)| *h == handle)
            .map(|(_, s)| s)
            .ok_or(ServiceError::UnknownHandle(handle))
    }

    /// The read front-end `handle` is served from: a known handle on a
    /// publishing service.
    fn published_front(&self, handle: PatternHandle) -> Result<&ReadFront, ServiceError> {
        self.session(handle)?;
        if !self.publishing {
            return Err(ServiceError::ReadFrontDisabled);
        }
        Ok(&self.front)
    }

    /// [`PatternHost::apply`] minus the up-front *data* validation — the
    /// seam a cluster uses to validate a batch **once** and fan the same
    /// committed work out to every shard replica.
    ///
    /// The caller promises the batch's data updates are valid against the
    /// current graph (i.e. [`gpnm_updates::UpdateBatch::validate_data`]
    /// passed on an identical replica). An invalid batch still surfaces a
    /// typed error — pattern updates are always refused mutation-free,
    /// exactly like [`PatternHost::apply`] — but an invalid *data* update
    /// surfaces possibly after part of the batch has mutated this
    /// service's state, so atomic refusal is the validating caller's
    /// responsibility.
    pub fn apply_prevalidated(&mut self, batch: &UpdateBatch) -> Result<TickReport, ServiceError> {
        if let Some(index) = batch.first_pattern_update() {
            return Err(ServiceError::PatternUpdateInBatch { index });
        }
        // The tick's telemetry: one root span covering the whole tick,
        // child spans per phase, and one `TickStats` record every
        // measurement is written into exactly once — the report carries
        // it, and `flush` writes the same values into the metrics registry.
        let tick_span = tracing::span!(
            tracing::Level::INFO,
            "tick",
            tick = self.tick + 1,
            patterns = self.sessions.len(),
            submitted = batch.len(),
        );
        let _tick_entered = tick_span.enter();
        let start = Instant::now();
        let mut stats = TickStats {
            pool_lanes: WorkerPool::global().lanes(),
            ..TickStats::default()
        };
        let io_before = self.index.io_stats();

        // Net-effect reduction. Data-update cancellation never consults the
        // pattern graph, so reducing against an empty pattern is exactly
        // what every per-pattern engine would compute.
        let t = Instant::now();
        let reduced = {
            let span = tracing::span!(tracing::Level::DEBUG, "reduce", submitted = batch.len());
            let _entered = span.enter();
            reduce_batch(&self.graph, &PatternGraph::new(), batch)
        };
        stats.reduce_ns = ns64(t.elapsed());

        // The shared single pass: each surviving update mutates the graph
        // and repairs the backend exactly once; every pattern derives its
        // repair plan from the shared delta *at this update's post-state*,
        // which is precisely where the single-pattern engine derives its
        // own, and folds it into one plan for the tick: the refresh runs
        // one pass over the union anyway (see `refresh_pattern_strategy`).
        let commit_span = tracing::span!(tracing::Level::DEBUG, "commit", updates = reduced.len());
        let commit_entered = commit_span.enter();
        let mut plans: Vec<RepairPlan> = vec![RepairPlan::new(); self.sessions.len()];
        let mut slen_changes = 0;
        for u in reduced.updates() {
            let Update::Data(du) = u else {
                unreachable!("pattern updates rejected above");
            };
            let t = Instant::now();
            let cu = commit_data_update(&mut self.graph, &mut self.index, du)?;
            stats.add_commit(cu.kind(), ns64(t.elapsed()));
            tracing::event!(
                tracing::Level::TRACE,
                "update_committed",
                affected = cu.delta.affected.len(),
                slen_changes = cu.delta.len(),
            );
            slen_changes += cu.delta.len();
            stats.affected_nodes += cu.delta.affected.len();
            for ((_, sess), plan) in self.sessions.iter().zip(plans.iter_mut()) {
                plan.merge(&plan_for_data_update(
                    du,
                    &cu.delta,
                    &sess.pattern,
                    &self.graph,
                    &sess.result,
                    cu.created,
                ));
            }
        }
        drop(commit_entered);

        // Per-pattern refresh, then delta extraction. From here the graph
        // and index are read-only, so the per-pattern work is independent
        // and fans out across `refresh_threads` pool lanes.
        //
        // Adaptive pre-refresh step: the tuner sets the refresh parallelism
        // from the previous tick's measured refresh times. It trades cost
        // only — every lane count reaches the same fixed point.
        let t = Instant::now();
        let effective_threads = match &mut self.adaptive {
            Some(state) => state.tuner.decide(
                state.refresh_total_ns,
                state.refresh_max_ns,
                self.sessions.len(),
                stats.pool_lanes,
            ),
            None => self.refresh_threads,
        };
        stats.refresh_lanes = refresh_lanes(effective_threads, self.sessions.len());

        let refresh_span = tracing::span!(
            tracing::Level::DEBUG,
            "refresh",
            lanes = stats.refresh_lanes
        );
        let refresh_entered = refresh_span.enter();
        let outcomes = refresh_sessions(
            &self.graph,
            &self.index,
            &mut self.sessions,
            &plans,
            !reduced.is_empty(),
            effective_threads,
            &refresh_span,
        );
        drop(refresh_entered);
        stats.refresh_ns = ns64(t.elapsed());

        let mut deltas = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            stats.repair_calls += outcome.stats.repair_calls;
            stats.repair_rematches += usize::from(outcome.stats.rematched);
            stats.addition_candidates += outcome.stats.candidates;
            let handle = outcome.handle;
            stats
                .per_pattern_refresh_ns
                .push((handle, outcome.refresh_ns));
            stats
                .per_pattern_strategy
                .push((handle, outcome.strategy.name()));
            deltas.push((handle, outcome.delta));
        }

        self.tick += 1;

        // Publish the committed epoch: every pattern's new view is
        // swapped in atomically (per handle), then the tick's deltas fan
        // out to subscribers. Readers were served the previous epoch for
        // the whole tick and switch to this one at the swap — never a
        // half-refreshed state.
        let t = Instant::now();
        if self.publishing {
            let span = tracing::span!(
                tracing::Level::DEBUG,
                "publish",
                patterns = self.sessions.len()
            );
            let _entered = span.enter();
            let items: Vec<(HandleId, ReadView, MatchDelta)> = self
                .sessions
                .iter()
                .zip(deltas.iter())
                .map(|((handle, sess), (_, delta))| {
                    (
                        HandleId::from(*handle),
                        ReadView {
                            result: sess.result.visible(),
                            result_version: sess.version,
                            tick: self.tick,
                        },
                        delta.clone(),
                    )
                })
                .collect();
            self.front.publish_tick(items);
            stats.publish_ns = ns64(t.elapsed());
        }

        // Paging delta and the backend's point-in-time gauges, sampled at
        // tick end.
        if let (Some(before), Some(after)) = (io_before, self.index.io_stats()) {
            stats.io = Some(after.since(&before));
        }
        stats.strategy_switches = self.strategy_switches;
        stats.backend_kind = self.index.kind();
        stats.resident_rows = self.index.resident_rows();
        stats.index_mem_bytes = self.index.mem_bytes();
        if let Some(state) = &mut self.adaptive {
            state.refresh_total_ns = stats.refresh_total_ns();
            state.refresh_max_ns = stats.refresh_max_ns();
        }
        // A non-publishing replica is one shard of a cluster: its narrowed
        // index is a share of the total, which the cluster reports itself.
        if self.publishing {
            let registry = gpnm_telemetry::global();
            registry
                .gauge("gpnm_index_resident_rows")
                .set(stats.resident_rows as f64);
            registry
                .gauge("gpnm_index_mem_bytes")
                .set(stats.index_mem_bytes as f64);
        }

        let report = TickReport {
            tick: self.tick,
            updates_submitted: batch.len(),
            updates_applied: reduced.len(),
            slen_changes,
            eliminated: 0,
            repair_calls: stats.repair_calls,
            total_time: start.elapsed(),
            ts_ms: gpnm_telemetry::clock::wall_ms(),
            deltas,
            stats,
        };
        flush(&report);
        Ok(report)
    }
}

impl<B: SlenBackend> PatternHost for GpnmService<B> {
    type Handle = PatternHandle;
    type Error = ServiceError;
    type Report = TickReport;

    fn graph(&self) -> &DataGraph {
        &self.graph
    }

    fn pattern(&self, handle: PatternHandle) -> Result<&PatternGraph, ServiceError> {
        Ok(&self.session(handle)?.pattern)
    }

    fn semantics(&self, handle: PatternHandle) -> Result<MatchSemantics, ServiceError> {
        Ok(self.session(handle)?.semantics)
    }

    fn result(&self, handle: PatternHandle) -> Result<&MatchResult, ServiceError> {
        Ok(&self.session(handle)?.result)
    }

    fn result_version(&self, handle: PatternHandle) -> Result<u64, ServiceError> {
        Ok(self.session(handle)?.version)
    }

    fn handles(&self) -> Vec<PatternHandle> {
        self.sessions.iter().map(|(h, _)| *h).collect()
    }

    fn pattern_count(&self) -> usize {
        self.sessions.len()
    }

    fn tick(&self) -> u64 {
        self.tick
    }

    /// Widen the backend's requirement union and run the initial match.
    /// Cost is one initial query for *this* pattern (plus any sparse rows
    /// the widened union now demands) — existing patterns are untouched.
    fn register_pattern(
        &mut self,
        pattern: PatternGraph,
        semantics: MatchSemantics,
    ) -> Result<PatternHandle, ServiceError> {
        if pattern.node_count() == 0 {
            return Err(ServiceError::EmptyPattern);
        }
        self.reqs.absorb(&SlenRequirements::of_pattern(&pattern));
        self.index.sync_requirements(&self.graph, &self.reqs);
        let result = match_graph(&pattern, &self.graph, &self.index, semantics);
        let handle = PatternHandle(HandleId(self.next_handle));
        self.next_handle += 1;
        if self.publishing {
            self.front.publish(
                handle,
                ReadView {
                    result: result.visible(),
                    result_version: 0,
                    tick: self.tick,
                },
            );
        }
        self.sessions.push((
            handle,
            PatternSession {
                pattern,
                semantics,
                result,
                version: 0,
                strategy: RefreshStrategy::default(),
            },
        ));
        Ok(handle)
    }

    /// Narrow the backend's requirement union to what the remaining
    /// patterns need — on a sparse backend this reclaims rows (and row
    /// depth) only the departed pattern consulted.
    fn deregister(&mut self, handle: PatternHandle) -> Result<(), ServiceError> {
        let pos = self
            .sessions
            .iter()
            .position(|(h, _)| *h == handle)
            .ok_or(ServiceError::UnknownHandle(handle))?;
        self.sessions.remove(pos);
        // Terminate the handle's published state and subscriptions
        // (queued deltas drain first, then a final `Closed`).
        self.front.close(handle);
        let mut union = SlenRequirements::empty();
        for (_, s) in &self.sessions {
            union.absorb(&SlenRequirements::of_pattern(&s.pattern));
        }
        self.reqs = union;
        self.index.narrow_requirements(&self.graph, &self.reqs);
        Ok(())
    }

    /// The batch is validated up front and rejected (typed, mutation-free)
    /// if it contains a pattern update or an invalid data update. On
    /// success the graph, the backend and every result reflect the
    /// post-batch state; per-pattern results are bitwise what a dedicated
    /// [`gpnm_engine::GpnmEngine`] running the same batch would hold, but
    /// the graph mutation and `SLen` repair were paid once, not
    /// once per pattern.
    fn apply(&mut self, batch: &UpdateBatch) -> Result<TickReport, ServiceError> {
        batch.validate_data(&self.graph)?;
        self.apply_prevalidated(batch)
    }

    /// Errors with [`ServiceError::ReadFrontDisabled`] on a non-publishing
    /// service (e.g. a cluster's shard replica).
    fn read_view(&self, handle: PatternHandle) -> Result<Arc<ReadView>, ServiceError> {
        self.published_front(handle)?
            .read_view(handle)
            .map_err(|_| ServiceError::UnknownHandle(handle))
    }

    /// Events arrive in `result_version` order, gap-free (a slow consumer
    /// gets a coalesced [`crate::SubEvent::Lagged`]); deregistration, or
    /// dropping the service, delivers a final [`crate::SubEvent::Closed`].
    /// Errors with [`ServiceError::ReadFrontDisabled`] on a non-publishing
    /// service.
    fn subscribe(&self, handle: PatternHandle) -> Result<Subscription, ServiceError> {
        self.published_front(handle)?
            .subscribe(handle)
            .map_err(|_| ServiceError::UnknownHandle(handle))
    }

    fn reader(&self) -> ReadFront {
        self.front.clone()
    }
}

/// Parallel tasks the refresh phase actually spawns for `k` sessions
/// under the `refresh_threads` knob (`0` = sequential baseline = one
/// lane). Sessions are dealt in contiguous chunks of `⌈k / min(threads,
/// k)⌉`, so the spawned-task count can be *below* the requested thread
/// count (e.g. 4 sessions over 3 requested lanes → chunks of 2 → 2
/// tasks) — this reports the real number, which is what `TickStats`
/// consumers tune against.
fn refresh_lanes(refresh_threads: usize, k: usize) -> usize {
    if refresh_threads == 0 || k <= 1 {
        return 1;
    }
    let chunk = k.div_ceil(refresh_threads.min(k));
    k.div_ceil(chunk)
}

/// One pattern's refresh outcome, produced on whichever lane ran it.
struct RefreshOutcome {
    handle: PatternHandle,
    stats: gpnm_engine::pipeline::RefreshStats,
    delta: MatchDelta,
    refresh_ns: u64,
    strategy: RefreshStrategy,
}

/// Refresh every session against the post-commit graph/index, sequentially
/// (`refresh_threads == 0`) or fanned out in contiguous chunks in one
/// [`WorkerPool::scope`]. The two paths run the same per-session code on the
/// same inputs, so their outputs are bitwise identical — asserted by the
/// cluster equivalence proptests.
fn refresh_sessions<B: SlenBackend>(
    graph: &DataGraph,
    index: &B,
    sessions: &mut [(PatternHandle, PatternSession)],
    plans: &[RepairPlan],
    committed: bool,
    refresh_threads: usize,
    parent: &tracing::Span,
) -> Vec<RefreshOutcome> {
    // Kept only for the signature `gpnm-bench` also calls: with one folded
    // plan there is nothing to eliminate.
    let no_elimination = SharedElimination::detect(&[]);
    let refresh_one = |(handle, sess): &mut (PatternHandle, PatternSession),
                       plan: &RepairPlan|
     -> RefreshOutcome {
        // Explicit parenting: under pool fan-out this closure runs on a
        // worker thread whose contextual span stack is empty, so the
        // pattern span names the refresh span as parent directly — the
        // trace nests identically on the sequential and parallel paths.
        let span = tracing::span!(
            parent: parent,
            tracing::Level::DEBUG,
            "pattern_refresh",
            handle = handle.id(),
            strategy = sess.strategy.name(),
        );
        let _entered = span.enter();
        let t = Instant::now();
        let prev = sess.result.visible();
        let stats = refresh_pattern_strategy(
            sess.strategy,
            &sess.pattern,
            graph,
            index,
            sess.semantics,
            &mut sess.result,
            // An empty reduced batch refreshes from no plan: no repair pass.
            if committed {
                std::slice::from_ref(plan)
            } else {
                &[]
            },
            &no_elimination,
        );
        sess.version += 1;
        tracing::event!(
            tracing::Level::TRACE,
            "pattern_refreshed",
            repairs = stats.repair_calls,
        );
        RefreshOutcome {
            handle: *handle,
            stats,
            delta: sess.result.delta_from(&prev, sess.version),
            refresh_ns: ns64(t.elapsed()),
            strategy: sess.strategy,
        }
    };

    let lanes = refresh_lanes(refresh_threads, sessions.len());
    if lanes <= 1 || sessions.len() <= 1 {
        return sessions
            .iter_mut()
            .zip(plans.iter())
            .map(|(entry, plan)| refresh_one(entry, plan))
            .collect();
    }

    // Chunked fan-out: one task per lane over contiguous session slices,
    // each writing into its own pre-allocated outcome slot. `chunks_mut`
    // hands every task a disjoint `&mut` view, so no locking is needed;
    // the pool scope joins all tasks before the borrows end.
    let mut slots: Vec<Option<RefreshOutcome>> = Vec::new();
    slots.resize_with(sessions.len(), || None);
    let chunk = sessions.len().div_ceil(lanes);
    WorkerPool::global().scope(|scope| {
        for ((session_chunk, plan_chunk), slot_chunk) in sessions
            .chunks_mut(chunk)
            .zip(plans.chunks(chunk))
            .zip(slots.chunks_mut(chunk))
        {
            let refresh_one = &refresh_one;
            scope.spawn(move || {
                for ((entry, plan), slot) in session_chunk
                    .iter_mut()
                    .zip(plan_chunk.iter())
                    .zip(slot_chunk.iter_mut())
                {
                    *slot = Some(refresh_one(entry, plan));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every chunk task filled its slots"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_distance::SparseIndex;
    use gpnm_graph::paper::fig1;
    use gpnm_graph::GraphError;
    use gpnm_updates::{DataUpdate, PatternUpdate};

    #[test]
    fn register_apply_deregister_lifecycle() {
        let f = fig1();
        let mut service = GpnmService::<SparseIndex>::new(f.graph.clone());
        assert_eq!(service.pattern_count(), 0);
        let h = service
            .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
            .expect("register");
        assert_eq!(service.pattern_count(), 1);
        assert_eq!(service.result_version(h).unwrap(), 0);
        // Initial result equals a direct match.
        let direct = match_graph(
            &f.pattern,
            &f.graph,
            &SparseIndex::build(&f.graph, &SlenRequirements::of_pattern(&f.pattern)),
            MatchSemantics::Simulation,
        );
        assert_eq!(service.result(h).unwrap(), &direct);

        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        let report = service.apply(&batch).expect("valid batch");
        assert_eq!(report.tick, 1);
        assert_eq!(report.updates_applied, 1);
        assert!(report.slen_changes > 0);
        assert_eq!(service.result_version(h).unwrap(), 1);
        assert_eq!(report.delta_for(h).unwrap().result_version, 1);

        service.deregister(h).expect("deregister");
        assert_eq!(service.pattern_count(), 0);
        assert_eq!(
            service.result(h),
            Err(ServiceError::UnknownHandle(h)),
            "stale handle is a typed error"
        );
        assert_eq!(service.backend().resident_rows(), 0, "rows reclaimed");
    }

    #[test]
    fn dropping_the_service_closes_its_subscriptions() {
        let f = fig1();
        let mut service = GpnmService::<SparseIndex>::new(f.graph.clone());
        let h = service
            .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
            .unwrap();
        let sub = service.subscribe(h).unwrap();
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        service.apply(&batch).unwrap();

        // A clone's front is its own: dropping the clone closes only the
        // streams taken from it.
        let clone = service.clone();
        let clone_sub = clone.subscribe(h).unwrap();
        drop(clone);
        let wait = std::time::Duration::from_millis(200);
        assert_eq!(clone_sub.recv_timeout(wait), Some(crate::SubEvent::Closed));
        assert!(service.read_view(h).is_ok(), "original front untouched");

        drop(service);
        assert!(
            matches!(sub.recv_timeout(wait), Some(crate::SubEvent::Delta(d)) if d.result_version == 1),
            "the queued delta drains first"
        );
        assert_eq!(sub.recv_timeout(wait), Some(crate::SubEvent::Closed));
    }

    #[test]
    fn pattern_updates_are_rejected_with_position() {
        let f = fig1();
        let mut service = GpnmService::<SparseIndex>::new(f.graph.clone());
        service
            .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
            .unwrap();
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        batch.push(PatternUpdate::DeleteEdge {
            from: f.p_pm,
            to: f.p_se,
        });
        let err = service.apply(&batch).expect_err("pattern update refused");
        assert_eq!(err, ServiceError::PatternUpdateInBatch { index: 1 });
        assert_eq!(service.tick(), 0, "nothing applied");
        assert!(!service.graph().has_edge(f.se1, f.te2));
        // The prevalidated seam refuses pattern updates the same typed,
        // mutation-free way — it only skips *data* validation.
        let err = service
            .apply_prevalidated(&batch)
            .expect_err("pattern update refused on the prevalidated seam too");
        assert_eq!(err, ServiceError::PatternUpdateInBatch { index: 1 });
        assert_eq!(service.tick(), 0, "nothing applied");
        assert!(!service.graph().has_edge(f.se1, f.te2));
    }

    #[test]
    fn invalid_batches_are_atomic() {
        let f = fig1();
        let mut service = GpnmService::<SparseIndex>::new(f.graph.clone());
        let h = service
            .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
            .unwrap();
        let before = service.result(h).unwrap().clone();
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        }); // fine alone
        batch.push(DataUpdate::InsertEdge {
            from: f.pm1,
            to: f.se2, // duplicate
        });
        let err = service.apply(&batch).expect_err("duplicate edge");
        assert_eq!(
            err,
            ServiceError::InvalidBatch(GraphError::DuplicateEdge(f.pm1, f.se2))
        );
        assert!(!service.graph().has_edge(f.se1, f.te2), "no partial apply");
        assert_eq!(service.result(h).unwrap(), &before);
        // Still usable afterwards.
        let mut good = UpdateBatch::new();
        good.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        service.apply(&good).expect("valid batch after rejection");
    }

    #[test]
    fn builder_guards_dense_memory() {
        let f = fig1();
        // An absurdly small budget refuses even the 8-node dense build.
        let err = GpnmService::builder()
            .backend(BackendKind::Partitioned)
            .max_index_gb(1.0e-9)
            .build(f.graph.clone())
            .expect_err("tiny budget");
        assert!(matches!(err, ServiceError::IndexTooLarge { .. }));
        // Sparse is never refused.
        let service = GpnmService::builder()
            .backend(BackendKind::Sparse)
            .max_index_gb(1.0e-9)
            .build(f.graph.clone())
            .expect("sparse ignores the dense budget");
        assert_eq!(service.backend().backend_kind(), BackendKind::Sparse);
        // Nonsense budgets are a typed error, not a silent pass.
        assert!(matches!(
            GpnmService::builder()
                .max_index_gb(f64::NAN)
                .build(f.graph.clone()),
            Err(ServiceError::InvalidConfig(_))
        ));
        assert!(GpnmService::builder().build(f.graph).is_ok());
    }

    #[test]
    fn empty_pattern_is_refused() {
        let f = fig1();
        let mut service = GpnmService::<SparseIndex>::new(f.graph);
        assert_eq!(
            service.register_pattern(PatternGraph::new(), MatchSemantics::Simulation),
            Err(ServiceError::EmptyPattern)
        );
    }

    #[test]
    fn parallel_refresh_matches_sequential_bitwise() {
        let f = fig1();
        let mut seq = GpnmService::<SparseIndex>::new(f.graph.clone());
        let mut par = GpnmService::<SparseIndex>::new(f.graph.clone());
        par.set_refresh_threads(4);
        assert_eq!(par.refresh_threads(), 4);
        let mut handles = Vec::new();
        for semantics in [MatchSemantics::Simulation, MatchSemantics::DualSimulation] {
            let a = seq.register_pattern(f.pattern.clone(), semantics).unwrap();
            let b = par.register_pattern(f.pattern.clone(), semantics).unwrap();
            assert_eq!(a, b);
            handles.push(a);
        }
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        batch.push(DataUpdate::DeleteEdge {
            from: f.se1,
            to: f.s1,
        });
        let seq_report = seq.apply(&batch).expect("valid");
        let par_report = par.apply(&batch).expect("valid");
        assert_eq!(seq_report.stats.refresh_lanes, 1);
        assert_eq!(par_report.stats.refresh_lanes, 2, "capped at k sessions");
        for &h in &handles {
            assert_eq!(seq.result(h).unwrap(), par.result(h).unwrap());
            assert_eq!(
                seq_report.delta_for(h).unwrap(),
                par_report.delta_for(h).unwrap()
            );
        }
    }

    #[test]
    fn refresh_lanes_reports_actual_tasks() {
        assert_eq!(refresh_lanes(0, 8), 1, "sequential baseline");
        assert_eq!(refresh_lanes(4, 0), 1);
        assert_eq!(refresh_lanes(4, 1), 1);
        assert_eq!(refresh_lanes(3, 4), 2, "chunks of 2 → 2 tasks, not 3");
        assert_eq!(refresh_lanes(3, 5), 3, "chunks 2+2+1");
        assert_eq!(refresh_lanes(16, 4), 4);
    }

    #[test]
    fn tick_stats_account_the_tick() {
        let f = fig1();
        let mut service = GpnmService::<SparseIndex>::new(f.graph.clone());
        let h = service
            .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
            .unwrap();
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        let report = service.apply(&batch).expect("valid");
        let stats = &report.stats;
        assert_eq!(stats.per_pattern_refresh_ns.len(), 1);
        assert_eq!(stats.per_pattern_refresh_ns[0].0, h);
        let by_kind: u64 = stats.shared_repair_by_kind_ns.iter().map(|e| e.1).sum();
        assert_eq!(stats.shared_repair_ns, by_kind);
        assert_eq!(stats.repair_calls, report.repair_calls);
        assert_eq!(
            stats.repair_calls,
            service.pattern_count(),
            "one merged pass per pattern"
        );
        assert!(stats.affected_nodes > 0, "the insert disturbed distances");
        assert!(stats.refresh_total_ns() >= stats.refresh_max_ns());
        let rendered = stats.render();
        assert!(rendered.contains("shared_repair"));
        assert!(rendered.contains("pattern #0"));

        // Deleting the edge and inserting it back cancel in the reduction:
        // nothing commits, so no pass runs.
        let mut noop = UpdateBatch::new();
        noop.push(DataUpdate::DeleteEdge {
            from: f.se1,
            to: f.te2,
        });
        noop.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        let report = service.apply(&noop).expect("valid");
        assert_eq!(report.updates_applied, 0);
        assert_eq!(report.stats.repair_calls, 0);
    }

    #[test]
    fn tick_stats_count_the_candidates_grown() {
        // Under dual semantics TE2 is unmatched until SE1 -> TE2 brings an
        // SE within bound of it: the tick grows at least that candidate,
        // and a delete grows none.
        let f = fig1();
        let mut service = GpnmService::<SparseIndex>::new(f.graph.clone());
        let h = service
            .register_pattern(f.pattern.clone(), MatchSemantics::DualSimulation)
            .unwrap();
        assert!(!service.result(h).unwrap().contains(f.p_te, f.te2));
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        let report = service.apply(&batch).expect("valid");
        assert!(service.result(h).unwrap().contains(f.p_te, f.te2));
        let grown = report.stats.addition_candidates;
        assert!(grown >= 1, "(TE, TE2) was a candidate");
        assert!(report
            .stats
            .render()
            .contains(&format!("candidates={grown} ")));
        assert!(report
            .stats
            .to_json()
            .contains(&format!("\"addition_candidates\":{grown},")));

        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::DeleteEdge {
            from: f.se1,
            to: f.s1,
        });
        let report = service.apply(&batch).expect("valid");
        assert_eq!(report.stats.addition_candidates, 0, "deletes gain nothing");
    }

    #[test]
    fn handles_are_never_reissued() {
        let f = fig1();
        let mut service = GpnmService::<SparseIndex>::new(f.graph);
        let a = service
            .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
            .unwrap();
        service.deregister(a).unwrap();
        let b = service
            .register_pattern(f.pattern.clone(), MatchSemantics::DualSimulation)
            .unwrap();
        assert_ne!(a, b);
        assert!(service.result(a).is_err());
        assert!(service.result(b).is_ok());
    }
}
