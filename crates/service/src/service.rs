//! The continuous-query service: many standing patterns, one shared
//! single-pass repair per tick.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gpnm_distance::{
    AnyBackend, BackendKind, IncrementalIndex, IoStats, SlenBackend, SlenRequirements,
    DEFAULT_MAX_INDEX_GB,
};
use gpnm_engine::pipeline::{
    commit_data_update, push_data_update_gains, refresh_pattern, CommittedUpdate, RefreshStats,
};
use gpnm_graph::{DataGraph, NodeId, NodeSet, PatternGraph, PatternNodeId};
use gpnm_matcher::{match_graph, MatchDelta, MatchResult, MatchSemantics};
use gpnm_telemetry::{Counter, Gauge, Histogram};
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
}

/// Fine-grained accounting of where one tick spent its time — the
/// observability a serving deployment tunes shard counts against.
/// Printed by `gpnm replay --stats`.
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
    /// The per-pattern refresh phase, wall clock (it starts after the
    /// commit pass returns and refreshes the patterns one after another).
    pub refresh_ns: u64,
    /// Read-front publish + subscription fan-out (`0` on a non-publishing
    /// shard replica — the cluster publishes merged views itself).
    pub publish_ns: u64,
    /// Per-pattern refresh time (the repair, which also yields the delta), in
    /// registration order, keyed by the handle the host's caller holds (a
    /// cluster rewrites its shards' entries to cluster handles). Summed it
    /// is `refresh_ns` less the loop's own bookkeeping; the max entry names
    /// the slowest pattern.
    pub per_pattern_refresh_ns: Vec<(HandleId, u64)>,
    /// Always 1: the refresh runs on one lane. Kept only because
    /// `gpnm-bench` reads it; removed with ROADMAP D2(b).
    pub refresh_lanes: usize,
    /// Each pattern's refresh strategy name, in registration order: always
    /// `RefreshStrategy::default().name()`, the one refresh there is. Kept
    /// only because `gpnm-bench` reads it; removed with ROADMAP D2(b).
    pub per_pattern_strategy: Vec<(HandleId, &'static str)>,
    /// Always 0: a host has one refresh policy and nothing to switch. Kept
    /// only because `gpnm-bench` reads it; removed with ROADMAP D2(b).
    pub strategy_switches: u64,
    /// Repair passes actually run, summed over patterns.
    pub repair_calls: usize,
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

    /// The slowest single pattern's refresh time.
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

    /// Multi-line human rendering (the `--stats` output).
    pub fn render(&self) -> String {
        let by_kind = self.shared_repair_by_kind_ns.iter();
        let by_kind: Vec<String> = by_kind
            .map(|(kind, ns)| format!("{kind}={}µs", ns / 1_000))
            .collect();
        let mut out = format!(
            "  stats: reduce={}µs shared_repair={}µs [{}] refresh(Σ)={}µs \
             refresh(max)={}µs publish={}µs \
             repairs={} candidates={} affected={}",
            self.reduce_ns / 1_000,
            self.shared_repair_ns / 1_000,
            by_kind.join(" "),
            self.refresh_total_ns() / 1_000,
            self.refresh_max_ns() / 1_000,
            self.publish_ns / 1_000,
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
            .map(|&(handle, ns)| format!("{{\"handle\":{},\"refresh_ns\":{ns}}}", handle.raw()))
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
             \"repair_calls\":{},\"addition_candidates\":{},\"affected_nodes\":{},\
             \"backend_kind\":\"{}\",\
             \"resident_rows\":{},\"index_mem_bytes\":{},\"per_pattern\":[{}],\"io\":{}}}",
            self.reduce_ns,
            self.shared_repair_ns,
            by_kind.join(","),
            self.refresh_total_ns(),
            self.refresh_max_ns(),
            self.publish_ns,
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

/// Registry handles the service writes into — a tick record's series, the
/// index gauges and the registration histogram — resolved once per
/// process.
struct TickSeries {
    /// `gpnm_slen_repair_seconds`, one gauge per update kind, in
    /// [`CommittedUpdate::KINDS`] order.
    slen_repair_seconds: Vec<Arc<Gauge>>,
    resident_rows: Arc<Gauge>,
    index_mem_bytes: Arc<Gauge>,
    register_ns: Arc<Histogram>,
    ticks: Arc<Counter>,
    total_ns: Arc<Histogram>,
    reduce_ns: Arc<Histogram>,
    commit_ns: Arc<Histogram>,
    refresh_ns: Arc<Histogram>,
    publish_ns: Arc<Histogram>,
    pattern_refresh_ns: Arc<Histogram>,
    pattern_refreshes: Arc<Counter>,
    updates_applied: Arc<Counter>,
    repair_calls: Arc<Counter>,
    affected_nodes: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    pages_read: Arc<Counter>,
    pages_written: Arc<Counter>,
}

/// The process's [`TickSeries`].
fn series() -> &'static TickSeries {
    static SERIES: OnceLock<TickSeries> = OnceLock::new();
    let registry = gpnm_telemetry::global();
    SERIES.get_or_init(|| TickSeries {
        slen_repair_seconds: CommittedUpdate::KINDS
            .iter()
            .map(|&kind| registry.gauge_with("gpnm_slen_repair_seconds", &[("kind", kind)]))
            .collect(),
        resident_rows: registry.gauge("gpnm_index_resident_rows"),
        index_mem_bytes: registry.gauge("gpnm_index_mem_bytes"),
        register_ns: registry.histogram("gpnm_register_ns"),
        ticks: registry.counter("gpnm_ticks_total"),
        total_ns: registry.histogram("gpnm_tick_total_ns"),
        reduce_ns: registry.histogram("gpnm_tick_reduce_ns"),
        commit_ns: registry.histogram("gpnm_tick_commit_ns"),
        refresh_ns: registry.histogram("gpnm_tick_refresh_ns"),
        publish_ns: registry.histogram("gpnm_tick_publish_ns"),
        pattern_refresh_ns: registry.histogram("gpnm_pattern_refresh_ns"),
        pattern_refreshes: registry.counter("gpnm_pattern_refresh_total"),
        updates_applied: registry.counter("gpnm_updates_applied_total"),
        repair_calls: registry.counter("gpnm_repair_calls_total"),
        affected_nodes: registry.counter("gpnm_affected_nodes_total"),
        cache_hits: registry.counter("gpnm_paged_cache_hits_total"),
        cache_misses: registry.counter("gpnm_paged_cache_misses_total"),
        cache_evictions: registry.counter("gpnm_paged_cache_evictions_total"),
        pages_read: registry.counter("gpnm_paged_pages_read_total"),
        pages_written: registry.counter("gpnm_paged_pages_written_total"),
    })
}

/// Flush one finished tick into the global metrics registry: the values
/// written are the report's own, so the cumulative series and the tick's
/// [`TickStats`] cannot disagree. Called once per tick.
fn flush(report: &TickReport) {
    let f = series();
    let stats = &report.stats;
    f.ticks.inc();
    f.total_ns.observe(ns64(report.total_time));
    f.reduce_ns.observe(stats.reduce_ns);
    f.commit_ns.observe(stats.shared_repair_ns);
    for &(kind, ns) in &stats.shared_repair_by_kind_ns {
        // Cumulative seconds; a gauge because the registry's counters are
        // integers.
        let i = CommittedUpdate::KINDS.iter().position(|&k| k == kind);
        f.slen_repair_seconds[i.expect("a committed update kind")].add(ns as f64 / 1e9);
    }
    f.refresh_ns.observe(stats.refresh_ns);
    f.publish_ns.observe(stats.publish_ns);
    f.updates_applied.add(report.updates_applied as u64);
    f.repair_calls.add(stats.repair_calls as u64);
    f.affected_nodes.add(stats.affected_nodes as u64);
    for &(_, ns) in &stats.per_pattern_refresh_ns {
        f.pattern_refresh_ns.observe(ns);
    }
    f.pattern_refreshes
        .add(stats.per_pattern_refresh_ns.len() as u64);
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
    publishing: bool,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            kind: BackendKind::Partitioned,
            max_index_gb: DEFAULT_MAX_INDEX_GB,
            cache_budget_mb: None,
            publishing: true,
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

    /// Admission budget for the dense backend, in GiB (default
    /// [`DEFAULT_MAX_INDEX_GB`], 4):
    /// [`ServiceBuilder::build`] refuses a dense matrix whose estimate
    /// exceeds it, instead of handing the OOM killer a 40 GiB allocation.
    /// It bounds nothing else — the bounded-row backends are never
    /// refused, and a paged cache is sized by
    /// [`ServiceBuilder::cache_budget_mb`] alone. See
    /// [`BackendKind::admit`].
    pub fn max_index_gb(mut self, gb: impl Into<f64>) -> Self {
        self.max_index_gb = gb.into();
        self
    }

    /// Hot-row cache budget for the paged backend, in MiB. Unset, the
    /// cache keeps [`gpnm_distance::PagedConfig`]'s default (64 MiB).
    /// Ignored by the in-memory backends.
    pub fn cache_budget_mb(mut self, mb: impl Into<f64>) -> Self {
        self.cache_budget_mb = Some(mb.into());
        self
    }

    /// A no-op: the refresh has one policy and runs on one lane. Kept
    /// only because `gpnm-bench` calls it; removed with ROADMAP D2(b).
    pub fn adaptive(self, _on: bool) -> Self {
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
        let reqs = SlenRequirements::empty();
        let (kind, gb, mb) = (self.kind, self.max_index_gb, self.cache_budget_mb);
        let index =
            AnyBackend::configured(kind, &graph, &reqs, gb, mb).map_err(ServiceError::Budget)?;
        let mut service = GpnmService::from_parts(graph, index, reqs);
        service.publishing = self.publishing;
        Ok(service)
    }
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
    front: ReadFront,
    publishing: bool,
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
            front: ReadFront::new(),
            publishing: self.publishing,
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
            front: ReadFront::new(),
            publishing: true,
        }
    }

    /// Publish every session's current state to (a fresh) front — the
    /// clone path, and harmless elsewhere.
    fn republish_all(&self) {
        if !self.publishing {
            return;
        }
        for (handle, sess) in &self.sessions {
            self.front
                .publish(*handle, ReadView::of(&sess.result, sess.version, self.tick));
        }
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
            refresh_lanes: 1,
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
        // and repairs the backend exactly once. Its `Aff_N` (and created
        // node) join the tick's one verify set, whatever the pattern; each
        // pattern appends only its root gains, derived from the shared
        // delta *at this update's post-state* — precisely where the
        // single-pattern engine derives its plan. The refresh then runs
        // one pass per pattern over the union (see `refresh_pattern`).
        let commit_span = tracing::span!(tracing::Level::DEBUG, "commit", updates = reduced.len());
        let commit_entered = commit_span.enter();
        let mut verify = NodeSet::new();
        let mut gains: Vec<Vec<(PatternNodeId, NodeId)>> = vec![Vec::new(); self.sessions.len()];
        let mut slen_changes = 0;
        for u in reduced.updates() {
            let Update::Data(du) = u else {
                unreachable!("pattern updates rejected above");
            };
            let t = Instant::now();
            let cu = commit_data_update(&mut self.graph, &mut self.index, du)?;
            stats.add_commit(cu.kind(), ns64(t.elapsed()));
            slen_changes += cu.delta.len();
            stats.affected_nodes += cu.delta.affected.len();
            verify.union_with(&cu.delta.affected);
            verify.extend(cu.created);
            for ((_, sess), gains) in self.sessions.iter().zip(gains.iter_mut()) {
                let (pattern, graph, result) = (&sess.pattern, &self.graph, &sess.result);
                push_data_update_gains(du, &cu.delta, pattern, graph, result, cu.created, gains);
            }
        }
        drop(commit_entered);

        // Per-pattern refresh, one pattern after another over the
        // now read-only graph and index; each repair reports its own
        // delta. An empty reduced batch runs no repair pass and leaves
        // every set as it was.
        let t = Instant::now();
        let refresh_span = tracing::span!(tracing::Level::DEBUG, "refresh");
        let refresh_entered = refresh_span.enter();
        let committed = !reduced.is_empty();
        let mut deltas = Vec::with_capacity(self.sessions.len());
        for ((handle, sess), gains) in self.sessions.iter_mut().zip(&gains) {
            let span = tracing::span!(
                tracing::Level::DEBUG,
                "pattern_refresh",
                handle = handle.id(),
            );
            let _entered = span.enter();
            let t = Instant::now();
            let id = HandleId::from(*handle);
            let refreshed = if committed {
                refresh_pattern(
                    &sess.pattern,
                    &self.graph,
                    &self.index,
                    sess.semantics,
                    &mut sess.result,
                    &verify,
                    gains,
                )
            } else {
                RefreshStats::default()
            };
            sess.version += 1;
            let delta = MatchDelta {
                result_version: sess.version,
                ..refreshed.delta
            };
            deltas.push((*handle, delta));
            stats.per_pattern_refresh_ns.push((id, ns64(t.elapsed())));
            stats.repair_calls += refreshed.repair_calls;
            stats.addition_candidates += refreshed.candidates;
            let strategy = gpnm_engine::RefreshStrategy::default().name();
            stats.per_pattern_strategy.push((id, strategy));
        }
        drop(refresh_entered);
        stats.refresh_ns = ns64(t.elapsed());

        self.tick += 1;

        // Publish the committed epoch: every pattern's new view is
        // swapped in atomically (per handle), then the tick's deltas fan
        // out to subscribers. Readers were served the previous epoch for
        // the whole tick and switch to this one at the swap — never a
        // half-refreshed state. A view shares every set with the live
        // result, so publishing copies nothing; the next tick's repair
        // copies the sets it writes, and only those.
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
                        ReadView::of(&sess.result, sess.version, self.tick),
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
        stats.backend_kind = self.index.kind();
        stats.resident_rows = self.index.resident_rows();
        stats.index_mem_bytes = self.index.mem_bytes();
        // A non-publishing replica is one shard of a cluster: its narrowed
        // index is a share of the total, which the cluster reports itself.
        if self.publishing {
            let f = series();
            f.resident_rows.set(stats.resident_rows as f64);
            f.index_mem_bytes.set(stats.index_mem_bytes as f64);
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
    /// Traced as a `register` span with a `rows` child (the requirement
    /// sync) and a `match` child (the initial match), and timed into
    /// `gpnm_register_ns`.
    fn register_pattern(
        &mut self,
        pattern: PatternGraph,
        semantics: MatchSemantics,
    ) -> Result<PatternHandle, ServiceError> {
        if pattern.node_count() == 0 {
            return Err(ServiceError::EmptyPattern);
        }
        let span = tracing::span!(
            tracing::Level::INFO,
            "register",
            pattern_nodes = pattern.node_count(),
        );
        let _entered = span.enter();
        let start = Instant::now();
        self.reqs.absorb(&SlenRequirements::of_pattern(&pattern));
        {
            let span = tracing::span!(tracing::Level::DEBUG, "rows");
            let _entered = span.enter();
            self.index.sync_requirements(&self.graph, &self.reqs);
        }
        let result = {
            let span = tracing::span!(tracing::Level::DEBUG, "match");
            let _entered = span.enter();
            match_graph(&pattern, &self.graph, &self.index, semantics)
        };
        series().register_ns.observe(ns64(start.elapsed()));
        let handle = PatternHandle(HandleId(self.next_handle));
        self.next_handle += 1;
        if self.publishing {
            self.front
                .publish(handle, ReadView::of(&result, 0, self.tick));
        }
        self.sessions.push((
            handle,
            PatternSession {
                pattern,
                semantics,
                result,
                version: 0,
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

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_distance::{BudgetError, PagedConfig, SparseIndex};
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
        assert!(matches!(
            err,
            ServiceError::Budget(BudgetError::DenseTooLarge { .. })
        ));
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
            Err(ServiceError::Budget(BudgetError::Invalid { .. }))
        ));
        assert!(GpnmService::builder().build(f.graph).is_ok());
    }

    #[test]
    fn unset_cache_budget_keeps_the_paged_default() {
        let f = fig1();
        let cache_budget = |builder: ServiceBuilder| match builder
            .backend(BackendKind::Paged)
            .build(f.graph.clone())
            .expect("paged builds are never refused")
            .backend()
        {
            AnyBackend::Paged(paged) => paged.cache_budget(),
            other => unreachable!("built {}", other.kind()),
        };
        let default = PagedConfig::default().cache_budget_bytes;
        assert_eq!(cache_budget(GpnmService::builder()), default);
        // The dense budget does not size the cache.
        assert_eq!(
            cache_budget(GpnmService::builder().max_index_gb(16)),
            default
        );
        assert_eq!(
            cache_budget(GpnmService::builder().cache_budget_mb(2)),
            2 << 20
        );
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
        assert_eq!(stats.per_pattern_refresh_ns[0].0, h.into());
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

    #[test]
    fn a_published_view_shares_the_sets_a_tick_left_unwritten() {
        let f = fig1();
        let mut service = GpnmService::<SparseIndex>::new(f.graph.clone());
        let h = service
            .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
            .unwrap();
        let before = service.read_view(h).unwrap();
        // TE2 leaves TE and nothing else. A delete admits no candidate, so
        // the repair writes exactly the sets whose members it removes.
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::DeleteNode { node: f.te2 });
        let report = service.apply(&batch).unwrap();
        let after = service.read_view(h).unwrap();
        let live = service.result(h).unwrap();
        let delta = report.delta_for(h).unwrap();
        let same = |a: &MatchResult, b: &MatchResult, p| std::ptr::eq(a.set(p), b.set(p));
        let (mut shared, mut copied) = (0, 0);
        for p in f.pattern.nodes() {
            assert!(
                same(&after.result, live, p),
                "a fresh view shares every set"
            );
            if delta.removed.iter().any(|&(q, _)| q == p) {
                assert!(!same(&before.result, live, p), "{p:?} was written");
                copied += 1;
            } else {
                assert!(same(&before.result, live, p), "{p:?} was not written");
                shared += 1;
            }
        }
        assert_eq!((shared, copied), (3, 1));
        assert_eq!(delta.apply_to(&before.result), after.result);
    }
}
