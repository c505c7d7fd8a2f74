//! The sharded serving layer: k [`GpnmService`] shards behind one
//! cluster-level register/apply surface, with parallel fan-out ticks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpnm_distance::{AnyBackend, BackendKind, SlenBackend, SlenRequirements};
use gpnm_graph::{DataGraph, PatternGraph};
use gpnm_matcher::{MatchDelta, MatchResult, MatchSemantics};
use gpnm_pool::WorkerPool;
use gpnm_service::{
    GpnmService, HandleId, PatternHandle, PatternHost, ReadFront, ReadView, ServiceError,
    Subscription, TickOutcome, TickReport,
};
use gpnm_updates::UpdateBatch;

use crate::error::ClusterError;
use crate::placement::{LeastLoaded, ShardLoad, ShardPlacement};

/// Opaque cluster-wide id of one registered standing pattern. Like the
/// service's [`PatternHandle`], handles are unique for the cluster's
/// lifetime and never reissued; unlike it, a cluster handle also pins the
/// shard the pattern lives on (query it with
/// [`GpnmCluster::shard_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterHandle(HandleId);

impl ClusterHandle {
    /// The numeric id (stable, ascending in registration order).
    pub fn id(&self) -> u64 {
        self.0.raw()
    }
}

impl From<ClusterHandle> for HandleId {
    fn from(handle: ClusterHandle) -> HandleId {
        handle.0
    }
}

impl std::fmt::Display for ClusterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// One pattern migration a [`GpnmCluster::rebalance`] pass performed.
/// The cluster handle is stable across the move — readers, subscriptions
/// and the delta stream never notice it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceMove {
    /// The migrated pattern.
    pub handle: ClusterHandle,
    /// Shard the pattern left.
    pub from: usize,
    /// Shard the pattern now lives on.
    pub to: usize,
    /// Rows only this pattern kept resident on the source shard —
    /// reclaimed by the move.
    pub reclaimed_rows: usize,
    /// Rows the move added to the target shard's index.
    pub added_rows: usize,
}

impl std::fmt::Display for RebalanceMove {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} shard {} → {} (reclaimed {} rows, added {})",
            self.handle, self.from, self.to, self.reclaimed_rows, self.added_rows
        )
    }
}

/// What one [`GpnmCluster::apply`] tick did: the merged view of every
/// shard's [`TickReport`], with deltas keyed by stable cluster handles in
/// cluster registration order.
#[derive(Debug, Clone)]
pub struct ClusterTickReport {
    /// 1-based cluster tick number.
    pub tick: u64,
    /// Updates in the submitted batch.
    pub updates_submitted: usize,
    /// Updates surviving net-effect reduction (identical on every shard —
    /// reduction is pattern-independent and the replicas share one
    /// trajectory).
    pub updates_applied: usize,
    /// Distance pairs repaired, summed across shards. Narrowed shard
    /// indices make this *less* than `shards ×` a single union index's
    /// changes — the per-shard isolation win.
    pub slen_changes: usize,
    /// Eliminated repair passes, summed across shards and patterns.
    pub eliminated: usize,
    /// Repair passes run, summed across shards and patterns.
    pub repair_calls: usize,
    /// End-to-end wall time of the fan-out tick.
    pub total_time: Duration,
    /// Wall-clock unix milliseconds when the tick finished (sampled from
    /// the telemetry clock) — the `ts_ms` of this tick's `--stats-json`
    /// line.
    pub ts_ms: u64,
    /// Per-pattern deltas, in cluster registration order.
    pub deltas: Vec<(ClusterHandle, MatchDelta)>,
    /// Each shard's own report, in shard order — per-shard `TickStats`
    /// live here.
    pub shard_reports: Vec<TickReport>,
    /// Pattern migrations the tick's auto-rebalance pass performed
    /// (empty unless `rebalance_every` fired this tick).
    pub rebalanced: Vec<RebalanceMove>,
}

impl TickOutcome for ClusterTickReport {
    type Handle = ClusterHandle;

    fn tick(&self) -> u64 {
        self.tick
    }

    fn deltas(&self) -> &[(ClusterHandle, MatchDelta)] {
        &self.deltas
    }

    fn summary(&self) -> String {
        format!(
            "tick {}: ΔG={} (net {}), shards={}, slen_changes={}, patterns={}, +{} −{}, total={:?}",
            self.tick,
            self.updates_submitted,
            self.updates_applied,
            self.shard_reports.len(),
            self.slen_changes,
            self.deltas.len(),
            self.total_added(),
            self.total_removed(),
            self.total_time,
        )
    }

    fn render_stats(&self) -> String {
        let mut out = self
            .shard_reports
            .iter()
            .enumerate()
            .map(|(shard, report)| format!("  shard {shard}:\n{}", report.render_stats()))
            .collect::<Vec<_>>()
            .join("\n");
        for m in &self.rebalanced {
            out.push_str(&format!("\n  rebalance: {m}"));
        }
        out
    }

    fn stats_json(&self) -> String {
        let shards: Vec<String> = self
            .shard_reports
            .iter()
            .map(|r| r.stats.to_json())
            .collect();
        let moves: Vec<String> = self
            .rebalanced
            .iter()
            .map(|m| {
                format!(
                    "{{\"handle\":{},\"from\":{},\"to\":{},\"reclaimed_rows\":{},\"added_rows\":{}}}",
                    m.handle.id(),
                    m.from,
                    m.to,
                    m.reclaimed_rows,
                    m.added_rows
                )
            })
            .collect();
        format!(
            "{{\"tick\":{},\"ts_ms\":{},\"updates_submitted\":{},\"updates_applied\":{},\
             \"slen_changes\":{},\"added\":{},\"removed\":{},\"total_ns\":{},\
             \"rebalanced\":[{}],\"shards\":[{}]}}",
            self.tick,
            self.ts_ms,
            self.updates_submitted,
            self.updates_applied,
            self.slen_changes,
            self.total_added(),
            self.total_removed(),
            self.total_time.as_nanos(),
            moves.join(","),
            shards.join(","),
        )
    }
}

/// Fallible, builder-style construction of a [`GpnmCluster`].
///
/// ```
/// use gpnm_cluster::GpnmCluster;
/// use gpnm_distance::BackendKind;
///
/// let fig = gpnm_graph::paper::fig1();
/// let cluster = GpnmCluster::builder()
///     .shards(2)
///     .backend(BackendKind::Sparse)
///     .refresh_threads(2)
///     .build(fig.graph)
///     .expect("sparse builds are never refused");
/// assert_eq!(cluster.shard_count(), 2);
/// ```
#[derive(Debug)]
pub struct ClusterBuilder {
    shards: usize,
    kind: BackendKind,
    max_index_gb: f64,
    cache_budget_mb: Option<f64>,
    refresh_threads: usize,
    placement: Box<dyn ShardPlacement>,
    adaptive: bool,
    rebalance_every: Option<u64>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            shards: 1,
            kind: BackendKind::Sparse,
            max_index_gb: 4.0,
            cache_budget_mb: None,
            refresh_threads: 0,
            placement: Box::new(LeastLoaded::new()),
            adaptive: false,
            rebalance_every: None,
        }
    }
}

impl ClusterBuilder {
    /// A builder with the defaults: 1 shard, sparse backend (sharding
    /// exists to bound per-shard index size, which only a requirement-
    /// narrowed backend delivers), 4 GiB dense budget, least-loaded
    /// placement, sequential refresh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of shards (must be ≥ 1). Each shard owns a full replica of
    /// the data graph and an index narrowed to its own patterns.
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = k;
        self
    }

    /// Select every shard's `SLen` backend.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.kind = kind;
        self
    }

    /// Per-shard dense-index memory budget, in GiB (see
    /// [`gpnm_service::ServiceBuilder::max_index_gb`]).
    pub fn max_index_gb(mut self, gb: impl Into<f64>) -> Self {
        self.max_index_gb = gb.into();
        self
    }

    /// Per-shard paged-backend cache budget, in MiB (see
    /// [`gpnm_service::ServiceBuilder::cache_budget_mb`]). Each shard
    /// builds its own paged backend, so every shard gets its own spill
    /// file and a cache of this size.
    pub fn cache_budget_mb(mut self, mb: impl Into<f64>) -> Self {
        self.cache_budget_mb = Some(mb.into());
        self
    }

    /// Per-shard refresh parallelism (see
    /// [`gpnm_service::ServiceBuilder::refresh_threads`]). The two levels
    /// compose: a tick fans out across shards, and each shard fans its
    /// patterns out across this many further lanes in a nested
    /// [`gpnm_pool::WorkerPool::scope`], which opens threads of its own.
    pub fn refresh_threads(mut self, n: usize) -> Self {
        self.refresh_threads = n;
        self
    }

    /// Plug in a placement strategy (default [`LeastLoaded`]).
    pub fn placement(mut self, placement: impl ShardPlacement + 'static) -> Self {
        self.placement = Box::new(placement);
        self
    }

    /// Enable the refresh-parallelism tuner on every shard (see
    /// [`gpnm_service::ServiceBuilder::adaptive`]): per-shard refresh
    /// parallelism is then driven by live tick stats instead of the fixed
    /// configuration.
    pub fn adaptive(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// Run a [`GpnmCluster::rebalance`] pass automatically after every
    /// `n`th tick (`n ≥ 1`; [`ClusterBuilder::build`] refuses 0). Off by
    /// default; `rebalance()` can always be called by hand.
    pub fn rebalance_every(mut self, n: u64) -> Self {
        self.rebalance_every = Some(n);
        self
    }

    /// Build the cluster over `graph`: every shard gets its own replica
    /// and an (initially empty-requirement) backend of the configured
    /// kind.
    pub fn build(self, graph: DataGraph) -> Result<GpnmCluster, ClusterError> {
        if self.shards == 0 {
            return Err(ClusterError::InvalidConfig(
                "a cluster needs at least one shard".to_owned(),
            ));
        }
        if self.rebalance_every == Some(0) {
            return Err(ClusterError::InvalidConfig(
                "rebalance_every needs a period of at least one tick".to_owned(),
            ));
        }
        let mut shards = Vec::with_capacity(self.shards);
        for _ in 0..self.shards {
            // Shard replicas never publish their own read front-end:
            // nothing may become observable until *every* shard has
            // committed the tick, so the cluster publishes the merged
            // views itself after the fan-out joins — per-tick
            // publication stays atomic across shards.
            let mut builder = GpnmService::builder()
                .backend(self.kind)
                .max_index_gb(self.max_index_gb)
                .refresh_threads(self.refresh_threads)
                .adaptive(self.adaptive)
                .publishing(false);
            if let Some(mb) = self.cache_budget_mb {
                builder = builder.cache_budget_mb(mb);
            }
            let service = builder.build(graph.clone())?;
            shards.push(service);
        }
        Ok(GpnmCluster {
            shards,
            placement: self.placement,
            patterns: Vec::new(),
            next_handle: 0,
            tick: 0,
            front: ReadFront::new(),
            rebalance_every: self.rebalance_every,
        })
    }
}

/// A sharded GPNM serving cluster: k [`GpnmService`] shards, each with its
/// own [`DataGraph`] replica and an index narrowed to only *that shard's*
/// patterns' [`SlenRequirements`], behind one register/apply surface.
///
/// Where a single [`GpnmService`] pays one shared repair pass over the
/// *union* of every registered pattern's requirements,
/// [`GpnmCluster::apply`] validates the batch once and fans it out to all
/// shards **in parallel** in one [`gpnm_pool::WorkerPool::scope`]; each
/// shard commits the same batch to its replica and repairs only its own
/// narrowed index, then refreshes its patterns (themselves parallel when
/// `refresh_threads > 0`). The speedup composes twice:
///
/// * **across shards** — k repair passes run concurrently, and each is
///   *smaller* than the union pass (a shard's index only keeps rows for
///   its own patterns' labels, truncated at its own patterns' max bound —
///   one deep or label-hungry pattern no longer taxes every other
///   pattern's repair);
/// * **within a shard** — per-pattern refresh fans out in a nested scope.
///
/// Per-pattern results are bitwise identical to a single service (and to
/// k independent engines) — asserted by the `cluster_equivalence` proptest
/// suite; sharding changes *cost and isolation*, not answers. The price is
/// graph memory: every shard owns a replica (distance index memory, the
/// dominant term, is *partitioned*, not replicated).
#[derive(Debug)]
pub struct GpnmCluster {
    shards: Vec<GpnmService<AnyBackend>>,
    placement: Box<dyn ShardPlacement>,
    /// Registration-ordered routing table: cluster handle → (shard,
    /// shard-local handle).
    patterns: Vec<(ClusterHandle, usize, PatternHandle)>,
    next_handle: u64,
    tick: u64,
    /// The cluster-level read front-end. Shards run with publishing off;
    /// the cluster publishes every pattern's merged view here only after
    /// the whole fan-out has joined, so readers never observe a tick
    /// some shard has not committed yet.
    front: ReadFront,
    /// Auto-rebalance period — a [`GpnmCluster::rebalance`] pass runs
    /// after every `n`th tick when set.
    rebalance_every: Option<u64>,
}

impl Drop for GpnmCluster {
    /// Dropping the cluster ends every stream on its front: each live
    /// subscription drains its queued deltas, then receives a final
    /// [`SubEvent::Closed`](gpnm_service::SubEvent::Closed). The shards
    /// publish nothing of their own.
    fn drop(&mut self) {
        for &(handle, _, _) in &self.patterns {
            self.front.close(handle);
        }
    }
}

impl GpnmCluster {
    /// Start configuring a cluster — see [`ClusterBuilder`].
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of registered patterns across all shards.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Batches applied so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Handles of every registered pattern, in registration order.
    pub fn handles(&self) -> Vec<ClusterHandle> {
        self.patterns.iter().map(|&(h, _, _)| h).collect()
    }

    /// The last *published* snapshot of `handle` — the same view every
    /// concurrent reader holding [`GpnmCluster::reader`] sees. Published
    /// only after **all** shards commit a tick, so it is always a whole
    /// cluster epoch.
    pub fn read_view(&self, handle: ClusterHandle) -> Result<Arc<ReadView>, ClusterError> {
        self.route(handle)?;
        self.front
            .read_view(handle)
            .map_err(|_| ClusterError::UnknownHandle(handle))
    }

    /// Subscribe to `handle`'s per-tick delta stream — same contract as
    /// [`GpnmService::subscribe`], fed from the cluster's post-fan-out
    /// publication.
    pub fn subscribe(&self, handle: ClusterHandle) -> Result<Subscription, ClusterError> {
        self.route(handle)?;
        self.front
            .subscribe(handle)
            .map_err(|_| ClusterError::UnknownHandle(handle))
    }

    /// A cloneable, `Send + Sync` handle onto the cluster's read
    /// front-end for reader threads.
    pub fn reader(&self) -> ReadFront {
        self.front.clone()
    }

    /// The shards, in shard order — read-only introspection (footprints,
    /// requirements, per-shard pattern counts).
    pub fn shards(&self) -> &[GpnmService<AnyBackend>] {
        &self.shards
    }

    /// Shard 0's graph replica. All replicas walk the same trajectory, so
    /// this *is* the cluster's data graph.
    pub fn graph(&self) -> &DataGraph {
        self.shards[0].graph()
    }

    /// Current load snapshot per shard, with `projected_rows` computed
    /// for `candidate` (what each shard's index would grow to if the
    /// pattern were placed there).
    pub fn loads(&self, candidate: &PatternGraph) -> Vec<ShardLoad> {
        let candidate_reqs = SlenRequirements::of_pattern(candidate);
        // Every replica holds the same graph.
        let graph = self.shards[0].graph();
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, service)| {
                let mut union = service.requirements().clone();
                union.absorb(&candidate_reqs);
                ShardLoad {
                    shard,
                    patterns: service.pattern_count(),
                    resident_rows: service.backend().resident_rows(),
                    mem_bytes: service.backend().mem_bytes(),
                    projected_rows: union.covered_rows(graph),
                }
            })
            .collect()
    }

    /// Distance rows resident across all shards — the cluster's total
    /// index footprint in rows.
    pub fn total_resident_rows(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.backend().resident_rows())
            .sum()
    }

    /// Approximate heap footprint of all shard indices, in bytes.
    pub fn total_index_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.backend().mem_bytes()).sum()
    }

    fn route(&self, handle: ClusterHandle) -> Result<(usize, PatternHandle), ClusterError> {
        self.patterns
            .iter()
            .find(|&&(h, _, _)| h == handle)
            .map(|&(_, shard, local)| (shard, local))
            .ok_or(ClusterError::UnknownHandle(handle))
    }

    /// The shard `handle`'s pattern lives on.
    pub fn shard_of(&self, handle: ClusterHandle) -> Result<usize, ClusterError> {
        Ok(self.route(handle)?.0)
    }

    /// The registered pattern behind `handle`.
    pub fn pattern(&self, handle: ClusterHandle) -> Result<&PatternGraph, ClusterError> {
        let (shard, local) = self.route(handle)?;
        Ok(self.shards[shard].pattern(local)?)
    }

    /// The semantics `handle` was registered under.
    pub fn semantics(&self, handle: ClusterHandle) -> Result<MatchSemantics, ClusterError> {
        let (shard, local) = self.route(handle)?;
        Ok(self.shards[shard].semantics(local)?)
    }

    /// The full current result of `handle` — the snapshot for late
    /// joiners; deltas are the streaming answer.
    pub fn result(&self, handle: ClusterHandle) -> Result<&MatchResult, ClusterError> {
        let (shard, local) = self.route(handle)?;
        Ok(self.shards[shard].result(local)?)
    }

    /// How many ticks `handle`'s result has absorbed since registration.
    pub fn result_version(&self, handle: ClusterHandle) -> Result<u64, ClusterError> {
        let (shard, local) = self.route(handle)?;
        Ok(self.shards[shard].result_version(local)?)
    }

    /// Register a standing pattern: consult the placement strategy, widen
    /// only the chosen shard's requirement union, run the initial match
    /// there, and return the cluster handle its deltas will be keyed by.
    /// Every other shard is untouched — registration cost is local to one
    /// shard.
    pub fn register_pattern(
        &mut self,
        pattern: PatternGraph,
        semantics: MatchSemantics,
    ) -> Result<ClusterHandle, ClusterError> {
        if pattern.node_count() == 0 {
            return Err(ServiceError::EmptyPattern.into());
        }
        let loads = self.loads(&pattern);
        let shard = self.placement.place(&pattern, &loads);
        if shard >= self.shards.len() {
            return Err(ClusterError::PlacementOutOfRange {
                shard,
                shards: self.shards.len(),
            });
        }
        let local = self.shards[shard].register_pattern(pattern, semantics)?;
        let handle = ClusterHandle(HandleId::from_raw(self.next_handle));
        self.next_handle += 1;
        self.front.publish(
            handle,
            ReadView {
                result: self.shards[shard].result(local)?.visible(),
                result_version: 0,
                tick: self.tick,
            },
        );
        self.patterns.push((handle, shard, local));
        Ok(handle)
    }

    /// Deregister a standing pattern and narrow its shard's requirement
    /// union to what that shard's remaining patterns need.
    pub fn deregister(&mut self, handle: ClusterHandle) -> Result<(), ClusterError> {
        let (shard, local) = self.route(handle)?;
        self.shards[shard].deregister(local)?;
        self.patterns.retain(|&(h, _, _)| h != handle);
        // Terminate the handle's published state and subscriptions
        // (queued deltas drain first, then a final `Closed`).
        self.front.close(handle);
        Ok(())
    }

    /// One greedy pattern re-placement pass: migrate each standing
    /// pattern whose *exclusive* rows on its current shard (rows no
    /// co-located pattern needs) exceed the *marginal* rows the cheapest
    /// other shard would grow by — i.e. whenever moving it strictly
    /// shrinks the cluster's total resident index. Returns the moves
    /// performed (often none).
    ///
    /// A move carries the pattern's standing result and version across
    /// via [`GpnmService::register_pattern_with_result`] — **no
    /// re-match**: replicas walk one graph trajectory and results are
    /// graph-determined, so the lifted result is bitwise what the target
    /// shard would compute (proptested against a freshly placed
    /// cluster). The full result moves — with the relation an unmatched
    /// pattern withholds, so the target keeps repairing it — while read
    /// views get the visible sets only. The source shard's requirement
    /// union narrows, the target's widens; the [`ClusterHandle`], its
    /// read views and its subscriptions are untouched. Load snapshots
    /// update as moves apply, so a pass never ping-pongs a pattern.
    pub fn rebalance(&mut self) -> Result<Vec<RebalanceMove>, ClusterError> {
        let mut moves = Vec::new();
        if self.shards.len() < 2 {
            return Ok(moves);
        }
        let handles: Vec<ClusterHandle> = self.patterns.iter().map(|&(h, _, _)| h).collect();
        for handle in handles {
            let (from, local) = self.route(handle)?;
            let pattern_reqs = SlenRequirements::of_pattern(self.shards[from].pattern(local)?);
            // Rows only this pattern pins on its current shard: the
            // union of its shard-mates covers the rest.
            let mut others = SlenRequirements::empty();
            for &(h, s, l) in &self.patterns {
                if s == from && h != handle {
                    others.absorb(&SlenRequirements::of_pattern(self.shards[s].pattern(l)?));
                }
            }
            let mut full = others.clone();
            full.absorb(&pattern_reqs);
            let graph = self.shards[0].graph();
            let exclusive = full.covered_rows(graph) - others.covered_rows(graph);
            if exclusive == 0 {
                continue; // fully covered by shard-mates: free where it is
            }
            // The cheapest target by marginal growth (ties: lowest index).
            let mut best: Option<(usize, usize)> = None;
            for (t, service) in self.shards.iter().enumerate() {
                if t == from {
                    continue;
                }
                let mut union = service.requirements().clone();
                union.absorb(&pattern_reqs);
                let marginal =
                    union.covered_rows(graph) - service.requirements().covered_rows(graph);
                if best.map_or(true, |(m, _)| marginal < m) {
                    best = Some((marginal, t));
                }
            }
            let Some((marginal, to)) = best else { continue };
            if marginal >= exclusive {
                continue; // the move would not shrink the total index
            }
            let pattern = self.shards[from].pattern(local)?.clone();
            let semantics = self.shards[from].semantics(local)?;
            let result = self.shards[from].result(local)?.clone();
            let version = self.shards[from].result_version(local)?;
            self.shards[from].deregister(local)?;
            let new_local = self.shards[to]
                .register_pattern_with_result(pattern, semantics, result, version)?;
            for entry in self.patterns.iter_mut() {
                if entry.0 == handle {
                    entry.1 = to;
                    entry.2 = new_local;
                }
            }
            moves.push(RebalanceMove {
                handle,
                from,
                to,
                reclaimed_rows: exclusive,
                added_rows: marginal,
            });
        }
        Ok(moves)
    }

    /// Apply one data-update batch across the whole cluster: validate it
    /// **once** (typed, mutation-free refusal — exactly
    /// [`GpnmService::apply`]'s contract), fan the validated batch out to
    /// every shard **in parallel** in one [`WorkerPool::scope`], and merge
    /// the per-shard [`TickReport`]s into one [`ClusterTickReport`] keyed
    /// by cluster handles.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<ClusterTickReport, ClusterError> {
        if let Some(index) = batch.first_pattern_update() {
            return Err(ServiceError::PatternUpdateInBatch { index }.into());
        }
        // One validation serves every replica: they share one trajectory.
        batch.validate_data(self.shards[0].graph())?;
        let cluster_span = tracing::span!(
            tracing::Level::INFO,
            "cluster_tick",
            tick = self.tick + 1,
            shards = self.shards.len(),
            submitted = batch.len(),
        );
        let _cluster_entered = cluster_span.enter();
        let start = Instant::now();

        let mut slots: Vec<Option<Result<TickReport, ServiceError>>> = Vec::new();
        slots.resize_with(self.shards.len(), || None);
        WorkerPool::global().scope(|scope| {
            for (i, (shard, slot)) in self.shards.iter_mut().zip(slots.iter_mut()).enumerate() {
                let cluster_span = &cluster_span;
                scope.spawn(move || {
                    // Explicit parenting: the pool worker's contextual
                    // span stack is empty, so the shard span names the
                    // cluster tick as parent directly; the service's own
                    // `tick` span then nests contextually under it.
                    let span = tracing::span!(
                        parent: cluster_span,
                        tracing::Level::INFO,
                        "shard_tick",
                        shard = i,
                    );
                    let _entered = span.enter();
                    *slot = Some(shard.apply_prevalidated(batch));
                });
            }
        });

        let mut shard_reports = Vec::with_capacity(slots.len());
        for (shard, slot) in slots.into_iter().enumerate() {
            match slot.expect("fan-out scope joins every shard task") {
                Ok(report) => shard_reports.push(report),
                Err(error) => return Err(ClusterError::ShardFailed { shard, error }),
            }
        }

        let mut deltas = Vec::with_capacity(self.patterns.len());
        for &(handle, shard, local) in &self.patterns {
            let delta = shard_reports[shard]
                .delta_for(local)
                .expect("every shard reports every registered pattern")
                .clone();
            deltas.push((handle, delta));
        }

        self.tick += 1;

        // Publish the committed cluster epoch. Every shard has joined,
        // so each pattern's new view is whole-tick state; views swap in
        // before any delta fans out (see `ReadFront::publish_tick`).
        let publish_span = tracing::span!(
            tracing::Level::DEBUG,
            "publish",
            patterns = self.patterns.len()
        );
        let publish_entered = publish_span.enter();
        let mut items = Vec::with_capacity(self.patterns.len());
        for (&(handle, shard, local), (_, delta)) in self.patterns.iter().zip(deltas.iter()) {
            items.push((
                HandleId::from(handle),
                ReadView {
                    result: self.shards[shard]
                        .result(local)
                        .expect("routing table tracks live handles")
                        .visible(),
                    result_version: self.shards[shard]
                        .result_version(local)
                        .expect("routing table tracks live handles"),
                    tick: self.tick,
                },
                delta.clone(),
            ));
        }
        self.front.publish_tick(items);
        drop(publish_entered);
        gpnm_telemetry::global()
            .counter("gpnm_cluster_ticks_total")
            .inc();

        // Periodic re-placement, after the epoch is published: migrations
        // are invisible to readers (handles, views and subscriptions are
        // untouched) and only shrink what the next tick repairs.
        let rebalanced = match self.rebalance_every {
            Some(n) if self.tick % n == 0 => self.rebalance()?,
            _ => Vec::new(),
        };

        // The index gauges are the cluster's totals; the shards, being
        // non-publishing replicas, leave them alone.
        let registry = gpnm_telemetry::global();
        registry
            .gauge("gpnm_index_resident_rows")
            .set(self.total_resident_rows() as f64);
        registry
            .gauge("gpnm_index_mem_bytes")
            .set(self.total_index_bytes() as f64);

        Ok(ClusterTickReport {
            tick: self.tick,
            updates_submitted: batch.len(),
            updates_applied: shard_reports[0].updates_applied,
            slen_changes: shard_reports.iter().map(|r| r.slen_changes).sum(),
            eliminated: shard_reports.iter().map(|r| r.eliminated).sum(),
            repair_calls: shard_reports.iter().map(|r| r.repair_calls).sum(),
            total_time: start.elapsed(),
            ts_ms: gpnm_telemetry::clock::wall_ms(),
            deltas,
            shard_reports,
            rebalanced,
        })
    }
}

impl PatternHost for GpnmCluster {
    type Handle = ClusterHandle;
    type Error = ClusterError;
    type Report = ClusterTickReport;

    fn graph(&self) -> &DataGraph {
        GpnmCluster::graph(self)
    }

    fn pattern(&self, handle: ClusterHandle) -> Result<&PatternGraph, ClusterError> {
        GpnmCluster::pattern(self, handle)
    }

    fn semantics(&self, handle: ClusterHandle) -> Result<MatchSemantics, ClusterError> {
        GpnmCluster::semantics(self, handle)
    }

    fn result(&self, handle: ClusterHandle) -> Result<&MatchResult, ClusterError> {
        GpnmCluster::result(self, handle)
    }

    fn result_version(&self, handle: ClusterHandle) -> Result<u64, ClusterError> {
        GpnmCluster::result_version(self, handle)
    }

    fn handles(&self) -> Vec<ClusterHandle> {
        GpnmCluster::handles(self)
    }

    fn pattern_count(&self) -> usize {
        GpnmCluster::pattern_count(self)
    }

    fn tick(&self) -> u64 {
        GpnmCluster::tick(self)
    }

    fn register_pattern(
        &mut self,
        pattern: PatternGraph,
        semantics: MatchSemantics,
    ) -> Result<ClusterHandle, ClusterError> {
        GpnmCluster::register_pattern(self, pattern, semantics)
    }

    fn deregister(&mut self, handle: ClusterHandle) -> Result<(), ClusterError> {
        GpnmCluster::deregister(self, handle)
    }

    fn apply(&mut self, batch: &UpdateBatch) -> Result<ClusterTickReport, ClusterError> {
        GpnmCluster::apply(self, batch)
    }

    fn read_view(&self, handle: ClusterHandle) -> Result<Arc<ReadView>, ClusterError> {
        GpnmCluster::read_view(self, handle)
    }

    fn subscribe(&self, handle: ClusterHandle) -> Result<Subscription, ClusterError> {
        GpnmCluster::subscribe(self, handle)
    }

    fn reader(&self) -> ReadFront {
        GpnmCluster::reader(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::RoundRobin;
    use gpnm_graph::paper::fig1;
    use gpnm_graph::GraphError;
    use gpnm_updates::{DataUpdate, PatternUpdate};

    fn two_shard_cluster() -> (gpnm_graph::paper::Fig1, GpnmCluster) {
        let f = fig1();
        let cluster = GpnmCluster::builder()
            .shards(2)
            .backend(BackendKind::Sparse)
            .placement(RoundRobin::new())
            .build(f.graph.clone())
            .expect("sparse never refused");
        (f, cluster)
    }

    #[test]
    fn register_apply_deregister_lifecycle() {
        let (f, mut cluster) = two_shard_cluster();
        let a = cluster
            .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
            .expect("register");
        let b = cluster
            .register_pattern(f.pattern.clone(), MatchSemantics::DualSimulation)
            .expect("register");
        assert_eq!(cluster.pattern_count(), 2);
        // Round-robin spread them across both shards.
        assert_eq!(cluster.shard_of(a).unwrap(), 0);
        assert_eq!(cluster.shard_of(b).unwrap(), 1);
        assert_eq!(cluster.shards()[0].pattern_count(), 1);
        assert_eq!(cluster.shards()[1].pattern_count(), 1);

        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        let report = cluster.apply(&batch).expect("valid batch");
        assert_eq!(report.tick, 1);
        assert_eq!(report.updates_applied, 1);
        assert_eq!(report.deltas.len(), 2);
        assert_eq!(report.shard_reports.len(), 2);
        assert!(report.slen_changes > 0);
        assert_eq!(report.delta_for(a).unwrap().result_version, 1);
        assert_eq!(cluster.result_version(b).unwrap(), 1);

        cluster.deregister(a).expect("deregister");
        assert_eq!(cluster.pattern_count(), 1);
        assert_eq!(cluster.result(a), Err(ClusterError::UnknownHandle(a)));
        assert_eq!(
            cluster.shards()[0].backend().resident_rows(),
            0,
            "shard 0's rows reclaimed"
        );
        assert!(cluster.result(b).is_ok());
    }

    #[test]
    fn dropping_the_cluster_closes_its_subscriptions() {
        let (f, mut cluster) = two_shard_cluster();
        let a = cluster
            .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
            .unwrap();
        let b = cluster
            .register_pattern(f.pattern.clone(), MatchSemantics::DualSimulation)
            .unwrap();
        let subs = [cluster.subscribe(a).unwrap(), cluster.subscribe(b).unwrap()];
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        cluster.apply(&batch).unwrap();
        drop(cluster);
        let wait = std::time::Duration::from_millis(200);
        for sub in &subs {
            assert!(
                matches!(
                    sub.recv_timeout(wait),
                    Some(gpnm_service::SubEvent::Delta(d)) if d.result_version == 1
                ),
                "the queued delta drains first"
            );
            assert_eq!(sub.recv_timeout(wait), Some(gpnm_service::SubEvent::Closed));
        }
    }

    #[test]
    fn invalid_batches_are_refused_atomically() {
        let (f, mut cluster) = two_shard_cluster();
        let h = cluster
            .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
            .unwrap();
        let before = cluster.result(h).unwrap().clone();
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        batch.push(DataUpdate::InsertEdge {
            from: f.pm1,
            to: f.se2, // duplicate
        });
        let err = cluster.apply(&batch).expect_err("duplicate edge");
        assert_eq!(
            err,
            ClusterError::Service(ServiceError::InvalidBatch(GraphError::DuplicateEdge(
                f.pm1, f.se2
            )))
        );
        assert_eq!(cluster.tick(), 0);
        for shard in cluster.shards() {
            assert!(!shard.graph().has_edge(f.se1, f.te2), "no partial apply");
        }
        assert_eq!(cluster.result(h).unwrap(), &before);

        let mut bad = UpdateBatch::new();
        bad.push(PatternUpdate::DeleteEdge {
            from: f.p_pm,
            to: f.p_se,
        });
        assert_eq!(
            cluster.apply(&bad).expect_err("pattern update refused"),
            ClusterError::Service(ServiceError::PatternUpdateInBatch { index: 0 })
        );
    }

    #[test]
    fn builder_guards_config() {
        let f = fig1();
        assert!(matches!(
            GpnmCluster::builder().shards(0).build(f.graph.clone()),
            Err(ClusterError::InvalidConfig(_))
        ));
        // A period of zero ticks would silently never rebalance.
        assert!(matches!(
            GpnmCluster::builder()
                .rebalance_every(0)
                .build(f.graph.clone()),
            Err(ClusterError::InvalidConfig(_))
        ));
        // The per-shard dense budget propagates.
        assert!(matches!(
            GpnmCluster::builder()
                .shards(2)
                .backend(BackendKind::Partitioned)
                .max_index_gb(1.0e-9)
                .build(f.graph.clone()),
            Err(ClusterError::Service(ServiceError::IndexTooLarge { .. }))
        ));
        let cluster = GpnmCluster::builder()
            .shards(3)
            .build(f.graph)
            .expect("sparse default");
        assert_eq!(cluster.shard_count(), 3);
        assert_eq!(cluster.total_resident_rows(), 0, "no patterns yet");
    }

    #[test]
    fn placement_out_of_range_is_typed() {
        #[derive(Debug)]
        struct Broken;
        impl ShardPlacement for Broken {
            fn place(&mut self, _p: &PatternGraph, loads: &[ShardLoad]) -> usize {
                loads.len() + 5
            }
            fn name(&self) -> &'static str {
                "broken"
            }
        }
        let f = fig1();
        let mut cluster = GpnmCluster::builder()
            .shards(2)
            .placement(Broken)
            .build(f.graph)
            .unwrap();
        assert_eq!(
            cluster.register_pattern(f.pattern, MatchSemantics::Simulation),
            Err(ClusterError::PlacementOutOfRange {
                shard: 7,
                shards: 2
            })
        );
        assert_eq!(cluster.pattern_count(), 0, "nothing registered");
    }

    #[test]
    fn least_loaded_colocates_same_label_patterns() {
        let f = fig1();
        let mut cluster = GpnmCluster::builder()
            .shards(2)
            .backend(BackendKind::Sparse)
            .build(f.graph.clone())
            .unwrap();
        // Two identical patterns: the second's labels are already covered
        // by shard 0, so least-loaded keeps them together (marginal 0)
        // instead of duplicating the rows on shard 1.
        let a = cluster
            .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
            .unwrap();
        let b = cluster
            .register_pattern(f.pattern.clone(), MatchSemantics::DualSimulation)
            .unwrap();
        assert_eq!(cluster.shard_of(a).unwrap(), cluster.shard_of(b).unwrap());
        assert_eq!(
            cluster.total_resident_rows(),
            cluster.shards()[cluster.shard_of(a).unwrap()]
                .backend()
                .resident_rows(),
            "the other shard stayed empty"
        );
    }

    #[test]
    fn rebalance_colocates_overlapping_patterns() {
        let (f, mut cluster) = two_shard_cluster();
        // Round-robin splits two identical patterns across both shards —
        // each shard pays the full row set for the same labels.
        let a = cluster
            .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
            .unwrap();
        let b = cluster
            .register_pattern(f.pattern.clone(), MatchSemantics::DualSimulation)
            .unwrap();
        assert_ne!(cluster.shard_of(a).unwrap(), cluster.shard_of(b).unwrap());
        let rows_before = cluster.total_resident_rows();
        let result_a = cluster.result(a).unwrap().clone();
        let result_b = cluster.result(b).unwrap().clone();

        let moves = cluster.rebalance().expect("rebalance");
        assert_eq!(moves.len(), 1, "one migration merges the duplicates");
        assert_eq!(moves[0].added_rows, 0, "target already covers the labels");
        assert_eq!(cluster.shard_of(a).unwrap(), cluster.shard_of(b).unwrap());
        assert!(
            cluster.total_resident_rows() < rows_before,
            "the duplicate rows were reclaimed"
        );
        // The migrated result was carried, not re-matched — and stays
        // exactly what the pattern matched before the move.
        assert_eq!(cluster.result(a).unwrap(), &result_a);
        assert_eq!(cluster.result(b).unwrap(), &result_b);
        assert!(
            cluster.rebalance().expect("second pass").is_empty(),
            "stable"
        );

        // Ticks keep flowing through the migrated placement.
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        let report = cluster.apply(&batch).expect("valid batch");
        assert_eq!(report.delta_for(a).unwrap().result_version, 1);
        assert_eq!(report.delta_for(b).unwrap().result_version, 1);
    }

    #[test]
    fn auto_rebalance_fires_on_schedule() {
        let f = fig1();
        let mut cluster = GpnmCluster::builder()
            .shards(2)
            .backend(BackendKind::Sparse)
            .placement(RoundRobin::new())
            .rebalance_every(2)
            .build(f.graph.clone())
            .unwrap();
        cluster
            .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
            .unwrap();
        cluster
            .register_pattern(f.pattern.clone(), MatchSemantics::DualSimulation)
            .unwrap();
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        let r1 = cluster.apply(&batch).unwrap();
        assert!(r1.rebalanced.is_empty(), "tick 1 is off-schedule");
        let mut undo = UpdateBatch::new();
        undo.push(DataUpdate::DeleteEdge {
            from: f.se1,
            to: f.te2,
        });
        let r2 = cluster.apply(&undo).unwrap();
        assert_eq!(r2.rebalanced.len(), 1, "tick 2 migrates the duplicate");
        assert!(r2.render_stats().contains("rebalance:"));
        assert!(r2.stats_json().contains("\"rebalanced\":[{\"handle\":"));
    }

    #[test]
    fn empty_pattern_is_refused() {
        let (_, mut cluster) = two_shard_cluster();
        assert_eq!(
            cluster.register_pattern(PatternGraph::new(), MatchSemantics::Simulation),
            Err(ClusterError::Service(ServiceError::EmptyPattern))
        );
    }
}
