//! The sharded serving layer: k [`GpnmService`] shards behind one
//! cluster-level register/apply surface, with parallel fan-out ticks.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gpnm_distance::{AnyBackend, BackendKind, SlenBackend};
use gpnm_graph::{DataGraph, PatternGraph};
use gpnm_matcher::{MatchDelta, MatchResult, MatchSemantics};
use gpnm_pool::WorkerPool;
use gpnm_service::{
    GpnmService, HandleId, PatternHandle, PatternHost, ReadFront, ReadView, ServiceBuilder,
    ServiceError, Subscription, TickOutcome, TickReport,
};
use gpnm_telemetry::{Counter, Gauge};
use gpnm_updates::UpdateBatch;

use crate::error::ClusterError;

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

/// What one [`PatternHost::apply`] tick did: the merged view of every
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
    /// Always 0: every shard folds its updates into one pass per pattern
    /// and eliminates nothing. Kept only because `gpnm-bench` names it;
    /// removed with ROADMAP D2(b).
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
    /// live here, with pattern entries renamed to cluster handles. Each
    /// report's `deltas` is empty: its deltas were moved into
    /// [`ClusterTickReport::deltas`].
    pub shard_reports: Vec<TickReport>,
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
        self.shard_reports
            .iter()
            .enumerate()
            .map(|(shard, report)| format!("  shard {shard}:\n{}", report.render_stats()))
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn stats_json(&self) -> String {
        let shards: Vec<String> = self
            .shard_reports
            .iter()
            .map(|r| r.stats.to_json())
            .collect();
        format!(
            "{{\"tick\":{},\"ts_ms\":{},\"updates_submitted\":{},\"updates_applied\":{},\
             \"slen_changes\":{},\"added\":{},\"removed\":{},\"total_ns\":{},\
             \"shards\":[{}]}}",
            self.tick,
            self.ts_ms,
            self.updates_submitted,
            self.updates_applied,
            self.slen_changes,
            self.total_added(),
            self.total_removed(),
            self.total_time.as_nanos(),
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
///     .build(fig.graph)
///     .expect("sparse builds are never refused");
/// assert_eq!(cluster.shard_count(), 2);
/// ```
#[derive(Debug)]
pub struct ClusterBuilder {
    shards: usize,
    /// Every shard's configuration: the backend and budget knobs forward
    /// here, and [`ClusterBuilder::build`] builds each shard from
    /// it with publishing off.
    shard: ServiceBuilder,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            shards: 1,
            shard: ServiceBuilder::new().backend(BackendKind::Sparse),
        }
    }
}

/// The cluster's one placement: the `i`-th registration lands on shard
/// `i % k`, whatever was deregistered in between. There is nothing to
/// configure. The type and [`ClusterBuilder::placement`] stay because the
/// benchmark of record (`gpnm-bench/src/host.rs`) names them; nothing
/// else does.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundRobin;

impl RoundRobin {
    /// The placement (stateless: the cluster's handle counter is the
    /// cursor).
    pub fn new() -> Self {
        RoundRobin
    }
}

impl ClusterBuilder {
    /// A builder with the defaults: 1 shard, sparse backend (sharding
    /// exists to bound per-shard index size, which only a requirement-
    /// narrowed backend delivers), and [`ServiceBuilder`]'s defaults for
    /// everything else.
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
        self.shard = self.shard.backend(kind);
        self
    }

    /// Per-shard dense-index admission budget, in GiB (see
    /// [`ServiceBuilder::max_index_gb`]); it sizes no cache.
    pub fn max_index_gb(mut self, gb: impl Into<f64>) -> Self {
        self.shard = self.shard.max_index_gb(gb);
        self
    }

    /// Per-shard paged-backend cache budget, in MiB (see
    /// [`ServiceBuilder::cache_budget_mb`]; unset, 64 MiB). Each shard
    /// builds its own paged backend, so every shard gets its own spill
    /// file and a cache of this size.
    pub fn cache_budget_mb(mut self, mb: impl Into<f64>) -> Self {
        self.shard = self.shard.cache_budget_mb(mb);
        self
    }

    /// A no-op: each shard refreshes its patterns one after another. It
    /// stays because the benchmark of record (`gpnm-bench/src/host.rs`)
    /// calls it by name; removed with ROADMAP D2(b).
    pub fn refresh_threads(self, _n: usize) -> Self {
        self
    }

    /// A no-op: [`RoundRobin`] is the only placement. It stays because
    /// the benchmark of record (`gpnm-bench/src/host.rs`) calls it by
    /// name; nothing else does.
    pub fn placement(self, _placement: RoundRobin) -> Self {
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
        // Shard replicas never publish their own read front-end: nothing
        // may become observable until *every* shard has committed the
        // tick, so the cluster publishes the merged views itself after the
        // fan-out joins — per-tick publication stays atomic across shards.
        let shard = self.shard.publishing(false);
        let shards = (0..self.shards)
            .map(|_| shard.clone().build(graph.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(GpnmCluster {
            shards,
            patterns: Vec::new(),
            next_handle: 0,
            tick: 0,
            front: ReadFront::new(),
        })
    }
}

/// A sharded GPNM serving cluster: k [`GpnmService`] shards, each with its
/// own [`DataGraph`] replica and an index narrowed to only *that shard's*
/// patterns' [`SlenRequirements`](gpnm_distance::SlenRequirements), behind one register/apply surface.
///
/// Where a single [`GpnmService`] pays one shared repair pass over the
/// *union* of every registered pattern's requirements,
/// [`PatternHost::apply`] validates the batch once and fans it out to all
/// shards **in parallel** in one [`gpnm_pool::WorkerPool::scope`]; each
/// shard commits the same batch to its replica and repairs only its own
/// narrowed index, then refreshes its own patterns in sequence. k repair
/// passes run concurrently, and each is *smaller* than the union pass (a
/// shard's index only keeps rows for its own patterns' labels, truncated
/// at its own patterns' max bound — one deep or label-hungry pattern no
/// longer taxes every other pattern's repair).
///
/// Per-pattern results are bitwise identical to a single service (and to
/// k independent engines) — asserted by the `cluster_equivalence` proptest
/// suite; sharding changes *cost and isolation*, not answers. The price is
/// graph memory: every shard owns a replica (distance index memory, the
/// dominant term, is *partitioned*, not replicated).
#[derive(Debug)]
pub struct GpnmCluster {
    shards: Vec<GpnmService<AnyBackend>>,
    /// Registration-ordered routing table: cluster handle → (shard,
    /// shard-local handle).
    patterns: Vec<(ClusterHandle, usize, PatternHandle)>,
    /// The next registration's handle, and its shard modulo k.
    next_handle: u64,
    tick: u64,
    /// The cluster-level read front-end. Shards run with publishing off;
    /// the cluster publishes every pattern's merged view here only after
    /// the whole fan-out has joined, so readers never observe a tick
    /// some shard has not committed yet.
    front: ReadFront,
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

    /// The shards, in shard order — read-only introspection (footprints,
    /// requirements, per-shard pattern counts).
    pub fn shards(&self) -> &[GpnmService<AnyBackend>] {
        &self.shards
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
}

/// Registry handles a cluster tick writes into, resolved once per
/// process.
struct ClusterSeries {
    ticks: Arc<Counter>,
    resident_rows: Arc<Gauge>,
    index_mem_bytes: Arc<Gauge>,
}

fn series() -> &'static ClusterSeries {
    static SERIES: OnceLock<ClusterSeries> = OnceLock::new();
    SERIES.get_or_init(|| {
        let registry = gpnm_telemetry::global();
        ClusterSeries {
            ticks: registry.counter("gpnm_cluster_ticks_total"),
            resident_rows: registry.gauge("gpnm_index_resident_rows"),
            index_mem_bytes: registry.gauge("gpnm_index_mem_bytes"),
        }
    })
}

impl PatternHost for GpnmCluster {
    type Handle = ClusterHandle;
    type Error = ClusterError;
    type Report = ClusterTickReport;

    /// Shard 0's graph replica. All replicas walk the same trajectory, so
    /// this *is* the cluster's data graph.
    fn graph(&self) -> &DataGraph {
        self.shards[0].graph()
    }

    fn pattern(&self, handle: ClusterHandle) -> Result<&PatternGraph, ClusterError> {
        let (shard, local) = self.route(handle)?;
        Ok(self.shards[shard].pattern(local)?)
    }

    fn semantics(&self, handle: ClusterHandle) -> Result<MatchSemantics, ClusterError> {
        let (shard, local) = self.route(handle)?;
        Ok(self.shards[shard].semantics(local)?)
    }

    fn result(&self, handle: ClusterHandle) -> Result<&MatchResult, ClusterError> {
        let (shard, local) = self.route(handle)?;
        Ok(self.shards[shard].result(local)?)
    }

    fn result_version(&self, handle: ClusterHandle) -> Result<u64, ClusterError> {
        let (shard, local) = self.route(handle)?;
        Ok(self.shards[shard].result_version(local)?)
    }

    fn handles(&self) -> Vec<ClusterHandle> {
        self.patterns.iter().map(|&(h, _, _)| h).collect()
    }

    fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    fn tick(&self) -> u64 {
        self.tick
    }

    /// Place the pattern round-robin (the `i`-th registration on shard
    /// `i % k`), widen only that shard's requirement union and run the
    /// initial match there. Every other shard is untouched — registration
    /// cost is local to one shard.
    fn register_pattern(
        &mut self,
        pattern: PatternGraph,
        semantics: MatchSemantics,
    ) -> Result<ClusterHandle, ClusterError> {
        if pattern.node_count() == 0 {
            return Err(ServiceError::EmptyPattern.into());
        }
        let shard = (self.next_handle % self.shards.len() as u64) as usize;
        let local = self.shards[shard].register_pattern(pattern, semantics)?;
        let handle = ClusterHandle(HandleId::from_raw(self.next_handle));
        self.next_handle += 1;
        self.front.publish(
            handle,
            ReadView::of(self.shards[shard].result(local)?, 0, self.tick),
        );
        self.patterns.push((handle, shard, local));
        Ok(handle)
    }

    /// Narrow the pattern's shard's requirement union to what that
    /// shard's remaining patterns need.
    fn deregister(&mut self, handle: ClusterHandle) -> Result<(), ClusterError> {
        let (shard, local) = self.route(handle)?;
        self.shards[shard].deregister(local)?;
        self.patterns.retain(|&(h, _, _)| h != handle);
        // Terminate the handle's published state and subscriptions
        // (queued deltas drain first, then a final `Closed`).
        self.front.close(handle);
        Ok(())
    }

    /// Validate the batch **once** (typed, mutation-free refusal — the
    /// service's contract), fan the validated batch out to every shard
    /// **in parallel** in one [`WorkerPool::scope`], and merge the
    /// per-shard [`TickReport`]s into one [`ClusterTickReport`] keyed by
    /// cluster handles.
    fn apply(&mut self, batch: &UpdateBatch) -> Result<ClusterTickReport, ClusterError> {
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
        // Shard reports name patterns by shard-local handle: move each
        // delta out under its cluster handle and rename the stats entries.
        // A shard lists its sessions in registration order, the order of
        // its rows in the routing table.
        let mut shard_deltas: Vec<_> = shard_reports
            .iter_mut()
            .map(|report| std::mem::take(&mut report.deltas).into_iter())
            .collect();
        let mut position = vec![0; shard_reports.len()];
        let mut deltas = Vec::with_capacity(self.patterns.len());
        for &(handle, shard, local) in &self.patterns {
            let (reported, delta) = shard_deltas[shard]
                .next()
                .expect("every shard reports every registered pattern");
            debug_assert_eq!(reported, local, "shard deltas in routing order");
            let i = position[shard];
            position[shard] += 1;
            let stats = &mut shard_reports[shard].stats;
            stats.per_pattern_refresh_ns[i].0 = handle.into();
            stats.per_pattern_strategy[i].0 = handle.into();
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
            let shard = &self.shards[shard];
            let live = "routing table tracks live handles";
            let version = shard.result_version(local).expect(live);
            let view = ReadView::of(shard.result(local).expect(live), version, self.tick);
            items.push((HandleId::from(handle), view, delta.clone()));
        }
        self.front.publish_tick(items);
        drop(publish_entered);
        let f = series();
        f.ticks.inc();

        // The index gauges are the cluster's totals; the shards, being
        // non-publishing replicas, leave them alone.
        f.resident_rows.set(self.total_resident_rows() as f64);
        f.index_mem_bytes.set(self.total_index_bytes() as f64);

        Ok(ClusterTickReport {
            tick: self.tick,
            updates_submitted: batch.len(),
            updates_applied: shard_reports[0].updates_applied,
            slen_changes: shard_reports.iter().map(|r| r.slen_changes).sum(),
            eliminated: 0,
            repair_calls: shard_reports.iter().map(|r| r.repair_calls).sum(),
            total_time: start.elapsed(),
            ts_ms: gpnm_telemetry::clock::wall_ms(),
            deltas,
            shard_reports,
        })
    }

    /// Published only after **all** shards commit a tick, so it is always
    /// a whole cluster epoch.
    fn read_view(&self, handle: ClusterHandle) -> Result<Arc<ReadView>, ClusterError> {
        self.route(handle)?;
        self.front
            .read_view(handle)
            .map_err(|_| ClusterError::UnknownHandle(handle))
    }

    /// Fed from the cluster's post-fan-out publication.
    fn subscribe(&self, handle: ClusterHandle) -> Result<Subscription, ClusterError> {
        self.route(handle)?;
        self.front
            .subscribe(handle)
            .map_err(|_| ClusterError::UnknownHandle(handle))
    }

    fn reader(&self) -> ReadFront {
        self.front.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_distance::BudgetError;
    use gpnm_graph::paper::fig1;
    use gpnm_graph::GraphError;
    use gpnm_updates::{DataUpdate, PatternUpdate};

    fn two_shard_cluster() -> (gpnm_graph::paper::Fig1, GpnmCluster) {
        let f = fig1();
        let cluster = GpnmCluster::builder()
            .shards(2)
            .backend(BackendKind::Sparse)
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
        // The per-shard dense budget propagates.
        assert!(matches!(
            GpnmCluster::builder()
                .shards(2)
                .backend(BackendKind::Partitioned)
                .max_index_gb(1.0e-9)
                .build(f.graph.clone()),
            Err(ClusterError::Service(ServiceError::Budget(
                BudgetError::DenseTooLarge { .. }
            )))
        ));
        let cluster = GpnmCluster::builder()
            .shards(3)
            .build(f.graph)
            .expect("sparse default");
        assert_eq!(cluster.shard_count(), 3);
        assert_eq!(cluster.total_resident_rows(), 0, "no patterns yet");
    }

    #[test]
    fn builder_knobs_reach_every_shard() {
        let f = fig1();
        let mut cluster = GpnmCluster::builder()
            .shards(3)
            .backend(BackendKind::Paged)
            .cache_budget_mb(0.5)
            .build(f.graph.clone())
            .expect("paged builds are never refused");
        for shard in cluster.shards() {
            let AnyBackend::Paged(paged) = shard.backend() else {
                panic!("shard runs {}, not paged", shard.backend().kind());
            };
            assert_eq!(paged.cache_budget(), 1 << 19, "0.5 MiB cache");
            assert!(!shard.publishing(), "shards never publish on their own");
        }
        // Two patterns a shard: every paged shard commits the batch and
        // refreshes both of its own patterns.
        for _ in 0..6 {
            cluster
                .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
                .unwrap();
        }
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        let report = cluster.apply(&batch).expect("valid batch");
        assert_eq!(report.shard_reports.len(), 3);
        for shard in &report.shard_reports {
            assert_eq!(shard.stats.per_pattern_refresh_ns.len(), 2);
            assert!(shard.stats.io.is_some(), "paged shards report their IO");
        }
        // The shard template validates the forwarded knobs.
        assert!(matches!(
            GpnmCluster::builder()
                .cache_budget_mb(f64::NAN)
                .build(f.graph),
            Err(ClusterError::Service(ServiceError::Budget(
                BudgetError::Invalid { .. }
            )))
        ));
    }

    #[test]
    fn the_ith_registration_lands_on_shard_i_mod_k() {
        let f = fig1();
        let mut cluster = GpnmCluster::builder()
            .shards(3)
            .build(f.graph.clone())
            .unwrap();
        let register = |cluster: &mut GpnmCluster| {
            cluster
                .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
                .unwrap()
        };
        let h: Vec<ClusterHandle> = (0..4).map(|_| register(&mut cluster)).collect();
        // A deregistration frees no slot in the rotation: the late
        // registration is the fifth, so it lands on shard 4 % 3.
        cluster.deregister(h[1]).unwrap();
        let late = register(&mut cluster);
        for (i, handle) in [(0, h[0]), (2, h[2]), (3, h[3]), (4, late)] {
            assert_eq!(cluster.shard_of(handle).unwrap(), i % 3, "registration {i}");
        }
        let per_shard: Vec<usize> = cluster.shards().iter().map(|s| s.pattern_count()).collect();
        assert_eq!(per_shard, [2, 1, 1]);
    }

    #[test]
    fn shard_stats_name_cluster_handles() {
        // Each shard's per-pattern stats, as `--stats-json` and `--stats`
        // print them.
        fn named(report: &ClusterTickReport) -> Vec<Vec<u64>> {
            let json = report.stats_json();
            let per_shard: Vec<Vec<u64>> = json
                .split("\"per_pattern\":[")
                .skip(1)
                .map(|rest| {
                    let list = &rest[..rest.find(']').expect("closed list")];
                    list.split("\"handle\":")
                        .skip(1)
                        .map(|h| h[..h.find(',').unwrap()].parse().unwrap())
                        .collect()
                })
                .collect();
            let rendered = report.render_stats();
            let shards = rendered.split("  shard ").skip(1);
            let rendered_ids: Vec<Vec<u64>> = shards
                .map(|text| {
                    let names = text
                        .lines()
                        .filter_map(|l| l.trim().split_once(": refresh"));
                    names
                        .map(|(name, _)| name["pattern #".len()..].parse().unwrap())
                        .collect()
                })
                .collect();
            assert_eq!(per_shard, rendered_ids, "{json}\n{rendered}");
            per_shard
        }

        let (f, mut cluster) = two_shard_cluster();
        let mut register = || {
            cluster
                .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
                .unwrap()
                .id()
        };
        let h: Vec<u64> = (0..3).map(|_| register()).collect();
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        // Shard s of k holds the cluster handles h ≡ s (mod k).
        let report = cluster.apply(&batch).expect("valid batch");
        assert_eq!(named(&report), [vec![h[0], h[2]], vec![h[1]]]);

        // A deregistration keeps the rest in registration order.
        let first = cluster.handles()[0];
        cluster.deregister(first).unwrap();
        let late = cluster
            .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
            .unwrap()
            .id();
        let mut undo = UpdateBatch::new();
        undo.push(DataUpdate::DeleteEdge {
            from: f.se1,
            to: f.te2,
        });
        let report = cluster.apply(&undo).expect("valid batch");
        assert_eq!(named(&report), [vec![h[2]], vec![h[1], late]]);
    }

    #[test]
    fn empty_pattern_is_refused() {
        let (_, mut cluster) = two_shard_cluster();
        assert_eq!(
            cluster.register_pattern(PatternGraph::new(), MatchSemantics::Simulation),
            Err(ClusterError::Service(ServiceError::EmptyPattern))
        );
    }

    #[test]
    fn merged_deltas_are_moved_out_of_the_shards_under_cluster_handles() {
        let (f, mut cluster) = two_shard_cluster();
        let handles: Vec<ClusterHandle> = (0..3)
            .map(|_| {
                cluster
                    .register_pattern(f.pattern.clone(), MatchSemantics::Simulation)
                    .unwrap()
            })
            .collect();
        // Shard 0 keeps the third registration alone; shard 1 the second.
        cluster.deregister(handles[0]).unwrap();
        let mut batch = UpdateBatch::new();
        batch.push(DataUpdate::DeleteEdge {
            from: f.se1,
            to: f.s1,
        });
        let report = cluster.apply(&batch).unwrap();
        assert!(
            report.shard_reports.iter().all(|r| r.deltas.is_empty()),
            "no shard report carries deltas"
        );
        let keyed: Vec<ClusterHandle> = report.deltas.iter().map(|&(h, _)| h).collect();
        assert_eq!(keyed, handles[1..]);
        for &(h, ref delta) in &report.deltas {
            assert!(!delta.is_empty(), "{h}: the delete changes fig. 1's match");
            assert_eq!(delta.result_version, 1);
            assert_eq!(
                cluster.read_view(h).unwrap().result,
                *cluster.result(h).unwrap()
            );
        }
        let stats_keys: Vec<HandleId> = report
            .shard_reports
            .iter()
            .flat_map(|r| r.stats.per_pattern_refresh_ns.iter().map(|&(h, _)| h))
            .collect();
        assert_eq!(stats_keys, vec![handles[2].into(), handles[1].into()]);
    }
}
