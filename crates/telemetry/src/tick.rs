//! The per-tick ingestion buffer.
//!
//! [`TickRecorder`] is the *single* bookkeeping path for one tick: every
//! phase timing and work counter is written here exactly once by the
//! service, [`TickRecorder::finish`] flushes the same values into the
//! global metrics [`registry`](crate::metrics), and the service projects
//! its per-tick `TickStats` from the recorder afterwards. Because both the
//! cumulative metrics and the per-tick stats read the same ingestion
//! point, they cannot disagree.

use crate::clock;
use crate::metrics::{self, Counter, Histogram};
use gpnm_sync::Arc;
use std::sync::OnceLock;

/// Per-pattern refresh measurement within one tick.
#[derive(Debug, Clone)]
pub struct PatternRefreshSample {
    /// Raw pattern handle id (the service re-wraps it).
    pub handle: u64,
    /// Refresh duration for this pattern.
    pub ns: u64,
    /// The refresh strategy that ran: `"UA-GPNM"` or `"Scratch"`.
    pub strategy: &'static str,
}

/// Paged-backend IO activity during one tick (a `since()` delta of the
/// backend's cumulative `IoStats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct IoDelta {
    /// Hot-row cache hits.
    pub hits: u64,
    /// Hot-row cache misses (each one a spill-file read).
    pub misses: u64,
    /// Rows evicted from the cache.
    pub evictions: u64,
    /// Spill pages read.
    pub pages_read: u64,
    /// Spill pages written.
    pub pages_written: u64,
}

/// Accumulates one tick's measurements; see the module docs.
#[derive(Debug)]
pub struct TickRecorder {
    start_ns: u64,
    /// Batch validation + net-effect reduction.
    pub reduce_ns: u64,
    /// Shared graph/index commit incl. per-update repair.
    pub commit_ns: u64,
    /// `commit_ns` by update kind (`"insert_edge"`, `"delete_edge"`,
    /// `"insert_node"`, `"delete_node"`), in first-seen order; fed by
    /// [`TickRecorder::add_commit`].
    pub commit_ns_by_kind: Vec<(&'static str, u64)>,
    /// EH-tree elimination detection.
    pub detect_ns: u64,
    /// Per-pattern refresh, wall clock across lanes.
    pub refresh_ns: u64,
    /// Read-front publish + subscription fan-out.
    pub publish_ns: u64,
    /// Updates that survived reduction and committed.
    pub updates_applied: u64,
    /// Updates eliminated by the EH-tree across patterns.
    pub eliminated: u64,
    /// Distance-repair invocations.
    pub repair_calls: u64,
    /// Repair passes that fell back to a from-scratch re-match because
    /// the standing result carried no relation (0 in steady state).
    pub repair_rematches: u64,
    /// Affected-source set sizes, summed.
    pub affected_nodes: u64,
    /// Lanes actually used for per-pattern refresh (1 = sequential).
    pub refresh_lanes: usize,
    /// Worker-pool lanes available.
    pub pool_lanes: usize,
    /// Per-pattern refresh samples, in completion slot order.
    pub per_pattern: Vec<PatternRefreshSample>,
    /// Paged-backend IO delta, if the backend is storage-backed.
    pub io: Option<IoDelta>,
}

impl Default for TickRecorder {
    fn default() -> Self {
        TickRecorder::new()
    }
}

/// Registry handles the recorder flushes into, resolved once per process.
struct Flushed {
    ticks: Arc<Counter>,
    total_ns: Arc<Histogram>,
    reduce_ns: Arc<Histogram>,
    commit_ns: Arc<Histogram>,
    detect_ns: Arc<Histogram>,
    refresh_ns: Arc<Histogram>,
    publish_ns: Arc<Histogram>,
    pattern_refresh_ns: Arc<Histogram>,
    updates_applied: Arc<Counter>,
    eliminated: Arc<Counter>,
    repair_calls: Arc<Counter>,
    repair_rematches: Arc<Counter>,
    affected_nodes: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    pages_read: Arc<Counter>,
    pages_written: Arc<Counter>,
}

fn flushed() -> &'static Flushed {
    static HANDLES: OnceLock<Flushed> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let r = metrics::global();
        Flushed {
            ticks: r.counter("gpnm_ticks_total"),
            total_ns: r.histogram("gpnm_tick_total_ns"),
            reduce_ns: r.histogram("gpnm_tick_reduce_ns"),
            commit_ns: r.histogram("gpnm_tick_commit_ns"),
            detect_ns: r.histogram("gpnm_tick_detect_ns"),
            refresh_ns: r.histogram("gpnm_tick_refresh_ns"),
            publish_ns: r.histogram("gpnm_tick_publish_ns"),
            pattern_refresh_ns: r.histogram("gpnm_pattern_refresh_ns"),
            updates_applied: r.counter("gpnm_updates_applied_total"),
            eliminated: r.counter("gpnm_eliminated_total"),
            repair_calls: r.counter("gpnm_repair_calls_total"),
            repair_rematches: r.counter("gpnm_repair_rematch_total"),
            affected_nodes: r.counter("gpnm_affected_nodes_total"),
            cache_hits: r.counter("gpnm_paged_cache_hits_total"),
            cache_misses: r.counter("gpnm_paged_cache_misses_total"),
            cache_evictions: r.counter("gpnm_paged_cache_evictions_total"),
            pages_read: r.counter("gpnm_paged_pages_read_total"),
            pages_written: r.counter("gpnm_paged_pages_written_total"),
        }
    })
}

impl TickRecorder {
    /// Start recording a tick (stamps the start time).
    pub fn new() -> Self {
        TickRecorder {
            start_ns: clock::monotonic_ns(),
            reduce_ns: 0,
            commit_ns: 0,
            commit_ns_by_kind: Vec::new(),
            detect_ns: 0,
            refresh_ns: 0,
            publish_ns: 0,
            updates_applied: 0,
            eliminated: 0,
            repair_calls: 0,
            repair_rematches: 0,
            affected_nodes: 0,
            refresh_lanes: 1,
            pool_lanes: 1,
            per_pattern: Vec::new(),
            io: None,
        }
    }

    /// Count one update's commit (graph mutation + `SLen` repair) of `ns`
    /// nanoseconds towards `commit_ns` and its kind's share of it.
    pub fn add_commit(&mut self, kind: &'static str, ns: u64) {
        self.commit_ns += ns;
        match self.commit_ns_by_kind.iter_mut().find(|e| e.0 == kind) {
            Some(entry) => entry.1 += ns,
            None => self.commit_ns_by_kind.push((kind, ns)),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn elapsed_ns(&self) -> u64 {
        clock::monotonic_ns().saturating_sub(self.start_ns)
    }

    /// Flush every recorded value into the global registry and return the
    /// tick's total wall time in ns. Call exactly once, at tick end.
    pub fn finish(&self) -> u64 {
        let total = self.elapsed_ns();
        let f = flushed();
        f.ticks.inc();
        f.total_ns.observe(total);
        f.reduce_ns.observe(self.reduce_ns);
        f.commit_ns.observe(self.commit_ns);
        for &(kind, ns) in &self.commit_ns_by_kind {
            // Cumulative seconds; a gauge because the registry's counters
            // are integers.
            metrics::global()
                .gauge_with("gpnm_slen_repair_seconds", &[("kind", kind)])
                .add(ns as f64 / 1e9);
        }
        f.detect_ns.observe(self.detect_ns);
        f.refresh_ns.observe(self.refresh_ns);
        f.publish_ns.observe(self.publish_ns);
        f.updates_applied.add(self.updates_applied);
        f.eliminated.add(self.eliminated);
        f.repair_calls.add(self.repair_calls);
        f.repair_rematches.add(self.repair_rematches);
        f.affected_nodes.add(self.affected_nodes);
        for sample in &self.per_pattern {
            f.pattern_refresh_ns.observe(sample.ns);
            metrics::global()
                .counter_with(
                    "gpnm_pattern_refresh_total",
                    &[("strategy", sample.strategy)],
                )
                .inc();
        }
        if let Some(io) = &self.io {
            f.cache_hits.add(io.hits);
            f.cache_misses.add(io.misses);
            f.cache_evictions.add(io.evictions);
            f.pages_read.add(io.pages_read);
            f.pages_written.add(io.pages_written);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_flushes_into_the_global_registry() {
        let before_ticks = metrics::global().counter("gpnm_ticks_total").get();
        let before_elim = metrics::global().counter("gpnm_eliminated_total").get();
        let rematch = metrics::global().counter("gpnm_repair_rematch_total");
        let before_rematch = rematch.get();
        let repair_s = |kind| {
            let g = metrics::global().gauge_with("gpnm_slen_repair_seconds", &[("kind", kind)]);
            g.get()
        };
        let before_repair = (repair_s("delete_edge"), repair_s("delete_node"));
        let mut rec = TickRecorder::new();
        rec.reduce_ns = 100;
        rec.add_commit("delete_edge", 150);
        rec.add_commit("delete_node", 20);
        rec.add_commit("delete_edge", 30);
        assert_eq!(rec.commit_ns, 200);
        assert_eq!(
            rec.commit_ns_by_kind,
            [("delete_edge", 180), ("delete_node", 20)]
        );
        rec.eliminated = 7;
        rec.repair_rematches = 2;
        rec.per_pattern.push(PatternRefreshSample {
            handle: 0,
            ns: 1234,
            strategy: "UA-GPNM",
        });
        rec.io = Some(IoDelta {
            hits: 5,
            misses: 1,
            ..IoDelta::default()
        });
        let total = rec.finish();
        assert!(total >= rec.reduce_ns || total > 0);
        assert_eq!(
            metrics::global().counter("gpnm_ticks_total").get(),
            before_ticks + 1
        );
        assert_eq!(
            metrics::global().counter("gpnm_eliminated_total").get(),
            before_elim + 7
        );
        assert_eq!(rematch.get(), before_rematch + 2);
        assert!((repair_s("delete_edge") - before_repair.0 - 180e-9).abs() < 1e-12);
        assert!((repair_s("delete_node") - before_repair.1 - 20e-9).abs() < 1e-12);
        let text = metrics::metrics_text();
        assert!(text.contains("gpnm_slen_repair_seconds{kind=\"delete_edge\"}"));
        assert!(text.contains("gpnm_paged_cache_hits_total"));
        assert!(text.contains("gpnm_pattern_refresh_total{strategy=\"UA-GPNM\"}"));
    }
}
