//! The metric catalogue: every name, unit and direction the benchmark
//! reports, in one place. `BENCHMARK.json` mirrors these lists (a test
//! keeps the two in step).

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, `layer.metric` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may get worse (end-to-end
    /// metrics only; 0 for per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: measured with tracing off, reported by every
/// workload, never 0. A bound is at least three times the widest ten-seed
/// quartile spread the metric showed on any workload (README, "End-to-end
/// metrics"), and at most the benchmark contract's 0.25.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("updates_per_s", "1/s", Higher, 0.25),
    e2e("tick_p50_ms", "ms", Lower, 0.25),
    e2e("tick_p90_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics from the traced run. Times are per-tick means unless
/// the unit says otherwise; a metric that does not apply to a workload is
/// reported as 0 there.
pub const PER_LAYER: [MetricDef; 53] = [
    layer("updates.validate_us", "us", Lower),
    layer("updates.reduce_us", "us", Lower),
    layer("updates.detect_us", "us", Lower),
    layer("updates.ehtree_us", "us", Lower),
    layer("updates.net_ratio", "ratio", Lower),
    layer("updates.eliminated_ratio", "ratio", Higher),
    layer("graph.mutate_us", "us", Lower),
    layer("graph.nodes_end", "count", Lower),
    layer("graph.edges_end", "count", Lower),
    layer("distance.build_ms", "ms", Lower),
    layer("distance.repair_us", "us", Lower),
    layer("distance.slen_changes", "1/tick", Lower),
    layer("distance.affected_nodes", "1/tick", Lower),
    layer("distance.resident_rows", "count", Lower),
    layer("distance.index_mib", "MiB", Lower),
    layer("distance.cache_hit_ratio", "ratio", Higher),
    layer("distance.pages_read", "1/tick", Lower),
    layer("distance.pages_written", "1/tick", Lower),
    layer("distance.evictions", "1/tick", Lower),
    layer("matcher.initial_match_ms", "ms", Lower),
    layer("matcher.repair_us", "us", Lower),
    layer("matcher.repair_calls", "1/tick", Lower),
    layer("matcher.repair_max_us", "us", Lower),
    layer("matcher.matches_end", "count", Higher),
    layer("engine.plan_us", "us", Lower),
    layer("engine.squery_slen_ms", "ms", Lower),
    layer("engine.squery_detect_ms", "ms", Lower),
    layer("engine.squery_repair_ms", "ms", Lower),
    layer("engine.inc_over_ua", "ratio", Higher),
    layer("adaptive.switches", "count", Lower),
    layer("adaptive.rematch_share", "ratio", Lower),
    layer("pool.lanes", "count", Higher),
    layer("service.refresh_lanes", "count", Higher),
    layer("service.delta_us", "us", Lower),
    layer("service.publish_us", "us", Lower),
    layer("service.sub_events", "1/tick", Higher),
    layer("service.sub_lagged", "count", Lower),
    layer("service.read_ns", "ns", Lower),
    layer("service.reads_per_s", "1/s", Higher),
    layer("service.apply_overhead_us", "us", Lower),
    layer("cluster.shard_sum_us", "us", Lower),
    layer("cluster.shard_max_us", "us", Lower),
    layer("cluster.fanout_overhead_us", "us", Lower),
    layer("cluster.index_mib_total", "MiB", Lower),
    layer("telemetry.collector_overhead_pct", "%", Lower),
    layer("telemetry.spans_per_tick", "1/tick", Lower),
    layer("workload.gen_us", "us", Lower),
    layer("trace.ticks", "count", Higher),
    layer("trace.host_tick_p50_us", "us", Lower),
    layer("trace.staged_tick_p50_us", "us", Lower),
    layer("trace.staged_over_host", "ratio", Lower),
    layer("trace.host_tick_mean_us", "us", Lower),
    layer("trace.staged_tick_mean_us", "us", Lower),
];

/// How far the staged tick p50 may sit from the host's before the layer
/// table is called unrepresentative.
pub const STAGED_TOLERANCE: f64 = 0.15;

/// Look a declared metric up in either list.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ticks attempted + verification checks attempted.
    pub attempted: u64,
    /// Ticks that returned `Err` + failed verification checks.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Timing samples behind the tick percentiles: the measured ticks of
    /// one round, each timed as the fastest of its replays.
    pub samples: usize,
    /// Rounds started (the last one may be partial).
    pub rounds: usize,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Exact counts of the first round, which every run completes: they
    /// repeat run to run.
    pub fingerprint: Fingerprint,
}

/// The exact-count identity of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Measured + warm-up ticks of the round.
    pub ticks: u64,
    /// Total matches over all patterns at the end of every session.
    pub matches_end: u64,
    /// `SLen` entries rewritten over the round's measured ticks.
    pub slen_changes: u64,
    /// Repair passes run over the round's measured ticks.
    pub repair_calls: u64,
    /// Updates applied after net-effect reduction over the round's
    /// measured ticks.
    pub updates_applied: u64,
    /// Order-sensitive hash of every batch of the round.
    pub batch_hash: u64,
}

impl Outcome {
    /// Record a declared metric. Panics on an undeclared name — that is a
    /// bug in the benchmark, not in the program under test.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }

    /// Count one verification check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// The metrics of `defs` with their units, every one present (a
    /// per-layer metric the workload never set reads 0).
    pub fn metrics_of(
        &self,
        defs: &'static [MetricDef],
    ) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        defs.iter()
            .map(|d| (d, self.values.get(d.name).copied().unwrap_or(0.0)))
    }
}
