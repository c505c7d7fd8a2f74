//! Pattern-to-shard placement: the pluggable scheduling seam of
//! [`crate::GpnmCluster`].
//!
//! Placement is where a sharded deployment's asymmetry is decided: a
//! shard's per-tick repair cost is proportional to the rows its narrowed
//! index keeps resident, and those rows are the union of its patterns'
//! [`SlenRequirements`](gpnm_distance::SlenRequirements) — so where a
//! pattern lands determines both how balanced the shards stay and how much
//! total index the cluster maintains. The cluster computes a
//! [`ShardLoad`] snapshot per shard (including the *projected* row count
//! if the candidate pattern joined it, via
//! `SlenRequirements::covered_rows`) and hands the decision to a
//! [`ShardPlacement`] strategy.

use gpnm_graph::PatternGraph;

/// One shard's load snapshot at placement time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard index (`0..shard_count`).
    pub shard: usize,
    /// Patterns currently registered on the shard.
    pub patterns: usize,
    /// Distance rows the shard's index currently keeps resident.
    pub resident_rows: usize,
    /// Approximate heap footprint of the shard's index, in bytes.
    pub mem_bytes: usize,
    /// Rows the shard's index would keep resident if the candidate
    /// pattern were placed here — `covered_rows` of the union of the
    /// shard's current requirements and the candidate's. The marginal
    /// cost of the placement is `projected_rows - resident_rows`: small
    /// when the candidate's labels are already covered, large when it
    /// drags new label families (or, on dense backends, nothing at all)
    /// into the shard.
    pub projected_rows: usize,
}

/// A placement strategy: given the candidate pattern and a load snapshot
/// per shard, pick the shard (`0..loads.len()`) the pattern lives on.
///
/// Strategies are stateful (`&mut self`) so cursors and histories work;
/// they are consulted once per
/// [`PatternHost::register_pattern`](gpnm_service::PatternHost::register_pattern)
/// call, never on ticks. Returning an out-of-range index is a typed
/// registration error, not a panic.
pub trait ShardPlacement: Send + std::fmt::Debug {
    /// Pick the shard for `pattern`. `loads` has one entry per shard, in
    /// shard order; it is never empty.
    fn place(&mut self, pattern: &PatternGraph, loads: &[ShardLoad]) -> usize;

    /// Short strategy name for CLIs and reports.
    fn name(&self) -> &'static str;
}

/// Deal patterns to shards in rotation, ignoring load. The baseline: no
/// introspection, perfectly even pattern *counts*, and deterministic —
/// pattern `i` lands on shard `i % k` — which benches exploit to place
/// heterogeneous patterns deliberately.
#[derive(Debug, Default, Clone)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A fresh cursor starting at shard 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ShardPlacement for RoundRobin {
    fn place(&mut self, _pattern: &PatternGraph, loads: &[ShardLoad]) -> usize {
        let shard = self.next % loads.len();
        self.next = (self.next + 1) % loads.len();
        shard
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Place each pattern where it grows the cluster's total resident rows
/// the least, breaking ties toward the shard with fewer rows overall,
/// then fewer patterns, then the lowest index (so the strategy is
/// deterministic). Because `projected_rows` already accounts for label
/// overlap, this strategy naturally co-locates patterns over the same
/// label families — the sharding win: one shard pays for a label's rows
/// once instead of every shard paying for it.
#[derive(Debug, Default, Clone)]
pub struct LeastLoaded;

impl LeastLoaded {
    /// The strategy (stateless).
    pub fn new() -> Self {
        Self
    }
}

impl ShardPlacement for LeastLoaded {
    fn place(&mut self, _pattern: &PatternGraph, loads: &[ShardLoad]) -> usize {
        loads
            .iter()
            .min_by_key(|l| {
                let marginal = l.projected_rows.saturating_sub(l.resident_rows);
                (marginal, l.resident_rows, l.patterns, l.shard)
            })
            .expect("loads is never empty")
            .shard
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(shard: usize, patterns: usize, resident: usize, projected: usize) -> ShardLoad {
        ShardLoad {
            shard,
            patterns,
            resident_rows: resident,
            mem_bytes: resident * 64,
            projected_rows: projected,
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut rr = RoundRobin::new();
        let p = PatternGraph::new();
        let loads = [load(0, 0, 0, 10), load(1, 0, 0, 10), load(2, 0, 0, 10)];
        let picks: Vec<usize> = (0..7).map(|_| rr.place(&p, &loads)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_loaded_minimizes_marginal_rows() {
        let mut ll = LeastLoaded::new();
        let p = PatternGraph::new();
        // Shard 1 already covers the candidate's labels (no marginal
        // growth) even though it holds more rows than shard 0.
        let loads = [load(0, 1, 10, 50), load(1, 3, 80, 80)];
        assert_eq!(ll.place(&p, &loads), 1);
        // With equal marginals the emptier shard wins.
        let loads = [load(0, 1, 40, 60), load(1, 1, 20, 40)];
        assert_eq!(ll.place(&p, &loads), 1);
        // Full tie: lowest index.
        let loads = [load(0, 1, 20, 40), load(1, 1, 20, 40)];
        assert_eq!(ll.place(&p, &loads), 0);
    }
}
