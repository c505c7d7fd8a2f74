//! Phase-level execution statistics for a subsequent query.

use std::time::Duration;

/// Where a subsequent query spent its time, and what the elimination
/// analysis found. Returned by [`crate::GpnmEngine::subsequent_query`].
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Display name of the [`crate::Strategy`] that answered the query
    /// (`""` on a default-constructed value) — lets cost-model consumers
    /// attribute a sample without carrying the strategy alongside.
    pub strategy: &'static str,
    /// Updates in the submitted batch (`|ΔG|`).
    pub updates_submitted: usize,
    /// Updates after net-effect reduction (cancelled pairs removed).
    pub updates_after_reduction: usize,
    /// Updates eliminated by the EH-Tree (`|Ue|` in the §VI bound).
    pub eliminated: usize,
    /// Surviving updates that got their own repair pass.
    pub repair_calls: usize,
    /// Total distance-pair changes committed to `SLen`.
    pub slen_changes: usize,
    /// Net-effect reduction time.
    pub reduce_time: Duration,
    /// DER-I/II/III detection time (candidate sets, repair plans, cross checks).
    pub detect_time: Duration,
    /// EH-Tree construction time.
    pub tree_time: Duration,
    /// Graph + `SLen` commit time (per-update repairs).
    pub slen_time: Duration,
    /// Match repair time.
    pub repair_time: Duration,
    /// End-to-end wall time of the subsequent query.
    pub total_time: Duration,
}

impl ExecStats {
    /// Sum of the phase timings (excludes unattributed overhead).
    pub fn phase_sum(&self) -> Duration {
        self.reduce_time + self.detect_time + self.tree_time + self.slen_time + self.repair_time
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let tag = if self.strategy.is_empty() {
            String::new()
        } else {
            format!("[{}] ", self.strategy)
        };
        format!(
            "{tag}ΔG={} (net {}), eliminated={}, repairs={}, slen_changes={}, total={:?}",
            self.updates_submitted,
            self.updates_after_reduction,
            self.eliminated,
            self.repair_calls,
            self.slen_changes,
            self.total_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_sum_adds_up() {
        let s = ExecStats {
            reduce_time: Duration::from_millis(1),
            detect_time: Duration::from_millis(2),
            tree_time: Duration::from_millis(3),
            slen_time: Duration::from_millis(4),
            repair_time: Duration::from_millis(5),
            ..Default::default()
        };
        assert_eq!(s.phase_sum(), Duration::from_millis(15));
    }

    #[test]
    fn summary_mentions_counts() {
        let s = ExecStats {
            strategy: "UA-GPNM",
            updates_submitted: 7,
            updates_after_reduction: 5,
            eliminated: 2,
            repair_calls: 3,
            ..Default::default()
        };
        let text = s.summary();
        assert!(text.contains("[UA-GPNM]"));
        assert!(text.contains("ΔG=7"));
        assert!(text.contains("net 5"));
        assert!(text.contains("eliminated=2"));
        assert!(!ExecStats::default().summary().starts_with('['));
    }
}
