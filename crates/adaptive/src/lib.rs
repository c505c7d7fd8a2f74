//! # gpnm-adaptive — the refresh-parallelism tuner
//!
//! **Decision logic only**: nothing here touches a graph or an index; the
//! host feeds measurements in and applies the choice.
//!
//! A host tick refreshes every standing pattern with one merged repair
//! pass whose cost is bounded by a re-match of the affected pattern nodes
//! whatever the batch size, so there is no per-pattern strategy left to
//! choose between. What still varies with the workload is whether those k
//! independent refreshes are worth fanning out: [`ThreadTuner`] — one per
//! host — flips the refresh phase between the sequential baseline and
//! pool fan-out by comparing the summed refresh time against the
//! fan-out's critical path plus the pool's spawn overhead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Estimated fan-out overhead per refresh lane, in nanoseconds: spawning
/// and joining one scoped thread (31–35 µs on the 2-core reference box)
/// plus the cold caches it starts with. Fitted when lanes were
/// persistent workers (a 2-lane fan-out turned six refreshes that take
/// 90 µs in sequence into a 205 µs phase, 160 µs over the ideal 45) and
/// kept so that the tuner's choice on the benchmark's adaptive workload
/// (one refresh lane) stays put.
const SPAWN_OVERHEAD_NS: u128 = 80_000;

/// Relative margin the parallel estimate must win by before fanning out
/// (and lose by before falling back) — stops borderline ticks from
/// flapping the choice.
const HYSTERESIS: f64 = 0.25;

/// Flips the per-pattern refresh phase between the sequential baseline
/// (`refresh_threads = 0`) and pool fan-out, from the per-pattern refresh
/// times the host last measured.
///
/// The model: a sequential refresh costs the *sum* of the per-pattern
/// times; the fan-out hands each lane one contiguous chunk of patterns,
/// so it costs at least the slowest pattern and at least an even share
/// of the sum, plus per-lane spawn overhead. The tuner fans out only
/// when the measured sum beats that parallel estimate by the hysteresis
/// margin — tiny patterns stay on the overhead-free sequential path,
/// heavy ones get the pool.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadTuner {
    parallel: bool,
}

impl ThreadTuner {
    /// Whether the last decision was to fan out.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// The `refresh_threads` value for the coming tick (`0` =
    /// sequential), given the summed (`total_ns`) and worst-single-pattern
    /// (`max_ns`) refresh times it is expected to take, the number of
    /// registered patterns, and the pool lanes available.
    pub fn decide(
        &mut self,
        total_ns: u128,
        max_ns: u128,
        patterns: usize,
        pool_lanes: usize,
    ) -> usize {
        let lanes = pool_lanes.min(patterns);
        if lanes <= 1 {
            self.parallel = false;
            return 0;
        }
        let critical_path = max_ns.max(total_ns / lanes as u128);
        let parallel_est = critical_path + SPAWN_OVERHEAD_NS * lanes as u128;
        let was_parallel = self.parallel;
        if self.parallel {
            // Fall back only when parallel is clearly not paying for its
            // overhead anymore.
            if (total_ns as f64) < parallel_est as f64 * (1.0 - HYSTERESIS) {
                self.parallel = false;
            }
        } else if (total_ns as f64) > parallel_est as f64 * (1.0 + HYSTERESIS) {
            self.parallel = true;
        }
        if self.parallel != was_parallel {
            tracing::event!(
                tracing::Level::DEBUG,
                "tuner_decision",
                parallel = self.parallel,
                total_ns = total_ns,
                parallel_est_ns = parallel_est,
                lanes = lanes,
            );
        }
        if self.parallel {
            lanes
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuner_fans_out_heavy_refreshes_only() {
        let mut tuner = ThreadTuner::default();
        // Tiny refresh: sum 40 µs over 4 patterns — overhead dominates.
        assert_eq!(tuner.decide(40_000, 12_000, 4, 8), 0);
        // Heavy refresh: sum 40 ms, max 12 ms — fan out over min(pool, k).
        assert_eq!(tuner.decide(40_000_000, 12_000_000, 4, 8), 4);
        assert!(tuner.parallel());
        // Borderline tick inside the hysteresis band: stays parallel.
        assert_eq!(tuner.decide(400_000, 100_000, 4, 8), 4);
        // Clearly sequential again: falls back.
        assert_eq!(tuner.decide(50_000, 45_000, 4, 8), 0);
        // One pattern can never fan out.
        assert_eq!(tuner.decide(40_000_000, 40_000_000, 1, 8), 0);
    }
}
