//! Calibration: a fixed piece of work that owes nothing to the program
//! under test, timed beside the ticks to tell how fast the box is running
//! right now.
//!
//! The reference box does not run at one speed. For tens of seconds at a
//! time everything on it takes up to half as long again — longer than a
//! run lasts, so no amount of repeating inside a run averages it out (ten
//! same-seed runs of one workload spread their median tick time by 18%).
//! Times are therefore reported *calibrated*: divided by how much slower
//! than [`REFERENCE_NS`] the kernel ran during the run. At full speed a
//! calibrated time is the wall time; in a slow spell it is what the wall
//! time would have been.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{median, percentile};

/// Entries of the chase table: 1 MiB of `u32`, L2-resident like the
/// program's indexes.
const ENTRIES: usize = 1 << 18;

/// Hops per kernel run (a little under a millisecond).
const HOPS: usize = 100_000;

/// What one kernel run takes on the reference box at full speed, ns: the
/// 10th percentile of a run's session medians sat at 735 000–761 000 on all
/// five host workloads when this was fixed.
pub const REFERENCE_NS: f64 = 750_000.0;

/// While ticks run, the kernel is sampled again once the last sample is
/// this old: often enough to follow the box, rarely enough to cost a few
/// percent of the run.
const SAMPLE_EVERY: Duration = Duration::from_millis(25);

/// The calibration kernel: a dependent walk over a fixed random cycle with
/// integer arithmetic and a data-dependent branch on every hop — the mix
/// the program's own graph code is made of.
#[derive(Debug)]
struct Kernel {
    next: Vec<u32>,
    at: u32,
}

impl Kernel {
    /// Build the table: one cycle through every entry (Sattolo's shuffle
    /// from a fixed seed, so the work is the same in every process).
    fn new() -> Self {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..ENTRIES).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            next.swap(i, (state % i as u64) as usize);
        }
        Kernel { next, at: 0 }
    }

    /// Run the kernel once; returns its wall time in ns.
    fn run(&mut self) -> f64 {
        // Whatever the program just did to the caches, the timed walk
        // starts with the table loaded: the kernel must measure the box,
        // not the program's memory footprint.
        black_box(self.next.iter().fold(0u32, |acc, &v| acc ^ v));
        let t = Instant::now();
        let (mut at, mut acc) = (self.at, 0x2545_F491_4F6C_DD1Du64);
        for _ in 0..HOPS {
            at = self.next[at as usize];
            acc ^= acc << 13;
            acc ^= acc >> 7;
            acc ^= acc << 17;
            acc = if (acc ^ u64::from(at)) & 1 == 0 {
                acc.wrapping_add(u64::from(at))
            } else {
                acc.rotate_left(5) ^ u64::from(at)
            };
        }
        self.at = black_box(at);
        black_box(acc);
        t.elapsed().as_nanos() as f64
    }
}

/// Samples the kernel between a run's measured operations and says how
/// much slower than the reference the box ran over the run.
#[derive(Debug)]
pub struct Calibrator {
    kernel: Kernel,
    samples: Vec<f64>,
    last: Instant,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// A calibrator with no samples.
    pub fn new() -> Self {
        Calibrator {
            kernel: Kernel::new(),
            samples: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Take a sample now. Call between measured operations, never inside
    /// one.
    pub fn sample(&mut self) {
        let ns = self.kernel.run();
        self.samples.push(ns);
        self.last = Instant::now();
    }

    /// Take a sample if the last one is older than [`SAMPLE_EVERY`].
    pub fn poll(&mut self) {
        if self.last.elapsed() >= SAMPLE_EVERY {
            self.sample();
        }
    }

    /// How many times slower than the reference the box ran in the fastest
    /// moments of the run: the divisor for a time that is itself the
    /// fastest of `replays` executions of the same work. That time was
    /// taken from about the fastest `1 / replays` of the run, so the kernel
    /// sample at that quantile goes with it (at most the median) — a run
    /// that caught only a few good moments and a run that had nothing else
    /// then land on the same number.
    pub fn fastest_of(&self, replays: f64) -> f64 {
        let share = (100.0 / replays.max(1.0)).min(50.0);
        percentile(&self.samples, share) / REFERENCE_NS
    }

    /// How many times slower than the reference the box typically ran: the
    /// median sample over [`REFERENCE_NS`]. The divisor for a median of
    /// repeated operations.
    pub fn typical(&self) -> f64 {
        median(&self.samples) / REFERENCE_NS
    }

    /// How many samples were taken.
    pub fn samples_taken(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle_and_the_work_is_fixed() {
        let kernel = Kernel::new();
        let (mut at, mut hops) = (0u32, 0usize);
        loop {
            at = kernel.next[at as usize];
            hops += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(hops, ENTRIES);
        assert_eq!(Kernel::new().next, kernel.next);
    }

    #[test]
    fn slowdowns_are_sample_quantiles_over_the_reference() {
        let mut cal = Calibrator::new();
        cal.sample();
        cal.poll();
        assert_eq!(cal.samples_taken(), 1, "the last sample is fresh");
        cal.samples = [4.0, 1.0, 3.0, 2.0].map(|x| x * REFERENCE_NS).to_vec();
        assert_eq!(cal.fastest_of(4.0), 1.0);
        assert_eq!(cal.fastest_of(1.0), 2.0, "one execution is a typical one");
        assert_eq!(cal.typical(), 2.5);
    }
}
