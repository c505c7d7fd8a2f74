//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this shim keeps the
//! workspace's `[[bench]]` targets compiling (`cargo bench --no-run` is a CI
//! gate) and, when actually run, times each benchmark with a plain
//! wall-clock sampling loop and prints `name  time: [mean]` lines. It makes
//! no statistical claims — swap in real criterion via the workspace
//! manifest when registry access exists to get confidence intervals,
//! outlier rejection, and HTML reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Identifier for one benchmark: a function name plus an optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter`, criterion's grouped-id constructor.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_owned(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] runs the timing loop.
pub struct Bencher<'a> {
    cfg: &'a SamplingConfig,
    report_label: String,
}

impl Bencher<'_> {
    /// Time `f`, printing a mean-per-iteration line.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One untimed call warms caches and gives an iteration estimate.
        let start = Instant::now();
        black_box(f());
        let est = start.elapsed().max(Duration::from_nanos(1));

        let budget = self.cfg.measurement_time;
        let samples = self.cfg.sample_size.max(1) as u32;
        let per_sample = (budget / samples).max(Duration::from_micros(10));
        let iters_per_sample = (per_sample.as_nanos() / est.as_nanos()).clamp(1, 1_000_000) as u64;

        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        let deadline = Instant::now() + budget;
        for _ in 0..samples {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            total += t0.elapsed();
            iters += iters_per_sample;
            if Instant::now() >= deadline {
                break;
            }
        }
        let mean = Duration::from_nanos((total.as_nanos() / u128::from(iters.max(1))) as u64);
        println!("{:<60} time: [{:?}]", self.report_label, mean);
    }
}

#[derive(Debug, Clone)]
struct SamplingConfig {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
        }
    }
}

/// The benchmark driver handed to `criterion_group!` targets.
#[derive(Debug, Default)]
pub struct Criterion {
    cfg: SamplingConfig,
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            cfg: self.cfg.clone(),
            _parent: self,
        }
    }
}

/// A named group sharing sampling configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    cfg: SamplingConfig,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.cfg.sample_size = n;
        self
    }

    /// Set the per-benchmark wall-clock measurement budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.cfg.measurement_time = d;
        self
    }

    /// Accepted for API compatibility; this shim's single untimed warmup
    /// call is not budget-driven.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let id = id.into();
        let mut b = Bencher {
            cfg: &self.cfg,
            report_label: format!("{}/{}", self.name, id.label),
        };
        f(&mut b);
        self
    }

    /// Run one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        let id = id.into();
        let mut b = Bencher {
            cfg: &self.cfg,
            report_label: format!("{}/{}", self.name, id.label),
        };
        f(&mut b, input);
        self
    }

    /// Close the group (kept for API compatibility; a no-op here).
    pub fn finish(self) {}
}

/// Define a group function running the listed benchmark targets.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Define `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` forwards harness flags like `--bench`; this
            // shim has no CLI and ignores them.
            $($group();)+
        }
    };
}
