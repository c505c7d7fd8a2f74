//! `gpnm-bench` — the benchmark of record for this repository.
//!
//! One harness, one schema: six workloads, each measured end to end with
//! tracing off and, in a separate traced run, split by layer. It drives
//! the system only through its public API and lives entirely in this
//! directory. See `README.md` for the metric and workload definitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calib;
pub mod compare;
pub mod host;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod spec;
pub mod squery;
pub mod staged;
pub mod stats;

use std::path::PathBuf;
use std::time::Instant;

use gpnm_cluster::GpnmCluster;
use gpnm_distance::AnyBackend;
use gpnm_service::GpnmService;

use metrics::Outcome;
use spec::{HostKind, Spec};

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 11;

/// Options of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Seed of the update stream.
    pub seed: u64,
    /// How long the run measures. The first round always completes, so 0
    /// means exactly one round — the fixed-work mode of the self-test.
    pub seconds: f64,
    /// Where the traced run writes its Chrome trace JSON, if anywhere.
    pub trace_out: Option<PathBuf>,
}

/// The sessions of a run as `(round, session)` pairs: round 0 in full,
/// then the same sessions again, a new one starting only while the run is
/// younger than `seconds`. The clock starts when this is called.
pub(crate) fn session_plan(sessions: usize, seconds: f64) -> impl Iterator<Item = (usize, usize)> {
    let start = Instant::now();
    (0..)
        .flat_map(move |round| (0..sessions).map(move |session| (round, session)))
        .take_while(move |&(round, _)| round == 0 || start.elapsed().as_secs_f64() < seconds)
}

/// Run `spec` once: the end-to-end measurement, or the traced layer split.
pub fn run_workload(spec: &Spec, opts: &RunOpts, traced: bool) -> Result<Outcome, String> {
    match (spec.host, traced) {
        (HostKind::Service, false) => host::run_end_to_end::<GpnmService<AnyBackend>>(spec, opts),
        (HostKind::Service, true) => host::run_traced::<GpnmService<AnyBackend>>(spec, opts),
        (HostKind::Cluster { .. }, false) => host::run_end_to_end::<GpnmCluster>(spec, opts),
        (HostKind::Cluster { .. }, true) => host::run_traced::<GpnmCluster>(spec, opts),
        (HostKind::Engine, traced) => squery::run(spec, opts, traced),
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` does not offer it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}
