//! Telemetry substrate for the gpnm workspace.
//!
//! Two pieces, both offline and dependency-free:
//!
//! - [`metrics`] — a process-global registry of monotonic [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed [`Histogram`]s (p50/p90/p99 summaries).
//!   The hot path is a single relaxed `std::sync::atomic` RMW;
//!   registration (name → handle) is the only locked step and call sites
//!   cache the returned handles. [`metrics_text`] renders the whole
//!   registry in Prometheus text exposition format.
//! - [`collect`] — a [`SpanCollector`] implementing the tracing shim's
//!   `Subscriber`: it records every span interval (name, thread, parent,
//!   fields, start/duration) and event, and renders them as a Chrome
//!   `chrome://tracing` trace-event JSON ([`Trace::chrome_json`]) or a
//!   per-span summary table ([`Trace::summary_table`]).
//!
//! No tick record lives here: a service tick's phase timings and work
//! counters are stored once, in `gpnm-service`'s `TickStats`, and the
//! service flushes that record into the registry at the end of the tick,
//! so the per-tick stats and the cumulative metrics read the same values.
//!
//! The [`clock`] module is the telemetry time source: monotonic
//! nanoseconds since process start for span timestamps, wall-clock unix
//! milliseconds for the `--stats-json` `ts_ms` field.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod collect;
pub mod metrics;

pub use collect::{SpanCollector, SpanData, Trace};
pub use metrics::{global, metrics_text, Counter, Gauge, Histogram, Registry};

use std::sync::Arc;

/// Install a fresh [`SpanCollector`] as the global tracing subscriber
/// (replacing any previous one) and return it. The replay harness calls
/// this when `--trace-out`/`--trace-summary` is requested; pair with
/// [`uninstall_collector`] or drain via [`SpanCollector::finish`].
pub fn install_collector() -> Arc<SpanCollector> {
    let collector = Arc::new(SpanCollector::new());
    let as_sub: Arc<dyn tracing::Subscriber> = collector.clone();
    tracing::subscriber::replace_global_default(Some(as_sub));
    collector
}

/// Remove the global tracing subscriber, returning spans/events to the
/// disabled (near-zero cost) fast path.
pub fn uninstall_collector() {
    tracing::subscriber::replace_global_default(None);
}
