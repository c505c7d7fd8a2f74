//! The unified session surface every GPNM host speaks: [`PatternHost`]
//! for the register/apply/read lifecycle, [`TickOutcome`] for what a tick
//! reported, and the shared [`HandleId`] every handle type wraps.
//!
//! `GpnmService` and `gpnm-cluster`'s `GpnmCluster` serve the same
//! session surface — `pattern`, `result`, `apply`, … — and
//! [`PatternHost`] is its only copy: each host implements those methods in
//! its trait impl and nowhere else, keeping only host-specific methods
//! (`apply_prevalidated`, `backend`, `shards`, …) inherent. Callers import
//! the trait (the facade prelude exports it); tools like `gpnm replay` and
//! the concurrency stress harness are generic over `PatternHost` instead of
//! branching on "service or cluster".

use std::fmt;
use std::sync::Arc;

use gpnm_graph::{DataGraph, PatternGraph};
use gpnm_matcher::{MatchDelta, MatchResult, MatchSemantics};
use gpnm_updates::UpdateBatch;

use crate::read::{ReadFront, ReadView, Subscription};

/// The raw identity shared by every handle flavor
/// ([`crate::PatternHandle`], `gpnm-cluster`'s `ClusterHandle`): a
/// never-reissued `u64`, ascending in registration order, keying the
/// host's [`ReadFront`]. Handle types are newtypes over this so the
/// front-end, subscriptions and display formatting are written once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HandleId(pub(crate) u64);

impl HandleId {
    /// An id from its raw number — for host implementations minting
    /// handles; application code receives handles from `register_pattern`.
    pub fn from_raw(raw: u64) -> HandleId {
        HandleId(raw)
    }

    /// The numeric id (stable, ascending in registration order).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for HandleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pattern #{}", self.0)
    }
}

/// What one tick reported, read uniformly: the service's `TickReport`
/// and the cluster's `ClusterTickReport` — [`PatternHost::apply`]'s
/// report on each host — both implement this, so per-tick consumers (delta printers, reconstruction
/// checks, stats dumps) are written once against the trait.
pub trait TickOutcome {
    /// The handle type the deltas are keyed by.
    type Handle: Copy + Eq + fmt::Display;

    /// 1-based tick number (batches applied so far).
    fn tick(&self) -> u64;

    /// Per-pattern deltas, in registration order.
    fn deltas(&self) -> &[(Self::Handle, MatchDelta)];

    /// One-line human summary.
    fn summary(&self) -> String;

    /// Multi-line rendering of the tick's fine-grained timing/counters
    /// (per-shard for a cluster report).
    fn render_stats(&self) -> String;

    /// The tick's stats as one self-contained JSON object (no trailing
    /// newline) — the `gpnm replay --stats-json` line format (one object
    /// per tick, newline-delimited = JSONL).
    ///
    /// This is the canonical schema description; the implementations
    /// mirror it exactly.
    ///
    /// Top-level fields (both hosts):
    ///
    /// * `tick` — 1-based tick number;
    /// * `ts_ms` — wall-clock unix milliseconds when the tick finished,
    ///   sampled from the telemetry clock;
    /// * `updates_submitted` / `updates_applied` — batch size before and
    ///   after net-effect reduction;
    /// * `slen_changes` — distance-index entries rewritten by commits;
    /// * `added` / `removed` — match pairs gained/lost across all
    ///   patterns ([`TickOutcome::total_added`]/[`TickOutcome::total_removed`]);
    /// * `total_ns` — end-to-end tick wall time in nanoseconds.
    ///
    /// A service report adds `stats`: one *stats object* (below). A
    /// cluster report instead adds `shards` (array of stats objects,
    /// shard order).
    ///
    /// Stats object fields: phase timings in integer nanoseconds
    /// (`reduce_ns`, `shared_repair_ns`, `plan_ns` — the commit pass
    /// less its commits, i.e. deriving root gains —, `refresh_total_ns`,
    /// `refresh_max_ns`, `publish_ns` — `publish_ns` is 0 on a
    /// non-publishing host); `shared_repair_by_kind_ns` — an object from
    /// update kind to its nanoseconds of `shared_repair_ns`, holding only
    /// the kinds the tick committed; tick counters (`repair_calls`,
    /// `addition_candidates`, `affected_nodes`); index gauges
    /// (`backend_kind`, `resident_rows`, `index_mem_bytes`);
    /// `per_pattern` — array of `{handle, refresh_ns}` in registration
    /// order, `handle` being the id of the host's own handle (a cluster
    /// handle in a cluster's shard objects); `io` —
    /// `{cache_hits, cache_misses, cache_evictions, pages_read,
    /// pages_written}`, the backend's IO **during this tick** (the
    /// cumulative counters diffed across it), or `null` on in-memory
    /// backends.
    fn stats_json(&self) -> String;

    /// The delta of one registered pattern, if it is part of this tick.
    fn delta_for(&self, handle: Self::Handle) -> Option<&MatchDelta> {
        self.deltas()
            .iter()
            .find(|(h, _)| *h == handle)
            .map(|(_, d)| d)
    }

    /// Match pairs gained across all patterns.
    fn total_added(&self) -> usize {
        self.deltas().iter().map(|(_, d)| d.added.len()).sum()
    }

    /// Match pairs lost across all patterns.
    fn total_removed(&self) -> usize {
        self.deltas().iter().map(|(_, d)| d.removed.len()).sum()
    }
}

/// A host of standing GPNM patterns over one evolving data graph: the
/// shared session API of `GpnmService` (one process, one backend) and
/// `GpnmCluster` (k sharded replicas).
///
/// The contract every implementation honors:
///
/// * handles are never reissued; a stale handle is a typed
///   `Self::Error`, never a panic;
/// * [`PatternHost::apply`] is the only mutation of standing results, and
///   each tick yields exactly one [`MatchDelta`] per registered pattern
///   with a monotone `result_version`;
/// * [`PatternHost::read_view`] / [`PatternHost::subscribe`] serve the
///   concurrent read front-end: readers on any thread (via
///   [`PatternHost::reader`]) always observe a fully-committed epoch.
pub trait PatternHost {
    /// Opaque per-pattern handle ([`crate::PatternHandle`] or
    /// `ClusterHandle`), convertible to the shared [`HandleId`].
    type Handle: Copy
        + Eq
        + std::hash::Hash
        + fmt::Debug
        + fmt::Display
        + Into<HandleId>
        + Send
        + Sync
        + 'static;
    /// The host's typed error ([`crate::ServiceError`] or `ClusterError`).
    type Error: std::error::Error + 'static;
    /// What [`PatternHost::apply`] reports.
    type Report: TickOutcome<Handle = Self::Handle>;

    /// The current data graph (shard 0's replica on a cluster — all
    /// replicas walk the same trajectory).
    fn graph(&self) -> &DataGraph;

    /// The registered pattern behind `handle`.
    fn pattern(&self, handle: Self::Handle) -> Result<&PatternGraph, Self::Error>;

    /// The full current result of `handle` — the snapshot for late
    /// joiners; deltas are the streaming answer.
    fn result(&self, handle: Self::Handle) -> Result<&MatchResult, Self::Error>;

    /// How many ticks `handle`'s result has absorbed since registration.
    fn result_version(&self, handle: Self::Handle) -> Result<u64, Self::Error>;

    /// Handles of every registered pattern, in registration order.
    fn handles(&self) -> Vec<Self::Handle>;

    /// Number of registered patterns.
    fn pattern_count(&self) -> usize;

    /// Batches applied so far.
    fn tick(&self) -> u64;

    /// Register a standing pattern and return the handle its deltas will
    /// be keyed by. `semantics` selects nothing (see [`MatchSemantics`]).
    fn register_pattern(
        &mut self,
        pattern: PatternGraph,
        semantics: MatchSemantics,
    ) -> Result<Self::Handle, Self::Error>;

    /// Deregister a standing pattern. Its subscriptions receive a final
    /// [`crate::SubEvent::Closed`]; its views stop being served.
    fn deregister(&mut self, handle: Self::Handle) -> Result<(), Self::Error>;

    /// Apply one data-update batch — once — and refresh every registered
    /// pattern.
    fn apply(&mut self, batch: &UpdateBatch) -> Result<Self::Report, Self::Error>;

    /// The last published snapshot of `handle` — an `Arc` clone under the
    /// front's view-map read lock, which publication holds only to swap a
    /// tick's pointers (never across a tick); safe to call from any thread
    /// holding [`PatternHost::reader`].
    fn read_view(&self, handle: Self::Handle) -> Result<Arc<ReadView>, Self::Error>;

    /// Subscribe to `handle`'s per-tick delta stream (default bounded
    /// capacity — see [`crate::DEFAULT_SUBSCRIPTION_CAPACITY`]).
    fn subscribe(&self, handle: Self::Handle) -> Result<Subscription, Self::Error>;

    /// A cloneable, `Send + Sync` handle onto this host's read front-end
    /// for reader threads: views and subscriptions survive there while
    /// `&mut self` ticks proceed here.
    fn reader(&self) -> ReadFront;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_id_displays_like_handles_always_did() {
        let id = HandleId(7);
        assert_eq!(id.to_string(), "pattern #7");
        assert_eq!(id.raw(), 7);
        assert!(HandleId(1) < HandleId(2));
    }
}
