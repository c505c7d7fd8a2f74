//! # gpnm-cluster — the sharded GPNM serving layer
//!
//! One [`gpnm_service::GpnmService`] already amortizes a tick's graph +
//! `SLen` repair across many standing patterns; this crate distributes
//! that service. A [`GpnmCluster`] owns **k shards** — each a full
//! `GpnmService` over its own [`DataGraph`](gpnm_graph::DataGraph)
//! replica, with a backend narrowed to only *that shard's* patterns'
//! [`SlenRequirements`](gpnm_distance::SlenRequirements) — behind one
//! register/apply surface, the [`PatternHost`](gpnm_service::PatternHost)
//! trait every host implements:
//!
//! * `register_pattern` places each standing pattern on a shard via a
//!   pluggable [`ShardPlacement`] strategy ([`RoundRobin`], or
//!   [`LeastLoaded`], which minimizes the *marginal* resident-row growth a
//!   placement would cause) and returns a stable [`ClusterHandle`];
//! * `apply` validates a data batch **once**, fans it out
//!   to every shard **in parallel** in one
//!   [`gpnm_pool::WorkerPool::scope`], and merges the per-shard
//!   [`TickReport`](gpnm_service::TickReport)s into one
//!   [`ClusterTickReport`] keyed by cluster handles.
//!
//! The parallelism composes twice — across shards, and (with
//! `refresh_threads > 0`) across patterns within each shard — and the
//! *work* shrinks too: a shard's repair pass only touches rows for its own
//! patterns' labels, truncated at its own patterns' maximum bound, so one
//! deep or label-hungry pattern stops taxing every other pattern's repair.
//! Results stay bitwise identical to a single service and to k independent
//! engines (the `cluster_equivalence` proptest suite); the benchmark of
//! record's `cluster_2shard` workload prices a cluster tick against the
//! single host.
//!
//! ## Quickstart
//!
//! ```
//! use gpnm_cluster::{GpnmCluster, RoundRobin};
//! use gpnm_distance::BackendKind;
//! use gpnm_matcher::MatchSemantics;
//! use gpnm_service::{PatternHost, TickOutcome};
//! use gpnm_updates::{DataUpdate, UpdateBatch};
//!
//! let fig = gpnm_graph::paper::fig1();
//! let mut cluster = GpnmCluster::builder()
//!     .shards(2)
//!     .backend(BackendKind::Sparse)
//!     .refresh_threads(2)
//!     .placement(RoundRobin::new())
//!     .build(fig.graph)?;
//!
//! let staffing = cluster.register_pattern(fig.pattern, MatchSemantics::Simulation)?;
//!
//! let mut batch = UpdateBatch::new();
//! batch.push(DataUpdate::InsertEdge { from: fig.se1, to: fig.te2 });
//! let report = cluster.apply(&batch)?;
//! assert_eq!(report.tick, 1);
//! let delta = report.delta_for(staffing).expect("registered");
//! assert_eq!(delta.result_version, 1);
//! # Ok::<(), gpnm_cluster::ClusterError>(())
//! ```
//!
//! `gpnm replay --shards K --threads T` drives the same API from the
//! command line; `examples/sharded_serving.rs` shows placement
//! introspection and per-shard footprints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cluster;
mod error;
mod placement;

pub use cluster::{ClusterBuilder, ClusterHandle, ClusterTickReport, GpnmCluster, RebalanceMove};
pub use error::ClusterError;
pub use placement::{LeastLoaded, RoundRobin, ShardLoad, ShardPlacement};
