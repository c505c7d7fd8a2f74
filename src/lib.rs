//! # ua-gpnm — Updates-Aware Graph Pattern based Node Matching
//!
//! A faithful, production-quality Rust reproduction of
//! *"Updates-Aware Graph Pattern based Node Matching"* (Sun, Liu, Wang,
//! Zhou — ICDE 2020). GPNM finds, for every node of a small pattern graph,
//! the set of data-graph nodes participating in a bounded-graph-simulation
//! match; UA-GPNM answers the query *after a batch of updates* to both
//! graphs without re-running one incremental pass per update, by detecting
//! **elimination relationships** among the updates and indexing them in an
//! **EH-Tree**.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — dynamic labeled digraphs, pattern graphs, CSR snapshots.
//! * [`distance`] — the shortest-path-length (`SLen`) index: dense
//!   matrices and bounded rows, incremental repair, label-based
//!   partitioned computation.
//! * [`matcher`] — the BGS fixpoint matcher and incremental match repair.
//! * [`updates`] — update model, DER-I/II/III elimination detection,
//!   EH-Tree.
//! * [`engine`] — end-to-end strategies: `UA-GPNM` and the `INC-GPNM` and
//!   `EH-GPNM` baselines.
//! * [`adaptive`] — the refresh-parallelism tuner: sequential refresh or
//!   pool fan-out, from the measured per-pattern refresh times.
//! * [`service`] — the continuous-query layer: many standing patterns over
//!   one graph, shared single-pass repair, per-tick [`prelude::MatchDelta`]s.
//! * [`cluster`] — the sharded serving layer: k service shards with
//!   narrowed indices, pluggable pattern placement, parallel fan-out ticks.
//! * [`workload`] — synthetic SNAP stand-ins and the paper's experiment
//!   protocol.
//! * [`telemetry`] — tracing spans + metrics registry over the whole tick
//!   pipeline, with Chrome-trace, span-summary, and Prometheus exporters
//!   (`gpnm replay --trace-out/--trace-summary/--metrics-out`).
//!
//! ## Quickstart
//!
//! ```
//! use ua_gpnm::prelude::*;
//!
//! // The paper's Figure 1 running example.
//! let fig = ua_gpnm::graph::paper::fig1();
//! let mut engine = GpnmEngine::new(fig.graph, fig.pattern, MatchSemantics::Simulation);
//! let iquery = engine.initial_query();
//! // PM matches PM1 and PM2 (paper Table I / Example 5).
//! let pms: Vec<_> = iquery.matches_of(fig.p_pm).collect();
//! assert_eq!(pms, vec![fig.pm1, fig.pm2]);
//! ```
//!
//! For the continuous-query shape — register k standing patterns once,
//! stream update batches, receive per-pattern added/removed deltas — see
//! [`prelude::GpnmService`] and `examples/continuous_queries.rs`.
//!
//! ## Building and verifying
//!
//! The workspace is a single Cargo build; the tier-1 verification gate is:
//!
//! ```text
//! cargo build --release && cargo test -q
//! ```
//!
//! CI additionally runs `cargo test --workspace`, `cargo fmt --check`,
//! `cargo clippy --workspace --all-targets -- -D warnings`, and smoke-runs
//! the six `examples/` and `paper-repro all` (the paper's Figs. 5–9 and
//! Tables XI–XIV on a reduced grid). Property-test volume is tunable via
//! the `PROPTEST_CASES` environment variable.
//!
//! The build environment is offline, so the usual crates.io dependencies
//! (`rand`, `proptest`, `tracing`) are provided by minimal API-compatible
//! shims under `shims/`; swapping a shim for the real crate is a one-line
//! edit in the workspace manifest's `[workspace.dependencies]`.

#![forbid(unsafe_code)]

pub use gpnm_adaptive as adaptive;
pub use gpnm_cluster as cluster;
pub use gpnm_distance as distance;
pub use gpnm_engine as engine;
pub use gpnm_graph as graph;
pub use gpnm_matcher as matcher;
pub use gpnm_service as service;
pub use gpnm_telemetry as telemetry;
pub use gpnm_updates as updates;
pub use gpnm_workload as workload;

/// Convenience re-exports covering the common API surface.
pub mod prelude {
    pub use gpnm_adaptive::ThreadTuner;
    pub use gpnm_cluster::{
        ClusterBuilder, ClusterError, ClusterHandle, ClusterTickReport, GpnmCluster, LeastLoaded,
        RebalanceMove, RoundRobin, ShardLoad, ShardPlacement,
    };
    pub use gpnm_distance::{AnyBackend, BackendKind, SlenBackend, SlenRequirements, SparseIndex};
    pub use gpnm_engine::{EngineError, ExecStats, GpnmEngine, RefreshStrategy, Strategy};
    pub use gpnm_graph::{
        Bound, DataGraph, DataGraphBuilder, GraphError, Label, LabelInterner, NodeId, PatternGraph,
        PatternGraphBuilder, PatternNodeId,
    };
    pub use gpnm_matcher::{MatchDelta, MatchResult, MatchSemantics};
    pub use gpnm_service::{
        GpnmService, HandleId, PatternHandle, PatternHost, PinnedReader, ReadError, ReadFront,
        ReadView, ServiceBuilder, ServiceError, SubEvent, Subscription, TickOutcome, TickReport,
        TickStats, DEFAULT_SUBSCRIPTION_CAPACITY,
    };
    pub use gpnm_telemetry::{install_collector, metrics_text, SpanCollector};
    pub use gpnm_updates::{DataUpdate, PatternUpdate, Update, UpdateBatch};
}
