//! # gpnm-service — continuous GPNM queries over one evolving graph
//!
//! The paper's premise is that updates arrive continuously and re-matching
//! from scratch is wasteful. A serving deployment takes that one step
//! further: *many* standing patterns watch *one* evolving data graph, and
//! each subscriber wants to be told **what changed**, not handed a full
//! result table per tick. Running one [`gpnm_engine::GpnmEngine`] per
//! pattern answers the question but repairs the same `SLen` index k times
//! per batch; [`GpnmService`] is the incremental-view-maintenance shape
//! instead:
//!
//! * **one** data graph + **one** [`SlenBackend`](gpnm_distance::SlenBackend)
//!   covering the *union* of every registered pattern's requirements
//!   (widened on [`PatternHost::register_pattern`], narrowed on
//!   [`PatternHost::deregister`]);
//! * [`PatternHost::apply`] validates and commits a data-update batch
//!   **once** — one shared repair pass over the backend — then refreshes
//!   each registered pattern with one repair pass over the union of the
//!   batch's plans for it (the engine's own commit and plan steps, via
//!   [`gpnm_engine::pipeline`]);
//! * every tick returns one [`MatchDelta`](gpnm_matcher::MatchDelta) per
//!   [`PatternHandle`]: added/removed `(pattern node, data node)` pairs and
//!   a monotone `result_version`, with the full snapshot still available
//!   from [`PatternHost::result`] for late joiners.
//!
//! Per-pattern results are bitwise identical to k independent engines
//! (asserted by the `service_equivalence` proptest suite, all backends ×
//! both semantics); the shared pass just stops paying the `SLen` repair k
//! times — the benchmark of record (`gpnm-bench/`) times the result on
//! its multi-pattern workloads.
//!
//! ## Worked example: two standing queries, streamed updates
//!
//! ```
//! use gpnm_distance::BackendKind;
//! use gpnm_graph::PatternGraphBuilder;
//! use gpnm_matcher::MatchSemantics;
//! use gpnm_service::{GpnmService, PatternHost, ServiceError, TickOutcome};
//! use gpnm_updates::{DataUpdate, UpdateBatch};
//!
//! // The paper's Figure 1 data graph: PMs, SEs, a DB admin, test engineers.
//! let fig = gpnm_graph::paper::fig1();
//!
//! // Fallible, builder-style construction replaces the `new_*` zoo.
//! let mut service = GpnmService::builder()
//!     .backend(BackendKind::Sparse)
//!     .max_index_gb(4)
//!     .build(fig.graph)?;
//!
//! // Standing query 1: the paper's pattern, as registered.
//! let staffing = service.register_pattern(fig.pattern.clone(), MatchSemantics::Simulation)?;
//!
//! // Standing query 2: a PM within 2 hops of a TE, on the same service.
//! let (oversight, _, _) = PatternGraphBuilder::new()
//!     .node("pm", "PM")
//!     .node("te", "TE")
//!     .edge("pm", "te", 2)
//!     .build_with_interner(fig.interner.clone())
//!     .unwrap();
//! let oversight = service.register_pattern(oversight, MatchSemantics::Simulation)?;
//!
//! // A tick: one data batch, applied once, answered per pattern.
//! let before = service.result(staffing)?.clone();
//! let mut batch = UpdateBatch::new();
//! batch.push(DataUpdate::InsertEdge { from: fig.se1, to: fig.te2 });
//! let report = service.apply(&batch)?;
//!
//! assert_eq!(report.tick, 1);
//! assert_eq!(report.deltas.len(), 2, "one delta per standing query");
//! assert_eq!(report.delta_for(oversight).expect("registered").result_version, 1);
//! // Deltas reconstruct the snapshot: added ∪ (prev ∖ removed).
//! let delta = report.delta_for(staffing).unwrap();
//! assert_eq!(&delta.apply_to(&before), service.result(staffing)?);
//! # Ok::<(), ServiceError>(())
//! ```
//!
//! The `gpnm replay` subcommand drives the same API from the command line
//! (k generated patterns, streamed batches, per-tick delta lines), and
//! `examples/continuous_queries.rs` shows the subscriber's view.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod host;
mod read;
mod service;

pub use error::ServiceError;
pub use host::{HandleId, PatternHost, TickOutcome};
pub use read::{
    PinnedReader, ReadError, ReadFront, ReadView, SubEvent, Subscription,
    DEFAULT_SUBSCRIPTION_CAPACITY,
};
pub use service::{GpnmService, PatternHandle, ServiceBuilder, TickReport, TickStats};
