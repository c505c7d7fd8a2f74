//! End-to-end GPNM engines: UA-GPNM and its baselines.
//!
//! [`GpnmEngine`] owns a data graph, a pattern graph, the `SLen` index and
//! the current match result. [`GpnmEngine::initial_query`] computes
//! `IQuery`; [`GpnmEngine::subsequent_query`] answers `SQuery` after a
//! batch of updates under one of five [`Strategy`] values:
//!
//! | strategy | reduction | eliminations | SLen repair | repair calls |
//! |---|---|---|---|---|
//! | `Scratch` | — | — | full rebuild | 1 (full match) |
//! | `IncGpnm` \[13\] | none | none | dense per update | one per update |
//! | `EhGpnm` \[14\] | data side | Type II only | dense per update | pattern updates + surviving data updates |
//! | `UaGpnmNoPar` | full | Types I+II+III, EH-Tree | dense per update | surviving updates |
//! | `UaGpnm` (this paper) | full | Types I+II+III, EH-Tree | dense per update, deletion rows on the pool | surviving updates |
//!
//! Every strategy produces the *same* `SQuery` (asserted by the
//! cross-method equivalence tests); they differ in how much work they do.
//!
//! Orthogonally, the engine is generic over the
//! [`gpnm_distance::SlenBackend`] that maintains distances (see
//! [`BackendKind`]): the dense matrix with pooled deletion repair (the
//! default), or the bounded-row index that scales past 100k nodes, on the
//! heap or paged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod error;
pub mod pipeline;
mod plan_builder;
mod stats;
mod strategy;
mod topk;

pub use engine::GpnmEngine;
pub use error::EngineError;
// `BackendKind` moved to `gpnm-distance` (runtime selection lives next to
// the backends themselves); re-exported here so existing imports hold.
pub use gpnm_distance::BackendKind;
pub use stats::ExecStats;
pub use strategy::{RefreshStrategy, Strategy};
pub use topk::{top_k_matches, RankedMatch};
