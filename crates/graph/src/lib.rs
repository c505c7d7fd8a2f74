//! Graph substrate for the UA-GPNM reproduction.
//!
//! This crate provides the two graph kinds the paper operates on:
//!
//! * [`DataGraph`] — a *dynamic* directed graph whose nodes carry a label
//!   (a person's job title in the paper's running example). Nodes and edges
//!   can be inserted and deleted at any time; deleted node slots are
//!   tombstoned so that external indices (distance matrices, match bitsets)
//!   keyed by [`NodeId`] stay valid.
//! * [`PatternGraph`] — a small directed pattern whose nodes carry a label
//!   and whose edges carry a [`Bound`]: either a maximal shortest-path
//!   length `k` or `*` (unbounded), per Bounded Graph Simulation
//!   (Fan et al., PVLDB'10).
//!
//! Traversal kernels (all-pairs BFS) operate on an immutable [`CsrGraph`]
//! snapshot for cache-friendly iteration.
//!
//! The [`paper`] module reconstructs the paper's Figure 1 / Figure 2 / Figure 4
//! running examples; they anchor the golden tests across the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod builder;
mod csr;
mod data_graph;
mod error;
mod ids;
mod label;
mod nodeset;
pub mod paper;
mod pattern;
mod stats;

pub use builder::{DataGraphBuilder, PatternGraphBuilder};
pub use csr::{CsrGraph, CsrSnapshot};
pub use data_graph::{DataGraph, EdgeIter, GraphVersion, NodeIter, RemovedNode};
pub use error::GraphError;
pub use ids::{NodeId, PatternNodeId};
pub use label::{Label, LabelInterner};
pub use nodeset::{NodeSet, NodeSetIter};
pub use pattern::{Bound, PatternEdge, PatternGraph};
pub use stats::GraphStats;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
