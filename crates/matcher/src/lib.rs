//! Bounded-graph-simulation node matcher for UA-GPNM.
//!
//! GPNM (paper §III-B) asks, for each pattern node, which data nodes appear
//! in a bounded-graph-simulation match of the pattern. This crate computes
//! that relation two ways:
//!
//! * [`match_graph`] — the batch fixpoint over label-seeded candidate sets.
//! * [`repair`] — incremental repair given a [`RepairPlan`] describing
//!   which nodes must be re-verified and which `(pattern node, data
//!   node)` pairs may be gained. Every incremental strategy in the engine
//!   crate (INC-GPNM, EH-GPNM, UA-GPNM) funnels through this one
//!   function, so its correctness argument (documented on the function)
//!   is load-bearing.
//!
//! Both compute bounded graph simulation as BGS \[4\] defines it: a
//! matcher of `u` needs a partner within the bound for every pattern edge
//! *out of* `u`. [`MatchSemantics`] has that one value and selects nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bgs;
mod delta;
mod plan;
mod render;
mod result;
mod semantics;

pub use bgs::{match_graph, repair, repair_gains, RepairOutcome};
pub use delta::MatchDelta;
pub use plan::RepairPlan;
pub use render::render_match_table;
pub use result::MatchResult;
pub use semantics::MatchSemantics;
