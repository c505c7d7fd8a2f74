//! Update model and elimination-relationship machinery for UA-GPNM.
//!
//! The paper's §IV in code:
//!
//! * [`Update`] / [`UpdateBatch`] — the eight update kinds of §III-C
//!   (`ΔG±_{PE,PN,DE,DN}`), validated and applied in order.
//! * [`candidates_for`] (DER-I) — per-pattern-update candidate sets
//!   `Can_AN`/`Can_RN`, using the dual rule plus cascade of Example 7.
//! * DER-II *is* the [`gpnm_distance::AffDelta`] the distance index's
//!   commit emits for each applied data update: its `affected` set is the
//!   update's `Aff_N`. Nothing here evaluates an update it does not apply.
//! * [`cross_eliminates`] (DER-III) — whether a data update makes a pattern
//!   edge insertion a no-op (Example 9).
//! * [`EliminationGraph`] — all pairwise Type I/II/III relations.
//! * [`EhTree`] — the Elimination Hierarchy Tree of §IV-C: tightest
//!   eliminator as parent, maximal-coverage roots, surviving = roots.
//! * [`reduce_batch`] — the "insert then delete back" cancellation the
//!   paper motivates in §I-B, applied as a net-effect pre-pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod batch;
mod cancel;
mod candidates;
mod cross;
mod eh_tree;
mod elimination;
mod update;

pub use batch::{AppliedUpdate, UpdateBatch};
pub use cancel::reduce_batch;
pub use candidates::{candidates_for, Candidates};
pub use cross::cross_eliminates;
pub use eh_tree::EhTree;
pub use elimination::{EliminationGraph, Relation, RelationKind, UpdateEffect};
pub use update::{DataUpdate, PatternUpdate, Update};
