//! Workloads for the UA-GPNM evaluation: synthetic stand-ins for the
//! paper's five SNAP graphs, the socnetv-style pattern generator, the
//! update protocol of §VII-A, the experiment runner, and paper-format
//! report rendering.
//!
//! The SNAP graphs themselves are not redistributable offline; the
//! [`Dataset`] stand-ins preserve node/edge ratios, degree skew and
//! label-community locality at laptop scale (the [`datasets`] module
//! documents the substitution). [`datasets::from_edge_list`] loads the real files when
//! present, so the harness runs unmodified on the originals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datasets;
pub mod experiment;
pub mod gen;
pub mod report;
pub mod trace;

pub use datasets::Dataset;
pub use experiment::{run_experiment, CellResult, ExperimentConfig};
pub use gen::pattern_gen::{generate_pattern, PatternConfig};
pub use gen::social::{generate_social_graph, SocialGraphConfig};
pub use gen::update_gen::{generate_batch, UpdateProtocol};
pub use trace::{read_trace, write_trace, TraceError};
