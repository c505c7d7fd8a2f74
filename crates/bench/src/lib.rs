//! Shared setup for the benchmark harness: prepared engines and batches so
//! criterion loops time only the subsequent query (the paper's "query
//! processing time").

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use gpnm_engine::GpnmEngine;
use gpnm_graph::LabelInterner;
use gpnm_matcher::MatchSemantics;
use gpnm_updates::UpdateBatch;
use gpnm_workload::{
    generate_batch, generate_pattern, generate_social_graph, Dataset, PatternConfig, UpdateProtocol,
};

/// A fully prepared benchmark cell: engine with `IQuery` answered, plus
/// the update batch to time.
pub struct PreparedCell {
    /// Engine positioned after the initial query.
    pub engine: GpnmEngine,
    /// The update batch to apply.
    pub batch: UpdateBatch,
    /// Shared interner (kept for rendering/debugging).
    pub interner: LabelInterner,
}

/// Prepare a cell of the paper's grid.
///
/// * `scale_div` shrinks the dataset (1 = the DESIGN.md §5 stand-in size).
/// * `pattern` is the paper's `(nodes, edges)` label.
/// * `delta` is the paper's `(|ΔGP|, |ΔGD|)` label; the data-update count
///   is divided by `delta_div` to keep the update/graph ratio in the
///   paper's regime on the scaled graphs.
pub fn prepare_cell(
    dataset: Dataset,
    scale_div: usize,
    pattern: (usize, usize),
    delta: (usize, usize),
    delta_div: usize,
    seed: u64,
) -> PreparedCell {
    let cfg = if scale_div > 1 {
        dataset.config_scaled(seed, scale_div)
    } else {
        dataset.config(seed)
    };
    let (graph, interner) = generate_social_graph(&cfg);
    let pattern_graph = generate_pattern(
        &PatternConfig {
            nodes: pattern.0,
            edges: pattern.1,
            bound_range: (1, 3),
            seed,
        },
        &interner,
    );
    let mut engine = GpnmEngine::new(graph, pattern_graph, MatchSemantics::Simulation);
    engine.initial_query();
    let protocol = UpdateProtocol::from_scale(delta.0, (delta.1 / delta_div).max(4));
    let batch = generate_batch(engine.graph(), engine.pattern(), &interner, &protocol, seed);
    batch
        .validate(engine.graph(), engine.pattern())
        .expect("generated batches are valid");
    PreparedCell {
        engine,
        batch,
        interner,
    }
}
