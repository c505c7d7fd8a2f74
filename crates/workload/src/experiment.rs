//! The §VII experiment protocol: grids over datasets, pattern sizes and
//! ΔG scales, timing each strategy on identical workloads.

use std::time::Duration;

use gpnm_engine::{GpnmEngine, Strategy};
use gpnm_matcher::MatchSemantics;

use crate::datasets::Dataset;
use crate::gen::pattern_gen::{generate_pattern, PatternConfig};
use crate::gen::update_gen::{generate_batch, UpdateProtocol};

/// One experiment grid.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Dataset to run on.
    pub dataset: Dataset,
    /// `(nodes, edges)` pattern sizes — the paper sweeps (6,6)…(10,10).
    pub pattern_sizes: Vec<(usize, usize)>,
    /// ΔG scales as the paper labels them: `(|ΔGP|, |ΔGD|)`,
    /// (6,200)…(10,1000).
    pub delta_scales: Vec<(usize, usize)>,
    /// Our graphs are scaled down (DESIGN.md §5); the data-update count is
    /// divided by this to keep the update/graph ratio in the paper's
    /// regime. 1 = literal counts.
    pub data_update_divisor: usize,
    /// Divide the dataset size by this (1 = the DESIGN.md §5 stand-in
    /// scale; larger for CI-speed runs).
    pub graph_scale_divisor: usize,
    /// Strategies to time.
    pub strategies: Vec<Strategy>,
    /// Independent seeded runs per cell (the paper uses 5×5×5; default
    /// lighter).
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Match semantics.
    pub semantics: MatchSemantics,
}

impl ExperimentConfig {
    /// The paper's full grid on `dataset` (pattern (6,6)…(10,10) ×
    /// ΔG (6,200)…(10,1000)) at the default stand-in scale.
    pub fn paper_grid(dataset: Dataset) -> Self {
        ExperimentConfig {
            dataset,
            pattern_sizes: (6..=10).map(|k| (k, k)).collect(),
            delta_scales: (0..5).map(|i| (6 + i, 200 * (i + 1))).collect(),
            data_update_divisor: 10,
            graph_scale_divisor: 1,
            strategies: Strategy::PAPER.to_vec(),
            runs: 2,
            seed: 0xDA7A,
            semantics: MatchSemantics::Simulation,
        }
    }

    /// A minutes-scale smoke grid for CI and the integration tests.
    pub fn smoke(dataset: Dataset) -> Self {
        ExperimentConfig {
            pattern_sizes: vec![(6, 6)],
            delta_scales: vec![(6, 200)],
            data_update_divisor: 20,
            graph_scale_divisor: 10,
            runs: 1,
            ..Self::paper_grid(dataset)
        }
    }
}

/// Averaged timings of one `(dataset, pattern size, ΔG scale, strategy)`
/// cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Dataset.
    pub dataset: Dataset,
    /// Pattern `(nodes, edges)`.
    pub pattern_size: (usize, usize),
    /// ΔG scale as labeled by the paper `(|ΔGP|, |ΔGD|)`.
    pub delta_scale: (usize, usize),
    /// Strategy.
    pub strategy: Strategy,
    /// Mean subsequent-query wall time over the runs.
    pub avg_time: Duration,
    /// Mean eliminated-update count.
    pub avg_eliminated: f64,
    /// Mean repair calls.
    pub avg_repair_calls: f64,
    /// Number of runs averaged.
    pub runs: usize,
}

/// Run the grid, returning one [`CellResult`] per
/// `(pattern size, ΔG scale, strategy)`.
///
/// Protocol per cell and run: generate the dataset graph (fixed per
/// experiment), a fresh pattern (seeded by run), a fresh batch (seeded by
/// run), build the engine and `IQuery` *outside* the timed region (the
/// paper times query processing, with `SLen` standing from the initial
/// query), then time `subsequent_query` per strategy on identical clones.
pub fn run_experiment(config: &ExperimentConfig) -> Vec<CellResult> {
    let graph_cfg = if config.graph_scale_divisor > 1 {
        config
            .dataset
            .config_scaled(config.seed, config.graph_scale_divisor)
    } else {
        config.dataset.config(config.seed)
    };
    let (graph, interner) = crate::gen::social::generate_social_graph(&graph_cfg);
    let mut results = Vec::new();

    for &pattern_size in &config.pattern_sizes {
        for &delta_scale in &config.delta_scales {
            let mut sums: Vec<(Duration, f64, f64)> =
                vec![(Duration::ZERO, 0.0, 0.0); config.strategies.len()];
            let mut completed_runs = 0usize;
            for run in 0..config.runs {
                let run_seed = config
                    .seed
                    .wrapping_add(run as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (pattern_size.0 as u64) << 32
                    ^ (delta_scale.1 as u64);
                let pattern = generate_pattern(
                    &PatternConfig {
                        nodes: pattern_size.0,
                        edges: pattern_size.1,
                        bound_range: (1, 3),
                        seed: run_seed,
                    },
                    &interner,
                );
                let mut base = GpnmEngine::new(graph.clone(), pattern.clone(), config.semantics);
                base.initial_query();
                let protocol = UpdateProtocol::from_scale(
                    delta_scale.0,
                    (delta_scale.1 / config.data_update_divisor).max(4),
                );
                let batch =
                    generate_batch(base.graph(), base.pattern(), &interner, &protocol, run_seed);
                if batch.validate(base.graph(), base.pattern()).is_err() {
                    continue;
                }
                completed_runs += 1;
                for (si, &strategy) in config.strategies.iter().enumerate() {
                    let mut engine = base.clone();
                    let stats = engine
                        .subsequent_query(&batch, strategy)
                        .expect("batch validated");
                    sums[si].0 += stats.total_time;
                    sums[si].1 += stats.eliminated as f64;
                    sums[si].2 += stats.repair_calls as f64;
                }
            }
            let denom = completed_runs.max(1) as u32;
            for (si, &strategy) in config.strategies.iter().enumerate() {
                results.push(CellResult {
                    dataset: config.dataset,
                    pattern_size,
                    delta_scale,
                    strategy,
                    avg_time: sums[si].0 / denom,
                    avg_eliminated: sums[si].1 / denom as f64,
                    avg_repair_calls: sums[si].2 / denom as f64,
                    runs: completed_runs,
                });
            }
        }
    }
    results
}

/// Average the per-cell times of one strategy across a result set —
/// the aggregation behind Tables XI and XIII.
pub fn average_time(results: &[CellResult], strategy: Strategy) -> Duration {
    let picked: Vec<&CellResult> = results.iter().filter(|c| c.strategy == strategy).collect();
    if picked.is_empty() {
        return Duration::ZERO;
    }
    let total: Duration = picked.iter().map(|c| c.avg_time).sum();
    total / picked.len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_runs_and_orders_strategies() {
        let cfg = ExperimentConfig::smoke(Dataset::EmailEuCore);
        let results = run_experiment(&cfg);
        assert_eq!(results.len(), cfg.strategies.len());
        for cell in &results {
            assert!(cell.runs > 0, "every cell must complete");
            assert!(cell.avg_time > Duration::ZERO);
        }
        // Elimination strategies must report eliminations field (>= 0) and
        // INC must report none.
        let inc = results
            .iter()
            .find(|c| c.strategy == Strategy::IncGpnm)
            .unwrap();
        assert_eq!(inc.avg_eliminated, 0.0);
    }

    #[test]
    fn average_time_aggregates() {
        let cfg = ExperimentConfig::smoke(Dataset::DblpSim);
        let results = run_experiment(&cfg);
        for &s in &cfg.strategies {
            assert!(average_time(&results, s) > Duration::ZERO);
        }
    }
}
