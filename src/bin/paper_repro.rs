//! Regenerate every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release --bin paper-repro -- all
//! cargo run --release --bin paper-repro -- table11 table12
//! cargo run --release --bin paper-repro -- fig5
//! cargo run --release --bin paper-repro -- --full all
//! ```
//!
//! The default grid is reduced (3 pattern sizes × 5 ΔG scales × 1 run,
//! sim datasets at half scale) so the whole sweep finishes in minutes;
//! `--full` runs the paper's complete 5×5 grid with 2 runs per cell. Any
//! other argument prints the usage line and exits with status 2.

use gpnm_workload::{report, run_experiment, CellResult, Dataset, ExperimentConfig};

const USAGE: &str = "usage: paper-repro [--full] [all | fig5..fig9 | table11..table14]...";

/// Every figure and table `all` (or no argument) regenerates.
const TARGETS: [&str; 9] = [
    "fig5", "fig6", "fig7", "fig8", "fig9", "table11", "table12", "table13", "table14",
];

fn grid(dataset: Dataset, full: bool) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_grid(dataset);
    if !full {
        cfg.pattern_sizes = vec![(6, 6), (8, 8), (10, 10)];
        cfg.runs = 1;
        if dataset != Dataset::EmailEuCore {
            cfg.graph_scale_divisor = 2;
        }
    }
    cfg
}

fn run_figure(dataset: Dataset, figure_no: usize, full: bool) -> Vec<CellResult> {
    eprintln!(
        "[paper-repro] running Figure {figure_no} grid on {} ...",
        dataset.name()
    );
    let cfg = grid(dataset, full);
    let results = run_experiment(&cfg);
    println!("\n===== Figure {figure_no}: {} =====", dataset.name());
    for &ps in &cfg.pattern_sizes {
        println!("{}", report::figure_series(&results, ps));
    }
    results
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "--full" && *a != "all" && !TARGETS.contains(&a.as_str()))
    {
        eprintln!("paper-repro: unknown argument `{bad}`; {USAGE}");
        std::process::exit(2);
    }
    let full = args.iter().any(|a| a == "--full");
    let mut wants: Vec<String> = args.into_iter().filter(|a| a != "--full").collect();
    if wants.is_empty() || wants.iter().any(|w| w == "all") {
        wants = TARGETS.iter().map(|&t| String::from(t)).collect();
    }

    let figure_sets: [(&str, Dataset, usize); 5] = [
        ("fig5", Dataset::EmailEuCore, 5),
        ("fig6", Dataset::DblpSim, 6),
        ("fig7", Dataset::AmazonSim, 7),
        ("fig8", Dataset::YoutubeSim, 8),
        ("fig9", Dataset::LiveJournalSim, 9),
    ];

    let wants_tables = wants.iter().any(|w| w.starts_with("table"));
    let mut all_results: Vec<CellResult> = Vec::new();

    for (key, dataset, no) in figure_sets {
        let needed = wants.iter().any(|w| w == key) || wants_tables;
        if !needed {
            continue;
        }
        let results = run_figure(dataset, no, full);
        all_results.extend(results);
    }

    if wants.iter().any(|w| w == "table11") {
        println!("\n===== Table XI: average query processing time per dataset =====");
        println!("{}", report::table_xi(&all_results));
    }
    if wants.iter().any(|w| w == "table12") {
        println!("\n===== Table XII: UA-GPNM reduction vs baselines per dataset =====");
        println!("{}", report::table_xii(&all_results));
    }
    if wants.iter().any(|w| w == "table13") {
        println!("\n===== Table XIII: average query time by scale of ΔG =====");
        println!("{}", report::table_xiii(&all_results));
    }
    if wants.iter().any(|w| w == "table14") {
        println!("\n===== Table XIV: UA-GPNM reduction by scale of ΔG =====");
        println!("{}", report::table_xiv(&all_results));
    }
    if !all_results.is_empty() {
        println!("\n===== raw cells (CSV) =====");
        println!("{}", report::to_csv(&all_results));
    }
}
