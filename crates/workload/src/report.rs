//! Paper-format rendering of experiment results (Tables XI–XIV, the
//! Figure 5–9 series).

use std::time::Duration;

use gpnm_engine::Strategy;

use crate::experiment::CellResult;

fn fmt_dur(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

fn mean(results: &[&CellResult]) -> Duration {
    if results.is_empty() {
        return Duration::ZERO;
    }
    results.iter().map(|c| c.avg_time).sum::<Duration>() / results.len() as u32
}

/// One table row per distinct `label` over the whole of `results`, in
/// first-seen order, each with the mean time of every [`Strategy::PAPER`]
/// strategy (in that order) among the row's cells.
fn rows(
    results: &[CellResult],
    label: impl Fn(&CellResult) -> String,
) -> Vec<(String, Vec<Duration>)> {
    let mut labels: Vec<String> = Vec::new();
    for c in results {
        let l = label(c);
        if !labels.contains(&l) {
            labels.push(l);
        }
    }
    labels
        .into_iter()
        .map(|l| {
            let times = Strategy::PAPER
                .iter()
                .map(|&s| {
                    let picked: Vec<&CellResult> = results
                        .iter()
                        .filter(|c| c.strategy == s && label(c) == l)
                        .collect();
                    mean(&picked)
                })
                .collect();
            (l, times)
        })
        .collect()
}

/// A table header: the row column `what`, then one column per `names`.
fn header(what: &str, names: impl ExactSizeIterator<Item = String>) -> String {
    let columns = names.len();
    let names: String = names.map(|n| format!(" {n} |")).collect();
    format!("| {what} |{names}\n|---|{}\n", "---|".repeat(columns))
}

/// Tables XI and XIII: the mean query time of every paper strategy, one
/// row per distinct `label`.
fn time_table(results: &[CellResult], what: &str, label: impl Fn(&CellResult) -> String) -> String {
    let mut out = header(what, Strategy::PAPER.iter().map(|s| s.name().to_owned()));
    for (l, times) in rows(results, label) {
        let cells: String = times
            .iter()
            .map(|&t| format!(" {} |", fmt_dur(t)))
            .collect();
        out.push_str(&format!("| {l} |{cells}\n"));
    }
    out
}

/// Tables XII and XIV: UA-GPNM's (the first paper strategy's) percentage
/// reduction against each other paper strategy, one row per distinct
/// `label`.
fn reduction_table(
    results: &[CellResult],
    what: &str,
    label: impl Fn(&CellResult) -> String,
) -> String {
    let baselines = Strategy::PAPER[1..].iter();
    let mut out = header(what, baselines.map(|s| format!("vs {}", s.name())));
    for (l, times) in rows(results, label) {
        let ua = times[0].as_secs_f64();
        let cells: String = times[1..]
            .iter()
            .map(|other| {
                let other = other.as_secs_f64();
                if other == 0.0 {
                    " n/a |".to_owned()
                } else {
                    format!(" {:.2}% less |", (1.0 - ua / other) * 100.0)
                }
            })
            .collect();
        out.push_str(&format!("| {l} |{cells}\n"));
    }
    out
}

fn dataset_label(c: &CellResult) -> String {
    c.dataset.name().to_owned()
}

fn scale_label(c: &CellResult) -> String {
    format!("({}, {})", c.delta_scale.0, c.delta_scale.1)
}

/// Table XI: average query processing time per dataset × method.
/// `results` may span several datasets.
pub fn table_xi(results: &[CellResult]) -> String {
    time_table(results, "Dataset", dataset_label)
}

/// Table XII: percentage reduction of UA-GPNM vs the baselines, per
/// dataset.
pub fn table_xii(results: &[CellResult]) -> String {
    reduction_table(results, "Dataset", dataset_label)
}

/// Table XIII: average query time grouped by ΔG scale.
pub fn table_xiii(results: &[CellResult]) -> String {
    time_table(results, "Scale of ΔG", scale_label)
}

/// Table XIV: percentage reduction of UA-GPNM by ΔG scale.
pub fn table_xiv(results: &[CellResult]) -> String {
    reduction_table(results, "Scale of ΔG", scale_label)
}

/// One Figure 5–9 panel: for a fixed pattern size, the per-method series
/// over ΔG scales (the paper plots one panel per pattern size).
pub fn figure_series(results: &[CellResult], pattern_size: (usize, usize)) -> String {
    let mut scales: Vec<_> = results
        .iter()
        .filter(|c| c.pattern_size == pattern_size)
        .map(|c| c.delta_scale)
        .collect();
    scales.sort_unstable();
    scales.dedup();
    let mut out = format!(
        "The size of pattern graph = ({}, {})\n",
        pattern_size.0, pattern_size.1
    );
    out.push_str("method          ");
    for s in &scales {
        out.push_str(&format!(" ({},{})", s.0, s.1));
    }
    out.push('\n');
    for s in Strategy::PAPER {
        out.push_str(&format!("{:<16}", s.name()));
        for &scale in &scales {
            let picked: Vec<&CellResult> = results
                .iter()
                .filter(|c| {
                    c.pattern_size == pattern_size && c.delta_scale == scale && c.strategy == s
                })
                .collect();
            out.push_str(&format!(" {:>9.4}", mean(&picked).as_secs_f64()));
        }
        out.push('\n');
    }
    out
}

/// CSV export of raw cells for external plotting.
pub fn to_csv(results: &[CellResult]) -> String {
    let mut out = String::from(
        "dataset,pattern_nodes,pattern_edges,delta_p,delta_d,strategy,avg_seconds,avg_eliminated,avg_repair_calls,runs\n",
    );
    for c in results {
        out.push_str(&format!(
            "{},{},{},{},{},{},{:.6},{:.2},{:.2},{}\n",
            c.dataset.name(),
            c.pattern_size.0,
            c.pattern_size.1,
            c.delta_scale.0,
            c.delta_scale.1,
            c.strategy.name(),
            c.avg_time.as_secs_f64(),
            c.avg_eliminated,
            c.avg_repair_calls,
            c.runs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;

    fn cell(strategy: Strategy, scale: (usize, usize), ps: (usize, usize), ms: u64) -> CellResult {
        CellResult {
            dataset: Dataset::EmailEuCore,
            pattern_size: ps,
            delta_scale: scale,
            strategy,
            avg_time: Duration::from_millis(ms),
            avg_eliminated: 1.0,
            avg_repair_calls: 2.0,
            runs: 1,
        }
    }

    fn sample() -> Vec<CellResult> {
        vec![
            cell(Strategy::UaGpnm, (6, 200), (6, 6), 10),
            cell(Strategy::EhGpnm, (6, 200), (6, 6), 20),
            cell(Strategy::IncGpnm, (6, 200), (6, 6), 40),
        ]
    }

    #[test]
    fn table_xi_lists_dataset_row() {
        let t = table_xi(&sample());
        assert!(t.contains("email-EU-core"));
        assert!(t.contains("0.010s"));
        assert!(t.contains("0.040s"));
    }

    #[test]
    fn table_xii_computes_percent_reduction() {
        let t = table_xii(&sample());
        assert!(t.contains("75.00% less"), "10ms vs 40ms => 75%: {t}");
        assert!(t.contains("50.00% less"), "10ms vs 20ms => 50%");
    }

    #[test]
    fn interleaved_datasets_get_one_row_each() {
        let mut results = Vec::new();
        for dataset in [Dataset::EmailEuCore, Dataset::DblpSim, Dataset::EmailEuCore] {
            for mut c in sample() {
                c.dataset = dataset;
                results.push(c);
            }
        }
        for t in [table_xi(&results), table_xii(&results)] {
            let rows = |name: &str| {
                t.lines()
                    .filter(|l| l.starts_with(&format!("| {name} |")))
                    .count()
            };
            assert_eq!(rows("email-EU-core"), 1, "{t}");
            assert_eq!(rows("DBLP(sim)"), 1, "{t}");
            assert_eq!(t.lines().count(), 4, "header, rule and two rows: {t}");
        }
    }

    #[test]
    fn table_xiii_groups_by_scale() {
        let t = table_xiii(&sample());
        assert!(t.contains("(6, 200)"));
    }

    #[test]
    fn figure_series_renders_all_methods() {
        let f = figure_series(&sample(), (6, 6));
        assert!(f.contains("UA-GPNM"));
        assert!(f.contains("INC-GPNM"));
        assert!(f.contains("(6,200)"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let c = to_csv(&sample());
        assert_eq!(c.lines().count(), 1 + sample().len());
        assert!(c.starts_with("dataset,"));
    }
}
