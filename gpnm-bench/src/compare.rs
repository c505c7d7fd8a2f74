//! `gpnm-bench compare A.json B.json`: apply the regression bounds of
//! `BENCHMARK.json` to two result sets, one row per workload × metric.
//!
//! A metric whose own run-to-run spread (in either set) exceeds its bound
//! is reported as *unresolved*, never as *unchanged*: the sets cannot
//! tell a change of that size from noise.

use crate::json::Json;

/// What the comparison says about one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A.
    Unchanged,
    /// B is better than A by more than the bound.
    Improved,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The sets' own spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Judge one metric: `a`/`b` are the medians, `spread` the larger of the
/// two sets' quartile spreads, all as the result sets record them.
pub fn judge(a: f64, b: f64, spread: f64, bound: f64, lower_is_better: bool) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    // Positive = B is worse, as a share of A.
    let worse_by = if lower_is_better { b - a } else { a - b } / a.abs().max(f64::MIN_POSITIVE);
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The keys of a run's detail line that repeat exactly for one seed: the
/// counts of its first round. (`rounds` does not: it depends on the box.)
const EXACT_KEYS: [&str; 6] = [
    "ticks",
    "matches_end",
    "slen_changes",
    "repair_calls",
    "updates_applied",
    "batch_hash",
];

/// The exact counts of every run of a workload's entry, in run order.
fn exact_counts(entry: &Json) -> Vec<Option<&Json>> {
    let runs = entry
        .get("runs")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten();
    runs.chain(entry.get("traced_run"))
        .flat_map(|run| EXACT_KEYS.iter().map(move |key| run.get(key)))
        .collect()
}

/// The comparison's table and whether it passed: nothing regressed,
/// nothing unresolved, no more failed checks in B than in A, and — when
/// both sets ran the same seeds — every exact count identical.
pub fn compare(a: &Json, b: &Json, manifest: &Json) -> Result<(String, bool), String> {
    let bounds = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = |set: &'_ Json| {
        set.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or("result set has no workloads object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let seeds = |set: &Json| {
        let env = set.get("environment")?;
        Some((env.get("seed")?.as_f64()?, env.get("data_seed")?.as_f64()?))
    };
    let exact = seeds(a).is_some() && seeds(a) == seeds(b);

    let mut table = format!(
        "{:<16} {:<15} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "bound", "spread"
    );
    let mut ok = true;
    for (name, entry_a) in &wa {
        let Some(entry_b) = wb.get(name) else {
            table.push_str(&format!("{name:<16} missing from B\n"));
            ok = false;
            continue;
        };
        for def in bounds {
            let field = |key: &str| {
                def.get(key)
                    .ok_or(format!("BENCHMARK.json metric lacks {key}"))
            };
            let metric = field("name")?.as_str().unwrap_or_default();
            let bound = field("bound")?.as_f64().unwrap_or(0.0);
            let lower = field("better")?.as_str() == Some("lower");
            let read = |entry: &Json, key: &str| {
                entry
                    .get("end_to_end")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get(key))
                    .and_then(Json::as_f64)
                    .ok_or(format!("{name}: {metric} has no {key}"))
            };
            let (ma, mb) = (read(entry_a, "median")?, read(entry_b, "median")?);
            let spread = read(entry_a, "spread")?.max(read(entry_b, "spread")?);
            let verdict = judge(ma, mb, spread, bound, lower);
            ok &= matches!(verdict, Verdict::Unchanged | Verdict::Improved);
            table.push_str(&format!(
                "{name:<16} {metric:<15} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>6.0}% {:>7.2}%  {}\n",
                (mb - ma) / ma.abs().max(f64::MIN_POSITIVE) * 100.0,
                bound * 100.0,
                spread * 100.0,
                verdict.word(),
            ));
        }
        let failed = |entry: &Json| entry.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let (fa, fb) = (failed(entry_a), failed(entry_b));
        if fa + fb > 0.0 {
            let more = fb > fa;
            table.push_str(&format!(
                "{name:<16} failed checks: A {fa}, B {fb}{}\n",
                if more { "  MORE FAILED" } else { "" }
            ));
            ok &= !more;
        }
        if exact {
            let same = exact_counts(entry_a) == exact_counts(entry_b);
            table.push_str(&format!(
                "{name:<16} exact counts {}\n",
                if same { "identical" } else { "DIFFER" }
            ));
            ok &= same;
        }
    }
    if !exact {
        table.push_str("exact counts not compared: the sets ran different seeds\n");
    }
    Ok((table, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_beyond_the_bound_is_unresolved_not_unchanged() {
        assert_eq!(judge(10.0, 10.1, 0.02, 0.10, true), Verdict::Unchanged);
        assert_eq!(judge(10.0, 10.1, 0.12, 0.10, true), Verdict::Unresolved);
        assert_eq!(judge(10.0, 11.5, 0.02, 0.10, true), Verdict::Regressed);
        assert_eq!(judge(10.0, 8.5, 0.02, 0.10, true), Verdict::Improved);
        // Direction flips for higher-is-better metrics.
        assert_eq!(judge(10.0, 8.5, 0.02, 0.10, false), Verdict::Regressed);
        assert_eq!(judge(10.0, 11.5, 0.02, 0.10, false), Verdict::Improved);
    }

    #[test]
    fn compares_sets_row_by_row() {
        let set = |p50: f64| {
            Json::parse(&format!(
                r#"{{"environment":{{"seed":11,"data_seed":11}},"workloads":{{"w":{{"failed":0,
                "runs":[{{"samples":108,"rounds":{p50},"matches_end":"7"}}],
                "end_to_end":{{"tick_p50_ms":{{"median":{p50},"spread":0.01}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let manifest = Json::parse(
            r#"{"end_to_end":[{"name":"tick_p50_ms","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let (table, ok) = compare(&set(2.0), &set(2.1), &manifest).unwrap();
        assert!(ok && table.contains("unchanged"), "{table}");
        assert!(table.contains("exact counts identical"), "{table}");
        let (table, ok) = compare(&set(2.0), &set(2.5), &manifest).unwrap();
        assert!(!ok && table.contains("REGRESSED"), "{table}");
    }
}
