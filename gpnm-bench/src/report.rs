//! Output: the one-line result the benchmark contract asks for, the
//! human-readable metric listing, and the result-set files `all` writes
//! and `compare` reads.

use std::process::Command;

use gpnm_pool::WorkerPool;

use crate::json::Json;
use crate::metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use crate::spec::Spec;
use crate::stats::{iqr_share, median};

/// Schema tag of result-set files.
pub const SCHEMA: &str = "gpnm-bench/1";

/// Prefix of the line carrying run details that do not fit the contract's
/// result line (sample count, exact-count fingerprint).
pub const DETAIL_PREFIX: &str = "detail: ";

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: u32 = 20;

/// The content of the repository's `BENCHMARK.json`, generated from the
/// workload and metric tables so the file cannot drift from the code (a
/// test compares the two).
pub fn manifest() -> Json {
    let metric = |d: &MetricDef, bounded: bool| {
        let mut pairs = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.word())),
        ];
        if bounded {
            pairs.push(("bound", Json::Num(d.bound)));
        }
        Json::obj(pairs)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "gpnm-bench/Cargo.toml",
        "--bin",
        "gpnm-bench",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("gpnm-bench")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                crate::spec::WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
        ),
    ])
}

/// The metric list a run reports: end-to-end with tracing off, per-layer
/// when traced.
pub fn defs(traced: bool) -> &'static [MetricDef] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(out: &Outcome, traced: bool) -> String {
    let metrics = Json::obj(out.metrics_of(defs(traced)).map(|(d, value)| {
        (
            d.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
        )
    }));
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

/// The detail line: sample and round counts, and the fingerprint.
pub fn detail_line(out: &Outcome) -> String {
    let f = &out.fingerprint;
    // Hashes and counts go out as strings: a 64-bit value does not survive
    // a trip through a JSON number.
    let detail = Json::obj([
        ("samples", Json::Num(out.samples as f64)),
        ("rounds", Json::Num(out.rounds as f64)),
        ("ticks", Json::str(f.ticks.to_string())),
        ("matches_end", Json::str(f.matches_end.to_string())),
        ("slen_changes", Json::str(f.slen_changes.to_string())),
        ("repair_calls", Json::str(f.repair_calls.to_string())),
        ("updates_applied", Json::str(f.updates_applied.to_string())),
        ("batch_hash", Json::str(format!("{:016x}", f.batch_hash))),
    ]);
    format!("{DETAIL_PREFIX}{}", detail.render())
}

/// Every metric by name with its unit and the sample count behind it.
pub fn human_table(spec: &Spec, out: &Outcome, traced: bool) -> String {
    let mut text = String::new();
    for note in &out.notes {
        text.push_str(note);
        text.push('\n');
    }
    for (d, value) in out.metrics_of(defs(traced)) {
        text.push_str(&format!(
            "{:<16} {:<34} {:>16.4} {:<6} (n={})\n",
            spec.name, d.name, value, d.unit, out.samples
        ));
    }
    text
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The environment block every result file carries, so no file repeats
/// the "ran on one core and nobody wrote it down" gap.
pub fn environment(seed: u64, seconds: f64, repeats: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("pool_lanes", Json::Num(WorkerPool::global().lanes() as f64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("debug_build", Json::Bool(cfg!(debug_assertions))),
        ("seed", Json::Num(seed as f64)),
        ("data_seed", Json::Num(crate::spec::DATA_SEED as f64)),
        ("repeats", Json::Num(repeats as f64)),
        ("seconds", Json::Num(seconds)),
    ])
}

/// A workload's sizes, as recorded beside its numbers.
pub fn sizes(spec: &Spec) -> Json {
    Json::obj([
        ("nodes", Json::Num(spec.nodes as f64)),
        ("edges", Json::Num(spec.edges as f64)),
        ("labels", Json::Num(spec.labels as f64)),
        ("patterns", Json::Num(spec.patterns as f64)),
        ("pattern_nodes", Json::Num(spec.pattern_nodes as f64)),
        (
            "updates_per_tick",
            Json::Num(spec.protocol().total() as f64),
        ),
        ("warmup_ticks", Json::Num(spec.warmup as f64)),
        ("session_ticks", Json::Num(spec.session_ticks as f64)),
        ("sessions", Json::Num(spec.sessions as f64)),
        ("backend", Json::str(spec.backend.name())),
    ])
}

/// One parsed child run: its result line and its detail line.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// The contract result line.
    pub result: Json,
    /// The detail line (samples, fingerprint).
    pub detail: Json,
}

/// Pick the result and detail lines out of a child's standard output.
pub fn parse_child_output(stdout: &str) -> Result<ChildRun, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or("child printed no detail line")
        .and_then(|l| Json::parse(l).map_err(|_| "bad detail line"))?;
    Ok(ChildRun { result, detail })
}

fn metric_value(run: &ChildRun, name: &str) -> Option<f64> {
    run.result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// One workload's entry in a result set: the end-to-end metrics of every
/// repeat (values, median, quartile spread) and the traced layer split.
pub fn workload_entry(spec: &Spec, e2e: &[ChildRun], traced: &ChildRun) -> Json {
    let end_to_end = Json::obj(END_TO_END.iter().map(|d| {
        let values: Vec<f64> = e2e.iter().filter_map(|r| metric_value(r, d.name)).collect();
        (
            d.name,
            Json::obj([
                ("unit", Json::str(d.unit)),
                ("better", Json::str(d.better.word())),
                ("median", Json::Num(median(&values))),
                ("spread", Json::Num(iqr_share(&values))),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]),
        )
    }));
    let per_layer = Json::obj(PER_LAYER.iter().map(|d| {
        (
            d.name,
            Json::obj([
                ("unit", Json::str(d.unit)),
                (
                    "value",
                    Json::Num(metric_value(traced, d.name).unwrap_or(0.0)),
                ),
            ]),
        )
    }));
    let sum = |key: &str| {
        e2e.iter()
            .chain([traced])
            .filter_map(|r| r.result.get(key)?.as_f64())
            .sum::<f64>()
    };
    Json::obj([
        ("why", Json::str(spec.why)),
        ("sizes", sizes(spec)),
        ("attempted", Json::Num(sum("attempted"))),
        ("failed", Json::Num(sum("failed"))),
        ("end_to_end", end_to_end),
        ("per_layer", per_layer),
        (
            "runs",
            Json::Arr(e2e.iter().map(|r| r.detail.clone()).collect()),
        ),
        ("traced_run", traced.detail.clone()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 12,
            ..Default::default()
        };
        out.set("tick_p50_ms", 1.25);
        for traced in [false, true] {
            let parsed = Json::parse(&result_line(&out, traced)).unwrap();
            let keys: Vec<&str> = parsed
                .as_obj()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let metrics = parsed.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(metrics.len(), defs(traced).len());
            assert!(metrics.values().all(|m| m.get("unit").is_some()));
        }
        let run = parse_child_output(&format!(
            "noise\n{}\n{}\n",
            detail_line(&out),
            result_line(&out, false)
        ))
        .unwrap();
        assert_eq!(metric_value(&run, "tick_p50_ms"), Some(1.25));
        assert_eq!(run.detail.get("samples").unwrap().as_f64(), Some(0.0));
    }
}
