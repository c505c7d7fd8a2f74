//! The benchmark's self-test: determinism of the inputs and of every exact
//! count, at `--smoke` size, plus the `BENCHMARK.json` ↔ code check.
//!
//! Only counts are asserted here — this runs in a debug build, whose
//! timings the binary refuses to report.

use gpnm_bench_of_record::json::Json;
use gpnm_bench_of_record::metrics::{Outcome, END_TO_END, PER_LAYER};
use gpnm_bench_of_record::report;
use gpnm_bench_of_record::spec::{Spec, WORKLOADS};
use gpnm_bench_of_record::{run_workload, RunOpts};

/// One round and no more: the fixed-work mode, in which every count
/// repeats exactly.
fn run(spec: &Spec, seed: u64, traced: bool) -> Outcome {
    let opts = RunOpts {
        seed,
        seconds: 0.0,
        trace_out: None,
    };
    run_workload(spec, &opts, traced).unwrap_or_else(|e| panic!("{}: {e}", spec.name))
}

#[test]
fn same_seed_repeats_every_count_and_another_seed_changes_the_batches() {
    for spec in WORKLOADS.iter().map(Spec::smoke) {
        let (a, b, other) = (
            run(&spec, 5, false),
            run(&spec, 5, false),
            run(&spec, 6, false),
        );
        assert_eq!((a.samples, a.rounds), (spec.slots(), 1), "{}", spec.name);
        assert_eq!(a.failed, 0, "{}: {:?}", spec.name, a.notes);
        assert!(
            a.attempted > spec.slots() as u64,
            "{}: checks are counted",
            spec.name
        );
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{}: same seed, different counts",
            spec.name
        );
        assert_ne!(
            a.fingerprint.batch_hash, other.fingerprint.batch_hash,
            "{}: another seed must give other batches",
            spec.name
        );
        // applied ÷ submitted is `updates.net_ratio`; both are exact.
        assert!(a.fingerprint.updates_applied > 0, "{}", spec.name);
        for def in &END_TO_END {
            let value = a.values.get(def.name).copied().unwrap_or(0.0);
            assert!(value > 0.0, "{}: {} must never be 0", spec.name, def.name);
        }
    }
}

#[test]
fn traced_runs_agree_with_the_host_and_report_every_layer_metric() {
    // One test, one thread: the span collector is process-global.
    for spec in WORKLOADS.iter().map(Spec::smoke) {
        let (a, b) = (run(&spec, 5, true), run(&spec, 5, true));
        assert_eq!(a.failed, 0, "{}: {:?}", spec.name, a.notes);
        assert_eq!(a.samples, spec.slots(), "{}", spec.name);
        for name in [
            "matcher.matches_end",
            "distance.slen_changes",
            "updates.net_ratio",
        ] {
            assert_eq!(
                a.values.get(name),
                b.values.get(name),
                "{}: {name}",
                spec.name
            );
        }
        if !spec.adaptive {
            assert_eq!(
                a.values.get("matcher.repair_calls"),
                b.values.get("matcher.repair_calls"),
                "{}",
                spec.name
            );
        }
        let line = Json::parse(&report::result_line(&a, true)).expect("result line is JSON");
        let metrics = line
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics object");
        assert_eq!(metrics.len(), PER_LAYER.len(), "{}", spec.name);
        // Page reads belong to the paged workload alone.
        let pages = a.values.get("distance.pages_read").copied().unwrap_or(0.0);
        assert_eq!(
            pages > 0.0,
            spec.name == "paged_squeeze",
            "{}: {pages}",
            spec.name
        );
    }
}

#[test]
fn benchmark_json_is_what_the_code_defines() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        report::manifest(),
        "regenerate with `gpnm-bench manifest > BENCHMARK.json`"
    );
    // The contract's limits on what the file may say.
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|d| d.name)
        .collect();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "metric names are used once");
    assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    assert!(text.len() <= 64 * 1024);
}
