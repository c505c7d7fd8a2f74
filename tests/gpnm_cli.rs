//! Refusals of the `gpnm` CLI that happen before anything runs.
//!
//! Flags `gpnm replay` no longer has are unknown flags: the cluster has
//! one placement, round-robin, and never moves a pattern between shards,
//! and every host refreshes its patterns one after another, with no lane
//! count to set and no tuner to turn on. A budget that cannot be honored
//! is refused with one text on every subcommand that generates its graph,
//! before the graph is generated.

use std::process::{Command, Output};

fn gpnm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpnm"))
        .args(args)
        .output()
        .expect("gpnm starts")
}

#[test]
fn retired_flags_are_unknown() {
    for args in [
        &["replay", "--shards", "2", "--rebalance-every", "2"][..],
        &["replay", "--shards", "2", "--placement", "least-loaded"],
        &["replay", "--adaptive"],
        &["replay", "--threads", "2"],
    ] {
        let out = gpnm(args);
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} ran a replay");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
    }
}

/// Runs every command in `commands`, asserts each failed before it
/// generated a graph, and returns their common error text.
fn refused_alike(commands: &[&[&str]]) -> String {
    let texts: Vec<String> = commands
        .iter()
        .map(|args| {
            let out = gpnm(args);
            assert!(!out.status.success(), "{args:?} was accepted");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(!stdout.contains("generated"), "{args:?}: {stdout}");
            String::from_utf8_lossy(&out.stderr).into_owned()
        })
        .collect();
    for (args, text) in commands.iter().zip(&texts) {
        assert_eq!(text, &texts[0], "{args:?} refused differently");
    }
    texts[0].clone()
}

#[test]
fn over_budget_dense_builds_are_refused_alike_before_generation() {
    let dense = ["--backend", "partitioned", "--nodes", "100000"];
    let err = refused_alike(&[
        &[&["smoke"][..], &dense].concat(),
        &[&["replay"][..], &dense].concat(),
        &[&["replay", "--shards", "2"][..], &dense].concat(),
    ]);
    assert!(
        err.contains("refusing to build a dense SLen matrix"),
        "{err}"
    );
    assert!(err.contains("backend sparse"), "{err}");
}

#[test]
fn invalid_budgets_are_refused_alike() {
    for (flag, value, knob) in [
        ("--max-index-gb", "nan", "max_index_gb"),
        ("--cache-budget-mb", "0", "cache_budget_mb"),
    ] {
        let err = refused_alike(&[&["smoke", flag, value], &["replay", flag, value]]);
        assert!(err.contains(knob), "{err}");
        assert!(err.contains("positive finite number"), "{err}");
    }
}
