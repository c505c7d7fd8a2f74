//! Flags `gpnm replay` no longer has are unknown flags, refused before
//! anything runs: the cluster has one placement, round-robin, and never
//! moves a pattern between shards, and every host refreshes its patterns
//! one after another, with no lane count to set and no tuner to turn on.

use std::process::Command;

#[test]
fn retired_flags_are_unknown() {
    for args in [
        &["replay", "--shards", "2", "--rebalance-every", "2"][..],
        &["replay", "--shards", "2", "--placement", "least-loaded"],
        &["replay", "--adaptive"],
        &["replay", "--threads", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_gpnm"))
            .args(args)
            .output()
            .expect("gpnm starts");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} ran a replay");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
    }
}
