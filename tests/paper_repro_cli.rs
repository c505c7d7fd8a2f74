//! `paper-repro` rejects arguments it does not know, so a typo fails
//! instead of printing nothing and exiting 0.

use std::process::Command;

#[test]
fn unknown_arguments_exit_2_with_the_usage_line() {
    for args in [&["bogus"][..], &["fig10", "--ful"], &["fig5", "--fulll"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_paper-repro"))
            .args(args)
            .output()
            .expect("paper-repro starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.starts_with("paper-repro: unknown argument"), "{err}");
        assert!(err.contains("usage: paper-repro"), "{err}");
    }
}
