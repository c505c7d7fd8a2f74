//! Empty: kept only because `gpnm-bench/Cargo.lock` names this package (ROADMAP D1).
#![forbid(unsafe_code)]
