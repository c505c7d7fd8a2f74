//! Offline stand-in for the [`loom`](https://docs.rs/loom) model checker.
//!
//! The build environment has no registry access, so this crate re-implements
//! the subset of loom's API that the workspace needs, backed by a
//! deterministic bounded-exhaustive scheduler. Controlled code runs on real
//! OS threads, but a token-passing scheduler serializes them so that exactly
//! one controlled thread runs at a time; every instrumented operation
//! (atomic access, lock acquire/release, condvar wait/notify, spawn/join)
//! is a *decision point* where the scheduler may switch threads. A
//! depth-first search over those decisions replays the test body once per
//! distinct schedule until the (bounded) schedule space is exhausted.
//!
//! # Implemented API subset
//!
//! Only what the workspace reaches through `gpnm-sync` (plus what the
//! self-tests need); no `try_lock`, spin hint, yield or raw-pointer atomic
//! is modelled, because no shipped code uses one.
//!
//! - [`model`] / [`model_with`] — run a closure under every explored schedule.
//! - [`sync::atomic`]: `AtomicUsize`, `AtomicU64`, plus
//!   `Ordering`. Atomics wrap their `std` counterparts, so there is no
//!   `unsafe` here; the shim explores *interleavings* under sequential
//!   consistency and does not model C11 weak-memory reorderings (real loom
//!   does; this is the documented gap).
//! - [`sync`]: `Arc` (a plain re-export of `std::sync::Arc`), plus
//!   scheduler-aware `Mutex`, `RwLock`, and `Condvar` with `std`-shaped
//!   poisoning signatures (the shim never actually poisons).
//! - [`thread`]: `spawn`, `JoinHandle`.
//!
//! All types are *dual mode*: outside [`model`] they delegate directly to
//! `std` with no scheduling, so a crate compiled with `--cfg gpnm_loom` still
//! runs its ordinary tests correctly.
//!
//! # Exploration bounds
//!
//! Mirroring the `PROPTEST_CASES` env-knob precedent of `shims/proptest`:
//!
//! - `LOOM_MAX_PREEMPTIONS` (default 2) — maximum *involuntary* context
//!   switches per execution (CHESS-style preemption bounding). Switches at
//!   blocking points are free; forced switches do not count.
//! - `LOOM_MAX_BRANCHES` (default 5 000) — maximum decision points in one
//!   execution; exceeding it fails the model (runaway loop guard).
//! - `LOOM_MAX_ITERATIONS` (default 500 000) — maximum executions; exceeding
//!   it fails the model loudly rather than silently truncating coverage.
//! - `LOOM_LOG` (set to `1`) — print the number of explored interleavings.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod sched;

pub mod sync;
pub mod thread;

pub use sched::{model, model_with, Config};
