//! Offline stand-in for the [`tracing`](https://docs.rs/tracing) crate.
//!
//! The build environment has no registry access, so this crate implements
//! the subset of tracing's API that the workspace uses: [`span!`] and
//! [`event!`] macros with structured `key = value` fields, a thread-local
//! span stack that gives spans and events a contextual parent, and a
//! pluggable [`Subscriber`] that observes span lifecycles and events.
//! `gpnm-telemetry` provides the concrete subscribers (a span collector
//! feeding the Chrome trace / summary exporters); this crate is only the
//! instrumentation surface.
//!
//! # Implemented API subset
//!
//! - [`span!`] — create a [`Span`]; `span.enter()` returns an RAII guard
//!   that exits the span on drop. An explicit parent overrides the
//!   contextual one with the upstream `span!(parent: &other, ...)` syntax.
//! - [`event!`] — a point-in-time record with the same field syntax, parented
//!   to the current span.
//! - [`Subscriber`] + [`subscriber::set_global_default`] — process-wide
//!   dispatch, and [`subscriber::with_default`] for a thread-scoped one.
//! - [`field::Value`] — the structured field payload (integers, floats,
//!   booleans, strings).
//!
//! # Deviations from upstream
//!
//! - Fields are eagerly converted to [`field::Value`] when a subscriber is
//!   active (upstream visits them lazily); with no subscriber the field
//!   expressions are **not evaluated** at all, which is the "near-zero cost
//!   when disabled" contract — a disabled span or event is two relaxed
//!   atomic loads.
//! - [`subscriber::replace_global_default`] exists (upstream's global is
//!   write-once): the offline replay harness and tests swap collectors
//!   between runs in one process.
//!
//! Swapping this shim for the real crate is the usual one-line change in the
//! root `[workspace.dependencies]`; call sites use the upstream macro syntax.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod dispatch;
pub mod field;
pub mod span;
pub mod subscriber;

pub use span::{Entered, Id, Span};
pub use subscriber::{Attributes, Event, Metadata, Subscriber};

/// Verbosity level of a span or event, coarsest (`ERROR`) to finest
/// (`TRACE`). The shim dispatches every level to the subscriber and lets it
/// filter via [`Subscriber::enabled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// The finest level: per-update detail inside a tick.
    TRACE,
    /// Diagnostic detail: per-phase and per-pattern work.
    DEBUG,
    /// High-level milestones: one span per tick, one per shard.
    INFO,
    /// Something surprising but recoverable.
    WARN,
    /// An error the caller will also see through a `Result`.
    ERROR,
}

impl Level {
    /// The level's canonical upper-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::TRACE => "TRACE",
            Level::DEBUG => "DEBUG",
            Level::INFO => "INFO",
            Level::WARN => "WARN",
            Level::ERROR => "ERROR",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Create a [`Span`]. Mirrors upstream `tracing::span!`:
///
/// ```
/// use tracing::{span, Level};
/// let s = span!(Level::INFO, "tick", updates = 3usize);
/// let _g = s.enter();
/// let child = span!(Level::DEBUG, "reduce");
/// drop(child);
/// ```
///
/// `span!(parent: &other_span, Level::INFO, "name", ...)` pins an explicit
/// parent instead of the thread-local contextual one — the form the pool
/// fan-out sites use to keep cross-thread nesting intact.
#[macro_export]
macro_rules! span {
    (parent: $parent:expr, $lvl:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        if $crate::dispatch::enabled() {
            $crate::Span::new(
                $crate::Metadata { name: $name, level: $lvl },
                $crate::span::Parent::Explicit($crate::span::parent_id(&$parent)),
                &[$((stringify!($key), $crate::field::Value::from($val))),*],
            )
        } else {
            $crate::Span::disabled()
        }
    }};
    ($lvl:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        if $crate::dispatch::enabled() {
            $crate::Span::new(
                $crate::Metadata { name: $name, level: $lvl },
                $crate::span::Parent::Contextual,
                &[$((stringify!($key), $crate::field::Value::from($val))),*],
            )
        } else {
            $crate::Span::disabled()
        }
    }};
}

/// Record a point-in-time [`Event`](subscriber::Event), parented to the
/// current span. Mirrors upstream `tracing::event!`:
///
/// ```
/// use tracing::{event, Level};
/// event!(Level::DEBUG, "cache_evict", pages = 2u64);
/// ```
#[macro_export]
macro_rules! event {
    ($lvl:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        if $crate::dispatch::enabled() {
            $crate::dispatch::dispatch_event(
                $crate::Metadata { name: $name, level: $lvl },
                &[$((stringify!($key), $crate::field::Value::from($val))),*],
            );
        }
    }};
}
