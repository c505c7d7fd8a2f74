//! Spans: named, field-carrying regions of execution with RAII enter/exit.

use std::sync::Arc;

use crate::dispatch;
use crate::field::Value;
use crate::subscriber::{Attributes, Metadata, Subscriber};

/// An opaque span identifier, allocated by the [`Subscriber`] when the span
/// is created (mirrors upstream `span::Id`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Id(u64);

impl Id {
    /// Construct an id from its raw value.
    pub fn from_u64(v: u64) -> Self {
        Id(v)
    }

    /// The raw id value.
    pub fn into_u64(self) -> u64 {
        self.0
    }
}

/// How a new span picks its parent (macro plumbing).
pub enum Parent {
    /// The innermost entered span on the creating thread, if any.
    Contextual,
    /// A caller-pinned parent — `span!(parent: &span, ...)`. This is how
    /// work fanned out to pool threads stays nested under the span that
    /// spawned it even though the worker's own stack is empty.
    Explicit(Option<Id>),
}

/// Extract a span's id for `span!(parent: ...)` (macro plumbing).
pub fn parent_id(span: &Span) -> Option<Id> {
    span.id()
}

struct Live {
    id: Id,
    /// The subscriber that allocated `id`; kept on the span so enter/exit
    /// pair with the same subscriber even if the global default is swapped
    /// mid-span.
    sub: Arc<dyn Subscriber>,
}

/// A handle on a span. Created by the [`span!`](macro@crate::span) macro;
/// [`Span::enter`] marks this thread as inside the span until the returned
/// guard drops. A disabled span (no subscriber, or filtered by
/// [`Subscriber::enabled`]) is inert.
pub struct Span {
    live: Option<Live>,
}

impl Span {
    /// Create a span through the current subscriber (macro plumbing; call
    /// sites use [`span!`](macro@crate::span)).
    pub fn new(metadata: Metadata, parent: Parent, fields: &[(&'static str, Value)]) -> Self {
        let Some(sub) = dispatch::current_subscriber() else {
            return Span::disabled();
        };
        if !sub.enabled(&metadata) {
            return Span::disabled();
        }
        let parent = match parent {
            Parent::Contextual => dispatch::current_span(),
            Parent::Explicit(p) => p,
        };
        let attrs = Attributes {
            metadata,
            parent,
            fields,
        };
        let id = sub.new_span(&attrs);
        Span {
            live: Some(Live { id, sub }),
        }
    }

    /// A span that records nothing.
    pub fn disabled() -> Self {
        Span { live: None }
    }

    /// This span's id, if it is live.
    pub fn id(&self) -> Option<Id> {
        self.live.as_ref().map(|l| l.id)
    }

    /// Enter the span: this thread is inside it until the guard drops.
    pub fn enter(&self) -> Entered<'_> {
        if let Some(live) = &self.live {
            live.sub.enter(live.id);
            dispatch::push_span(live.id);
        }
        Entered { span: self }
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.live {
            Some(l) => write!(f, "Span({})", l.id.into_u64()),
            None => f.write_str("Span(disabled)"),
        }
    }
}

/// RAII guard returned by [`Span::enter`]; exits the span on drop.
#[must_use = "dropping the guard immediately exits the span"]
pub struct Entered<'a> {
    span: &'a Span,
}

impl Drop for Entered<'_> {
    fn drop(&mut self) {
        if let Some(live) = &self.span.live {
            dispatch::pop_span(live.id);
            live.sub.exit(live.id);
        }
    }
}
