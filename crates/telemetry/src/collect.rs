//! Span collection and the trace exporters.
//!
//! [`SpanCollector`] implements the tracing shim's `Subscriber`: it
//! timestamps every span enter/exit against the telemetry [`clock`] and
//! keeps the completed intervals plus events. [`SpanCollector::finish`]
//! drains everything into a [`Trace`], which renders either as Chrome
//! `chrome://tracing` trace-event JSON ([`Trace::chrome_json`] — open it
//! in `chrome://tracing` or Perfetto for a flamegraph of the replay) or a
//! per-span-name summary table ([`Trace::summary_table`]).

use std::collections::HashMap;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tracing::field::Value;
use tracing::{Attributes, Event, Id, Subscriber};

use crate::clock;

/// Small dense per-thread ordinal (Chrome trace `tid`), assigned on first
/// telemetry use per thread.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: u64 = {
            // RELAXED: unique-id allocator; only atomicity matters.
            NEXT.fetch_add(1, Ordering::Relaxed)
        };
    }
    ORDINAL.with(|t| *t)
}

/// One recorded span interval.
#[derive(Debug, Clone)]
pub struct SpanData {
    /// Collector-assigned id (also the tracing `Id` value).
    pub id: u64,
    /// Parent span id (explicit or contextual at creation).
    pub parent: Option<u64>,
    /// Span name.
    pub name: &'static str,
    /// Structured fields captured at creation.
    pub fields: Vec<(&'static str, Value)>,
    /// Thread ordinal the span was entered on.
    pub thread: u64,
    /// Monotonic start, ns since the telemetry epoch.
    pub start_ns: u64,
    /// Duration; `None` if the span never exited (still open at drain).
    pub dur_ns: Option<u64>,
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct EventData {
    /// Event name.
    pub name: &'static str,
    /// The enclosing span at the emitting call site, if any.
    pub parent: Option<u64>,
    /// Structured fields.
    pub fields: Vec<(&'static str, Value)>,
    /// Thread ordinal.
    pub thread: u64,
    /// Monotonic timestamp, ns since the telemetry epoch.
    pub ts_ns: u64,
}

#[derive(Default)]
struct CollectorState {
    /// Open spans by id (created, possibly entered, not yet exited).
    open: HashMap<u64, SpanData>,
    /// Completed spans in exit order.
    done: Vec<SpanData>,
    events: Vec<EventData>,
}

/// A `Subscriber` that records every span interval and event. Install via
/// [`crate::install_collector`] (global) or `tracing::subscriber::
/// with_default` (thread-scoped, for tests).
pub struct SpanCollector {
    next_id: AtomicU64,
    state: Mutex<CollectorState>,
}

impl Default for SpanCollector {
    fn default() -> Self {
        SpanCollector::new()
    }
}

impl SpanCollector {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        SpanCollector {
            next_id: AtomicU64::new(1),
            state: Mutex::new(CollectorState::default()),
        }
    }

    /// Drain everything recorded so far into a [`Trace`]. Spans still open
    /// (entered, not exited) are included with `dur_ns: None`.
    pub fn finish(&self) -> Trace {
        let mut state = self.state.lock().expect("span collector poisoned");
        let mut spans = std::mem::take(&mut state.done);
        spans.extend(state.open.drain().map(|(_, s)| s));
        spans.sort_by_key(|s| s.start_ns);
        Trace {
            spans,
            events: std::mem::take(&mut state.events),
        }
    }

    /// Number of span intervals and events currently recorded (open spans
    /// included) — lets tests assert "no events arrived while disabled".
    pub fn len(&self) -> usize {
        let state = self.state.lock().expect("span collector poisoned");
        state.open.len() + state.done.len() + state.events.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Subscriber for SpanCollector {
    fn new_span(&self, attrs: &Attributes<'_>) -> Id {
        // RELAXED: unique-id allocator; only atomicity matters.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let data = SpanData {
            id,
            parent: attrs.parent.map(Id::into_u64),
            name: attrs.metadata.name,
            fields: attrs.fields.to_vec(),
            thread: thread_ordinal(),
            start_ns: clock::monotonic_ns(),
            dur_ns: None,
        };
        self.state
            .lock()
            .expect("span collector poisoned")
            .open
            .insert(id, data);
        Id::from_u64(id)
    }

    fn enter(&self, id: Id) {
        // Spans are created-then-entered at every call site; restamp the
        // start and thread at enter so the interval excludes any gap
        // between creation and entry (e.g. a span handed to a pool task).
        let now = clock::monotonic_ns();
        let tid = thread_ordinal();
        let mut state = self.state.lock().expect("span collector poisoned");
        if let Some(s) = state.open.get_mut(&id.into_u64()) {
            s.start_ns = now;
            s.thread = tid;
        }
    }

    fn exit(&self, id: Id) {
        let now = clock::monotonic_ns();
        let mut state = self.state.lock().expect("span collector poisoned");
        if let Some(mut s) = state.open.remove(&id.into_u64()) {
            s.dur_ns = Some(now.saturating_sub(s.start_ns));
            state.done.push(s);
        }
    }

    fn event(&self, event: &Event<'_>) {
        let data = EventData {
            name: event.metadata.name,
            parent: event.parent.map(Id::into_u64),
            fields: event.fields.to_vec(),
            thread: thread_ordinal(),
            ts_ns: clock::monotonic_ns(),
        };
        self.state
            .lock()
            .expect("span collector poisoned")
            .events
            .push(data);
    }
}

/// A drained set of spans and events, ready for export.
#[derive(Debug, Default)]
pub struct Trace {
    /// Span intervals, sorted by start time.
    pub spans: Vec<SpanData>,
    /// Events, in arrival order.
    pub events: Vec<EventData>,
}

fn args_json(fields: &[(&'static str, Value)]) -> String {
    let body = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", v.to_json()))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{body}}}")
}

impl Trace {
    /// Render as Chrome trace-event JSON (the `chrome://tracing` /
    /// Perfetto format). Spans become complete (`"ph":"X"`) events with
    /// microsecond timestamps — viewers nest them by time containment per
    /// thread row — and events become instants (`"ph":"i"`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&line);
        };
        for s in &self.spans {
            // Unclosed spans (a crash mid-tick) render as zero-width.
            let dur = s.dur_ns.unwrap_or(0);
            push(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"gpnm\",\"ph\":\"X\",\"ts\":{}.{:03},\
                     \"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{}}}",
                    s.name,
                    s.start_ns / 1000,
                    s.start_ns % 1000,
                    dur / 1000,
                    dur % 1000,
                    s.thread,
                    args_json(&s.fields),
                ),
                &mut out,
            );
        }
        for e in &self.events {
            push(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"gpnm\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{}}}",
                    e.name,
                    e.ts_ns / 1000,
                    e.ts_ns % 1000,
                    e.thread,
                    args_json(&e.fields),
                ),
                &mut out,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Aggregate per span name: call count, total time, self time (total
    /// minus direct children), and exact p50/p90/p99 over the collected
    /// durations. Rendered as the `--trace-summary` table, sorted by total
    /// time descending.
    pub fn summary_table(&self) -> String {
        struct Agg {
            calls: u64,
            total_ns: u64,
            child_ns: u64,
            durations: Vec<u64>,
        }
        let mut by_name: HashMap<&'static str, Agg> = HashMap::new();
        let by_id: HashMap<u64, (&'static str, u64)> = self
            .spans
            .iter()
            .map(|s| (s.id, (s.name, s.dur_ns.unwrap_or(0))))
            .collect();
        for s in &self.spans {
            let dur = s.dur_ns.unwrap_or(0);
            let agg = by_name.entry(s.name).or_insert(Agg {
                calls: 0,
                total_ns: 0,
                child_ns: 0,
                durations: Vec::new(),
            });
            agg.calls += 1;
            agg.total_ns += dur;
            agg.durations.push(dur);
            if let Some(parent) = s.parent {
                if let Some(&(pname, _)) = by_id.get(&parent) {
                    by_name
                        .entry(pname)
                        .or_insert(Agg {
                            calls: 0,
                            total_ns: 0,
                            child_ns: 0,
                            durations: Vec::new(),
                        })
                        .child_ns += dur;
                }
            }
        }
        let mut rows: Vec<(&'static str, Agg)> = by_name.into_iter().collect();
        rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));

        let pct = |sorted: &[u64], q: f64| -> u64 {
            if sorted.is_empty() {
                return 0;
            }
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            sorted[idx]
        };
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}\n",
            "span", "calls", "total_us", "self_us", "p50_us", "p90_us", "p99_us"
        ));
        for (name, mut agg) in rows {
            agg.durations.sort_unstable();
            out.push_str(&format!(
                "{:<24} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}\n",
                name,
                agg.calls,
                agg.total_ns / 1000,
                agg.total_ns.saturating_sub(agg.child_ns) / 1000,
                pct(&agg.durations, 0.50) / 1000,
                pct(&agg.durations, 0.90) / 1000,
                pct(&agg.durations, 0.99) / 1000,
            ));
        }
        if !self.events.is_empty() {
            out.push_str(&format!("events: {}\n", self.events.len()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracing::subscriber::with_default;
    use tracing::{event, span, Level};

    #[test]
    fn collector_records_nested_spans_and_events() {
        let collector = std::sync::Arc::new(SpanCollector::new());
        struct Fwd(std::sync::Arc<SpanCollector>);
        impl Subscriber for Fwd {
            fn new_span(&self, a: &Attributes<'_>) -> Id {
                self.0.new_span(a)
            }
            fn enter(&self, id: Id) {
                self.0.enter(id)
            }
            fn exit(&self, id: Id) {
                self.0.exit(id)
            }
            fn event(&self, e: &Event<'_>) {
                self.0.event(e)
            }
        }
        with_default(Fwd(collector.clone()), || {
            let outer = span!(Level::INFO, "tick", updates = 4usize);
            let _og = outer.enter();
            {
                let inner = span!(Level::DEBUG, "reduce");
                let _ig = inner.enter();
                event!(Level::TRACE, "probe", count = 2u64);
            }
        });
        let trace = collector.finish();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.events.len(), 1);
        let tick = trace.spans.iter().find(|s| s.name == "tick").unwrap();
        let reduce = trace.spans.iter().find(|s| s.name == "reduce").unwrap();
        assert_eq!(reduce.parent, Some(tick.id));
        assert!(tick.dur_ns.unwrap() >= reduce.dur_ns.unwrap());
        assert_eq!(trace.events[0].parent, Some(reduce.id));

        let json = trace.chrome_json();
        assert!(json.contains("\"name\":\"tick\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"updates\":4"));

        let table = trace.summary_table();
        assert!(table.contains("tick"));
        assert!(table.contains("reduce"));
    }

    #[test]
    fn summary_self_time_subtracts_children() {
        let trace = Trace {
            spans: vec![
                SpanData {
                    id: 1,
                    parent: None,
                    name: "outer",
                    fields: vec![],
                    thread: 1,
                    start_ns: 0,
                    dur_ns: Some(10_000),
                },
                SpanData {
                    id: 2,
                    parent: Some(1),
                    name: "inner",
                    fields: vec![],
                    thread: 1,
                    start_ns: 1_000,
                    dur_ns: Some(4_000),
                },
            ],
            events: vec![],
        };
        let table = trace.summary_table();
        let outer_row = table.lines().find(|l| l.starts_with("outer")).unwrap();
        let cols: Vec<&str> = outer_row.split_whitespace().collect();
        assert_eq!(cols[2], "10", "total 10us");
        assert_eq!(cols[3], "6", "self 10-4 = 6us");
    }
}
