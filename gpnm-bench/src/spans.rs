//! Bench-owned spans around the calls into each layer.
//!
//! The staged replay wraps every call in a [`Span`] `{name, start_ns,
//! end_ns, parent, tick}`, kept in memory and written out (Chrome trace
//! JSON) only when the run ends. A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `distance.repair`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The tick (request) the span belongs to.
    pub tick: u64,
}

/// In-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    tick: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log; span times count from now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            tick: 0,
        }
    }

    /// Spans opened from here on belong to `tick`.
    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            tick: self.tick,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = end_ns;
    }

    /// Run `f` inside a span called `name`.
    pub fn within<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Record an interval measured elsewhere (`dur_ns` ending now) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, dur_ns: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            parent: self.open.last().copied(),
            tick: self.tick,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forget the spans recorded after the first `len` (a warm-up tick's)
    /// but keep the clock.
    pub fn truncate(&mut self, len: usize) {
        assert!(self.open.is_empty(), "truncate with spans still open");
        self.spans.truncate(len);
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children are clipped to the parent and
/// overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// The longest single span's whole duration, ns.
    pub max_ns: u64,
}

/// Aggregate self time, call count and slowest call per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.self_ns += self_ns;
        entry.max_ns = entry.max_ns.max(span.end_ns - span.start_ns);
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of the spans.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let dur = s.end_ns - s.start_ns;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"gpnm-bench\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\
             \"pid\":1,\"tid\":1,\"args\":{{\"tick\":{},\"parent\":{}}}}}",
            s.name,
            s.start_ns / 1000,
            s.start_ns % 1000,
            dur / 1000,
            dur % 1000,
            s.tick,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            tick: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("tick", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span("tick", 100, 200, None),
            // Two overlapping children cover 110..160 once.
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            // A child that overhangs the parent counts only inside it.
            span("c", 190, 250, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("tick", 0, 100, None),
            span("x", 0, 10, Some(0)),
            span("x", 20, 50, Some(0)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["x"],
            NameTotals {
                calls: 2,
                self_ns: 40,
                max_ns: 30
            }
        );
        assert_eq!(totals["tick"].self_ns, 60);
    }

    #[test]
    fn log_nests_by_stack() {
        let mut log = SpanLog::new();
        log.set_tick(7);
        log.within("outer", || ());
        log.enter("outer");
        log.enter("inner");
        log.record("measured", 5);
        log.exit();
        log.exit();
        let spans = log.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.tick == 7 && s.end_ns >= s.start_ns));
        assert!(chrome_json(spans).contains("\"name\":\"inner\""));
    }
}
