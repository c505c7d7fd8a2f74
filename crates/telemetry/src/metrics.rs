//! The metrics registry: monotonic counters, gauges, and log-bucketed
//! histograms, lock-free on the hot path.
//!
//! Call sites fetch a handle once ([`Registry::counter`] /
//! [`Registry::gauge`] / [`Registry::histogram`] — the only locked step)
//! and then update it with single relaxed `std::sync::atomic` RMWs.
//! Series are identified Prometheus-style: a base name plus optional
//! `{key="value"}` labels; [`Registry::render_prometheus`] emits the
//! standard text exposition format.

use std::collections::BTreeMap;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter. Increments wrap on `u64` overflow (after 2^64
/// events; Prometheus rate() treats the wrap as a reset).
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter (wrapping on overflow).
    #[inline]
    pub fn add(&self, n: u64) {
        // RELAXED: monitoring counter — no ordering with other data; the
        // exporter reads a lossy snapshot by design.
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // RELAXED: monitoring snapshot.
        self.v.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down (lane occupancy, cache bias).
/// Stored as `f64` bits in one atomic word.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        // RELAXED: monitoring value — last write wins, no ordering needed.
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative). Lock-free CAS loop on the f64 bits.
    pub fn add(&self, delta: f64) {
        // RELAXED: monitoring value — the CAS only needs atomicity of the
        // read-modify-write, not ordering with other data.
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            // RELAXED: as above — atomicity only.
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        // RELAXED: monitoring snapshot.
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log-bucketed histogram of `u64` observations (typically nanoseconds).
///
/// Bucket 0 holds exact zeros; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. Percentiles interpolate linearly inside the matched
/// bucket, so the error is bounded by the bucket width (a factor of 2).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// The bucket index covering `v`: 0 for 0, else `floor(log2 v) + 1`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        // RELAXED: monitoring counters — exporters read lossy snapshots;
        // no ordering with other data is required (all three increments).
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        // RELAXED: monitoring snapshot.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (wrapping).
    pub fn sum(&self) -> u64 {
        // RELAXED: monitoring snapshot.
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of the per-bucket counts.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        // RELAXED: monitoring snapshot; buckets may be mid-update, the
        // rendered cumulative distribution is still monotone.
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), interpolated within the matched
    /// log bucket. Returns 0.0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 && cum + c >= target {
                if i == 0 {
                    return 0.0;
                }
                let lower = (1u64 << (i - 1)) as f64;
                let upper = bucket_upper(i) as f64;
                let into = (target - cum) as f64 / c as f64;
                return lower + (upper - lower) * into;
            }
            cum += c;
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1) as f64
    }
}

/// A registered series: one of the three metric kinds.
#[derive(Clone)]
enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

struct Series {
    base: String,
    /// Rendered label pairs without braces (`shard="0",arm="rematch"`), or
    /// empty.
    labels: String,
    slot: Slot,
}

/// The metrics registry. One [`global`] instance serves the whole process
/// (matching the Prometheus process-scrape model); tests may build private
/// ones.
#[derive(Default)]
pub struct Registry {
    series: Mutex<BTreeMap<String, Series>>,
}

fn series_key(base: &str, labels: &[(&str, &str)]) -> (String, String) {
    let rendered = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect::<Vec<_>>()
        .join(",");
    let key = if rendered.is_empty() {
        base.to_string()
    } else {
        format!("{base}{{{rendered}}}")
    };
    (key, rendered)
}

impl Registry {
    /// A fresh, empty registry (tests; production uses [`global`]).
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert(
        &self,
        base: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Slot,
    ) -> Slot {
        let (key, rendered) = series_key(base, labels);
        let mut map = self.series.lock().expect("metrics registry poisoned");
        map.entry(key)
            .or_insert_with(|| Series {
                base: base.to_string(),
                labels: rendered,
                slot: make(),
            })
            .slot
            .clone()
    }

    /// Get or register the counter `base` with `labels`. Panics if the
    /// series exists with a different kind (a programming error).
    pub fn counter_with(&self, base: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(base, labels, || Slot::Counter(Arc::new(Counter::default()))) {
            Slot::Counter(c) => c,
            other => panic!("metric {base} already registered as a {}", other.kind()),
        }
    }

    /// [`Registry::counter_with`] without labels.
    pub fn counter(&self, base: &str) -> Arc<Counter> {
        self.counter_with(base, &[])
    }

    /// Get or register the gauge `base` with `labels`.
    pub fn gauge_with(&self, base: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(base, labels, || Slot::Gauge(Arc::new(Gauge::default()))) {
            Slot::Gauge(g) => g,
            other => panic!("metric {base} already registered as a {}", other.kind()),
        }
    }

    /// [`Registry::gauge_with`] without labels.
    pub fn gauge(&self, base: &str) -> Arc<Gauge> {
        self.gauge_with(base, &[])
    }

    /// Get or register the histogram `base` with `labels`.
    pub fn histogram_with(&self, base: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.get_or_insert(base, labels, || {
            Slot::Histogram(Arc::new(Histogram::default()))
        }) {
            Slot::Histogram(h) => h,
            other => panic!("metric {base} already registered as a {}", other.kind()),
        }
    }

    /// [`Registry::histogram_with`] without labels.
    pub fn histogram(&self, base: &str) -> Arc<Histogram> {
        self.histogram_with(base, &[])
    }

    /// Render every series in Prometheus text exposition format: one
    /// `# TYPE` line per base name, then the sample lines. Histograms emit
    /// cumulative `_bucket{le=...}` lines (up to the highest non-empty
    /// bucket, then `+Inf`), `_sum`, and `_count`.
    pub fn render_prometheus(&self) -> String {
        let map = self.series.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        let mut last_base: Option<String> = None;
        for series in map.values() {
            if last_base.as_deref() != Some(series.base.as_str()) {
                out.push_str(&format!("# TYPE {} {}\n", series.base, series.slot.kind()));
                last_base = Some(series.base.clone());
            }
            let labeled = |extra: &str| -> String {
                match (series.labels.is_empty(), extra.is_empty()) {
                    (true, true) => String::new(),
                    (true, false) => format!("{{{extra}}}"),
                    (false, true) => format!("{{{}}}", series.labels),
                    (false, false) => format!("{{{},{extra}}}", series.labels),
                }
            };
            match &series.slot {
                Slot::Counter(c) => {
                    out.push_str(&format!("{}{} {}\n", series.base, labeled(""), c.get()));
                }
                Slot::Gauge(g) => {
                    let v = g.get();
                    // The text format technically allows NaN but every
                    // consumer downstream (and our CI validator) treats it
                    // as corruption; render a sane 0 instead.
                    let v = if v.is_finite() { v } else { 0.0 };
                    out.push_str(&format!("{}{} {v}\n", series.base, labeled("")));
                }
                Slot::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let highest = counts
                        .iter()
                        .rposition(|&c| c > 0)
                        .unwrap_or(0)
                        .min(HISTOGRAM_BUCKETS - 2);
                    let mut cum = 0u64;
                    for (i, &c) in counts.iter().enumerate().take(highest + 1) {
                        cum += c;
                        out.push_str(&format!(
                            "{}_bucket{} {cum}\n",
                            series.base,
                            labeled(&format!("le=\"{}\"", bucket_upper(i)))
                        ));
                    }
                    let total: u64 = counts.iter().sum();
                    out.push_str(&format!(
                        "{}_bucket{} {total}\n",
                        series.base,
                        labeled("le=\"+Inf\"")
                    ));
                    out.push_str(&format!("{}_sum{} {}\n", series.base, labeled(""), h.sum()));
                    out.push_str(&format!("{}_count{} {total}\n", series.base, labeled("")));
                }
            }
        }
        out
    }
}

/// The process-global registry (the Prometheus scrape unit).
pub fn global() -> &'static Registry {
    static GLOBAL: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Render the global registry in Prometheus text exposition format — the
/// `--metrics-out` payload and the future serving endpoint's body.
pub fn metrics_text() -> String {
    global().render_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        for k in 0..63 {
            let v = 1u64 << k;
            assert_eq!(
                bucket_index(v),
                k as usize + 1,
                "2^{k} lands one past 2^{k}-1"
            );
            assert_eq!(
                bucket_index(v - 1),
                if v == 1 { 0 } else { k as usize },
                "2^{k}-1"
            );
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn percentiles_interpolate_within_log_buckets() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        // A log-bucketed estimate is within the bucket (factor-of-2 bound)
        // of the exact quantile.
        let p50 = h.percentile(0.50);
        assert!(
            (256.0..=511.0).contains(&p50),
            "p50 {p50} outside its bucket"
        );
        let p90 = h.percentile(0.90);
        assert!(
            (512.0..=1023.0).contains(&p90),
            "p90 {p90} outside its bucket"
        );
        let p99 = h.percentile(0.99);
        assert!(
            (512.0..=1023.0).contains(&p99),
            "p99 {p99} outside its bucket"
        );
        assert!(p50 <= p90 && p90 <= p99, "quantiles must be monotone");
    }

    #[test]
    fn percentile_edge_cases() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0.0, "empty histogram");
        h.observe(0);
        assert_eq!(h.percentile(0.99), 0.0, "all-zero observations");
        let h = Histogram::default();
        h.observe(42);
        let p = h.percentile(0.5);
        assert!(
            (32.0..=63.0).contains(&p),
            "single sample stays in its bucket"
        );
    }

    #[test]
    fn counter_overflow_wraps() {
        let c = Counter::default();
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
        c.add(3);
        // Documented wrapping semantics: scrapers see a reset, not a panic.
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn gauge_set_add_get() {
        let g = Gauge::default();
        g.set(2.5);
        g.add(1.0);
        g.add(-0.5);
        assert!((g.get() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let r = Registry::new();
        r.counter("gpnm_ticks_total").add(5);
        r.counter_with("gpnm_decisions_total", &[("arm", "rematch")])
            .add(2);
        r.counter_with("gpnm_decisions_total", &[("arm", "per-update")])
            .inc();
        r.gauge("gpnm_bias").set(1.25);
        let h = r.histogram("gpnm_tick_ns");
        h.observe(3);
        h.observe(900);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE gpnm_ticks_total counter\ngpnm_ticks_total 5\n"));
        assert!(text.contains("gpnm_decisions_total{arm=\"rematch\"} 2"));
        assert!(text.contains("gpnm_decisions_total{arm=\"per-update\"} 1"));
        // One TYPE line for the labeled family, not one per series.
        assert_eq!(text.matches("# TYPE gpnm_decisions_total").count(), 1);
        assert!(text.contains("# TYPE gpnm_bias gauge\ngpnm_bias 1.25\n"));
        assert!(text.contains("gpnm_tick_ns_bucket{le=\"3\"} 1"));
        assert!(text.contains("gpnm_tick_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("gpnm_tick_ns_sum 903"));
        assert!(text.contains("gpnm_tick_ns_count 2"));
        // Cumulative buckets are monotone nondecreasing.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("gpnm_tick_ns_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn same_handle_comes_back_for_same_series() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
