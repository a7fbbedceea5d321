//! Host-side metric primitives: counters, log2-bucket histograms, span
//! timers, a bounded ring-buffer event log, and the [`Sink`] registry.
//!
//! Everything here is built for *instrumenting real host code* (the thread
//! pool, the autotuner) rather than the simulator hot loop — the simulator
//! uses the zero-cost [`crate::probe::SimProbe`] path instead. The overhead
//! contract for host code is: a **disabled** sink costs one relaxed atomic
//! load per probe site (spans return a no-op guard, counters are still
//! plain atomics the caller may cache); an enabled sink costs an atomic
//! RMW per counter bump and a mutex push per finished span.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value. For counters that *mirror* an authoritative
    /// counter owned elsewhere (the store's own atomics, say): repeated
    /// publishes are then idempotent, where repeated `add`s of a delta
    /// double-count under racing publishers.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`]: one per power of two of `u64`.
pub const HIST_BUCKETS: usize = 64;

/// A lock-free histogram with fixed log2 buckets: bucket 0 holds the value
/// 0, bucket `i > 0` holds values in `[2^(i-1), 2^i)`.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: 0 for 0, else `1 + floor(log2 v)`,
    /// saturated to the last bucket. Public so consumers comparing an
    /// externally measured value against an exported histogram (e.g. the
    /// serve load generator's p99 cross-check) can place the value in the
    /// same bucket space.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the current state (individual loads are
    /// relaxed; exact only once recording has stopped).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`Histogram`] for the mapping).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`
    /// (0 when empty). Resolution is one power of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        match self.quantile_bucket(q) {
            Some(0) | None => 0,
            Some(i) => 1u64 << i.min(63),
        }
    }

    /// Index of the log2 bucket containing quantile `q` in `[0, 1]`, or
    /// `None` when the histogram is empty. The bucket is found by walking
    /// the cumulative counts to `ceil(q · count)` (so `q = 0` is the
    /// smallest observation's bucket and `q = 1` the largest's).
    pub fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(i);
            }
        }
        // Bucket counts can lag `count` under concurrent recording; charge
        // the remainder to the last bucket rather than invent an index.
        Some(self.buckets.len().saturating_sub(1))
    }

    /// Inclusive `[lo, hi]` value bounds of the bucket containing quantile
    /// `q` (`(0, 0)` when empty). The true quantile of the recorded values
    /// is guaranteed to lie in this interval; its width is the histogram's
    /// documented error bound — one power of two, i.e. any point estimate
    /// taken from the bucket is within 2× of the true value.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        match self.quantile_bucket(q) {
            None | Some(0) => (0, 0),
            Some(i) => {
                let lo = 1u64 << (i - 1).min(63);
                let hi = if i >= 64 - 1 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                (lo, hi)
            }
        }
    }

    /// Median estimate: the upper bound of the p50 bucket (within 2× of
    /// the true median — see [`HistogramSnapshot::quantile_bounds`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate (bucket upper bound).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A bounded event log that overwrites nothing: once full, *new* entries
/// are dropped and counted, so the retained prefix stays contiguous in
/// time (the window-open edge is what the alias analysis needs; dropping
/// the tail is explicit in `dropped`).
#[derive(Debug, Clone)]
pub struct RingLog<T> {
    buf: Vec<T>,
    cap: usize,
    dropped: u64,
}

impl<T> RingLog<T> {
    /// A log holding at most `cap` entries (`cap = 0` drops everything).
    pub fn new(cap: usize) -> Self {
        RingLog {
            buf: Vec::with_capacity(cap.min(4096)),
            cap,
            dropped: 0,
        }
    }

    /// Appends an entry, or counts it as dropped when full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.cap {
            self.buf.push(item);
        } else {
            self.dropped += 1;
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the log holds nothing.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Entries rejected because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained entries in insertion order.
    pub fn as_slice(&self) -> &[T] {
        &self.buf
    }

    /// Consumes the log, returning the retained entries in insertion order.
    pub fn into_vec(self) -> Vec<T> {
        self.buf
    }
}

/// One completed span: a named timed region on a host thread.
///
/// The three id fields tie spans into request traces (see
/// [`crate::trace`]): all zero for plain un-traced spans, otherwise
/// `trace_id` groups the spans of one logical request, `span_id` names
/// this span, and `parent_id` is the enclosing span (0 for a root).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (e.g. `"trial offset=128"`).
    pub name: String,
    /// Logical thread id supplied by the instrumented code.
    pub tid: u32,
    /// Start time in microseconds since the sink's epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Trace this span belongs to (0 = not part of a trace).
    pub trace_id: u64,
    /// This span's own id (0 = un-traced legacy span).
    pub span_id: u64,
    /// Id of the enclosing span (0 = root of its trace).
    pub parent_id: u64,
}

/// A registry of named counters and histograms plus a span log, shared via
/// `Arc` between the instrumented code and the exporter.
///
/// Sinks start **disabled**: probes check [`Sink::enabled`] (one relaxed
/// atomic load) and bail out. Call [`Sink::set_enabled`] to start
/// recording.
pub struct Sink {
    enabled: AtomicBool,
    epoch: Instant,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Sink {
    /// A fresh, disabled sink.
    pub fn new() -> Arc<Self> {
        Arc::new(Sink {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// A fresh sink that is already recording.
    pub fn enabled() -> Arc<Self> {
        let s = Sink::new();
        s.set_enabled(true);
        s
    }

    /// Whether the sink records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Microseconds since the sink was created.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// The counter registered under `name` (created on first use). Cache
    /// the returned `Arc` outside loops — the lookup takes a mutex.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry");
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Starts a span; the span is recorded when the returned guard drops.
    /// On a disabled sink this is a no-op guard.
    pub fn span(self: &Arc<Self>, name: impl Into<String>, tid: u32) -> SpanGuard {
        self.span_with_ids(name, tid, 0, 0, 0)
    }

    /// Starts a span that is the **root of a fresh trace**: a new trace id
    /// and span id are drawn from [`crate::trace::next_id`], so child
    /// spans can parent to it via [`Sink::span_child`].
    pub fn span_root(self: &Arc<Self>, name: impl Into<String>, tid: u32) -> SpanGuard {
        if !self.is_enabled() {
            return self.span_with_ids(name, tid, 0, 0, 0);
        }
        let trace_id = crate::trace::next_id();
        let span_id = crate::trace::next_id();
        self.span_with_ids(name, tid, trace_id, span_id, 0)
    }

    /// Starts a span inside an existing trace, parented to `parent_id`.
    pub fn span_child(
        self: &Arc<Self>,
        name: impl Into<String>,
        tid: u32,
        trace_id: u64,
        parent_id: u64,
    ) -> SpanGuard {
        if !self.is_enabled() {
            return self.span_with_ids(name, tid, 0, 0, 0);
        }
        self.span_with_ids(name, tid, trace_id, crate::trace::next_id(), parent_id)
    }

    fn span_with_ids(
        self: &Arc<Self>,
        name: impl Into<String>,
        tid: u32,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
    ) -> SpanGuard {
        if self.is_enabled() {
            SpanGuard {
                sink: Some(Arc::clone(self)),
                name: name.into(),
                tid,
                start_us: self.now_us(),
                trace_id,
                span_id,
                parent_id,
            }
        } else {
            SpanGuard {
                sink: None,
                name: String::new(),
                tid: 0,
                start_us: 0.0,
                trace_id: 0,
                span_id: 0,
                parent_id: 0,
            }
        }
    }

    /// All completed spans so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span log").clone()
    }

    /// All counters as `(name, value)`, sorted by name.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("counter registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All histograms as `(name, snapshot)`, sorted by name.
    pub fn histogram_values(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms
            .lock()
            .expect("histogram registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

/// RAII guard returned by [`Sink::span`]; records the span on drop.
pub struct SpanGuard {
    sink: Option<Arc<Sink>>,
    name: String,
    tid: u32,
    start_us: f64,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
}

impl SpanGuard {
    /// The trace id this span opened or joined (0 for a no-op guard).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// This span's id (0 for a no-op guard), usable as a child's parent.
    pub fn span_id(&self) -> u64 {
        self.span_id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(sink) = self.sink.take() {
            let record = SpanRecord {
                name: std::mem::take(&mut self.name),
                tid: self.tid,
                start_us: self.start_us,
                dur_us: sink.now_us() - self.start_us,
                trace_id: self.trace_id,
                span_id: self.span_id,
                parent_id: self.parent_id,
            };
            sink.spans.lock().expect("span log").push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[3], 1); // 4
        assert_eq!(s.buckets[10], 1); // 1000 ∈ [512, 1024)
        assert_eq!(s.buckets[HIST_BUCKETS - 1], 1); // u64::MAX
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.5), 0);
        assert_eq!(h.snapshot().mean(), 0.0);
        for _ in 0..99 {
            h.record(100); // bucket 7: [64, 128)
        }
        h.record(100_000); // bucket 17
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 128);
        assert_eq!(s.quantile(1.0), 1 << 17);
        assert!((s.mean() - (99.0 * 100.0 + 100_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn ring_log_drops_overflow_and_counts_it() {
        let mut log = RingLog::new(3);
        assert!(log.is_empty());
        for i in 0..10 {
            log.push(i);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.capacity(), 3);
        assert_eq!(log.dropped(), 7);
        assert_eq!(log.into_vec(), vec![0, 1, 2]);
    }

    #[test]
    fn zero_capacity_ring_log_drops_everything() {
        let mut log: RingLog<u8> = RingLog::new(0);
        log.push(1);
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn disabled_sink_records_no_spans() {
        let sink = Sink::new();
        {
            let _g = sink.span("ignored", 0);
        }
        assert!(sink.spans().is_empty());
    }

    #[test]
    fn enabled_sink_records_spans_and_counters() {
        let sink = Sink::enabled();
        {
            let _g = sink.span("work", 3);
            sink.counter("hits").add(2);
        }
        let spans = sink.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "work");
        assert_eq!(spans[0].tid, 3);
        assert!(spans[0].dur_us >= 0.0);
        assert_eq!(sink.counter_values(), vec![("hits".to_string(), 2)]);
    }

    #[test]
    fn parented_spans_share_a_trace() {
        let sink = Sink::enabled();
        let (trace, parent);
        {
            let root = sink.span_root("run", 0);
            trace = root.trace_id();
            parent = root.span_id();
            assert_ne!(trace, 0);
            assert_ne!(parent, 0);
            let _child = sink.span_child("trial", 1, trace, parent);
        }
        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        // The child guard drops before the root guard.
        assert_eq!(spans[0].trace_id, trace);
        assert_eq!(spans[0].parent_id, parent);
        assert_ne!(spans[0].span_id, parent);
        assert_eq!(spans[1].span_id, parent);
        assert_eq!(spans[1].parent_id, 0);
    }

    #[test]
    fn quantile_bounds_bracket_the_true_value() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(100); // bucket 7: [64, 127]
        }
        let s = h.snapshot();
        assert_eq!(s.quantile_bucket(0.5), Some(7));
        assert_eq!(s.quantile_bounds(0.5), (64, 127));
        assert_eq!(s.quantile_bounds(0.99), (64, 127));
        // Empty and zero-valued histograms pin to (0, 0).
        assert_eq!(Histogram::new().snapshot().quantile_bounds(0.5), (0, 0));
        let z = Histogram::new();
        z.record(0);
        assert_eq!(z.snapshot().quantile_bounds(0.99), (0, 0));
        // The last bucket's upper bound saturates to u64::MAX.
        let top = Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.snapshot().quantile_bounds(1.0), (1 << 62, u64::MAX));
    }
}
