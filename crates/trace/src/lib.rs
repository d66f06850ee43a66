//! Phase-aware structured tracing and metrics for the Quipper reproduction.
//!
//! Quipper distinguishes three phases of a program's life: *compile time*,
//! *circuit generation time*, and *circuit execution time* (paper §3.1).
//! This crate gives every layer of the stack a shared, dependency-free way
//! to record what happened in each phase:
//!
//! - **Spans** ([`Tracer::span`]) — hierarchical begin/end intervals tagged
//!   with a [`Phase`]. Nesting mirrors the boxed-subroutine hierarchy during
//!   generation and the plan/shot structure during execution. Events land in
//!   per-thread ring buffers with monotonic timestamps, so the threaded
//!   kernel path records without a global lock.
//! - **Metrics** ([`Metrics`]) — named counters, max-gauges, and fixed
//!   power-of-two-bucket histograms (gate dispatch per kernel class, fusion
//!   savings, cache hit/miss, per-shot latency, ...), one map per kind with
//!   labeled and unlabeled series side by side, rendered as JSON Lines or
//!   Prometheus text ([`to_metrics_json_lines`], [`to_prometheus_text`]).
//! - **Exporter** ([`to_chrome_trace`]) — Chrome trace-event JSON (loadable
//!   in `chrome://tracing` / Perfetto), plus the per-subroutine
//!   [`report::ResourceReport`] in the style of arXiv:1412.0625.
//! - **JSON** ([`parse_json`], [`JsonWriter`]) — the workspace's one reader
//!   and one writer: every crate that emits JSON streams it through the
//!   writer, so escaping lives in one place and everything emitted reads
//!   back through the parser.
//!
//! When tracing is disabled (the default), every call site reduces to one
//! relaxed atomic load — cheap enough to leave in the amplitude kernels.

mod export;
mod expose;
mod json;
mod metrics;
pub mod report;

pub use export::to_chrome_trace;
pub use expose::{sanitize_metric_name, to_metrics_json_lines, to_prometheus_text};
pub use json::{parse as parse_json, Json, JsonWriter};
pub use metrics::{
    fmt_labels, names, Histogram, HistogramSnapshot, LabelSet, Metrics, MetricsSnapshot,
};

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Which of the paper's three phases an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Circuit generation time: running the embedded program to emit gates.
    Generate,
    /// Plan compilation: validate, flatten, profile, fuse.
    Compile,
    /// Circuit execution time: routing, shots, kernel dispatch.
    Execute,
}

impl Phase {
    /// Stable tag used as the Chrome trace `cat` field and in JSON dumps.
    pub fn tag(self) -> &'static str {
        match self {
            Phase::Generate => "Generate",
            Phase::Compile => "Compile",
            Phase::Execute => "Execute",
        }
    }
}

/// The shape of a recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened.
    Begin,
    /// Span closed.
    End,
    /// Point-in-time marker.
    Instant,
}

/// One recorded trace event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Global sequence number; total order across threads.
    pub seq: u64,
    /// Nanoseconds since the tracer's epoch (monotonic clock).
    pub t_ns: u64,
    /// Logical thread lane (stable per OS thread while it lives; lanes are
    /// pooled, so short-lived scoped threads reuse lanes).
    pub tid: u32,
    /// Span nesting depth on the recording thread at the time of the event.
    pub depth: u16,
    pub kind: EventKind,
    pub phase: Phase,
    pub name: Cow<'static, str>,
    /// Free-form detail payload (cache hit fingerprints, routing reasons).
    pub detail: Option<String>,
}

struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    depth: u16,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            events: VecDeque::new(),
            capacity: capacity.max(2),
            dropped: 0,
            depth: 0,
        }
    }

    fn push(&mut self, event: Event) -> bool {
        let mut dropped_one = false;
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
            dropped_one = true;
        }
        self.events.push_back(event);
        dropped_one
    }
}

struct ThreadBuffer {
    tid: u32,
    ring: Mutex<Ring>,
}

/// State shared between a [`Tracer`], its thread buffers, and live
/// [`SpanGuard`]s (which may outlive a borrow of the tracer itself).
struct Shared {
    capacity: usize,
    next_tid: AtomicU32,
    /// Every buffer ever handed out, for draining.
    all: Mutex<Vec<Arc<ThreadBuffer>>>,
    /// Buffers returned by exited threads, reused by new ones. Bounds the
    /// buffer count at the maximum number of *concurrent* threads even when
    /// the scoped kernel path spawns thousands of short-lived workers.
    pool: Mutex<Vec<Arc<ThreadBuffer>>>,
    seq: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl Shared {
    fn stamp(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn note_recorded(&self, dropped_one: bool) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if dropped_one {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct LocalEntry {
    tracer_id: u64,
    shared: Weak<Shared>,
    buf: Arc<ThreadBuffer>,
}

/// Per-thread cache of (tracer → buffer) bindings. On thread exit the
/// buffers go back to their tracer's pool.
struct LocalSet(Vec<LocalEntry>);

impl Drop for LocalSet {
    fn drop(&mut self) {
        for entry in self.0.drain(..) {
            if let Some(shared) = entry.shared.upgrade() {
                shared.pool.lock().unwrap().push(entry.buf);
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalSet> = const { RefCell::new(LocalSet(Vec::new())) };
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(0);

/// A tracing sink: an enable gate, per-thread event ring buffers, and a
/// metrics registry.
///
/// The process-wide instance lives behind [`tracer()`]; independent
/// instances (for tests, or a dedicated engine) come from [`Tracer::new`]
/// or [`Tracer::leaked`].
pub struct Tracer {
    id: u64,
    enabled: AtomicBool,
    epoch: Instant,
    shared: Arc<Shared>,
    metrics: Metrics,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("id", &self.id)
            .field("enabled", &self.enabled())
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

/// Default per-thread ring capacity (events).
pub const DEFAULT_CAPACITY: usize = 1 << 14;

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer with the default per-thread ring capacity.
    pub fn new() -> Self {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// A disabled tracer whose per-thread rings hold `capacity` events;
    /// older events are dropped (and counted) once a ring is full.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            shared: Arc::new(Shared {
                capacity,
                next_tid: AtomicU32::new(0),
                all: Mutex::new(Vec::new()),
                pool: Mutex::new(Vec::new()),
                seq: AtomicU64::new(0),
                recorded: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
            metrics: Metrics::new(),
        }
    }

    /// A leaked `&'static` tracer, for handles that must be `Copy`
    /// (e.g. `EngineConfig`).
    pub fn leaked(capacity: usize) -> &'static Tracer {
        Box::leak(Box::new(Tracer::with_capacity(capacity)))
    }

    /// Whether events are being recorded. One relaxed load; this is the
    /// whole cost of a disabled call site.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off. Metrics and spans are only recorded while
    /// enabled; toggling never perturbs traced computations.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The metrics registry attached to this tracer.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Cumulative `(recorded, dropped)` event counts since creation.
    /// Unlike [`Tracer::drain`], this is not reset by draining.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.shared.recorded.load(Ordering::Relaxed),
            self.shared.dropped.load(Ordering::Relaxed),
        )
    }

    /// This thread's buffer for this tracer, creating or reusing one.
    fn buffer(&self) -> Arc<ThreadBuffer> {
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            if let Some(entry) = local.0.iter().find(|e| e.tracer_id == self.id) {
                return Arc::clone(&entry.buf);
            }
            let pooled = self.shared.pool.lock().unwrap().pop();
            let buf = match pooled {
                Some(buf) => {
                    // A thread that died with open spans (panic) may leave a
                    // nonzero depth behind; new owners start at zero.
                    buf.ring.lock().unwrap().depth = 0;
                    buf
                }
                None => {
                    let buf = Arc::new(ThreadBuffer {
                        tid: self.shared.next_tid.fetch_add(1, Ordering::Relaxed),
                        ring: Mutex::new(Ring::new(self.shared.capacity)),
                    });
                    self.shared.all.lock().unwrap().push(Arc::clone(&buf));
                    buf
                }
            };
            local.0.push(LocalEntry {
                tracer_id: self.id,
                shared: Arc::downgrade(&self.shared),
                buf: Arc::clone(&buf),
            });
            buf
        })
    }

    /// Open a span; the returned guard records the matching end event when
    /// dropped (on the same thread). Returns `None` when disabled.
    #[inline]
    pub fn span(&self, phase: Phase, name: impl Into<Cow<'static, str>>) -> Option<SpanGuard> {
        if !self.enabled() {
            return None;
        }
        Some(self.span_slow(phase, name.into()))
    }

    fn span_slow(&self, phase: Phase, name: Cow<'static, str>) -> SpanGuard {
        let buf = self.buffer();
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let seq = self.shared.stamp();
        let dropped_one = {
            let mut ring = buf.ring.lock().unwrap();
            let depth = ring.depth;
            ring.depth = ring.depth.saturating_add(1);
            ring.push(Event {
                seq,
                t_ns,
                tid: buf.tid,
                depth,
                kind: EventKind::Begin,
                phase,
                name: name.clone(),
                detail: None,
            })
        };
        self.shared.note_recorded(dropped_one);
        SpanGuard {
            shared: Arc::clone(&self.shared),
            buf,
            epoch: self.epoch,
            phase,
            name,
        }
    }

    /// Record a point-in-time event with an optional detail payload.
    /// No-op when disabled (`detail` is still evaluated — gate on
    /// [`Tracer::enabled`] if building it is costly).
    #[inline]
    pub fn instant(
        &self,
        phase: Phase,
        name: impl Into<Cow<'static, str>>,
        detail: Option<String>,
    ) {
        if !self.enabled() {
            return;
        }
        self.instant_slow(phase, name.into(), detail);
    }

    fn instant_slow(&self, phase: Phase, name: Cow<'static, str>, detail: Option<String>) {
        let buf = self.buffer();
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let seq = self.shared.stamp();
        let dropped_one = {
            let mut ring = buf.ring.lock().unwrap();
            let depth = ring.depth;
            ring.push(Event {
                seq,
                t_ns,
                tid: buf.tid,
                depth,
                kind: EventKind::Instant,
                phase,
                name,
                detail,
            })
        };
        self.shared.note_recorded(dropped_one);
    }

    /// Move every buffered event out, ordered by sequence number.
    pub fn drain(&self) -> TraceLog {
        let mut events = Vec::new();
        let mut dropped = 0;
        for buf in self.shared.all.lock().unwrap().iter() {
            let mut ring = buf.ring.lock().unwrap();
            dropped += ring.dropped;
            ring.dropped = 0;
            events.extend(ring.events.drain(..));
        }
        events.sort_by_key(|e| e.seq);
        TraceLog { events, dropped }
    }
}

/// RAII guard for an open span; records the end event on drop.
///
/// Must be dropped on the thread that opened it (the begin/end pair shares
/// a thread lane). Guards are not `Send`, so this holds by construction.
pub struct SpanGuard {
    shared: Arc<Shared>,
    buf: Arc<ThreadBuffer>,
    epoch: Instant,
    phase: Phase,
    name: Cow<'static, str>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let seq = self.shared.stamp();
        let dropped_one = {
            let mut ring = self.buf.ring.lock().unwrap();
            ring.depth = ring.depth.saturating_sub(1);
            let depth = ring.depth;
            ring.push(Event {
                seq,
                t_ns,
                tid: self.buf.tid,
                depth,
                kind: EventKind::End,
                phase: self.phase,
                name: std::mem::take(&mut self.name),
                detail: None,
            })
        };
        self.shared.note_recorded(dropped_one);
    }
}

/// Events drained from a tracer, in global sequence order.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    pub events: Vec<Event>,
    /// Events lost to ring wraparound since the previous drain.
    pub dropped: u64,
}

static GLOBAL: OnceLock<Tracer> = OnceLock::new();

/// The process-wide tracer. Created disabled on first use.
pub fn tracer() -> &'static Tracer {
    GLOBAL.get_or_init(Tracer::new)
}

/// Whether the process-wide tracer is recording.
#[inline]
pub fn enabled() -> bool {
    tracer().enabled()
}

/// Open a span on the process-wide tracer (see [`Tracer::span`]).
#[inline]
pub fn span(phase: Phase, name: impl Into<Cow<'static, str>>) -> Option<SpanGuard> {
    tracer().span(phase, name)
}

/// Open a span whose name is built lazily — the closure only runs while
/// tracing is enabled, so call sites with `format!`ed names stay free when
/// disabled.
#[inline]
pub fn span_lazy(phase: Phase, name: impl FnOnce() -> String) -> Option<SpanGuard> {
    let t = tracer();
    if !t.enabled() {
        return None;
    }
    t.span(phase, name())
}

/// Record an instant event on the process-wide tracer.
#[inline]
pub fn instant(phase: Phase, name: impl Into<Cow<'static, str>>, detail: Option<String>) {
    tracer().instant(phase, name, detail);
}

/// Bump a named counter on the process-wide tracer's metrics, if enabled.
#[inline]
pub fn count(name: &'static str, n: u64) {
    let t = tracer();
    if t.enabled() {
        t.metrics().add(name, n);
    }
}

/// Raise a named max-gauge on the process-wide tracer's metrics, if enabled.
#[inline]
pub fn record_max(name: &'static str, value: u64) {
    let t = tracer();
    if t.enabled() {
        t.metrics().record_max(name, value);
    }
}

/// Render a duration with auto-scaled units: `ns` below 1 µs, then `µs`,
/// `ms`, and `s`, with two decimals.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

// Compile-time audit: tracer handles cross threads, guards must not.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Tracer>();
    assert_send_sync::<Metrics>();
    assert_send_sync::<TraceLog>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_none_and_records_nothing() {
        let t = Tracer::new();
        assert!(t.span(Phase::Generate, "x").is_none());
        t.instant(Phase::Execute, "y", None);
        count_nothing(&t);
        assert_eq!(t.counts(), (0, 0));
        assert!(t.drain().events.is_empty());
    }

    fn count_nothing(t: &Tracer) {
        if t.enabled() {
            t.metrics().add("never", 1);
        }
    }

    #[test]
    fn span_nesting_depths_mirror_call_structure() {
        let t = Tracer::new();
        t.set_enabled(true);
        {
            let _a = t.span(Phase::Generate, "outer");
            {
                let _b = t.span(Phase::Generate, "mid");
                let _c = t.span(Phase::Compile, "inner");
            }
            t.instant(Phase::Generate, "mark", Some("detail".into()));
        }
        let log = t.drain();
        let got: Vec<(&str, EventKind, u16)> = log
            .events
            .iter()
            .map(|e| (e.name.as_ref(), e.kind, e.depth))
            .collect();
        assert_eq!(
            got,
            vec![
                ("outer", EventKind::Begin, 0),
                ("mid", EventKind::Begin, 1),
                ("inner", EventKind::Begin, 2),
                ("inner", EventKind::End, 2),
                ("mid", EventKind::End, 1),
                ("mark", EventKind::Instant, 1),
                ("outer", EventKind::End, 0),
            ]
        );
        assert_eq!(log.dropped, 0);
        // seq is a total order and timestamps are monotone per thread.
        for pair in log.events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
            assert!(pair[0].t_ns <= pair[1].t_ns);
        }
    }

    #[test]
    fn ring_buffer_wraps_and_counts_drops() {
        let t = Tracer::with_capacity(4);
        t.set_enabled(true);
        for i in 0..10u64 {
            t.instant(Phase::Execute, format!("e{i}"), None);
        }
        let log = t.drain();
        assert_eq!(log.events.len(), 4);
        assert_eq!(log.dropped, 6);
        let names: Vec<&str> = log.events.iter().map(|e| e.name.as_ref()).collect();
        assert_eq!(names, vec!["e6", "e7", "e8", "e9"]);
        assert_eq!(t.counts(), (10, 6));
        // Drained rings start empty; cumulative counts persist.
        assert!(t.drain().events.is_empty());
        assert_eq!(t.counts(), (10, 6));
    }

    #[test]
    fn threads_get_distinct_lanes_and_pooled_buffers_are_reused() {
        let t = Tracer::new();
        t.set_enabled(true);
        let _main = t.span(Phase::Execute, "main-lane");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _s = t.span(Phase::Execute, "worker");
                });
            }
        });
        // Sequential short-lived threads reuse pooled lanes instead of
        // growing the buffer list without bound.
        for _ in 0..8 {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _s = t.span(Phase::Execute, "serial-worker");
                });
            });
        }
        drop(_main);
        let log = t.drain();
        let mut tids: Vec<u32> = log.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        // Main thread + at most 2 concurrent workers; the 8 serial threads
        // reused pooled lanes.
        assert!(tids.len() <= 3, "expected pooled lanes, got {tids:?}");
        assert!(tids.len() >= 2, "expected multiple lanes, got {tids:?}");
        // Begin/end balance per lane.
        let mut depth: std::collections::HashMap<u32, i64> = Default::default();
        for e in &log.events {
            match e.kind {
                EventKind::Begin => *depth.entry(e.tid).or_default() += 1,
                EventKind::End => *depth.entry(e.tid).or_default() -= 1,
                EventKind::Instant => {}
            }
        }
        assert!(depth.values().all(|&d| d == 0), "unbalanced: {depth:?}");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(640)), "640ns");
        assert_eq!(fmt_duration(Duration::from_nanos(1_500)), "1.50µs");
        assert_eq!(fmt_duration(Duration::from_micros(2_300)), "2.30ms");
        assert_eq!(fmt_duration(Duration::from_millis(12_340)), "12.34s");
    }
}
