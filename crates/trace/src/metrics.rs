//! Named counters, max-gauges, and fixed-bucket histograms.
//!
//! The registry is one map per instrument kind. Counters and histograms are
//! keyed by `(name, labels)`: an unlabeled instrument is simply the series
//! with the empty label set, so `add(name, n)` and `add_labeled(name, &[],
//! n)` are the same series. Max-gauges are unlabeled.
//!
//! Registration is lazy: the first `add`/`observe`/`record_max` under a key
//! creates the instrument. Handles are `Arc`ed atomics, so the hot path
//! after the first touch is lock-free; the registry maps are only locked to
//! look up or create an instrument and to snapshot.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Canonical metric names used by the instrumented crates. Keeping them in
/// one place lets exporters and tests refer to them without typos.
pub mod names {
    /// Gates emitted by the `Circ` builder (generation time).
    pub const GATES_EMITTED: &str = "gen.gates_emitted";
    /// Boxed subroutine bodies built (cache misses in the box table).
    pub const BOXES_BUILT: &str = "gen.boxes_built";

    /// Gates entering the fusion pass.
    pub const FUSE_GATES_IN: &str = "compile.fuse.gates_in";
    /// Fused ops leaving the fusion pass.
    pub const FUSE_GATES_OUT: &str = "compile.fuse.gates_out";
    /// Gates eliminated by fusion.
    pub const FUSE_FUSED_AWAY: &str = "compile.fuse.fused_away";

    /// Plan-cache hits / misses in the execution engine.
    pub const CACHE_HIT: &str = "exec.cache.hit";
    pub const CACHE_MISS: &str = "exec.cache.miss";

    /// Backend routing decisions, by backend.
    pub const ROUTE_CLASSICAL: &str = "exec.route.classical";
    pub const ROUTE_STABILIZER: &str = "exec.route.stabilizer";
    pub const ROUTE_STATEVEC: &str = "exec.route.statevec";

    /// Per-shot wall latency histogram (µs).
    pub const SHOT_LATENCY_US: &str = "exec.shot_latency_us";
    /// Max-gauge: peak qubits across executed plans.
    pub const PEAK_QUBITS: &str = "exec.peak_qubits";
    /// Shots actually executed (a cancelled job stops this short of the
    /// requested count — the observable proof that cancellation stops work).
    pub const SHOTS_RUN: &str = "exec.shots_run";
    /// Jobs abandoned by a fired cancellation token, in the prefix or
    /// between shots.
    pub const EXEC_CANCELLED: &str = "exec.cancelled";
    /// Wall time of a job's shot-invariant prefix, run once ahead of its
    /// shots, µs (histogram, one observation per job).
    pub const PREFIX_US: &str = "exec.prefix_us";
    /// Plan ops run once per job, in the prefix, instead of once per shot.
    pub const PREFIX_OPS: &str = "exec.prefix.ops";
    /// Jobs whose shots were drawn from the evolved state without copying
    /// it (terminal measurements only).
    pub const SUFFIX_SAMPLED: &str = "exec.suffix.sampled";
    /// Jobs whose shots each copied the evolved state and ran the remaining
    /// ops (mid-circuit measurement, classical control, tableau clone).
    pub const SUFFIX_BRANCHED: &str = "exec.suffix.branched";

    /// Jobs admitted into the serve queue.
    pub const SERVE_ADMIT: &str = "serve.admit";
    /// Submissions rejected with a retry-after hint: full queue.
    pub const SERVE_REJECT_FULL: &str = "serve.reject.queue_full";
    /// Submissions rejected with a retry-after hint: tenant out of quota.
    pub const SERVE_REJECT_QUOTA: &str = "serve.reject.quota";
    /// Jobs that missed their deadline (queued or mid-execution).
    pub const SERVE_DEADLINE_MISS: &str = "serve.deadline_miss";
    /// Jobs cancelled by the client.
    pub const SERVE_CANCELLED: &str = "serve.cancelled";
    /// Jobs whose plan compile was coalesced onto a concurrent identical
    /// submission (same fingerprint, one compile).
    pub const SERVE_COALESCED: &str = "serve.coalesced";
    /// Jobs completed successfully by the service.
    pub const SERVE_COMPLETED: &str = "serve.completed";
    /// Jobs that finished in a failed state (a compile error, a shot's
    /// error, or a panic).
    pub const SERVE_FAILED: &str = "serve.failed";
    /// Max-gauge: admission-queue depth high-water mark.
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";

    /// End-to-end job latency (admit → terminal), µs. Labeled by tenant
    /// and terminal state.
    pub const SERVE_JOB_LATENCY_US: &str = "serve.job_latency_us";
    /// Time spent waiting in the admission queue, µs. Labeled by tenant.
    pub const SERVE_QUEUE_WAIT_US: &str = "serve.queue_wait_us";
    /// Jobs checked against a configured latency SLO. Labeled by tenant.
    pub const SLO_CHECKED: &str = "serve.slo.checked";
    /// Jobs whose end-to-end latency exceeded the tenant's SLO threshold
    /// (the burn counter). Labeled by tenant.
    pub const SLO_MISS: &str = "serve.slo.miss";

    /// Gates entering the optimizer pipeline.
    pub const OPT_GATES_IN: &str = "opt.gates_in";
    /// Gates leaving the optimizer pipeline.
    pub const OPT_GATES_OUT: &str = "opt.gates_out";
    /// Gates removed across all optimizer passes (pipelines that *grow* a
    /// circuit, e.g. pure decomposition, add nothing here).
    pub const OPT_REMOVED: &str = "opt.removed";
    /// Individual rewrites applied (cancellations, merges, control drops,
    /// decomposition expansions).
    pub const OPT_REWRITES: &str = "opt.rewrites";
    /// Phase-polynomial pass: same-parity rotation groups merged.
    pub const OPT_PHASEPOLY_MERGED: &str = "opt.phasepoly.merged";
    /// Phase-polynomial pass: phase gates removed by re-synthesis.
    pub const OPT_PHASEPOLY_REMOVED: &str = "opt.phasepoly.removed";
    /// Clifford-push pass: terminal gates absorbed into measurements or
    /// discards.
    pub const OPT_CLIFFORD_ABSORBED: &str = "opt.clifford_push.absorbed";
    /// Whole-pipeline reverts: runs whose result was discarded because the
    /// optimized circuit ended up larger than the input.
    pub const OPT_REVERTED: &str = "opt.reverted";

    /// Pauli-flow lint: stabilizer generators seeded from initializations.
    /// Like the other `lint.pauli.*` counters, bumped once per
    /// `quipper_lint::lint` call and never by `quipper_lint::facts` or
    /// `quipper_lint::errors`, so a plan compile counts none.
    pub const LINT_PAULI_GENERATORS: &str = "lint.pauli.generators";
    /// Pauli-flow lint: measurements proved deterministic (QL040), per
    /// `lint` call.
    pub const LINT_PAULI_DET_MEAS: &str = "lint.pauli.det_meas";
    /// Pauli-flow lint: Clifford-conjugated cancelling pairs reported
    /// (QL041), per `lint` call.
    pub const LINT_PAULI_CONJ_PAIRS: &str = "lint.pauli.conj_pairs";

    /// State-vector kernel dispatches by class.
    pub const KERNEL_DIAGONAL: &str = "sim.kernel.diagonal";
    pub const KERNEL_PERMUTATION: &str = "sim.kernel.permutation";
    pub const KERNEL_GENERAL: &str = "sim.kernel.general";
    pub const KERNEL_SUBCUBE: &str = "sim.kernel.subcube";
    pub const KERNEL_THREADED: &str = "sim.kernel.threaded";
    /// Gate applications executed inside blocked windows.
    pub const KERNEL_WINDOWED: &str = "sim.kernel.windowed";
    /// Blocked windows flushed.
    pub const KERNEL_WINDOWS: &str = "sim.kernel.windows";
    /// Swap gates absorbed into wire-slot relabeling.
    pub const KERNEL_RELABELED: &str = "sim.kernel.relabeled";

    /// Max-gauge: peak live qubits observed by the state-vector allocator.
    pub const LIVE_QUBITS_PEAK: &str = "sim.live_qubits_peak";

    /// OpenQASM ingestion: programs submitted to the parser.
    pub const QASM_PROGRAMS: &str = "qasm.parse.programs";
    /// OpenQASM ingestion: programs that lowered to a valid circuit.
    pub const QASM_ACCEPTED: &str = "qasm.parse.accepted";
    /// OpenQASM ingestion: error diagnostics produced.
    pub const QASM_DIAG_ERROR: &str = "qasm.parse.diag_error";
    /// OpenQASM ingestion: warning diagnostics produced.
    pub const QASM_DIAG_WARNING: &str = "qasm.parse.diag_warning";
    /// OpenQASM ingestion: wall time from source bytes to lowered IR, µs.
    pub const QASM_PARSE_US: &str = "qasm.parse.parse_us";

    /// Every canonical metric name above, for exposition lint: each name
    /// here must appear in both encoder outputs when registered.
    pub const ALL: &[&str] = &[
        GATES_EMITTED,
        BOXES_BUILT,
        FUSE_GATES_IN,
        FUSE_GATES_OUT,
        FUSE_FUSED_AWAY,
        CACHE_HIT,
        CACHE_MISS,
        ROUTE_CLASSICAL,
        ROUTE_STABILIZER,
        ROUTE_STATEVEC,
        SHOT_LATENCY_US,
        PEAK_QUBITS,
        SHOTS_RUN,
        EXEC_CANCELLED,
        PREFIX_US,
        PREFIX_OPS,
        SUFFIX_SAMPLED,
        SUFFIX_BRANCHED,
        SERVE_ADMIT,
        SERVE_REJECT_FULL,
        SERVE_REJECT_QUOTA,
        SERVE_DEADLINE_MISS,
        SERVE_CANCELLED,
        SERVE_COALESCED,
        SERVE_COMPLETED,
        SERVE_FAILED,
        SERVE_QUEUE_DEPTH,
        SERVE_JOB_LATENCY_US,
        SERVE_QUEUE_WAIT_US,
        SLO_CHECKED,
        SLO_MISS,
        OPT_GATES_IN,
        OPT_GATES_OUT,
        OPT_REMOVED,
        OPT_REWRITES,
        OPT_PHASEPOLY_MERGED,
        OPT_PHASEPOLY_REMOVED,
        OPT_CLIFFORD_ABSORBED,
        OPT_REVERTED,
        LINT_PAULI_GENERATORS,
        LINT_PAULI_DET_MEAS,
        LINT_PAULI_CONJ_PAIRS,
        KERNEL_DIAGONAL,
        KERNEL_PERMUTATION,
        KERNEL_GENERAL,
        KERNEL_SUBCUBE,
        KERNEL_THREADED,
        KERNEL_WINDOWED,
        KERNEL_WINDOWS,
        KERNEL_RELABELED,
        LIVE_QUBITS_PEAK,
        QASM_PROGRAMS,
        QASM_ACCEPTED,
        QASM_DIAG_ERROR,
        QASM_DIAG_WARNING,
        QASM_PARSE_US,
    ];
}

const BUCKETS: usize = 32;

/// Fixed-bucket histogram. Bucket `i` counts values whose bit length is
/// `i` — i.e. value 0 lands in bucket 0, and bucket `i ≥ 1` spans
/// `[2^(i-1), 2^i)`; the last bucket absorbs everything above.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn bucket_index(value: u64) -> usize {
        ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Consistent-enough copy for reporting (relaxed reads).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                let upper = if i == 0 { 0 } else { 1u64 << i.min(63) };
                buckets.push((upper, n));
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(exclusive upper bound, count)` for each non-empty bucket; bound 0
    /// is the zero bucket, otherwise the bound is a power of two.
    pub buckets: Vec<(u64, u64)>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate `q ∈ (0, 1]`: the exclusive upper bound of the
    /// bucket holding the observation of rank `⌈q·count⌉`. With
    /// power-of-two buckets the estimate is conservative — the true value
    /// is `< quantile(q)` and `≥ quantile(q)/2` (or exactly 0 for the zero
    /// bucket). Returns 0 with no observations.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return upper;
            }
        }
        self.buckets.last().map_or(0, |b| b.0)
    }

    /// Median estimate (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.9)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

/// A sorted `(key, value)` label set identifying one series of a labeled
/// instrument. Kept sorted by key so the same logical labels always map to
/// the same series regardless of argument order at the call site.
pub type LabelSet = Vec<(String, String)>;

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

/// One series of a counter or histogram: the instrument's name plus its
/// label set (empty for an unlabeled instrument).
type SeriesKey = (&'static str, LabelSet);

/// Looks `name{labels}` up. The map's `&'static str` keys are read at the
/// caller's shorter lifetime (a shared `BTreeMap` is covariant in its key),
/// so a non-static `name` can be the probe.
fn series<'a, V>(
    map: &'a BTreeMap<(&'a str, LabelSet), V>,
    name: &'a str,
    labels: &[(&str, &str)],
) -> Option<&'a V> {
    map.get(&(name, label_set(labels)))
}

/// Lazily-registered named instruments.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Mutex<BTreeMap<SeriesKey, Arc<AtomicU64>>>,
    maxes: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<SeriesKey, Arc<Histogram>>>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `n` to the counter `name`, creating it at zero first if needed.
    pub fn add(&self, name: &'static str, n: u64) {
        self.add_labeled(name, &[], n);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.labeled_counter(name, &[])
    }

    /// Raise the max-gauge `name` to at least `value`.
    pub fn record_max(&self, name: &'static str, value: u64) {
        self.maxes
            .lock()
            .unwrap()
            .entry(name)
            .or_default()
            .fetch_max(value, Ordering::Relaxed);
    }

    /// Current value of max-gauge `name` (0 if never touched).
    pub fn max(&self, name: &str) -> u64 {
        self.maxes
            .lock()
            .unwrap()
            .get(name)
            .map_or(0, |m| m.load(Ordering::Relaxed))
    }

    /// Record `value` into the histogram `name`.
    pub fn observe(&self, name: &'static str, value: u64) {
        self.observe_labeled(name, &[], value);
    }

    /// Snapshot of histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.labeled_histogram(name, &[])
    }

    /// Add `n` to the counter series `name{labels}`. Label order at the
    /// call site does not matter — sets are sorted by key.
    pub fn add_labeled(&self, name: &'static str, labels: &[(&str, &str)], n: u64) {
        let key = (name, label_set(labels));
        let handle = Arc::clone(self.counters.lock().unwrap().entry(key).or_default());
        handle.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of the counter series (0 if never touched).
    pub fn labeled_counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        series(&self.counters.lock().unwrap(), name, labels)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Record `value` into the histogram series `name{labels}`.
    pub fn observe_labeled(&self, name: &'static str, labels: &[(&str, &str)], value: u64) {
        let key = (name, label_set(labels));
        let handle = Arc::clone(self.histograms.lock().unwrap().entry(key).or_default());
        handle.observe(value);
    }

    /// Snapshot of the histogram series, if it exists.
    pub fn labeled_histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSnapshot> {
        series(&self.histograms.lock().unwrap(), name, labels).map(|h| h.snapshot())
    }

    /// Snapshot every instrument for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            maxes: self
                .maxes
                .lock()
                .unwrap()
                .iter()
                .map(|(&k, v)| (k, v.load(Ordering::Relaxed)))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of every instrument in a [`Metrics`] registry, in the
/// registry's shape: counter and histogram series keyed by `(name,
/// labels)`, the empty label set being the unlabeled instrument.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<(&'static str, LabelSet), u64>,
    pub maxes: BTreeMap<&'static str, u64>,
    pub histograms: BTreeMap<(&'static str, LabelSet), HistogramSnapshot>,
}

/// Render a label set as `{k=v,k2=v2}`, or the empty string when empty.
pub fn fmt_labels(labels: &LabelSet) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let series = |(name, labels): &(&str, LabelSet)| format!("{name}{}", fmt_labels(labels));
        let width = (self.counters.keys().map(series))
            .chain(self.maxes.keys().map(|name| name.to_string()))
            .chain(self.histograms.keys().map(series))
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        for (key, v) in &self.counters {
            writeln!(f, "{:<width$}  {v}", series(key))?;
        }
        for (name, v) in &self.maxes {
            writeln!(f, "{name:<width$}  max {v}")?;
        }
        for (key, h) in &self.histograms {
            writeln!(
                f,
                "{:<width$}  n={} mean={:.1} p50<={} p99<={}",
                series(key),
                h.count,
                h.mean(),
                h.p50(),
                h.p99(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `pub const` in the `names` module must be listed in
    /// [`names::ALL`], or the exposition lint silently stops covering it.
    /// Parses this very file, so adding a constant without registering it
    /// fails the build.
    #[test]
    fn every_name_constant_is_in_all() {
        let src = include_str!("metrics.rs");
        let mut declared = Vec::new();
        for line in src.lines() {
            let t = line.trim();
            if t == "pub const ALL: &[&str] = &[" {
                break; // constants below feed ALL itself
            }
            if let Some(rest) = t.strip_prefix("pub const ") {
                if let Some((_, value)) = rest.split_once("&str = \"") {
                    if let Some(name) = value.strip_suffix("\";") {
                        declared.push(name);
                    }
                }
            }
        }
        assert!(
            declared.len() >= 50,
            "name-constant scan looks broken: {declared:?}"
        );
        for name in &declared {
            assert!(
                names::ALL.contains(name),
                "names::{name:?} is declared but missing from names::ALL — \
                 the exposition lint will not cover it"
            );
        }
        assert_eq!(
            declared.len(),
            names::ALL.len(),
            "names::ALL lists a metric with no declared constant"
        );
    }

    #[test]
    fn counters_and_maxes() {
        let m = Metrics::new();
        m.add("a", 2);
        m.add("a", 3);
        m.record_max("p", 4);
        m.record_max("p", 2);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.max("p"), 4);
        let snap = m.snapshot();
        assert_eq!(snap.counters.get(&("a", Vec::new())), Some(&5));
        assert_eq!(snap.maxes.get("p"), Some(&4));
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let m = Metrics::new();
        for v in [0, 1, 1, 3, 900, 1_000_000] {
            m.observe("lat", v);
        }
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1_000_905);
        // value 0 → bucket bound 0; 1 → 2; 3 → 4; 900 → 1024; 1e6 → 2^20.
        assert_eq!(
            h.buckets,
            vec![(0, 1), (2, 2), (4, 1), (1024, 1), (1 << 20, 1)]
        );
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn quantile_empty_histogram_is_zero() {
        let h = HistogramSnapshot::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn quantile_single_sample_hits_its_bucket_at_every_quantile() {
        let m = Metrics::new();
        m.observe("h", 900); // bucket [512, 1024)
        let h = m.histogram("h").unwrap();
        for q in [0.001, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 1024, "q={q}");
        }
    }

    #[test]
    fn quantile_exact_power_of_two_lands_in_next_bucket() {
        let m = Metrics::new();
        // An exact boundary value 2^k belongs to [2^k, 2^(k+1)), so its
        // reported bound is 2^(k+1), while 2^k - 1 reports 2^k.
        m.observe("h", 1024);
        assert_eq!(m.histogram("h").unwrap().p50(), 2048);
        let m2 = Metrics::new();
        m2.observe("h", 1023);
        assert_eq!(m2.histogram("h").unwrap().p50(), 1024);
    }

    #[test]
    fn quantile_rank_selection_across_buckets() {
        let m = Metrics::new();
        // 90 small values in [1,2), 9 in [512,1024), 1 in [2^19, 2^20).
        for _ in 0..90 {
            m.observe("lat", 1);
        }
        for _ in 0..9 {
            m.observe("lat", 600);
        }
        m.observe("lat", 1 << 19);
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count, 100);
        assert_eq!(h.p50(), 2); // rank 50 of 100 → first bucket
        assert_eq!(h.p90(), 2); // rank 90 still inside the first bucket
        assert_eq!(h.quantile(0.91), 1024); // rank 91 → second bucket
        assert_eq!(h.p99(), 1024); // rank 99 → second bucket
        assert_eq!(h.quantile(1.0), 1 << 20); // rank 100 → last bucket
        assert_eq!(h.p999(), 1 << 20); // rank ⌈99.9⌉ = 100
    }

    #[test]
    fn quantile_zero_bucket_reports_zero() {
        let m = Metrics::new();
        for _ in 0..10 {
            m.observe("z", 0);
        }
        let h = m.histogram("z").unwrap();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn quantile_saturated_top_bucket() {
        let m = Metrics::new();
        // Anything with bit length ≥ 31 saturates the last bucket, whose
        // reported bound is 2^31.
        m.observe("big", u64::MAX);
        m.observe("big", 1u64 << 40);
        m.observe("big", (1u64 << 31) - 1); // exactly the last bucket's span
        let h = m.histogram("big").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets, vec![(1u64 << 31, 3)]);
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(h.quantile(q), 1u64 << 31, "q={q}");
        }
        // The sum still carries the true total even though the buckets
        // saturate.
        assert_eq!(h.sum, u64::MAX.wrapping_add((1 << 40) + ((1 << 31) - 1)));
    }

    #[test]
    fn labeled_counters_are_per_series_and_order_insensitive() {
        let m = Metrics::new();
        m.add_labeled("jobs", &[("tenant", "a"), ("state", "ok")], 2);
        m.add_labeled("jobs", &[("state", "ok"), ("tenant", "a")], 3);
        m.add_labeled("jobs", &[("tenant", "b"), ("state", "ok")], 7);
        assert_eq!(
            m.labeled_counter("jobs", &[("tenant", "a"), ("state", "ok")]),
            5
        );
        assert_eq!(
            m.labeled_counter("jobs", &[("tenant", "b"), ("state", "ok")]),
            7
        );
        assert_eq!(
            m.labeled_counter("jobs", &[("tenant", "c"), ("state", "ok")]),
            0
        );
        let snap = m.snapshot();
        assert_eq!(snap.counters.len(), 2);
    }

    #[test]
    fn an_unlabeled_instrument_is_the_series_with_no_labels() {
        let m = Metrics::new();
        m.add("jobs", 2);
        m.add_labeled("jobs", &[], 3);
        m.observe("lat", 7);
        m.observe_labeled("lat", &[], 9);
        assert_eq!(m.counter("jobs"), 5);
        assert_eq!(m.labeled_counter("jobs", &[]), 5);
        assert_eq!(m.histogram("lat").unwrap().count, 2);
        let snap = m.snapshot();
        assert_eq!(snap.counters.len(), 1, "{snap:?}");
        assert_eq!(snap.histograms.len(), 1, "{snap:?}");
    }

    #[test]
    fn labeled_histograms_snapshot_with_quantiles() {
        let m = Metrics::new();
        for v in [10, 20, 3000] {
            m.observe_labeled("lat", &[("tenant", "a")], v);
        }
        m.observe_labeled("lat", &[("tenant", "b")], 1);
        let a = m.labeled_histogram("lat", &[("tenant", "a")]).unwrap();
        assert_eq!(a.count, 3);
        assert_eq!(a.p99(), 4096);
        let b = m.labeled_histogram("lat", &[("tenant", "b")]).unwrap();
        assert_eq!(b.count, 1);
        assert!(m.labeled_histogram("lat", &[("tenant", "z")]).is_none());
    }
}
