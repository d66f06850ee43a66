//! The state-vector simulator against its oracle. Two sides run on each
//! workload:
//!
//! * `reference` — the full-scan oracle
//!   (`quipper_sim::reference::run_flat_reference`);
//! * `kernels` — the production path: 1q fusion, cache-blocked gate
//!   windows, SIMD complex arithmetic, swap relabeling. It is the only
//!   path; the ablation of its parts against the PR 2 kernels is history,
//!   recorded in EXPERIMENTS.md A5.
//!
//! Workloads:
//!
//! * `mixed` — a wide mixed-gate circuit (fusible 1q runs, a CNOT ring,
//!   Toffolis, QFT-style rotations), the acceptance workload, plus a
//!   24-qubit tier (`mixed24`, full mode only) where the state no longer
//!   fits in L2 and blocking is what keeps it fed;
//! * `grover` — the Grover search circuit over an 8-bit oracle;
//! * `qft_add` — the Fourier-basis adder from `quipper-arith` (`add_tf`),
//!   whose controlled rotations exercise the diagonal sub-cube kernel.
//!
//! Custom harness (no criterion): each side is timed as the minimum of a few
//! full runs, which is the right statistic for a before/after ratio. Env
//! knobs:
//!
//! * `BENCH_QUICK=1` — small widths, fewer iterations, and hard asserts
//!   that the kernel path beats the scan path on the mixed workload and
//!   that disabled tracing costs under 2 % (the CI smoke);
//! * `BENCH_STATEVEC_WRITE=1` — rewrite `BENCH_statevec.json` at the repo
//!   root with the measured numbers, the host's cores and the kernel thread
//!   count (`StateVecConfig::default().threads`) they were taken with.

use std::time::{Duration, Instant};

use quipper::classical::Dag;
use quipper::{Circ, Qubit};
use quipper_algorithms::grover::grover_circuit;
use quipper_arith::qinttf::add_tf;
use quipper_arith::{IntTF, QIntTF};
use quipper_circuit::count::max_alive;
use quipper_circuit::flatten::inline_all;
use quipper_circuit::{BCircuit, Circuit};
use quipper_sim::reference::run_flat_reference;
use quipper_sim::statevec::{run_flat_with, StateVecConfig};
use quipper_sim::KernelStats;
use quipper_trace::JsonWriter;

/// The mixed-gate workload: per layer, an H·T run on every wire (fusible),
/// a CNOT ring, a Toffoli ladder, and R(2π/2ᵏ) rotations.
fn mixed(n: usize, layers: usize) -> BCircuit {
    Circ::build(&vec![false; n], |c, qs: Vec<Qubit>| {
        for l in 0..layers {
            for &q in &qs {
                c.hadamard(q);
                c.gate_t(q);
            }
            for i in 0..n - 1 {
                c.cnot(qs[(i + l) % n], qs[(i + l + 1) % n]);
            }
            for i in (0..n - 2).step_by(3) {
                c.toffoli(qs[i], qs[i + 1], qs[i + 2]);
            }
            for (k, &q) in qs.iter().enumerate().step_by(4) {
                c.rgate((k % 5 + 1) as u32, q);
            }
        }
        qs
    })
}

/// The out-of-place Fourier-representation adder from `quipper-arith`
/// (`o7_ADD`): |a⟩|b⟩ → |a⟩|b⟩|a+b⟩ with every carry ancilla uncomputed.
fn qft_add(width: usize) -> BCircuit {
    Circ::build(
        &(IntTF::new(3, width), IntTF::new(5, width)),
        |c, (a, b): (QIntTF, QIntTF)| {
            let sum = add_tf(c, &a, &b);
            (a, b, sum)
        },
    )
}

struct Measurement {
    name: &'static str,
    qubits: usize,
    gates: usize,
    /// Full-scan baseline; `None` on tiers too slow to scan (mixed24).
    reference: Option<Duration>,
    kernels: Duration,
    stats: KernelStats,
}

impl Measurement {
    fn speedup_vs_reference(&self) -> Option<f64> {
        self.reference
            .map(|r| r.as_secs_f64() / self.kernels.as_secs_f64())
    }

    /// Gates executed per second on the kernel path.
    fn gate_rate(&self) -> f64 {
        self.gates as f64 / self.kernels.as_secs_f64()
    }

    /// Kernel dispatches per second for one class count.
    fn class_rate(&self, dispatches: u64) -> f64 {
        dispatches as f64 / self.kernels.as_secs_f64()
    }
}

/// Minimum wall time of `iters` full runs of `f`.
fn time(iters: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .unwrap()
}

fn measure(
    name: &'static str,
    bc: &BCircuit,
    inputs: &[bool],
    iters: usize,
    with_reference: bool,
) -> Measurement {
    let flat: Circuit = inline_all(&bc.db, &bc.main).unwrap();
    let gates = flat.gates.len();
    let qubits = max_alive(&bc.db, &bc.main).quantum as usize;
    // Prime the allocator and page state at this width before timing
    // anything, so the first config measured is not charged for fresh-page
    // faults the later ones avoid.
    run_flat_with(&flat, inputs, 1, StateVecConfig::default()).unwrap();
    let reference = with_reference.then(|| {
        time(iters, || {
            run_flat_reference(&flat, inputs, 1).unwrap();
        })
    });
    let cfg = StateVecConfig::default();
    let kernels = time(iters, || {
        run_flat_with(&flat, inputs, 1, cfg).unwrap();
    });
    let stats = run_flat_with(&flat, inputs, 1, cfg)
        .unwrap()
        .state
        .kernel_stats();
    Measurement {
        name,
        qubits,
        gates,
        reference,
        kernels,
        stats,
    }
}

/// CI smoke for the observability layer: the *disabled* tracing path must be
/// a single relaxed atomic load, cheap enough that even one gated call per
/// gate of the 20-qubit mixed workload would cost under 2% of the kernel
/// baseline recorded in `BENCH_statevec.json`. Measured as a per-call
/// microbenchmark × a gate-count bound rather than end-to-end, so the check
/// is insensitive to host speed (both sides scale together) and to
/// run-to-run noise far below 2%.
fn tracing_overhead_smoke() {
    use quipper_trace::{names, Phase};

    // Per-call cost of the disabled fast path: one gated span attempt plus
    // one gated counter bump — the two shapes instrumented on hot paths.
    let tracer = quipper_trace::tracer();
    assert!(!tracer.enabled(), "smoke expects tracing disabled");
    let calls: u64 = 2_000_000;
    let start = Instant::now();
    for _ in 0..calls {
        let span = quipper_trace::span(Phase::Execute, "bench.overhead");
        assert!(span.is_none());
        quipper_trace::count(names::KERNEL_GENERAL, 1);
    }
    let ns_per_call = start.elapsed().as_secs_f64() * 1e9 / calls as f64;

    // The recorded baseline for the full-size mixed workload, read back with
    // the trace crate's own JSON parser.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_statevec.json");
    let baseline = std::fs::read_to_string(path).expect("BENCH_statevec.json present");
    let doc = quipper_trace::parse_json(&baseline).expect("baseline parses");
    let mixed_baseline = doc
        .get("benches")
        .and_then(|b| b.as_arr())
        .into_iter()
        .flatten()
        .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("mixed"))
        .expect("mixed entry in baseline");
    let baseline_ms = mixed_baseline
        .get("kernels_ms")
        .and_then(|v| v.as_num())
        .expect("kernels_ms in baseline");
    let baseline_gates = mixed_baseline
        .get("gates")
        .and_then(|v| v.as_num())
        .expect("gates in baseline");

    // Generous bound: as if every gate of the workload hit a gated call site
    // (the real run path has a handful per *run*, not per gate).
    let overhead_ms = baseline_gates * ns_per_call / 1e6;
    let pct = 100.0 * overhead_ms / baseline_ms;
    assert!(
        pct < 2.0,
        "disabled-tracing overhead bound {pct:.3}% of the {baseline_ms}ms mixed \
         baseline exceeds the 2% budget ({ns_per_call:.1}ns per gated call)"
    );
    println!(
        "tracing-overhead smoke passed: {ns_per_call:.1}ns per disabled call, \
         bounded at {pct:.3}% of the mixed kernel baseline"
    );
}

fn fmt_opt_ms(d: Option<Duration>) -> String {
    match d {
        Some(d) => format!("{:.3?}", d),
        None => "-".into(),
    }
}

fn main() {
    let env_on = |k: &str| std::env::var(k).is_ok_and(|v| v != "0" && !v.is_empty());
    let quick = env_on("BENCH_QUICK");
    // The adder's carry ancillas make its peak width ~5x the operand width,
    // so `add_width` stays small: 3 digits already peaks at 18 live qubits.
    let (mixed_n, mixed_layers, grover_bits, add_width, iters) = if quick {
        (14, 2, 5, 2, 3)
    } else {
        (20, 3, 8, 3, 3)
    };

    let mut results = Vec::new();

    let bc = mixed(mixed_n, mixed_layers);
    results.push(measure("mixed", &bc, &vec![false; mixed_n], iters, true));

    let dag = Dag::build(grover_bits, |_, xs| {
        let mut term = xs[0].clone();
        for x in &xs[1..] {
            term = term & x.clone();
        }
        vec![term]
    });
    let grover = grover_circuit(&dag, 2);
    results.push(measure("grover", &grover, &[], iters, true));

    let bc = qft_add(add_width);
    results.push(measure(
        "qft_add",
        &bc,
        &vec![false; 2 * add_width],
        iters,
        true,
    ));

    if !quick {
        // The 24-qubit tier: a 256 MiB state, far past L2, where the
        // blocked sweep earns its keep. The full scan would dominate the
        // bench's runtime for a number nobody reads, so it is skipped.
        let bc = mixed(24, 2);
        results.push(measure("mixed24", &bc, &[false; 24], 2, false));
    }

    println!(
        "{:>8}  {:>6}  {:>6}  {:>12}  {:>12}  {:>9}  {:>12}",
        "bench", "qubits", "gates", "reference", "kernels", "vs scan", "gates/s"
    );
    for m in &results {
        let vs_scan = m
            .speedup_vs_reference()
            .map_or("-".into(), |s| format!("{s:.2}x"));
        println!(
            "{:>8}  {:>6}  {:>6}  {:>12}  {:>12.3?}  {:>9}  {:>12.0}",
            m.name,
            m.qubits,
            m.gates,
            fmt_opt_ms(m.reference),
            m.kernels,
            vs_scan,
            m.gate_rate()
        );
    }

    if quick {
        // CI smoke: the kernel path must beat the scan path even on the
        // small state (the margin widens with width).
        let vs_scan = results[0].speedup_vs_reference().unwrap();
        assert!(
            vs_scan > 1.2,
            "kernel path regressed: {vs_scan:.2}x vs scan on the mixed workload"
        );
        println!("quick-mode smoke check passed ({vs_scan:.2}x vs scan on mixed)");
        tracing_overhead_smoke();
    }

    if env_on("BENCH_STATEVEC_WRITE") {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_statevec.json");
        let mut w = JsonWriter::new();
        w.begin_object()
            .newline()
            .key("bench")
            .string("statevec_kernels");
        w.newline()
            .key("mode")
            .string(if quick { "quick" } else { "full" });
        w.newline().key("machine").begin_object();
        w.key("cores")
            .int(std::thread::available_parallelism().map_or(0, usize::from));
        w.key("threads").int(StateVecConfig::default().threads);
        w.key("simd").string(quipper_sim::simd::feature_name());
        w.end_object();
        w.newline().key("benches").begin_array();
        for m in &results {
            w.newline().begin_object().key("name").string(m.name);
            w.key("qubits").int(m.qubits);
            w.key("gates").int(m.gates);
            if let (Some(r), Some(s)) = (m.reference, m.speedup_vs_reference()) {
                w.key("reference_ms").float(r.as_secs_f64() * 1e3, Some(3));
                w.key("speedup").float(s, Some(2));
            }
            w.key("kernels_ms")
                .float(m.kernels.as_secs_f64() * 1e3, Some(3));
            w.key("kernel_gate_rate_per_s")
                .float(m.gate_rate(), Some(0));
            w.newline().key("class_dispatches").begin_object();
            w.key("diagonal").int(m.stats.diagonal);
            w.key("permutation").int(m.stats.permutation);
            w.key("general").int(m.stats.general);
            w.key("windows").int(m.stats.windows);
            w.key("windowed").int(m.stats.windowed);
            w.end_object();
            w.newline().key("class_rates_per_s").begin_object();
            w.key("diagonal")
                .float(m.class_rate(m.stats.diagonal), Some(0));
            w.key("permutation")
                .float(m.class_rate(m.stats.permutation), Some(0));
            w.key("general")
                .float(m.class_rate(m.stats.general), Some(0));
            w.end_object().end_object();
        }
        w.newline().end_array().newline().end_object().newline();
        std::fs::write(path, w.finish()).unwrap();
        println!("wrote BENCH_statevec.json");
    }
}
