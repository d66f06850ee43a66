//! Tracing must be a pure observer: enabling the global tracer may not
//! perturb a single measurement outcome or amplitude, including on the
//! threaded kernel path where spans are recorded from scoped worker threads.
//!
//! This binary intentionally holds exactly one test: it toggles the
//! process-wide tracer, and a sibling test running in parallel would race on
//! that global state.

use proptest::prelude::*;
use quipper::{Circ, Qubit};
use quipper_circuit::flatten::inline_all;
use quipper_circuit::BCircuit;
use quipper_exec::{Engine, EngineConfig, Job};
use quipper_sim::{run_flat_with, StateVecConfig};

const QUBITS: usize = 3;

/// A random instruction drawn from a universal gate set, so the generated
/// circuits are neither classical-only nor Clifford-only and route to the
/// state-vector backend — the one with threaded kernels and fusion.
#[derive(Clone, Copy, Debug)]
enum UniversalOp {
    H(usize),
    T(usize),
    S(usize),
    X(usize),
    Cnot(usize, usize),
}

fn universal_op() -> impl Strategy<Value = UniversalOp> {
    prop_oneof![
        (0..QUBITS).prop_map(UniversalOp::H),
        (0..QUBITS).prop_map(UniversalOp::T),
        (0..QUBITS).prop_map(UniversalOp::S),
        (0..QUBITS).prop_map(UniversalOp::X),
        (0..QUBITS, 0..QUBITS).prop_map(|(a, b)| UniversalOp::Cnot(a, b)),
    ]
}

fn universal_circuit(ops: &[UniversalOp]) -> BCircuit {
    let mut c = Circ::new();
    let qs: Vec<Qubit> = (0..QUBITS).map(|_| c.qinit_bit(false)).collect();
    // An H·T·H sandwich pins a non-Clifford gate that no optimizer pass can
    // remove (the T sits alone in its phase region and an opaque H separates
    // it from the measurements), so the plan always routes to statevec.
    c.hadamard(qs[0]);
    c.gate_t(qs[0]);
    c.hadamard(qs[0]);
    for &op in ops {
        match op {
            UniversalOp::H(a) => c.hadamard(qs[a]),
            UniversalOp::T(a) => c.gate_t(qs[a]),
            UniversalOp::S(a) => c.gate_s(qs[a]),
            UniversalOp::X(a) => c.qnot(qs[a]),
            UniversalOp::Cnot(a, b) if a != b => c.cnot(qs[a], qs[b]),
            UniversalOp::Cnot(..) => {}
        }
    }
    let ms: Vec<_> = qs.into_iter().map(|q| c.measure_bit(q)).collect();
    c.finish(&ms)
}

/// Engine tuned to force the threaded kernel path even for tiny states and
/// on a single-core host: an explicit thread count, zero parallel
/// threshold.
fn threaded_engine() -> Engine {
    Engine::with_config(EngineConfig {
        statevec: StateVecConfig {
            threads: 4,
            parallel_threshold: 0,
            ..StateVecConfig::default()
        },
        ..EngineConfig::default()
    })
}

fn run_histogram(bc: &BCircuit, seed: u64) -> (Vec<(Vec<bool>, u64)>, &'static str) {
    let result = threaded_engine()
        .run(&Job::new(bc).shots(64).seed(seed))
        .unwrap();
    (result.histogram, result.report.backend)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tracing_on_and_off_produce_identical_results(
        ops in proptest::collection::vec(universal_op(), 0..16),
        seed in 0u64..1_000,
    ) {
        let tracer = quipper_trace::tracer();
        prop_assert!(!tracer.enabled(), "tracer must start disabled");

        let bc = universal_circuit(&ops);
        let flat = inline_all(&bc.db, &bc.main).unwrap();
        let threaded = StateVecConfig {
            threads: 4,
            parallel_threshold: 0,
            ..StateVecConfig::default()
        };

        // Baseline with tracing disabled.
        let (hist_off, backend_off) = run_histogram(&bc, seed);
        let amps_off = run_flat_with(&flat, &[], seed, threaded).unwrap();

        // Same circuit, same seeds, tracer enabled and recording.
        tracer.set_enabled(true);
        let (hist_on, backend_on) = run_histogram(&bc, seed);
        let amps_on = run_flat_with(&flat, &[], seed, threaded).unwrap();
        let (recorded_before, _) = tracer.counts();
        threaded_engine()
            .run(&Job::new(&bc).shots(4).seed(seed))
            .unwrap();
        let (recorded_after, _) = tracer.counts();
        tracer.set_enabled(false);
        let log = tracer.drain();

        prop_assert_eq!(backend_off, "statevec", "universal circuits exercise the kernels");
        prop_assert_eq!(backend_off, backend_on);
        prop_assert_eq!(hist_off, hist_on, "histograms diverge under tracing");
        prop_assert_eq!(
            amps_off.state.amplitudes(),
            amps_on.state.amplitudes(),
            "amplitudes diverge under tracing on the threaded path"
        );
        prop_assert_eq!(amps_off.classical_outputs(), amps_on.classical_outputs());

        // The traced runs actually recorded work, the engine job included.
        prop_assert!(!log.events.is_empty(), "enabled run recorded no events");
        prop_assert!(recorded_after > recorded_before, "traced engine job recorded no events");
    }
}
