//! Property tests of backend auto-selection: randomly generated circuits in
//! a restricted gate set must route to the cheap simulator for that set, and
//! the cheap simulator must agree with the exact state-vector reference.

use proptest::prelude::*;
use quipper::{Circ, Qubit};
use quipper_circuit::BCircuit;
use quipper_exec::{Engine, Job, OptLevel};

/// Routing is asserted on the circuit *as written*, so the optimizer is
/// pinned off: at the default level a random Clifford sequence whose first
/// op is H(0) cancels the leading Hadamard, and the survivor can legally
/// route to the cheaper classical backend.
fn as_written(bc: &BCircuit) -> Job<'_> {
    Job::new(bc).opt(OptLevel::Off)
}

const QUBITS: usize = 3;

/// One random Clifford instruction on a 3-qubit register.
#[derive(Clone, Copy, Debug)]
enum CliffordOp {
    H(usize),
    S(usize),
    X(usize),
    Z(usize),
    Cnot(usize, usize),
    Swap(usize, usize),
}

fn clifford_op() -> impl Strategy<Value = CliffordOp> {
    prop_oneof![
        (0..QUBITS).prop_map(CliffordOp::H),
        (0..QUBITS).prop_map(CliffordOp::S),
        (0..QUBITS).prop_map(CliffordOp::X),
        (0..QUBITS).prop_map(CliffordOp::Z),
        (0..QUBITS, 0..QUBITS).prop_map(|(a, b)| CliffordOp::Cnot(a, b)),
        (0..QUBITS, 0..QUBITS).prop_map(|(a, b)| CliffordOp::Swap(a, b)),
    ]
}

/// Builds the circuit: |0…0⟩, a leading Hadamard (so the circuit is
/// genuinely quantum and cannot route to the classical backend), the op
/// sequence, measure everything. Two-qubit ops with coinciding wires are
/// skipped.
fn clifford_circuit(ops: &[CliffordOp]) -> BCircuit {
    let mut c = Circ::new();
    let qs: Vec<Qubit> = (0..QUBITS).map(|_| c.qinit_bit(false)).collect();
    c.hadamard(qs[0]);
    for &op in ops {
        match op {
            CliffordOp::H(a) => c.hadamard(qs[a]),
            CliffordOp::S(a) => c.gate_s(qs[a]),
            CliffordOp::X(a) => c.qnot(qs[a]),
            CliffordOp::Z(a) => c.gate_z(qs[a]),
            CliffordOp::Cnot(a, b) if a != b => c.cnot(qs[a], qs[b]),
            CliffordOp::Swap(a, b) if a != b => c.swap(qs[a], qs[b]),
            CliffordOp::Cnot(..) | CliffordOp::Swap(..) => {}
        }
    }
    let ms: Vec<_> = qs.into_iter().map(|q| c.measure_bit(q)).collect();
    c.finish(&ms)
}

/// A random classical (basis-permutation) instruction.
#[derive(Clone, Copy, Debug)]
enum ClassicalOp {
    X(usize),
    Cnot(usize, usize),
    Toffoli(usize, usize, usize),
}

fn classical_op() -> impl Strategy<Value = ClassicalOp> {
    prop_oneof![
        (0..QUBITS).prop_map(ClassicalOp::X),
        (0..QUBITS, 0..QUBITS).prop_map(|(a, b)| ClassicalOp::Cnot(a, b)),
        (0..QUBITS, 0..QUBITS, 0..QUBITS).prop_map(|(a, b, d)| ClassicalOp::Toffoli(a, b, d)),
    ]
}

fn classical_circuit(ops: &[ClassicalOp]) -> BCircuit {
    let mut c = Circ::new();
    let qs: Vec<Qubit> = (0..QUBITS).map(|_| c.qinit_bit(false)).collect();
    for &op in ops {
        match op {
            ClassicalOp::X(a) => c.qnot(qs[a]),
            ClassicalOp::Cnot(a, b) if a != b => c.cnot(qs[a], qs[b]),
            ClassicalOp::Toffoli(t, a, b) if t != a && t != b && a != b => {
                c.toffoli(qs[t], qs[a], qs[b]);
            }
            ClassicalOp::Cnot(..) | ClassicalOp::Toffoli(..) => {}
        }
    }
    let ms: Vec<_> = qs.into_iter().map(|q| c.measure_bit(q)).collect();
    c.finish(&ms)
}

/// The exact state-vector simulator's histogram over `shots` seeded shots,
/// shot `i` under seed `seed + i`: the reference the cheap backends are
/// checked against.
fn statevec_histogram(bc: &BCircuit, shots: u64, seed: u64) -> Vec<(Vec<bool>, u64)> {
    let mut histogram: Vec<(Vec<bool>, u64)> = Vec::new();
    for shot in 0..shots {
        let bits = quipper_sim::run(bc, &[], seed + shot)
            .unwrap()
            .classical_outputs();
        match histogram.iter_mut().find(|(b, _)| *b == bits) {
            Some(entry) => entry.1 += 1,
            None => histogram.push((bits, 1)),
        }
    }
    histogram
}

/// Normalized histogram distance: ½ Σ |p₁(x) − p₂(x)| ∈ [0, 1].
fn total_variation(a: &[(Vec<bool>, u64)], b: &[(Vec<bool>, u64)]) -> f64 {
    let total_a: u64 = a.iter().map(|&(_, n)| n).sum();
    let total_b: u64 = b.iter().map(|&(_, n)| n).sum();
    let mut patterns: Vec<&Vec<bool>> = a.iter().chain(b).map(|(p, _)| p).collect();
    patterns.sort();
    patterns.dedup();
    let freq = |hist: &[(Vec<bool>, u64)], p: &Vec<bool>, total: u64| {
        hist.iter()
            .find(|(q, _)| q == p)
            .map_or(0.0, |&(_, n)| n as f64 / total as f64)
    };
    patterns
        .iter()
        .map(|p| (freq(a, p, total_a) - freq(b, p, total_b)).abs())
        .sum::<f64>()
        / 2.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any Clifford-only circuit routes to the stabilizer backend, and the
    /// stabilizer's sampled measurement distribution agrees with the exact
    /// state-vector simulation of the same circuit.
    #[test]
    fn clifford_circuits_route_to_stabilizer_and_match_statevec(
        ops in proptest::collection::vec(clifford_op(), 0..14)
    ) {
        let bc = clifford_circuit(&ops);
        let engine = Engine::new();

        // Clifford outcome probabilities are multiples of 2^-k, so modest
        // shot counts resolve the distribution well; the threshold leaves
        // ample sampling slack (the whole test is seeded/deterministic).
        let shots = 1024;
        let auto = engine.run(&as_written(&bc).shots(shots).seed(101)).unwrap();
        prop_assert_eq!(auto.report.backend, "stabilizer");
        let exact = statevec_histogram(&bc, shots, 2020);
        let tv = total_variation(&auto.histogram, &exact);
        prop_assert!(tv < 0.15, "distributions diverge: tv = {} for {:?}", tv, ops);
    }

    /// Any classical-only circuit routes to the bit-per-wire backend and is
    /// deterministic: its single outcome equals the state-vector result.
    #[test]
    fn classical_circuits_route_to_classical_and_match_statevec(
        ops in proptest::collection::vec(classical_op(), 0..20)
    ) {
        let bc = classical_circuit(&ops);
        let engine = Engine::new();

        let auto = engine.run(&as_written(&bc).shots(5).seed(3)).unwrap();
        prop_assert_eq!(auto.report.backend, "classical");
        prop_assert_eq!(auto.histogram.len(), 1, "basis permutations are deterministic");
        let exact = statevec_histogram(&bc, 1, 0);
        prop_assert_eq!(
            auto.histogram.first().map(|(p, _)| p),
            exact.first().map(|(p, _)| p)
        );
    }
}
