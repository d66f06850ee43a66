//! Property tests of the lint passes.
//!
//! Two invariants:
//!
//! 1. **Soundness of the termination pass**: a generated circuit whose
//!    assertions are satisfied on every run (guaranteed by construction and
//!    double-checked against the state-vector simulator) is never flagged
//!    `QL001` — the pass may fail to *prove* an assertion (`QL002`), but it
//!    must never claim a satisfied assertion is provably violated.
//! 2. **Reversal is an involution for the analysis**: `reverse(reverse(c))`
//!    produces the identical lint report as `c`.

use proptest::prelude::*;
use quipper::{Circ, Qubit};
use quipper_circuit::reverse::reverse_circuit;
use quipper_circuit::BCircuit;
use quipper_lint::lint;

const QUBITS: usize = 4;

/// One self-inverse instruction, so a sequence is uncomputed by replaying it
/// in reverse order.
#[derive(Clone, Copy, Debug)]
enum Op {
    H(usize),
    X(usize),
    Z(usize),
    Cnot(usize, usize),
    Toffoli(usize, usize, usize),
    Swap(usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..QUBITS).prop_map(Op::H),
        (0..QUBITS).prop_map(Op::X),
        (0..QUBITS).prop_map(Op::Z),
        (0..QUBITS, 0..QUBITS).prop_map(|(a, b)| Op::Cnot(a, b)),
        (0..QUBITS, 0..QUBITS, 0..QUBITS).prop_map(|(t, a, b)| Op::Toffoli(t, a, b)),
        (0..QUBITS, 0..QUBITS).prop_map(|(a, b)| Op::Swap(a, b)),
    ]
}

fn apply(c: &mut Circ, qs: &[Qubit], op: Op) {
    match op {
        Op::H(a) => c.hadamard(qs[a]),
        Op::X(a) => c.qnot(qs[a]),
        Op::Z(a) => c.gate_z(qs[a]),
        Op::Cnot(a, b) if a != b => c.cnot(qs[a], qs[b]),
        Op::Toffoli(t, a, b) if t != a && t != b && a != b => c.toffoli(qs[t], qs[a], qs[b]),
        Op::Cnot(..) | Op::Toffoli(..) | Op::Swap(..) => {
            if let Op::Swap(a, b) = op {
                if a != b {
                    c.swap(qs[a], qs[b]);
                }
            }
        }
    }
}

/// Initializes each wire to a known value, runs `ops`, uncomputes by running
/// them in reverse (every op is self-inverse), and asserts every wire back to
/// its initial value. Every assertion is satisfied on every run by
/// construction.
fn sound_circuit(inits: &[bool], ops: &[Op]) -> BCircuit {
    let mut c = Circ::new();
    let qs: Vec<Qubit> = inits.iter().map(|&b| c.qinit_bit(b)).collect();
    for &op in ops {
        apply(&mut c, &qs, op);
    }
    for &op in ops.iter().rev() {
        apply(&mut c, &qs, op);
    }
    for (&q, &b) in qs.iter().zip(inits) {
        c.qterm_bit(b, q);
    }
    c.finish(&())
}

/// A compute-only circuit with no measurements or assertions, so it stays
/// reversible and `reverse_circuit` applies.
fn reversible_circuit(inits: &[bool], ops: &[Op]) -> BCircuit {
    Circ::build(&vec![false; 0], |c, _: Vec<Qubit>| {
        let qs: Vec<Qubit> = inits.iter().map(|&b| c.qinit_bit(b)).collect();
        for &op in ops {
            apply(c, &qs, op);
        }
        qs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compute-uncompute circuits satisfy their assertions on every run
    /// (checked against the state-vector simulator), so the termination pass
    /// must never escalate to `QL001` ("provably violated"), whatever mix of
    /// classical and superposing gates the sequence contains.
    #[test]
    fn satisfied_assertions_are_never_provably_violated(
        inits in proptest::collection::vec(any::<bool>(), QUBITS),
        ops in proptest::collection::vec(op(), 0..16),
        seed in any::<u64>(),
    ) {
        let bc = sound_circuit(&inits, &ops);
        // The simulator enforces assertive termination at run time: a
        // satisfied-by-construction circuit must execute cleanly.
        prop_assert!(quipper_sim::run(&bc, &[], seed).is_ok(), "circuit must simulate");

        let report = lint(&bc);
        for d in &report.findings {
            prop_assert_ne!(
                d.code, "QL001",
                "sound assertion reported as provably violated: {} (ops {:?})", d, ops
            );
        }
    }

    /// A purely classical compute-uncompute circuit is fully provable: every
    /// assertion is discharged and nothing is flagged.
    #[test]
    fn classical_compute_uncompute_is_proved_clean(
        inits in proptest::collection::vec(any::<bool>(), QUBITS),
        ops in proptest::collection::vec(
            prop_oneof![
                (0..QUBITS).prop_map(Op::X),
                (0..QUBITS, 0..QUBITS).prop_map(|(a, b)| Op::Cnot(a, b)),
                (0..QUBITS, 0..QUBITS, 0..QUBITS).prop_map(|(t, a, b)| Op::Toffoli(t, a, b)),
            ],
            0..16,
        ),
    ) {
        let bc = sound_circuit(&inits, &ops);
        let report = lint(&bc);
        // Compute/uncompute junctions pair up by design: the redundancy
        // (QL03x) and Pauli-flow (QL04x) findings about them are expected.
        let by_design = |code: &str| code.starts_with("QL03") || code.starts_with("QL04");
        prop_assert!(
            report.findings.iter().all(|d| by_design(d.code)),
            "unexpected findings: {report}"
        );
        prop_assert_eq!(report.proved_terms, QUBITS);
    }

    /// Reversing twice yields a circuit the analyzer cannot tell apart from
    /// the original: the full lint report (all passes) is identical.
    #[test]
    fn double_reversal_is_lint_identical(
        inits in proptest::collection::vec(any::<bool>(), QUBITS),
        ops in proptest::collection::vec(op(), 0..16),
    ) {
        let bc = reversible_circuit(&inits, &ops);
        let twice = BCircuit {
            db: bc.db.clone(),
            main: reverse_circuit(&reverse_circuit(&bc.main).unwrap()).unwrap(),
        };
        prop_assert_eq!(lint(&bc), lint(&twice));
    }
}
