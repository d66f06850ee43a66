//! Property tests of the lint passes.
//!
//! Three invariants:
//!
//! 1. **Soundness of the termination pass**: a generated circuit whose
//!    assertions are satisfied on every run (guaranteed by construction and
//!    double-checked against the state-vector simulator) is never flagged
//!    `QL001` — the pass may fail to *prove* an assertion (`QL002`), but it
//!    must never claim a satisfied assertion is provably violated.
//! 2. **Reversal is an involution for the analysis**: `reverse(reverse(c))`
//!    produces the identical lint report as `c`.
//! 3. **QL040 agrees with the stabilizer simulator**: a measurement the lint
//!    proves deterministic with outcome `b` returns `b` under every seed.
//!
//! Each also checks that the gate entry answers what the linter answers:
//! `errors` returns `lint`'s error-severity findings, in the same order.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use quipper::{Bit, Circ, Qubit};
use quipper_circuit::reverse::reverse_circuit;
use quipper_circuit::{BCircuit, GateName};
use quipper_lint::{errors, lint, Diagnostic, LintReport, Severity};
use quipper_sim::run_clifford;

const QUBITS: usize = 4;

/// `lint`'s error-severity findings, in its order: what `errors` must return.
fn errors_of(report: &LintReport) -> Vec<Diagnostic> {
    let errors = report
        .findings
        .iter()
        .filter(|d| d.severity == Severity::Error);
    errors.cloned().collect()
}

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
        prop_assert_eq!(errors(&bc).findings, errors_of(&report));
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
        prop_assert_eq!(errors(&bc).findings, errors_of(&report));
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
        let report = lint(&bc);
        prop_assert_eq!(&report, &lint(&twice));
        prop_assert_eq!(errors(&bc).findings, errors_of(&report));
    }
}

/// One step of a QL040 check program: a Clifford gate, a call of the boxed
/// body (forward or inverted) on two qubits, or a mid-circuit measurement
/// whose qubit is replaced by a fresh one initialized to the given value.
#[derive(Clone, Copy, Debug)]
enum Step {
    H(usize),
    S(usize),
    SDag(usize),
    X(usize),
    Z(usize),
    Cnot(usize, usize),
    Cz(usize, usize),
    Call(usize, usize),
    CallInverse(usize, usize),
    Measure(usize, bool),
}

fn clifford_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..QUBITS).prop_map(Step::H),
        (0..QUBITS).prop_map(Step::S),
        (0..QUBITS).prop_map(Step::SDag),
        (0..QUBITS).prop_map(Step::X),
        (0..QUBITS).prop_map(Step::Z),
        (0..QUBITS, 0..QUBITS).prop_map(|(a, b)| Step::Cnot(a, b)),
        (0..QUBITS, 0..QUBITS).prop_map(|(a, b)| Step::Cz(a, b)),
    ]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        clifford_step(),
        clifford_step(),
        (0..QUBITS, 0..QUBITS).prop_map(|(a, b)| Step::Call(a, b)),
        (0..QUBITS, 0..QUBITS).prop_map(|(a, b)| Step::CallInverse(a, b)),
        (0..QUBITS, any::<bool>()).prop_map(|(a, v)| Step::Measure(a, v)),
    ]
}

/// Applies a gate step; a two-qubit step on one qubit is skipped.
fn apply_gate(c: &mut Circ, qs: &[Qubit], step: Step) {
    match step {
        Step::H(a) => c.hadamard(qs[a]),
        Step::S(a) => c.gate_s(qs[a]),
        Step::SDag(a) => c.gate_inv(GateName::S, qs[a]),
        Step::X(a) => c.qnot(qs[a]),
        Step::Z(a) => c.gate_z(qs[a]),
        Step::Cnot(a, b) if a != b => c.cnot(qs[a], qs[b]),
        Step::Cz(a, b) if a != b => c.gate_ctrl(GateName::Z, qs[a], &qs[b]),
        _ => {}
    }
}

/// Builds the program: `QUBITS` initialized qubits, `steps` over them, the
/// boxed `body` called forward and inverted, every measured bit an output.
fn measured_program(inits: &[bool], body: &[Step], steps: &[Step]) -> BCircuit {
    let body = |c: &mut Circ, (a, b): (Qubit, Qubit)| {
        let pair = [a, b];
        for &step in body {
            apply_gate(c, &pair, step);
        }
        (a, b)
    };
    let mut c = Circ::new();
    let mut qs: Vec<Qubit> = inits.iter().map(|&v| c.qinit_bit(v)).collect();
    let mut bits: Vec<Bit> = Vec::new();
    for &step in steps {
        match step {
            Step::Call(a, b) | Step::CallInverse(a, b) if a != b => {
                let pair = (qs[a], qs[b]);
                (qs[a], qs[b]) = if matches!(step, Step::Call(..)) {
                    c.box_circ("body", pair, body)
                } else {
                    c.box_circ_inverse("body", "", &pair, body, pair)
                };
            }
            Step::Measure(a, v) => {
                bits.push(c.measure_bit(qs[a]));
                qs[a] = c.qinit_bit(v);
            }
            _ => apply_gate(&mut c, &qs, step),
        }
    }
    for q in qs {
        c.qdiscard(q);
    }
    c.finish(&bits)
}

/// Every QL040 the lint reports on random Clifford programs with boxed
/// calls and mid-circuit measurements is the outcome the stabilizer
/// simulator returns for that bit, under each of `SEEDS` seeds. The run
/// must see enough QL040 notes and enough measurements whose outcome does
/// vary with the seed to say something about both.
#[test]
fn ql040_outcomes_match_the_stabilizer_simulator() {
    const PROGRAMS: usize = 128;
    const SEEDS: u64 = 32;
    let mut rng = TestRng::deterministic("ql040_outcomes_match_the_stabilizer_simulator");
    let (mut notes, mut random) = (0usize, 0usize);
    for _ in 0..PROGRAMS {
        let inits = proptest::collection::vec(any::<bool>(), QUBITS).generate(&mut rng);
        let body = proptest::collection::vec(clifford_step(), 1..6).generate(&mut rng);
        let steps = proptest::collection::vec(step(), 4..28).generate(&mut rng);
        // The body acts on two qubits.
        let body: Vec<Step> = body
            .into_iter()
            .map(|step| match step {
                Step::H(a) => Step::H(a % 2),
                Step::S(a) => Step::S(a % 2),
                Step::SDag(a) => Step::SDag(a % 2),
                Step::X(a) => Step::X(a % 2),
                Step::Z(a) => Step::Z(a % 2),
                Step::Cnot(a, b) => Step::Cnot(a % 2, b % 2),
                Step::Cz(a, b) => Step::Cz(a % 2, b % 2),
                other => other,
            })
            .collect();
        let bc = measured_program(&inits, &body, &steps);
        let report = lint(&bc);
        assert_eq!(errors(&bc).findings, errors_of(&report));
        let claims: Vec<(usize, bool)> = report
            .findings
            .iter()
            .filter(|d| d.code == "QL040")
            .map(|d| {
                let at = bc.main.outputs.iter().position(|&(w, _)| Some(w) == d.wire);
                (
                    at.expect("a measured bit is an output"),
                    d.message.contains("|1⟩"),
                )
            })
            .collect();
        let runs: Vec<Vec<bool>> = (0..SEEDS)
            .map(|seed| run_clifford(&bc, &[], seed).expect("a Clifford program runs"))
            .collect();
        for &(at, outcome) in &claims {
            for (seed, run) in runs.iter().enumerate() {
                assert_eq!(
                    run[at], outcome,
                    "QL040 claims bit {at} is {outcome} but seed {seed} measured {}; \
                     steps {steps:?}, body {body:?}",
                    run[at]
                );
            }
        }
        notes += claims.len();
        random += (0..bc.main.outputs.len())
            .filter(|&i| runs.iter().any(|r| r[i]) && runs.iter().any(|r| !r[i]))
            .count();
    }
    assert!(notes >= 200, "only {notes} QL040 notes");
    assert!(random >= 50, "only {random} random measurements");
}
