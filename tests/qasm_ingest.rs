//! Round-trip and robustness tests for OpenQASM ingestion.
//!
//! Three properties pin the parser to the exporter:
//!
//! * **Fixpoint** — re-exporting a parsed golden reproduces the golden
//!   byte-for-byte: the parser's lowering conventions (slot pooling,
//!   per-wire cregs, classical conditions) are exactly the exporter's,
//!   read backwards.
//! * **Equivalence** — for random circuits, `parse(export(c))` behaves
//!   like `c`: identical state vectors up to global phase when
//!   measurement-free, identical per-seed shot outcomes when measured.
//! * **No panics** — byte-level mutations of valid programs (and raw
//!   garbage) always come back as diagnostics, never a crash. This is the
//!   trust boundary for `quipper-serve`'s inline submissions.

use proptest::prelude::*;
use quipper::{Circ, Qubit};
use quipper_circuit::qasm::to_qasm;
use quipper_circuit::BCircuit;
use quipper_sim::complex::Complex;

fn goldens() -> Vec<(std::path::PathBuf, String)> {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut out: Vec<(std::path::PathBuf, String)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "qasm"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap();
            (p, text)
        })
        .collect();
    out.sort();
    out
}

/// Every golden is a fixpoint of `export ∘ parse`. This is the strongest
/// cheap check we have: one drifted convention anywhere in the lexer,
/// parser, or lowering shows up as a readable one-line diff.
#[test]
fn goldens_are_export_parse_fixpoints() {
    let goldens = goldens();
    assert!(
        goldens.len() >= 6,
        "expected the full golden inventory, found {}",
        goldens.len()
    );
    for (path, text) in &goldens {
        let bc = quipper_qasm::compile(text)
            .unwrap_or_else(|ds| panic!("{} does not parse:\n{ds}", path.display()));
        let out = to_qasm(&bc).unwrap();
        assert_eq!(
            &out,
            text,
            "{} is not a fixpoint of export∘parse",
            path.display()
        );
    }
}

/// Parsed goldens compile into plans — validation, lint, flattening,
/// routing — exactly like catalog circuits. Ingested circuits are not
/// second-class.
#[test]
fn parsed_goldens_pass_the_plan_pipeline() {
    for (path, text) in goldens() {
        let bc = quipper_qasm::compile(&text).unwrap();
        let plan = quipper_exec::Plan::compile_with(&bc, quipper_exec::OptLevel::Off)
            .unwrap_or_else(|e| panic!("{} does not plan: {e}", path.display()));
        assert!(plan.profile.num_gates > 0, "{}", path.display());
    }
}

const QUBITS: usize = 4;

const ANGLES: [f64; 6] = [
    std::f64::consts::FRAC_PI_4,
    std::f64::consts::FRAC_PI_2,
    std::f64::consts::PI,
    2.0 * std::f64::consts::PI,
    -std::f64::consts::FRAC_PI_4,
    0.37,
];

/// One random gate over the register, mirroring the exporter's coverage:
/// the self-inverse set, rotations in every family the exporter emits,
/// Toffoli for the multi-control path, and a global phase.
#[derive(Clone, Copy, Debug)]
enum OGate {
    H(usize),
    X(usize),
    Y(usize),
    Z(usize),
    S(usize),
    T(usize),
    Cnot(usize, usize),
    Toffoli(usize, usize, usize),
    Swap(usize, usize),
    Rz(usize, usize),
    Ry(usize, usize),
    CRz(usize, usize, usize),
    GPhase(usize),
}

fn ogate() -> impl Strategy<Value = OGate> {
    let q = 0..QUBITS;
    let a = 0..ANGLES.len();
    prop_oneof![
        q.clone().prop_map(OGate::H),
        q.clone().prop_map(OGate::X),
        q.clone().prop_map(OGate::Y),
        q.clone().prop_map(OGate::Z),
        q.clone().prop_map(OGate::S),
        q.clone().prop_map(OGate::T),
        (q.clone(), q.clone()).prop_map(|(a, b)| OGate::Cnot(a, b)),
        (q.clone(), q.clone(), q.clone()).prop_map(|(a, b, c)| OGate::Toffoli(a, b, c)),
        (q.clone(), q.clone()).prop_map(|(a, b)| OGate::Swap(a, b)),
        (q.clone(), a.clone()).prop_map(|(w, i)| OGate::Rz(w, i)),
        (q.clone(), a.clone()).prop_map(|(w, i)| OGate::Ry(w, i)),
        (q.clone(), q, a.clone()).prop_map(|(w, c, i)| OGate::CRz(w, c, i)),
        a.prop_map(OGate::GPhase),
    ]
}

fn emit(c: &mut Circ, qs: &[Qubit], g: OGate) {
    match g {
        OGate::H(a) => c.hadamard(qs[a]),
        OGate::X(a) => c.qnot(qs[a]),
        OGate::Y(a) => c.gate_y(qs[a]),
        OGate::Z(a) => c.gate_z(qs[a]),
        OGate::S(a) => c.gate_s(qs[a]),
        OGate::T(a) => c.gate_t(qs[a]),
        OGate::Cnot(a, b) if a != b => c.cnot(qs[a], qs[b]),
        OGate::Toffoli(t, a, b) if t != a && t != b && a != b => c.toffoli(qs[t], qs[a], qs[b]),
        OGate::Swap(a, b) if a != b => c.swap(qs[a], qs[b]),
        OGate::Rz(w, i) => c.rot("exp(-i%Z)", ANGLES[i], qs[w]),
        OGate::Ry(w, i) => c.rot("Ry(%)", ANGLES[i], qs[w]),
        OGate::CRz(w, ctl, i) if w != ctl => c.rot_ctrl("exp(-i%Z)", ANGLES[i], qs[w], &qs[ctl]),
        OGate::GPhase(i) => c.gphase(ANGLES[i]),
        OGate::Cnot(..) | OGate::Toffoli(..) | OGate::Swap(..) | OGate::CRz(..) => {}
    }
}

/// A flat random circuit on ancillas, optionally measured — the shapes
/// the exporter can serialize without loss.
fn random_circuit(gates: &[OGate], measured: bool) -> BCircuit {
    let mut c = Circ::new();
    let qs: Vec<Qubit> = (0..QUBITS).map(|_| c.qinit_bit(false)).collect();
    for &g in gates {
        emit(&mut c, &qs, g);
    }
    if measured {
        let ms: Vec<_> = qs.into_iter().map(|q| c.measure_bit(q)).collect();
        c.finish(&ms)
    } else {
        c.finish(&qs)
    }
}

/// Asserts `b = e^{iφ}·a` for one phase φ, within tolerance.
fn assert_equal_up_to_global_phase(a: &[Complex], b: &[Complex]) {
    assert_eq!(a.len(), b.len(), "state dimensions differ");
    let pivot = a
        .iter()
        .position(|amp| amp.norm_sqr() > 1e-12)
        .expect("state vector cannot be all-zero");
    assert!(b[pivot].norm_sqr() > 1e-12, "support changed at pivot");
    let (ar, ai) = (a[pivot].re, a[pivot].im);
    let (br, bi) = (b[pivot].re, b[pivot].im);
    let n = ar * ar + ai * ai;
    let phase_re = (br * ar + bi * ai) / n;
    let phase_im = (bi * ar - br * ai) / n;
    assert!(
        (phase_re * phase_re + phase_im * phase_im - 1.0).abs() < 1e-9,
        "pivot ratio is not a pure phase"
    );
    for (x, y) in a.iter().zip(b) {
        let rot_re = x.re * phase_re - x.im * phase_im;
        let rot_im = x.re * phase_im + x.im * phase_re;
        let d = (y.re - rot_re).powi(2) + (y.im - rot_im).powi(2);
        assert!(d < 1e-18, "amplitudes diverge: d² = {d}");
    }
}

/// A deterministic xorshift for the mutation tests (no external RNG
/// needed; the sequence is stable across runs, so failures reproduce).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `parse(export(c))` is statevector-equivalent to `c` up to one
    /// global phase, for random measurement-free circuits.
    #[test]
    fn export_parse_preserves_state_vectors(
        gates in prop::collection::vec(ogate(), 1..24),
    ) {
        let bc = random_circuit(&gates, false);
        bc.validate().unwrap();
        let qasm = to_qasm(&bc).unwrap();
        let reparsed = quipper_qasm::compile(&qasm)
            .unwrap_or_else(|ds| panic!("exporter output does not parse:\n{ds}\n---\n{qasm}"));
        reparsed.validate().unwrap();
        let want = quipper_sim::run(&bc, &[], 11).unwrap();
        let got = quipper_sim::run(&reparsed, &[], 11).unwrap();
        assert_equal_up_to_global_phase(
            &want.state.canonical_amplitudes(),
            &got.state.canonical_amplitudes(),
        );
    }

    /// Measured circuits: `parse(export(c))` produces bit-identical
    /// per-seed shot outcomes — measurements survive the text round trip
    /// in order and in distribution.
    #[test]
    fn export_parse_preserves_shot_outcomes(
        gates in prop::collection::vec(ogate(), 1..16),
    ) {
        let bc = random_circuit(&gates, true);
        bc.validate().unwrap();
        let qasm = to_qasm(&bc).unwrap();
        let reparsed = quipper_qasm::compile(&qasm)
            .unwrap_or_else(|ds| panic!("exporter output does not parse:\n{ds}\n---\n{qasm}"));
        for seed in 0..4u64 {
            let want = quipper_sim::run(&bc, &[], seed).unwrap().classical_outputs();
            let got = quipper_sim::run(&reparsed, &[], seed).unwrap().classical_outputs();
            prop_assert_eq!(&want, &got, "seed {}", seed);
        }
    }
}

/// Byte-level mutations of the goldens never panic the parser: flips,
/// truncations, splices, and duplications all come back as diagnostics
/// (or, by luck, still-valid programs). ~200 mutants per golden.
#[test]
fn mutated_goldens_produce_diagnostics_not_panics() {
    let goldens = goldens();
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for (_, text) in &goldens {
        let bytes = text.as_bytes();
        for _ in 0..200 {
            let mut mutant = bytes.to_vec();
            match rng.next() % 4 {
                0 => {
                    // Flip one byte to something printable-ish.
                    let i = (rng.next() as usize) % mutant.len();
                    mutant[i] = (rng.next() % 96) as u8 + 32;
                }
                1 => {
                    // Truncate.
                    let i = (rng.next() as usize) % mutant.len();
                    mutant.truncate(i);
                }
                2 => {
                    // Duplicate a random slice in place.
                    let i = (rng.next() as usize) % mutant.len();
                    let j = ((rng.next() as usize) % (mutant.len() - i)).min(64) + i;
                    let slice = mutant[i..j].to_vec();
                    let at = (rng.next() as usize) % mutant.len();
                    for (k, b) in slice.into_iter().enumerate() {
                        mutant.insert(at + k, b);
                    }
                }
                _ => {
                    // Delete a random slice.
                    let i = (rng.next() as usize) % mutant.len();
                    let j = ((rng.next() as usize) % (mutant.len() - i)).min(64) + i;
                    mutant.drain(i..j);
                }
            }
            // Arbitrary bytes may not be UTF-8; both paths must be safe.
            if let Ok(source) = String::from_utf8(mutant) {
                let (_, _diags) = quipper_qasm::compile_full(&source);
            }
        }
    }
}

/// Raw garbage — random printable bytes, deep nesting, long tokens — is
/// rejected with bounded diagnostics.
#[test]
fn garbage_inputs_are_rejected_with_bounded_diagnostics() {
    let mut rng = XorShift(0x2545f4914f6cdd1d);
    for len in [0usize, 1, 7, 64, 512, 4096] {
        let source: String = (0..len)
            .map(|_| ((rng.next() % 96) as u8 + 32) as char)
            .collect();
        let (_, diags) = quipper_qasm::compile_full(&source);
        assert!(
            diags.len() <= quipper_qasm::diag::MAX_DIAGS + 1,
            "diagnostic flood on {len}-byte garbage"
        );
    }
    // Pathological nesting stays linear-time and diagnostic-bounded.
    let deep = format!(
        "OPENQASM 2.0;\nqreg q[1];\nU({}0{},0,0) q[0];\n",
        "(".repeat(4000),
        ")".repeat(4000)
    );
    let (bc, diags) = quipper_qasm::compile_full(&deep);
    assert!(bc.is_none());
    assert!(diags.has_errors());
    // An if-tower deeper than the statement nesting cap.
    let tower = format!(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ncreg c[1];\n{}x q[0];\n",
        "if(c==0) ".repeat(600)
    );
    let (_, diags) = quipper_qasm::compile_full(&tower);
    assert!(diags.has_errors());
}
