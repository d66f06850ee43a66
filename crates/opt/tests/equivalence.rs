//! Property tests: the optimizer pipeline, and the binary decomposition a
//! user may apply beside it, are semantics-preserving on random
//! hierarchical circuits.
//!
//! Two observational notions of equivalence are checked against the exact
//! state-vector simulator:
//!
//! * **amplitudes** — for measurement-free circuits, the optimized state
//!   vector equals the original up to one global phase;
//! * **histograms** — for measured circuits, every shot's outcome is
//!   identical under the same seed (the rewrites never add, drop, or
//!   reorder measurements, so the RNG draw sequence lines up).
//!
//! Circuits are generated with deliberate redundancy (inverse-pair
//! injection, mergeable rotation runs, a repeated box) so the pipelines
//! actually fire rather than vacuously passing on irreducible inputs.

use proptest::prelude::*;
use quipper::decompose::{decompose, GateBase};
use quipper::{Circ, Qubit};
use quipper_circuit::{BCircuit, Gate};
use quipper_opt::{optimize, OptLevel};
use quipper_sim::complex::Complex;

const QUBITS: usize = 4;

/// Rotation angles the generator draws from: mergeable fractions of π, an
/// exact identity (2π for Z-rotations), and one irrational-ish value.
const ANGLES: [f64; 6] = [
    std::f64::consts::FRAC_PI_4,
    std::f64::consts::FRAC_PI_2,
    std::f64::consts::PI,
    2.0 * std::f64::consts::PI,
    -std::f64::consts::FRAC_PI_4,
    0.37,
];

/// One random gate over the register. Indices are taken mod the register
/// size; coinciding two-qubit wires are skipped at emission.
#[derive(Clone, Copy, Debug)]
enum OGate {
    H(usize),
    X(usize),
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

/// Emits the gate, then — every `dup_every`-th step — its inverse right
/// after, planting adjacent inverse pairs for the cancel pass. Rotations
/// invert by angle negation; the other generators are self-inverse except
/// S/T, which are simply not duplicated.
fn emit_with_redundancy(c: &mut Circ, qs: &[Qubit], gates: &[OGate], dup_every: usize) {
    for (i, &g) in gates.iter().enumerate() {
        emit(c, qs, g);
        if i % dup_every != 0 {
            continue;
        }
        match g {
            OGate::Rz(w, a) => c.rot("exp(-i%Z)", -ANGLES[a], qs[w]),
            OGate::Ry(w, a) => c.rot("Ry(%)", -ANGLES[a], qs[w]),
            OGate::CRz(w, ctl, a) if w != ctl => {
                c.rot_ctrl("exp(-i%Z)", -ANGLES[a], qs[w], &qs[ctl]);
            }
            OGate::S(_) | OGate::T(_) | OGate::GPhase(_) | OGate::CRz(..) => {}
            self_inverse => emit(c, qs, self_inverse),
        }
    }
}

/// A hierarchical circuit: redundant main-scope prefix, a repeated box of
/// the body gates, redundant suffix. `measured` appends measurements.
fn hierarchical(
    main_gates: &[OGate],
    body_gates: &[OGate],
    reps: u64,
    dup_every: usize,
    measured: bool,
) -> BCircuit {
    let mut c = Circ::new();
    let qs: Vec<Qubit> = (0..QUBITS).map(|_| c.qinit_bit(false)).collect();
    emit_with_redundancy(&mut c, &qs, main_gates, dup_every);
    let body: Vec<OGate> = body_gates.to_vec();
    let qs = c.box_repeat("body", "", reps, qs, move |c, qs: Vec<Qubit>| {
        emit_with_redundancy(c, &qs, &body, dup_every);
        qs
    });
    emit_with_redundancy(&mut c, &qs, main_gates, dup_every.max(2));
    if measured {
        let ms: Vec<_> = qs.into_iter().map(|q| c.measure_bit(q)).collect();
        c.finish(&ms)
    } else {
        c.finish(&qs)
    }
}

/// Asserts `b = e^{iφ}·a` for a single phase φ, within tolerance. Panics
/// on divergence (proptest reports the panic as the failing case).
fn assert_equal_up_to_global_phase(a: &[Complex], b: &[Complex]) {
    assert_eq!(a.len(), b.len(), "state dimensions differ");
    let pivot = a
        .iter()
        .position(|amp| amp.norm_sqr() > 1e-12)
        .expect("state vector cannot be all-zero");
    assert!(b[pivot].norm_sqr() > 1e-12, "support changed at pivot");
    // phase = b[pivot] / a[pivot]; |phase| must be 1.
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

const LEVELS: [OptLevel; 2] = [OptLevel::Off, OptLevel::Default];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Measurement-free circuits: the optimized state vector equals the
    /// original up to one global phase, at every level.
    #[test]
    fn optimized_state_vectors_match_up_to_global_phase(
        main_gates in prop::collection::vec(ogate(), 1..12),
        body_gates in prop::collection::vec(ogate(), 1..8),
        reps in 1u64..4,
        dup_every in 1usize..4,
    ) {
        let bc = hierarchical(&main_gates, &body_gates, reps, dup_every, false);
        bc.validate().unwrap();
        let reference = quipper_sim::run(&bc, &[], 11).unwrap();
        for level in LEVELS {
            let (opt, report) = optimize(&bc, level);
            opt.validate().unwrap();
            prop_assert_eq!(report.level, level);
            let got = quipper_sim::run(&opt, &[], 11).unwrap();
            // Compare in the canonical wire-sorted basis: the simulator may
            // absorb Swap gates into slot relabeling, so the raw amplitude
            // order depends on how many swaps each side executed.
            assert_equal_up_to_global_phase(
                &reference.state.canonical_amplitudes(),
                &got.state.canonical_amplitudes(),
            );
        }
    }

    /// The paper's `decompose_generic` into the binary base (§4.4.3), which
    /// users apply themselves: the state vector is unchanged up to one
    /// global phase and no gate is left on more than two wires.
    #[test]
    fn binary_decomposition_matches_up_to_global_phase(
        main_gates in prop::collection::vec(ogate(), 1..12),
        body_gates in prop::collection::vec(ogate(), 1..8),
        reps in 1u64..4,
        dup_every in 1usize..4,
    ) {
        let bc = hierarchical(&main_gates, &body_gates, reps, dup_every, false);
        let binary = decompose(GateBase::Binary, &bc);
        binary.validate().unwrap();
        let scopes = binary.db.iter().map(|(_, def)| &def.circuit).chain([&binary.main]);
        for gate in scopes.flat_map(|c| &c.gates) {
            if matches!(gate, Gate::Subroutine { .. } | Gate::Comment { .. }) {
                continue;
            }
            let mut wires = 0;
            gate.for_each_wire(&mut |_| wires += 1);
            prop_assert!(wires <= 2, "wide gate survived: {:?}", gate);
        }
        let reference = quipper_sim::run(&bc, &[], 11).unwrap();
        let got = quipper_sim::run(&binary, &[], 11).unwrap();
        assert_equal_up_to_global_phase(
            &reference.state.canonical_amplitudes(),
            &got.state.canonical_amplitudes(),
        );
    }

    /// Measured circuits: per-shot outcomes are bit-identical under the
    /// same seed, so whole histograms coincide. The rewrites never touch
    /// measurements, so both runs draw randomness in the same order from
    /// identical distributions.
    #[test]
    fn optimized_circuits_sample_identical_histograms(
        main_gates in prop::collection::vec(ogate(), 1..10),
        body_gates in prop::collection::vec(ogate(), 1..6),
        reps in 1u64..3,
        dup_every in 1usize..4,
    ) {
        let bc = hierarchical(&main_gates, &body_gates, reps, dup_every, true);
        bc.validate().unwrap();
        for level in LEVELS {
            let (opt, _) = optimize(&bc, level);
            opt.validate().unwrap();
            for seed in 0..6u64 {
                let want = quipper_sim::run(&bc, &[], seed).unwrap().classical_outputs();
                let got = quipper_sim::run(&opt, &[], seed).unwrap().classical_outputs();
                prop_assert_eq!(&want, &got, "seed {} level {}", seed, level);
            }
        }
    }
}
