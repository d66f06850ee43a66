//! Property tests tying the structural commutation oracle (`commute.rs`) to
//! the Pauli-string algebra (`pauli.rs`) on the gate classes both understand.
//!
//! Two directions are checked:
//!
//! * On single-target uncontrolled Pauli gates the two notions coincide
//!   *exactly*: `commutes(a, b)` iff the Pauli strings commute under the
//!   symplectic form.
//! * Against arbitrary Clifford+T gates the structural oracle must be sound:
//!   whenever it claims a Pauli gate commutes with `g`, conjugating the
//!   Pauli string by `g` (when the algebra can) must fix it — and whenever
//!   conjugation provably *moves* the string, the oracle must not claim
//!   commutation.

use proptest::prelude::*;
use quipper_circuit::commute::commutes;
use quipper_circuit::pauli::{Pauli, PauliString};
use quipper_circuit::{Control, Gate, GateName, Wire};

fn pauli_of(which: u8) -> (GateName, Pauli) {
    match which % 3 {
        0 => (GateName::X, Pauli::X),
        1 => (GateName::Y, Pauli::Y),
        _ => (GateName::Z, Pauli::Z),
    }
}

fn pauli_gate(wire: u32, which: u8) -> (Gate, PauliString) {
    let (name, p) = pauli_of(which);
    (
        Gate::unary(name, Wire(wire)),
        PauliString::single(Wire(wire), p),
    )
}

/// A small Clifford+T vocabulary over wires `0..4`.
fn clifford_t_gate(kind: u8, w1: u32, w2: u32) -> Gate {
    let a = Wire(w1 % 4);
    let b = Wire(if w1 % 4 == w2 % 4 {
        (w2 + 1) % 4
    } else {
        w2 % 4
    });
    match kind % 12 {
        0 => Gate::unary(GateName::H, a),
        1 => Gate::unary(GateName::S, a),
        2 => Gate::QGate {
            name: GateName::S,
            inverted: true,
            targets: vec![a],
            controls: vec![],
        },
        3 => Gate::unary(GateName::X, a),
        4 => Gate::unary(GateName::Z, a),
        5 => Gate::unary(GateName::T, a),
        6 => Gate::cnot(a, b),
        7 => Gate::QGate {
            name: GateName::X,
            inverted: false,
            targets: vec![a],
            controls: vec![Control::negative(b)],
        },
        8 => Gate::QGate {
            name: GateName::Z,
            inverted: false,
            targets: vec![a],
            controls: vec![Control::positive(b)],
        },
        9 => Gate::QGate {
            name: GateName::Swap,
            inverted: false,
            targets: vec![a, b],
            controls: vec![],
        },
        10 => Gate::QRot {
            name: "exp(-i%Z)".into(),
            inverted: false,
            angle: 0.37,
            targets: vec![a],
            controls: vec![],
        },
        _ => Gate::QRot {
            name: "Ry(%)".into(),
            inverted: false,
            angle: 0.37,
            targets: vec![a],
            controls: vec![],
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On single-target uncontrolled Pauli gates, structural and algebraic
    /// commutation agree exactly.
    #[test]
    fn pauli_pairs_agree_exactly(
        wa in 0u32..4, ka in 0u8..3,
        wb in 0u32..4, kb in 0u8..3,
    ) {
        let (ga, sa) = pauli_gate(wa, ka);
        let (gb, sb) = pauli_gate(wb, kb);
        prop_assert_eq!(
            commutes(&ga, &gb),
            sa.commutes_with(&sb),
            "structural vs symplectic disagree: {} / {}",
            ga.describe(),
            gb.describe()
        );
    }

    /// If the structural oracle claims a Pauli gate commutes with `g`, and
    /// the algebra can conjugate through `g`, conjugation must fix the
    /// string (gP = Pg ⇒ gPg† = P).
    #[test]
    fn structural_commute_implies_conjugation_fixes(
        wp in 0u32..4, kp in 0u8..3,
        kind in 0u8..12, w1 in 0u32..4, w2 in 0u32..4,
    ) {
        let (pg, s) = pauli_gate(wp, kp);
        let g = clifford_t_gate(kind, w1, w2);
        let mut conj = s.clone();
        if commutes(&pg, &g) && conj.conjugate(&g) {
            prop_assert_eq!(
                conj, s,
                "commutes({}, {}) claimed, but conjugation moves the string",
                pg.describe(), g.describe()
            );
        }
    }

    /// If conjugation provably *moves* the Pauli string, the structural
    /// oracle must not claim commutation — soundness of `commutes` against
    /// the exact algebra.
    #[test]
    fn moved_strings_never_claim_commutation(
        wp in 0u32..4, kp in 0u8..3,
        kind in 0u8..12, w1 in 0u32..4, w2 in 0u32..4,
    ) {
        let (pg, s) = pauli_gate(wp, kp);
        let g = clifford_t_gate(kind, w1, w2);
        let mut conj = s.clone();
        if conj.conjugate(&g) && conj != s {
            prop_assert!(
                !commutes(&pg, &g),
                "conjugation moves {} through {} but commutes() claims they commute",
                pg.describe(), g.describe()
            );
        }
    }
}
