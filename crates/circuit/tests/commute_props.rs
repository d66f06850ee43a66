//! The allocation-free gate comparisons against the map- and clone-based
//! rules they replace, which stay here as oracles, over random gate pairs
//! of every kind: calls, initializations, measurements, classical gates,
//! repeated wires and controls on targets.
//!
//! * `commutes_with(&wire_actions(a), b)` classifies `b` in place; the
//!   oracle builds `wire_actions(b)` and checks it against `wire_actions(a)`.
//! * `b.undoes(a)` decides QGate, QRot and GPhase pairs in place; the
//!   oracle builds `a.inverse()` and compares both gates with their
//!   controls sorted.
//! * `same_control_set` counts; the oracle sorts.

use std::collections::HashMap;

use proptest::prelude::*;
use quipper_circuit::commute::{commutes_with, same_control_set, wire_actions, WireAction};
use quipper_circuit::{BoxId, Control, Gate, GateName, Wire};

/// One gate's raw draw: kind, a parameter, wires, signed controls.
type Raw = (u8, u8, Vec<u32>, Vec<(u32, bool)>);

fn raw() -> impl Strategy<Value = Raw> {
    (
        0u8..16,
        0u8..12,
        prop::collection::vec(0u32..4, 1..4),
        prop::collection::vec((0u32..4, any::<bool>()), 0..4),
    )
}

/// A gate of any kind over wires `0..4`, so that wires collide often: a
/// target may repeat, and a control may sit on a target.
fn gate((kind, param, wires, controls): &Raw) -> Gate {
    let controls: Vec<Control> = controls
        .iter()
        .map(|&(w, positive)| Control {
            wire: Wire(w),
            positive,
        })
        .collect();
    let targets: Vec<Wire> = wires.iter().map(|&w| Wire(w)).collect();
    let w = targets[0];
    let inverted = param % 2 == 1;
    match kind {
        0..=4 => Gate::QGate {
            name: match param % 10 {
                0 => GateName::X,
                1 => GateName::Y,
                2 => GateName::Z,
                3 => GateName::S,
                4 => GateName::T,
                5 => GateName::H,
                6 => GateName::V,
                7 => GateName::W,
                8 => GateName::Swap,
                _ => GateName::Named("g".into()),
            },
            inverted,
            targets,
            controls,
        },
        5..=7 => Gate::QRot {
            name: ["exp(-i%Z)", "R(%)", "R(2pi/%)", "Ry(%)", "Rx(%)"][usize::from(param % 5)]
                .into(),
            inverted,
            angle: f64::from(param % 3) * 0.25,
            targets: if param % 4 == 0 { targets } else { vec![w] },
            controls,
        },
        8 => Gate::GPhase {
            angle: f64::from(param % 3) * 0.5 - 0.5,
            controls,
        },
        9 => match param % 4 {
            0 => Gate::QInit {
                value: inverted,
                wire: w,
            },
            1 => Gate::QTerm {
                value: inverted,
                wire: w,
            },
            2 => Gate::CInit {
                value: inverted,
                wire: w,
            },
            _ => Gate::CTerm {
                value: inverted,
                wire: w,
            },
        },
        10 => match param % 3 {
            0 => Gate::QMeas { wire: w },
            1 => Gate::QDiscard { wire: w },
            _ => Gate::CDiscard { wire: w },
        },
        11 => Gate::CGate {
            name: "xor".into(),
            inverted,
            target: w,
            inputs: targets[1..].to_vec(),
        },
        12..=14 => Gate::Subroutine {
            id: BoxId(u32::from(param % 2)),
            inverted,
            inputs: targets.clone(),
            outputs: targets.into_iter().rev().collect(),
            controls,
            repetitions: 1 + u64::from(param % 3 / 2),
        },
        _ => Gate::Comment {
            text: "c".into(),
            labels: targets.into_iter().map(|w| (w, "x".to_string())).collect(),
        },
    }
}

/// `a`'s inverse as a caller might write it: controls reversed, and the
/// flag of a self-inverse gate toggled, which `undoes` must see through.
fn written_inverse(a: &Gate) -> Gate {
    let mut inv = a.inverse().unwrap_or_else(|_| a.clone());
    match &mut inv {
        Gate::QGate {
            name,
            inverted,
            controls,
            ..
        } => {
            if name.is_self_inverse() {
                *inverted = !*inverted;
            }
            controls.reverse();
        }
        Gate::QRot { controls, .. }
        | Gate::GPhase { controls, .. }
        | Gate::Subroutine { controls, .. } => controls.reverse(),
        _ => {}
    }
    inv
}

/// The map rule: every wire of `b`'s action map agrees with `a`'s.
fn commutes_by_maps(a: &HashMap<Wire, WireAction>, b: &Gate) -> bool {
    wire_actions(b).iter().all(|(w, &bact)| match a.get(w) {
        None => true,
        Some(&aact) => aact == bact && aact != WireAction::Opaque,
    })
}

/// The clone rule: `b` equals `a.inverse()` once both have their controls
/// sorted and self-inverse gates their flag cleared.
fn undoes_by_inverse(b: &Gate, a: &Gate) -> bool {
    fn canonical(g: &Gate) -> Gate {
        let mut g = g.clone();
        match &mut g {
            Gate::QGate {
                name,
                inverted,
                controls,
                ..
            } => {
                if name.is_self_inverse() {
                    *inverted = false;
                }
                controls.sort_unstable();
            }
            Gate::QRot { controls, .. }
            | Gate::GPhase { controls, .. }
            | Gate::Subroutine { controls, .. } => controls.sort_unstable(),
            _ => {}
        }
        g
    }
    a.inverse().is_ok_and(|inv| canonical(&inv) == canonical(b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn in_place_commutation_matches_the_map_rule(ra in raw(), rb in raw(), pick in 0u8..4) {
        let a = gate(&ra);
        // One pair in four compares a gate with itself.
        let b = if pick == 0 { a.clone() } else { gate(&rb) };
        let actions = wire_actions(&a);
        prop_assert_eq!(
            commutes_with(&actions, &b),
            commutes_by_maps(&actions, &b),
            "a = {:?}, b = {:?}",
            a,
            b
        );
    }

    #[test]
    fn in_place_undoes_matches_the_inverse_rule(ra in raw(), rb in raw(), pick in 0u8..3) {
        let a = gate(&ra);
        // One pair in three is `a` and its written inverse, which undoes it
        // whenever `a` has an inverse.
        let b = if pick == 0 { written_inverse(&a) } else { gate(&rb) };
        prop_assert_eq!(b.undoes(&a), undoes_by_inverse(&b, &a), "a = {:?}, b = {:?}", a, b);
    }

    #[test]
    fn counted_control_sets_match_sorted_ones(
        a in prop::collection::vec((0u32..3, any::<bool>()), 0..12),
        b in prop::collection::vec((0u32..3, any::<bool>()), 0..12),
        pick in 0u8..3,
    ) {
        let controls = |list: &[(u32, bool)]| -> Vec<Control> {
            list.iter().map(|&(w, positive)| Control { wire: Wire(w), positive }).collect()
        };
        let a = controls(&a);
        // One pair in three is a permutation of `a`.
        let b = if pick == 0 { a.iter().rev().copied().collect() } else { controls(&b) };
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort_unstable();
        sb.sort_unstable();
        prop_assert_eq!(same_control_set(&a, &b), sa == sb, "a = {:?}, b = {:?}", a, b);
    }
}
