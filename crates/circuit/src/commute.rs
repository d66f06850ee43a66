//! Commutation analysis for rewrite passes.
//!
//! Two gates commute when, on every wire they share, both act *diagonally in
//! the same basis*: a control wire or a Z/S/T/phase-rotation target is
//! diagonal in the computational basis, an X/V target (including the target
//! of a CNOT) is diagonal in the X basis, and a Y/Ry target in the Y basis.
//! Gates sharing no wires commute trivially. This per-wire classification is
//! sound but deliberately incomplete — anything it cannot classify is
//! `Opaque` and blocks commutation — which is exactly the right trade for an
//! optimizer: a missed commutation costs a rewrite, a wrong one costs
//! correctness.

use std::collections::HashMap;

use crate::gate::{Gate, GateName};
use crate::wire::{Control, Wire};

/// How a gate acts on one of its wires, for commutation purposes.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WireAction {
    /// Diagonal in the computational basis: controls, Z/S/T targets,
    /// Z-axis rotations, (controlled) global phases.
    ZDiagonal,
    /// Diagonal in the X basis: X and V = √X targets.
    XDiagonal,
    /// Diagonal in the Y basis: Y targets and `Ry(%)` rotations.
    YDiagonal,
    /// Unclassified; blocks commutation on this wire.
    Opaque,
}

/// Rotation families diagonal in the computational basis.
const Z_ROTS: &[&str] = &["exp(-i%Z)", "R(%)", "R(2pi/%)"];

/// Classifies how `gate` acts on each wire it touches. Wires the gate does
/// not touch are absent from the map.
pub fn wire_actions(gate: &Gate) -> HashMap<Wire, WireAction> {
    let mut actions = HashMap::new();
    let opaque_all = |actions: &mut HashMap<Wire, WireAction>| {
        gate.for_each_wire(&mut |w| {
            actions.insert(w, WireAction::Opaque);
        });
    };
    match gate {
        Gate::QGate {
            name,
            targets,
            controls,
            ..
        } => {
            let action = qgate_action(name);
            for &t in targets {
                actions.insert(t, action);
            }
            mark_controls(&mut actions, controls);
        }
        Gate::QRot {
            name,
            targets,
            controls,
            ..
        } => {
            let action = qrot_action(name, targets);
            for &t in targets {
                actions.insert(t, action);
            }
            mark_controls(&mut actions, controls);
        }
        Gate::GPhase { controls, .. } => mark_controls(&mut actions, controls),
        // Everything else — initialization, termination, measurement,
        // discard, classical gates, whole subroutine calls, comments — is
        // treated as opaque on every wire it touches.
        _ => opaque_all(&mut actions),
    }
    actions
}

/// How a named gate acts on each of its targets.
fn qgate_action(name: &GateName) -> WireAction {
    match name {
        GateName::Z | GateName::S | GateName::T => WireAction::ZDiagonal,
        GateName::X | GateName::V => WireAction::XDiagonal,
        GateName::Y => WireAction::YDiagonal,
        GateName::H | GateName::W | GateName::Swap | GateName::Named(_) => WireAction::Opaque,
    }
}

/// How a rotation acts on each of its targets: only single-target rotations
/// of a known family are diagonal.
fn qrot_action(name: &str, targets: &[Wire]) -> WireAction {
    if targets.len() == 1 && Z_ROTS.contains(&name) {
        WireAction::ZDiagonal
    } else if targets.len() == 1 && name == "Ry(%)" {
        WireAction::YDiagonal
    } else {
        WireAction::Opaque
    }
}

/// A control wire is read in the computational basis — Z-diagonal — unless a
/// target action already claimed the wire (a self-controlled gate would be
/// malformed anyway; stay conservative).
fn mark_controls(actions: &mut HashMap<Wire, WireAction>, controls: &[Control]) {
    for c in controls {
        actions.entry(c.wire).or_insert(WireAction::ZDiagonal);
    }
}

/// Whether `pred` holds for every wire `gate` touches, given the action
/// [`wire_actions`] records for that wire; stops at the first `false`. A
/// wire the gate names twice is visited twice, with the same action both
/// times, so the answer is the map's without building it.
pub fn all_actions(gate: &Gate, mut pred: impl FnMut(Wire, WireAction) -> bool) -> bool {
    match gate {
        Gate::QGate {
            name,
            targets,
            controls,
            ..
        } => all_classified(targets, qgate_action(name), controls, &mut pred),
        Gate::QRot {
            name,
            targets,
            controls,
            ..
        } => all_classified(targets, qrot_action(name, targets), controls, &mut pred),
        Gate::GPhase { controls, .. } => {
            all_classified(&[], WireAction::ZDiagonal, controls, &mut pred)
        }
        _ => {
            let mut all = true;
            gate.for_each_wire(&mut |w| all = all && pred(w, WireAction::Opaque));
            all
        }
    }
}

/// [`all_actions`] for a unitary: `action` on every target, Z-diagonal on
/// every control that is not also a target (a control on a target keeps the
/// target's action, as `mark_controls` leaves a claimed wire alone).
fn all_classified(
    targets: &[Wire],
    action: WireAction,
    controls: &[Control],
    pred: &mut impl FnMut(Wire, WireAction) -> bool,
) -> bool {
    targets.iter().all(|&t| pred(t, action))
        && controls
            .iter()
            .filter(|c| !targets.contains(&c.wire))
            .all(|c| pred(c.wire, WireAction::ZDiagonal))
}

/// Whether `a` and `b` provably commute: on every shared wire both act
/// diagonally in the same basis. Sound, not complete.
pub fn commutes(a: &Gate, b: &Gate) -> bool {
    commutes_with(&wire_actions(a), b)
}

/// [`commutes`] against a precomputed action map, so a look-back scan
/// classifies the moving gate once. `b` is classified in place.
pub fn commutes_with(a: &HashMap<Wire, WireAction>, b: &Gate) -> bool {
    all_actions(b, |w, bact| match a.get(&w) {
        None => true,
        Some(&aact) => aact == bact && aact != WireAction::Opaque,
    })
}

/// Whether two control lists denote the same set of signed controls,
/// ignoring order: the same length, and each control as often in `b` as
/// in `a`. Counting allocates nothing; it is quadratic in the number of
/// controls, which callers reach only after names and targets match.
pub fn same_control_set(a: &[Control], b: &[Control]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let count = |list: &[Control], c: &Control| list.iter().filter(|&x| x == c).count();
    a.iter().all(|c| count(a, c) == count(b, c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cnot(target: u32, control: u32) -> Gate {
        Gate::cnot(Wire(target), Wire(control))
    }

    #[test]
    fn disjoint_gates_commute() {
        assert!(commutes(
            &Gate::unary(GateName::H, Wire(0)),
            &Gate::unary(GateName::H, Wire(1))
        ));
    }

    #[test]
    fn cnots_commute_through_shared_controls_and_targets() {
        // Shared control: both read wire 0 in the Z basis.
        assert!(commutes(&cnot(1, 0), &cnot(2, 0)));
        // Shared target: both flip wire 2 in the X basis.
        assert!(commutes(&cnot(2, 0), &cnot(2, 1)));
        // Control of one is the target of the other: do not commute.
        assert!(!commutes(&cnot(1, 0), &cnot(0, 2)));
    }

    #[test]
    fn diagonals_commute_with_controls() {
        let t = Gate::unary(GateName::T, Wire(0));
        assert!(commutes(&t, &cnot(1, 0)));
        assert!(!commutes(&t, &cnot(0, 1)));
        let x = Gate::unary(GateName::X, Wire(0));
        assert!(!commutes(&t, &x));
        assert!(commutes(&x, &cnot(0, 1)));
    }

    #[test]
    fn rotations_classify_by_family() {
        let rz = Gate::QRot {
            name: "exp(-i%Z)".into(),
            inverted: false,
            angle: 0.3,
            targets: vec![Wire(0)],
            controls: vec![],
        };
        let ry = Gate::QRot {
            name: "Ry(%)".into(),
            inverted: false,
            angle: 0.3,
            targets: vec![Wire(0)],
            controls: vec![],
        };
        assert!(commutes(&rz, &Gate::unary(GateName::Z, Wire(0))));
        assert!(commutes(&ry, &Gate::unary(GateName::Y, Wire(0))));
        assert!(!commutes(&rz, &ry));
        assert!(!commutes(&ry, &Gate::unary(GateName::X, Wire(0))));
    }

    #[test]
    fn measurement_is_opaque() {
        let m = Gate::QMeas { wire: Wire(0) };
        assert!(!commutes(&m, &Gate::unary(GateName::Z, Wire(0))));
        assert!(commutes(&m, &Gate::unary(GateName::Z, Wire(1))));
    }

    #[test]
    fn control_sets_compare_unordered() {
        let a = [Control::positive(Wire(0)), Control::negative(Wire(1))];
        let b = [Control::negative(Wire(1)), Control::positive(Wire(0))];
        assert!(same_control_set(&a, &b));
        assert!(!same_control_set(&a, &b[..1]));
    }
}
