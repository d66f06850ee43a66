//! The rewrite passes behind [`optimize`](crate::optimize).
//!
//! Every pass is scope-local: it rewrites `main` and each box body
//! independently and in place ([`map_scopes`]), never adding, removing or
//! renaming boxes, so box ids and the subroutine calls naming them stay as
//! they are. A pass hands back new gates only for a scope it rewrote, and
//! counts one rewrite or more for it; a scope it cannot rewrite is found by
//! a scan, before any copy.
//!
//! Soundness note: rewrites inside a box body apply to the body *as
//! written*. Inverted call sites execute the reversed body, and controlled
//! call sites push their controls onto every body gate — both distribute
//! over the rewrites used here (deleting an identity sub-sequence, merging
//! rotations, dropping a provably-constant control), with one exception:
//! an *uncontrolled* global phase is only droppable where no caller can
//! ever control it, i.e. in `main` ([`merge_pass`] takes a flag).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use quipper_circuit::commute::{
    all_actions, commutes_with, same_control_set, wire_actions, WireAction,
};
use quipper_circuit::{BCircuit, BoxId, Circuit, Gate, Wire};
use quipper_lint::{FactScope, Redundancy};

/// How far a look-back scan walks past commuting gates before giving up.
/// Bounds worst-case sweep cost at `LOOKBACK * gates` per scope.
const LOOKBACK: usize = 32;

/// Angle slop below which a rotation is treated as the identity. Exact
/// cancellations (`θ + (−θ)`, `π/4 · 8`) land on zero or an exact period
/// multiple; this only absorbs the last few ulps of float error.
const EPS: f64 = 1e-12;

/// Applies `rewrite` to every scope — each box body, then `main` — in
/// place. A scope `rewrite` returns `None` for is left as it is, neither
/// rebuilt nor cloned; the first scope it rewrites makes `bc` owned. Box
/// ids never change. Returns whether any scope was rewritten.
pub(crate) fn map_scopes(
    bc: &mut Cow<'_, BCircuit>,
    mut rewrite: impl FnMut(FactScope, &Circuit) -> Option<Vec<Gate>>,
) -> bool {
    let mut changed = false;
    for index in 0..bc.db.len() {
        let id = BoxId(index as u32);
        let body = &bc.db.get(id).expect("ids below len").circuit;
        if let Some(gates) = rewrite(FactScope::Box(id), body) {
            let body = bc.to_mut().db.body_mut(id).expect("ids below len");
            body.gates = gates;
            body.recompute_wire_bound();
            changed = true;
        }
    }
    if let Some(gates) = rewrite(FactScope::Main, &bc.main) {
        let main = &mut bc.to_mut().main;
        main.gates = gates;
        main.recompute_wire_bound();
        changed = true;
    }
    changed
}

// ---------------------------------------------------------------------
// Facts-seeded cleanup (lint QL030–QL032)
// ---------------------------------------------------------------------

/// Whether a gate may be deleted outright when a fact proves it redundant.
/// Subroutine calls are excluded: a pair/never-fires fact about a call is
/// sound, but deleting calls can orphan box definitions and confuses
/// resource accounting — leave them to the linter's human-facing report.
fn deletable(gate: &Gate) -> bool {
    matches!(
        gate,
        Gate::QGate { .. } | Gate::QRot { .. } | Gate::GPhase { .. }
    )
}

/// Removes the controls that `drops` proved constant-true.
fn drop_controls(gate: &Gate, drops: &[(Wire, bool)], rewrites: &mut u64) -> Gate {
    let mut g = gate.clone();
    let controls = match &mut g {
        Gate::QGate { controls, .. }
        | Gate::QRot { controls, .. }
        | Gate::GPhase { controls, .. }
        | Gate::Subroutine { controls, .. } => controls,
        _ => return g,
    };
    for &(wire, positive) in drops {
        if let Some(pos) = controls
            .iter()
            .position(|c| c.wire == wire && c.positive == positive)
        {
            controls.remove(pos);
            *rewrites += 1;
        }
    }
    g
}

/// Consumes the linter's redundancy facts (QL030 cancelling pairs, QL031
/// constant controls, QL032 statically blocked gates) and applies them in a
/// single sweep per scope, so every fact index stays valid while it is
/// acted on. A scope without facts is not visited.
pub(crate) fn facts_cleanup(bc: &mut Cow<'_, BCircuit>, rewrites: &mut u64) -> bool {
    let facts = quipper_lint::facts(bc);
    if facts.is_empty() {
        return false;
    }
    map_scopes(bc, |scope, circuit| {
        facts.for_scope(scope).next()?;
        let mut delete: HashSet<usize> = HashSet::new();
        let mut drops: HashMap<usize, Vec<(Wire, bool)>> = HashMap::new();
        // Blocked gates first: a never-firing gate is deleted regardless of
        // any pair it participates in.
        for fact in facts.for_scope(scope) {
            if let Redundancy::NeverFires { .. } = fact.reason {
                if deletable(&circuit.gates[fact.gate_index]) {
                    delete.insert(fact.gate_index);
                }
            }
        }
        // Cancelling pairs drop both ends, but only when neither end was
        // already deleted — deleting one survivor of a half-dead pair would
        // change semantics. Clifford-conjugated pairs (QL041) are deleted
        // under the same rule; the linter guarantees the recorded pair
        // intervals never interleave, so deleting any subset composes.
        for fact in facts.for_scope(scope) {
            let (Redundancy::CancelsPair { with } | Redundancy::ConjugatePair { with }) =
                fact.reason
            else {
                continue;
            };
            let (a, b) = (with, fact.gate_index);
            if !delete.contains(&a)
                && !delete.contains(&b)
                && deletable(&circuit.gates[a])
                && deletable(&circuit.gates[b])
            {
                delete.insert(a);
                delete.insert(b);
            }
        }
        for fact in facts.for_scope(scope) {
            if let Redundancy::ConstControl { wire, positive } = fact.reason {
                if !delete.contains(&fact.gate_index) {
                    drops
                        .entry(fact.gate_index)
                        .or_default()
                        .push((wire, positive));
                }
            }
        }
        let start = *rewrites;
        let mut gates = Vec::with_capacity(circuit.gates.len());
        for (idx, gate) in circuit.gates.iter().enumerate() {
            if delete.contains(&idx) {
                *rewrites += 1;
                continue;
            }
            match drops.get(&idx) {
                Some(d) => gates.push(drop_controls(gate, d, rewrites)),
                None => gates.push(gate.clone()),
            }
        }
        (*rewrites > start).then_some(gates)
    })
}

// ---------------------------------------------------------------------
// Commutation-aware cancellation
// ---------------------------------------------------------------------

/// Whether `prev · g = I` and both may go: the linter's QL030 rule
/// ([`Gate::undoes`]) under this pass's [`deletable`] filter.
fn cancels(prev: &Gate, g: &Gate) -> bool {
    deletable(prev) && g.undoes(prev)
}

/// Deletes inverse pairs that become adjacent after commuting one gate of
/// the pair past provably-commuting neighbours, sweeping to a fixpoint.
/// Strictly more powerful than the linter's QL030 (which requires the pair
/// to be wire-adjacent): `T(q1)` between `H(q0) H(q0)` hides nothing, and
/// a CNOT chain sharing only controls commutes out of the way. The sweeps
/// only delete, so they run over gate indices; `None` when nothing cancels.
pub(crate) fn cancel_pass(gates: &[Gate], rewrites: &mut u64) -> Option<Vec<Gate>> {
    let mut current: Vec<usize> = (0..gates.len()).collect();
    loop {
        let before = current.len();
        current = cancel_sweep(gates, current, rewrites);
        if current.len() == before {
            break;
        }
    }
    (current.len() < gates.len()).then(|| current.iter().map(|&i| gates[i].clone()).collect())
}

fn cancel_sweep(gates: &[Gate], order: Vec<usize>, rewrites: &mut u64) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(order.len());
    'next: for i in order {
        let g = &gates[i];
        if deletable(g) {
            let actions = wire_actions(g);
            let mut idx = out.len();
            let mut steps = 0usize;
            while idx > 0 && steps < LOOKBACK {
                idx -= 1;
                steps += 1;
                let prev = &gates[out[idx]];
                if matches!(prev, Gate::Comment { .. }) {
                    continue;
                }
                if cancels(prev, g) {
                    out.remove(idx);
                    *rewrites += 1;
                    continue 'next;
                }
                if !commutes_with(&actions, prev) {
                    break;
                }
            }
        }
        out.push(i);
    }
    out
}

// ---------------------------------------------------------------------
// Rotation / phase merging
// ---------------------------------------------------------------------

/// The identity period of an angle-additive rotation family, in the same
/// units the simulator interprets: `exp(-i%Z)` and `R(%)` repeat at 2π,
/// `Ry(%)` only at 4π (2π is a global −1, which is *relative* under
/// controls), and `R(2pi/%)`'s parameter is an exponent, not additive.
fn additive_period(name: &str) -> Option<f64> {
    match name {
        "exp(-i%Z)" | "R(%)" => Some(std::f64::consts::TAU),
        "Ry(%)" => Some(2.0 * std::f64::consts::TAU),
        _ => None,
    }
}

/// The dagger flag folds into the angle for additive families.
fn signed_angle(angle: f64, inverted: bool) -> f64 {
    if inverted {
        -angle
    } else {
        angle
    }
}

/// Whether `angle` is within [`EPS`] of a multiple of `period`.
fn is_identity_angle(angle: f64, period: f64) -> bool {
    let r = angle.rem_euclid(period);
    r < EPS || period - r < EPS
}

/// Merges `g` into a matching earlier rotation: same family, same single
/// target, same control set. Returns `Some(None)` when the sum is the
/// identity, `Some(Some(m))` to replace the earlier gate with the merged
/// rotation, `None` when the gates don't merge.
fn merge_rot(prev: &Gate, g: &Gate, period: f64) -> Option<Option<Gate>> {
    let (
        Gate::QRot {
            name: pn,
            inverted: pi,
            angle: pa,
            targets: pt,
            controls: pc,
        },
        Gate::QRot {
            name: gn,
            inverted: gi,
            angle: ga,
            targets: gt,
            controls: gc,
        },
    ) = (prev, g)
    else {
        return None;
    };
    if pn != gn || pt != gt || !same_control_set(pc, gc) {
        return None;
    }
    let sum = signed_angle(*pa, *pi) + signed_angle(*ga, *gi);
    if is_identity_angle(sum, period) {
        return Some(None);
    }
    Some(Some(Gate::QRot {
        name: pn.clone(),
        inverted: false,
        angle: sum,
        targets: pt.clone(),
        controls: pc.clone(),
    }))
}

/// [`merge_rot`] for controlled global phases (π units, period 2).
fn merge_phase(prev: &Gate, g: &Gate) -> Option<Option<Gate>> {
    let (
        Gate::GPhase {
            angle: pa,
            controls: pc,
        },
        Gate::GPhase {
            angle: ga,
            controls: gc,
        },
    ) = (prev, g)
    else {
        return None;
    };
    if !same_control_set(pc, gc) {
        return None;
    }
    let sum = pa + ga;
    if is_identity_angle(sum, 2.0) {
        return Some(None);
    }
    Some(Some(Gate::GPhase {
        angle: sum,
        controls: pc.clone(),
    }))
}

/// Folds runs of same-family rotations on a wire (commuting past unrelated
/// gates), drops rotations whose angle reduces to the identity, and — in
/// `main` only, where no caller can ever attach controls — discards
/// uncontrolled global phases outright.
///
/// Only a rotation or a global phase can merge or drop, so a scope with
/// neither is untriggered: `None` after one scan, as for any scope the pass
/// leaves alone.
pub(crate) fn merge_pass(gates: &[Gate], in_main: bool, rewrites: &mut u64) -> Option<Vec<Gate>> {
    if !gates
        .iter()
        .any(|g| matches!(g, Gate::QRot { .. } | Gate::GPhase { .. }))
    {
        return None;
    }
    let start = *rewrites;
    let mut current = gates.to_vec();
    loop {
        let before = current.len();
        current = merge_sweep(current, in_main, rewrites);
        if current.len() == before {
            return (*rewrites > start).then_some(current);
        }
    }
}

fn merge_sweep(gates: Vec<Gate>, in_main: bool, rewrites: &mut u64) -> Vec<Gate> {
    let mut out: Vec<Gate> = Vec::with_capacity(gates.len());
    'next: for g in gates {
        let merge: Option<(f64, bool)> = match &g {
            Gate::QRot {
                name,
                inverted,
                angle,
                targets,
                ..
            } if targets.len() == 1 => additive_period(name.as_ref()).map(|period| {
                (
                    period,
                    is_identity_angle(signed_angle(*angle, *inverted), period),
                )
            }),
            Gate::GPhase { angle, controls } => {
                if in_main && controls.is_empty() {
                    // A truly global phase is unobservable.
                    *rewrites += 1;
                    continue;
                }
                Some((2.0, is_identity_angle(*angle, 2.0)))
            }
            _ => None,
        };
        if let Some((period, identity)) = merge {
            if identity {
                *rewrites += 1;
                continue;
            }
            let actions = wire_actions(&g);
            let mut idx = out.len();
            let mut steps = 0usize;
            while idx > 0 && steps < LOOKBACK {
                idx -= 1;
                steps += 1;
                let prev = &out[idx];
                if matches!(prev, Gate::Comment { .. }) {
                    continue;
                }
                let merged = match &g {
                    Gate::GPhase { .. } => merge_phase(prev, &g),
                    _ => merge_rot(prev, &g, period),
                };
                if let Some(replacement) = merged {
                    out.remove(idx);
                    *rewrites += 1;
                    if let Some(m) = replacement {
                        out.insert(idx, m);
                    }
                    continue 'next;
                }
                if !commutes_with(&actions, prev) {
                    break;
                }
            }
        }
        out.push(g);
    }
    out
}

// ---------------------------------------------------------------------
// Clifford pushing into measurements and discards
// ---------------------------------------------------------------------

/// What a wire's remaining future consists of, walking backward.
#[derive(Copy, Clone, PartialEq, Eq)]
enum AbsorbKind {
    /// Only computational-basis-diagonal gates, then a measurement (or a
    /// discard behind further diagonal gates): a Z-diagonal action here
    /// commutes through to the boundary and becomes an unobservable
    /// per-branch phase.
    Meas,
    /// Nothing at all touches the wire until it is discarded: any action
    /// here is traced out.
    Discard,
}

/// Deletes terminal gates whose entire effect is absorbed by measurements
/// and discards: a gate every wire of which ends in an absorbing boundary,
/// acting Z-diagonally on each measured wire (arbitrary actions are allowed
/// only on discard-bound wires). This is the classic "push terminal
/// Cliffords into the measurement frame", generalized to any diagonal gate.
///
/// Sound in box bodies too: a body containing measurements or discards is
/// already uncontrollable/irreversible, so every call site executes it
/// as written — except that an *uncontrolled* global phase (which touches
/// no wires) is only droppable in `main`, exactly as in [`merge_pass`].
///
/// Never grows the circuit; `None` when nothing is absorbed.
pub(crate) fn clifford_push_pass(
    gates: &[Gate],
    in_main: bool,
    rewrites: &mut u64,
    absorbed: &mut u64,
) -> Option<Vec<Gate>> {
    let mut absorbing: HashMap<Wire, AbsorbKind> = HashMap::new();
    let mut keep = vec![true; gates.len()];
    for (idx, gate) in gates.iter().enumerate().rev() {
        match gate {
            Gate::Comment { .. } => {}
            Gate::QMeas { wire } => {
                absorbing.insert(*wire, AbsorbKind::Meas);
            }
            Gate::QDiscard { wire } | Gate::CDiscard { wire } => {
                absorbing.insert(*wire, AbsorbKind::Discard);
            }
            // A boundary into a previous incarnation of the wire id: the
            // absorption claim must not leak across it.
            Gate::QInit { wire, .. }
            | Gate::QTerm { wire, .. }
            | Gate::CInit { wire, .. }
            | Gate::CTerm { wire, .. } => {
                absorbing.remove(wire);
            }
            Gate::QGate { .. } | Gate::QRot { .. } | Gate::GPhase { .. } => {
                let mut touches = false;
                let absorbed_on_every_wire = all_actions(gate, |w, action| {
                    touches = true;
                    match absorbing.get(&w) {
                        Some(AbsorbKind::Discard) => true,
                        Some(AbsorbKind::Meas) => action == WireAction::ZDiagonal,
                        None => false,
                    }
                });
                if absorbed_on_every_wire && (in_main || touches) && deletable(gate) {
                    keep[idx] = false;
                    *rewrites += 1;
                    *absorbed += 1;
                } else {
                    // The gate stays: earlier gates on its wires must now
                    // commute through it to reach the boundary, which the
                    // deletion rule guarantees only for mutually Z-diagonal
                    // actions.
                    all_actions(gate, |w, action| {
                        if action == WireAction::ZDiagonal {
                            if let Some(k) = absorbing.get_mut(&w) {
                                *k = AbsorbKind::Meas;
                            }
                        } else {
                            absorbing.remove(&w);
                        }
                        true
                    });
                }
            }
            _ => {
                // Subroutine calls, classical gates: opaque; every touched
                // wire loses its absorption claim.
                gate.for_each_wire(&mut |w| {
                    absorbing.remove(&w);
                });
            }
        }
    }
    keep.contains(&false).then(|| {
        let kept = gates.iter().zip(&keep).filter(|&(_, &k)| k);
        kept.map(|(g, _)| g.clone()).collect()
    })
}

// ---------------------------------------------------------------------
// Phase-polynomial re-synthesis of CNOT+phase regions
// ---------------------------------------------------------------------

/// Re-synthesizes same-parity phase gates within {CNOT, X, Swap, phase}
/// regions from their phase-polynomial representation (see
/// [`quipper_circuit::pauli::phase_groups`]): all rotations on one parity
/// term merge into a single canonical gate sequence at the site of the
/// group's first member, cutting T-count. A group is only rewritten when
/// the replacement is strictly shorter than the members it replaces, so the
/// pass never grows the circuit.
///
/// Exact unitary equality (not up to global phase): each member applies a
/// diagonal phase determined solely by the parity function the wire carries
/// at that moment, which is the same for every member of a group, so the
/// product telescopes into the merged gate placed at the first site.
///
/// A group has two or more phase terms
/// ([`is_phase_term`](quipper_circuit::pauli::is_phase_term)), so a scope
/// with fewer is untriggered: `None` after one scan, as for any scope the
/// pass leaves alone.
pub(crate) fn phasepoly_pass(
    circuit: &Circuit,
    rewrites: &mut u64,
    merged: &mut u64,
    removed: &mut u64,
) -> Option<Vec<Gate>> {
    use quipper_circuit::pauli::{gates_for_units, is_phase_term, PhaseFamily};

    circuit.gates.iter().filter(|g| is_phase_term(g)).nth(1)?;
    let groups = quipper_circuit::pauli::phase_groups(circuit);
    let mut delete: HashSet<usize> = HashSet::new();
    // Replacement gates to splice in *before* the gate at each index.
    let mut splice: HashMap<usize, Vec<Gate>> = HashMap::new();
    for g in &groups {
        if g.members.len() < 2 {
            continue;
        }
        let replacement: Vec<Gate> = match &g.family {
            PhaseFamily::Named => gates_for_units(g.units, g.wire),
            PhaseFamily::Rot(name) => {
                let period = additive_period(name).unwrap_or(f64::INFINITY);
                if is_identity_angle(g.angle, period) {
                    Vec::new()
                } else {
                    vec![Gate::QRot {
                        name: name.clone(),
                        inverted: false,
                        angle: g.angle,
                        targets: vec![g.wire],
                        controls: vec![],
                    }]
                }
            }
        };
        if replacement.len() >= g.members.len() {
            continue;
        }
        *rewrites += 1;
        *merged += 1;
        *removed += (g.members.len() - replacement.len()) as u64;
        delete.extend(g.members.iter().copied());
        splice.insert(g.members[0], replacement);
    }
    if delete.is_empty() {
        return None;
    }
    let mut out = Vec::with_capacity(circuit.gates.len());
    for (idx, gate) in circuit.gates.iter().enumerate() {
        if let Some(repl) = splice.remove(&idx) {
            out.extend(repl);
        }
        if !delete.contains(&idx) {
            out.push(gate.clone());
        }
    }
    Some(out)
}
