//! Pauli-flow static analysis: QL040–QL043.
//!
//! This pass propagates *stabilizer generators* — signed Pauli strings that
//! provably stabilize the current state — forward through each scope, using
//! the exact Clifford rules of [`quipper_circuit::pauli::clifford`]. The
//! domain sees through Hadamards, which the basis-state domain in
//! `analyze.rs` cannot: `H` maps the generator `Z` to `X` instead of going
//! to ⊤.
//!
//! Four findings are derived:
//!
//! * **QL040 — provably deterministic measurement**: at a `QMeas` on wire
//!   `w`, if `±Z_w` lies in the group generated by the tracked stabilizers
//!   (decided by GF(2) Gaussian elimination over the symplectic
//!   representation, with exact `i`-phase bookkeeping, unless one pass over
//!   the generators already rules it out), the outcome is a constant.
//!   Soundness: every tracked generator `P` was seeded by a `QInit` (which
//!   its state provably satisfies) and transported only through *exact*
//!   steps — Clifford conjugation `P ↦ GPG†`, isometry intertwining for
//!   init/term, commuting-projector preservation at measurements — so the
//!   pre-measurement state is a `+1` eigenstate of every generator, hence
//!   of any product. If `(−1)^b·Z_w` is such a product, the measurement
//!   returns `b` with probability 1.
//! * **QL041 — Clifford-conjugated cancelling pair**: a Pauli gate whose
//!   string, conjugated through the intervening gates, lands exactly (sign
//!   `+1`) on a later Pauli gate: `g·C·g' = C` since `g' = C†gC`, so both
//!   gates can be deleted. This is the conjugation-powered generalization
//!   of QL030's adjacency-only pairs, surfaced as
//!   [`Redundancy::ConjugatePair`] facts for the optimizer.
//! * **QL042 — global-phase-only subcircuit**: a box body consisting solely
//!   of uncontrolled `GPhase` gates (and calls to such boxes) contributes
//!   only a global phase.
//! * **QL043 — identity phase-polynomial term**: phase gates acting on the
//!   same parity function within a CNOT+phase region whose net phase is the
//!   identity (see [`quipper_circuit::pauli::phase_groups`]).
//!
//! Subroutine calls are handled through memoized per-box *Clifford
//! summaries* in the style of `analyze.rs`: for each `(BoxId, inverted)`
//! pair, the images of `X` and `Z` on every quantum input are pushed through
//! the body once and cached, keyed by output position. Calls the summary
//! cannot transport exactly (controlled entry into the box, non-Clifford
//! bodies, unbounded repetition without a short cycle) drop the affected
//! generators — the analysis degrades, never lies.
//!
//! Only QL041 feeds the optimizer, so the module has two entry points:
//! [`conjugated_pairs`] runs per scope in both [`lint`](crate::lint) and
//! [`facts`](crate::facts), beside the QL030 pairs it must not overlap;
//! [`notes`] (QL040, QL042, QL043) runs in `lint` alone.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;

use quipper_circuit::pauli::{phase_groups, Pauli, PauliString};
use quipper_circuit::reverse::reverse_circuit;
use quipper_circuit::{BCircuit, BoxId, Circuit, Control, Gate, GateName, Wire, WireType};
use quipper_trace::names;

use crate::diag::Diagnostic;
use crate::facts::{FactScope, Facts, Redundancy};

/// Cap on tracked generators per scope (one per live initialized wire in
/// well-formed circuits; the cap only guards pathological inputs).
const MAX_GENERATORS: usize = 64;

/// How many non-comment gates a QL041 push scans before giving up.
const LOOKAHEAD: usize = 32;

/// Iteration budget for repeated calls before requiring a cycle.
const MAX_REPS: u64 = 64;

/// The notes only the report needs (QL040, QL042, QL043), and the
/// `lint.pauli.*` counters. `findings` already holds the QL041 pairs of
/// [`conjugated_pairs`], which runs in both products.
pub(crate) fn notes(bc: &BCircuit, findings: &mut Vec<Diagnostic>) {
    let mut flow = PauliFlow {
        bc,
        summaries: HashMap::new(),
        in_flight: HashSet::new(),
        generators_seeded: 0,
        deterministic_meas: 0,
    };
    flow.stabilizer_scope("main", &bc.main, findings);
    for (_, def) in bc.db.iter() {
        flow.stabilizer_scope(&def.name, &def.circuit, findings);
    }

    phase_only_boxes(bc, findings);

    identity_groups_scope("main", &bc.main, findings);
    for (_, def) in bc.db.iter() {
        identity_groups_scope(&def.name, &def.circuit, findings);
    }

    let conjugate_pairs = findings.iter().filter(|d| d.code == "QL041").count();
    quipper_trace::count(names::LINT_PAULI_GENERATORS, flow.generators_seeded);
    quipper_trace::count(names::LINT_PAULI_DET_MEAS, flow.deterministic_meas);
    quipper_trace::count(names::LINT_PAULI_CONJ_PAIRS, conjugate_pairs as u64);
}

// ---------------------------------------------------------------------
// Stabilizer propagation and box summaries (QL040)
// ---------------------------------------------------------------------

/// The exact Heisenberg action of a box body on its quantum inputs: images
/// of `X` and `Z` per input position, expressed over *output positions*
/// (re-keyed as `Wire(position)` so call sites can relabel them onto their
/// own wires). A component is `None` when the body could not transport that
/// basis string exactly.
struct CliffordSummary {
    images: HashMap<usize, (Option<PauliString>, Option<PauliString>)>,
}

struct PauliFlow<'a> {
    bc: &'a BCircuit,
    summaries: HashMap<(BoxId, bool), Option<Rc<CliffordSummary>>>,
    in_flight: HashSet<(BoxId, bool)>,
    generators_seeded: u64,
    deterministic_meas: u64,
}

impl PauliFlow<'_> {
    /// Walks one scope forward, maintaining the stabilizer generator set and
    /// emitting QL040 at provably deterministic measurements.
    fn stabilizer_scope(&mut self, scope: &str, circuit: &Circuit, findings: &mut Vec<Diagnostic>) {
        let mut gens: Vec<PauliString> = Vec::new();
        for (idx, gate) in circuit.gates.iter().enumerate() {
            match gate {
                Gate::Comment { .. } => {}
                Gate::QInit { value, wire } => {
                    // A recycled wire id sheds any stale generators first.
                    gens.retain(|g| !g.ops.contains_key(wire));
                    if gens.len() < MAX_GENERATORS {
                        let mut z = PauliString::single(*wire, Pauli::Z);
                        if *value {
                            z.negate();
                        }
                        gens.push(z);
                        self.generators_seeded += 1;
                    }
                }
                Gate::QMeas { wire } => match deterministic_outcome(&gens, *wire) {
                    Some(bit) => {
                        self.deterministic_meas += 1;
                        findings.push(Diagnostic::new(
                            "QL040",
                            scope,
                            Some(idx),
                            gate.describe(),
                            Some(*wire),
                            format!(
                                "measurement outcome is provably |{}⟩: {}Z on this wire \
                                 lies in the propagated stabilizer group, so the \
                                 measurement is deterministic and does not disturb the state",
                                u8::from(bit),
                                if bit { "-" } else { "+" },
                            ),
                        ));
                        // Deterministic ⇒ non-disturbing: all generators
                        // survive unchanged.
                    }
                    None => {
                        // Generators commuting with Z_w (Z/I there) commute
                        // with the outcome projector and survive collapse;
                        // anticommuting ones are destroyed.
                        gens.retain(|g| matches!(g.get(*wire), Pauli::I | Pauli::Z));
                    }
                },
                Gate::Subroutine {
                    id,
                    inverted,
                    inputs,
                    outputs,
                    controls,
                    repetitions,
                } => gens.retain_mut(|g| {
                    self.apply_call(g, *id, *inverted, inputs, outputs, controls, *repetitions)
                }),
                _ => gens.retain_mut(|g| g.conjugate(gate)),
            }
        }
    }

    /// The memoized summary of box `id` (reversed when `inverted`), or
    /// `None` for dangling ids, irreversible reversed bodies and recursion.
    fn summary(&mut self, id: BoxId, inverted: bool) -> Option<Rc<CliffordSummary>> {
        if let Some(s) = self.summaries.get(&(id, inverted)) {
            return s.clone();
        }
        if !self.in_flight.insert((id, inverted)) {
            return None; // recursive call chain: unmemoized unknown
        }
        let result = self.compute_summary(id, inverted);
        self.in_flight.remove(&(id, inverted));
        self.summaries.insert((id, inverted), result.clone());
        result
    }

    fn compute_summary(&mut self, id: BoxId, inverted: bool) -> Option<Rc<CliffordSummary>> {
        let def = self.bc.db.get(id).ok()?;
        let reversed;
        let body: &Circuit = if inverted {
            reversed = reverse_circuit(&def.circuit).ok()?;
            &reversed
        } else {
            &def.circuit
        };
        let out_pos: HashMap<Wire, usize> = body
            .outputs
            .iter()
            .enumerate()
            .map(|(i, &(w, _))| (w, i))
            .collect();
        let mut images = HashMap::new();
        for (i, &(w, ty)) in body.inputs.iter().enumerate() {
            if ty != WireType::Quantum {
                continue;
            }
            let push = |flow: &mut Self, p: Pauli| -> Option<PauliString> {
                let mut s = PauliString::single(w, p);
                for gate in &body.gates {
                    if !flow.transport_unitary(&mut s, gate) {
                        return None;
                    }
                }
                rekey(&s, &out_pos)
            };
            let x = push(self, Pauli::X);
            let z = push(self, Pauli::Z);
            images.insert(i, (x, z));
        }
        Some(Rc::new(CliffordSummary { images }))
    }

    /// One gate of exact transport inside a summarized body: conjugation for
    /// unitaries, intertwining for init/term (handled by `conjugate`'s
    /// disjoint-support tier), recursive summaries for nested calls.
    /// Returns `false`, leaving `s` unchanged, when it must be dropped.
    fn transport_unitary(&mut self, s: &mut PauliString, gate: &Gate) -> bool {
        match gate {
            Gate::Comment { .. } => true,
            Gate::Subroutine {
                id,
                inverted,
                inputs,
                outputs,
                controls,
                repetitions,
            } => self.apply_call(s, *id, *inverted, inputs, outputs, controls, *repetitions),
            _ => s.conjugate(gate),
        }
    }

    /// Transports a Pauli string in place through a subroutine call, using
    /// the box's Clifford summary. Returns `false`, leaving `s` unchanged,
    /// when the string must be dropped.
    #[allow(clippy::too_many_arguments)]
    fn apply_call(
        &mut self,
        s: &mut PauliString,
        id: BoxId,
        inverted: bool,
        inputs: &[Wire],
        outputs: &[Wire],
        controls: &[Control],
        repetitions: u64,
    ) -> bool {
        // X/Y on a control wire anticommutes with the control projector.
        if controls
            .iter()
            .any(|c| !matches!(s.get(c.wire), Pauli::I | Pauli::Z))
        {
            return false;
        }
        let touches_inputs = inputs.iter().any(|w| s.ops.contains_key(w));
        // Support on an output-only wire would reference a wire that does
        // not exist yet; only malformed circuits get here.
        if outputs
            .iter()
            .any(|w| !inputs.contains(w) && s.ops.contains_key(w))
        {
            return false;
        }
        if !touches_inputs {
            return true;
        }
        // The string enters the box. A controlled call is not the body's
        // unitary, so the summary does not apply.
        if !controls.is_empty() {
            return false;
        }
        if repetitions == 0 {
            return true;
        }
        if repetitions > 1 {
            // Iteration reuses the same interface wires each round.
            let mut ins = inputs.to_vec();
            let mut outs = outputs.to_vec();
            ins.sort_unstable();
            outs.sort_unstable();
            if ins != outs {
                return false;
            }
        }
        let Some(summary) = self.summary(id, inverted) else {
            return false;
        };
        let mut cur = s.clone();
        // seen[i] is the string after i applications; detect short cycles so
        // million-fold repetitions reduce to modular arithmetic.
        let mut seen: Vec<PauliString> = vec![cur.clone()];
        for step in 0..repetitions.min(MAX_REPS) {
            let Some(next) = apply_once(&summary, &cur, inputs, outputs) else {
                return false;
            };
            cur = next;
            if step + 1 == repetitions {
                *s = cur;
                return true;
            }
            if let Some(k) = seen.iter().position(|p| *p == cur) {
                let period = seen.len() as u64 - k as u64;
                let idx = k as u64 + (repetitions - k as u64) % period;
                *s = seen.swap_remove(idx as usize);
                return true;
            }
            seen.push(cur.clone());
        }
        false
    }
}

/// Applies a box summary once: factor the string over the call's input
/// wires, multiply the per-input images (relabeled from output positions to
/// the call's output wires), and carry passthrough factors unchanged.
/// Exact: images of commuting factors commute, and `Y = i·X·Z` composes
/// from the X and Z images with the tracked `i`.
fn apply_once(
    summary: &CliffordSummary,
    s: &PauliString,
    inputs: &[Wire],
    outputs: &[Wire],
) -> Option<PauliString> {
    let input_pos: HashMap<Wire, usize> = inputs.iter().enumerate().map(|(i, &w)| (w, i)).collect();
    let mut acc = PauliString {
        phase: s.phase,
        ops: BTreeMap::new(),
    };
    for (&w, &p) in &s.ops {
        if !input_pos.contains_key(&w) {
            acc.ops.insert(w, p);
        }
    }
    let relabel = |img: &Option<PauliString>| -> Option<PauliString> {
        let img = img.as_ref()?;
        let mut ops = BTreeMap::new();
        for (&pos, &q) in &img.ops {
            ops.insert(*outputs.get(pos.0 as usize)?, q);
        }
        Some(PauliString {
            phase: img.phase,
            ops,
        })
    };
    for (&w, &p) in &s.ops {
        let Some(&i) = input_pos.get(&w) else {
            continue;
        };
        let (imgx, imgz) = summary.images.get(&i)?;
        match p {
            Pauli::I => {}
            Pauli::X => acc = acc.mul(&relabel(imgx)?),
            Pauli::Z => acc = acc.mul(&relabel(imgz)?),
            Pauli::Y => {
                acc.phase = (acc.phase + 1) % 4;
                acc = acc.mul(&relabel(imgx)?);
                acc = acc.mul(&relabel(imgz)?);
            }
        }
    }
    Some(acc)
}

/// Re-keys a string's support from body output wires to output positions.
fn rekey(s: &PauliString, out_pos: &HashMap<Wire, usize>) -> Option<PauliString> {
    let mut ops = BTreeMap::new();
    for (&w, &p) in &s.ops {
        let pos = *out_pos.get(&w)?;
        ops.insert(Wire(u32::try_from(pos).ok()?), p);
    }
    Some(PauliString {
        phase: s.phase,
        ops,
    })
}

/// Whether measuring `Z` on `wire` has a provably constant outcome given
/// the stabilizer generators: `Some(b)` iff `(−1)^b·Z_wire` is a product of
/// generators.
///
/// One pass over the generators answers "no" in the common cases, before
/// any elimination: when no generator acts on `wire` (every product is the
/// identity there), and when one has `X` or `Y` there (`±Z_wire` would
/// anticommute with a member of an abelian group). Otherwise [`eliminate`]
/// decides.
fn deterministic_outcome(gens: &[PauliString], wire: Wire) -> Option<bool> {
    let mut acts = false;
    for g in gens {
        match g.get(wire) {
            Pauli::I => {}
            Pauli::Z => acts = true,
            Pauli::X | Pauli::Y => return None,
        }
    }
    if !acts {
        return None;
    }
    eliminate(gens, wire)
}

/// The membership test behind [`deterministic_outcome`], by GF(2) Gaussian
/// elimination over the symplectic (X-part, Z-part) bit planes —
/// [`PauliString::mul`] *is* bitwise XOR on those planes with exact
/// `i`-phase tracking, so reducing `Z_wire` against a row-echelon basis
/// leaves `i^0` (outcome 0), `i^2` (outcome 1), or a non-identity residue
/// (not in the group).
fn eliminate(gens: &[PauliString], wire: Wire) -> Option<bool> {
    let mut rows: Vec<PauliString> = gens.to_vec();
    let mut acc = PauliString::single(wire, Pauli::Z);
    let mut wires: BTreeSet<Wire> = rows.iter().flat_map(|r| r.ops.keys().copied()).collect();
    wires.insert(wire);
    let bit = |s: &PauliString, w: Wire, zpart: bool| -> bool {
        matches!(
            (s.get(w), zpart),
            (Pauli::X | Pauli::Y, false) | (Pauli::Z | Pauli::Y, true)
        )
    };
    let mut used = vec![false; rows.len()];
    for &w in &wires {
        for zpart in [false, true] {
            let Some(p) = (0..rows.len()).find(|&r| !used[r] && bit(&rows[r], w, zpart)) else {
                continue;
            };
            used[p] = true;
            let pivot = rows[p].clone();
            for (r, row) in rows.iter_mut().enumerate() {
                if r != p && !used[r] && bit(row, w, zpart) {
                    *row = row.mul(&pivot);
                }
            }
            if bit(&acc, w, zpart) {
                acc = acc.mul(&pivot);
            }
        }
    }
    if !acc.ops.is_empty() {
        return None;
    }
    match acc.phase {
        0 => Some(false),
        2 => Some(true),
        _ => None, // inconsistent phase: make no claim
    }
}

// ---------------------------------------------------------------------
// Clifford-conjugated cancelling pairs (QL041)
// ---------------------------------------------------------------------

/// The Pauli string of an uncontrolled single-target X/Y/Z gate (the
/// inversion flag is irrelevant: Paulis are self-inverse).
fn single_pauli(gate: &Gate) -> Option<PauliString> {
    let Gate::QGate {
        name,
        targets,
        controls,
        ..
    } = gate
    else {
        return None;
    };
    if !controls.is_empty() || targets.len() != 1 {
        return None;
    }
    let p = match name {
        GateName::X => Pauli::X,
        GateName::Y => Pauli::Y,
        GateName::Z => Pauli::Z,
        _ => return None,
    };
    Some(PauliString::single(targets[0], p))
}

/// Whether two index intervals interleave (overlap without nesting).
/// Facts-driven deletion of two operator-preserving pairs composes soundly
/// exactly when their intervals are disjoint or nested — an interleaved
/// deletion changes the segment the other pair's identity was proved over.
fn interleaves(a: (usize, usize), b: (usize, usize)) -> bool {
    (a.0 < b.0 && b.0 < a.1 && a.1 < b.1) || (b.0 < a.0 && a.0 < b.1 && b.1 < a.1)
}

/// The QL041 search over one scope, reported as findings and
/// [`Redundancy::ConjugatePair`] facts. `structural` holds the scope's
/// QL030 pairs ([`cancelling_pairs`](crate::structure::cancelling_pairs)).
pub(crate) fn conjugated_pairs(
    fact_scope: FactScope,
    scope: &str,
    circuit: &Circuit,
    structural: &[(usize, usize)],
    findings: &mut Vec<Diagnostic>,
    facts: &mut Facts,
) {
    // Gates already consumed by a structural QL030 pair are not eligible
    // again; the facts consumer deletes each pair at most once.
    let mut taken: HashSet<usize> = structural.iter().flat_map(|&(a, b)| [a, b]).collect();
    let mut accepted: Vec<(usize, usize)> = Vec::new();
    let gates = &circuit.gates;
    'starter: for i in 0..gates.len() {
        if taken.contains(&i) {
            continue;
        }
        let Some(mut s) = single_pauli(&gates[i]) else {
            continue;
        };
        let mut scanned = 0usize;
        for (j, gj) in gates.iter().enumerate().skip(i + 1) {
            if matches!(gj, Gate::Comment { .. }) {
                continue;
            }
            if scanned >= LOOKAHEAD {
                continue 'starter;
            }
            scanned += 1;
            if !taken.contains(&j) {
                if let Some(pj) = single_pauli(gj) {
                    // Exact match only: a sign-flipped match would leave a
                    // global −1, which is relative under controls.
                    if s.phase == 0 && s.ops == pj.ops {
                        let pair = (i, j);
                        if structural
                            .iter()
                            .chain(accepted.iter())
                            .all(|&q| !interleaves(pair, q))
                        {
                            taken.insert(i);
                            taken.insert(j);
                            accepted.push(pair);
                        }
                        continue 'starter;
                    }
                }
            }
            if !s.conjugate(gj) {
                continue 'starter;
            }
        }
    }
    for &(i, j) in &accepted {
        let wire = single_pauli(&gates[j]).and_then(|p| p.ops.keys().next().copied());
        findings.push(Diagnostic::new(
            "QL041",
            scope,
            Some(j),
            gates[j].describe(),
            wire,
            format!(
                "cancels with the {} at #{i}: the intervening Clifford segment \
                 conjugates one exactly onto the other, so deleting both \
                 preserves the circuit",
                gates[i].describe()
            ),
        ));
        facts.push(fact_scope, j, Redundancy::ConjugatePair { with: i });
    }
}

// ---------------------------------------------------------------------
// Global-phase-only boxes (QL042)
// ---------------------------------------------------------------------

/// `Some(n)` when the body of `id` contributes only a global phase, where
/// `n > 0` counts the phase gates involved (an empty body is the identity,
/// not a phase — not reported).
fn phase_contributions(
    bc: &BCircuit,
    id: BoxId,
    memo: &mut HashMap<BoxId, Option<u64>>,
    visiting: &mut HashSet<BoxId>,
) -> Option<u64> {
    if let Some(&m) = memo.get(&id) {
        return m;
    }
    if !visiting.insert(id) {
        return None;
    }
    let result = (|| {
        let def = bc.db.get(id).ok()?;
        let mut n: u64 = 0;
        for gate in &def.circuit.gates {
            match gate {
                Gate::Comment { .. } => {}
                Gate::GPhase { controls, .. } if controls.is_empty() => n = n.saturating_add(1),
                Gate::Subroutine {
                    id: inner,
                    controls,
                    repetitions,
                    ..
                } if controls.is_empty() => {
                    let m = phase_contributions(bc, *inner, memo, visiting)?;
                    n = n.saturating_add(m.saturating_mul(*repetitions));
                }
                _ => return None,
            }
        }
        Some(n)
    })();
    visiting.remove(&id);
    memo.insert(id, result);
    result
}

fn phase_only_boxes(bc: &BCircuit, findings: &mut Vec<Diagnostic>) {
    let mut memo = HashMap::new();
    for (id, def) in bc.db.iter() {
        let mut visiting = HashSet::new();
        if let Some(n) = phase_contributions(bc, id, &mut memo, &mut visiting) {
            if n > 0 {
                findings.push(Diagnostic::new(
                    "QL042",
                    &def.name,
                    None,
                    "body".to_string(),
                    None,
                    format!(
                        "subroutine body is global-phase-only ({n} phase gate{}): \
                         uncontrolled calls can be replaced by a single GPhase, \
                         and dropped entirely in main",
                        if n == 1 { "" } else { "s" },
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Identity phase-polynomial terms (QL043)
// ---------------------------------------------------------------------

fn identity_groups_scope(scope: &str, circuit: &Circuit, findings: &mut Vec<Diagnostic>) {
    for g in phase_groups(circuit) {
        if g.members.len() >= 2 && g.is_identity() {
            let last = *g.members.last().expect("non-empty group");
            findings.push(Diagnostic::new(
                "QL043",
                scope,
                Some(last),
                circuit.gates[last].describe(),
                Some(g.wire),
                format!(
                    "the {} phase gates on this parity (members at {:?}) sum to \
                     the identity: the whole group can be deleted",
                    g.members.len(),
                    g.members,
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{facts, lint, Severity};
    use proptest::prelude::*;
    use quipper::{Circ, Qubit};
    use quipper_circuit::{CircuitDb, WireType};

    fn codes(report: &crate::LintReport) -> Vec<&'static str> {
        report.findings.iter().map(|d| d.code).collect()
    }

    #[test]
    fn ghz_syndrome_measurement_is_deterministic() {
        // GHZ3 plus a parity ancilla: Z_a = (Z0Z1)·(Z0Z1Za) lies in the
        // stabilizer group, so measuring the ancilla is provably |0⟩, while
        // measuring a GHZ leg is genuinely random.
        let bc = Circ::build(&(), |c, ()| {
            let q: Vec<Qubit> = (0..3).map(|_| c.qinit_bit(false)).collect();
            c.hadamard(q[0]);
            c.cnot(q[1], q[0]);
            c.cnot(q[2], q[1]);
            let anc = c.qinit_bit(false);
            c.cnot(anc, q[0]);
            c.cnot(anc, q[1]);
            let syndrome = c.measure_bit(anc);
            let leg = c.measure_bit(q[0]);
            c.cdiscard(syndrome);
            c.cdiscard(leg);
            c.qdiscard(q[1]);
            c.qdiscard(q[2]);
        });
        let report = lint(&bc);
        let ql040: Vec<_> = report
            .findings
            .iter()
            .filter(|d| d.code == "QL040")
            .collect();
        assert_eq!(ql040.len(), 1, "{report}");
        assert!(ql040[0].message.contains("|0⟩"), "{}", ql040[0].message);
        assert_eq!(ql040[0].severity, Severity::Note);
    }

    #[test]
    fn negative_seeded_ancilla_measures_one() {
        let bc = Circ::build(&(), |c, ()| {
            let a = c.qinit_bit(true);
            let m = c.measure_bit(a);
            c.cdiscard(m);
        });
        let report = lint(&bc);
        let d = report.findings.iter().find(|d| d.code == "QL040").unwrap();
        assert!(d.message.contains("|1⟩"), "{}", d.message);
    }

    #[test]
    fn superposed_measurement_is_not_flagged() {
        let bc = Circ::build(&(), |c, ()| {
            let a = c.qinit_bit(false);
            c.hadamard(a);
            let m = c.measure_bit(a);
            c.cdiscard(m);
        });
        assert!(!codes(&lint(&bc)).contains(&"QL040"));
    }

    #[test]
    fn box_summaries_carry_stabilizers_through_calls() {
        // Bell-pair prep lives in a box; the parity check in main still
        // proves the syndrome deterministic, which requires the (BoxId,
        // inverted)-memoized Clifford summary to transport X and Z exactly.
        let bc = Circ::build(&(), |c, ()| {
            let a = c.qinit_bit(false);
            let b = c.qinit_bit(false);
            let (a, b) = c.box_circ("bell", (a, b), |c, (a, b)| {
                c.hadamard(a);
                c.cnot(b, a);
                (a, b)
            });
            let anc = c.qinit_bit(false);
            c.cnot(anc, a);
            c.cnot(anc, b);
            let m = c.measure_bit(anc);
            c.cdiscard(m);
            c.qdiscard(a);
            c.qdiscard(b);
        });
        let report = lint(&bc);
        assert!(codes(&report).contains(&"QL040"), "{report}");
    }

    #[test]
    fn repeated_pauli_boxes_resolve_by_cycle_detection() {
        // X iterated: the generator alternates +Z / −Z with period 2, so a
        // million-and-one repetitions flip the outcome — without walking
        // 10^6 steps.
        let build = |reps: u64| {
            Circ::build(&(), |c, ()| {
                let q = c.qinit_bit(false);
                let q = c.box_repeat("flip", "", reps, q, |c, q| {
                    c.qnot(q);
                    q
                });
                let m = c.measure_bit(q);
                c.cdiscard(m);
            })
        };
        let even = lint(&build(1_000_000));
        let d = even.findings.iter().find(|d| d.code == "QL040").unwrap();
        assert!(d.message.contains("|0⟩"), "{}", d.message);
        let odd = lint(&build(1_000_001));
        let d = odd.findings.iter().find(|d| d.code == "QL040").unwrap();
        assert!(d.message.contains("|1⟩"), "{}", d.message);
    }

    #[test]
    fn conjugated_pair_through_hadamard_is_found_with_fact() {
        // Z · H · X: H conjugates Z onto X exactly, so the outer pair
        // cancels even though QL030's adjacency test cannot see it.
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.gate_z(q);
            c.hadamard(q);
            c.qnot(q);
            q
        });
        let (report, facts) = (lint(&bc), facts(&bc));
        let d = report.findings.iter().find(|d| d.code == "QL041").unwrap();
        assert_eq!(d.gate_index, Some(2), "{report}");
        let fact = facts.iter().find(|f| f.code() == "QL041").unwrap();
        assert_eq!(fact.gate_index, 2);
        assert_eq!(fact.reason, Redundancy::ConjugatePair { with: 0 });
    }

    #[test]
    fn sign_flipped_conjugation_is_not_a_pair() {
        // X · Z · X = −Z · ... : pushing X through Z lands on −X, and a
        // −1 match is a global phase — relative under controls — so no pair.
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.qnot(q);
            c.gate_z(q);
            c.qnot(q);
            q
        });
        assert!(!codes(&lint(&bc)).contains(&"QL041"));
    }

    #[test]
    fn opaque_gates_stop_the_push() {
        // T is not Clifford for an X string: the push must stop, not guess.
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.qnot(q);
            c.gate_t(q);
            c.qnot(q);
            q
        });
        assert!(!codes(&lint(&bc)).contains(&"QL041"));
    }

    #[test]
    fn adjacent_pauli_pairs_stay_ql030() {
        // X·X is QL030's; QL041 must not double-report the same pair.
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.qnot(q);
            c.qnot(q);
            q
        });
        let report = lint(&bc);
        assert!(codes(&report).contains(&"QL030"), "{report}");
        assert!(!codes(&report).contains(&"QL041"), "{report}");
    }

    #[test]
    fn global_phase_only_box_is_noted() {
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.box_circ("phase", q, |c, q| {
                c.gphase(0.25);
                c.gphase(0.5);
                q
            })
        });
        let report = lint(&bc);
        let d = report.findings.iter().find(|d| d.code == "QL042").unwrap();
        assert_eq!(d.scope, "phase");
        assert!(d.message.contains("2 phase gates"), "{}", d.message);
        // A box with real gates is not phase-only.
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.box_circ("mixed", q, |c, q| {
                c.gphase(0.25);
                c.hadamard(q);
                q
            })
        });
        assert!(!codes(&lint(&bc)).contains(&"QL042"));
    }

    #[test]
    fn identity_phase_polynomial_term_is_noted() {
        // T(q) · CNOT(r←q) · T†(q): the CNOT leaves q's parity unchanged,
        // so the two T's share a parity and sum to zero.
        let mut c = quipper_circuit::Circuit::with_inputs(vec![
            (Wire(0), WireType::Quantum),
            (Wire(1), WireType::Quantum),
        ]);
        c.gates = vec![
            Gate::unary(GateName::T, Wire(0)),
            Gate::cnot(Wire(1), Wire(0)),
            Gate::QGate {
                name: GateName::T,
                inverted: true,
                targets: vec![Wire(0)],
                controls: vec![],
            },
        ];
        c.outputs = c.inputs.clone();
        c.recompute_wire_bound();
        let bc = BCircuit::new(CircuitDb::new(), c);
        let report = lint(&bc);
        let d = report.findings.iter().find(|d| d.code == "QL043").unwrap();
        assert_eq!(d.gate_index, Some(2), "{report}");
        assert_eq!(d.severity, Severity::Note);
    }

    #[test]
    fn inverted_box_calls_use_the_reversed_summary() {
        // Box b = {H, S}: calling b then b⁻¹ returns the generator to Z, so
        // the final measurement is deterministic — but only if the inverted
        // call transports through the *reversed* body's summary.
        let body = |c: &mut Circ, q: Qubit| {
            c.hadamard(q);
            c.gate_s(q);
            q
        };
        let bc = Circ::build(&(), |c, ()| {
            let q = c.qinit_bit(false);
            let q = c.box_circ("had", q, body);
            let q = c.box_circ_inverse("had", "", &q, body, q);
            let m = c.measure_bit(q);
            c.cdiscard(m);
        });
        let report = lint(&bc);
        assert!(codes(&report).contains(&"QL040"), "{report}");
    }

    const WIRES: u32 = 5;

    /// A Clifford gate the Pauli strings transport exactly: `kind` picks
    /// H, S, S†, X, Y, Z, CNOT, negatively controlled CNOT or CZ.
    fn clifford_gate(kind: u8, a: u32, b: u32) -> Gate {
        let (a, b) = (Wire(a), Wire(b));
        let one = |name, inverted| Gate::QGate {
            name,
            inverted,
            targets: vec![a],
            controls: vec![],
        };
        let two = |name, control| Gate::QGate {
            name,
            inverted: false,
            targets: vec![a],
            controls: vec![control],
        };
        match kind {
            0 => one(GateName::H, false),
            1 => one(GateName::S, false),
            2 => one(GateName::S, true),
            3 => one(GateName::X, false),
            4 => one(GateName::Y, false),
            5 => one(GateName::Z, false),
            _ if a == b => one(GateName::H, false),
            6 => two(GateName::X, Control::positive(b)),
            7 => two(GateName::X, Control::negative(b)),
            _ => two(GateName::Z, Control::positive(b)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass exits only skip eliminations that would answer
        /// "no": on generator sets reached from seeded `±Z_w` by Clifford
        /// gates, some of them then dropped, `deterministic_outcome`
        /// answers as `eliminate` does on every wire.
        #[test]
        fn one_pass_exits_agree_with_elimination(
            signs in proptest::collection::vec(any::<bool>(), WIRES as usize),
            gates in proptest::collection::vec((0u8..9, 0..WIRES, 0..WIRES), 0..12),
            keep in proptest::collection::vec(any::<bool>(), WIRES as usize),
        ) {
            let mut gens: Vec<PauliString> = (0..WIRES)
                .zip(&signs)
                .map(|(w, &negative)| {
                    let mut z = PauliString::single(Wire(w), Pauli::Z);
                    if negative {
                        z.negate();
                    }
                    z
                })
                .collect();
            for &(kind, a, b) in &gates {
                let gate = clifford_gate(kind, a, b);
                for g in &mut gens {
                    prop_assert!(g.conjugate(&gate), "{}", gate.describe());
                }
            }
            let kept: Vec<PauliString> = gens
                .into_iter()
                .zip(&keep)
                .filter_map(|(g, &k)| k.then_some(g))
                .collect();
            // One wire past the seeded ones, which no generator acts on.
            for w in 0..=WIRES {
                prop_assert_eq!(
                    deterministic_outcome(&kept, Wire(w)),
                    eliminate(&kept, Wire(w)),
                    "wire {} of {:?}", w, kept
                );
            }
        }
    }
}
