//! The structural redundancy pass: adjacent gate/adjoint pairs.
//!
//! The fuse pass in `quipper-sim` silently cancels a unitary immediately
//! followed by its inverse on the same wires; this pass surfaces those pairs
//! as warnings (QL030) so the source can be cleaned up instead. A pair
//! counts only if *no* intervening gate touches any of its wires, and each
//! gate participates in at most one pair (H·H·H·H reports two pairs, not
//! three), matching what fusion would actually remove.
//!
//! Initialization/termination pairs are deliberately excluded: a `QTerm`
//! followed by a `QInit` on a recycled wire id is the ancilla-pooling
//! pattern from paper §4.2.1, not a mistake.

use std::collections::HashMap;

use quipper_circuit::{Circuit, Gate, Wire};

use crate::diag::Diagnostic;
use crate::facts::{FactScope, Facts, Redundancy};

/// Sentinel for "this gate already cancelled into an earlier pair".
const CONSUMED: usize = usize::MAX;

/// The adjacent gate/adjoint pairs fusion would remove, as `(earlier, later)`
/// index pairs. Each gate participates in at most one pair.
pub(crate) fn cancelling_pairs(circuit: &Circuit) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    // For each wire, the index of the last non-comment gate that touched it.
    let mut last: HashMap<Wire, usize> = HashMap::new();
    for (idx, gate) in circuit.gates.iter().enumerate() {
        if matches!(gate, Gate::Comment { .. }) {
            continue;
        }
        let wires = sorted_wires(gate);

        let mut consumed = false;
        if candidate(gate) {
            // All of this gate's wires must have last been touched by one
            // single earlier gate, and that gate must touch exactly the same
            // wires — otherwise something in between observes the pair.
            let prev = wires
                .first()
                .and_then(|w| last.get(w).copied())
                .filter(|&p| p != CONSUMED && wires.iter().all(|w| last.get(w) == Some(&p)));
            if let Some(p) = prev {
                let prev_gate = &circuit.gates[p];
                if sorted_wires(prev_gate) == wires && gate.undoes(prev_gate) {
                    pairs.push((p, idx));
                    consumed = true;
                }
            }
        }
        let mark = if consumed { CONSUMED } else { idx };
        for w in wires {
            last.insert(w, mark);
        }
    }
    pairs
}

/// Reports the `pairs` of one scope as QL030 findings and
/// [`Redundancy::CancelsPair`] facts.
pub(crate) fn report_pairs(
    fact_scope: FactScope,
    scope: &str,
    circuit: &Circuit,
    pairs: &[(usize, usize)],
    findings: &mut Vec<Diagnostic>,
    facts: &mut Facts,
) {
    for &(p, idx) in pairs {
        let gate = &circuit.gates[idx];
        let wires = sorted_wires(gate);
        findings.push(Diagnostic::new(
            "QL030",
            scope,
            Some(idx),
            gate.describe(),
            wires.first().copied().filter(|_| wires.len() == 1),
            format!(
                "cancels with the adjacent {} at #{p}; the pair is the identity \
                 and the fuse pass would silently remove it",
                circuit.gates[p].describe()
            ),
        ));
        facts.push(fact_scope, idx, Redundancy::CancelsPair { with: p });
    }
}

/// Every wire `gate` touches, sorted, without repeats.
fn sorted_wires(gate: &Gate) -> Vec<Wire> {
    let mut wires = Vec::new();
    gate.for_each_wire(&mut |w| wires.push(w));
    wires.sort_unstable();
    wires.dedup();
    wires
}

/// Gates eligible for pair cancellation: unitaries and whole calls.
fn candidate(gate: &Gate) -> bool {
    matches!(
        gate,
        Gate::QGate { .. } | Gate::QRot { .. } | Gate::GPhase { .. } | Gate::Subroutine { .. }
    )
}
