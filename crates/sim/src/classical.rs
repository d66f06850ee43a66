//! Efficient simulation of classical (reversible) circuits.
//!
//! The analogue of Quipper's `run_classical_generic`, which "can be used to
//! simulate certain classes of circuits efficiently; this is especially
//! useful in testing oracles" (paper §4.4.5). Circuits built from
//! initializations, terminations, (multi-)controlled not gates, swaps,
//! Z-basis phases, measurements and classical gates act as permutations of
//! computational basis states, so each qubit slot holds one bit; classical
//! wires, classical gates and slot reuse are the wires every simulator
//! shares.
//!
//! Assertive terminations are *checked*: a violated `QTerm` assertion is
//! reported as an error, which makes this simulator the main tool for
//! testing that oracles correctly uncompute their scratch space.

use quipper_circuit::flatten::inline_all;
use quipper_circuit::{BCircuit, Circuit, Gate, GateName};

use crate::error::SimError;
use crate::wires::{self, Simulator, Wires};

/// The gate set, written once: the target count of each named gate that
/// permutes basis states — X flips, a swap exchanges, and the Z-basis
/// phases Z, S and T leave a basis state as it is.
fn arity(name: &GateName) -> Option<usize> {
    match name {
        GateName::X | GateName::Z | GateName::S | GateName::T => Some(1),
        GateName::Swap => Some(2),
        _ => None,
    }
}

/// Whether the classical simulator runs `gate`: the route profile asks
/// this, and [`run_classical_flat`] decides by the same table.
pub fn accepts(gate: &Gate) -> bool {
    match gate {
        Gate::QGate { name, targets, .. } => arity(name) == Some(targets.len()),
        Gate::GPhase { .. } => true,
        Gate::QRot { .. } => false,
        _ => wires::accepts(gate),
    }
}

/// The classical simulator: one bit per qubit slot, and the circuit's
/// wires.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClassicalState {
    /// The basis value of each slot, live or parked.
    slots: Vec<bool>,
    wires: Wires,
}

impl Simulator for ClassicalState {
    const NAME: &'static str = "classical";

    fn wires_mut(&mut self) -> &mut Wires {
        &mut self.wires
    }

    fn grow(&mut self) -> usize {
        self.slots.push(false);
        self.slots.len() - 1
    }

    fn flip(&mut self, slot: usize) {
        self.slots[slot] ^= true;
    }

    /// A basis state's value carries over unchanged.
    fn measure(&mut self, slot: usize) -> bool {
        self.slots[slot]
    }

    fn assert(&mut self, slot: usize, value: bool) -> Result<(), f64> {
        (self.slots[slot] == value).then_some(()).ok_or(0.0)
    }

    fn unitary(&mut self, gate: &Gate) -> Result<(), SimError> {
        let unsupported = || SimError::UnsupportedGate {
            gate: gate.describe(),
            simulator: Self::NAME,
        };
        let (name, targets, controls) = match gate {
            Gate::QGate {
                name,
                targets,
                controls,
                ..
            } if arity(name) == Some(targets.len()) => (Some(name), &targets[..], controls),
            Gate::GPhase { controls, .. } => (None, &[][..], controls),
            _ => return Err(unsupported()),
        };
        let mut fires = true;
        let slots = &self.slots;
        if !self.wires.controls(controls, |slot, positive| {
            fires &= slots[slot] == positive;
        })? {
            return Ok(());
        }
        // Every target is resolved, so a dead one is an error whether or
        // not the quantum controls fire.
        let mut t = [0usize; 2];
        for (slot, &w) in t.iter_mut().zip(targets) {
            *slot = self.wires.slot(w)?;
        }
        match name {
            Some(GateName::X) if fires => self.slots[t[0]] ^= true,
            Some(GateName::Swap) if fires => self.slots.swap(t[0], t[1]),
            _ => {}
        }
        Ok(())
    }
}

/// Runs a classical/reversible hierarchical circuit on basis-state inputs,
/// returning the output bits in declaration order.
///
/// # Errors
///
/// Returns [`SimError::InputArity`] on an input count mismatch,
/// [`SimError::UnsupportedGate`] for gates that create superpositions
/// (Hadamard, W, rotations, phases) or have the wrong number of targets,
/// [`SimError::UnknownWire`] for a gate on a wire with no value, and
/// [`SimError::AssertionFailed`] for violated terminations.
pub fn run_classical(bc: &BCircuit, inputs: &[bool]) -> Result<Vec<bool>, SimError> {
    let flat = inline_all(&bc.db, &bc.main)?;
    run_classical_flat(&flat, inputs)
}

/// Runs an already-flattened classical/reversible circuit once.
///
/// The reusable single-shot entry point for callers that inline once and
/// replay (shot loops, the `quipper-exec` engine); the flat circuit is only
/// read, so runs can proceed concurrently over one shared `&Circuit`.
///
/// # Errors
///
/// As for [`run_classical`], minus inlining errors.
pub fn run_classical_flat(flat: &Circuit, inputs: &[bool]) -> Result<Vec<bool>, SimError> {
    let mut st = wires::run(ClassicalState::default(), flat, inputs)?;
    wires::read_outputs(&mut st, &flat.outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quipper::classical::{synth, Dag};
    use quipper::{Circ, Qubit};

    #[test]
    fn cnot_chain_computes_parity() {
        let bc = Circ::build(
            &(vec![false; 4], false),
            |c, (xs, t): (Vec<Qubit>, Qubit)| {
                for &x in &xs {
                    c.cnot(t, x);
                }
                (xs, t)
            },
        );
        let out = run_classical(&bc, &[true, true, true, false, false]).unwrap();
        assert!(out[4]);
    }

    #[test]
    fn synthesized_oracle_matches_classical_semantics_exhaustively() {
        // A nontrivial function: out = (a ∧ b) ⊕ (c ∨ ¬a).
        let dag = Dag::build(3, |_, xs| vec![(&xs[0] & &xs[1]) ^ (&xs[2] | &!(&xs[0]))]);
        let bc = Circ::build(
            &(vec![false; 3], false),
            |c, (xs, t): (Vec<Qubit>, Qubit)| {
                synth::classical_to_reversible(c, &dag, &xs, &[t]);
                (xs, t)
            },
        );
        for bits in 0..8u32 {
            let input: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let expected = dag.eval(&input)[0];
            let mut sim_in = input.clone();
            sim_in.push(false);
            let out = run_classical(&bc, &sim_in).unwrap();
            assert_eq!(out[..3], input[..], "inputs preserved");
            assert_eq!(out[3], expected, "oracle output for {input:?}");
            // With target preset to 1 the oracle xors: out = 1 ⊕ f(x).
            let mut sim_in1 = input.clone();
            sim_in1.push(true);
            let out1 = run_classical(&bc, &sim_in1).unwrap();
            assert_eq!(out1[3], !expected);
        }
    }

    #[test]
    fn hadamard_is_rejected() {
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.hadamard(q);
            q
        });
        assert!(matches!(
            run_classical(&bc, &[false]),
            Err(SimError::UnsupportedGate { .. })
        ));
    }

    #[test]
    fn broken_uncomputation_is_detected() {
        // An "oracle" that forgets to uncompute: asserts 0 on a wire that
        // holds a ∧ b.
        let bc = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            let anc = c.qinit_bit(false);
            c.toffoli(anc, a, b);
            c.qterm_bit(false, anc);
            (a, b)
        });
        assert!(run_classical(&bc, &[true, false]).is_ok());
        assert!(matches!(
            run_classical(&bc, &[true, true]),
            Err(SimError::AssertionFailed { .. })
        ));
    }
}
