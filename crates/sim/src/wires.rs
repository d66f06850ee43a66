//! What every simulator shares: the circuit's wires.
//!
//! A circuit is quantum and classical wires, classical gates, classical
//! controls and assertive terminations (paper §4.2); the three run functions
//! of §4.4.5 differ only in how they store and update the qubits. [`Wires`]
//! is everything else: the slot of the quantum store each live qubit
//! occupies, the slots freed by terminations and measurements (parked with
//! the definite value each was left in, for the next allocation), and the
//! classical store. [`apply`] runs every gate that is not a unitary and
//! hands the unitaries, and each touch of the quantum store, to the
//! [`Simulator`]: amplitudes, a tableau, or one bit per slot.

use std::collections::HashMap;

use quipper_circuit::{Circuit, Control, Gate, Wire, WireType};

use crate::error::SimError;

/// A simulator's quantum store and what it does to it; [`apply`] does the
/// rest.
pub(crate) trait Simulator {
    /// The simulator's name in [`SimError::UnsupportedGate`].
    const NAME: &'static str;
    fn wires_mut(&mut self) -> &mut Wires;
    /// Adds a slot holding `|0⟩` and returns it.
    fn grow(&mut self) -> usize;
    /// Applies X to a slot.
    fn flip(&mut self, slot: usize);
    /// Measures a slot in the computational basis, collapsing it.
    fn measure(&mut self, slot: usize) -> bool;
    /// Projects a slot onto the asserted `value`, or returns the probability
    /// with which the assertion held.
    fn assert(&mut self, slot: usize, value: bool) -> Result<(), f64>;
    /// Applies a unitary gate (`QGate`, `QRot` or `GPhase`).
    fn unitary(&mut self, gate: &Gate) -> Result<(), SimError>;
}

/// The slot map with its parked slots, and the classical store.
#[derive(Debug, Default)]
pub(crate) struct Wires {
    slots: HashMap<Wire, usize>,
    /// Freed slots and their values; the next allocation takes the last.
    parked: Vec<(usize, bool)>,
    bits: HashMap<Wire, bool>,
}

impl Clone for Wires {
    fn clone(&self) -> Wires {
        let mut wires = Wires::default();
        wires.clone_from(self);
        wires
    }

    /// Field by field, so restoring a snapshot every shot reuses the maps.
    fn clone_from(&mut self, source: &Wires) {
        self.slots.clone_from(&source.slots);
        self.parked.clone_from(&source.parked);
        self.bits.clone_from(&source.bits);
    }
}

impl Wires {
    /// The slot of a live quantum wire.
    pub(crate) fn slot(&self, wire: Wire) -> Result<usize, SimError> {
        self.slots
            .get(&wire)
            .copied()
            .ok_or(SimError::UnknownWire { wire })
    }

    /// The value of a live classical wire.
    pub(crate) fn bit(&self, wire: Wire) -> Option<bool> {
        self.bits.get(&wire).copied()
    }

    /// The live quantum wires and their slots, in no particular order.
    pub(crate) fn qubits(&self) -> impl ExactSizeIterator<Item = (Wire, usize)> + '_ {
        self.slots.iter().map(|(&w, &s)| (w, s))
    }

    pub(crate) fn parked(&self) -> &[(usize, bool)] {
        &self.parked
    }

    /// Exchanges the slots of two live quantum wires.
    pub(crate) fn relabel(&mut self, a: Wire, b: Wire) -> Result<(), SimError> {
        let (sa, sb) = (self.slot(a)?, self.slot(b)?);
        self.slots.insert(a, sb);
        self.slots.insert(b, sa);
        Ok(())
    }

    /// Judges a gate's controls in order: each control on a live qubit goes
    /// to `quantum` as `(slot, positive)`, a classical one is read here.
    /// `Ok(false)` at the first classical control that does not fire (the
    /// gate is a no-op); `UnknownWire` for a control on a dead wire.
    pub(crate) fn controls(
        &self,
        controls: &[Control],
        mut quantum: impl FnMut(usize, bool),
    ) -> Result<bool, SimError> {
        for c in controls {
            if let Some(&slot) = self.slots.get(&c.wire) {
                quantum(slot, c.positive);
            } else if self
                .bit(c.wire)
                .ok_or(SimError::UnknownWire { wire: c.wire })?
                != c.positive
            {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn take_slot(&mut self, wire: Wire) -> Result<usize, SimError> {
        self.slots
            .remove(&wire)
            .ok_or(SimError::UnknownWire { wire })
    }

    fn take_bit(&mut self, wire: Wire) -> Result<bool, SimError> {
        self.bits
            .remove(&wire)
            .ok_or(SimError::UnknownWire { wire })
    }
}

/// The value of the classical gate `name` on its input bits, if the name
/// is one the simulators know.
fn classical_gate(name: &str, bits: &[bool]) -> Option<bool> {
    Some(match name {
        "xor" => bits.iter().fold(false, |a, &b| a ^ b),
        "and" => bits.iter().all(|&b| b),
        "or" => bits.iter().any(|&b| b),
        "not" => !bits.first().copied().unwrap_or(false),
        _ => return None,
    })
}

/// Whether [`apply`] runs a gate that is not a unitary: every one but a
/// subroutine call or a classical gate of unknown name.
pub(crate) fn accepts(gate: &Gate) -> bool {
    match gate {
        Gate::CGate { name, .. } => classical_gate(name, &[]).is_some(),
        _ => !matches!(gate, Gate::Subroutine { .. }),
    }
}

/// Binds an input wire to a basis-state value.
pub(crate) fn add_input<S: Simulator>(sim: &mut S, wire: Wire, ty: WireType, value: bool) {
    if ty == WireType::Classical {
        sim.wires_mut().bits.insert(wire, value);
        return;
    }
    let (slot, parked) = match sim.wires_mut().parked.pop() {
        Some(parked) => parked,
        None => (sim.grow(), false),
    };
    if parked != value {
        sim.flip(slot);
    }
    sim.wires_mut().slots.insert(wire, slot);
}

/// Binds a circuit's declared inputs to basis-state `values`, one each.
pub(crate) fn bind_inputs<S: Simulator>(
    sim: &mut S,
    declared: &[(Wire, WireType)],
    values: &[bool],
) -> Result<(), SimError> {
    if values.len() != declared.len() {
        return Err(SimError::InputArity {
            expected: declared.len(),
            found: values.len(),
        });
    }
    for (&(w, t), &v) in declared.iter().zip(values) {
        add_input(sim, w, t, v);
    }
    Ok(())
}

/// Runs a flat circuit on `sim` from basis-state `inputs`.
pub(crate) fn run<S: Simulator>(
    mut sim: S,
    flat: &Circuit,
    inputs: &[bool],
) -> Result<S, SimError> {
    bind_inputs(&mut sim, &flat.inputs, inputs)?;
    for gate in &flat.gates {
        apply(&mut sim, gate)?;
    }
    Ok(sim)
}

/// The output bits, in order: classical outputs read, quantum ones measured.
pub(crate) fn read_outputs<S: Simulator>(
    sim: &mut S,
    outputs: &[(Wire, WireType)],
) -> Result<Vec<bool>, SimError> {
    let mut read = |wire, ty| match ty {
        WireType::Classical => sim
            .wires_mut()
            .bit(wire)
            .ok_or(SimError::UnknownWire { wire }),
        WireType::Quantum => {
            let slot = sim.wires_mut().slot(wire)?;
            Ok(sim.measure(slot))
        }
    };
    outputs.iter().map(|&(wire, ty)| read(wire, ty)).collect()
}

/// Executes one gate: the wire gates here, unitaries by
/// [`Simulator::unitary`]. Subroutine calls must be inlined first.
pub(crate) fn apply<S: Simulator>(sim: &mut S, gate: &Gate) -> Result<(), SimError> {
    let unsupported = |gate: String| SimError::UnsupportedGate {
        gate,
        simulator: S::NAME,
    };
    let failed = |wire, asserted, probability| SimError::AssertionFailed {
        wire,
        asserted,
        probability,
    };
    match gate {
        Gate::QGate { .. } | Gate::QRot { .. } | Gate::GPhase { .. } => return sim.unitary(gate),
        Gate::Comment { .. } => {}
        Gate::QInit { value, wire } => add_input(sim, *wire, WireType::Quantum, *value),
        Gate::QTerm { value, wire } => {
            let slot = sim.wires_mut().take_slot(*wire)?;
            sim.assert(slot, *value)
                .map_err(|p| failed(*wire, *value, p))?;
            sim.wires_mut().parked.push((slot, *value));
        }
        // Discarding is measuring and forgetting the outcome.
        Gate::QMeas { wire } | Gate::QDiscard { wire } => {
            let slot = sim.wires_mut().take_slot(*wire)?;
            let outcome = sim.measure(slot);
            let wires = sim.wires_mut();
            wires.parked.push((slot, outcome));
            if let Gate::QMeas { .. } = gate {
                wires.bits.insert(*wire, outcome);
            }
        }
        Gate::CInit { value, wire } => {
            sim.wires_mut().bits.insert(*wire, *value);
        }
        Gate::CTerm { value, wire } => {
            if sim.wires_mut().take_bit(*wire)? != *value {
                return Err(failed(*wire, *value, 0.0));
            }
        }
        Gate::CDiscard { wire } => {
            sim.wires_mut().take_bit(*wire)?;
        }
        Gate::CGate {
            name,
            inverted,
            target,
            inputs,
        } => {
            let wires = sim.wires_mut();
            let bits = inputs
                .iter()
                .map(|&wire| wires.bit(wire).ok_or(SimError::UnknownWire { wire }))
                .collect::<Result<Vec<bool>, SimError>>()?;
            let v = classical_gate(name, &bits).ok_or_else(|| unsupported(gate.describe()))?;
            wires.bits.insert(*target, v ^ inverted);
        }
        Gate::Subroutine { .. } => {
            return Err(unsupported(
                "Subroutine (inline boxed subcircuits before simulating)".into(),
            ))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use quipper_circuit::{Circuit, Gate, GateName, Wire, WireType};

    use crate::error::SimError;

    /// Each classical gate computes its truth table, inverted or not; the
    /// agreement properties cannot see a wrong one, since every simulator
    /// runs this code.
    #[test]
    fn classical_gates_compute_their_truth_tables() {
        let (a, b, out) = (Wire(0), Wire(1), Wire(2));
        let inputs = vec![(a, WireType::Classical), (b, WireType::Classical)];
        for name in ["xor", "and", "or", "not"] {
            for (inverted, x, y) in (0..8).map(|i| (i & 4 != 0, i & 2 != 0, i & 1 != 0)) {
                let gate = Gate::CGate {
                    name: name.into(),
                    inverted,
                    target: out,
                    inputs: if name == "not" { vec![a] } else { vec![a, b] },
                };
                let flat = Circuit {
                    inputs: inputs.clone(),
                    gates: vec![gate],
                    outputs: vec![(out, WireType::Classical)],
                    wire_bound: 3,
                };
                let got = crate::classical::run_classical_flat(&flat, &[x, y]);
                let want = match name {
                    "xor" => x ^ y,
                    "and" => x & y,
                    "or" => x | y,
                    _ => !x,
                };
                assert_eq!(got, Ok(vec![want ^ inverted]), "{name} {inverted} {x} {y}");
            }
        }
    }

    /// A gate on a wire with no value is an `UnknownWire` error in every
    /// simulator, whichever gate reaches for it.
    #[test]
    fn a_dead_wire_is_an_unknown_wire_everywhere() {
        let (q, b, dead) = (Wire(0), Wire(1), Wire(2));
        let gates = [
            Gate::unary(GateName::X, dead),
            Gate::cnot(q, dead),
            Gate::QMeas { wire: dead },
            Gate::QDiscard { wire: dead },
            Gate::QTerm {
                value: false,
                wire: dead,
            },
            Gate::CTerm {
                value: false,
                wire: dead,
            },
            Gate::CDiscard { wire: dead },
            Gate::CGate {
                name: "xor".into(),
                inverted: false,
                target: Wire(3),
                inputs: vec![b, dead],
            },
        ];
        let inputs = vec![(q, WireType::Quantum), (b, WireType::Classical)];
        for gate in gates {
            let flat = Circuit {
                inputs: inputs.clone(),
                gates: vec![gate.clone()],
                outputs: inputs.clone(),
                wire_bound: 4,
            };
            let want = Err(SimError::UnknownWire { wire: dead });
            let statevec = crate::statevec::run_flat(&flat, &[false, true], 1);
            assert_eq!(statevec.map(|r| r.classical_outputs()), want, "{gate:?}");
            let stabilizer = crate::stabilizer::run_clifford_flat(&flat, &[false, true], 1);
            assert_eq!(stabilizer, want, "{gate:?}");
            let classical = crate::classical::run_classical_flat(&flat, &[false, true]);
            assert_eq!(classical, want, "{gate:?}");
        }
    }
}
