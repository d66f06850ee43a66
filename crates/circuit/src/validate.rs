//! Run-time well-formedness checking of circuits.
//!
//! Because the host language lacks linear types, Quipper checks properties
//! such as non-duplication of quantum data at run time (paper §4.1). This
//! module implements those checks: every gate must act on live wires of the
//! correct type, no gate may mention the same wire twice (no-cloning), wires
//! must be allocated before use and deallocated exactly once, and the
//! circuit's declared outputs must coincide with the wires left alive.

use std::collections::HashMap;

use crate::circuit::{Circuit, CircuitDb};
use crate::error::CircuitError;
use crate::gate::Gate;
use crate::wire::{Wire, WireType};

/// Validates `circuit` against subroutine database `db`.
///
/// # Errors
///
/// Returns a [`CircuitError`] describing the first violation found: use of a
/// dead wire, duplicate use of a wire within a gate, a type mismatch,
/// re-initialization of a live wire, a subroutine arity mismatch, iteration
/// of a non-repeatable subroutine, or a mismatch between declared outputs and
/// live wires.
pub fn validate(db: &CircuitDb, circuit: &Circuit) -> Result<(), CircuitError> {
    let _span = quipper_trace::span(quipper_trace::Phase::Compile, "validate");
    let mut alive: HashMap<Wire, WireType> = HashMap::new();
    for &(w, t) in &circuit.inputs {
        if alive.insert(w, t).is_some() {
            return Err(CircuitError::DuplicateWire {
                wire: w,
                context: "circuit inputs".into(),
            });
        }
    }

    for gate in &circuit.gates {
        apply_gate(db, gate, &mut alive)?;
    }

    // The declared outputs must be exactly the live wires. `alive` is not
    // needed past this point, so consume it in place instead of cloning —
    // the happy path allocates nothing.
    for &(w, t) in &circuit.outputs {
        match alive.remove(&w) {
            Some(found) if found == t => {}
            Some(found) => {
                return Err(CircuitError::TypeMismatch {
                    wire: w,
                    expected: t,
                    found,
                    context: "circuit outputs".into(),
                })
            }
            None => {
                return Err(CircuitError::OutputMismatch {
                    detail: format!("declared output wire {w} is not alive at the end"),
                })
            }
        }
    }
    if let Some((&w, _)) = alive.iter().next() {
        return Err(CircuitError::OutputMismatch {
            detail: format!("wire {w} is still alive but not listed as an output"),
        });
    }
    Ok(())
}

/// Applies the aliveness/type transition of one gate to `alive`.
///
/// This is the single-step version of [`validate`]: circuit builders can use
/// it to maintain a live-wire map incrementally and catch errors (dead wires,
/// cloning, type mismatches) at the moment a gate is appended.
///
/// # Errors
///
/// As for [`validate`], for violations caused by this one gate.
pub fn apply_gate(
    db: &CircuitDb,
    gate: &Gate,
    alive: &mut HashMap<Wire, WireType>,
) -> Result<(), CircuitError> {
    let ctx = gate.describe();
    let require =
        |alive: &HashMap<Wire, WireType>, w: Wire, t: WireType| -> Result<(), CircuitError> {
            match alive.get(&w) {
                Some(&found) if found == t => Ok(()),
                Some(&found) => Err(CircuitError::TypeMismatch {
                    wire: w,
                    expected: t,
                    found,
                    context: ctx.clone(),
                }),
                None => Err(CircuitError::DeadWire {
                    wire: w,
                    context: ctx.clone(),
                }),
            }
        };
    let require_alive =
        |alive: &HashMap<Wire, WireType>, w: Wire| -> Result<WireType, CircuitError> {
            alive
                .get(&w)
                .copied()
                .ok_or_else(|| CircuitError::DeadWire {
                    wire: w,
                    context: ctx.clone(),
                })
        };

    // No-cloning: all wires mentioned operationally by one gate must be
    // pairwise distinct (labels in comments are exempt; subroutine outputs
    // may coincide with inputs because inputs are consumed first).
    check_distinct(gate)?;

    match gate {
        Gate::QGate {
            name,
            targets,
            controls,
            ..
        } => {
            if let Some(n) = name.fixed_arity() {
                if n != targets.len() {
                    return Err(CircuitError::SubroutineArity {
                        name: name.to_string(),
                        detail: format!("gate expects {n} targets, got {}", targets.len()),
                    });
                }
            }
            for &t in targets {
                require(alive, t, WireType::Quantum)?;
            }
            for c in controls {
                require_alive(alive, c.wire)?;
            }
        }
        Gate::QRot {
            targets, controls, ..
        } => {
            for &t in targets {
                require(alive, t, WireType::Quantum)?;
            }
            for c in controls {
                require_alive(alive, c.wire)?;
            }
        }
        Gate::GPhase { controls, .. } => {
            for c in controls {
                require_alive(alive, c.wire)?;
            }
        }
        Gate::QInit { wire, .. } => {
            if alive.contains_key(wire) {
                return Err(CircuitError::AlreadyAlive {
                    wire: *wire,
                    context: ctx,
                });
            }
            alive.insert(*wire, WireType::Quantum);
        }
        Gate::CInit { wire, .. } => {
            if alive.contains_key(wire) {
                return Err(CircuitError::AlreadyAlive {
                    wire: *wire,
                    context: ctx,
                });
            }
            alive.insert(*wire, WireType::Classical);
        }
        Gate::QTerm { wire, .. } | Gate::QDiscard { wire } => {
            require(alive, *wire, WireType::Quantum)?;
            alive.remove(wire);
        }
        Gate::CTerm { wire, .. } | Gate::CDiscard { wire } => {
            require(alive, *wire, WireType::Classical)?;
            alive.remove(wire);
        }
        Gate::QMeas { wire } => {
            require(alive, *wire, WireType::Quantum)?;
            alive.insert(*wire, WireType::Classical);
        }
        Gate::CGate { target, inputs, .. } => {
            for &w in inputs {
                require(alive, w, WireType::Classical)?;
            }
            if alive.contains_key(target) {
                return Err(CircuitError::AlreadyAlive {
                    wire: *target,
                    context: ctx,
                });
            }
            alive.insert(*target, WireType::Classical);
        }
        Gate::Subroutine {
            id,
            inverted,
            inputs,
            outputs,
            controls,
            repetitions,
        } => {
            let def = db.get(*id)?;
            let (in_types, out_types) = if *inverted {
                (def.circuit.output_types(), def.circuit.input_types())
            } else {
                (def.circuit.input_types(), def.circuit.output_types())
            };
            if *repetitions > 1 && in_types != out_types {
                return Err(CircuitError::NotRepeatable {
                    name: def.name.clone(),
                });
            }
            if inputs.len() != in_types.len() || outputs.len() != out_types.len() {
                return Err(CircuitError::SubroutineArity {
                    name: def.name.clone(),
                    detail: format!(
                        "call has {} inputs / {} outputs, definition has {} / {}",
                        inputs.len(),
                        outputs.len(),
                        in_types.len(),
                        out_types.len()
                    ),
                });
            }
            for c in controls {
                require_alive(alive, c.wire)?;
            }
            for (&w, &t) in inputs.iter().zip(&in_types) {
                require(alive, w, t)?;
            }
            for &w in inputs {
                alive.remove(&w);
            }
            for (&w, &t) in outputs.iter().zip(&out_types) {
                if alive.contains_key(&w) {
                    return Err(CircuitError::AlreadyAlive {
                        wire: w,
                        context: ctx.clone(),
                    });
                }
                alive.insert(w, t);
            }
        }
        Gate::Comment { .. } => {}
    }
    Ok(())
}

fn check_distinct(gate: &Gate) -> Result<(), CircuitError> {
    // Collect the operational wires: targets and controls (and inputs for
    // classical gates / subroutines). Subroutine outputs are excluded —
    // inputs are consumed before outputs come alive, so ids may be reused.
    let mut wires: Vec<Wire> = Vec::new();
    match gate {
        Gate::QGate {
            targets, controls, ..
        }
        | Gate::QRot {
            targets, controls, ..
        } => {
            wires.extend(targets.iter().copied());
            wires.extend(controls.iter().map(|c| c.wire));
        }
        Gate::GPhase { controls, .. } => wires.extend(controls.iter().map(|c| c.wire)),
        Gate::CGate { inputs, .. } => wires.extend(inputs.iter().copied()),
        Gate::Subroutine {
            inputs, controls, ..
        } => {
            wires.extend(inputs.iter().copied());
            wires.extend(controls.iter().map(|c| c.wire));
        }
        _ => return Ok(()),
    }
    let mut sorted = wires.clone();
    sorted.sort_unstable();
    for pair in sorted.windows(2) {
        if pair[0] == pair[1] {
            return Err(CircuitError::DuplicateWire {
                wire: pair[0],
                context: gate.describe(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::SubDef;
    use crate::gate::GateName;
    use crate::wire::Control;

    fn q(w: u32) -> (Wire, WireType) {
        (Wire(w), WireType::Quantum)
    }

    #[test]
    fn cnot_with_equal_wires_is_rejected_no_cloning() {
        let mut c = Circuit::with_inputs(vec![q(0)]);
        c.gates.push(Gate::cnot(Wire(0), Wire(0)));
        let err = c.validate_standalone().unwrap_err();
        assert!(matches!(err, CircuitError::DuplicateWire { .. }));
    }

    #[test]
    fn gate_on_dead_wire_is_rejected() {
        let mut c = Circuit::with_inputs(vec![q(0)]);
        c.gates.push(Gate::unary(GateName::H, Wire(7)));
        assert!(matches!(
            c.validate_standalone(),
            Err(CircuitError::DeadWire { .. })
        ));
    }

    #[test]
    fn ancilla_scope_is_tracked() {
        // init, use, term: valid.
        let mut c = Circuit::with_inputs(vec![q(0)]);
        c.gates.push(Gate::QInit {
            value: false,
            wire: Wire(1),
        });
        c.gates.push(Gate::cnot(Wire(1), Wire(0)));
        c.gates.push(Gate::QTerm {
            value: false,
            wire: Wire(1),
        });
        c.recompute_wire_bound();
        c.validate_standalone().unwrap();
        assert_eq!(crate::count::max_alive(&CircuitDb::new(), &c).total, 2);

        // Using the ancilla after termination is invalid.
        let mut c2 = c.clone();
        c2.gates.push(Gate::unary(GateName::H, Wire(1)));
        assert!(c2.validate_standalone().is_err());
    }

    #[test]
    fn outputs_must_match_live_wires() {
        let mut c = Circuit::with_inputs(vec![q(0)]);
        c.gates.push(Gate::QInit {
            value: false,
            wire: Wire(1),
        });
        // Wire 1 is alive but not declared as an output.
        assert!(matches!(
            c.validate_standalone(),
            Err(CircuitError::OutputMismatch { .. })
        ));
    }

    #[test]
    fn measurement_changes_wire_type() {
        let mut c = Circuit::with_inputs(vec![q(0)]);
        c.gates.push(Gate::QMeas { wire: Wire(0) });
        c.outputs = vec![(Wire(0), WireType::Classical)];
        assert!(c.validate_standalone().is_ok());

        // A quantum gate after measurement is a type error.
        let mut c2 = c.clone();
        c2.gates.push(Gate::unary(GateName::H, Wire(0)));
        assert!(matches!(
            c2.validate_standalone(),
            Err(CircuitError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn subroutine_call_checks_arity() {
        let mut db = CircuitDb::new();
        let body = Circuit::with_inputs(vec![q(0), q(1)]);
        let id = db.insert(SubDef {
            name: "f".into(),
            shape: "2".into(),
            circuit: body,
        });

        let mut c = Circuit::with_inputs(vec![q(0)]);
        c.gates.push(Gate::Subroutine {
            id,
            inverted: false,
            inputs: vec![Wire(0)],
            outputs: vec![Wire(0)],
            controls: vec![],
            repetitions: 1,
        });
        assert!(matches!(
            c.validate(&db),
            Err(CircuitError::SubroutineArity { .. })
        ));
    }

    #[test]
    fn repeated_subroutine_requires_matching_shapes() {
        let mut db = CircuitDb::new();
        // A subroutine that measures: input Qubit, output Bit.
        let mut body = Circuit::with_inputs(vec![q(0)]);
        body.gates.push(Gate::QMeas { wire: Wire(0) });
        body.outputs = vec![(Wire(0), WireType::Classical)];
        let id = db.insert(SubDef {
            name: "m".into(),
            shape: "1".into(),
            circuit: body,
        });

        let mut c = Circuit::with_inputs(vec![q(0)]);
        c.gates.push(Gate::Subroutine {
            id,
            inverted: false,
            inputs: vec![Wire(0)],
            outputs: vec![Wire(0)],
            controls: vec![],
            repetitions: 3,
        });
        c.outputs = vec![(Wire(0), WireType::Classical)];
        assert!(matches!(
            c.validate(&db),
            Err(CircuitError::NotRepeatable { .. })
        ));
    }

    #[test]
    fn negative_controls_are_accepted() {
        let mut c = Circuit::with_inputs(vec![q(0), q(1)]);
        c.gates.push(Gate::QGate {
            name: GateName::X,
            inverted: false,
            targets: vec![Wire(0)],
            controls: vec![Control::negative(Wire(1))],
        });
        assert!(c.validate_standalone().is_ok());
    }
}
