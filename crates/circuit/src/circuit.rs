//! Circuits, boxed subcircuit databases, and splicing.

use std::collections::HashMap;

use crate::error::CircuitError;
use crate::gate::Gate;
use crate::validate;
use crate::wire::{Wire, WireType};

/// An identifier of a boxed subcircuit inside a [`CircuitDb`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BoxId(pub u32);

impl BoxId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The definition of a boxed subcircuit: a name plus its body.
///
/// The `shape` string distinguishes instantiations of the same logical
/// subroutine at different parameter values (e.g. `"o8"` at 4 bits vs 31
/// bits); Quipper keys boxes on name and shape in the same way.
#[derive(Clone, PartialEq, Debug)]
pub struct SubDef {
    /// Human-readable subroutine name (`"o8"`, `"a6"` …).
    pub name: String,
    /// Shape key distinguishing different monomorphic instances.
    pub shape: String,
    /// The body.
    pub circuit: Circuit,
}

/// A store of boxed subcircuit definitions shared by a circuit hierarchy.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CircuitDb {
    subs: Vec<SubDef>,
    by_key: HashMap<(String, String), BoxId>,
}

impl CircuitDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of definitions in the database.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// Whether the database contains no definitions.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Looks up a definition by name and shape key.
    pub fn find(&self, name: &str, shape: &str) -> Option<BoxId> {
        self.by_key
            .get(&(name.to_string(), shape.to_string()))
            .copied()
    }

    /// Inserts a definition, returning its id.
    ///
    /// If a definition with the same name and shape already exists it is
    /// returned unchanged (boxing is idempotent, so that a subroutine used in
    /// many places is stored once — this is the whole point of hierarchical
    /// circuits).
    pub fn insert(&mut self, def: SubDef) -> BoxId {
        if let Some(id) = self.find(&def.name, &def.shape) {
            return id;
        }
        let id = BoxId(self.subs.len() as u32);
        self.by_key
            .insert((def.name.clone(), def.shape.clone()), id);
        self.subs.push(def);
        id
    }

    /// Fetches a definition.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownSubroutine`] if `id` is out of range.
    pub fn get(&self, id: BoxId) -> Result<&SubDef, CircuitError> {
        self.subs
            .get(id.index())
            .ok_or(CircuitError::UnknownSubroutine { id: id.index() })
    }

    /// The body of definition `id`, to rewrite in place. Its name and shape,
    /// the key it is found by, stay as they are.
    pub fn body_mut(&mut self, id: BoxId) -> Option<&mut Circuit> {
        self.subs.get_mut(id.index()).map(|def| &mut def.circuit)
    }

    /// Iterates over all `(id, definition)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BoxId, &SubDef)> {
        self.subs
            .iter()
            .enumerate()
            .map(|(i, d)| (BoxId(i as u32), d))
    }
}

/// A (possibly non-flat) circuit: a typed input arity, a gate list, and a
/// typed output arity.
///
/// Wire identifiers are local to the circuit; `wire_bound` is an exclusive
/// upper bound on all wire ids used, so fresh wires can be allocated when
/// splicing. Subroutine calls in `gates` refer to a [`CircuitDb`] kept
/// alongside (see [`BCircuit`]).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Circuit {
    /// Input wires with their types, in order.
    pub inputs: Vec<(Wire, WireType)>,
    /// The gate list.
    pub gates: Vec<Gate>,
    /// Output wires with their types, in order.
    pub outputs: Vec<(Wire, WireType)>,
    /// Exclusive upper bound on wire ids used anywhere in the circuit.
    pub wire_bound: u32,
}

impl Circuit {
    /// Creates a circuit with the given inputs, no gates, and outputs equal
    /// to the inputs.
    pub fn with_inputs(inputs: Vec<(Wire, WireType)>) -> Self {
        let wire_bound = inputs.iter().map(|(w, _)| w.0 + 1).max().unwrap_or(0);
        Circuit {
            outputs: inputs.clone(),
            inputs,
            gates: Vec::new(),
            wire_bound,
        }
    }

    /// The input types in order.
    pub fn input_types(&self) -> Vec<WireType> {
        self.inputs.iter().map(|&(_, t)| t).collect()
    }

    /// The output types in order.
    pub fn output_types(&self) -> Vec<WireType> {
        self.outputs.iter().map(|&(_, t)| t).collect()
    }

    /// Validates the circuit against a subroutine database.
    ///
    /// # Errors
    ///
    /// See [`validate::validate`].
    pub fn validate(&self, db: &CircuitDb) -> Result<(), CircuitError> {
        validate::validate(db, self)
    }

    /// Validates a circuit that contains no subroutine calls.
    ///
    /// # Errors
    ///
    /// See [`validate::validate`].
    pub fn validate_standalone(&self) -> Result<(), CircuitError> {
        validate::validate(&CircuitDb::new(), self)
    }

    /// Recomputes `wire_bound` from the actual wires used. Useful after
    /// hand-editing a circuit.
    pub fn recompute_wire_bound(&mut self) {
        self.wire_bound = self.tight_wire_bound();
    }

    /// The bound [`Circuit::recompute_wire_bound`] sets: one past the
    /// largest wire id used anywhere in the circuit.
    pub fn tight_wire_bound(&self) -> u32 {
        let mut bound = 0;
        for (w, _) in self.inputs.iter().chain(self.outputs.iter()) {
            bound = bound.max(w.0 + 1);
        }
        for g in &self.gates {
            g.for_each_wire(&mut |w| bound = bound.max(w.0 + 1));
        }
        bound
    }
}

/// A circuit paired with the database of boxed subcircuits it references —
/// Quipper's "hierarchical circuit".
#[derive(Clone, PartialEq, Debug, Default)]
pub struct BCircuit {
    /// The subroutine database.
    pub db: CircuitDb,
    /// The main circuit.
    pub main: Circuit,
}

impl BCircuit {
    /// Creates a boxed circuit from parts.
    pub fn new(db: CircuitDb, main: Circuit) -> Self {
        BCircuit { db, main }
    }

    /// Validates the main circuit and every subroutine body.
    ///
    /// # Errors
    ///
    /// Returns the first validation error found.
    pub fn validate(&self) -> Result<(), CircuitError> {
        for (_, def) in self.db.iter() {
            def.circuit.validate(&self.db)?;
        }
        self.main.validate(&self.db)
    }

    /// Aggregate gate count of the main circuit, descending through boxes.
    pub fn gate_count(&self) -> crate::count::GateCount {
        crate::count::count(&self.db, &self.main)
    }

    /// Stable structural fingerprint of this circuit (main + reachable
    /// subroutine bodies); see [`crate::fingerprint::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        crate::fingerprint::fingerprint(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateName;

    fn q(w: u32) -> (Wire, WireType) {
        (Wire(w), WireType::Quantum)
    }

    #[test]
    fn with_inputs_sets_bound_and_outputs() {
        let c = Circuit::with_inputs(vec![q(0), q(3)]);
        assert_eq!(c.wire_bound, 4);
        assert_eq!(c.outputs, c.inputs);
    }

    #[test]
    fn db_insert_is_idempotent_on_key() {
        let mut db = CircuitDb::new();
        let body = Circuit::with_inputs(vec![q(0)]);
        let id1 = db.insert(SubDef {
            name: "f".into(),
            shape: "1".into(),
            circuit: body.clone(),
        });
        let id2 = db.insert(SubDef {
            name: "f".into(),
            shape: "1".into(),
            circuit: body.clone(),
        });
        let id3 = db.insert(SubDef {
            name: "f".into(),
            shape: "2".into(),
            circuit: body,
        });
        assert_eq!(id1, id2);
        assert_ne!(id1, id3);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn unknown_subroutine_is_an_error() {
        let db = CircuitDb::new();
        assert!(db.get(BoxId(0)).is_err());
    }

    #[test]
    fn recompute_wire_bound_sees_gate_wires() {
        let mut c = Circuit::with_inputs(vec![q(0)]);
        c.gates.push(Gate::unary(GateName::H, Wire(9)));
        c.recompute_wire_bound();
        assert_eq!(c.wire_bound, 10);
    }
}
