//! The circuit catalog: named circuits clients can submit by name.
//!
//! The wire protocol is line-oriented JSON, which is a poor fit for
//! shipping whole circuits; instead the served binary exposes the same
//! suite the repository's examples and `quipper-lint` exercise, keyed by
//! name. Built circuits are memoized behind `Arc`, so a thousand
//! submissions of `"ghz5"` share one `BCircuit` (and, via its fingerprint,
//! one compiled plan).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use quipper::classical::{synth, Dag};
use quipper::qft::qft;
use quipper::{Circ, Qubit};
use quipper_algorithms::grover::{grover_circuit, optimal_iterations};
use quipper_circuit::BCircuit;

/// A named circuit in the catalog.
type Entry = (&'static str, fn() -> BCircuit);

/// The named circuits served over the wire, with build-once memoization.
pub struct Catalog {
    entries: Vec<Entry>,
    built: Mutex<HashMap<&'static str, Arc<BCircuit>>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// The standard catalog, mirroring the example suite.
    pub fn new() -> Catalog {
        Catalog {
            entries: vec![
                ("teleportation", teleportation),
                ("ghz3", ghz3),
                ("ghz5", ghz5),
                ("parity4", parity4),
                ("grover3", grover3),
                ("qft4", qft4),
            ],
            built: Mutex::new(HashMap::new()),
        }
    }

    /// The catalog's circuit names, in listing order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(name, _)| *name).collect()
    }

    /// Builds (or reuses) the circuit called `name`.
    pub fn get(&self, name: &str) -> Option<Arc<BCircuit>> {
        let (key, build) = *self.entries.iter().find(|(n, _)| *n == name)?;
        let mut built = self.built.lock().unwrap();
        Some(Arc::clone(
            built.entry(key).or_insert_with(|| Arc::new(build())),
        ))
    }

    /// The number of input wires `name`'s circuit expects (for default
    /// all-false inputs), or `None` for unknown names.
    pub fn input_arity(&self, name: &str) -> Option<usize> {
        Some(self.get(name)?.main.inputs.len())
    }
}

/// The teleportation circuit of `examples/teleportation.rs` (θ = 0.7),
/// classically-controlled corrections included.
fn teleportation() -> BCircuit {
    let mut c = Circ::new();
    let psi = c.qinit_bit(false);
    c.rot("Ry(%)", 0.7, psi);
    let a = c.qinit_bit(false);
    let b = c.qinit_bit(false);
    c.hadamard(a);
    c.cnot(b, a);
    c.cnot(a, psi);
    c.hadamard(psi);
    let m1 = c.measure_bit(psi);
    let m2 = c.measure_bit(a);
    c.qnot_ctrl(b, &m2);
    c.gate_ctrl(quipper::GateName::Z, b, &m1);
    c.cdiscard(m1);
    c.cdiscard(m2);
    c.rot("Ry(%)", -0.7, b);
    let check = c.measure_bit(b);
    c.finish(&check)
}

fn ghz(n: usize) -> BCircuit {
    Circ::build(&vec![false; n], |c, qs: Vec<Qubit>| {
        c.hadamard(qs[0]);
        for w in qs.windows(2) {
            c.cnot(w[1], w[0]);
        }
        qs.into_iter().map(|q| c.measure(q)).collect::<Vec<_>>()
    })
}

fn ghz3() -> BCircuit {
    ghz(3)
}

fn ghz5() -> BCircuit {
    ghz(5)
}

/// Four-bit parity into a target, via `classical_to_reversible`, then
/// every wire measured.
fn parity4() -> BCircuit {
    let parity = Dag::build(4, |b, xs| {
        vec![xs.iter().fold(b.constant(false), |acc, x| acc ^ x.clone())]
    });
    Circ::build(
        &(vec![false; 4], false),
        |c, (xs, t): (Vec<Qubit>, Qubit)| {
            synth::classical_to_reversible(c, &parity, &xs, &[t]);
            let xs: Vec<_> = xs.into_iter().map(|x| c.measure(x)).collect();
            (xs, c.measure(t))
        },
    )
}

/// Grover search for one marked element among 2^3.
fn grover3() -> BCircuit {
    let dag = Dag::build(3, |_, xs| vec![&(&xs[0] & &!(&xs[1])) & &xs[2]]);
    grover_circuit(&dag, optimal_iterations(3, 1))
}

/// QFT over four qubits, then measure.
fn qft4() -> BCircuit {
    Circ::build(&vec![false; 4], |c, qs: Vec<Qubit>| {
        qft(c, &qs);
        qs.into_iter().map(|q| c.measure(q)).collect::<Vec<_>>()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_and_memoizes() {
        let catalog = Catalog::new();
        for name in catalog.names() {
            let first = catalog.get(name).unwrap();
            let second = catalog.get(name).unwrap();
            assert!(Arc::ptr_eq(&first, &second), "{name} should memoize");
        }
        assert!(catalog.get("no-such-circuit").is_none());
    }

    #[test]
    fn arities_match_the_builders() {
        let catalog = Catalog::new();
        assert_eq!(catalog.input_arity("ghz3"), Some(3));
        assert_eq!(catalog.input_arity("parity4"), Some(5));
        // Teleportation allocates its own qubits: no inputs.
        assert_eq!(catalog.input_arity("teleportation"), Some(0));
    }
}
