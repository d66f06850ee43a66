//! Dynamic lifting, backed by the state-vector simulator.
//!
//! Dynamic lifting "allows circuit outputs (for example, the results of
//! measurements) to be re-used as circuit parameters (to control the
//! generation of the next part of the circuit)" (paper §4.3.1) — the QRAM
//! model of computation. [`SimLifter`] plays the role of the quantum device:
//! it executes each batch of generated gates as they are handed over and
//! reports measurement outcomes back to the circuit generator.

use std::cell::RefCell;
use std::rc::Rc;

use quipper::{Circ, Lifter};
use quipper_circuit::{CircuitDb, Gate, Wire};

use crate::statevec::StateVec;

/// A [`Lifter`] that executes pending gates on a [`StateVec`].
#[derive(Debug)]
pub struct SimLifter {
    state: StateVec,
    /// Fresh-wire allocator for expanding boxed subcircuits: subroutine
    /// bodies need local wires that must not collide with the generator's
    /// ids, so they are drawn from the top of the id space.
    next_expansion_wire: u32,
    /// Pending output-rebinding substitution across lift batches.
    subst: std::collections::HashMap<Wire, Wire>,
}

impl SimLifter {
    /// Creates a simulator-backed lifter with a measurement seed.
    pub fn new(seed: u64) -> SimLifter {
        SimLifter {
            state: StateVec::new(seed),
            next_expansion_wire: 1 << 30,
            subst: std::collections::HashMap::new(),
        }
    }

    /// Creates a lifter and installs it on the given circuit context,
    /// returning a shared handle for later inspection.
    pub fn install(c: &mut Circ, seed: u64) -> Rc<RefCell<SimLifter>> {
        let lifter = Rc::new(RefCell::new(SimLifter::new(seed)));
        c.set_lifter(lifter.clone());
        lifter
    }
}

impl Lifter for SimLifter {
    /// Executes the pending gates — expanding boxed subcircuit calls on the
    /// fly — and reads the classical wire.
    ///
    /// # Panics
    ///
    /// Panics if a gate is unsupported by the state-vector simulator, if a
    /// subroutine expansion fails, or if the lifted wire has no classical
    /// value.
    fn lift(&mut self, new_gates: &[Gate], db: &CircuitDb, bit: Wire) -> bool {
        let state = &mut self.state;
        let result = quipper_circuit::flatten::expand_gates(
            db,
            new_gates,
            &mut self.next_expansion_wire,
            &mut self.subst,
            &mut |g| {
                if let Err(e) = state.apply(g) {
                    panic!("dynamic lifting: simulation failed: {e}");
                }
            },
        );
        if let Err(e) = result {
            panic!("dynamic lifting: subroutine expansion failed: {e}");
        }
        let bit = self.subst.get(&bit).copied().unwrap_or(bit);
        self.state
            .classical_value(bit)
            .unwrap_or_else(|| panic!("dynamic lifting: wire {bit} has no classical value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifted_measurement_steers_generation() {
        // Measure a deterministic qubit and branch on the lifted value: only
        // the taken branch's gates are generated (paper §4.3.2's if-then-else
        // on a parameter vs an input).
        for bit in [false, true] {
            let mut c = Circ::new();
            SimLifter::install(&mut c, 42);
            let q = c.qinit_bit(bit);
            let m = c.measure_bit(q);
            let v = c.dynamic_lift(m);
            assert_eq!(v, bit);
            // Branch: generate different circuits depending on v.
            let out = c.qinit_bit(false);
            if v {
                c.qnot(out);
            }
            c.cdiscard(m);
            let m2 = c.measure_bit(out);
            let bc = c.finish(&m2);
            assert_eq!(
                bc.gate_count().by_name("\"Not\"", 0, 0),
                u128::from(bit),
                "only the taken branch appears in the generated circuit"
            );
        }
    }

    #[test]
    fn repeated_lifting_interleaves_generation_and_execution() {
        // A loop that keeps measuring |+⟩ until it sees `true` — classical
        // control flow driven by quantum outcomes (paper §3.5).
        let mut c = Circ::new();
        let lifter = SimLifter::install(&mut c, 7);
        let mut tries = 0;
        loop {
            tries += 1;
            let q = c.qinit_bit(false);
            c.hadamard(q);
            let m = c.measure_bit(q);
            let v = c.dynamic_lift(m);
            c.cdiscard(m);
            if v || tries > 100 {
                break;
            }
        }
        assert!(tries <= 100, "eventually measures true");
        let bc = c.finish(&());
        // The generated circuit contains exactly `tries` measurement gates.
        assert_eq!(bc.gate_count().by_name("Meas", 0, 0), tries as u128);
        drop(lifter);
    }
}

#[cfg(test)]
mod boxed_lift_tests {
    use super::*;
    use quipper::Qubit;

    #[test]
    fn dynamic_lifting_expands_boxed_subcircuits() {
        // A boxed "flip" subroutine used between lifts: the device expands
        // the call on the fly.
        let mut c = Circ::new();
        SimLifter::install(&mut c, 3);
        let q = c.qinit_bit(false);
        let q = c.box_circ("flip", q, |c, q: Qubit| {
            c.qnot(q);
            q
        });
        let m = c.measure_bit(q);
        let v = c.dynamic_lift(m);
        assert!(v, "boxed X flipped the qubit");
        c.cdiscard(m);
        let bc = c.finish(&());
        assert_eq!(bc.db.len(), 1, "the box is still in the database");
    }

    #[test]
    fn dynamic_lifting_survives_repeated_boxed_calls() {
        let mut c = Circ::new();
        SimLifter::install(&mut c, 9);
        let q = c.qinit_bit(false);
        // 3 boxed flips via repetition: odd → |1⟩.
        let q = c.box_repeat("flip3", "", 3, q, |c, q: Qubit| {
            c.qnot(q);
            q
        });
        let m = c.measure_bit(q);
        assert!(c.dynamic_lift(m), "three flips leave |1⟩");
        c.cdiscard(m);
        c.finish(&());
    }
}
