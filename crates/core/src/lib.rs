//! # Quipper, in Rust: a scalable quantum circuit-description language
//!
//! This crate is the core of a Rust reproduction of *Quipper: A Scalable
//! Quantum Programming Language* (Green, Lumsdaine, Ross, Selinger, Valiron;
//! PLDI 2013). Quipper is an embedded language for describing *families of
//! quantum circuits*: a program is ordinary host-language code that, when
//! run with concrete parameters (*circuit generation time*), emits a circuit
//! to be executed later on a quantum device (*circuit execution time*) — the
//! "two run-times" of the paper's §4.3.
//!
//! The embedding works exactly as in the paper, with the monadic idiom
//! replaced by an explicit builder:
//!
//! * [`Circ`] is the circuit-construction context (`Circ` monad): qubits are
//!   held in variables and gates applied one at a time (§4.4.1).
//! * Block-structure operators [`Circ::with_controls`],
//!   [`Circ::with_ancilla`], [`Circ::with_ancilla_init`] and
//!   [`Circ::with_computed`] (§4.4.2, §5.3.1).
//! * Whole-circuit operators: [`Circ::reverse_simple`],
//!   [`decompose::decompose`] (§4.4.3), boxed subcircuits via
//!   [`Circ::box_circ`] (§4.4.4).
//! * Extensible quantum data via the [`QCData`] and [`Shape`] traits (§4.5).
//! * Automatic synthesis of reversible oracles from classical code via the
//!   [`classical`] module — the analogue of `build_circuit` /
//!   `classical_to_reversible` (§4.6).
//! * Run functions: printing ([`quipper_circuit::print`]), gate counting
//!   ([`quipper_circuit::count`]); simulators live in the `quipper-sim`
//!   crate (§4.4.5).
//!
//! # Quickstart
//!
//! The paper's first example (`mycirc`, §4.4.1):
//!
//! ```
//! use quipper::{Circ, Qubit};
//!
//! fn mycirc(c: &mut Circ, a: Qubit, b: Qubit) -> (Qubit, Qubit) {
//!     c.hadamard(a);
//!     c.hadamard(b);
//!     c.cnot(b, a); // controlled_not
//!     (a, b)
//! }
//!
//! let circuit = Circ::build(&(false, false), |c, (a, b)| mycirc(c, a, b));
//! println!("{}", quipper_circuit::print::to_text(&circuit));
//! assert_eq!(circuit.gate_count().total(), 3);
//! ```

pub mod classical;
pub mod decompose;
pub mod qdata;
pub mod qft;
pub mod shape;
pub mod transform;

mod circ;

pub use circ::{Circ, Lifter};
pub use qdata::{Bit, ControlSpec, QCData, Qubit, WireSource};
pub use shape::{Measurable, Shape};

// Re-export the circuit IR so downstream users need only one dependency.
pub use quipper_circuit as circuit;
pub use quipper_circuit::{BCircuit, CircuitError, Control, Gate, GateName, Wire, WireType};
