//! Simulators for Quipper circuits.
//!
//! Quipper separates the description of circuits from what to do with them
//! (paper §4.4.5); this crate provides the *run functions* that execute
//! circuits:
//!
//! * [`statevec::run`] — exact state-vector simulation (`run_generic`),
//!   exponential in circuit width but supporting every gate.
//! * [`classical::run_classical`] — bit-per-wire simulation of classical /
//!   reversible circuits (`run_classical_generic`), the workhorse for
//!   testing oracles.
//! * [`stabilizer::run_clifford`] — polynomial-time CHP tableau simulation
//!   of Clifford circuits (`run_clifford_generic`).
//! * [`statevec::evolve`] / [`stabilizer::evolve_clifford`] — the same
//!   simulators split for shot loops: the shot-invariant prefix runs once
//!   and every shot is finished from that state, seed for seed identical to
//!   the whole-circuit run functions above.
//! * [`interactive::SimLifter`] — a simulated quantum device supporting
//!   *dynamic lifting* (paper §4.3), for algorithms that interleave circuit
//!   generation and execution such as Unique Shortest Vector.
//!
//! The three simulators share one model of the circuit's wires (paper
//! §4.2): a private `wires` module binds the inputs, keeps the slot map
//! with its parked slots and the classical store, runs the classical gates
//! (`CInit`, `CTerm`, `CDiscard`, `CGate`), allocation, termination and
//! measurement, judges classical controls, and reads the outputs. Each
//! simulator keeps only its quantum store and what it does to it —
//! amplitudes, a tableau, one bit per slot — and writes its gate set once:
//! [`classical::accepts`] and [`stabilizer::accepts`] are what its own gate
//! loop runs, and what the `quipper-exec` route profile asks.
//!
//! The state-vector simulator runs the stream [`fuse::fuse_circuit`] makes
//! once per plan (same-wire single-qubit runs merged into 2×2 products,
//! unitary runs cut into window segments) through [`kernels`] and the
//! blocked window executor.
//!
//! Each simulator has one production path. The slow implementations the
//! fast ones are proven against — the full-scan state vector, the bool
//! tableau — live in [`reference`], which only tests and benchmarks name.

pub mod classical;
pub mod complex;
pub mod error;
pub mod fuse;
pub mod interactive;
pub mod kernels;
pub mod reference;
pub mod simd;
pub mod stabilizer;
pub mod statevec;
mod window;
mod wires;

pub use classical::{run_classical, run_classical_flat};
pub use error::SimError;
pub use fuse::{fuse_circuit, segment_circuit, FuseStats, FusedCircuit, FusedOp};
pub use interactive::SimLifter;
pub use kernels::KernelStats;
pub use stabilizer::{evolve_clifford, run_clifford, run_clifford_flat, EvolvedClifford};
pub use statevec::{
    evolve, run, run_flat, run_flat_with, run_fused, Evolved, RunResult, Shots, StateVec,
    StateVecConfig, Suffix,
};

// Send/Sync audit: the `quipper-serve` workers share compiled plans
// (flattened and fused circuits) across threads and move results between
// them. If a non-thread-safe handle (`Rc`, `RefCell`, raw pointer)
// ever creeps into these types, fail the build here — at the declaration of
// the contract — rather than deep inside the engine's generic bounds.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    // Shared read-only across threads:
    assert_send_sync::<quipper_circuit::Circuit>();
    assert_send_sync::<quipper_circuit::Gate>();
    assert_send_sync::<quipper_circuit::BCircuit>();
    assert_send_sync::<FusedCircuit>();
    assert_send_sync::<Evolved>();
    assert_send_sync::<EvolvedClifford<'static>>();
    // Moved between threads:
    assert_send::<StateVec>();
    assert_send::<statevec::RunResult>();
    assert_send::<stabilizer::Stabilizer>();
    assert_send_sync::<SimError>();
};
