//! The random circuits and the two comparisons shared by `kernel_props` and
//! `window_props`.

// Each test crate uses its own part of this module.
#![allow(dead_code)]

use proptest::prelude::*;
use quipper::{Circ, Qubit};
use quipper_circuit::flatten::inline_all;
use quipper_circuit::{BCircuit, Circuit, GateName};
use quipper_sim::{StateVec, StateVecConfig};

/// Six data qubits (seven slots while an ancilla is in scope): more high
/// slots under a small window block than the window's budget of four, so
/// budget overflow is reachable.
pub const QUBITS: usize = 6;

/// One random instruction over a small register, spanning every shape the
/// resolver produces: phase-folded diagonals (S, T, Z, R, controlled T),
/// dense 1q (H, V, Ry), permutations (X, Y, CNOT, Toffoli), the two-slot
/// gates (CSwap, W), the relabeled uncontrolled Swap, a controlled global
/// phase, and a scoped ancilla (slot allocation and recycling).
#[derive(Clone, Copy, Debug)]
pub enum Op {
    H(usize),
    X(usize),
    Y(usize),
    Z(usize),
    S(usize),
    T(usize),
    V(usize),
    R(usize, u8),
    Ry(usize, u8),
    Cnot(usize, usize),
    Toffoli(usize, usize, usize),
    ControlledT(usize, usize),
    Swap(usize, usize),
    CSwap(usize, usize, usize),
    W(usize, usize),
    GPhase(u8, usize),
    Ancilla(usize),
}

impl Op {
    /// Whether the op resolves to a two-slot gate, which a window takes only
    /// below its block boundary.
    pub fn is_two_slot(self) -> bool {
        matches!(self, Op::CSwap(s, a, b) if s != a && s != b && a != b)
            || matches!(self, Op::W(a, b) if a != b)
    }
}

pub fn op() -> impl Strategy<Value = Op> {
    let q = 0..QUBITS;
    prop_oneof![
        q.clone().prop_map(Op::H),
        q.clone().prop_map(Op::X),
        q.clone().prop_map(Op::Y),
        q.clone().prop_map(Op::Z),
        q.clone().prop_map(Op::S),
        q.clone().prop_map(Op::T),
        q.clone().prop_map(Op::V),
        (q.clone(), 1u8..5).prop_map(|(a, k)| Op::R(a, k)),
        (q.clone(), 0u8..8).prop_map(|(a, k)| Op::Ry(a, k)),
        (q.clone(), q.clone()).prop_map(|(a, b)| Op::Cnot(a, b)),
        (q.clone(), q.clone(), q.clone()).prop_map(|(a, b, c)| Op::Toffoli(a, b, c)),
        (q.clone(), q.clone()).prop_map(|(a, b)| Op::ControlledT(a, b)),
        (q.clone(), q.clone()).prop_map(|(a, b)| Op::Swap(a, b)),
        (q.clone(), q.clone(), q.clone()).prop_map(|(a, b, c)| Op::CSwap(a, b, c)),
        (q.clone(), q.clone()).prop_map(|(a, b)| Op::W(a, b)),
        (0u8..8, q.clone()).prop_map(|(k, a)| Op::GPhase(k, a)),
        q.prop_map(Op::Ancilla),
    ]
}

/// The ops a `==` test may run: every scoped ancilla after the first
/// relabeled swap is dropped.
///
/// Terminating an ancilla projects the state, and a projection sums `|a|²`
/// in storage order. After a relabel the production state stores the same
/// amplitudes in a different order than the oracle, which moved them, so the
/// two norms — and every amplitude scaled by them — may differ in the last
/// bit. That is a property of floating-point summation, not of any kernel;
/// the 1e-9 and histogram tests take their circuits whole.
pub fn exact(ops: &[Op]) -> Vec<Op> {
    let mut relabeled = false;
    ops.iter()
        .copied()
        .filter(|&op| {
            relabeled |= matches!(op, Op::Swap(a, b) if a != b);
            !(relabeled && matches!(op, Op::Ancilla(_)))
        })
        .collect()
}

/// How a random circuit ends.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Ending {
    /// The qubits stay quantum: final amplitudes are compared.
    Quantum,
    /// Every qubit is measured: outputs are compared, seed for seed.
    Measured,
}

/// Builds the random circuit; ops whose wires coincide are skipped.
pub fn circuit(ops: &[Op], ending: Ending) -> BCircuit {
    let mut c = Circ::new();
    let qs: Vec<Qubit> = (0..QUBITS).map(|_| c.qinit_bit(false)).collect();
    for &op in ops {
        match op {
            Op::H(a) => c.hadamard(qs[a]),
            Op::X(a) => c.qnot(qs[a]),
            Op::Y(a) => c.gate_y(qs[a]),
            Op::Z(a) => c.gate_z(qs[a]),
            Op::S(a) => c.gate_s(qs[a]),
            Op::T(a) => c.gate_t(qs[a]),
            Op::V(a) => c.gate_v(qs[a]),
            Op::R(a, k) => c.rgate(k.into(), qs[a]),
            Op::Ry(a, k) => c.rot("Ry(%)", f64::from(k) * 0.37, qs[a]),
            Op::Cnot(a, b) if a != b => c.cnot(qs[a], qs[b]),
            Op::Toffoli(t, a, b) if t != a && t != b && a != b => {
                c.toffoli(qs[t], qs[a], qs[b]);
            }
            Op::ControlledT(a, b) if a != b => {
                let (qa, qb) = (qs[a], qs[b]);
                c.with_controls(&qb, |c| c.gate_t(qa));
            }
            Op::Swap(a, b) if a != b => c.swap(qs[a], qs[b]),
            Op::CSwap(s, a, b) if s != a && s != b && a != b => {
                let (qa, qb, qsl) = (qs[a], qs[b], qs[s]);
                c.with_controls(&qsl, |c| c.swap(qa, qb));
            }
            Op::W(a, b) if a != b => c.gate_w(qs[a], qs[b]),
            Op::GPhase(k, a) => {
                let q = qs[a];
                c.with_controls(&q, |c| c.gphase(f64::from(k) / 4.0));
            }
            Op::Ancilla(a) => {
                let q = qs[a];
                c.with_ancilla(|c, anc| {
                    c.cnot(anc, q);
                    c.gate_t(anc);
                    c.hadamard(anc);
                    c.hadamard(anc);
                    c.gate_inv(GateName::T, anc);
                    c.cnot(anc, q);
                });
            }
            _ => {}
        }
    }
    match ending {
        Ending::Measured => {
            let ms: Vec<_> = qs.into_iter().map(|q| c.measure_bit(q)).collect();
            c.finish(&ms)
        }
        Ending::Quantum => c.finish(&qs),
    }
}

/// One thread, or four that split every state however small; blocks of
/// `2^bits` amplitudes.
pub fn config(bits: u32, threads: usize) -> StateVecConfig {
    StateVecConfig {
        threads,
        parallel_threshold: if threads > 1 { 0 } else { u32::MAX },
        window_block_bits: bits,
    }
}

pub fn flat_of(bc: &BCircuit) -> Circuit {
    inline_all(&bc.db, &bc.main).unwrap()
}

/// The `==` contract, on canonical amplitudes: the production path relabels
/// uncontrolled swaps where the oracle moves amplitudes, so raw storage
/// order differs while every amplitude must be the same number. `f64 ==`
/// treats −0.0 and +0.0 as equal — the one place the paths legitimately
/// differ; everything else must be bit-for-bit the same.
pub fn assert_identical(oracle: &StateVec, got: &StateVec, what: &str) {
    let (xa, xb) = (oracle.canonical_amplitudes(), got.canonical_amplitudes());
    assert_eq!(xa.len(), xb.len(), "{what}: state sizes differ");
    for (i, (x, y)) in xa.iter().zip(&xb).enumerate() {
        assert!(
            x.re == y.re && x.im == y.im,
            "{what}: amplitude {i} differs: {x:?} vs {y:?}"
        );
    }
}

/// The merged-matrix contract: products round differently, so canonical
/// amplitudes agree to 1e-9.
pub fn assert_close(oracle: &StateVec, got: &StateVec, what: &str) {
    let (xa, xb) = (oracle.canonical_amplitudes(), got.canonical_amplitudes());
    assert_eq!(xa.len(), xb.len(), "{what}: state sizes differ");
    for (i, (x, y)) in xa.iter().zip(&xb).enumerate() {
        let d = ((x.re - y.re).powi(2) + (x.im - y.im).powi(2)).sqrt();
        assert!(d < 1e-9, "{what}: amplitude {i} off by {d}: {x:?} vs {y:?}");
    }
}
