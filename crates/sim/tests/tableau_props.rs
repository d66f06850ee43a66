//! Property tests of the bit-packed stabilizer tableau: on random Clifford
//! circuits with measurements, [`PackedTableau`] must produce the same
//! outputs as the bool-matrix reference [`BoolTableau`], seed for seed.
//!
//! Both backends draw randomness in the same order (exactly one RNG draw
//! per *random* measurement, none for deterministic ones), so equality is
//! exact, not statistical: every random-measurement branch, every
//! deterministic g-sum, and the destabilizer write-back in the packed
//! word-parallel phase arithmetic is pinned against the row-at-a-time
//! reference.
//!
//! Random measurements show no sign, so the other families end in
//! deterministic ones: each measures a stabilizer of a random state, whose
//! outcome is +1 and depends on every sign the gates wrote. Measuring a
//! product of several of the state's generators makes the tableau multiply
//! rows whose factors anticommute column by column (say `X₁X₂`, `Z₁Z₂`,
//! `Z₀Y₁Y₂`), which a single generator never does; measuring it across
//! more than 64 qubits makes the column sums carry from word to word.

use proptest::prelude::*;
use quipper::{Circ, Qubit};
use quipper_circuit::flatten::inline_all;
use quipper_circuit::{BCircuit, Circuit, GateName};
use quipper_sim::reference::BoolTableau;
use quipper_sim::stabilizer::{run_clifford_flat_tableau, PackedTableau};

const QUBITS: usize = 8;

/// Largest data width of the wide family: with its ancillas the tableau
/// spans two to four words of rows.
const WIDE: usize = 190;

/// One random Clifford instruction: the 1q generators and their inverses,
/// the supported 2q gates (CNOT, CZ, Swap), and classically-controlled
/// forms arising from prior measurements are left to the driver.
#[derive(Clone, Copy, Debug)]
enum Op {
    H(usize),
    X(usize),
    Y(usize),
    Z(usize),
    S(usize),
    SInv(usize),
    Cnot(usize, usize),
    Cz(usize, usize),
    Swap(usize, usize),
}

impl Op {
    /// The same instruction with every qubit index taken mod `n`.
    fn wrap(self, n: usize) -> Op {
        match self {
            Op::H(a) => Op::H(a % n),
            Op::X(a) => Op::X(a % n),
            Op::Y(a) => Op::Y(a % n),
            Op::Z(a) => Op::Z(a % n),
            Op::S(a) => Op::S(a % n),
            Op::SInv(a) => Op::SInv(a % n),
            Op::Cnot(a, b) => Op::Cnot(a % n, b % n),
            Op::Cz(a, b) => Op::Cz(a % n, b % n),
            Op::Swap(a, b) => Op::Swap(a % n, b % n),
        }
    }
}

/// An instruction on qubits `0..qubits`.
fn op(qubits: usize) -> impl Strategy<Value = Op> {
    let q = 0..qubits;
    prop_oneof![
        q.clone().prop_map(Op::H),
        q.clone().prop_map(Op::X),
        q.clone().prop_map(Op::Y),
        q.clone().prop_map(Op::Z),
        q.clone().prop_map(Op::S),
        q.clone().prop_map(Op::SInv),
        (q.clone(), q.clone()).prop_map(|(a, b)| Op::Cnot(a, b)),
        (q.clone(), q.clone()).prop_map(|(a, b)| Op::Cz(a, b)),
        (q.clone(), q.clone()).prop_map(|(a, b)| Op::Swap(a, b)),
    ]
}

/// Builds the random Clifford circuit; 2q ops whose wires coincide are
/// skipped. Every qubit is measured at the end, so each run exercises a
/// mix of random (H-touched) and deterministic (post-collapse, entangled)
/// measurements.
fn circuit(ops: &[Op]) -> BCircuit {
    let mut c = Circ::new();
    let qs: Vec<Qubit> = (0..QUBITS).map(|_| c.qinit_bit(false)).collect();
    apply(&mut c, &qs, ops);
    let ms: Vec<_> = qs.into_iter().map(|q| c.measure_bit(q)).collect();
    c.finish(&ms)
}

fn cz(c: &mut Circ, a: Qubit, b: Qubit) {
    c.with_controls(&b, |c| c.gate_z(a));
}

fn apply(c: &mut Circ, qs: &[Qubit], ops: &[Op]) {
    for &op in ops {
        match op {
            Op::H(a) => c.hadamard(qs[a]),
            Op::X(a) => c.qnot(qs[a]),
            Op::Y(a) => c.gate_y(qs[a]),
            Op::Z(a) => c.gate_z(qs[a]),
            Op::S(a) => c.gate_s(qs[a]),
            Op::SInv(a) => c.gate_inv(GateName::S, qs[a]),
            Op::Cnot(a, b) if a != b => c.cnot(qs[a], qs[b]),
            Op::Cz(a, b) if a != b => cz(c, qs[a], qs[b]),
            Op::Swap(a, b) if a != b => c.swap(qs[a], qs[b]),
            _ => {}
        }
    }
}

/// The inverse of [`apply`], with every two-qubit gate spelled through the
/// other one (CNOT = H·CZ·H on the target, CZ = H·CNOT·H). Undone by the
/// same gate, a sign term a rule drops would be dropped twice and cancel.
fn unapply(c: &mut Circ, qs: &[Qubit], ops: &[Op]) {
    for &op in ops.iter().rev() {
        match op {
            Op::S(a) => c.gate_inv(GateName::S, qs[a]),
            Op::SInv(a) => c.gate_s(qs[a]),
            Op::Cnot(a, b) if a != b => {
                c.hadamard(qs[a]);
                cz(c, qs[a], qs[b]);
                c.hadamard(qs[a]);
            }
            Op::Cz(a, b) if a != b => {
                c.hadamard(qs[a]);
                c.cnot(qs[a], qs[b]);
                c.hadamard(qs[a]);
            }
            op => apply(c, qs, &[op]),
        }
    }
}

/// A random Clifford circuit `C` on `data` qubits prepares `C|0…0⟩`, whose
/// stabilizers include `C·Z_S·C†` for every set `S` of qubits; ancilla `i`
/// measures the one for `subsets[i]`: it starts in |+⟩, controls `Z_S`
/// between `C⁻¹` and `C`, and is read in the X basis. Every outcome is
/// deterministic, and +1 (bit 0). The ancillas are read before the data
/// qubits are discarded, so the outputs are the ancillas alone.
fn stabilizer_checks(data: usize, ops: &[Op], subsets: &[Vec<usize>]) -> BCircuit {
    let mut c = Circ::new();
    let qs: Vec<Qubit> = (0..data).map(|_| c.qinit_bit(false)).collect();
    apply(&mut c, &qs, ops);
    let ancillas: Vec<Qubit> = subsets.iter().map(|_| c.qinit_bit(false)).collect();
    for &a in &ancillas {
        c.hadamard(a);
    }
    unapply(&mut c, &qs, ops);
    for (&a, subset) in ancillas.iter().zip(subsets) {
        for &i in subset {
            cz(&mut c, qs[i], a);
        }
    }
    apply(&mut c, &qs, ops);
    let ms: Vec<_> = ancillas
        .into_iter()
        .map(|a| {
            c.hadamard(a);
            c.measure_bit(a)
        })
        .collect();
    for q in qs {
        c.qdiscard(q);
    }
    c.finish(&ms)
}

/// Runs [`stabilizer_checks`] on both tableaux: they agree, and every
/// outcome is +1.
fn checks_measure_plus_one(data: usize, ops: &[Op], subsets: &[Vec<usize>]) {
    let flat = flat_of(&stabilizer_checks(data, ops, subsets));
    let packed = run_clifford_flat_tableau::<PackedTableau>(&flat, &[], 0).unwrap();
    let reference = run_clifford_flat_tableau::<BoolTableau>(&flat, &[], 0).unwrap();
    assert_eq!(packed, reference);
    assert_eq!(packed, vec![false; subsets.len()]);
}

fn flat_of(bc: &BCircuit) -> Circuit {
    inline_all(&bc.db, &bc.main).unwrap()
}

proptest! {
    // Most deep draws measure every qubit at random, where no sign shows;
    // at 48 cases a broken row-product phase went unseen.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The packed tableau matches the bool-matrix reference on every
    /// output bit, for every seed.
    #[test]
    fn packed_tableau_matches_bool_reference(
        ops in proptest::collection::vec(op(QUBITS), 1..60),
    ) {
        let flat = flat_of(&circuit(&ops));
        for seed in 0..8u64 {
            let packed = run_clifford_flat_tableau::<PackedTableau>(&flat, &[], seed).unwrap();
            let reference = run_clifford_flat_tableau::<BoolTableau>(&flat, &[], seed).unwrap();
            prop_assert_eq!(
                &packed,
                &reference,
                "backends diverge at seed {}",
                seed
            );
        }
    }

    /// Every stabilizer of a random state measures +1 on both tableaux.
    /// A dropped sign term in a two-qubit rule shows here, where the
    /// random-measurement family above has no sign to see.
    #[test]
    fn stabilizers_of_a_random_state_measure_plus_one(
        ops in proptest::collection::vec(op(QUBITS), 1..60),
    ) {
        let singletons: Vec<Vec<usize>> = (0..QUBITS).map(|i| vec![i]).collect();
        checks_measure_plus_one(QUBITS, &ops, &singletons);
    }

    /// Products of a random state's generators measure +1 on both tableaux.
    /// Their rows anticommute column by column, so every `±i` lane of the
    /// row-product phase decides some outcome here.
    #[test]
    fn products_of_stabilizers_measure_plus_one(
        ops in proptest::collection::vec(op(QUBITS), 1..60),
        subsets in proptest::collection::vec(proptest::collection::vec(0..QUBITS, 1..QUBITS), QUBITS),
    ) {
        checks_measure_plus_one(QUBITS, &ops, &subsets);
    }
}

proptest! {
    // Each case simulates up to 200 qubits on the bool tableau too.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same checks on 65–190 data qubits: each product's rows span
    /// several words, so its column sums carry X and Z parity across word
    /// boundaries.
    #[test]
    fn wide_products_of_stabilizers_measure_plus_one(
        data in 65..=WIDE,
        ops in proptest::collection::vec(op(WIDE), 64..512),
        subsets in proptest::collection::vec(proptest::collection::vec(0..WIDE, 2..64), 4..11),
    ) {
        let ops: Vec<Op> = ops.into_iter().map(|op| op.wrap(data)).collect();
        let subsets: Vec<Vec<usize>> = subsets
            .into_iter()
            .map(|s| s.into_iter().map(|i| i % data).collect())
            .collect();
        checks_measure_plus_one(data, &ops, &subsets);
    }
}
