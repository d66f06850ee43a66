//! Mixed classical/quantum wires on every simulator: hand-built flat
//! circuits (no generator emits a `CGate`) that allocate and free qubits,
//! initialize, combine, assert and discard classical bits, and feed
//! measurement outcomes to classical controls of quantum gates. The wires
//! are one module every simulator shares; these check that what each does
//! to its quantum store agrees with the state vector, and that the route
//! profile asks the simulators what they run.

use std::collections::BTreeSet;

use proptest::prelude::*;
use quipper_circuit::GateName::{self, Swap, H, S, T, V, X, Y, Z};
use quipper_circuit::{Circuit, Control, Gate, Wire, WireType};
use quipper_exec::profile;
use quipper_sim::stabilizer::Stabilizer;
use quipper_sim::{run_classical_flat, run_flat, SimError, StateVec};

/// Each qubit is measured once and at most five are allocated, so each
/// trajectory of a run has probability ≥ 2^-5, and [`SEEDS`] seeds miss
/// one with probability (31/32)^1024 < 1e-14.
const MAX_QUBITS: usize = 5;
const SEEDS: u64 = 1024;

/// `(kind, a, b, c, flag)`, with `a` and `b` wrapping around the wires
/// live when the op runs: kinds 0–7 are a quantum gate (see
/// [`Builder::push`]), 8–14 `QMeas`, `QInit`, `QTerm` (permutation draws
/// only: on a Clifford draw it may hold with probability ½, which the state
/// vector reports only to rounding), `CInit`, `CGate` (name `c % 4`),
/// `CTerm` and `CDiscard`.
type Op = (usize, usize, usize, usize, bool);

fn op() -> impl Strategy<Value = Op> {
    (0..15usize, 0..8usize, 0..8usize, 0..48usize, any::<bool>())
}

/// A flat circuit under construction and its live wires. A new wire is
/// named after the index of the gate that makes it.
#[derive(Default)]
struct Builder {
    permutation: bool,
    gates: Vec<Gate>,
    qubits: Vec<Wire>,
    bits: Vec<Wire>,
    allocated: usize,
}

/// Removes the `i`-th wire of `live`, wrapping, if there is one.
fn take(live: &mut Vec<Wire>, i: usize) -> Option<Wire> {
    (!live.is_empty()).then(|| live.remove(i % live.len()))
}

impl Builder {
    fn fresh(&self) -> Wire {
        Wire(u32::try_from(self.gates.len()).unwrap())
    }

    /// Pushes `op`'s gate, if its wires are there. A quantum gate is the
    /// family's `kind`-th name, wrapping, on qubit `a`, inverted if `c` is
    /// odd, with qubit `b` as a swap's second target or, if `c & 2`, an X's
    /// or Z's control, and `c / 4 % 3` further controls of alternating sign
    /// from `flag`: live bits, or on a permutation draw any live wires.
    fn push(&mut self, (kind, a, b, c, flag): Op) -> Option<()> {
        let (wire, nq, nb) = (self.fresh(), self.qubits.len(), self.bits.len());
        let gate = match kind {
            0..=7 if nq > 0 => {
                let names: &[GateName] = if self.permutation {
                    &[X, Z, S, T, Swap]
                } else {
                    &[X, Z, S, V, Swap, H, Y]
                };
                let name = names[kind % names.len()].clone();
                let (ta, tb) = (self.qubits[a % nq], self.qubits[b % nq]);
                let controlled = c & 2 != 0 && matches!(name, X | Z);
                if (controlled || name == Swap) && ta == tb {
                    return None;
                }
                let mut targets = vec![ta];
                let mut controls = Vec::new();
                if name == Swap {
                    targets.push(tb);
                } else if controlled {
                    controls.push(Control::positive(tb));
                }
                let qubits = if self.permutation { nq } else { 0 };
                let pool: Vec<Wire> = (self.bits.iter().chain(&self.qubits[..qubits]).copied())
                    .filter(|&w| w != ta && w != tb)
                    .collect();
                for k in 0..(c / 4 % 3).min(pool.len()) {
                    let wire = pool[(c / 12 + k) % pool.len()];
                    controls.push(Control {
                        wire,
                        positive: flag ^ (k == 1),
                    });
                }
                let inverted = c % 2 == 1;
                Gate::QGate {
                    name,
                    inverted,
                    targets,
                    controls,
                }
            }
            8 => {
                let wire = take(&mut self.qubits, a)?;
                self.bits.push(wire);
                Gate::QMeas { wire }
            }
            9 if self.allocated < MAX_QUBITS => {
                self.allocated += 1;
                self.qubits.push(wire);
                Gate::QInit { value: flag, wire }
            }
            10 if self.permutation => Gate::QTerm {
                value: flag,
                wire: take(&mut self.qubits, a)?,
            },
            11 => {
                self.bits.push(wire);
                Gate::CInit { value: flag, wire }
            }
            12 if nb > 0 => {
                let name = ["xor", "and", "or", "not"][c % 4];
                let inputs = [self.bits[a % nb], self.bits[b % nb]];
                self.bits.push(wire);
                Gate::CGate {
                    name: name.into(),
                    inverted: flag,
                    target: wire,
                    inputs: inputs[..if name == "not" { 1 } else { 2 }].to_vec(),
                }
            }
            13 => Gate::CTerm {
                value: flag,
                wire: take(&mut self.bits, a)?,
            },
            14 => Gate::CDiscard {
                wire: take(&mut self.bits, a)?,
            },
            _ => return None,
        };
        self.gates.push(gate);
        Some(())
    }
}

/// The circuit: three qubits, the ops, a tail every draw shares (if a qubit
/// is live: its outcome xored by a `CGate` with a `CInit` bit, which is
/// discarded, into the classical control of an X), then every live qubit
/// measured. The outputs are the live bits.
fn circuit(permutation: bool, ops: &[Op]) -> Circuit {
    const MEASURE: Op = (8, 0, 0, 0, false);
    let mut b = Builder {
        permutation,
        ..Builder::default()
    };
    for op in [(9, 0, 0, 0, false); 3].iter().chain(ops) {
        b.push(*op);
    }
    if b.push(MEASURE).is_some() {
        // `CInit` a 1 at bit `nb`, xor it with the outcome into bit
        // `nb + 1`, discard it, and control an X on the first qubit by
        // the xor, bit `nb` once the 1 is gone.
        let nb = b.bits.len();
        for op in [
            (11, 0, 0, 0, true),
            (12, nb - 1, nb, 0, false),
            (14, nb, 0, 0, false),
        ] {
            b.push(op);
        }
        if let Some(&q) = b.qubits.first() {
            b.gates.push(Gate::cnot(q, b.bits[nb]));
        }
    }
    while b.push(MEASURE).is_some() {}
    Circuit {
        inputs: Vec::new(),
        outputs: b.bits.iter().map(|&w| (w, WireType::Classical)).collect(),
        wire_bound: b.fresh().0,
        gates: b.gates,
    }
}

/// A simulator run a gate at a time.
trait Stepped {
    fn step(&mut self, gate: &Gate) -> Result<(), SimError>;
    fn bit(&self, wire: Wire) -> Option<bool>;
}

impl Stepped for Stabilizer {
    fn step(&mut self, gate: &Gate) -> Result<(), SimError> {
        self.apply(gate)
    }
    fn bit(&self, wire: Wire) -> Option<bool> {
        self.classical_value(wire)
    }
}

/// The state vector also checks that on a Clifford draw it measures with
/// probability 0, ½ or 1.
impl Stepped for StateVec {
    fn step(&mut self, gate: &Gate) -> Result<(), SimError> {
        if let Gate::QMeas { wire } = gate {
            let p = self.probability(*wire, true);
            assert!(
                [0.0, 0.5, 1.0].iter().any(|q| (p - q).abs() < 1e-9),
                "p1 {p}"
            );
        }
        self.apply(gate)
    }
    fn bit(&self, wire: Wire) -> Option<bool> {
        self.classical_value(wire)
    }
}

/// Every outcome of a run of `flat`, then its outputs or the error that
/// stopped it.
fn trajectory(mut sim: impl Stepped, flat: &Circuit) -> String {
    let mut outcomes = Vec::new();
    for gate in &flat.gates {
        if let Err(e) = sim.step(gate) {
            return format!("{outcomes:?} {e:?}");
        }
        if let Gate::QMeas { wire } = gate {
            outcomes.push(sim.bit(*wire).unwrap());
        }
    }
    let outputs: Vec<_> = flat.outputs.iter().map(|&(w, _)| sim.bit(w)).collect();
    format!("{outcomes:?} {outputs:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On basis permutations the classical simulator is the state vector —
    /// the same outputs or the same error — and the profile routes to it.
    #[test]
    fn classical_and_statevec_agree_on_mixed_wires(
        ops in proptest::collection::vec(op(), 0..24),
        seed in 0u64..1000,
    ) {
        let flat = circuit(true, &ops);
        prop_assert!(profile(&flat).classical_only, "{:?}", flat.gates);
        let statevec = run_flat(&flat, &[], seed).map(|r| r.classical_outputs());
        prop_assert_eq!(run_classical_flat(&flat, &[]), statevec, "{:?}", flat.gates);
    }

    /// On Clifford circuits the stabilizer is the state vector: over their
    /// seeds the two reach the same trajectories, so each deterministic
    /// outcome is the stabilizer's and each random one goes both ways. The
    /// profile routes to the stabilizer.
    #[test]
    fn stabilizer_and_statevec_agree_on_mixed_wires(
        ops in proptest::collection::vec(op(), 0..24),
    ) {
        let flat = circuit(false, &ops);
        prop_assert!(profile(&flat).clifford_only, "{:?}", flat.gates);
        let (mut statevec, mut stabilizer) = (BTreeSet::new(), BTreeSet::new());
        for seed in 0..SEEDS {
            statevec.insert(trajectory(StateVec::new(seed), &flat));
            stabilizer.insert(trajectory(Stabilizer::new(seed), &flat));
        }
        prop_assert_eq!(stabilizer, statevec, "{:?}", flat.gates);
    }
}
