//! Property-based tests (proptest) on the core invariants:
//!
//! * oracle synthesis is semantics-preserving and reversible for *random*
//!   classical DAGs;
//! * random reversible circuits validate, reverse to the identity, and
//!   count consistently before and after inlining;
//! * quantum arithmetic agrees with machine arithmetic on random operands.

use proptest::prelude::*;

use quipper::classical::{synth, BExpr, CDag, Dag};
use quipper::{Circ, Qubit};
use quipper_circuit::flatten::inline_all;
use quipper_circuit::reverse::reverse_circuit;

// ---------------------------------------------------------------------
// Random classical DAGs
// ---------------------------------------------------------------------

/// A recipe for building a random expression over n inputs.
#[derive(Clone, Debug)]
enum Op {
    Input(usize),
    Const(bool),
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
    Mux(usize, usize, usize),
}

fn op_strategy(n_inputs: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n_inputs).prop_map(Op::Input),
        any::<bool>().prop_map(Op::Const),
        any::<prop::sample::Index>().prop_map(|i| Op::Not(i.index(64))),
        (any::<prop::sample::Index>(), any::<prop::sample::Index>())
            .prop_map(|(a, b)| Op::And(a.index(64), b.index(64))),
        (any::<prop::sample::Index>(), any::<prop::sample::Index>())
            .prop_map(|(a, b)| Op::Or(a.index(64), b.index(64))),
        (any::<prop::sample::Index>(), any::<prop::sample::Index>())
            .prop_map(|(a, b)| Op::Xor(a.index(64), b.index(64))),
        (
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>()
        )
            .prop_map(|(a, b, c)| Op::Mux(a.index(64), b.index(64), c.index(64))),
    ]
}

/// Builds a DAG from a recipe; expressions reference earlier pool entries.
fn build_dag(n_inputs: usize, ops: &[Op], n_outputs: usize) -> CDag {
    let dag = Dag::new(n_inputs as u32);
    let inputs = dag.inputs();
    let mut pool: Vec<BExpr> = inputs.clone();
    for op in ops {
        let pick = |i: usize| pool[i % pool.len()].clone();
        let e = match op {
            Op::Input(i) => inputs[i % n_inputs].clone(),
            Op::Const(b) => dag.constant(*b),
            Op::Not(a) => !pick(*a),
            Op::And(a, b) => pick(*a) & pick(*b),
            Op::Or(a, b) => pick(*a) | pick(*b),
            Op::Xor(a, b) => pick(*a) ^ pick(*b),
            Op::Mux(s, t, e) => pick(*s).mux(&pick(*t), &pick(*e)),
        };
        pool.push(e);
    }
    let outs: Vec<BExpr> = pool.iter().rev().take(n_outputs).cloned().collect();
    dag.finish(&outs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Synthesized oracles compute exactly the classical function, for
    /// every input, and uncompute their scratch (the run would fail on a
    /// violated termination assertion otherwise).
    #[test]
    fn synthesized_oracle_matches_eval(
        ops in prop::collection::vec(op_strategy(4), 1..24),
        preset in any::<bool>(),
    ) {
        let dag = build_dag(4, &ops, 2);
        let bc = Circ::build(
            &(vec![false; 4], vec![false; 2]),
            |c, (xs, ts): (Vec<Qubit>, Vec<Qubit>)| {
                synth::classical_to_reversible(c, &dag, &xs, &ts);
                (xs, ts)
            },
        );
        bc.validate().unwrap();
        for bits in 0..16u32 {
            let input: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let want = dag.eval(&input);
            let mut sim_in = input.clone();
            sim_in.extend([preset, preset]);
            let out = quipper_sim::run_classical(&bc, &sim_in).unwrap();
            prop_assert_eq!(&out[..4], &input[..], "inputs preserved");
            prop_assert_eq!(out[4], preset ^ want[0]);
            prop_assert_eq!(out[5], preset ^ want[1]);
        }
    }

    /// Hash-consing never changes semantics.
    #[test]
    fn sharing_is_semantics_preserving(
        ops in prop::collection::vec(op_strategy(5), 1..30),
    ) {
        let shared = build_dag(5, &ops, 3);
        // Rebuild without sharing by re-running the recipe on an
        // unshared builder.
        let dag = Dag::new_without_sharing(5);
        let inputs = dag.inputs();
        let mut pool: Vec<BExpr> = inputs.clone();
        for op in &ops {
            let pick = |i: usize| pool[i % pool.len()].clone();
            let e = match op {
                Op::Input(i) => inputs[i % 5].clone(),
                Op::Const(b) => dag.constant(*b),
                Op::Not(a) => !pick(*a),
                Op::And(a, b) => pick(*a) & pick(*b),
                Op::Or(a, b) => pick(*a) | pick(*b),
                Op::Xor(a, b) => pick(*a) ^ pick(*b),
                Op::Mux(s, t, e) => pick(*s).mux(&pick(*t), &pick(*e)),
            };
            pool.push(e);
        }
        let outs: Vec<BExpr> = pool.iter().rev().take(3).cloned().collect();
        let unshared = dag.finish(&outs);
        prop_assert!(shared.num_nodes() <= unshared.num_nodes());
        for bits in 0..32u32 {
            let input: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            prop_assert_eq!(shared.eval(&input), unshared.eval(&input));
        }
    }
}

// ---------------------------------------------------------------------
// Random reversible circuits
// ---------------------------------------------------------------------

/// A single random reversible gate over `n` wires.
#[derive(Clone, Debug)]
enum RGate {
    Not(usize),
    Cnot(usize, usize),
    Toffoli(usize, usize, usize),
    NegCnot(usize, usize),
    Swap(usize, usize),
}

fn rgate_strategy(n: usize) -> impl Strategy<Value = RGate> {
    prop_oneof![
        (0..n).prop_map(RGate::Not),
        (0..n, 0..n).prop_map(|(a, b)| RGate::Cnot(a, b)),
        (0..n, 0..n, 0..n).prop_map(|(a, b, c)| RGate::Toffoli(a, b, c)),
        (0..n, 0..n).prop_map(|(a, b)| RGate::NegCnot(a, b)),
        (0..n, 0..n).prop_map(|(a, b)| RGate::Swap(a, b)),
    ]
}

fn emit(c: &mut Circ, qs: &[Qubit], g: &RGate) {
    let n = qs.len();
    match *g {
        RGate::Not(a) => c.qnot(qs[a]),
        RGate::Cnot(a, b) => {
            if a != b {
                c.cnot(qs[a], qs[b]);
            }
        }
        RGate::Toffoli(a, b, t) => {
            let (a, b, t) = (a % n, b % n, t % n);
            if a != b && a != t && b != t {
                c.toffoli(qs[t], qs[a], qs[b]);
            }
        }
        RGate::NegCnot(a, b) => {
            if a != b {
                c.qnot_ctrl(qs[a], &(qs[b], false));
            }
        }
        RGate::Swap(a, b) => {
            if a != b {
                c.swap(qs[a], qs[b]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A random reversible circuit followed by its reverse is the identity
    /// on every basis state, and the reversed circuit validates.
    #[test]
    fn random_circuit_reverses_to_identity(
        gates in prop::collection::vec(rgate_strategy(5), 0..40),
        input_bits in 0u32..32,
    ) {
        let bc = Circ::build(&vec![false; 5], |c, qs: Vec<Qubit>| {
            for g in &gates {
                emit(c, &qs, g);
            }
            qs
        });
        bc.validate().unwrap();
        let rev = reverse_circuit(&bc.main).unwrap();
        rev.validate_standalone().unwrap();

        // Compose forward and reverse into one circuit and simulate.
        let composed = Circ::build(&vec![false; 5], |c, qs: Vec<Qubit>| {
            for g in &gates {
                emit(c, &qs, g);
            }
            for g in gates.iter().rev() {
                // Each generator is self-inverse.
                emit(c, &qs, g);
            }
            qs
        });
        let input: Vec<bool> = (0..5).map(|i| input_bits >> i & 1 == 1).collect();
        let out = quipper_sim::run_classical(&composed, &input).unwrap();
        prop_assert_eq!(out, input);
    }

    /// Hierarchical counting and counting-after-inlining agree for
    /// randomly boxed circuits.
    #[test]
    fn boxed_and_inlined_counts_agree(
        gates in prop::collection::vec(rgate_strategy(4), 1..20),
        reps in 1u64..5,
    ) {
        let bc = Circ::build(&vec![false; 4], |c, qs: Vec<Qubit>| {
            c.box_repeat("body", "", reps, qs, |c, qs: Vec<Qubit>| {
                for g in &gates {
                    emit(c, &qs, g);
                }
                qs
            })
        });
        bc.validate().unwrap();
        let flat = inline_all(&bc.db, &bc.main).unwrap();
        flat.validate_standalone().unwrap();
        let hier = bc.gate_count();
        let flat_count =
            quipper_circuit::count::count(&quipper_circuit::CircuitDb::new(), &flat);
        prop_assert_eq!(hier.counts, flat_count.counts);
        prop_assert_eq!(hier.qubits_in_circuit, flat_count.qubits_in_circuit);
    }
}

// ---------------------------------------------------------------------
// Quantum arithmetic vs machine arithmetic
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn qdint_add_mul_match_u64(x in 0u64..64, y in 0u64..64) {
        use quipper_arith::qdint::{add_in_place, mul, QDInt};
        use quipper_arith::IntM;
        let w = 6;
        let mask = (1u64 << w) - 1;
        let bc = Circ::build(&(IntM::new(0, w), IntM::new(0, w)), |c, (a, b): (QDInt, QDInt)| {
            let p = mul(c, &a, &b);
            add_in_place(c, &a, &b);
            (a, b, p)
        });
        let mut input: Vec<bool> = (0..w).map(|i| x >> i & 1 == 1).collect();
        input.extend((0..w).map(|i| y >> i & 1 == 1));
        let out = quipper_sim::run_classical(&bc, &input).unwrap();
        let dec = |bits: &[bool]| {
            bits.iter().enumerate().fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
        };
        prop_assert_eq!(dec(&out[0..w]), x);
        prop_assert_eq!(dec(&out[w..2 * w]), (x + y) & mask);
        prop_assert_eq!(dec(&out[2 * w..]), (x * y) & mask);
    }

    #[test]
    fn qinttf_mul_matches_model(x in 0u64..32, y in 0u64..32) {
        use quipper_algorithms::tf::oracle::tf_mul;
        use quipper_arith::qinttf::{mul_tf, QIntTF};
        use quipper_arith::IntTF;
        let l = 5;
        let m = (1u64 << l) - 1;
        let bc = Circ::build(&(IntTF::new(0, l), IntTF::new(0, l)), |c, (a, b): (QIntTF, QIntTF)| {
            let p = mul_tf(c, &a, &b);
            (a, b, p)
        });
        let mut input: Vec<bool> = (0..l).map(|i| x >> i & 1 == 1).collect();
        input.extend((0..l).map(|i| y >> i & 1 == 1));
        let out = quipper_sim::run_classical(&bc, &input).unwrap();
        let dec = |bits: &[bool]| {
            bits.iter().enumerate().fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
        };
        // Bit-exact against the classical cascade model, and congruent
        // modulo 2^l − 1.
        prop_assert_eq!(dec(&out[2 * l..]), tf_mul(x, y, l));
        prop_assert_eq!(dec(&out[2 * l..]) % m, (x % m) * (y % m) % m);
    }
}

// ---------------------------------------------------------------------
// Simulator cross-validation on random Clifford circuits
// ---------------------------------------------------------------------

/// A random Clifford gate over n wires.
#[derive(Clone, Debug)]
enum CGateOp {
    H(usize),
    S(usize),
    X(usize),
    Z(usize),
    V(usize),
    Cnot(usize, usize),
    Cz(usize, usize),
    Swap(usize, usize),
}

fn cgate_strategy(n: usize) -> impl Strategy<Value = CGateOp> {
    prop_oneof![
        (0..n).prop_map(CGateOp::H),
        (0..n).prop_map(CGateOp::S),
        (0..n).prop_map(CGateOp::X),
        (0..n).prop_map(CGateOp::Z),
        (0..n).prop_map(CGateOp::V),
        (0..n, 0..n).prop_map(|(a, b)| CGateOp::Cnot(a, b)),
        (0..n, 0..n).prop_map(|(a, b)| CGateOp::Cz(a, b)),
        (0..n, 0..n).prop_map(|(a, b)| CGateOp::Swap(a, b)),
    ]
}

fn emit_clifford(c: &mut Circ, qs: &[Qubit], g: &CGateOp) {
    match *g {
        CGateOp::H(a) => c.hadamard(qs[a]),
        CGateOp::S(a) => c.gate_s(qs[a]),
        CGateOp::X(a) => c.qnot(qs[a]),
        CGateOp::Z(a) => c.gate_z(qs[a]),
        CGateOp::V(a) => c.gate_v(qs[a]),
        CGateOp::Cnot(a, b) if a != b => c.cnot(qs[a], qs[b]),
        CGateOp::Cz(a, b) if a != b => c.gate_ctrl(quipper::GateName::Z, qs[a], &qs[b]),
        CGateOp::Swap(a, b) if a != b => c.swap(qs[a], qs[b]),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The stabilizer tableau and the state vector agree on random
    /// Clifford circuits: deterministic measurement outcomes match
    /// exactly, and random outcomes have probability ½ in the state
    /// vector.
    #[test]
    fn stabilizer_agrees_with_statevector_on_random_clifford(
        gates in prop::collection::vec(cgate_strategy(4), 0..30),
    ) {
        // Version without measurement: inspect state-vector probabilities.
        let open = Circ::build(&vec![false; 4], |c, qs: Vec<Qubit>| {
            for g in &gates {
                emit_clifford(c, &qs, g);
            }
            qs
        });
        let sv = quipper_sim::run(&open, &[false; 4], 7).unwrap();
        // Version with measurement: run on the tableau repeatedly.
        let measured = Circ::build(&vec![false; 4], |c, qs: Vec<Qubit>| {
            for g in &gates {
                emit_clifford(c, &qs, g);
            }
            c.measure(qs)
        });
        for seed in 0..8u64 {
            let tab = quipper_sim::run_clifford(&measured, &[false; 4], seed).unwrap();
            // Every tableau outcome must have nonzero probability in the
            // state vector (Clifford states have amplitudes 0 or 2^{-k/2}).
            let pattern: Vec<(quipper_circuit::Wire, bool)> = sv
                .outputs
                .iter()
                .zip(tab.iter())
                .map(|(&(w, _), &b)| (w, b))
                .collect();
            let p = sv.state.joint_probability(&pattern);
            prop_assert!(p > 1e-9, "tableau outcome {tab:?} has probability {p}");
        }
        // Per-qubit marginals agree: deterministic (0/1) vs random (½).
        for (i, &(w, _)) in sv.outputs.iter().enumerate() {
            let p1 = sv.state.probability(w, true);
            let mut ones = 0;
            let runs: u32 = 24;
            for seed in 100..100 + u64::from(runs) {
                let tab = quipper_sim::run_clifford(&measured, &[false; 4], seed).unwrap();
                ones += u32::from(tab[i]);
            }
            if p1 < 1e-9 {
                prop_assert_eq!(ones, 0, "qubit {} must always be 0", i);
            } else if p1 > 1.0 - 1e-9 {
                prop_assert_eq!(ones, runs, "qubit {} must always be 1", i);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Optimizer correctness on random circuits
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The optimizer (`quipper-opt`, default pipeline) is
    /// semantics-preserving: random reversible circuits (with deliberately
    /// redundant structure appended) compute the same function before and
    /// after optimization, on every basis input.
    #[test]
    fn optimizer_preserves_classical_semantics(
        gates in prop::collection::vec(rgate_strategy(4), 0..30),
        dup_every in 1usize..4,
    ) {
        let build = || {
            Circ::build(&vec![false; 4], |c, qs: Vec<Qubit>| {
                for (i, g) in gates.iter().enumerate() {
                    emit(c, &qs, g);
                    // Inject redundancy: repeat some gates twice (their own
                    // inverses), giving the optimizer something to remove.
                    if i % dup_every == 0 {
                        emit(c, &qs, g);
                        emit(c, &qs, g);
                    }
                }
                qs
            })
        };
        let original = build();
        let (optimized, _report) = quipper_opt::optimize(&original, quipper_opt::OptLevel::Default);
        optimized.validate().unwrap();
        prop_assert!(optimized.gate_count().total() <= original.gate_count().total());
        for bits in 0..16u32 {
            let input: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let a = quipper_sim::run_classical(&original, &input).unwrap();
            let b = quipper_sim::run_classical(&optimized, &input).unwrap();
            prop_assert_eq!(a, b, "input {:04b}", bits);
        }
    }

    /// Optimization commutes with counting through boxes: optimizing a
    /// boxed circuit and inlining gives the same semantics as inlining the
    /// unoptimized one.
    #[test]
    fn optimizer_respects_box_hierarchy(
        gates in prop::collection::vec(rgate_strategy(3), 1..15),
    ) {
        let bc = Circ::build(&vec![false; 3], |c, qs: Vec<Qubit>| {
            c.box_repeat("body", "", 3, qs, |c, qs: Vec<Qubit>| {
                for g in &gates {
                    emit(c, &qs, g);
                }
                qs
            })
        });
        let (opt, _) = quipper_opt::optimize(&bc, quipper_opt::OptLevel::Default);
        opt.validate().unwrap();
        for bits in 0..8u32 {
            let input: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let a = quipper_sim::run_classical(&bc, &input).unwrap();
            let b = quipper_sim::run_classical(&opt, &input).unwrap();
            prop_assert_eq!(a, b);
        }
    }
}
