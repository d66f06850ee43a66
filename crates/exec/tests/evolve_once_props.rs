//! Evolve once, sample many ≡ one whole-circuit run per shot.
//!
//! The engine runs a job's shot-invariant prefix once, on the simulator of
//! the plan's route, and finishes every shot from that state. The oracle is
//! the path it replaced:
//! [`Backend::run_shot`](quipper_exec::Backend::run_shot) for each seed in
//! turn. On random programs — terminal and mid-circuit measurement,
//! measured bits controlling later gates, reset after measure, discards,
//! ancillas asserted before and after the split, assertions that fail for
//! every shot or only for some — the two must agree exactly: the same
//! histogram, or the `ExecError` of the lowest failing shot, on every
//! backend, with one worker and with several.

use std::collections::HashMap;

use proptest::prelude::*;
use quipper::{Bit, Circ, Qubit};
use quipper_circuit::{BCircuit, GateName};
use quipper_exec::{Engine, EngineConfig, ExecError, Job, OptLevel, Plan, PlanSource, Suffix};

const CELLS: usize = 4;
const SHOTS: u64 = 12;

/// Which simulator a program is written for; decides the unitary gate set.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Family {
    StateVec,
    Stabilizer,
    Classical,
}

impl Family {
    fn backend(self) -> &'static str {
        match self {
            Family::StateVec => "statevec",
            Family::Stabilizer => "stabilizer",
            Family::Classical => "classical",
        }
    }
}

/// One instruction over a register of [`CELLS`] cells, each holding a live
/// qubit, a measured bit, or nothing. Instructions whose operands are in
/// the wrong state are skipped, so every generated program is well formed.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// The family's `k`-th single-qubit unitary on a live cell.
    Unitary(usize, usize),
    Cnot(usize, usize),
    Swap(usize, usize),
    /// Mid-circuit measurement: the cell now holds the outcome bit.
    Measure(usize),
    /// X on a live cell, controlled on another cell's measured bit.
    IfX(usize, usize),
    /// Reset after measure: a fresh qubit takes over a measured cell, set
    /// to the measured value; an empty cell gets a fresh |1⟩.
    Reset(usize),
    /// Measure and forget; the cell is empty afterwards.
    Discard(usize),
    /// A scoped ancilla (`QInit` … `QTerm`) copying a live cell or a
    /// measured bit and then uncopying it — or not: an ancilla that leaks
    /// fails its assertion whenever the cell is not 0, which is every shot
    /// for a qubit in superposition and some shots for a random bit. One
    /// in eight leaks on a qubit and one in two on a bit (`luck` below 1
    /// or 4), so that most programs run to the end and the rarer
    /// some-shots case still shows up.
    Ancilla {
        cell: usize,
        luck: u8,
    },
}

fn op() -> impl Strategy<Value = Op> {
    let cell = || 0..CELLS;
    prop_oneof![
        (0..8usize, cell()).prop_map(|(k, a)| Op::Unitary(k, a)),
        (0..8usize, cell()).prop_map(|(k, a)| Op::Unitary(k, a)),
        (0..8usize, cell()).prop_map(|(k, a)| Op::Unitary(k, a)),
        (0..8usize, cell()).prop_map(|(k, a)| Op::Unitary(k, a)),
        (cell(), cell()).prop_map(|(a, b)| Op::Cnot(a, b)),
        (cell(), cell()).prop_map(|(a, b)| Op::Cnot(a, b)),
        (cell(), cell()).prop_map(|(a, b)| Op::Swap(a, b)),
        cell().prop_map(Op::Measure),
        cell().prop_map(Op::Measure),
        (cell(), cell()).prop_map(|(a, b)| Op::IfX(a, b)),
        cell().prop_map(Op::Reset),
        cell().prop_map(Op::Discard),
        (cell(), 0..8u8).prop_map(|(cell, luck)| Op::Ancilla { cell, luck }),
        (cell(), 0..8u8).prop_map(|(cell, luck)| Op::Ancilla { cell, luck }),
    ]
}

#[derive(Clone, Copy)]
enum Cell {
    Live(Qubit),
    Measured(Bit),
    Empty,
}

fn unitary(c: &mut Circ, family: Family, k: usize, q: Qubit) {
    match family {
        Family::StateVec => match k {
            0..=2 => c.hadamard(q),
            3 => c.gate_t(q),
            4 => c.qnot(q),
            5 => c.gate_v(q),
            6 => c.rot("Ry(%)", 0.37, q),
            _ => c.exp_zt(0.81, q),
        },
        Family::Stabilizer => match k {
            0..=2 => c.hadamard(q),
            3 => c.gate_s(q),
            4 => c.qnot(q),
            5 => c.gate_v(q),
            6 => c.gate_y(q),
            _ => c.gate_z(q),
        },
        Family::Classical => match k {
            0..=5 => c.qnot(q),
            6 => c.gate(GateName::Z, q),
            _ => c.gate_s(q),
        },
    }
}

/// An identity that routes the program to the family's backend whatever
/// the ops drawn: a zero-angle `Ry` is no Clifford gate, and `H·H` creates
/// superposition on the way. The classical family needs none: its gates
/// are all classical.
fn route_marker(c: &mut Circ, family: Family, q: Qubit) {
    match family {
        Family::StateVec => c.rot("Ry(%)", 0.0, q),
        Family::Stabilizer => {
            c.hadamard(q);
            c.hadamard(q);
        }
        Family::Classical => {}
    }
}

/// Builds the program over [`CELLS`] circuit inputs. It starts with the
/// family's [`route_marker`]. The cells in `spread_mask` then start with
/// the family's first unitary (a Hadamard where
/// the family has one), so that measured bits are random often enough.
/// With `mid` unset the measuring, resetting and discarding instructions
/// are dropped, leaving a unitary (plus ancillas) followed by terminal
/// measurements only. Every cell still live at the end is measured, or
/// discarded where `discard_mask` says so; the outputs are all the measured
/// bits.
fn program(
    family: Family,
    ops: &[Op],
    mid: bool,
    spread_mask: usize,
    discard_mask: usize,
) -> BCircuit {
    let mut c = Circ::new();
    let inputs: Vec<Qubit> = c.input(&vec![false; CELLS]);
    route_marker(&mut c, family, inputs[0]);
    for (i, &q) in inputs.iter().enumerate() {
        if spread_mask >> i & 1 == 1 {
            unitary(&mut c, family, 0, q);
        }
    }
    let mut cells: Vec<Cell> = inputs.into_iter().map(Cell::Live).collect();
    let mut outs: Vec<Bit> = Vec::new();
    for &op in ops {
        match op {
            Op::Unitary(k, a) => {
                if let Cell::Live(q) = cells[a] {
                    unitary(&mut c, family, k, q);
                }
            }
            Op::Cnot(a, b) => {
                if let (Cell::Live(t), Cell::Live(ctl), true) = (cells[a], cells[b], a != b) {
                    c.cnot(t, ctl);
                }
            }
            Op::Swap(a, b) => {
                if let (Cell::Live(x), Cell::Live(y), true) = (cells[a], cells[b], a != b) {
                    c.swap(x, y);
                }
            }
            Op::Measure(a) if mid => {
                if let Cell::Live(q) = cells[a] {
                    let bit = c.measure_bit(q);
                    outs.push(bit);
                    cells[a] = Cell::Measured(bit);
                }
            }
            Op::IfX(a, b) if mid => {
                if let (Cell::Measured(bit), Cell::Live(q)) = (cells[a], cells[b]) {
                    c.qnot_ctrl(q, &bit);
                }
            }
            Op::Reset(a) if mid => match cells[a] {
                Cell::Measured(bit) => {
                    let q = c.qinit_bit(false);
                    c.qnot_ctrl(q, &bit);
                    cells[a] = Cell::Live(q);
                }
                Cell::Empty => cells[a] = Cell::Live(c.qinit_bit(true)),
                Cell::Live(_) => {}
            },
            Op::Discard(a) if mid => {
                if let Cell::Live(q) = cells[a] {
                    c.qdiscard(q);
                    cells[a] = Cell::Empty;
                }
            }
            Op::Ancilla { cell, luck } => match cells[cell] {
                Cell::Live(q) => {
                    let anc = c.qinit_bit(false);
                    c.cnot(anc, q);
                    if luck >= 1 {
                        c.cnot(anc, q);
                    }
                    c.qterm_bit(false, anc);
                }
                Cell::Measured(bit) => {
                    let anc = c.qinit_bit(false);
                    c.qnot_ctrl(anc, &bit);
                    if luck >= 4 {
                        c.qnot_ctrl(anc, &bit);
                    }
                    c.qterm_bit(false, anc);
                }
                Cell::Empty => {}
            },
            Op::Measure(_) | Op::IfX(..) | Op::Reset(_) | Op::Discard(_) => {}
        }
    }
    for (i, cell) in cells.into_iter().enumerate() {
        if let Cell::Live(q) = cell {
            if discard_mask >> i & 1 == 1 {
                c.qdiscard(q);
            } else {
                outs.push(c.measure_bit(q));
            }
        }
    }
    c.finish(&outs)
}

fn engine() -> Engine {
    Engine::with_config(EngineConfig {
        workers: 3,
        ..EngineConfig::default()
    })
}

/// A job's result as far as equality goes: the histogram, or the failing
/// shot's error (`ExecError` has no `PartialEq`; its `Debug` form carries
/// every field, the asserted probability to the last bit).
type Outcome = Result<Histogram, String>;
type Histogram = Vec<(Vec<bool>, u64)>;

/// What became of a program, for counting what the generators reach.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Verdict {
    Ran(Suffix),
    /// Shot 0 failed: an assertion every shot violates.
    FailsFromShot0,
    /// Only a later shot failed: an assertion that depends on an outcome.
    FailsLater,
}

/// One whole-circuit `run_shot` per seed, in shot order, on the family's
/// backend, which must be the plan's route: the histogram, or the first
/// (lowest) failing shot and its error.
fn oracle(
    engine: &Engine,
    plan: &Plan,
    family: Family,
    inputs: &[bool],
    seed: u64,
) -> Result<Histogram, (u64, String)> {
    assert_eq!(plan.route.name(), family.backend(), "the marker routes");
    let backend = engine
        .backends()
        .find(|b| b.name() == family.backend())
        .expect("backend registered");
    let mut hist: HashMap<Vec<bool>, u64> = HashMap::new();
    for shot in 0..SHOTS {
        match backend.run_shot(plan, inputs, seed.wrapping_add(shot)) {
            Ok(bits) => *hist.entry(bits).or_insert(0) += 1,
            Err(e) => return Err((shot, format!("{e:?}"))),
        }
    }
    let mut hist: Histogram = hist.into_iter().collect();
    hist.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Ok(hist)
}

/// Runs the program exactly as written (no optimizer: it would cancel the
/// ancilla pairs this suite is about) and requires the engine to equal the
/// oracle: sequentially on the ungated plan, so that the provably failing
/// assertions reach the backend, and over several workers through the
/// engine's lint gate. A program the gate refuses must carry QL001 and fail
/// the oracle from shot 0: QL001 is sound. Returns the verdict and whether
/// the gate refused the program.
fn check(family: Family, bc: &BCircuit, inputs: Vec<bool>, seed: u64) -> (Verdict, bool) {
    let engine = &engine();
    let plan = Plan::compile_with(bc, OptLevel::Off).expect("program compiles");
    let expected = oracle(engine, &plan, family, &inputs, seed);
    let job = Job::new(bc)
        .inputs(&inputs)
        .shots(SHOTS)
        .seed(seed)
        .opt(OptLevel::Off);
    let sequential = engine.run_resolved(&job, &plan, PlanSource::Compiled);
    let verdict = match (&expected, &sequential) {
        (Ok(_), Ok(r)) => Verdict::Ran(r.report.prefix.expect("shots ran").suffix),
        (Err((0, _)), _) => Verdict::FailsFromShot0,
        _ => Verdict::FailsLater,
    };
    let mut runs = vec![("sequential", sequential)];
    let refused = match engine.run(&job) {
        Err(ExecError::Lint(report)) => {
            assert!(
                report.findings.iter().any(|d| d.code == "QL001"),
                "refused without QL001: {report}"
            );
            assert_eq!(
                verdict,
                Verdict::FailsFromShot0,
                "QL001 on a program whose shot 0 runs: {report}"
            );
            true
        }
        parallel => {
            runs.push(("parallel", parallel));
            false
        }
    };
    let expected: Outcome = expected.map_err(|(_, e)| e);
    for (schedule, got) in runs {
        if let Ok(result) = &got {
            assert_eq!(result.report.backend, family.backend());
        }
        let got: Outcome = got.map(|r| r.histogram).map_err(|e| format!("{e:?}"));
        assert_eq!(got, expected, "{schedule} engine run differs from run_shot");
    }
    (verdict, refused)
}

fn input_bits(mask: usize) -> Vec<bool> {
    (0..CELLS).map(|i| mask >> i & 1 == 1).collect()
}

/// Mid-circuit measurement, classical control, reset and discard on the
/// state vector: the suffix branches from the evolved state unless the
/// program happens to end in measurements only.
///
/// Written as the loop `proptest!` expands to, so that it can also count
/// what the generator reached: a change that loses a case fails here
/// instead of passing vacuously.
#[test]
fn statevec_mid_circuit_programs_match_the_oracle() {
    let mut rng = proptest::test_runner::TestRng::deterministic("statevec_mid_circuit");
    let mask = || 0..1usize << CELLS;
    let case = (
        proptest::collection::vec(op(), 0..24),
        (mask(), mask(), mask()),
        any::<u64>(),
    );
    let (mut sampled, mut branched, mut from_shot_0, mut later) = (0, 0, 0, 0);
    let mut refused = 0;
    for _ in 0..384 {
        let (ops, (inputs, spread_mask, discard_mask), seed) = case.generate(&mut rng);
        let bc = program(Family::StateVec, &ops, true, spread_mask, discard_mask);
        let (verdict, gated) = check(Family::StateVec, &bc, input_bits(inputs), seed);
        refused += usize::from(gated);
        match verdict {
            Verdict::Ran(Suffix::Sampled) => sampled += 1,
            Verdict::Ran(Suffix::Branched) => branched += 1,
            Verdict::FailsFromShot0 => from_shot_0 += 1,
            Verdict::FailsLater => later += 1,
        }
    }
    assert!(sampled >= 20, "sampled suffixes: {sampled}");
    assert!(branched >= 100, "branched suffixes: {branched}");
    assert!(
        from_shot_0 >= 20,
        "programs failing every shot: {from_shot_0}"
    );
    assert!(later >= 5, "programs failing only some shots: {later}");
    assert!(refused >= 1, "programs the lint gate refused: {refused}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Terminal measurement only: the state-vector suffix is sampled from
    /// the evolved state without copying it, discards included.
    #[test]
    fn statevec_terminal_measurement_is_sampled(
        ops in proptest::collection::vec(op(), 0..24),
        inputs in 0..1usize << CELLS,
        spread_mask in 0..1usize << CELLS,
        discard_mask in 0..1usize << CELLS,
        seed in any::<u64>(),
    ) {
        let bc = program(Family::StateVec, &ops, false, spread_mask, discard_mask);
        let (verdict, _) = check(Family::StateVec, &bc, input_bits(inputs), seed);
        prop_assert_ne!(verdict, Verdict::Ran(Suffix::Branched));
    }

    /// The tableau splits at its first random measurement, wherever the
    /// program put it.
    #[test]
    fn stabilizer_programs_match_the_oracle(
        ops in proptest::collection::vec(op(), 0..24),
        mid in any::<bool>(),
        inputs in 0..1usize << CELLS,
        spread_mask in 0..1usize << CELLS,
        discard_mask in 0..1usize << CELLS,
        seed in any::<u64>(),
    ) {
        let bc = program(Family::Stabilizer, &ops, mid, spread_mask, discard_mask);
        let (verdict, _) = check(Family::Stabilizer, &bc, input_bits(inputs), seed);
        prop_assert_ne!(verdict, Verdict::Ran(Suffix::Sampled));
    }

    /// Nothing is random on the classical backend: one evaluation, counted
    /// once per shot — or its one error.
    #[test]
    fn classical_programs_match_the_oracle(
        ops in proptest::collection::vec(op(), 0..24),
        mid in any::<bool>(),
        inputs in 0..1usize << CELLS,
        spread_mask in 0..1usize << CELLS,
        discard_mask in 0..1usize << CELLS,
        seed in any::<u64>(),
    ) {
        let bc = program(Family::Classical, &ops, mid, spread_mask, discard_mask);
        let (verdict, _) = check(Family::Classical, &bc, input_bits(inputs), seed);
        prop_assert_ne!(verdict, Verdict::Ran(Suffix::Branched));
        prop_assert_ne!(verdict, Verdict::FailsLater);
    }
}
