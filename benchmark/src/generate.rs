//! `generate_count`: the paper's generation path. One op builds one circuit
//! family, validates it, counts it hierarchically and reports its resources;
//! nothing is simulated and no server runs.

use std::time::Instant;

use quipper::classical::synth;
use quipper::decompose::{decompose, GateBase};
use quipper::{Circ, Qubit};
use quipper_algorithms::bf::{hex_winner_dag, HexBoard};
use quipper_algorithms::bwt::{bwt_circuit, Flavor, WeldedTree};
use quipper_algorithms::tf::qwtfp::{a6_qwsh, QwtfpRegs};
use quipper_algorithms::tf::{a1_qwtfp, EdgeOracle, OrthodoxOracle, TfSpec};
use quipper_arith::fpreal::{sin_dag, FPFormat};
use quipper_arith::qinttf::{pow17_tf_boxed, QIntTF};
use quipper_arith::IntTF;
use quipper_circuit::flatten::inline_all;
use quipper_circuit::qasm::to_qasm;
use quipper_circuit::resources::resource_report;
use quipper_circuit::BCircuit;

use crate::spans::SpanLog;

/// A circuit family of the paper's evaluation, at the paper's parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Triangle Finding, the whole algorithm, l=31 n=15 r=6.
    TfFull,
    /// The Triangle Finding edge oracle, l=31 n=15.
    TfOracle,
    /// `o4_POW17` at the full oracle width l=31.
    Pow17,
    /// sin(x) over 32+32-bit fixed point, lifted in one stage.
    Sin,
    /// The Hex flood-fill winner oracle on the 9x7 board.
    Hex,
    /// Binary Welded Tree, depth 4, one timestep, hand-coded oracle.
    BwtOrthodox,
    /// The same with the oracle lifted from classical code.
    BwtTemplate,
    /// `o4_POW17` at l=4, also decomposed to binary gates, flattened and
    /// exported: small enough to expand.
    Pow17Flat,
    /// The `a6_QWSH` walk step at l=4 n=3 r=2, expanded the same way.
    QwshFlat,
}

/// An odd number of families, so that the median op is one family's op.
pub const FAMILIES: [Family; 9] = [
    Family::TfFull,
    Family::TfOracle,
    Family::Pow17,
    Family::Sin,
    Family::Hex,
    Family::BwtOrthodox,
    Family::BwtTemplate,
    Family::Pow17Flat,
    Family::QwshFlat,
];

impl Family {
    /// Total gates, logical gates (no initialisation or termination) and
    /// qubits in circuit. `EXPERIMENTS.md` records the totals and qubits of
    /// E4 to E7, E9 and E10 and, for the two BWT columns of E8, the logical
    /// count.
    pub fn pinned(self) -> (u128, u128, u64) {
        match self {
            Family::TfFull => (1_232_940_510_960, 846_247_898_514, 4_470),
            Family::TfOracle => (1_990_109, 1_365_897, 1_425),
            Family::Pow17 => (497_054, 341_155, 1_332),
            Family::Sin => (951_914, 579_288, 186_409),
            Family::Hex => (87_157, 43_579, 21_853),
            Family::BwtOrthodox => (704, 468, 23),
            Family::BwtTemplate => (1_888, 1_116, 61),
            Family::Pow17Flat => (7_760, 5_140, 63),
            Family::QwshFlat => (250_381, 165_848, 101),
        }
    }

    pub fn build(self) -> BCircuit {
        let pow17 = |l: usize| {
            Circ::build(&IntTF::new(0, l), |c, x: QIntTF| {
                let (x, x17) = pow17_tf_boxed(c, x);
                (x, x17)
            })
        };
        let bwt = |flavor| bwt_circuit(WeldedTree::new(4, [0b0011, 0b0101]), 1, 0.35, flavor);
        match self {
            Family::TfFull => {
                let (l, n, r) = (31, 15, 6);
                a1_qwtfp(TfSpec { l, n, r }, &OrthodoxOracle::new(n, l))
            }
            Family::TfOracle => {
                let (l, n) = (31, 15);
                let oracle = OrthodoxOracle::new(n, l);
                Circ::build(
                    &(vec![false; n], vec![false; n], false),
                    |c, (u, w, e): (Vec<Qubit>, Vec<Qubit>, Qubit)| {
                        oracle.edge(c, &u, &w, e);
                        (u, w, e)
                    },
                )
            }
            Family::Pow17 => pow17(31),
            Family::Pow17Flat => pow17(4),
            Family::Sin => {
                let format = FPFormat::new(32, 32);
                let dag = sin_dag(format);
                Circ::build(&vec![false; format.width()], |c, xs: Vec<Qubit>| {
                    let outs = synth::synthesize_clean(c, &dag, &xs);
                    (xs, outs)
                })
            }
            Family::Hex => {
                let board = HexBoard::new(9, 7);
                let dag = hex_winner_dag(board, true, None);
                Circ::build(
                    &(vec![false; board.cells()], false),
                    |c, (cells, out): (Vec<Qubit>, Qubit)| {
                        synth::classical_to_reversible(c, &dag, &cells, &[out]);
                        (cells, out)
                    },
                )
            }
            Family::QwshFlat => {
                let spec = TfSpec { l: 4, n: 3, r: 2 };
                let oracle = OrthodoxOracle::new(spec.n, spec.l);
                let mut c = Circ::new();
                let mut fresh = |count: usize| -> Vec<Qubit> {
                    (0..count).map(|_| c.qinit_bit(false)).collect()
                };
                let regs = QwtfpRegs {
                    tt: (0..spec.tuple_size()).map(|_| fresh(spec.n)).collect(),
                    i: fresh(spec.r),
                    v: fresh(spec.n),
                    ee: fresh(spec.num_edge_bits()),
                };
                let regs = a6_qwsh(&mut c, spec, &oracle, regs);
                c.finish(&(regs.tt, regs.i, regs.v, regs.ee))
            }
            Family::BwtOrthodox => bwt(Flavor::Orthodox),
            Family::BwtTemplate => bwt(Flavor::Template),
        }
    }
}

/// What one op produced, for the checks and the per-layer counts.
pub struct Generated {
    /// Gate nodes in the IR: main plus every boxed subroutine body.
    pub ir_nodes: usize,
    pub subroutines: usize,
    /// Gates after decomposition and flattening, where the op does that.
    pub flat_gates: Option<usize>,
}

/// One op: build, validate, count, report; for [`Family::Pow17Flat`] also
/// decompose, flatten and export. Fails on any count that is not the pinned
/// one. Layer calls are recorded in `spans` under `op`.
pub fn run_op(family: Family, spans: &mut SpanLog, op: usize) -> Result<Generated, String> {
    let root = spans.enter("op", None, op);
    let build = spans.enter("core.build", Some(root), op);
    let bc = family.build();
    spans.exit(build);
    spans
        .time("circuit.validate", root, op, || bc.validate())
        .map_err(|e| e.to_string())?;
    let count = spans.time("circuit.count", root, op, || bc.gate_count());
    let report = spans.time("circuit.resources", root, op, || {
        resource_report(&bc, "main")
    });
    let counted = (
        count.total(),
        count.total_logical(),
        count.qubits_in_circuit,
    );
    if counted != family.pinned() {
        return Err(format!(
            "{family:?}: counted {counted:?}, pinned {:?}",
            family.pinned()
        ));
    }
    if report.rows.is_empty() {
        return Err(format!("{family:?}: empty resource report"));
    }
    let mut flat_gates = None;
    if matches!(family, Family::Pow17Flat | Family::QwshFlat) {
        let binary = spans.time("core.decompose", root, op, || {
            decompose(GateBase::Binary, &bc)
        });
        let flat = spans
            .time("circuit.flatten", root, op, || {
                inline_all(&binary.db, &binary.main)
            })
            .map_err(|e| e.to_string())?;
        let flat = BCircuit::new(Default::default(), flat);
        let (flat_count, hierarchical) = (flat.gate_count().total(), binary.gate_count().total());
        if flat_count != hierarchical {
            return Err(format!(
                "flat count {flat_count}, hierarchical {hierarchical}"
            ));
        }
        flat_gates = Some(flat.main.gates.len());
        let text = spans
            .time("circuit.export", root, op, || to_qasm(&flat))
            .map_err(|e| e.to_string())?;
        if !text.starts_with("OPENQASM 2.0;") {
            return Err("export is not OpenQASM".to_string());
        }
    }
    spans.exit(root);
    let ir_nodes = bc.main.gates.len()
        + bc.db
            .iter()
            .map(|(_, def)| def.circuit.gates.len())
            .sum::<usize>();
    Ok(Generated {
        ir_nodes,
        subroutines: bc.db.len(),
        flat_gates,
    })
}

/// The sum of the pinned totals: `gates_out` of this workload.
pub fn pinned_total() -> u128 {
    FAMILIES.iter().map(|f| f.pinned().0).sum()
}

/// What [`run_rounds`] saw.
#[derive(Default)]
pub struct Rounds {
    /// Family, latency in ms and counts of every op that checked out.
    pub done: Vec<(Family, f64, Generated)>,
    pub errors: Vec<String>,
    /// Wall time of every round, in seconds.
    pub round_s: Vec<f64>,
}

/// Runs whole rounds over `order`, starting a new one until `deadline`.
pub fn run_rounds(order: &[Family], deadline: Instant, spans: &mut SpanLog) -> Rounds {
    let mut rounds = Rounds::default();
    let mut op = 0;
    loop {
        let round = Instant::now();
        for &family in order {
            let started = Instant::now();
            match run_op(family, spans, op) {
                Ok(generated) => {
                    rounds
                        .done
                        .push((family, started.elapsed().as_secs_f64() * 1e3, generated))
                }
                Err(e) => rounds.errors.push(e),
            }
            op += 1;
        }
        rounds.round_s.push(round.elapsed().as_secs_f64());
        if Instant::now() >= deadline {
            return rounds;
        }
    }
}
