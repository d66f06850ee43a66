//! Gate fusion and window planning over flattened gate streams: the one
//! place that decides what the state-vector simulator runs merged and what
//! it runs windowed.
//!
//! Circuits generated by Quipper-style builders are full of runs of
//! single-qubit gates on the same wire — basis changes (H … H), phase
//! ladders (T, S, R) and rotation sequences. Each of those gates costs a
//! full pass over the 2^n-amplitude state, but a run of k of them is just
//! one 2×2 matrix (the product), i.e. one pass instead of k.
//!
//! [`fuse_circuit`] rewrites a flat circuit in two steps:
//!
//! 1. `fuse_gates` turns the gate stream into a stream of [`FusedOp`]s:
//!    pass-through gates, plus fused single-qubit unitaries. A run may fuse
//!    when the gates act on the same wire *under the same controls*
//!    (controlled-U then controlled-V with equal control sets is
//!    controlled-(V·U)). Open runs are tracked per wire; any gate touching a
//!    run's wire or one of its control wires flushes that run first, so the
//!    emitted stream is a legal reordering: operations that pass each other
//!    act on disjoint wire sets and therefore commute. Measurements,
//!    discards and assertive terminations flush *all* open runs — they are
//!    the points where amplitudes become observable (and where the RNG is
//!    consumed), so the state at each such point matches the unfused stream
//!    exactly (up to the rounding of fused matrix products). A run of length
//!    1 re-emits the original gate unchanged, so the pass is the identity
//!    (bit-for-bit) on streams with nothing to fuse.
//! 2. `plan_segments` marks the maximal runs of unitary ops as window
//!    [`Segment`]s, which the simulator executes one cache-blocked sweep per
//!    window instead of one pass per op.
//!
//! Multi-qubit gates are never merged here. A product over two or more
//! wires would run as a full-state pass of its own and split the window
//! around it; inside a window the same gates cost no extra sweep.
//!
//! [`segment_circuit`] does step 2 alone. It exists for the tests that hold
//! the executor to `==` against the scan oracle: an unmerged stream through
//! the same executor, not a second executor.
//!
//! The pass runs once per compiled plan (the `quipper-exec` engine caches
//! it), so multi-shot jobs pay the rewrite a single time.

use quipper_circuit::{Circuit, Control, Gate, GateName, Wire, WireType};

use crate::kernels::{self, matmul, Mat2};

/// One operation of a fused execution stream.
#[derive(Clone, Debug)]
pub enum FusedOp {
    /// A gate passed through unchanged.
    Gate(Gate),
    /// A fused run of single-qubit gates on `wire` under `controls`,
    /// collapsed into one matrix.
    Unitary1q {
        /// The target wire.
        wire: Wire,
        /// The shared (canonicalized) controls of every gate in the run.
        controls: Vec<Control>,
        /// The product matrix, first gate rightmost.
        mat: Mat2,
        /// How many source gates were collapsed into this op.
        fused: u32,
    },
}

/// A maximal run `ops[start..end]` of window-eligible ops: every op in the
/// range can be resolved to slot space ahead of execution, so the blocked
/// window executor may apply the whole run per cache-sized amplitude block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Segment {
    /// First op of the run.
    pub start: usize,
    /// One past the last op of the run.
    pub end: usize,
}

/// What fusion did to a gate stream. How the ops then execute is counted
/// where they execute, in [`KernelStats`](crate::KernelStats).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FuseStats {
    /// Gates in the source stream.
    pub gates_in: usize,
    /// Ops in the fused stream.
    pub gates_out: usize,
    /// Gates eliminated (`gates_in - gates_out`).
    pub fused_away: usize,
}

/// A flat circuit rewritten for execution: the interface wires of the
/// source circuit plus the fused op stream.
#[derive(Clone, Debug)]
pub struct FusedCircuit {
    /// The source circuit's input wires.
    pub inputs: Vec<(Wire, WireType)>,
    /// The source circuit's output wires.
    pub outputs: Vec<(Wire, WireType)>,
    /// The fused op stream.
    pub ops: Vec<FusedOp>,
    /// Maximal window-eligible runs of `ops`, in order and disjoint.
    pub segments: Vec<Segment>,
    /// Fusion counters.
    pub stats: FuseStats,
}

/// Fuses a flattened circuit (no subroutine calls) for repeated execution:
/// same-wire single-qubit runs collapse into 2×2 products, and the
/// resulting stream is cut into window segments. This is the stream the
/// simulator runs in production.
pub fn fuse_circuit(flat: &Circuit) -> FusedCircuit {
    plan(flat, fuse_gates(&flat.gates))
}

/// Wraps a flattened circuit as a fused stream *without* merging anything:
/// each gate becomes a pass-through op, and window segments are planned as
/// usual. The simulator then performs gate-for-gate the same arithmetic as
/// the scan oracle, through the same resolver, windows and kernels as the
/// production stream — which is what the bit-identical property tests
/// compare.
pub fn segment_circuit(flat: &Circuit) -> FusedCircuit {
    plan(
        flat,
        flat.gates.iter().cloned().map(FusedOp::Gate).collect(),
    )
}

/// Cuts a finished op stream into window segments and counts it.
fn plan(flat: &Circuit, ops: Vec<FusedOp>) -> FusedCircuit {
    let segments = plan_segments(&ops);
    let stats = FuseStats {
        gates_in: flat.gates.len(),
        gates_out: ops.len(),
        fused_away: flat.gates.len() - ops.len(),
    };
    if quipper_trace::enabled() {
        let m = quipper_trace::tracer().metrics();
        m.add(quipper_trace::names::FUSE_GATES_IN, stats.gates_in as u64);
        m.add(quipper_trace::names::FUSE_GATES_OUT, stats.gates_out as u64);
        m.add(
            quipper_trace::names::FUSE_FUSED_AWAY,
            stats.fused_away as u64,
        );
    }
    FusedCircuit {
        inputs: flat.inputs.clone(),
        outputs: flat.outputs.clone(),
        ops,
        segments,
        stats,
    }
}

/// An open run of fusible gates on one wire.
struct Pending {
    wire: Wire,
    controls: Vec<Control>,
    mat: Mat2,
    count: u32,
    first: Gate,
}

impl Pending {
    fn touches(&self, w: Wire) -> bool {
        self.wire == w || self.controls.iter().any(|c| c.wire == w)
    }
}

/// The matrix view of a gate, if it is a single-target unitary with a known
/// 2×2 matrix.
pub(crate) fn unary_matrix(gate: &Gate) -> Option<(Wire, Mat2, &[Control])> {
    match gate {
        Gate::QGate {
            name,
            inverted,
            targets,
            controls,
        } if targets.len() == 1 => {
            kernels::single_qubit_matrix(name, *inverted).map(|m| (targets[0], m, &controls[..]))
        }
        Gate::QRot {
            name,
            inverted,
            angle,
            targets,
            controls,
        } if targets.len() == 1 => kernels::rotation_matrix(name, *angle, *inverted)
            .map(|m| (targets[0], m, &controls[..])),
        _ => None,
    }
}

/// Canonical control order, so control lists compare independently of the
/// order the builder attached them in.
fn canonical(controls: &[Control]) -> Vec<Control> {
    let mut c = controls.to_vec();
    c.sort_by_key(|c| (c.wire, !c.positive));
    c
}

fn flush_one(p: Pending, ops: &mut Vec<FusedOp>) {
    if p.count == 1 {
        ops.push(FusedOp::Gate(p.first));
    } else {
        ops.push(FusedOp::Unitary1q {
            wire: p.wire,
            controls: p.controls,
            mat: p.mat,
            fused: p.count,
        });
    }
}

fn flush_touching(pending: &mut Vec<Pending>, ops: &mut Vec<FusedOp>, touched: &[Wire]) {
    let mut i = 0;
    while i < pending.len() {
        if touched.iter().any(|&w| pending[i].touches(w)) {
            let p = pending.remove(i);
            flush_one(p, ops);
        } else {
            i += 1;
        }
    }
}

fn flush_all(pending: &mut Vec<Pending>, ops: &mut Vec<FusedOp>) {
    for p in pending.drain(..) {
        flush_one(p, ops);
    }
}

/// The 1q fusion pass over a flat gate stream; see the module docs for the
/// rewrite rules.
fn fuse_gates(gates: &[Gate]) -> Vec<FusedOp> {
    let mut ops: Vec<FusedOp> = Vec::with_capacity(gates.len());
    let mut pending: Vec<Pending> = Vec::new();
    let mut touched: Vec<Wire> = Vec::new();

    for gate in gates {
        if matches!(gate, Gate::Comment { .. }) {
            // Comments carry no semantics; emit them without disturbing
            // open runs.
            ops.push(FusedOp::Gate(gate.clone()));
            continue;
        }
        if matches!(
            gate,
            Gate::QMeas { .. } | Gate::QDiscard { .. } | Gate::QTerm { .. }
        ) {
            // Sampling / projection points: flush everything so the state
            // (and the RNG consumption order) matches the unfused stream.
            flush_all(&mut pending, &mut ops);
            ops.push(FusedOp::Gate(gate.clone()));
            continue;
        }

        touched.clear();
        gate.for_each_wire(&mut |w| touched.push(w));

        if let Some((wire, mat, controls)) = unary_matrix(gate) {
            let canon = canonical(controls);
            if let Some(p) = pending.iter_mut().find(|p| p.wire == wire) {
                if p.controls == canon {
                    // Open runs have pairwise-disjoint wire sets, and this
                    // gate's wire set equals the run's, so fusing in place
                    // cannot jump over a conflicting operation.
                    debug_assert!(pending
                        .iter()
                        .filter(|p| p.wire != wire)
                        .all(|p| !touched.iter().any(|&w| p.touches(w))));
                    let p = pending.iter_mut().find(|p| p.wire == wire).unwrap();
                    p.mat = matmul(&mat, &p.mat);
                    p.count += 1;
                    continue;
                }
            }
            flush_touching(&mut pending, &mut ops, &touched);
            pending.push(Pending {
                wire,
                controls: canon,
                mat,
                count: 1,
                first: gate.clone(),
            });
        } else {
            flush_touching(&mut pending, &mut ops, &touched);
            ops.push(FusedOp::Gate(gate.clone()));
        }
    }
    flush_all(&mut pending, &mut ops);
    ops
}

/// Whether the blocked window executor can apply an op: it must resolve to
/// pure slot-space amplitude arithmetic (no allocation, measurement or
/// classical effects). Comments are eligible as inert filler so they don't
/// split segments.
fn window_eligible(op: &FusedOp) -> bool {
    match op {
        FusedOp::Unitary1q { .. } => true,
        FusedOp::Gate(g) => match g {
            Gate::Comment { .. } | Gate::GPhase { .. } => true,
            Gate::QGate {
                name: GateName::Swap | GateName::W,
                ..
            } => true,
            _ => unary_matrix(g).is_some(),
        },
    }
}

/// Finds the maximal runs of window-eligible ops worth a window (at least
/// two non-comment ops).
fn plan_segments(ops: &[FusedOp]) -> Vec<Segment> {
    let mut segs = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        if !window_eligible(&ops[i]) {
            i += 1;
            continue;
        }
        let start = i;
        let mut real = 0;
        while i < ops.len() && window_eligible(&ops[i]) {
            if !matches!(&ops[i], FusedOp::Gate(Gate::Comment { .. })) {
                real += 1;
            }
            i += 1;
        }
        if real >= 2 {
            segs.push(Segment { start, end: i });
        }
    }
    segs
}

#[cfg(test)]
mod tests {
    use super::*;
    use quipper::{Circ, Qubit};
    use quipper_circuit::flatten::inline_all;

    fn flat_of(bc: &quipper_circuit::BCircuit) -> Circuit {
        inline_all(&bc.db, &bc.main).unwrap()
    }

    #[test]
    fn run_of_1q_gates_fuses_to_one_op() {
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.hadamard(q);
            c.gate_t(q);
            c.gate_s(q);
            c.hadamard(q);
            q
        });
        let fused = fuse_circuit(&flat_of(&bc));
        assert_eq!(fused.stats.gates_in, 4);
        assert_eq!(fused.stats.gates_out, 1);
        assert_eq!(fused.stats.fused_away, 3);
        match &fused.ops[0] {
            FusedOp::Unitary1q { fused, .. } => assert_eq!(*fused, 4),
            other => panic!("expected a fused op, got {other:?}"),
        }
    }

    #[test]
    fn runs_on_independent_wires_fuse_independently() {
        let bc = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            c.hadamard(a);
            c.hadamard(b);
            c.gate_t(a);
            c.gate_t(b);
            (a, b)
        });
        let fused = fuse_circuit(&flat_of(&bc));
        assert_eq!(fused.stats.gates_out, 2);
    }

    #[test]
    fn touching_gate_flushes_the_run() {
        let bc = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            c.hadamard(a);
            c.cnot(b, a); // touches a (control) and b: flushes a's run
            c.hadamard(a);
            (a, b)
        });
        let fused = fuse_circuit(&flat_of(&bc));
        // Nothing fused: H(a), CNOT, H(a) in order.
        assert_eq!(fused.stats.gates_out, 3);
        assert!(
            fused.ops.iter().all(|op| matches!(op, FusedOp::Gate(_))),
            "single gates re-emit unchanged"
        );
    }

    #[test]
    fn equal_controls_fuse_different_controls_do_not() {
        let bc = Circ::build(&(false, false), |c, (q, ctl): (Qubit, Qubit)| {
            c.with_controls(&ctl, |c| {
                c.gate_t(q);
                c.gate_s(q);
            });
            (q, ctl)
        });
        let fused = fuse_circuit(&flat_of(&bc));
        assert_eq!(fused.stats.gates_out, 1, "equal controls fuse");

        let bc = Circ::build(&(false, false), |c, (q, ctl): (Qubit, Qubit)| {
            c.gate_t(q);
            c.with_controls(&ctl, |c| c.gate_s(q));
            (q, ctl)
        });
        let fused = fuse_circuit(&flat_of(&bc));
        assert_eq!(fused.stats.gates_out, 2, "different controls stay apart");
    }

    #[test]
    fn measurement_flushes_all_runs() {
        let bc = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            c.hadamard(a);
            c.hadamard(b);
            let m = c.measure(a);
            c.hadamard(b);
            (m, b)
        });
        let fused = fuse_circuit(&flat_of(&bc));
        // H(b) before and after the measurement must not merge.
        assert_eq!(fused.stats.gates_out, 4);
    }
}
