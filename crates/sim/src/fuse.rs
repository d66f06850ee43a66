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
//! [`fuse_circuit`] rewrites a flat circuit in three steps:
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
//! 2. `fuse_pairs` collapses runs confined to one wire pair into 4×4
//!    products where that pays (see `flush_run2`), by the same reordering
//!    argument.
//! 3. `plan_segments` marks the maximal runs of unitary ops as window
//!    [`Segment`]s, which the simulator executes one cache-blocked sweep per
//!    window instead of one pass per op.
//!
//! [`segment_circuit`] does step 3 alone. It exists for the tests that hold
//! the executor to `==` against the scan oracle: an unmerged stream through
//! the same executor, not a second executor.
//!
//! The pass runs once per compiled plan (the `quipper-exec` engine caches
//! it), so multi-shot jobs pay the rewrite a single time.

use std::collections::HashSet;

use quipper_circuit::{Circuit, Control, Gate, GateName, Wire, WireType};

use crate::complex::{Complex, ONE, ZERO};
use crate::kernels::{
    self, classify, classify4, embed1q, identity4, matmul, matmul4, swap4, w4, KernelClass, Mat2,
    Mat4,
};

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
    /// A fused run of operations confined to the wire pair `(a, b)`,
    /// collapsed into one 4×4 matrix (basis index `(b_bit << 1) | a_bit`,
    /// first op rightmost). Controls were folded into the matrix, so the op
    /// is unconditional.
    Unitary2q {
        /// The wire mapped to matrix bit 0.
        a: Wire,
        /// The wire mapped to matrix bit 1.
        b: Wire,
        /// The product matrix.
        mat: Mat4,
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

/// What fusion did to a gate stream, plus a static classification of the
/// resulting ops by the kernel that will execute them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FuseStats {
    /// Gates in the source stream.
    pub gates_in: usize,
    /// Ops in the fused stream.
    pub gates_out: usize,
    /// Gates eliminated (`gates_in - gates_out`).
    pub fused_away: usize,
    /// Ops that will dispatch to the diagonal kernel.
    pub diagonal: usize,
    /// Ops that will dispatch to the permutation kernel.
    pub permutation: usize,
    /// Ops that will dispatch to the dense 2×2 (or W) kernel.
    pub general: usize,
    /// Non-unitary or unclassified ops (allocation, measurement, classical
    /// gates, named gates).
    pub other: usize,
    /// Two-qubit fused unitaries emitted ([`FusedOp::Unitary2q`]).
    pub fused_2q: usize,
    /// Ops covered by window segments (executable by the blocked window
    /// executor in one sweep per window).
    pub windowable: usize,
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
    /// Fusion and kernel-classification counters.
    pub stats: FuseStats,
}

/// Fuses a flattened circuit (no subroutine calls) for repeated execution:
/// same-wire single-qubit runs collapse into 2×2 products, pair-confined
/// runs into 4×4 products, and the resulting stream is cut into window
/// segments. This is the stream the simulator runs in production.
pub fn fuse_circuit(flat: &Circuit) -> FusedCircuit {
    let quantum: HashSet<Wire> = flat
        .inputs
        .iter()
        .filter(|(_, t)| *t == WireType::Quantum)
        .map(|&(w, _)| w)
        .collect();
    let ops = fuse_pairs(fuse_gates(&flat.gates), quantum);
    plan(flat, ops)
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
    let (segments, windowable) = plan_segments(&ops);
    let mut stats = classify_ops(&ops);
    stats.gates_in = flat.gates.len();
    stats.gates_out = ops.len();
    stats.fused_away = stats.gates_in - stats.gates_out;
    stats.windowable = windowable;
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

/// Classification counters over a finished op stream (the stream-shape
/// fields `gates_in`/`gates_out`/`fused_away`/`windowable` are left zero
/// for the caller to fill in).
fn classify_ops(ops: &[FusedOp]) -> FuseStats {
    let mut stats = FuseStats::default();
    for op in ops {
        match op_class(op) {
            Some(KernelClass::Diagonal) => stats.diagonal += 1,
            Some(KernelClass::Permutation) => stats.permutation += 1,
            Some(KernelClass::General) => stats.general += 1,
            None => stats.other += 1,
        }
        if matches!(op, FusedOp::Unitary2q { .. }) {
            stats.fused_2q += 1;
        }
    }
    stats
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

/// What the 2q pass can make of one op.
enum PairView {
    /// A genuine two-wire unitary over the (sorted) pair, as a 4×4 in
    /// canonical orientation (smaller wire = basis bit 0). Starts or joins a
    /// pair run. The `u32` is the source-gate count the op represents.
    Pair(Wire, Wire, Mat4, u32),
    /// An uncontrolled single-qubit unitary: joins a run containing its
    /// wire, passes through otherwise.
    Single(Wire, Mat2, u32),
    /// Anything else: flushes runs it touches and passes through.
    Opaque,
}

/// Reorients a 4×4 built with `first` as basis bit 0 into canonical
/// (sorted) orientation.
fn oriented(first: Wire, second: Wire, m: Mat4) -> (Wire, Wire, Mat4) {
    if first < second {
        (first, second, m)
    } else {
        let sw = swap4();
        (second, first, matmul4(&matmul4(&sw, &m), &sw))
    }
}

/// Classifies an op for the 2q pass. `quantum` is the set of wires that are
/// quantum *at this point of the stream* — controls on classical wires are
/// conditional no-ops, not tensor factors, and must never fold into a
/// matrix.
fn pair_view(op: &FusedOp, quantum: &HashSet<Wire>) -> PairView {
    let embed_ctrl = |wire: Wire, c: &Control, m: &Mat2, k: u32| {
        let (lo, hi) = (wire.min(c.wire), wire.max(c.wire));
        let m4 = embed1q(m, wire == hi, Some(c.positive));
        PairView::Pair(lo, hi, m4, k)
    };
    match op {
        FusedOp::Unitary1q {
            wire,
            controls,
            mat,
            fused,
        } => match controls.as_slice() {
            [] => PairView::Single(*wire, *mat, *fused),
            [c] if c.wire != *wire && quantum.contains(&c.wire) => {
                embed_ctrl(*wire, c, mat, *fused)
            }
            _ => PairView::Opaque,
        },
        FusedOp::Unitary2q { .. } => PairView::Opaque,
        FusedOp::Gate(g) => match g {
            Gate::QGate {
                name: GateName::Swap,
                targets,
                controls,
                ..
            } if controls.is_empty() && targets.len() == 2 && targets[0] != targets[1] => {
                // Swap is symmetric under wire exchange; no reorientation.
                let (lo, hi) = (targets[0].min(targets[1]), targets[0].max(targets[1]));
                PairView::Pair(lo, hi, swap4(), 1)
            }
            Gate::QGate {
                name: GateName::W,
                targets,
                controls,
                ..
            } if controls.is_empty() && targets.len() == 2 && targets[0] != targets[1] => {
                // W (its own inverse) is *not* symmetric under exchange.
                let (lo, hi, m) = oriented(targets[0], targets[1], w4());
                PairView::Pair(lo, hi, m, 1)
            }
            Gate::GPhase { angle, controls } => {
                let phase = Complex::cis(std::f64::consts::PI * angle);
                match controls.as_slice() {
                    [c] if quantum.contains(&c.wire) => {
                        let d = if c.positive {
                            [[ONE, ZERO], [ZERO, phase]]
                        } else {
                            [[phase, ZERO], [ZERO, ONE]]
                        };
                        PairView::Single(c.wire, d, 1)
                    }
                    [c0, c1]
                        if c0.wire != c1.wire
                            && quantum.contains(&c0.wire)
                            && quantum.contains(&c1.wire) =>
                    {
                        let (lo, hi) = (c0.wire.min(c1.wire), c0.wire.max(c1.wire));
                        let pos = |w: Wire| controls.iter().find(|c| c.wire == w).unwrap().positive;
                        let idx = usize::from(pos(lo)) | (usize::from(pos(hi)) << 1);
                        let mut m = identity4();
                        m[idx][idx] = phase;
                        PairView::Pair(lo, hi, m, 1)
                    }
                    _ => PairView::Opaque,
                }
            }
            _ => match unary_matrix(g) {
                Some((wire, m, [])) => PairView::Single(wire, m, 1),
                Some((wire, m, [c])) if c.wire != wire && quantum.contains(&c.wire) => {
                    embed_ctrl(wire, c, &m, 1)
                }
                _ => PairView::Opaque,
            },
        },
    }
}

/// An open pair-confined run: the product so far plus the original ops for
/// identity re-emission when fusing would not pay.
struct Run2 {
    a: Wire,
    b: Wire,
    mat: Mat4,
    ops: Vec<FusedOp>,
    count: u32,
    /// Whether the run holds a two-wire op other than an uncontrolled swap.
    couples: bool,
}

impl Run2 {
    fn touches(&self, w: Wire) -> bool {
        self.a == w || self.b == w
    }
}

/// Emits a finished run: as one [`FusedOp::Unitary2q`] when the collapse
/// pays (three or more ops always; two ops only when the product came out
/// diagonal, where one sub-cube phase pass beats two kernel passes), as the
/// untouched originals otherwise — so the pass is the identity on streams
/// with nothing worth fusing. A run whose only two-wire ops are uncontrolled
/// swaps never pays: the simulator relabels those swaps for free and runs
/// the single-wire ops inside a window, where a 4×4 on the same pair costs a
/// pass over the state of its own.
fn flush_run2(r: Run2, out: &mut Vec<FusedOp>) {
    let worth = r.couples
        && (r.ops.len() >= 3 || (r.ops.len() == 2 && classify4(&r.mat) == KernelClass::Diagonal));
    if worth {
        out.push(FusedOp::Unitary2q {
            a: r.a,
            b: r.b,
            mat: r.mat,
            fused: r.count,
        });
    } else {
        out.extend(r.ops);
    }
}

fn flush_touching2(runs: &mut Vec<Run2>, out: &mut Vec<FusedOp>, touched: &[Wire]) {
    let mut i = 0;
    while i < runs.len() {
        if touched.iter().any(|&w| runs[i].touches(w)) {
            let r = runs.remove(i);
            flush_run2(r, out);
        } else {
            i += 1;
        }
    }
}

fn is_swap(op: &FusedOp) -> bool {
    matches!(
        op,
        FusedOp::Gate(Gate::QGate {
            name: GateName::Swap,
            ..
        })
    )
}

/// Updates the quantum-wire set across a pass-through gate: allocation
/// brings quantum wires alive, measurement and termination turn them
/// classical or dead.
fn track_types(gate: &Gate, quantum: &mut HashSet<Wire>) {
    match gate {
        Gate::QInit { wire, .. } => {
            quantum.insert(*wire);
        }
        Gate::QMeas { wire } | Gate::QTerm { wire, .. } | Gate::QDiscard { wire } => {
            quantum.remove(wire);
        }
        _ => {}
    }
}

/// The pair-fusion pass: collapses maximal runs of operations confined to
/// one wire pair into a single 4×4 product. Runs start only from genuine
/// two-wire ops (Swap, W, singly-controlled 1q unitaries, doubly-controlled
/// phases); uncontrolled 1q ops join a run holding their wire and pass
/// through otherwise, so the pass never *creates* pair traffic. Open runs
/// have pairwise-disjoint wire sets; ops that pass each other act on
/// disjoint wires and commute (same reordering argument as the 1q pass).
fn fuse_pairs(input: Vec<FusedOp>, mut quantum: HashSet<Wire>) -> Vec<FusedOp> {
    let mut out: Vec<FusedOp> = Vec::with_capacity(input.len());
    let mut runs: Vec<Run2> = Vec::new();
    for op in input {
        if let FusedOp::Gate(g) = &op {
            if matches!(g, Gate::Comment { .. }) {
                out.push(op);
                continue;
            }
            if matches!(
                g,
                Gate::QMeas { .. } | Gate::QDiscard { .. } | Gate::QTerm { .. }
            ) {
                // Sampling / projection points, as in the 1q pass.
                for r in runs.drain(..) {
                    flush_run2(r, &mut out);
                }
                track_types(g, &mut quantum);
                out.push(op);
                continue;
            }
        }
        match pair_view(&op, &quantum) {
            PairView::Pair(a, b, m, k) => {
                let couples = !is_swap(&op);
                if let Some(r) = runs.iter_mut().find(|r| r.a == a && r.b == b) {
                    r.mat = matmul4(&m, &r.mat);
                    r.count += k;
                    r.couples |= couples;
                    r.ops.push(op);
                } else {
                    // Disjointness: any run sharing a wire with this pair
                    // must flush before a new run on the pair opens.
                    flush_touching2(&mut runs, &mut out, &[a, b]);
                    runs.push(Run2 {
                        a,
                        b,
                        mat: m,
                        ops: vec![op],
                        count: k,
                        couples,
                    });
                }
            }
            PairView::Single(w, m, k) => {
                if let Some(r) = runs.iter_mut().find(|r| r.touches(w)) {
                    let m4 = embed1q(&m, w == r.b, None);
                    r.mat = matmul4(&m4, &r.mat);
                    r.count += k;
                    r.ops.push(op);
                } else {
                    out.push(op);
                }
            }
            PairView::Opaque => {
                let mut touched = Vec::new();
                match &op {
                    FusedOp::Gate(g) => g.for_each_wire(&mut |w| touched.push(w)),
                    FusedOp::Unitary1q { wire, controls, .. } => {
                        touched.push(*wire);
                        touched.extend(controls.iter().map(|c| c.wire));
                    }
                    FusedOp::Unitary2q { a, b, .. } => touched.extend([*a, *b]),
                }
                flush_touching2(&mut runs, &mut out, &touched);
                if let FusedOp::Gate(g) = &op {
                    track_types(g, &mut quantum);
                }
                out.push(op);
            }
        }
    }
    for r in runs.drain(..) {
        flush_run2(r, &mut out);
    }
    out
}

/// Whether the blocked window executor can apply an op: it must resolve to
/// pure slot-space amplitude arithmetic (no allocation, measurement or
/// classical effects). Comments are eligible as inert filler so they don't
/// split segments.
fn window_eligible(op: &FusedOp) -> bool {
    match op {
        FusedOp::Unitary1q { .. } | FusedOp::Unitary2q { .. } => true,
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
/// two non-comment ops). Returns the segments and the number of ops they
/// cover.
fn plan_segments(ops: &[FusedOp]) -> (Vec<Segment>, usize) {
    let mut segs = Vec::new();
    let mut windowable = 0;
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
            windowable += real;
        }
    }
    (segs, windowable)
}

/// Which kernel class will execute an op, if it is a unitary the
/// state-vector simulator dispatches by matrix shape.
fn op_class(op: &FusedOp) -> Option<KernelClass> {
    match op {
        FusedOp::Unitary1q { mat, .. } => Some(classify(mat)),
        FusedOp::Unitary2q { mat, .. } => Some(classify4(mat)),
        FusedOp::Gate(g) => match g {
            Gate::QGate {
                name: quipper_circuit::GateName::Swap,
                ..
            } => Some(KernelClass::Permutation),
            Gate::QGate {
                name: quipper_circuit::GateName::W,
                ..
            } => Some(KernelClass::General),
            Gate::GPhase { .. } => Some(KernelClass::Diagonal),
            _ => unary_matrix(g).map(|(_, m, _)| classify(&m)),
        },
    }
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

    /// Swaps alone do not make a pair run worth a 4×4: the simulator
    /// relabels them and the phases between them stay single-wire ops.
    #[test]
    fn a_pair_run_coupled_only_by_swaps_is_left_alone() {
        let build = |coupled: bool| {
            Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
                c.swap(a, b);
                c.rot("R(%)", 0.25, a);
                c.rot("R(%)", 0.5, b);
                if coupled {
                    c.rot_ctrl("R(%)", 0.125, a, &b);
                }
                c.swap(a, b);
                (a, b)
            })
        };
        let fused = fuse_circuit(&flat_of(&build(false)));
        assert_eq!(fused.stats.fused_2q, 0);
        assert_eq!(fused.stats.gates_out, 4);
        assert!(is_swap(&fused.ops[0]) && is_swap(&fused.ops[3]));

        let fused = fuse_circuit(&flat_of(&build(true)));
        assert_eq!(fused.stats.fused_2q, 1);
        assert_eq!(fused.stats.gates_out, 1);
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

    #[test]
    fn kernel_classification_counts_are_consistent() {
        let bc = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            c.gate_t(a); // diagonal
            c.qnot(b); // permutation
            c.hadamard(b); // flushes nothing on a; general (after the X flush? no — different wires)
            (a, b)
        });
        let fused = fuse_circuit(&flat_of(&bc));
        let s = fused.stats;
        assert_eq!(
            s.diagonal + s.permutation + s.general + s.other,
            s.gates_out
        );
    }
}
