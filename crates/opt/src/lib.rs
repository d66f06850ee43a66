//! Circuit optimizer over the hierarchical circuit IR.
//!
//! Quipper (PLDI 2013, §5.4) treats circuits as data to be *transformed*:
//! the paper's `-f gatecount` pipelines run rewriting passes over circuits
//! far too large to expand. This crate is that idea as one fixed pipeline
//! of scope-local rewrite passes over [`BCircuit`], each reporting its own
//! gate delta. [`OptLevel`] only says whether the pipeline runs.
//!
//! The pipeline, in order:
//!
//! 1. **Facts-seeded cleanup** — consumes the linter's structured
//!    redundancy facts ([`quipper_lint::facts`], QL030–QL032 and QL041)
//!    instead of re-deriving them: deletes statically blocked gates and
//!    cancelling pairs, drops provably-constant controls. A facts call runs
//!    only the lint passes that make facts.
//! 2. **Commutation-aware cancellation** — deletes inverse pairs that
//!    become adjacent after commuting past neighbours
//!    ([`quipper_circuit::commute`]).
//! 3. **Rotation merging** — folds runs of same-family rotations on a
//!    wire into one gate and drops identity rotations and unobservable
//!    global phases.
//! 4. **Phase-polynomial re-synthesis** — merges phase gates acting on the
//!    same parity function across {CNOT, X, Swap} regions
//!    ([`quipper_circuit::pauli::phase_groups`]), cutting T-count where
//!    adjacency-based merging cannot.
//! 5. **Clifford pushing** — deletes terminal diagonal gates absorbed by
//!    measurements and discards (the measurement-frame absorption).
//! 6. A second facts round and a second cancellation, over what the
//!    rewrites above exposed.
//!
//! The pipeline does no work it can prove is a no-op, and every saving is
//! exact: the circuit and every [`PassStats`] entry are what running every
//! pass in full would give. A pass that rewrites nothing hands back its
//! input (a `debug_assert` checks it), so
//!
//! * a repeated pass is skipped when it is *settled*: the trailing cancel
//!   when nothing rewrote since the first one (cancel sweeps to a fixpoint,
//!   so it is idempotent), the second facts round only when the first round
//!   and everything since rewrote nothing (facts is not idempotent: a
//!   deleted H·H can expose a constant);
//! * a scope is left alone by a pass it cannot trigger, found by one scan:
//!   merging needs a rotation or a global phase, phase-polynomial
//!   re-synthesis two phase terms;
//! * a scope no pass rewrites is neither rebuilt nor cloned, and a pass
//!   that rewrote nothing is not recounted. [`optimize`] borrows its input
//!   until the first rewrite, so a circuit no pass touches costs no copy.
//!
//! A skipped pass keeps its report entry, with no rewrites and equal
//! counts.
//!
//! Decomposition into a gate base is not a pass here. As in the paper
//! (`decompose_generic`, §4.4.3) it is a whole-circuit transformer the user
//! applies: `quipper::decompose::decompose(GateBase::Binary, ..)`.
//!
//! A whole-pipeline revert guard hands back the untouched input if the
//! final circuit somehow ends up larger (recorded as an `opt.revert` pass),
//! so the optimizer never reports more gates than it was given.
//!
//! Passes preserve hierarchy: a rewrite inside a box body optimizes every
//! call site at once, which is what makes optimizing trillion-gate
//! circuits tractable. [`optimize`] is the one-call entry point; it emits
//! `opt.*` metrics and per-pass `Compile` spans through `quipper-trace`.

mod passes;

use std::borrow::Cow;
use std::fmt;
use std::time::{Duration, Instant};

use quipper_circuit::{BCircuit, BoxId, Circuit, GateCount};
use quipper_lint::FactScope;
use quipper_trace::{names, span, Phase};

/// Whether the optimizer rewrites a circuit before planning.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum OptLevel {
    /// No rewriting at all: plans are built from the circuit exactly as
    /// authored (bit-identical to the pre-optimizer pipeline).
    Off,
    /// Facts-seeded cleanup, commutation-aware cancellation, rotation
    /// merging, phase-polynomial re-synthesis and Clifford pushing. Never
    /// increases the gate count.
    #[default]
    Default,
}

impl OptLevel {
    /// The wire-format / CLI name of the level.
    pub fn as_str(self) -> &'static str {
        match self {
            OptLevel::Off => "off",
            OptLevel::Default => "default",
        }
    }

    /// Parses the wire-format name back into a level.
    pub fn parse(s: &str) -> Option<OptLevel> {
        match s {
            "off" => Some(OptLevel::Off),
            "default" => Some(OptLevel::Default),
            _ => None,
        }
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One pass's contribution, in hierarchical (multiplied-through-boxes)
/// gate counts.
#[derive(Clone, PartialEq, Debug)]
pub struct PassStats {
    /// Pass name as it appears in trace spans (`opt.cancel` …).
    pub name: &'static str,
    /// Total gates entering the pass.
    pub gates_before: u128,
    /// Total gates leaving the pass.
    pub gates_after: u128,
    /// Individual rewrites applied (deletions, merges, control drops,
    /// expansions). A pass can rewrite without shrinking — two rotations
    /// merging into one is one rewrite, net −1 gate.
    pub rewrites: u64,
}

impl PassStats {
    /// Net gates removed (negative when the pass grew the circuit).
    pub fn removed(&self) -> i128 {
        self.gates_before as i128 - self.gates_after as i128
    }
}

/// The full result of an optimizer run: per-class counts before and after,
/// plus per-pass deltas.
#[derive(Clone, PartialEq, Debug)]
pub struct OptReport {
    /// The level the pipeline ran at.
    pub level: OptLevel,
    /// One entry per executed pass, in pipeline order.
    pub passes: Vec<PassStats>,
    /// Aggregated gate count of the input circuit.
    pub before: GateCount,
    /// Aggregated gate count of the optimized circuit.
    pub after: GateCount,
    /// Wall time spent in the pipeline.
    pub elapsed: Duration,
}

impl OptReport {
    /// Total gates entering the pipeline.
    pub fn gates_before(&self) -> u128 {
        self.before.total()
    }

    /// Total gates leaving the pipeline.
    pub fn gates_after(&self) -> u128 {
        self.after.total()
    }

    /// Net gates removed by the whole pipeline (negative = grew).
    pub fn removed(&self) -> i128 {
        self.gates_before() as i128 - self.gates_after() as i128
    }

    /// Total rewrites across all passes.
    pub fn rewrites(&self) -> u64 {
        self.passes.iter().map(|p| p.rewrites).sum()
    }

    /// The compact, copyable form carried on execution reports.
    pub fn summary(&self) -> OptSummary {
        OptSummary {
            level: self.level,
            gates_before: u64::try_from(self.gates_before()).unwrap_or(u64::MAX),
            gates_after: u64::try_from(self.gates_after()).unwrap_or(u64::MAX),
            rewrites: self.rewrites(),
        }
    }
}

impl fmt::Display for OptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "opt({}): {} -> {} gates ({:+}) in {}",
            self.level,
            self.gates_before(),
            self.gates_after(),
            -self.removed(),
            quipper_trace::fmt_duration(self.elapsed),
        )?;
        for p in &self.passes {
            writeln!(
                f,
                "  {:<14} {:>8} -> {:<8} ({} rewrites)",
                p.name, p.gates_before, p.gates_after, p.rewrites
            )?;
        }
        Ok(())
    }
}

/// Saturated-to-`u64` digest of an [`OptReport`], small enough to ride on
/// every `ExecReport`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct OptSummary {
    /// The level the pipeline ran at.
    pub level: OptLevel,
    /// Total gates before, saturated to `u64`.
    pub gates_before: u64,
    /// Total gates after, saturated to `u64`.
    pub gates_after: u64,
    /// Total rewrites applied.
    pub rewrites: u64,
}

impl fmt::Display for OptSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}->{}",
            self.level, self.gates_before, self.gates_after
        )
    }
}

/// The passes the pipeline schedules.
#[derive(Copy, Clone, PartialEq)]
enum Pass {
    FactsCleanup,
    Cancel,
    Merge,
    PhasePoly,
    CliffordPush,
}

/// The one pipeline. Phase-polynomial re-synthesis runs after merging
/// (merging normalizes adjacent runs first, phasepoly catches the
/// non-adjacent same-parity remainder); Clifford pushing then strips what
/// became terminal. The second facts round sees the dataflow those
/// deletions exposed (a deleted H·H pair can turn a wire back into a known
/// constant); the trailing cancel catches pairs exposed by merges and
/// facts deletions.
const PIPELINE: [Pass; 7] = [
    Pass::FactsCleanup,
    Pass::Cancel,
    Pass::Merge,
    Pass::PhasePoly,
    Pass::CliffordPush,
    Pass::FactsCleanup,
    Pass::Cancel,
];

impl Pass {
    fn name(self) -> &'static str {
        match self {
            Pass::FactsCleanup => "opt.facts",
            Pass::Cancel => "opt.cancel",
            Pass::Merge => "opt.merge",
            Pass::PhasePoly => "opt.phasepoly",
            Pass::CliffordPush => "opt.clifford_push",
        }
    }

    /// Whether running the pass on its own output rewrites nothing. Cancel
    /// sweeps until a sweep deletes nothing, and a sweep is a function of
    /// its input, so a second run's first sweep is that last, empty one.
    /// Facts is not: deleting H·H can expose a constant to the analyzer.
    fn idempotent(self) -> bool {
        matches!(self, Pass::Cancel)
    }

    /// Rewrites every scope of `bc` in place, adding the rewrites applied
    /// to `rewrites`. Returns whether any scope changed.
    fn apply(self, bc: &mut Cow<'_, BCircuit>, rewrites: &mut u64) -> bool {
        match self {
            Pass::FactsCleanup => passes::facts_cleanup(bc, rewrites),
            Pass::Cancel => passes::map_scopes(bc, |_, c| passes::cancel_pass(&c.gates, rewrites)),
            Pass::Merge => passes::map_scopes(bc, |scope, c| {
                passes::merge_pass(&c.gates, scope == FactScope::Main, rewrites)
            }),
            Pass::PhasePoly => {
                let (mut merged, mut removed) = (0u64, 0u64);
                let changed = passes::map_scopes(bc, |_, c| {
                    passes::phasepoly_pass(c, rewrites, &mut merged, &mut removed)
                });
                quipper_trace::count(names::OPT_PHASEPOLY_MERGED, merged);
                quipper_trace::count(names::OPT_PHASEPOLY_REMOVED, removed);
                changed
            }
            Pass::CliffordPush => {
                let mut absorbed = 0u64;
                let changed = passes::map_scopes(bc, |scope, c| {
                    passes::clifford_push_pass(
                        &c.gates,
                        scope == FactScope::Main,
                        rewrites,
                        &mut absorbed,
                    )
                });
                quipper_trace::count(names::OPT_CLIFFORD_ABSORBED, absorbed);
                changed
            }
        }
    }
}

/// Whether the pass at `PIPELINE[at]` is *settled*: it ran before, and its
/// input is that run's input (or, for an idempotent pass, that run's
/// output) because no pass in between rewrote anything. A pass that
/// rewrites nothing returns its input unchanged (asserted in [`optimize`])
/// and passes are deterministic, so a settled pass would rewrite nothing.
fn settled(at: usize, done: &[PassStats]) -> bool {
    let pass = PIPELINE[at];
    PIPELINE[..at]
        .iter()
        .rposition(|&p| p == pass)
        .is_some_and(|prev| {
            let since = if pass.idempotent() { prev + 1 } else { prev };
            done[since..at].iter().all(|p| p.rewrites == 0)
        })
}

/// Optimizes a circuit at the given level.
///
/// `Off` hands back the input untouched (and an empty pass list), as does
/// `Default` when no pass rewrites anything: the result borrows `bc` until
/// the first rewrite. The optimized circuit is structurally valid whenever
/// the input is, and semantically equivalent up to global phase; the report
/// carries aggregated gate counts by class before and after, and per-pass
/// deltas.
pub fn optimize(bc: &BCircuit, level: OptLevel) -> (Cow<'_, BCircuit>, OptReport) {
    let start = Instant::now();
    let _span = span(Phase::Compile, "opt");
    let pipeline: &[Pass] = match level {
        OptLevel::Off => &[],
        OptLevel::Default => &PIPELINE,
    };
    let before = bc.gate_count();
    let mut out = Cow::Borrowed(bc);
    // What leaves a pass is what enters the next, and only a pass that
    // rewrote something changes the count.
    let mut after = before.clone();
    let mut passes: Vec<PassStats> = Vec::with_capacity(pipeline.len());
    for (at, pass) in pipeline.iter().enumerate() {
        let _span = span(Phase::Compile, pass.name());
        let mut rewrites = 0u64;
        if !settled(at, &passes) {
            let changed = pass.apply(&mut out, &mut rewrites);
            debug_assert_eq!(
                changed,
                rewrites > 0,
                "{}: a pass changes its input exactly when it counts a rewrite",
                pass.name()
            );
        }
        let gates_before = after.total();
        if rewrites > 0 {
            after = out.gate_count();
        }
        passes.push(PassStats {
            name: pass.name(),
            gates_before,
            gates_after: after.total(),
            rewrites,
        });
    }
    if !pipeline.is_empty() {
        // A rewritten scope leaves with its wire bound recomputed; the
        // pipeline's result has every bound recomputed, rewritten or not.
        tighten_wire_bounds(&mut out);
    }
    // Whole-pipeline guard: no run may hand back more gates than it was
    // given. The passes individually never grow, so this only fires on
    // pathological inputs — but the invariant is cheap to enforce
    // unconditionally.
    if after.total() > before.total() {
        let _span = span(Phase::Compile, "opt.revert");
        passes.push(PassStats {
            name: "opt.revert",
            gates_before: after.total(),
            gates_after: before.total(),
            rewrites: 1,
        });
        quipper_trace::count(names::OPT_REVERTED, 1);
        out = Cow::Borrowed(bc);
        after = before.clone();
    }
    let report = OptReport {
        level,
        passes,
        before,
        after,
        elapsed: start.elapsed(),
    };
    quipper_trace::count(
        names::OPT_GATES_IN,
        u64::try_from(report.gates_before()).unwrap_or(u64::MAX),
    );
    quipper_trace::count(
        names::OPT_GATES_OUT,
        u64::try_from(report.gates_after()).unwrap_or(u64::MAX),
    );
    quipper_trace::count(
        names::OPT_REMOVED,
        u64::try_from(report.removed().max(0)).unwrap_or(u64::MAX),
    );
    quipper_trace::count(names::OPT_REWRITES, report.rewrites());
    (out, report)
}

/// Recomputes the wire bound of every scope, taking ownership only if some
/// bound is not already what recomputing gives.
fn tighten_wire_bounds(bc: &mut Cow<'_, BCircuit>) {
    let loose = |c: &Circuit| c.wire_bound != c.tight_wire_bound();
    if !loose(&bc.main) && !bc.db.iter().any(|(_, def)| loose(&def.circuit)) {
        return;
    }
    let bc = bc.to_mut();
    bc.main.recompute_wire_bound();
    for index in 0..bc.db.len() {
        if let Some(body) = bc.db.body_mut(BoxId(index as u32)) {
            body.recompute_wire_bound();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quipper_circuit::{Circuit, CircuitDb, Control, Gate, GateName, SubDef, Wire, WireType};

    fn q(w: u32) -> (Wire, WireType) {
        (Wire(w), WireType::Quantum)
    }

    fn main_only(gates: Vec<Gate>, wires: u32) -> BCircuit {
        let mut c = Circuit::with_inputs((0..wires).map(q).collect());
        c.gates = gates;
        c.outputs = c.inputs.clone();
        c.recompute_wire_bound();
        BCircuit {
            db: CircuitDb::new(),
            main: c,
        }
    }

    fn rz(angle: f64, wire: u32) -> Gate {
        Gate::QRot {
            name: "exp(-i%Z)".into(),
            inverted: false,
            angle,
            targets: vec![Wire(wire)],
            controls: vec![],
        }
    }

    #[test]
    fn off_is_the_identity_pipeline() {
        let bc = main_only(
            vec![
                Gate::unary(GateName::H, Wire(0)),
                Gate::unary(GateName::H, Wire(0)),
            ],
            1,
        );
        let (out, report) = optimize(&bc, OptLevel::Off);
        assert!(matches!(out, Cow::Borrowed(_)));
        assert_eq!(*out, bc);
        assert!(report.passes.is_empty());
        assert_eq!(report.removed(), 0);
    }

    #[test]
    fn adjacent_inverse_pairs_cancel() {
        let bc = main_only(
            vec![
                Gate::unary(GateName::H, Wire(0)),
                Gate::unary(GateName::H, Wire(0)),
                Gate::cnot(Wire(1), Wire(0)),
                Gate::cnot(Wire(1), Wire(0)),
            ],
            2,
        );
        let (out, report) = optimize(&bc, OptLevel::Default);
        assert!(out.main.gates.is_empty(), "got {:?}", out.main.gates);
        assert_eq!(report.gates_after(), 0);
        assert!(report.rewrites() >= 2);
    }

    #[test]
    fn cancellation_commutes_past_diagonal_gates() {
        // T(0) is Z-diagonal on wire 0, as is the CNOT's control there: the
        // pair of CNOTs cancels through it. The linter's adjacency-only
        // QL030 cannot see this pair.
        let bc = main_only(
            vec![
                Gate::cnot(Wire(1), Wire(0)),
                Gate::unary(GateName::T, Wire(0)),
                Gate::cnot(Wire(1), Wire(0)),
            ],
            2,
        );
        let (out, _) = optimize(&bc, OptLevel::Default);
        assert_eq!(out.main.gates, vec![Gate::unary(GateName::T, Wire(0))]);
    }

    #[test]
    fn blocking_gates_prevent_unsound_cancellation() {
        // H Z H is X, not the identity: Z is opaque to H's wire action.
        let bc = main_only(
            vec![
                Gate::unary(GateName::H, Wire(0)),
                Gate::unary(GateName::Z, Wire(0)),
                Gate::unary(GateName::H, Wire(0)),
            ],
            1,
        );
        let (out, report) = optimize(&bc, OptLevel::Default);
        assert_eq!(out.main.gates.len(), 3);
        assert_eq!(report.removed(), 0);
    }

    #[test]
    fn rotations_merge_and_identities_vanish() {
        let bc = main_only(
            vec![
                rz(0.25, 0),
                Gate::cnot(Wire(1), Wire(0)), // Z-diagonal on wire 0: transparent
                rz(-0.25, 0),
                rz(0.5, 1),
                rz(0.25, 1),
            ],
            2,
        );
        let (out, _) = optimize(&bc, OptLevel::Default);
        assert_eq!(
            out.main.gates,
            vec![Gate::cnot(Wire(1), Wire(0)), rz(0.75, 1)]
        );
    }

    #[test]
    fn ry_does_not_drop_at_two_pi() {
        // Ry(2π) = −I: a global phase that turns relative under controls.
        let ry = |angle: f64| Gate::QRot {
            name: "Ry(%)".into(),
            inverted: false,
            angle,
            targets: vec![Wire(0)],
            controls: vec![],
        };
        let tau = std::f64::consts::TAU;
        let bc = main_only(vec![ry(tau / 2.0), ry(tau / 2.0)], 1);
        let (out, _) = optimize(&bc, OptLevel::Default);
        assert_eq!(out.main.gates, vec![ry(tau)]);
        // At 4π the family really is the identity.
        let bc = main_only(vec![ry(tau), ry(tau)], 1);
        let (out, _) = optimize(&bc, OptLevel::Default);
        assert!(out.main.gates.is_empty());
    }

    #[test]
    fn global_phase_drops_in_main_but_not_in_boxes() {
        let phase = Gate::GPhase {
            angle: 0.5,
            controls: vec![],
        };
        let bc = main_only(vec![phase.clone()], 1);
        let (out, _) = optimize(&bc, OptLevel::Default);
        assert!(out.main.gates.is_empty());

        // Inside a box the phase must survive: a controlled call site
        // would turn it into a relative phase.
        let mut db = CircuitDb::new();
        let mut body = Circuit::with_inputs(vec![q(0)]);
        body.gates = vec![phase.clone()];
        body.outputs = body.inputs.clone();
        let id = db.insert(SubDef {
            name: "ph".into(),
            shape: "".into(),
            circuit: body,
        });
        let mut main = Circuit::with_inputs(vec![q(0), q(1)]);
        main.gates = vec![Gate::Subroutine {
            id,
            inverted: false,
            inputs: vec![Wire(0)],
            outputs: vec![Wire(0)],
            controls: vec![Control::positive(Wire(1))],
            repetitions: 1,
        }];
        main.outputs = main.inputs.clone();
        main.recompute_wire_bound();
        let bc = BCircuit { db, main };
        let (out, _) = optimize(&bc, OptLevel::Default);
        assert_eq!(out.db.get(id).unwrap().circuit.gates, vec![phase]);
    }

    #[test]
    fn facts_seeded_cleanup_uses_lint_redundancy() {
        // An ancilla initialized |1⟩: the control on it is constant-true
        // (QL031) and a negative control on it never fires (QL032).
        let a = Wire(1);
        let bc = main_only(
            vec![
                Gate::QInit {
                    value: true,
                    wire: a,
                },
                Gate::unary(GateName::X, Wire(0))
                    .with_controls(&[Control::positive(a)])
                    .unwrap(),
                Gate::unary(GateName::Z, Wire(0))
                    .with_controls(&[Control::negative(a)])
                    .unwrap(),
                Gate::QTerm {
                    value: true,
                    wire: a,
                },
            ],
            1,
        );
        let (out, report) = optimize(&bc, OptLevel::Default);
        assert_eq!(
            out.main.gates,
            vec![
                Gate::QInit {
                    value: true,
                    wire: a
                },
                Gate::unary(GateName::X, Wire(0)),
                Gate::QTerm {
                    value: true,
                    wire: a
                },
            ]
        );
        let facts_pass = &report.passes[0];
        assert_eq!(facts_pass.name, "opt.facts");
        assert!(facts_pass.rewrites >= 2);
    }

    #[test]
    fn box_bodies_optimize_once_for_all_call_sites() {
        let mut db = CircuitDb::new();
        let mut body = Circuit::with_inputs(vec![q(0)]);
        body.gates = vec![
            Gate::unary(GateName::T, Wire(0)),
            Gate::unary(GateName::H, Wire(0)),
            Gate::unary(GateName::H, Wire(0)),
        ];
        body.outputs = body.inputs.clone();
        let id = db.insert(SubDef {
            name: "b".into(),
            shape: "".into(),
            circuit: body,
        });
        let mut main = Circuit::with_inputs(vec![q(0)]);
        main.gates = vec![Gate::Subroutine {
            id,
            inverted: false,
            inputs: vec![Wire(0)],
            outputs: vec![Wire(0)],
            controls: vec![],
            repetitions: 1_000_000,
        }];
        main.outputs = main.inputs.clone();
        let bc = BCircuit { db, main };
        assert_eq!(bc.gate_count().total(), 3_000_000);
        let (out, report) = optimize(&bc, OptLevel::Default);
        assert_eq!(out.db.get(id).unwrap().circuit.gates.len(), 1);
        assert_eq!(report.gates_after(), 1_000_000);
        // Ids survived, so the call still resolves.
        out.validate().unwrap();
    }

    #[test]
    fn phasepoly_merges_rotations_across_cnots() {
        // T(0) · CNOT(1←0) · T(0): the CNOT's control leaves wire 0's
        // parity unchanged, so the two T's share one phase-polynomial term
        // and fuse into a single S — invisible to adjacency-based merging.
        let bc = main_only(
            vec![
                Gate::unary(GateName::T, Wire(0)),
                Gate::cnot(Wire(1), Wire(0)),
                Gate::unary(GateName::T, Wire(0)),
            ],
            2,
        );
        let (out, report) = optimize(&bc, OptLevel::Default);
        assert_eq!(
            out.main.gates,
            vec![
                Gate::unary(GateName::S, Wire(0)),
                Gate::cnot(Wire(1), Wire(0)),
            ]
        );
        assert!(report
            .passes
            .iter()
            .any(|p| p.name == "opt.phasepoly" && p.rewrites >= 1));
    }

    #[test]
    fn phasepoly_deletes_identity_terms() {
        // T · CNOT · T†: the same parity term sums to zero — both phases
        // vanish. (The cancel pass can also reach this one by commuting
        // through the Z-diagonal CNOT control; the pipeline result is what
        // matters.)
        let tdg = Gate::QGate {
            name: GateName::T,
            inverted: true,
            targets: vec![Wire(0)],
            controls: vec![],
        };
        let bc = main_only(
            vec![
                Gate::unary(GateName::T, Wire(0)),
                Gate::cnot(Wire(1), Wire(0)),
                tdg,
            ],
            2,
        );
        let (out, _) = optimize(&bc, OptLevel::Default);
        assert_eq!(out.main.gates, vec![Gate::cnot(Wire(1), Wire(0))]);
    }

    #[test]
    fn clifford_push_absorbs_terminal_diagonals_into_measurement() {
        // S and T are Z-diagonal: ahead of a computational-basis
        // measurement they only add unobservable per-branch phases. The H
        // is not diagonal and must survive.
        let bc = main_only(
            vec![
                Gate::unary(GateName::H, Wire(0)),
                Gate::unary(GateName::S, Wire(0)),
                Gate::unary(GateName::T, Wire(0)),
                Gate::QMeas { wire: Wire(0) },
            ],
            1,
        );
        let (out, report) = optimize(&bc, OptLevel::Default);
        assert_eq!(
            out.main.gates,
            vec![
                Gate::unary(GateName::H, Wire(0)),
                Gate::QMeas { wire: Wire(0) },
            ]
        );
        assert!(report
            .passes
            .iter()
            .any(|p| p.name == "opt.clifford_push" && p.rewrites >= 1));
    }

    #[test]
    fn clifford_push_absorbs_anything_before_a_discard() {
        // The X is arbitrary on wire 1, but wire 1 is discarded with
        // nothing else touching it — the action is traced out. Wire 0's
        // measurement blocks nothing here because the X doesn't touch it.
        let bc = main_only(
            vec![
                Gate::unary(GateName::H, Wire(0)),
                Gate::unary(GateName::X, Wire(1)),
                Gate::QMeas { wire: Wire(0) },
                Gate::QDiscard { wire: Wire(1) },
            ],
            2,
        );
        let (out, _) = optimize(&bc, OptLevel::Default);
        assert_eq!(
            out.main.gates,
            vec![
                Gate::unary(GateName::H, Wire(0)),
                Gate::QMeas { wire: Wire(0) },
                Gate::QDiscard { wire: Wire(1) },
            ]
        );
    }

    #[test]
    fn clifford_push_keeps_gates_a_survivor_depends_on() {
        // The X on the measured wire is NOT diagonal: deleting it would
        // flip the outcome distribution. It must survive.
        let bc = main_only(
            vec![
                Gate::unary(GateName::X, Wire(0)),
                Gate::QMeas { wire: Wire(0) },
            ],
            1,
        );
        let (out, _) = optimize(&bc, OptLevel::Default);
        assert_eq!(out.main.gates.len(), 2);
    }

    #[test]
    fn conjugated_pairs_from_lint_facts_are_deleted() {
        // Z · H · X: lint's Pauli-flow (QL041) proves the outer pair
        // cancels through the H; the facts cleanup consumes it.
        let bc = main_only(
            vec![
                Gate::unary(GateName::Z, Wire(0)),
                Gate::unary(GateName::H, Wire(0)),
                Gate::unary(GateName::X, Wire(0)),
            ],
            1,
        );
        let (out, _) = optimize(&bc, OptLevel::Default);
        assert_eq!(out.main.gates, vec![Gate::unary(GateName::H, Wire(0))]);
    }

    /// The two T's on wire `b` around the CNOT pair act on one parity, but
    /// the X-type action on `b` in between blocks structural commuting: only
    /// `opt.phasepoly` folds them into one S. The cancel/merge-only pipeline
    /// that preceded it (since deleted; its last comparison is EXPERIMENTS.md
    /// A8) left this circuit as it was: T-count 3, 5 gates.
    #[test]
    fn default_pipeline_beats_the_recorded_cancel_merge_baseline() {
        const BASELINE_T: u128 = 3;
        const BASELINE_TOTAL: u128 = 5;
        let bc = quipper::Circ::build(
            &(false, false),
            |c, (a, b): (quipper::Qubit, quipper::Qubit)| {
                c.gate_t(b);
                c.cnot(b, a);
                c.gate_t(b);
                c.cnot(b, a);
                c.gate_t(b);
                (a, b)
            },
        );
        let (out, report) = optimize(&bc, OptLevel::Default);
        let counts = out.gate_count();
        assert_eq!((counts.t_count(), counts.total()), (1, 4));
        assert!(counts.t_count() < BASELINE_T && counts.total() <= BASELINE_TOTAL);
        let passes: Vec<&str> = report.passes.iter().map(|p| p.name).collect();
        assert!(passes.contains(&"opt.phasepoly"));
        assert!(passes.contains(&"opt.clifford_push"));
    }

    /// The pipeline with no repeat pass skipped and every boundary
    /// recounted: what `optimize` must equal, circuit and report. Its merge
    /// and phasepoly passes still skip untriggered scopes; that skip is
    /// exact because each trigger is the test its pass rewrites by (the
    /// phase terms are `phase_groups`' own `is_phase_term`).
    fn unskipped(bc: &BCircuit) -> (BCircuit, Vec<PassStats>) {
        let mut out = Cow::Borrowed(bc);
        let mut passes = Vec::new();
        let mut count = bc.gate_count().total();
        for pass in PIPELINE {
            let mut rewrites = 0;
            pass.apply(&mut out, &mut rewrites);
            let after = out.gate_count().total();
            passes.push(PassStats {
                name: pass.name(),
                gates_before: count,
                gates_after: after,
                rewrites,
            });
            count = after;
        }
        tighten_wire_bounds(&mut out);
        (out.into_owned(), passes)
    }

    /// Optimizes `bc`, checks the result against [`unskipped`], and returns
    /// the report.
    fn optimize_as_unskipped(bc: &BCircuit) -> OptReport {
        let (out, report) = optimize(bc, OptLevel::Default);
        let (want, passes) = unskipped(bc);
        assert_eq!(*out, want);
        assert_eq!(report.passes, passes);
        assert_eq!(report.after, want.gate_count());
        report
    }

    fn stats(rewrites: &[u64]) -> Vec<PassStats> {
        let stat = |(at, &rewrites): (usize, &u64)| PassStats {
            name: PIPELINE[at].name(),
            gates_before: 0,
            gates_after: 0,
            rewrites,
        };
        rewrites.iter().enumerate().map(stat).collect()
    }

    #[test]
    fn only_repeats_with_nothing_rewritten_in_between_are_settled() {
        // First runs never are.
        for at in 0..5 {
            assert!(!settled(at, &stats(&[0; 7])));
        }
        // The second facts round: settled only if the first round and all
        // since rewrote nothing.
        assert!(settled(5, &stats(&[0, 0, 0, 0, 0])));
        assert!(!settled(5, &stats(&[1, 0, 0, 0, 0])));
        assert!(!settled(5, &stats(&[0, 0, 0, 1, 0])));
        // The trailing cancel: the first cancel may have rewritten (it ran
        // to a fixpoint), nothing after it may.
        assert!(settled(6, &stats(&[1, 3, 0, 0, 0, 0])));
        assert!(!settled(6, &stats(&[0, 0, 0, 0, 0, 1])));
        assert!(!settled(6, &stats(&[0, 0, 1, 0, 0, 0])));
    }

    #[test]
    fn the_second_facts_round_runs_when_a_deletion_exposes_a_constant() {
        // H·H on a fresh |0⟩ ancilla hides that its control never fires:
        // the walk sees a superposed wire until the first round deletes the
        // pair, and only then proves the CNOT blocked.
        let a = Wire(1);
        let bc = main_only(
            vec![
                Gate::QInit {
                    value: false,
                    wire: a,
                },
                Gate::unary(GateName::H, a),
                Gate::unary(GateName::H, a),
                Gate::cnot(Wire(0), a),
                Gate::QTerm {
                    value: false,
                    wire: a,
                },
            ],
            1,
        );
        let report = optimize_as_unskipped(&bc);
        let rewrites: Vec<u64> = report.passes.iter().map(|p| p.rewrites).collect();
        assert_eq!(rewrites, [2, 0, 0, 0, 0, 1, 0]);
        assert_eq!(report.gates_after(), 2);
    }

    #[test]
    fn the_trailing_cancel_runs_when_a_merge_exposes_a_pair() {
        // The Ry pair blocks the CNOTs (Y-diagonal against a control) until
        // merging deletes it; the T between them hides the pair from the
        // facts round, so only the trailing cancel can take it.
        let ry = |angle: f64| Gate::QRot {
            name: "Ry(%)".into(),
            inverted: false,
            angle,
            targets: vec![Wire(0)],
            controls: vec![],
        };
        let bc = main_only(
            vec![
                Gate::cnot(Wire(1), Wire(0)),
                ry(0.3),
                ry(-0.3),
                Gate::unary(GateName::T, Wire(0)),
                Gate::cnot(Wire(1), Wire(0)),
            ],
            2,
        );
        let report = optimize_as_unskipped(&bc);
        let rewrites: Vec<u64> = report.passes.iter().map(|p| p.rewrites).collect();
        assert_eq!(rewrites, [0, 0, 1, 0, 0, 0, 1]);
        assert_eq!(report.gates_after(), 1);
    }

    #[test]
    fn a_circuit_no_pass_rewrites_comes_back_borrowed_with_a_full_report() {
        // No rotation or phase (merge untriggered), one phase term
        // (phasepoly untriggered), nothing to cancel or absorb.
        let bc = main_only(
            vec![
                Gate::unary(GateName::H, Wire(0)),
                Gate::cnot(Wire(1), Wire(0)),
                Gate::unary(GateName::T, Wire(1)),
                Gate::unary(GateName::H, Wire(1)),
            ],
            2,
        );
        let report = optimize_as_unskipped(&bc);
        assert_eq!(report.passes.len(), PIPELINE.len());
        for pass in &report.passes {
            assert_eq!(
                (pass.gates_before, pass.gates_after, pass.rewrites),
                (4, 4, 0)
            );
        }
        let (out, _) = optimize(&bc, OptLevel::Default);
        assert!(matches!(out, Cow::Borrowed(_)));
    }

    #[test]
    fn untriggered_scopes_stay_while_a_triggered_box_is_rewritten() {
        // Main has no rotation and a single T; the box has two T's on one
        // parity (phasepoly) and a rotation pair (merge).
        let mut db = CircuitDb::new();
        let mut body = Circuit::with_inputs(vec![q(0), q(1)]);
        body.gates = vec![
            Gate::unary(GateName::T, Wire(0)),
            Gate::cnot(Wire(1), Wire(0)),
            Gate::unary(GateName::T, Wire(0)),
            rz(0.25, 1),
            rz(0.5, 1),
        ];
        body.outputs = body.inputs.clone();
        let id = db.insert(SubDef {
            name: "b".into(),
            shape: "".into(),
            circuit: body,
        });
        let mut main = Circuit::with_inputs(vec![q(0), q(1)]);
        main.gates = vec![
            Gate::unary(GateName::T, Wire(0)),
            Gate::Subroutine {
                id,
                inverted: false,
                inputs: vec![Wire(0), Wire(1)],
                outputs: vec![Wire(0), Wire(1)],
                controls: vec![],
                repetitions: 2,
            },
            Gate::unary(GateName::H, Wire(1)),
        ];
        main.outputs = main.inputs.clone();
        main.recompute_wire_bound();
        let bc = BCircuit { db, main };
        let report = optimize_as_unskipped(&bc);
        let (out, _) = optimize(&bc, OptLevel::Default);
        assert_eq!(out.main, bc.main, "main is untriggered and unchanged");
        assert_eq!(out.db.get(id).unwrap().circuit.gates.len(), 3);
        assert!(report
            .passes
            .iter()
            .any(|p| p.name == "opt.merge" && p.rewrites == 1));
    }

    #[test]
    fn levels_parse_round_trip() {
        for level in [OptLevel::Off, OptLevel::Default] {
            assert_eq!(OptLevel::parse(level.as_str()), Some(level));
        }
        assert_eq!(OptLevel::parse("aggressive"), None);
        assert_eq!(OptLevel::default(), OptLevel::Default);
    }

    #[test]
    fn summary_is_compact_and_copy() {
        let bc = main_only(
            vec![
                Gate::unary(GateName::H, Wire(0)),
                Gate::unary(GateName::H, Wire(0)),
            ],
            1,
        );
        let (_, report) = optimize(&bc, OptLevel::Default);
        let s = report.summary();
        let s2 = s; // Copy
        assert_eq!(s2.to_string(), "default 2->0");
        assert_eq!(s.gates_before, 2);
    }
}
