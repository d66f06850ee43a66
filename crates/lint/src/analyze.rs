//! The dataflow core: abstract interpretation over the per-wire basis-state
//! domain, with memoized per-subroutine summaries.
//!
//! The walk assigns every circuit input a fresh symbolic variable and pushes
//! [`AbsVal`]s through the gate list. Subroutine calls are handled by
//! *summaries*: each box body is walked once (per inversion flag) on fully
//! symbolic inputs, and the resulting output values — boolean expressions
//! over the box's own inputs — are substituted at every call site. This is
//! what lets the termination pass prove Bennett-style compute/use/uncompute
//! oracles clean: the uncompute half cancels the compute half symbolically,
//! so scoped ancillas provably return to their initial basis state.
//!
//! # Soundness under entangled callers
//!
//! A summary is computed for computational-basis inputs only, but its
//! conclusions transfer to superposed and entangled caller states by
//! linearity: if a box maps every basis input |x⟩ to α(x)·|out(x)⟩ with some
//! output wire constant across all `x` (and performs no measurement or
//! unassertive discard along the way), that wire factors out of
//! Σ α(x)|out(x)⟩ unentangled. Boxes certified this way are counted in
//! [`LintReport::boxes_clean`](crate::LintReport::boxes_clean), and calls to
//! uncertified boxes degrade the caller's state instead of being trusted.
//!
//! Each box is additionally walked in *blocked* mode — simulating the body
//! of a controlled call whose controls are off, where controllable gates do
//! not fire but control-neutral initializations and terminations still run
//! (paper §4.2: ancilla scoping inside `with_controls`). A box whose
//! assertions rely on gates that a control would suppress is flagged at its
//! controlled call sites (QL003).
//!
//! # One walk, both products
//!
//! The same walk resolves every control, so it is also where the optimizer's
//! no-op-control facts come from: a statically violated control is QL032 and
//! [`Redundancy::NeverFires`], an always-satisfied one QL031 and
//! [`Redundancy::ConstControl`], recorded together. [`crate::facts`] runs it
//! as [`crate::lint`] does and drops the report; the termination and
//! ancilla diagnostics it formats along the way are that walk's only
//! surplus.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use quipper_circuit::reverse::reverse_circuit;
use quipper_circuit::{BCircuit, BoxId, Circuit, Control, Gate, GateName, Wire, WireType};

use crate::diag::Diagnostic;
use crate::domain::{AbsVal, BExpr};
use crate::facts::{FactScope, Facts, Redundancy};

/// Rotation families that are diagonal in the computational basis and hence
/// preserve basis states (up to phase).
const DIAGONAL_ROTS: &[&str] = &["exp(-i%Z)", "R(2pi/%)"];

/// Iteration cap for `repetitions` cycle detection before giving up and
/// degrading to ⊤.
const MAX_REP_STEPS: usize = 64;

/// How the walk treats gates: `Emit` is the real pass (diagnostics,
/// counters); `Blocked` silently simulates the body of a controlled call
/// whose controls are off.
#[derive(Copy, Clone, PartialEq)]
enum Mode {
    Emit { is_box: bool },
    Blocked,
}

/// Outcome of walking one circuit.
struct WalkOutcome {
    /// Abstract values of the circuit's outputs, in output order.
    outputs: Vec<AbsVal>,
    /// Whether the walk certifies the circuit *basis-clean*: every
    /// termination proved, no collapsing measurement or discard, every
    /// callee clean in the relevant mode.
    clean: bool,
}

/// Memoized per-box facts, keyed by `(BoxId, inverted)`.
struct BoxSummary {
    /// Display name for call-site diagnostics.
    name: String,
    /// Symbolic outputs over input variables `0..n`; `None` means unknown
    /// (recursion, irreversible body) — treat every output as ⊤.
    outputs: Option<Vec<AbsVal>>,
    /// Same, for the blocked (controls-off) execution of the body.
    blocked_outputs: Option<Vec<AbsVal>>,
    /// Basis-clean when the call fires.
    clean: bool,
    /// Basis-clean when the call's controls are off.
    clean_under_block: bool,
}

impl BoxSummary {
    fn unknown(name: String) -> BoxSummary {
        BoxSummary {
            name,
            outputs: None,
            blocked_outputs: None,
            clean: false,
            clean_under_block: false,
        }
    }
}

/// Result of resolving a gate's controls against the current state.
enum CtrlStatus {
    /// Every control is statically satisfied (or there are none).
    Fired,
    /// Some control is statically violated; the gate never fires.
    Blocked { witness: Wire },
    /// Controls are classical-valued but not all known; `fire` is the
    /// firing condition when expressible.
    Classical { fire: Option<BExpr> },
    /// At least one control wire may be in superposition.
    Quantum { wires: Vec<Wire> },
}

pub(crate) struct Analyzer<'a> {
    bc: &'a BCircuit,
    summaries: HashMap<(BoxId, bool), Rc<BoxSummary>>,
    in_flight: HashSet<(BoxId, bool)>,
    /// The QL031/QL032 facts, recorded beside their diagnostics.
    facts: &'a mut Facts,
    pub findings: Vec<Diagnostic>,
    pub proved_terms: usize,
    pub boxes_clean: usize,
    pub scopes: usize,
    pub gates_scanned: usize,
}

/// Runs the dataflow passes over `bc`, appending findings and counters to
/// `report` and the no-op-control facts to `facts`.
pub(crate) fn run(bc: &BCircuit, report: &mut crate::LintReport, facts: &mut Facts) {
    let mut a = Analyzer {
        bc,
        summaries: HashMap::new(),
        in_flight: HashSet::new(),
        facts,
        findings: Vec::new(),
        proved_terms: 0,
        boxes_clean: 0,
        scopes: 0,
        gates_scanned: 0,
    };
    let inputs: Vec<AbsVal> = (0..bc.main.inputs.len())
        .map(|i| AbsVal::Bool(BExpr::var(i as u32)))
        .collect();
    a.scopes += 1;
    a.walk(
        "main",
        &bc.main,
        inputs,
        Mode::Emit { is_box: false },
        Some(FactScope::Main),
    );
    // Lint every box body, even ones unreachable from main: a library of
    // subroutines deserves findings too.
    let ids: Vec<BoxId> = bc.db.iter().map(|(id, _)| id).collect();
    for id in ids {
        a.summary(id, false);
    }
    report.findings.append(&mut a.findings);
    report.proved_terms += a.proved_terms;
    report.boxes_clean += a.boxes_clean;
    report.scopes += a.scopes;
    report.gates_scanned += a.gates_scanned;
}

impl<'a> Analyzer<'a> {
    /// The memoized summary of box `id`, reversed if `inverted`.
    fn summary(&mut self, id: BoxId, inverted: bool) -> Rc<BoxSummary> {
        if let Some(s) = self.summaries.get(&(id, inverted)) {
            return Rc::clone(s);
        }
        let def = match self.bc.db.get(id) {
            Ok(def) => def,
            // Dangling reference: validate reports it (QL110); stay quiet.
            Err(_) => return Rc::new(BoxSummary::unknown(format!("#{}", id.0))),
        };
        if self.in_flight.contains(&(id, inverted)) {
            // Recursive subroutine graph: give up on precision, do not
            // memoize so an outer non-recursive use still gets a real
            // summary.
            return Rc::new(BoxSummary::unknown(def.name.clone()));
        }
        let (scope, body) = if inverted {
            match reverse_circuit(&def.circuit) {
                Ok(rev) => (
                    format!("reverse({})", def.name),
                    std::borrow::Cow::Owned(rev),
                ),
                // Irreversible body: the control-context pass flags the call
                // (QL021) and flattening fails at runtime.
                Err(_) => {
                    let s = Rc::new(BoxSummary::unknown(def.name.clone()));
                    self.summaries.insert((id, inverted), Rc::clone(&s));
                    return s;
                }
            }
        } else {
            (def.name.clone(), std::borrow::Cow::Borrowed(&def.circuit))
        };
        self.in_flight.insert((id, inverted));
        let symbolic: Vec<AbsVal> = (0..body.inputs.len())
            .map(|i| AbsVal::Bool(BExpr::var(i as u32)))
            .collect();
        self.scopes += 1;
        // Facts index into the body *as written*; a reversed body's indices
        // would mislead a rewriter, so inverted walks record none.
        let fact_scope = (!inverted).then_some(FactScope::Box(id));
        let normal = self.walk(
            &scope,
            &body,
            symbolic.clone(),
            Mode::Emit { is_box: true },
            fact_scope,
        );
        let blocked = self.walk(&scope, &body, symbolic, Mode::Blocked, None);
        self.in_flight.remove(&(id, inverted));
        if normal.clean {
            self.boxes_clean += 1;
        }
        let s = Rc::new(BoxSummary {
            name: def.name.clone(),
            outputs: Some(normal.outputs),
            blocked_outputs: Some(blocked.outputs),
            clean: normal.clean,
            clean_under_block: blocked.clean,
        });
        self.summaries.insert((id, inverted), Rc::clone(&s));
        s
    }

    /// Walks one circuit, threading abstract values through every gate.
    fn walk(
        &mut self,
        scope: &str,
        circuit: &Circuit,
        inputs: Vec<AbsVal>,
        mode: Mode,
        fact_scope: Option<FactScope>,
    ) -> WalkOutcome {
        let mut state: HashMap<Wire, AbsVal> =
            circuit.inputs.iter().map(|&(w, _)| w).zip(inputs).collect();
        let mut init_origin: HashSet<Wire> = HashSet::new();
        let mut clean = true;
        let emit = matches!(mode, Mode::Emit { .. });

        for (idx, gate) in circuit.gates.iter().enumerate() {
            if matches!(gate, Gate::Comment { .. }) {
                continue;
            }
            if emit {
                self.gates_scanned += 1;
            }
            let blocked_region = mode == Mode::Blocked;
            match gate {
                Gate::QGate {
                    name,
                    targets,
                    controls,
                    ..
                } => {
                    if blocked_region {
                        continue;
                    }
                    let status =
                        self.resolve_controls(scope, idx, gate, controls, &state, emit, fact_scope);
                    apply_unitary(&mut state, name, targets, &status);
                }
                Gate::QRot {
                    name,
                    targets,
                    controls,
                    ..
                } => {
                    if blocked_region {
                        continue;
                    }
                    let status =
                        self.resolve_controls(scope, idx, gate, controls, &state, emit, fact_scope);
                    if targets.len() == 1 && DIAGONAL_ROTS.contains(&name.as_ref()) {
                        apply_diagonal(&mut state, targets, &status);
                    } else if targets.len() == 1 {
                        apply_scramble(&mut state, targets, &status);
                    } else {
                        apply_opaque(&mut state, targets, &status);
                    }
                }
                Gate::GPhase { controls, .. } => {
                    if blocked_region {
                        continue;
                    }
                    let status =
                        self.resolve_controls(scope, idx, gate, controls, &state, emit, fact_scope);
                    apply_diagonal(&mut state, &[], &status);
                }
                Gate::QInit { value, wire } | Gate::CInit { value, wire } => {
                    state.insert(*wire, AbsVal::known(*value));
                    if matches!(gate, Gate::QInit { .. }) {
                        init_origin.insert(*wire);
                    }
                }
                Gate::QTerm { value, wire } | Gate::CTerm { value, wire } => {
                    let val = state.remove(wire).unwrap_or(AbsVal::Top);
                    init_origin.remove(wire);
                    clean &= self.check_term(scope, idx, gate, *wire, *value, &val, emit);
                }
                Gate::QMeas { wire } => {
                    let val = take(&mut state, *wire);
                    // Measuring a wire whose value is a fixed constant is
                    // deterministic and collapses nothing; anything else
                    // breaks the linearity argument for box cleanliness.
                    clean &= is_const_bool(&val);
                    let measured = match val {
                        AbsVal::Bool(e) => AbsVal::Bool(e),
                        _ => AbsVal::AnyBasis,
                    };
                    state.insert(*wire, measured);
                }
                Gate::QDiscard { wire } | Gate::CDiscard { wire } => {
                    let val = state.remove(wire).unwrap_or(AbsVal::Top);
                    clean &= is_const_bool(&val);
                    if emit && matches!(gate, Gate::QDiscard { .. }) && init_origin.remove(wire) {
                        self.findings.push(Diagnostic::new(
                            "QL011",
                            scope,
                            Some(idx),
                            gate.describe(),
                            Some(*wire),
                            format!(
                                "qubit initialized in this scope is discarded while {}; \
                                 an assertive termination (qterm) would document and check its state",
                                val.describe()
                            ),
                        ));
                    }
                }
                Gate::CGate {
                    name,
                    inverted,
                    target,
                    inputs,
                    ..
                } => {
                    let result = eval_cgate(name, *inverted, inputs, &state);
                    state.insert(*target, result);
                }
                Gate::Subroutine {
                    id,
                    inverted,
                    inputs,
                    outputs,
                    controls,
                    repetitions,
                } => {
                    let summary = self.summary(*id, *inverted);
                    let status = if blocked_region {
                        CtrlStatus::Blocked { witness: Wire(0) }
                    } else {
                        self.resolve_controls(scope, idx, gate, controls, &state, emit, fact_scope)
                    };
                    if emit && !matches!(status, CtrlStatus::Fired) && !summary.clean_under_block {
                        self.findings.push(Diagnostic::new(
                            "QL003",
                            scope,
                            Some(idx),
                            gate.describe(),
                            None,
                            format!(
                                "assertions inside '{}' are not justified when this call's \
                                 controls are off (control-neutral ancilla scoping still runs)",
                                summary.name
                            ),
                        ));
                    }
                    let args: Vec<AbsVal> = inputs
                        .iter()
                        .map(|w| state.remove(w).unwrap_or(AbsVal::Top))
                        .collect();
                    let (vals, entangles) =
                        call_outputs(&status, &summary, &args, *repetitions, outputs.len());
                    if entangles {
                        if let CtrlStatus::Quantum { wires } = &status {
                            for w in wires {
                                state.insert(*w, AbsVal::Top);
                            }
                        }
                    }
                    for (w, v) in outputs.iter().zip(vals) {
                        state.insert(*w, v);
                    }
                    clean &= match status {
                        CtrlStatus::Fired => summary.clean,
                        CtrlStatus::Blocked { .. } => summary.clean_under_block,
                        _ => summary.clean && summary.clean_under_block,
                    };
                }
                Gate::Comment { .. } => unreachable!("comments skipped above"),
            }
        }

        let outputs: Vec<AbsVal> = circuit
            .outputs
            .iter()
            .map(|&(w, _)| state.get(&w).cloned().unwrap_or(AbsVal::Top))
            .collect();
        if let Mode::Emit { is_box: true } = mode {
            for (&(w, ty), val) in circuit.outputs.iter().zip(&outputs) {
                if ty == WireType::Quantum && init_origin.contains(&w) && val.rank() >= 2 {
                    self.findings.push(Diagnostic::new(
                        "QL010",
                        scope,
                        None,
                        "output".into(),
                        Some(w),
                        format!(
                            "ancilla initialized inside this subroutine escapes through \
                             its outputs while {}; the caller cannot safely assert or \
                             discard it",
                            val.describe()
                        ),
                    ));
                }
            }
        }
        WalkOutcome { outputs, clean }
    }

    /// Resolves a gate's controls, emitting the no-op-control findings
    /// (QL031/QL032) and recording the matching [`Facts`] when a stable
    /// scope is available.
    #[allow(clippy::too_many_arguments)] // mirrors the walk's full context
    fn resolve_controls(
        &mut self,
        scope: &str,
        idx: usize,
        gate: &Gate,
        controls: &[Control],
        state: &HashMap<Wire, AbsVal>,
        emit: bool,
        fact_scope: Option<FactScope>,
    ) -> CtrlStatus {
        let mut fire: Option<BExpr> = Some(BExpr::constant(true));
        let mut quantum: Vec<Wire> = Vec::new();
        let mut const_true: Option<(Wire, bool)> = None;
        let mut symbolic = false;
        let mut status = None;
        for c in controls {
            match state.get(&c.wire) {
                Some(AbsVal::Bool(e)) => {
                    let cond = if c.positive { e.clone() } else { e.not() };
                    match cond.as_const() {
                        Some(true) => {
                            const_true.get_or_insert((c.wire, c.positive));
                        }
                        Some(false) => {
                            status = Some(CtrlStatus::Blocked { witness: c.wire });
                            break;
                        }
                        None => {
                            symbolic = true;
                            fire = fire.and_then(|f| f.and(&cond));
                        }
                    }
                }
                Some(AbsVal::AnyBasis) => {
                    symbolic = true;
                    fire = None;
                }
                _ => quantum.push(c.wire),
            }
        }
        let status = status.unwrap_or(if !quantum.is_empty() {
            CtrlStatus::Quantum { wires: quantum }
        } else if symbolic {
            CtrlStatus::Classical { fire }
        } else {
            CtrlStatus::Fired
        });
        if emit {
            match &status {
                CtrlStatus::Blocked { witness } => {
                    self.findings.push(Diagnostic::new(
                        "QL032",
                        scope,
                        Some(idx),
                        gate.describe(),
                        Some(*witness),
                        "this control is statically violated, so the gate never fires".into(),
                    ));
                    if let Some(fs) = fact_scope {
                        self.facts
                            .push(fs, idx, Redundancy::NeverFires { witness: *witness });
                    }
                }
                _ => {
                    if let Some((wire, positive)) = const_true {
                        self.findings.push(Diagnostic::new(
                            "QL031",
                            scope,
                            Some(idx),
                            gate.describe(),
                            Some(wire),
                            format!(
                                "this {} control is always satisfied and can be dropped",
                                if positive { "positive" } else { "negative" }
                            ),
                        ));
                        if let Some(fs) = fact_scope {
                            self.facts
                                .push(fs, idx, Redundancy::ConstControl { wire, positive });
                        }
                    }
                }
            }
        }
        status
    }

    /// Checks one assertive termination; returns whether it was proved.
    #[allow(clippy::too_many_arguments)] // one slot per provenance field of the diagnostic
    fn check_term(
        &mut self,
        scope: &str,
        idx: usize,
        gate: &Gate,
        wire: Wire,
        asserted: bool,
        val: &AbsVal,
        emit: bool,
    ) -> bool {
        match val {
            AbsVal::Bool(e) => match e.as_const() {
                Some(actual) if actual == asserted => {
                    if emit {
                        self.proved_terms += 1;
                    }
                    return true;
                }
                Some(actual) => {
                    if emit {
                        self.findings.push(Diagnostic::new(
                            "QL001",
                            scope,
                            Some(idx),
                            gate.describe(),
                            Some(wire),
                            format!(
                                "the wire is provably |{}⟩ on every run, but the assertion \
                                 claims |{}⟩ — this termination is unsound",
                                u8::from(actual),
                                u8::from(asserted)
                            ),
                        ));
                    }
                }
                None => {
                    if emit {
                        self.findings.push(Diagnostic::new(
                            "QL002",
                            scope,
                            Some(idx),
                            gate.describe(),
                            Some(wire),
                            format!(
                                "the wire's basis value depends on the circuit's inputs, so \
                                 the assertion |{}⟩ fails for some of them",
                                u8::from(asserted)
                            ),
                        ));
                    }
                }
            },
            other => {
                if emit {
                    self.findings.push(Diagnostic::new(
                        "QL002",
                        scope,
                        Some(idx),
                        gate.describe(),
                        Some(wire),
                        format!(
                            "the wire is {}; the assertion |{}⟩ cannot be statically justified",
                            other.describe(),
                            u8::from(asserted)
                        ),
                    ));
                }
            }
        }
        false
    }
}

/// Removes and returns the value of `w`, defaulting to ⊤ for wires the walk
/// has lost track of (the runtime validator reports those separately).
fn take(state: &mut HashMap<Wire, AbsVal>, w: Wire) -> AbsVal {
    state.remove(&w).unwrap_or(AbsVal::Top)
}

fn get(state: &HashMap<Wire, AbsVal>, w: Wire) -> AbsVal {
    state.get(&w).cloned().unwrap_or(AbsVal::Top)
}

fn is_const_bool(v: &AbsVal) -> bool {
    matches!(v, AbsVal::Bool(e) if e.as_const().is_some())
}

/// Transfer function for primitive unitaries.
fn apply_unitary(
    state: &mut HashMap<Wire, AbsVal>,
    name: &GateName,
    targets: &[Wire],
    status: &CtrlStatus,
) {
    if matches!(status, CtrlStatus::Blocked { .. }) {
        return;
    }
    match name {
        GateName::X | GateName::Y => apply_flip(state, targets, status),
        GateName::Z | GateName::S | GateName::T => apply_diagonal(state, targets, status),
        GateName::H | GateName::V => apply_scramble(state, targets, status),
        GateName::Swap => apply_swap(state, targets, status),
        GateName::W => apply_w(state, targets, status),
        GateName::Named(_) => {
            if targets.len() == 1 {
                apply_scramble(state, targets, status);
            } else {
                apply_opaque(state, targets, status);
            }
        }
    }
}

/// X/Y: flips the basis value of each target.
fn apply_flip(state: &mut HashMap<Wire, AbsVal>, targets: &[Wire], status: &CtrlStatus) {
    match status {
        CtrlStatus::Blocked { .. } => {}
        CtrlStatus::Fired => {
            for t in targets {
                if let AbsVal::Bool(e) = get(state, *t) {
                    state.insert(*t, AbsVal::Bool(e.not()));
                }
            }
        }
        CtrlStatus::Classical { fire } => {
            for t in targets {
                if let AbsVal::Bool(e) = get(state, *t) {
                    let flipped = fire.as_ref().and_then(|g| e.xor(g));
                    state.insert(*t, flipped.map_or(AbsVal::AnyBasis, AbsVal::Bool));
                }
                // AnyBasis/Stab/Top are preserved: a classically-conditioned
                // flip keeps each run's state in the same tier.
            }
        }
        CtrlStatus::Quantum { wires } => entangle(state, targets, wires),
    }
}

/// Z/S/T/GPhase and diagonal rotations: basis values are untouched; only
/// quantum controls can entangle, and a single quantum control with
/// basis-valued targets merely picks up a local phase (phase kickback).
fn apply_diagonal(state: &mut HashMap<Wire, AbsVal>, targets: &[Wire], status: &CtrlStatus) {
    if let CtrlStatus::Quantum { wires } = status {
        let targets_basis = targets.iter().all(|t| get(state, *t).is_classical_valued());
        if targets_basis && wires.len() <= 1 {
            // Kickback: the lone uncertain control stays a single-qubit pure
            // state (its tier is unchanged).
        } else if targets_basis {
            for w in wires {
                state.insert(*w, AbsVal::Top);
            }
        } else {
            entangle(state, targets, wires);
        }
    }
}

/// H/V/unknown single-qubit gates: any unentangled state stays an
/// unentangled single-qubit pure state, but basis tracking is lost.
fn apply_scramble(state: &mut HashMap<Wire, AbsVal>, targets: &[Wire], status: &CtrlStatus) {
    match status {
        CtrlStatus::Blocked { .. } => {}
        CtrlStatus::Fired | CtrlStatus::Classical { .. } => {
            for t in targets {
                let v = get(state, *t);
                state.insert(
                    *t,
                    if v.rank() <= 2 {
                        AbsVal::Stab
                    } else {
                        AbsVal::Top
                    },
                );
            }
        }
        CtrlStatus::Quantum { wires } => entangle(state, targets, wires),
    }
}

/// Swap: exchanges the two target values.
fn apply_swap(state: &mut HashMap<Wire, AbsVal>, targets: &[Wire], status: &CtrlStatus) {
    let [a, b] = targets else {
        apply_opaque(state, targets, status);
        return;
    };
    let (va, vb) = (get(state, *a), get(state, *b));
    match status {
        CtrlStatus::Blocked { .. } => {}
        CtrlStatus::Fired => {
            state.insert(*a, vb);
            state.insert(*b, va);
        }
        CtrlStatus::Classical { fire } => {
            if let (AbsVal::Bool(ea), AbsVal::Bool(eb), Some(g)) = (&va, &vb, fire) {
                // a' = a ⊕ g(a⊕b), b' = b ⊕ g(a⊕b): swap iff the condition.
                if let Some(delta) = ea.xor(eb).and_then(|d| d.and(g)) {
                    if let (Some(na), Some(nb)) = (ea.xor(&delta), eb.xor(&delta)) {
                        state.insert(*a, AbsVal::Bool(na));
                        state.insert(*b, AbsVal::Bool(nb));
                        return;
                    }
                }
            }
            let r = va.rank().max(vb.rank()).max(1);
            state.insert(*a, AbsVal::from_rank(r));
            state.insert(*b, AbsVal::from_rank(r));
        }
        CtrlStatus::Quantum { wires } => {
            if bools_equal(&va, &vb) {
                return; // swapping equal basis values is the identity
            }
            entangle(state, targets, wires);
        }
    }
}

/// W fixes |00⟩ and |11⟩ and sends |01⟩/|10⟩ to entangled superpositions.
fn apply_w(state: &mut HashMap<Wire, AbsVal>, targets: &[Wire], status: &CtrlStatus) {
    let [a, b] = targets else {
        apply_opaque(state, targets, status);
        return;
    };
    if matches!(status, CtrlStatus::Blocked { .. }) {
        return;
    }
    let (va, vb) = (get(state, *a), get(state, *b));
    if bools_equal(&va, &vb) {
        return;
    }
    match status {
        CtrlStatus::Quantum { wires } => entangle(state, targets, wires),
        _ => {
            state.insert(*a, AbsVal::Top);
            state.insert(*b, AbsVal::Top);
        }
    }
}

/// Unknown multi-qubit gates: everything they touch may entangle.
fn apply_opaque(state: &mut HashMap<Wire, AbsVal>, targets: &[Wire], status: &CtrlStatus) {
    match status {
        CtrlStatus::Blocked { .. } => {}
        CtrlStatus::Quantum { wires } => entangle(state, targets, wires),
        _ => {
            for t in targets {
                state.insert(*t, AbsVal::Top);
            }
        }
    }
}

fn entangle(state: &mut HashMap<Wire, AbsVal>, targets: &[Wire], controls: &[Wire]) {
    for w in targets.iter().chain(controls) {
        state.insert(*w, AbsVal::Top);
    }
}

fn bools_equal(a: &AbsVal, b: &AbsVal) -> bool {
    matches!((a, b), (AbsVal::Bool(ea), AbsVal::Bool(eb)) if ea == eb)
}

/// Evaluates a classical gate on the abstract values of its inputs.
fn eval_cgate(
    name: &str,
    inverted: bool,
    inputs: &[Wire],
    state: &HashMap<Wire, AbsVal>,
) -> AbsVal {
    let exprs: Option<Vec<BExpr>> = inputs
        .iter()
        .map(|w| match state.get(w) {
            Some(AbsVal::Bool(e)) => Some(e.clone()),
            _ => None,
        })
        .collect();
    let folded = exprs.and_then(|es| match name {
        "xor" => es
            .into_iter()
            .try_fold(BExpr::constant(false), |acc, e| acc.xor(&e)),
        "and" => es
            .into_iter()
            .try_fold(BExpr::constant(true), |acc, e| acc.and(&e)),
        "or" => es.into_iter().try_fold(BExpr::constant(false), |acc, e| {
            // a ∨ b = ¬(¬a ∧ ¬b)
            acc.not().and(&e.not()).map(|x| x.not())
        }),
        "not" => match es.as_slice() {
            [e] => Some(e.not()),
            _ => None,
        },
        _ => None,
    });
    match folded {
        Some(e) => AbsVal::Bool(if inverted { e.not() } else { e }),
        None => AbsVal::AnyBasis,
    }
}

/// Applies a symbolic summary to concrete argument values.
fn compose(sym: &AbsVal, args: &[AbsVal], any_quantum: bool) -> AbsVal {
    match sym {
        AbsVal::Bool(e) => {
            let substituted = e.subst(|v| match args.get(v as usize) {
                Some(AbsVal::Bool(a)) => Some(a),
                _ => None,
            });
            match substituted {
                Some(expr) => AbsVal::Bool(expr),
                None => {
                    // The output depends on arguments we cannot express. If
                    // any of those may be quantum, the output may be
                    // entangled with them; otherwise it is still some basis
                    // value.
                    let quantum_dep = e.vars().iter().any(|&v| {
                        !args
                            .get(v as usize)
                            .is_some_and(AbsVal::is_classical_valued)
                    });
                    if quantum_dep {
                        AbsVal::Top
                    } else {
                        AbsVal::AnyBasis
                    }
                }
            }
        }
        // Coarser summary tiers may depend on *any* input, so a quantum
        // argument anywhere degrades them to ⊤.
        AbsVal::AnyBasis if !any_quantum => AbsVal::AnyBasis,
        AbsVal::Stab if !any_quantum => AbsVal::Stab,
        AbsVal::Top | AbsVal::AnyBasis | AbsVal::Stab => AbsVal::Top,
    }
}

/// Iterates a summary `reps` times over `args`, with cycle detection so that
/// `box_repeat` counts in the trillions stay O(cycle length).
fn iterate(sym: &Option<Vec<AbsVal>>, args: &[AbsVal], reps: u64, out_len: usize) -> Vec<AbsVal> {
    let Some(sym) = sym else {
        return vec![AbsVal::Top; out_len];
    };
    let step = |vals: &[AbsVal]| -> Vec<AbsVal> {
        let any_quantum = vals.iter().any(|v| !v.is_classical_valued());
        sym.iter().map(|s| compose(s, vals, any_quantum)).collect()
    };
    if reps <= 1 {
        return step(args);
    }
    if sym.len() != args.len() || sym.len() != out_len {
        // Repetition requires matching shapes; validate reports NotRepeatable.
        return vec![AbsVal::Top; out_len];
    }
    let mut vals = args.to_vec();
    let mut history: Vec<Vec<AbsVal>> = vec![vals.clone()];
    let mut done: u64 = 0;
    while done < reps {
        vals = step(&vals);
        done += 1;
        if done == reps {
            break;
        }
        if let Some(k) = history.iter().position(|h| *h == vals) {
            let period = history.len() as u64 - k as u64;
            let mut remaining = (reps - done) % period;
            while remaining > 0 {
                vals = step(&vals);
                remaining -= 1;
            }
            return vals;
        }
        history.push(vals.clone());
        if history.len() > MAX_REP_STEPS {
            return vec![AbsVal::Top; out_len];
        }
    }
    vals
}

/// The output values of a call according to its control status, and
/// whether the call entangles its quantum controls with its outputs. A call
/// whose controls fire composes only the fired summary, a blocked one only
/// the blocked summary; otherwise both are composed and combined.
fn call_outputs(
    status: &CtrlStatus,
    summary: &BoxSummary,
    args: &[AbsVal],
    reps: u64,
    out_len: usize,
) -> (Vec<AbsVal>, bool) {
    let fired = || iterate(&summary.outputs, args, reps, out_len);
    let off = || iterate(&summary.blocked_outputs, args, reps, out_len);
    match status {
        CtrlStatus::Fired => (fired(), false),
        CtrlStatus::Blocked { .. } => (off(), false),
        CtrlStatus::Classical { fire } => {
            let vals = fired()
                .into_iter()
                .zip(off())
                .map(|(f, o)| mux_classical(fire.as_ref(), f, o))
                .collect();
            (vals, false)
        }
        CtrlStatus::Quantum { .. } => {
            let mut entangles = false;
            let vals: Vec<AbsVal> = fired()
                .into_iter()
                .zip(off())
                .map(|(f, o)| {
                    if bools_equal(&f, &o) {
                        f
                    } else {
                        entangles = true;
                        AbsVal::Top
                    }
                })
                .collect();
            (vals, entangles)
        }
    }
}

fn mux_classical(fire: Option<&BExpr>, f: AbsVal, o: AbsVal) -> AbsVal {
    if bools_equal(&f, &o) {
        return f;
    }
    if let (AbsVal::Bool(ef), AbsVal::Bool(eo), Some(g)) = (&f, &o, fire) {
        // o ⊕ g(f⊕o): the fired value when g holds, the blocked one otherwise.
        if let Some(muxed) = ef.xor(eo).and_then(|d| d.and(g)).and_then(|d| eo.xor(&d)) {
            return AbsVal::Bool(muxed);
        }
    }
    AbsVal::from_rank(f.rank().max(o.rank()).max(1))
}
