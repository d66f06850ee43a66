//! Semantic analysis and lowering into the hierarchical IR, one statement
//! at a time: the parser calls the [`Lowerer`] as it finishes each
//! statement, so no syntax tree is built. Lowering keeps its diagnostics
//! apart and appends them after the parse's, and only when the parse
//! recorded no error ([`Lowerer::finish`]).
//!
//! Conventions (chosen to make `export ∘ parse` a byte fixpoint on the
//! exporter's own output — see DESIGN.md "QASM ingestion"):
//!
//! * A declared qubit becomes an IR wire lazily. First touched by a gate
//!   or measurement, it is a circuit *input*; first touched by `reset`,
//!   it is an ancilla (`QInit false`). `reset` on a live qubit discards
//!   the old wire and initializes a fresh one — exactly the exporter's
//!   slot-pool behaviour read backwards.
//! * Measurement follows the exporter's per-wire one-bit creg convention:
//!   the measured wire becomes the destination bit's value, and `if`
//!   conditions resolve to classical controls on that wire. Bits that
//!   were never written are the constant 0 (creg semantics), so
//!   conditions on them are folded: a statement whose condition can
//!   never hold is dropped.
//! * User `gate` definitions lower lazily at first call, memoized per
//!   (name, folded-parameter shape) as boxed subroutines, preserving
//!   hierarchy; nested calls stay nested.
//! * All angle expressions are constant-folded to `f64` (QASM has no
//!   runtime parameters in this subset); non-finite results are `QP110`.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use quipper_circuit::qelib::{self, QelibDef, QelibKind};
use quipper_circuit::{
    BCircuit, BoxId, Circuit, CircuitDb, Control, Gate, GateName, SubDef, Wire, WireType,
};

use crate::ast::{Arg, BinOp, Condition, Expr, ExprKind, GateCall};
use crate::diag::{Code, Diagnostics, Span};

/// Total qubits a program may declare (across all registers).
pub const MAX_QUBITS: u64 = 4096;
/// Total classical bits a program may declare.
pub const MAX_BITS: u64 = 4096;
/// Maximum depth of nested user-gate lowering (also catches recursion).
pub const MAX_GATE_DEPTH: usize = 32;

#[derive(Clone, Copy, PartialEq, Debug)]
enum SlotState {
    /// Declared, never touched: becomes an input on first gate use, an
    /// ancilla on first reset.
    Fresh,
    /// Holds a live quantum wire.
    Live(Wire),
    /// Was measured; the wire lives on as the creg bit's classical value.
    Measured,
}

#[derive(Clone, Copy)]
enum Reg {
    Q { start: usize, size: usize },
    C { start: usize, size: usize },
}

struct UserGate<'a> {
    params: Vec<&'a str>,
    qubits: Vec<&'a str>,
    body: Vec<GateCall<'a>>,
}

/// What a gate name resolves to.
enum Spec<'a> {
    /// A shared-table mnemonic (requires `include "qelib1.inc"`).
    Qelib(&'static QelibDef),
    /// The OpenQASM builtin `U(θ,φ,λ)`.
    U,
    /// The OpenQASM builtin `CX`.
    Cx,
    /// The QASM-3 builtin `gphase(γ)`.
    GPhase,
    /// A user-defined gate.
    User(Rc<UserGate<'a>>),
}

impl Spec<'_> {
    fn params(&self) -> usize {
        match self {
            Spec::Qelib(def) => def.params,
            Spec::U => 3,
            Spec::Cx => 0,
            Spec::GPhase => 1,
            Spec::User(def) => def.params.len(),
        }
    }

    fn qubits(&self) -> usize {
        match self {
            Spec::Qelib(def) => def.controls + def.targets,
            Spec::U => 1,
            Spec::Cx => 2,
            Spec::GPhase => 0,
            Spec::User(def) => def.qubits.len(),
        }
    }
}

/// Scope for gate applications inside a `gate` body: formal `i` of the
/// qubits is wire `i`, and the parameters are folded values.
struct BodyEnv<'g, 'a> {
    def: &'g UserGate<'a>,
    params: &'g [f64],
}

impl BodyEnv<'_, '_> {
    fn param(&self, name: &str) -> Option<f64> {
        let i = self.def.params.iter().position(|p| *p == name)?;
        Some(self.params[i])
    }

    fn wire(&self, name: &str) -> Option<Wire> {
        let i = self.def.qubits.iter().position(|q| *q == name)?;
        Some(Wire(i as u32))
    }
}

/// A broadcast selector over the flat slot (or bit) space.
#[derive(Clone, Copy)]
enum Sel {
    One(usize),
    Many { start: usize, size: usize },
}

impl Sel {
    fn len(&self) -> usize {
        match self {
            Sel::One(_) => 1,
            Sel::Many { size, .. } => *size,
        }
    }

    fn at(&self, k: usize) -> usize {
        match self {
            Sel::One(s) => *s,
            Sel::Many { start, size } => start + if *size == 1 { 0 } else { k },
        }
    }
}

/// The lowering state of one program, fed one statement at a time.
#[derive(Default)]
pub struct Lowerer<'a> {
    /// Lowering's own diagnostics, in statement order.
    diags: Diagnostics,
    db: CircuitDb,
    gates: Vec<Gate>,
    next_wire: u32,
    slots: Vec<SlotState>,
    cbits: Vec<Option<Wire>>,
    regs: HashMap<&'a str, Reg>,
    /// (slot, wire) pairs discovered to be circuit inputs.
    inputs: Vec<(usize, Wire)>,
    user_gates: HashMap<&'a str, Rc<UserGate<'a>>>,
    opaques: HashSet<&'a str>,
    /// Whether `qelib1.inc` (or `stdgates.inc`) was included.
    qelib: bool,
    /// Memoized boxes per (gate name, folded parameter shape).
    boxes: HashMap<(&'a str, String), BoxId>,
    /// Names currently being lowered (recursion guard).
    lower_stack: Vec<&'a str>,
}

impl<'a> Lowerer<'a> {
    fn fresh(&mut self) -> Wire {
        let w = Wire(self.next_wire);
        self.next_wire += 1;
        w
    }

    /// The live wire for a slot; a fresh slot becomes a circuit input.
    fn touch(&mut self, slot: usize, span: Span) -> Result<Wire, ()> {
        match self.slots[slot] {
            SlotState::Live(w) => Ok(w),
            SlotState::Fresh => {
                let w = self.fresh();
                self.slots[slot] = SlotState::Live(w);
                self.inputs.push((slot, w));
                Ok(w)
            }
            SlotState::Measured => {
                self.diags.error(
                    Code::QP108,
                    span,
                    "qubit used after measurement (reset it first)",
                );
                Err(())
            }
        }
    }

    /// `include "path";`: only the standard gate library can be included.
    pub fn include(&mut self, path: &str, span: Span) -> Result<(), ()> {
        if path == "qelib1.inc" || path == "stdgates.inc" {
            self.qelib = true;
            return Ok(());
        }
        self.diags.error(
            Code::QP113,
            span,
            format!("unsupported include {path:?} (only \"qelib1.inc\" / \"stdgates.inc\")"),
        );
        Err(())
    }

    /// `gate name(params) qubits { body }`: the body lowers at first use.
    pub fn define_gate(
        &mut self,
        name: &'a str,
        params: Vec<&'a str>,
        qubits: Vec<&'a str>,
        body: Vec<GateCall<'a>>,
        span: Span,
    ) -> Result<(), ()> {
        self.claim(name, span)?;
        let mut formals: Vec<&str> = params.iter().chain(qubits.iter()).copied().collect();
        formals.sort_unstable();
        if formals.windows(2).any(|w| w[0] == w[1]) {
            self.diags.error(
                Code::QP105,
                span,
                format!("duplicate formal name in gate `{name}`"),
            );
            return Err(());
        }
        let def = UserGate {
            params,
            qubits,
            body,
        };
        self.user_gates.insert(name, Rc::new(def));
        Ok(())
    }

    /// `opaque name(params) qubits;`: declared, never lowerable.
    pub fn opaque(&mut self, name: &'a str, span: Span) -> Result<(), ()> {
        self.claim(name, span)?;
        self.opaques.insert(name);
        Ok(())
    }

    /// `barrier args;`: validated, then dropped. Barriers order
    /// statements, and the gate list is already ordered.
    pub fn barrier(&mut self, args: &[Arg]) -> Result<(), ()> {
        for arg in args {
            self.resolve_sel(arg, true)
                .or_else(|_| self.resolve_sel(arg, false))?;
        }
        Ok(())
    }

    /// `reset arg;`
    pub fn reset(&mut self, arg: &Arg) -> Result<(), ()> {
        let sel = self.resolve_sel(arg, true)?;
        for k in 0..sel.len() {
            let slot = sel.at(k);
            if let SlotState::Live(old) = self.slots[slot] {
                self.gates.push(Gate::QDiscard { wire: old });
            }
            let w = self.fresh();
            self.gates.push(Gate::QInit {
                value: false,
                wire: w,
            });
            self.slots[slot] = SlotState::Live(w);
        }
        Ok(())
    }

    /// `measure src -> dst;` (or `dst = measure src;`).
    pub fn measure(&mut self, src: &Arg, dst: &Arg, span: Span) -> Result<(), ()> {
        let qsel = self.resolve_sel(src, true)?;
        let csel = self.resolve_sel(dst, false)?;
        if qsel.len() != csel.len() {
            self.diags.error(
                Code::QP107,
                span,
                format!(
                    "measure size mismatch: {} qubit(s) into {} bit(s)",
                    qsel.len(),
                    csel.len()
                ),
            );
            return Err(());
        }
        for k in 0..qsel.len() {
            let slot = qsel.at(k);
            let bit = csel.at(k);
            let w = self.touch(slot, src.span)?;
            self.gates.push(Gate::QMeas { wire: w });
            self.slots[slot] = SlotState::Measured;
            if let Some(old) = self.cbits[bit] {
                // Overwritten result: the old classical wire's
                // scope ends here.
                self.gates.push(Gate::CDiscard { wire: old });
            }
            self.cbits[bit] = Some(w);
        }
        Ok(())
    }

    /// The classical controls of the statement under `if (cond)` at `span`,
    /// `depth` ifs deep, inside the enclosing `conds`. `None` when the
    /// statement is dropped (its condition can never hold) or in error.
    /// `misplaced` is the span of a conditioned statement that is neither
    /// a gate call nor an `if`.
    pub fn condition(
        &mut self,
        conds: &[Control],
        cond: Condition,
        span: Span,
        depth: usize,
        misplaced: Option<Span>,
    ) -> Option<Vec<Control>> {
        if depth > MAX_GATE_DEPTH {
            self.diags
                .error(Code::QP006, span, "if statements nested too deeply");
            return None;
        }
        // Structural: only gate applications can be conditioned (the IR
        // has no conditioned measure/reset/declaration), even when the
        // condition would fold away.
        if let Some(body) = misplaced {
            self.diags.error(
                Code::QP112,
                body,
                "only gate applications can be classically conditioned",
            );
            return None;
        }
        let Condition {
            creg,
            creg_span,
            value,
        } = cond;
        let Some(&Reg::C { start, size }) = self.regs.get(creg) else {
            self.diags.error(
                Code::QP101,
                creg_span,
                format!("unknown classical register `{creg}`"),
            );
            return None;
        };
        if size < 64 && value >= (1u64 << size) {
            self.diags.warning(
                Code::QP111,
                span,
                format!(
                    "condition value {value} can never match a {size}-bit register; statement dropped"
                ),
            );
            return None;
        }
        let mut merged = conds.to_vec();
        for j in 0..size {
            let want = (value >> j) & 1 == 1;
            match self.cbits[start + j] {
                Some(w) => {
                    if let Some(prev) = merged.iter().find(|c| c.wire == w) {
                        if prev.positive != want {
                            // Contradictory conditions: can never fire;
                            // drop the statement.
                            return None;
                        }
                    } else {
                        merged.push(Control {
                            wire: w,
                            positive: want,
                        });
                    }
                }
                // An unwritten creg bit is the constant 0.
                None if want => return None,
                None => {}
            }
        }
        Some(merged)
    }

    /// Whether lowering has stopped recording diagnostics at the cap.
    pub fn is_truncated(&self) -> bool {
        self.diags.is_truncated()
    }

    /// `qreg`/`creg` (or `qubit`/`bit`) `name[size];`.
    pub fn declare(
        &mut self,
        name: &'a str,
        size: u64,
        quantum: bool,
        span: Span,
    ) -> Result<(), ()> {
        self.claim(name, span)?;
        let (used, cap, what) = if quantum {
            (self.slots.len() as u64, MAX_QUBITS, "qubits")
        } else {
            (self.cbits.len() as u64, MAX_BITS, "bits")
        };
        if size == 0 || used + size > cap {
            self.diags.error(
                Code::QP115,
                span,
                format!("register `{name}` exceeds ingestion limits (1..={cap} total {what})"),
            );
            return Err(());
        }
        let size = size as usize;
        if quantum {
            let start = self.slots.len();
            self.slots.resize(start + size, SlotState::Fresh);
            self.regs.insert(name, Reg::Q { start, size });
        } else {
            let start = self.cbits.len();
            self.cbits.resize(start + size, None);
            self.regs.insert(name, Reg::C { start, size });
        }
        Ok(())
    }

    /// Records `QP105` if `name` already names a register or a gate.
    fn claim(&mut self, name: &str, span: Span) -> Result<(), ()> {
        let taken = self.regs.contains_key(name)
            || self.user_gates.contains_key(name)
            || self.opaques.contains(name)
            || matches!(name, "U" | "CX" | "gphase")
            || qelib::find(name).is_some();
        if taken {
            self.diags.error(
                Code::QP105,
                span,
                format!("duplicate declaration of `{name}`"),
            );
            return Err(());
        }
        Ok(())
    }

    /// Resolves a register reference to a slot/bit selector.
    fn resolve_sel(&mut self, arg: &Arg, quantum: bool) -> Result<Sel, ()> {
        let reg = match self.regs.get(arg.name) {
            Some(r) => *r,
            None => {
                self.diags.error(
                    Code::QP101,
                    arg.span,
                    format!("unknown register `{}`", arg.name),
                );
                return Err(());
            }
        };
        let (start, size) = match (reg, quantum) {
            (Reg::Q { start, size }, true) | (Reg::C { start, size }, false) => (start, size),
            (Reg::Q { .. }, false) => {
                self.diags.error(
                    Code::QP101,
                    arg.span,
                    format!("`{}` is a quantum register; expected classical", arg.name),
                );
                return Err(());
            }
            (Reg::C { .. }, true) => {
                self.diags.error(
                    Code::QP101,
                    arg.span,
                    format!("`{}` is a classical register; expected quantum", arg.name),
                );
                return Err(());
            }
        };
        match arg.index {
            Some(i) if (i as usize) < size => Ok(Sel::One(start + i as usize)),
            Some(i) => {
                self.diags.error(
                    Code::QP102,
                    arg.span,
                    format!("index {i} out of range for `{}[{size}]`", arg.name),
                );
                Err(())
            }
            None => Ok(Sel::Many { start, size }),
        }
    }

    fn resolve_spec(&mut self, name: &str, span: Span) -> Result<Spec<'a>, ()> {
        if let Some(def) = self.user_gates.get(name) {
            return Ok(Spec::User(Rc::clone(def)));
        }
        match name {
            "U" => return Ok(Spec::U),
            "CX" => return Ok(Spec::Cx),
            "gphase" => return Ok(Spec::GPhase),
            _ => {}
        }
        if let Some(def) = qelib::find(name) {
            if self.qelib {
                return Ok(Spec::Qelib(def));
            }
            self.diags.error(
                Code::QP103,
                span,
                format!("unknown gate `{name}` (missing `include \"qelib1.inc\";`?)"),
            );
            return Err(());
        }
        if self.opaques.contains(name) {
            self.diags.error(
                Code::QP109,
                span,
                format!("opaque gate `{name}` has no circuit body and cannot be lowered"),
            );
            return Err(());
        }
        self.diags
            .error(Code::QP103, span, format!("unknown gate `{name}`"));
        Err(())
    }

    /// A gate call in the main scope, under the classical controls `conds`.
    pub fn call(&mut self, call: &GateCall<'a>, conds: &[Control]) -> Result<(), ()> {
        self.apply_gate(call, conds, None, 0)
    }

    /// Applies one gate call under the classical controls `conds`: in the
    /// main scope (`env` is `None`) arguments are register references with
    /// broadcasting; inside a gate body they are formals bound to wires.
    fn apply_gate(
        &mut self,
        call: &GateCall<'a>,
        conds: &[Control],
        env: Option<&BodyEnv>,
        depth: usize,
    ) -> Result<(), ()> {
        let spec = self.resolve_spec(call.name, call.name_span)?;
        let want_params = spec.params();
        let arity = spec.qubits();
        if call.params.len() != want_params {
            self.diags.error(
                Code::QP104,
                call.name_span,
                format!(
                    "`{}` expects {want_params} parameter(s), got {}",
                    call.name,
                    call.params.len()
                ),
            );
            return Err(());
        }
        if call.args.len() != arity {
            self.diags.error(
                Code::QP104,
                call.name_span,
                format!(
                    "`{}` expects {arity} qubit argument(s), got {}",
                    call.name,
                    call.args.len()
                ),
            );
            return Err(());
        }
        let mut params = Vec::with_capacity(call.params.len());
        for e in &call.params {
            params.push(self.eval(e, env)?);
        }

        if let Some(env) = env {
            // Gate-body scope: formals only, no indexing, no broadcast.
            let mut wires = Vec::with_capacity(call.args.len());
            for arg in &call.args {
                if arg.index.is_some() {
                    self.diags.error(
                        Code::QP114,
                        arg.span,
                        "gate-body arguments cannot be indexed",
                    );
                    return Err(());
                }
                match env.wire(arg.name) {
                    Some(w) => wires.push(w),
                    None => {
                        self.diags.error(
                            Code::QP101,
                            arg.span,
                            format!("unknown qubit `{}` in gate body", arg.name),
                        );
                        return Err(());
                    }
                }
            }
            if has_dup(&wires) {
                self.diags.error(
                    Code::QP106,
                    call.name_span,
                    format!("`{}` uses the same qubit twice", call.name),
                );
                return Err(());
            }
            return self.emit_spec(&spec, call, &wires, &params, conds, depth);
        }

        // Main scope: resolve + broadcast.
        let mut sels = Vec::with_capacity(call.args.len());
        for arg in &call.args {
            sels.push(self.resolve_sel(arg, true)?);
        }
        let mut len = 1usize;
        for sel in &sels {
            let n = sel.len();
            if n != 1 {
                if len != 1 && n != len {
                    self.diags.error(
                        Code::QP107,
                        call.name_span,
                        format!(
                            "broadcast size mismatch in `{}`: registers of {len} and {n} qubits",
                            call.name
                        ),
                    );
                    return Err(());
                }
                len = n;
            }
        }
        for k in 0..len {
            let slots: Vec<usize> = sels.iter().map(|s| s.at(k)).collect();
            if has_dup(&slots) {
                self.diags.error(
                    Code::QP106,
                    call.name_span,
                    format!("`{}` uses the same qubit twice", call.name),
                );
                return Err(());
            }
            let mut wires = Vec::with_capacity(slots.len());
            for (slot, arg) in slots.iter().zip(&call.args) {
                wires.push(self.touch(*slot, arg.span)?);
            }
            self.emit_spec(&spec, call, &wires, &params, conds, depth)?;
        }
        Ok(())
    }

    /// Emits the IR for one resolved gate instance. `wires` are in OpenQASM
    /// argument order (controls first for the controlled mnemonics).
    fn emit_spec(
        &mut self,
        spec: &Spec<'a>,
        call: &GateCall<'a>,
        wires: &[Wire],
        params: &[f64],
        conds: &[Control],
        depth: usize,
    ) -> Result<(), ()> {
        let controls_of = |nc: usize| -> Vec<Control> {
            wires[..nc]
                .iter()
                .map(|&w| Control::positive(w))
                .chain(conds.iter().copied())
                .collect()
        };
        match spec {
            Spec::Cx => {
                self.gates.push(Gate::QGate {
                    name: GateName::X,
                    inverted: false,
                    targets: vec![wires[1]],
                    controls: controls_of(1),
                });
                Ok(())
            }
            Spec::U => {
                self.emit_u3(params[0], params[1], params[2], wires[0], &controls_of(0));
                Ok(())
            }
            Spec::GPhase => {
                self.gates.push(Gate::GPhase {
                    angle: params[0] / std::f64::consts::PI,
                    controls: conds.to_vec(),
                });
                Ok(())
            }
            Spec::Qelib(def) => {
                let nc = def.controls;
                let targets: Vec<Wire> = wires[nc..].to_vec();
                match &def.kind {
                    QelibKind::Unitary { name, inverted } => {
                        self.gates.push(Gate::QGate {
                            name: name.clone(),
                            inverted: *inverted,
                            targets,
                            controls: controls_of(nc),
                        });
                    }
                    QelibKind::Rot { family, scale } => {
                        self.push_rot(family, params[0] * scale, targets[0], controls_of(nc));
                    }
                    QelibKind::RxFamily => {
                        let theta = params[0];
                        let controls = controls_of(nc);
                        // rx(±π/2) with no quantum control is the IR's V
                        // (equal up to an unobservable global phase; a
                        // classical condition keeps that phase global).
                        if nc == 0 && (theta == qelib::RX_V_ANGLE || theta == -qelib::RX_V_ANGLE) {
                            self.gates.push(Gate::QGate {
                                name: GateName::V,
                                inverted: theta < 0.0,
                                targets,
                                controls,
                            });
                        } else {
                            // rx(θ) = H·rz(θ)·H exactly; controlling all
                            // three factors gives the controlled gate.
                            self.push_h(targets[0], controls.clone());
                            self.push_rot(
                                qelib::FAMILY_RZ,
                                theta * 0.5,
                                targets[0],
                                controls.clone(),
                            );
                            self.push_h(targets[0], controls);
                        }
                    }
                    QelibKind::U2Family => {
                        self.emit_u3(
                            std::f64::consts::FRAC_PI_2,
                            params[0],
                            params[1],
                            targets[0],
                            &controls_of(nc),
                        );
                    }
                    QelibKind::U3Family => {
                        self.emit_u3(
                            params[0],
                            params[1],
                            params[2],
                            targets[0],
                            &controls_of(nc),
                        );
                    }
                    QelibKind::Identity => {}
                }
                Ok(())
            }
            Spec::User(def) => {
                let id = self.user_box(call.name, def, params, call.name_span, depth)?;
                self.gates.push(Gate::Subroutine {
                    id,
                    inverted: false,
                    inputs: wires.to_vec(),
                    outputs: wires.to_vec(),
                    controls: conds.to_vec(),
                    repetitions: 1,
                });
                Ok(())
            }
        }
    }

    fn push_h(&mut self, target: Wire, controls: Vec<Control>) {
        self.gates.push(Gate::QGate {
            name: GateName::H,
            inverted: false,
            targets: vec![target],
            controls,
        });
    }

    fn push_rot(&mut self, family: &str, angle: f64, target: Wire, controls: Vec<Control>) {
        self.gates.push(Gate::QRot {
            name: std::sync::Arc::from(family),
            inverted: false,
            angle,
            targets: vec![target],
            controls,
        });
    }

    /// `U(θ,φ,λ) = R(φ) · Ry(θ) · R(λ)` exactly (matrix order), so the
    /// circuit applies λ first. Controlling every factor yields the
    /// controlled gate, so `cu3` shares this path.
    fn emit_u3(&mut self, theta: f64, phi: f64, lambda: f64, target: Wire, controls: &[Control]) {
        if lambda != 0.0 {
            self.push_rot(qelib::FAMILY_R, lambda, target, controls.to_vec());
        }
        if theta != 0.0 {
            self.push_rot(qelib::FAMILY_RY, theta, target, controls.to_vec());
        }
        if phi != 0.0 {
            self.push_rot(qelib::FAMILY_R, phi, target, controls.to_vec());
        }
    }

    /// The memoized box for a user gate at a folded parameter shape,
    /// lowering the body on first use.
    fn user_box(
        &mut self,
        name: &'a str,
        def: &UserGate<'a>,
        params: &[f64],
        span: Span,
        depth: usize,
    ) -> Result<BoxId, ()> {
        let shape = params
            .iter()
            .map(|p| qelib::format_angle(*p))
            .collect::<Vec<_>>()
            .join(",");
        let key = (name, shape);
        if let Some(&id) = self.boxes.get(&key) {
            return Ok(id);
        }
        if depth >= MAX_GATE_DEPTH || self.lower_stack.contains(&name) {
            self.diags.error(
                Code::QP006,
                span,
                format!("gate definitions nested too deeply lowering `{name}` (recursive?)"),
            );
            return Err(());
        }
        let env = BodyEnv { def, params };
        self.lower_stack.push(name);
        let saved_gates = std::mem::take(&mut self.gates);
        let saved_next = std::mem::replace(&mut self.next_wire, def.qubits.len() as u32);
        let mut ok = true;
        for call in &def.body {
            ok &= self.apply_gate(call, &[], Some(&env), depth + 1).is_ok();
        }
        let body_gates = std::mem::replace(&mut self.gates, saved_gates);
        self.next_wire = saved_next;
        self.lower_stack.pop();
        if !ok {
            return Err(());
        }
        let io: Vec<(Wire, WireType)> = (0..def.qubits.len())
            .map(|i| (Wire(i as u32), WireType::Quantum))
            .collect();
        let mut circuit = Circuit::with_inputs(io.clone());
        circuit.gates = body_gates;
        circuit.outputs = io;
        circuit.recompute_wire_bound();
        let id = self.db.insert(SubDef {
            name: name.to_string(),
            shape: key.1.clone(),
            circuit,
        });
        self.boxes.insert(key, id);
        Ok(id)
    }

    /// Folds an angle expression; non-finite results are `QP110`.
    fn eval(&mut self, e: &Expr, env: Option<&BodyEnv>) -> Result<f64, ()> {
        let v = self.eval_inner(e, env)?;
        if v.is_finite() {
            Ok(v)
        } else {
            self.diags.error(
                Code::QP110,
                e.span,
                "angle expression does not fold to a finite number",
            );
            Err(())
        }
    }

    fn eval_inner(&mut self, e: &Expr, env: Option<&BodyEnv>) -> Result<f64, ()> {
        Ok(match &e.kind {
            ExprKind::Num(x) => *x,
            ExprKind::Pi => std::f64::consts::PI,
            ExprKind::Ident(name) => match env.and_then(|env| env.param(name)) {
                Some(v) => v,
                None => {
                    self.diags.error(
                        Code::QP101,
                        e.span,
                        format!("unknown identifier `{name}` in expression"),
                    );
                    return Err(());
                }
            },
            ExprKind::Neg(inner) => -self.eval_inner(inner, env)?,
            ExprKind::Bin(op, a, b) => {
                let a = self.eval_inner(a, env)?;
                let b = self.eval_inner(b, env)?;
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Pow => a.powf(b),
                }
            }
            ExprKind::Call(f, inner) => {
                let x = self.eval_inner(inner, env)?;
                match *f {
                    "sin" => x.sin(),
                    "cos" => x.cos(),
                    "tan" => x.tan(),
                    "exp" => x.exp(),
                    "ln" => x.ln(),
                    _ => x.sqrt(),
                }
            }
        })
    }

    /// Appends lowering's diagnostics to the parse's `diags`, unless the
    /// parse recorded an error, and assembles the circuit when no error was
    /// recorded: inputs in slot order, outputs every live wire (quantum
    /// slots + written creg bits) in wire order.
    pub fn finish(mut self, diags: &mut Diagnostics) -> Option<BCircuit> {
        if diags.has_errors() {
            return None;
        }
        for d in self.diags.iter() {
            diags.push(d.code, d.severity, d.span, d.message.as_str());
        }
        if diags.has_errors() {
            return None;
        }
        self.inputs.sort_by_key(|&(slot, _)| slot);
        let inputs: Vec<(Wire, WireType)> = self
            .inputs
            .iter()
            .map(|&(_, w)| (w, WireType::Quantum))
            .collect();
        let mut outputs: Vec<(Wire, WireType)> = Vec::new();
        for s in &self.slots {
            if let SlotState::Live(w) = s {
                outputs.push((*w, WireType::Quantum));
            }
        }
        for b in self.cbits.iter().flatten() {
            outputs.push((*b, WireType::Classical));
        }
        outputs.sort_by_key(|&(w, _)| w.0);
        let mut main = Circuit::with_inputs(inputs);
        main.gates = self.gates;
        main.outputs = outputs;
        main.wire_bound = self.next_wire;
        Some(BCircuit::new(self.db, main))
    }
}

fn has_dup<T: Ord + Copy>(xs: &[T]) -> bool {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).any(|w| w[0] == w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn lower_src(src: &str) -> (Option<BCircuit>, Diagnostics) {
        crate::compile_full(src)
    }

    fn codes(ds: &Diagnostics) -> Vec<&'static str> {
        ds.iter().map(|d| d.code.as_str()).collect()
    }

    const PRELUDE: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    #[test]
    fn bell_pair_lowers_with_inputs_in_slot_order() {
        let (bc, ds) = lower_src(&format!(
            "{PRELUDE}qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
        ));
        assert!(ds.is_empty(), "{ds}");
        let bc = bc.unwrap();
        assert_eq!(bc.main.inputs.len(), 2);
        assert_eq!(bc.main.gates.len(), 4);
        assert!(bc
            .main
            .outputs
            .iter()
            .all(|&(_, t)| t == WireType::Classical));
    }

    #[test]
    fn reset_makes_an_ancilla_not_an_input() {
        let (bc, ds) = lower_src(&format!("{PRELUDE}qreg q[1];\nreset q[0];\nh q[0];\n"));
        assert!(ds.is_empty(), "{ds}");
        let bc = bc.unwrap();
        assert!(bc.main.inputs.is_empty());
        assert!(matches!(bc.main.gates[0], Gate::QInit { value: false, .. }));
    }

    #[test]
    fn unknown_gate_without_include_hints_at_qelib() {
        let (bc, ds) = lower_src("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n");
        assert!(bc.is_none());
        let d = ds.iter().find(|d| d.code == Code::QP103).unwrap();
        assert!(d.message.contains("qelib1.inc"), "{}", d.message);
    }

    #[test]
    fn builtin_u_and_cx_need_no_include() {
        let (bc, ds) = lower_src(
            "OPENQASM 2.0;\nqreg q[2];\nU(pi/2,0,pi) q[0];\nCX q[0],q[1];\ngphase(pi/4);\n",
        );
        assert!(ds.is_empty(), "{ds}");
        let bc = bc.unwrap();
        // U(θ,φ,λ) with φ=0 folds to two rotations; CX is one gate; the
        // conditioned-nothing gphase is one more.
        assert_eq!(bc.main.gates.len(), 4);
    }

    #[test]
    fn broadcast_applies_per_qubit() {
        let (bc, ds) = lower_src(&format!("{PRELUDE}qreg q[3];\nh q;\n"));
        assert!(ds.is_empty(), "{ds}");
        assert_eq!(bc.unwrap().main.gates.len(), 3);
    }

    #[test]
    fn broadcast_size_mismatch_is_qp107() {
        let (_, ds) = lower_src(&format!("{PRELUDE}qreg a[2];\nqreg b[3];\ncx a,b;\n"));
        assert!(codes(&ds).contains(&"QP107"), "{ds}");
    }

    #[test]
    fn cloning_is_qp106() {
        let (_, ds) = lower_src(&format!("{PRELUDE}qreg q[2];\ncx q[0],q[0];\n"));
        assert_eq!(codes(&ds), vec!["QP106"]);
    }

    #[test]
    fn out_of_range_index_is_qp102() {
        let (_, ds) = lower_src(&format!("{PRELUDE}qreg q[2];\nh q[5];\n"));
        assert_eq!(codes(&ds), vec!["QP102"]);
    }

    #[test]
    fn use_after_measure_is_qp108_but_reset_recovers() {
        let (_, ds) = lower_src(&format!(
            "{PRELUDE}qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\nh q[0];\n"
        ));
        assert_eq!(codes(&ds), vec!["QP108"]);
        let (bc, ds) = lower_src(&format!(
            "{PRELUDE}qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\nreset q[0];\nh q[0];\n"
        ));
        assert!(ds.is_empty(), "{ds}");
        assert!(bc.is_some());
    }

    #[test]
    fn user_gates_become_boxed_subroutines() {
        let (bc, ds) = lower_src(&format!(
            "{PRELUDE}gate majority a,b,c {{ cx c,b; cx c,a; ccx a,b,c; }}\nqreg q[3];\nmajority q[0],q[1],q[2];\nmajority q[0],q[1],q[2];\n"
        ));
        assert!(ds.is_empty(), "{ds}");
        let bc = bc.unwrap();
        // Two calls, one shared definition.
        assert_eq!(bc.main.gates.len(), 2);
        assert!(matches!(bc.main.gates[0], Gate::Subroutine { .. }));
        assert_eq!(bc.db.len(), 1);
    }

    #[test]
    fn parameterized_user_gates_memoize_per_shape() {
        let (bc, ds) = lower_src(&format!(
            "{PRELUDE}gate r2(t) a {{ rz(t) a; rz(t/2) a; }}\nqreg q[1];\nr2(pi) q[0];\nr2(pi) q[0];\nr2(pi/2) q[0];\n"
        ));
        assert!(ds.is_empty(), "{ds}");
        let bc = bc.unwrap();
        assert_eq!(bc.main.gates.len(), 3);
        // Two distinct parameter shapes → two boxes.
        assert_eq!(bc.db.len(), 2);
    }

    #[test]
    fn recursive_gate_definitions_are_rejected() {
        let (bc, ds) = lower_src(&format!(
            "{PRELUDE}gate loop a {{ loop a; }}\nqreg q[1];\nloop q[0];\n"
        ));
        assert!(bc.is_none());
        assert!(codes(&ds).contains(&"QP006"), "{ds}");
    }

    #[test]
    fn opaque_calls_are_qp109() {
        let (_, ds) = lower_src(&format!(
            "{PRELUDE}opaque magic a;\nqreg q[1];\nmagic q[0];\n"
        ));
        assert_eq!(codes(&ds), vec!["QP109"]);
    }

    #[test]
    fn if_conditions_become_classical_controls() {
        let (bc, ds) = lower_src(&format!(
            "{PRELUDE}qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nif(c==1) x q[1];\n"
        ));
        assert!(ds.is_empty(), "{ds}");
        let bc = bc.unwrap();
        let Gate::QGate { controls, .. } = &bc.main.gates[1] else {
            panic!("expected conditioned x");
        };
        assert_eq!(controls.len(), 1);
        assert!(controls[0].positive);
    }

    #[test]
    fn unsatisfiable_if_is_dropped() {
        // c was never written, so c==1 can never hold.
        let (bc, ds) = lower_src(&format!(
            "{PRELUDE}qreg q[1];\ncreg c[1];\nif(c==1) x q[0];\nif(c==0) z q[0];\n"
        ));
        assert!(ds.is_empty(), "{ds}");
        // The x is dropped; the z is unconditioned (bit is constant 0).
        let bc = bc.unwrap();
        assert_eq!(bc.main.gates.len(), 1);
        assert!(matches!(
            &bc.main.gates[0],
            Gate::QGate { name: GateName::Z, controls, .. } if controls.is_empty()
        ));
    }

    #[test]
    fn oversized_if_value_warns_qp111_and_drops() {
        let (bc, ds) = lower_src(&format!(
            "{PRELUDE}qreg q[1];\ncreg c[1];\nif(c==2) x q[0];\n"
        ));
        assert_eq!(codes(&ds), vec!["QP111"]);
        assert_eq!(ds.count(Severity::Warning), 1);
        assert_eq!(bc.unwrap().main.gates.len(), 0);
    }

    #[test]
    fn conditioned_measure_is_qp112() {
        let (_, ds) = lower_src(&format!(
            "{PRELUDE}qreg q[1];\ncreg c[1];\nif(c==0) measure q[0] -> c[0];\n"
        ));
        assert_eq!(codes(&ds), vec!["QP112"]);
    }

    #[test]
    fn division_by_zero_angle_is_qp110() {
        let (_, ds) = lower_src(&format!("{PRELUDE}qreg q[1];\nrz(1/0) q[0];\n"));
        assert_eq!(codes(&ds), vec!["QP110"]);
    }

    #[test]
    fn register_caps_are_qp115() {
        let (_, ds) = lower_src(&format!("{PRELUDE}qreg q[99999];\n"));
        assert_eq!(codes(&ds), vec!["QP115"]);
        let (_, ds) = lower_src(&format!("{PRELUDE}qreg q[0];\n"));
        assert_eq!(codes(&ds), vec!["QP115"]);
    }

    #[test]
    fn duplicate_and_shadowing_declarations_are_qp105() {
        let (_, ds) = lower_src(&format!("{PRELUDE}qreg q[1];\ncreg q[1];\n"));
        assert_eq!(codes(&ds), vec!["QP105"]);
        let (_, ds) = lower_src(&format!("{PRELUDE}gate h a {{ }}\n"));
        assert_eq!(codes(&ds), vec!["QP105"]);
    }

    #[test]
    fn rx_at_half_pi_is_v() {
        let (bc, ds) = lower_src(&format!(
            "{PRELUDE}qreg q[1];\nrx(1.5707963267948966) q[0];\nrx(-1.5707963267948966) q[0];\nrx(0.3) q[0];\n"
        ));
        assert!(ds.is_empty(), "{ds}");
        let gates = &bc.unwrap().main.gates;
        assert!(matches!(
            &gates[0],
            Gate::QGate {
                name: GateName::V,
                inverted: false,
                ..
            }
        ));
        assert!(matches!(
            &gates[1],
            Gate::QGate {
                name: GateName::V,
                inverted: true,
                ..
            }
        ));
        // The generic angle takes the exact H·Rz·H path.
        assert_eq!(gates.len(), 2 + 3);
    }

    #[test]
    fn measure_broadcast_requires_equal_sizes() {
        let (_, ds) = lower_src(&format!(
            "{PRELUDE}qreg q[2];\ncreg c[3];\nmeasure q -> c;\n"
        ));
        assert_eq!(codes(&ds), vec!["QP107"]);
    }

    #[test]
    fn qasm3_measure_assign_lowers() {
        let (bc, ds) = lower_src(
            "OPENQASM 3;\nqubit[1] q;\nbit[1] c;\nU(0,0,0) q[0];\nc[0] = measure q[0];\n",
        );
        assert!(ds.is_empty(), "{ds}");
        assert!(bc
            .unwrap()
            .main
            .gates
            .iter()
            .any(|g| matches!(g, Gate::QMeas { .. })));
    }
}
