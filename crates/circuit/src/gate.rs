//! Gates of the extended circuit model.
//!
//! The gate vocabulary mirrors Quipper's internal representation: pure quantum
//! gates (with optional inversion and signed controls), rotations with a real
//! parameter, global phases, explicit qubit/bit initialization and assertive
//! termination, measurement, discard, classical gates, comments with wire
//! labels, and calls to boxed subcircuits.

use std::fmt;
use std::sync::Arc;

use crate::circuit::BoxId;
use crate::commute::same_control_set;
use crate::error::CircuitError;
use crate::wire::{Control, Wire};

/// The name of a primitive unitary gate.
///
/// Common gates get dedicated variants so they can be matched on cheaply;
/// everything else uses [`GateName::Named`], which carries a shared string.
/// The set matches the gates used throughout the paper: `not` (X), Hadamard,
/// Pauli Y/Z, the phase gates S and T, V = √X (used when decomposing Toffoli
/// gates into binary gates, paper §4.4.3), the two-qubit W gate from the
/// Binary Welded Tree algorithm (Figure 1), and swap.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum GateName {
    /// Pauli X, printed as `not`.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// The phase gate S = diag(1, i).
    S,
    /// The π/8 gate T = diag(1, e^{iπ/4}).
    T,
    /// V = √X, used in binary decompositions of the Toffoli gate.
    V,
    /// The two-qubit W gate of the Binary Welded Tree algorithm: it maps
    /// |01⟩ ↦ (|01⟩+|10⟩)/√2 and |10⟩ ↦ (|01⟩−|10⟩)/√2, fixing |00⟩ and |11⟩.
    W,
    /// Two-qubit swap.
    Swap,
    /// Any other named gate.
    Named(Arc<str>),
}

impl GateName {
    /// Creates a custom named gate.
    pub fn named(name: &str) -> Self {
        GateName::Named(Arc::from(name))
    }

    /// Whether the gate is its own inverse, so that the `inverted` flag is
    /// irrelevant for it.
    pub fn is_self_inverse(&self) -> bool {
        matches!(
            self,
            GateName::X | GateName::Y | GateName::Z | GateName::H | GateName::Swap
        )
    }

    /// The number of target wires the gate acts on, if fixed.
    pub fn fixed_arity(&self) -> Option<usize> {
        match self {
            GateName::X
            | GateName::Y
            | GateName::Z
            | GateName::H
            | GateName::S
            | GateName::T
            | GateName::V => Some(1),
            GateName::W | GateName::Swap => Some(2),
            GateName::Named(_) => None,
        }
    }
}

impl fmt::Display for GateName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateName::X => write!(f, "not"),
            GateName::Y => write!(f, "Y"),
            GateName::Z => write!(f, "Z"),
            GateName::H => write!(f, "H"),
            GateName::S => write!(f, "S"),
            GateName::T => write!(f, "T"),
            GateName::V => write!(f, "V"),
            GateName::W => write!(f, "W"),
            GateName::Swap => write!(f, "swap"),
            GateName::Named(s) => write!(f, "{s}"),
        }
    }
}

/// A single gate in the extended circuit model.
#[derive(Clone, PartialEq, Debug)]
pub enum Gate {
    /// A primitive unitary gate applied to `targets`, under signed `controls`.
    QGate {
        /// Which gate.
        name: GateName,
        /// Apply the inverse of the gate instead.
        inverted: bool,
        /// Target wires (quantum).
        targets: Vec<Wire>,
        /// Signed controls (quantum or classical wires).
        controls: Vec<Control>,
    },
    /// A rotation gate parameterized by a real angle, such as `exp(-i Z t)`
    /// from the Binary Welded Tree diffusion step (Figure 1).
    QRot {
        /// Rotation family name, e.g. `"exp(-i%Z)"` or `"R(2pi/%)"`.
        name: Arc<str>,
        /// Apply the inverse rotation.
        inverted: bool,
        /// The rotation parameter.
        angle: f64,
        /// Target wires.
        targets: Vec<Wire>,
        /// Signed controls.
        controls: Vec<Control>,
    },
    /// A global phase `e^{iπ·angle}`; with controls it becomes a relative
    /// phase.
    GPhase {
        /// Phase exponent in units of π.
        angle: f64,
        /// Signed controls.
        controls: Vec<Control>,
    },
    /// Allocate a fresh qubit in state |0⟩ or |1⟩ (written `0 |−` in the
    /// paper's notation).
    QInit {
        /// Initial state.
        value: bool,
        /// The freshly allocated wire.
        wire: Wire,
    },
    /// Allocate a fresh classical bit.
    CInit {
        /// Initial value.
        value: bool,
        /// The freshly allocated wire.
        wire: Wire,
    },
    /// Deallocate a qubit, *asserting* it is in the given computational basis
    /// state (paper §4.2.2, written `−| 0`). The programmer, not the
    /// compiler, is responsible for the assertion's correctness.
    QTerm {
        /// Asserted state.
        value: bool,
        /// The wire to deallocate.
        wire: Wire,
    },
    /// Deallocate a classical bit, asserting its value.
    CTerm {
        /// Asserted value.
        value: bool,
        /// The wire to deallocate.
        wire: Wire,
    },
    /// Measure a qubit in the computational basis. The wire survives but its
    /// type changes from quantum to classical.
    QMeas {
        /// The wire to measure.
        wire: Wire,
    },
    /// Drop a qubit without any assertion, resulting in a possibly mixed
    /// state. Unlike [`Gate::QTerm`] this is not reversible even in
    /// principle.
    QDiscard {
        /// The wire to discard.
        wire: Wire,
    },
    /// Drop a classical bit.
    CDiscard {
        /// The wire to discard.
        wire: Wire,
    },
    /// A classical gate computing a named boolean function of `inputs` into
    /// the freshly allocated classical wire `target`.
    CGate {
        /// Function name, e.g. `"xor"`, `"and"`.
        name: Arc<str>,
        /// Invert the output.
        inverted: bool,
        /// Freshly allocated output wire.
        target: Wire,
        /// Classical input wires (remain alive).
        inputs: Vec<Wire>,
    },
    /// A call to a boxed subcircuit (paper §4.4.4). The `inputs` are consumed
    /// and the `outputs` are brought alive; with `repetitions > 1` the body is
    /// iterated, which requires its input and output shapes to agree.
    Subroutine {
        /// Which subroutine in the [`CircuitDb`](crate::CircuitDb).
        id: BoxId,
        /// Run the reverse of the subroutine.
        inverted: bool,
        /// Wires consumed (must match the definition's input arity).
        inputs: Vec<Wire>,
        /// Wires produced (must match the definition's output arity).
        outputs: Vec<Wire>,
        /// Signed controls applied to the whole call.
        controls: Vec<Control>,
        /// Number of times to iterate the body.
        repetitions: u64,
    },
    /// A comment with optional wire labels, used to annotate large circuits
    /// (`comment_with_label` in the paper's §5.3.1).
    Comment {
        /// Comment text.
        text: String,
        /// Wire labels, e.g. `[(w, "x[0]"), …]`.
        labels: Vec<(Wire, String)>,
    },
}

impl Gate {
    /// A convenience constructor: an uncontrolled single-target gate.
    pub fn unary(name: GateName, target: Wire) -> Self {
        Gate::QGate {
            name,
            inverted: false,
            targets: vec![target],
            controls: Vec::new(),
        }
    }

    /// A controlled-not with one positive control.
    pub fn cnot(target: Wire, control: Wire) -> Self {
        Gate::QGate {
            name: GateName::X,
            inverted: false,
            targets: vec![target],
            controls: vec![Control::positive(control)],
        }
    }

    /// A Toffoli gate (doubly-controlled not) with positive controls.
    pub fn toffoli(target: Wire, c1: Wire, c2: Wire) -> Self {
        Gate::QGate {
            name: GateName::X,
            inverted: false,
            targets: vec![target],
            controls: vec![Control::positive(c1), Control::positive(c2)],
        }
    }

    /// A short human-readable description of the gate, for error messages.
    pub fn describe(&self) -> String {
        match self {
            Gate::QGate { name, .. } => format!("QGate[\"{name}\"]"),
            Gate::QRot { name, .. } => format!("QRot[\"{name}\"]"),
            Gate::GPhase { .. } => "GPhase".to_string(),
            Gate::QInit { value, .. } => format!("QInit{}", u8::from(*value)),
            Gate::CInit { value, .. } => format!("CInit{}", u8::from(*value)),
            Gate::QTerm { value, .. } => format!("QTerm{}", u8::from(*value)),
            Gate::CTerm { value, .. } => format!("CTerm{}", u8::from(*value)),
            Gate::QMeas { .. } => "QMeas".to_string(),
            Gate::QDiscard { .. } => "QDiscard".to_string(),
            Gate::CDiscard { .. } => "CDiscard".to_string(),
            Gate::CGate { name, .. } => format!("CGate[\"{name}\"]"),
            Gate::Subroutine { .. } => "Subroutine".to_string(),
            Gate::Comment { .. } => "Comment".to_string(),
        }
    }

    /// The controls of the gate, if it carries any.
    pub fn controls(&self) -> &[Control] {
        match self {
            Gate::QGate { controls, .. }
            | Gate::QRot { controls, .. }
            | Gate::GPhase { controls, .. }
            | Gate::Subroutine { controls, .. } => controls,
            _ => &[],
        }
    }

    /// Whether adding controls to this gate is meaningful.
    ///
    /// Initialization, termination and comments are *control-neutral*: they
    /// are allowed to appear inside a controlled block and simply remain
    /// uncontrolled (this is how Quipper scopes ancillas inside
    /// `with_controls` blocks). Measurement and discard are neither
    /// controllable nor control-neutral.
    pub fn controllable(&self) -> Controllability {
        match self {
            Gate::QGate { .. }
            | Gate::QRot { .. }
            | Gate::GPhase { .. }
            | Gate::Subroutine { .. }
            | Gate::CGate { .. } => Controllability::Controllable,
            Gate::QInit { .. }
            | Gate::CInit { .. }
            | Gate::QTerm { .. }
            | Gate::CTerm { .. }
            | Gate::Comment { .. } => Controllability::ControlNeutral,
            Gate::QMeas { .. } | Gate::QDiscard { .. } | Gate::CDiscard { .. } => {
                Controllability::NotControllable
            }
        }
    }

    /// Returns a copy of this gate with the given controls appended.
    ///
    /// Control-neutral gates are returned unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotControllable`] for gates that cannot appear
    /// under controls at all (measurement, discard).
    pub fn with_controls(&self, extra: &[Control]) -> Result<Gate, CircuitError> {
        if extra.is_empty() {
            return Ok(self.clone());
        }
        match self.controllable() {
            Controllability::ControlNeutral => Ok(self.clone()),
            Controllability::NotControllable => Err(CircuitError::NotControllable {
                gate: self.describe(),
            }),
            Controllability::Controllable => {
                let mut g = self.clone();
                match &mut g {
                    Gate::QGate { controls, .. }
                    | Gate::QRot { controls, .. }
                    | Gate::GPhase { controls, .. }
                    | Gate::Subroutine { controls, .. } => {
                        controls.extend_from_slice(extra);
                    }
                    Gate::CGate { .. } => {
                        // A controlled classical gate: model by renaming.
                        // CGate semantics are "target := f(inputs)"; under a
                        // control the target must instead be xor-ed. We keep
                        // the simple model: classical gates under quantum
                        // controls are not supported.
                        return Err(CircuitError::NotControllable { gate: g.describe() });
                    }
                    _ => unreachable!("controllable gates carry controls"),
                }
                Ok(g)
            }
        }
    }

    /// Returns the inverse gate.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotReversible`] for measurements, discards and
    /// classical gates.
    pub fn inverse(&self) -> Result<Gate, CircuitError> {
        match self {
            Gate::QGate {
                name,
                inverted,
                targets,
                controls,
            } => Ok(Gate::QGate {
                name: name.clone(),
                inverted: !inverted && !name.is_self_inverse(),
                targets: targets.clone(),
                controls: controls.clone(),
            }),
            Gate::QRot {
                name,
                inverted,
                angle,
                targets,
                controls,
            } => Ok(Gate::QRot {
                name: name.clone(),
                inverted: !inverted,
                angle: *angle,
                targets: targets.clone(),
                controls: controls.clone(),
            }),
            Gate::GPhase { angle, controls } => Ok(Gate::GPhase {
                angle: -angle,
                controls: controls.clone(),
            }),
            Gate::QInit { value, wire } => Ok(Gate::QTerm {
                value: *value,
                wire: *wire,
            }),
            Gate::QTerm { value, wire } => Ok(Gate::QInit {
                value: *value,
                wire: *wire,
            }),
            Gate::CInit { value, wire } => Ok(Gate::CTerm {
                value: *value,
                wire: *wire,
            }),
            Gate::CTerm { value, wire } => Ok(Gate::CInit {
                value: *value,
                wire: *wire,
            }),
            Gate::Subroutine {
                id,
                inverted,
                inputs,
                outputs,
                controls,
                repetitions,
            } => Ok(Gate::Subroutine {
                id: *id,
                inverted: !inverted,
                inputs: outputs.clone(),
                outputs: inputs.clone(),
                controls: controls.clone(),
                repetitions: *repetitions,
            }),
            Gate::Comment { .. } => Ok(self.clone()),
            Gate::QMeas { .. }
            | Gate::QDiscard { .. }
            | Gate::CDiscard { .. }
            | Gate::CGate { .. } => Err(CircuitError::NotReversible {
                gate: self.describe(),
            }),
        }
    }

    /// Whether this gate undoes `prev`: it equals
    /// [`prev.inverse()`](Gate::inverse) up to the order of the controls
    /// and the inversion flag of self-inverse gates (`X⁻¹` *is* `X`). Gates
    /// without an inverse undo nothing. Which gates may cancel at all
    /// (unitaries, calls, not init/term pairs) is the caller's filter.
    pub fn undoes(&self, prev: &Gate) -> bool {
        // The kinds the look-back scans compare are decided in place, with
        // no clone: the inverse of each is the same kind, with the inversion
        // flag toggled (QGate, QRot) or the angle negated (GPhase).
        match (prev, self) {
            (
                Gate::QGate {
                    name: n0,
                    inverted: i0,
                    targets: t0,
                    controls: c0,
                },
                Gate::QGate {
                    name: n1,
                    inverted: i1,
                    targets: t1,
                    controls: c1,
                },
            ) => {
                n0 == n1
                    && (n0.is_self_inverse() || i0 != i1)
                    && t0 == t1
                    && same_control_set(c0, c1)
            }
            (
                Gate::QRot {
                    name: n0,
                    inverted: i0,
                    angle: a0,
                    targets: t0,
                    controls: c0,
                },
                Gate::QRot {
                    name: n1,
                    inverted: i1,
                    angle: a1,
                    targets: t1,
                    controls: c1,
                },
            ) => n0 == n1 && i0 != i1 && a0 == a1 && t0 == t1 && same_control_set(c0, c1),
            (
                Gate::GPhase {
                    angle: a0,
                    controls: c0,
                },
                Gate::GPhase {
                    angle: a1,
                    controls: c1,
                },
            ) => -a0 == *a1 && same_control_set(c0, c1),
            // No other kind's inverse is one of these three.
            (Gate::QGate { .. } | Gate::QRot { .. } | Gate::GPhase { .. }, _)
            | (_, Gate::QGate { .. } | Gate::QRot { .. } | Gate::GPhase { .. }) => false,
            // A call's inverse calls the same definition.
            (Gate::Subroutine { id: id0, .. }, Gate::Subroutine { id: id1, .. }) if id0 != id1 => {
                false
            }
            _ => prev
                .inverse()
                .is_ok_and(|inv| inv.canonical() == self.canonical()),
        }
    }

    /// The form [`Gate::undoes`] compares for the kinds it does not decide
    /// in place: a call's controls sorted.
    fn canonical(&self) -> Gate {
        let mut g = self.clone();
        if let Gate::Subroutine { controls, .. } = &mut g {
            controls.sort_unstable();
        }
        g
    }

    /// Calls `f` on every wire the gate touches (targets, controls,
    /// initialized and terminated wires, labels).
    pub fn for_each_wire(&self, f: &mut impl FnMut(Wire)) {
        match self {
            Gate::QGate {
                targets, controls, ..
            }
            | Gate::QRot {
                targets, controls, ..
            } => {
                targets.iter().copied().for_each(&mut *f);
                controls.iter().for_each(|c| f(c.wire));
            }
            Gate::GPhase { controls, .. } => controls.iter().for_each(|c| f(c.wire)),
            Gate::QInit { wire, .. }
            | Gate::CInit { wire, .. }
            | Gate::QTerm { wire, .. }
            | Gate::CTerm { wire, .. }
            | Gate::QMeas { wire }
            | Gate::QDiscard { wire }
            | Gate::CDiscard { wire } => f(*wire),
            Gate::CGate { target, inputs, .. } => {
                f(*target);
                inputs.iter().copied().for_each(&mut *f);
            }
            Gate::Subroutine {
                inputs,
                outputs,
                controls,
                ..
            } => {
                inputs.iter().copied().for_each(&mut *f);
                outputs.iter().copied().for_each(&mut *f);
                controls.iter().for_each(|c| f(c.wire));
            }
            Gate::Comment { labels, .. } => labels.iter().for_each(|(w, _)| f(*w)),
        }
    }

    /// Returns a copy of this gate with every wire replaced by `f(wire)`.
    pub fn map_wires(&self, f: &mut impl FnMut(Wire) -> Wire) -> Gate {
        let map_controls = |f: &mut dyn FnMut(Wire) -> Wire, cs: &[Control]| -> Vec<Control> {
            cs.iter()
                .map(|c| Control {
                    wire: f(c.wire),
                    positive: c.positive,
                })
                .collect()
        };
        match self {
            Gate::QGate {
                name,
                inverted,
                targets,
                controls,
            } => Gate::QGate {
                name: name.clone(),
                inverted: *inverted,
                targets: targets.iter().map(|&w| f(w)).collect(),
                controls: map_controls(f, controls),
            },
            Gate::QRot {
                name,
                inverted,
                angle,
                targets,
                controls,
            } => Gate::QRot {
                name: name.clone(),
                inverted: *inverted,
                angle: *angle,
                targets: targets.iter().map(|&w| f(w)).collect(),
                controls: map_controls(f, controls),
            },
            Gate::GPhase { angle, controls } => Gate::GPhase {
                angle: *angle,
                controls: map_controls(f, controls),
            },
            Gate::QInit { value, wire } => Gate::QInit {
                value: *value,
                wire: f(*wire),
            },
            Gate::CInit { value, wire } => Gate::CInit {
                value: *value,
                wire: f(*wire),
            },
            Gate::QTerm { value, wire } => Gate::QTerm {
                value: *value,
                wire: f(*wire),
            },
            Gate::CTerm { value, wire } => Gate::CTerm {
                value: *value,
                wire: f(*wire),
            },
            Gate::QMeas { wire } => Gate::QMeas { wire: f(*wire) },
            Gate::QDiscard { wire } => Gate::QDiscard { wire: f(*wire) },
            Gate::CDiscard { wire } => Gate::CDiscard { wire: f(*wire) },
            Gate::CGate {
                name,
                inverted,
                target,
                inputs,
            } => Gate::CGate {
                name: name.clone(),
                inverted: *inverted,
                target: f(*target),
                inputs: inputs.iter().map(|&w| f(w)).collect(),
            },
            Gate::Subroutine {
                id,
                inverted,
                inputs,
                outputs,
                controls,
                repetitions,
            } => Gate::Subroutine {
                id: *id,
                inverted: *inverted,
                inputs: inputs.iter().map(|&w| f(w)).collect(),
                outputs: outputs.iter().map(|&w| f(w)).collect(),
                controls: map_controls(f, controls),
                repetitions: *repetitions,
            },
            Gate::Comment { text, labels } => Gate::Comment {
                text: text.clone(),
                labels: labels.iter().map(|(w, l)| (f(*w), l.clone())).collect(),
            },
        }
    }
}

/// How a gate behaves under controls; see [`Gate::controllable`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Controllability {
    /// Controls can be attached to the gate.
    Controllable,
    /// The gate ignores controls (ancilla initialization/termination,
    /// comments).
    ControlNeutral,
    /// The gate must not appear under controls.
    NotControllable,
}

/// The structural kind of a gate, used as part of the gate-counting key.
///
/// See [`GateClass`](crate::count::GateClass).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum ClassKind {
    /// A primitive unitary (possibly inverted).
    Unitary { name: GateName, inverted: bool },
    /// A rotation family (possibly inverted). Counts do not distinguish
    /// angles within a family.
    Rot { name: Arc<str>, inverted: bool },
    /// A global phase.
    GPhase,
    /// Initialization of a wire to a constant.
    Init { value: bool, classical: bool },
    /// Assertive termination of a wire.
    Term { value: bool, classical: bool },
    /// A measurement.
    Meas,
    /// A discard.
    Discard { classical: bool },
    /// A classical gate.
    Classical { name: Arc<str>, inverted: bool },
}

impl ClassKind {
    /// The kind obtained by inverting a gate of this kind.
    ///
    /// Measurements and discards have no inverse, but for counting purposes
    /// we leave them unchanged (a reversed circuit containing them will be
    /// rejected before counting matters).
    pub fn inverse(&self) -> ClassKind {
        match self {
            ClassKind::Unitary { name, inverted } => ClassKind::Unitary {
                name: name.clone(),
                inverted: !inverted && !name.is_self_inverse(),
            },
            ClassKind::Rot { name, inverted } => ClassKind::Rot {
                name: name.clone(),
                inverted: !inverted,
            },
            ClassKind::GPhase => ClassKind::GPhase,
            ClassKind::Init { value, classical } => ClassKind::Term {
                value: *value,
                classical: *classical,
            },
            ClassKind::Term { value, classical } => ClassKind::Init {
                value: *value,
                classical: *classical,
            },
            ClassKind::Meas => ClassKind::Meas,
            ClassKind::Discard { classical } => ClassKind::Discard {
                classical: *classical,
            },
            ClassKind::Classical { name, inverted } => ClassKind::Classical {
                name: name.clone(),
                inverted: !inverted,
            },
        }
    }
}

impl fmt::Display for ClassKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassKind::Unitary { name, inverted } => {
                // Capitalize "not" to "Not" the way the paper's gate counts do.
                let base = match name {
                    GateName::X => "Not".to_string(),
                    other => other.to_string(),
                };
                write!(f, "\"{}{}\"", base, if *inverted { "*" } else { "" })
            }
            ClassKind::Rot { name, inverted } => {
                write!(f, "\"{}{}\"", name, if *inverted { "*" } else { "" })
            }
            ClassKind::GPhase => write!(f, "\"GPhase\""),
            ClassKind::Init { value, classical } => {
                write!(
                    f,
                    "\"{}Init{}\"",
                    if *classical { "C" } else { "" },
                    u8::from(*value)
                )
            }
            ClassKind::Term { value, classical } => {
                write!(
                    f,
                    "\"{}Term{}\"",
                    if *classical { "C" } else { "" },
                    u8::from(*value)
                )
            }
            ClassKind::Meas => write!(f, "\"Meas\""),
            ClassKind::Discard { classical } => {
                write!(f, "\"{}Discard\"", if *classical { "C" } else { "" })
            }
            ClassKind::Classical { name, inverted } => {
                write!(f, "\"C:{}{}\"", name, if *inverted { "*" } else { "" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_of_cnot_is_cnot() {
        let g = Gate::cnot(Wire(0), Wire(1));
        assert_eq!(g.inverse().unwrap(), g);
    }

    #[test]
    fn inverse_swaps_init_and_term() {
        let g = Gate::QInit {
            value: true,
            wire: Wire(5),
        };
        assert_eq!(
            g.inverse().unwrap(),
            Gate::QTerm {
                value: true,
                wire: Wire(5)
            }
        );
    }

    #[test]
    fn inverse_flips_rotation() {
        let g = Gate::QRot {
            name: Arc::from("exp(-i%Z)"),
            inverted: false,
            angle: 0.5,
            targets: vec![Wire(0)],
            controls: vec![],
        };
        match g.inverse().unwrap() {
            Gate::QRot { inverted, .. } => assert!(inverted),
            other => panic!("unexpected inverse: {other:?}"),
        }
    }

    #[test]
    fn measurement_is_not_reversible() {
        let g = Gate::QMeas { wire: Wire(0) };
        assert!(matches!(
            g.inverse(),
            Err(CircuitError::NotReversible { .. })
        ));
    }

    #[test]
    fn init_is_control_neutral() {
        let g = Gate::QInit {
            value: false,
            wire: Wire(0),
        };
        let controlled = g.with_controls(&[Control::positive(Wire(1))]).unwrap();
        assert_eq!(controlled, g);
    }

    #[test]
    fn measurement_rejects_controls() {
        let g = Gate::QMeas { wire: Wire(0) };
        assert!(g.with_controls(&[Control::positive(Wire(1))]).is_err());
    }

    #[test]
    fn with_controls_appends() {
        let g = Gate::unary(GateName::H, Wire(0));
        let g2 = g.with_controls(&[Control::negative(Wire(2))]).unwrap();
        assert_eq!(g2.controls(), &[Control::negative(Wire(2))]);
    }

    #[test]
    fn map_wires_renames_everything() {
        let g = Gate::toffoli(Wire(0), Wire(1), Wire(2));
        let mapped = g.map_wires(&mut |w| Wire(w.0 + 10));
        assert_eq!(mapped, Gate::toffoli(Wire(10), Wire(11), Wire(12)));
    }

    #[test]
    fn self_inverse_names() {
        assert!(GateName::X.is_self_inverse());
        assert!(GateName::H.is_self_inverse());
        assert!(!GateName::T.is_self_inverse());
        assert!(!GateName::W.is_self_inverse());
    }

    #[test]
    fn undoes_ignores_control_order_and_self_inverse_flags() {
        let x = Gate::toffoli(Wire(0), Wire(1), Wire(2));
        let flagged_swapped = Gate::QGate {
            name: GateName::X,
            inverted: true,
            targets: vec![Wire(0)],
            controls: vec![Control::positive(Wire(2)), Control::positive(Wire(1))],
        };
        assert!(flagged_swapped.undoes(&x));
        assert!(x.undoes(&flagged_swapped));
        // T is not self-inverse: only T† undoes it.
        let t = Gate::unary(GateName::T, Wire(0));
        assert!(!t.undoes(&t));
        assert!(t.inverse().unwrap().undoes(&t));
        // A measurement has no inverse, so nothing undoes it.
        let m = Gate::QMeas { wire: Wire(0) };
        assert!(!m.undoes(&m));
    }

    #[test]
    fn class_kind_display_matches_paper_style() {
        let k = ClassKind::Unitary {
            name: GateName::X,
            inverted: false,
        };
        assert_eq!(k.to_string(), "\"Not\"");
        let init = ClassKind::Init {
            value: false,
            classical: false,
        };
        assert_eq!(init.to_string(), "\"Init0\"");
        let term = ClassKind::Term {
            value: false,
            classical: false,
        };
        assert_eq!(term.to_string(), "\"Term0\"");
    }

    #[test]
    fn class_kind_inverse_roundtrip() {
        let k = ClassKind::Init {
            value: true,
            classical: false,
        };
        assert_eq!(k.inverse().inverse(), k);
        let u = ClassKind::Unitary {
            name: GateName::T,
            inverted: false,
        };
        assert_eq!(u.inverse().inverse(), u);
    }
}
