//! Static analysis over the hierarchical circuit IR.
//!
//! Quipper's extended circuit model trusts the programmer in two places the
//! runtime never checks: *assertive termination* (`qterm` claims a wire is in
//! a known basis state, paper §4.2.2) and ancilla scoping (fresh wires are
//! supposed to be returned to |0⟩ before leaving their region). This crate
//! is the safety net: a multi-pass analyzer that walks the boxed circuit IR
//! once per subroutine body and either *proves* those claims or flags them,
//! without ever flattening the circuit.
//!
//! # Passes
//!
//! * **Assertive termination** ([`analyze`](crate::lint)): abstract
//!   interpretation over a per-wire basis-state domain — symbolic boolean
//!   expressions for basis values, a stabilizer-like tier for unentangled
//!   superpositions, ⊤ for possible entanglement — propagated through gates
//!   and boxed calls via memoized summaries. Proves Bennett-style
//!   compute/use/uncompute oracles clean and reports terminations it cannot
//!   justify (`QL001`, `QL002`, `QL003`).
//! * **Ancilla discipline**: scoped ancillas escaping a subroutine in a
//!   non-basis state (`QL010`), and initialized qubits dropped without an
//!   assertion (`QL011`).
//! * **Control context**: controlled or reversed calls that transitively
//!   reach a measurement, discard or classical gate and would fail at
//!   flatten time (`QL020`, `QL021`).
//! * **Redundancy**: adjacent gate/adjoint pairs the fuse pass would
//!   silently cancel (`QL030`) and no-op controls (`QL031`, `QL032`).
//! * **Pauli flow**: deterministic measurements, Clifford-conjugated
//!   pairs, phase-only boxes and identity phase terms (`QL040`–`QL043`).
//!
//! # Entry points
//!
//! Three products, no options, each doing only the work its reader needs.
//! [`lint`] runs every pass and returns every finding, for people and the
//! CLI. [`facts`] runs the analyzer, the adjacent pairs and the conjugated
//! pairs, and returns the redundancy findings as structured [`Facts`] for
//! rewriters. [`errors`] runs the analyzer (QL001) and the control-context
//! pass (QL020, QL021) and returns only their error-severity findings, for
//! a gate that refuses circuits.
//!
//! Runtime circuit errors carry aligned `QL1xx` codes (see
//! [`CircuitError::code`](quipper_circuit::CircuitError::code)), so static
//! and dynamic findings print uniformly.
//!
//! # Example
//!
//! ```
//! use quipper_circuit::{Circuit, Gate, Wire, WireType, BCircuit, CircuitDb};
//! use quipper_lint::{lint, Severity};
//!
//! // An ancilla is created, entangled with the input, and then *asserted*
//! // to be |0⟩ — unjustifiably.
//! let mut c = Circuit::with_inputs(vec![(Wire(0), WireType::Quantum)]);
//! c.gates.push(Gate::QInit { value: false, wire: Wire(1) });
//! c.gates.push(Gate::unary(quipper_circuit::GateName::H, Wire(1)));
//! c.gates.push(Gate::cnot(Wire(0), Wire(1)));
//! c.gates.push(Gate::QTerm { value: false, wire: Wire(1) });
//! c.outputs = c.inputs.clone();
//! c.recompute_wire_bound();
//!
//! let report = lint(&BCircuit::new(CircuitDb::new(), c));
//! assert!(report.fails_at(Severity::Warning));
//! assert_eq!(report.findings[0].code, "QL002");
//! ```

mod analyze;
mod context;
mod domain;
mod pauli;
mod structure;

pub mod diag;
pub mod facts;

pub use diag::{severity_of, Diagnostic, LintReport, LintSummary, Severity, CODES};
pub use facts::{Fact, FactScope, Facts, Redundancy};

use quipper_circuit::BCircuit;

/// Runs every pass over `bc`.
///
/// Findings are sorted by (scope, gate index, code) so reports are
/// deterministic; the run is recorded as a `lint` span in the active
/// [`quipper_trace`] session, if any.
pub fn lint(bc: &BCircuit) -> LintReport {
    let _span = quipper_trace::span(quipper_trace::Phase::Compile, "lint");
    let mut report = LintReport::default();
    fact_passes(bc, &mut report, &mut Facts::default());
    context::control_pass(bc, &mut report.findings);
    pauli::notes(bc, &mut report.findings);
    sort_findings(&mut report);
    report
}

/// The error-severity findings of [`lint`], in its order, from only the
/// passes that can produce one. This is the entry point a gate uses.
pub fn errors(bc: &BCircuit) -> LintReport {
    let _span = quipper_trace::span(quipper_trace::Phase::Compile, "lint");
    let mut report = LintReport::default();
    analyze::run(bc, &mut report, &mut Facts::default());
    context::control_pass(bc, &mut report.findings);
    report.findings.retain(|d| d.severity == Severity::Error);
    sort_findings(&mut report);
    report
}

/// Sorts findings stably by (scope, gate index, code): reports are deterministic.
fn sort_findings(report: &mut LintReport) {
    report
        .findings
        .sort_by(|a, b| (&a.scope, a.gate_index, a.code).cmp(&(&b.scope, b.gate_index, b.code)));
}

/// The redundancy findings (QL030–QL032, QL041) as structured [`Facts`]
/// keyed by scope and gate index: runs only the passes that make them and
/// discards their human-readable findings. This is the entry point
/// optimizers use.
pub fn facts(bc: &BCircuit) -> Facts {
    let _span = quipper_trace::span(quipper_trace::Phase::Compile, "lint");
    let mut facts = Facts::default();
    fact_passes(bc, &mut LintReport::default(), &mut facts);
    facts.sort();
    facts
}

/// The passes both products need. Each records its findings and its facts
/// together: the analyzer (QL001–QL003, QL010–QL011, QL031–QL032, with the
/// `NeverFires` and `ConstControl` facts), then per scope the adjacent
/// pairs (QL030, `CancelsPair`) and the conjugated pairs that must not
/// overlap them (QL041, `ConjugatePair`).
fn fact_passes(bc: &BCircuit, report: &mut LintReport, facts: &mut Facts) {
    analyze::run(bc, report, facts);
    let findings = &mut report.findings;
    let boxes = bc
        .db
        .iter()
        .map(|(id, def)| (FactScope::Box(id), def.name.as_str(), &def.circuit));
    for (fact_scope, scope, circuit) in [(FactScope::Main, "main", &bc.main)]
        .into_iter()
        .chain(boxes)
    {
        let pairs = structure::cancelling_pairs(circuit);
        structure::report_pairs(fact_scope, scope, circuit, &pairs, findings, facts);
        pauli::conjugated_pairs(fact_scope, scope, circuit, &pairs, findings, facts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quipper::classical::{synth, Dag};
    use quipper::{Circ, Qubit};
    use quipper_algorithms::grover::{grover_circuit, optimal_iterations};

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.findings.iter().map(|d| d.code).collect()
    }

    /// `lint`'s error-severity findings, in its order: what [`errors`]
    /// must return.
    fn errors_of(report: &LintReport) -> Vec<Diagnostic> {
        let errors = report
            .findings
            .iter()
            .filter(|d| d.severity == Severity::Error);
        errors.cloned().collect()
    }

    #[test]
    fn entangled_ancilla_termination_is_flagged() {
        // qterm on a wire that may be entangled with the input: the
        // hand-built unsound assertion from the acceptance criteria.
        let bc = Circ::build(&false, |c, a: Qubit| {
            let anc = c.qinit_bit(false);
            c.hadamard(anc);
            c.cnot(a, anc);
            c.qterm_bit(false, anc);
            a
        });
        let report = lint(&bc);
        assert!(codes(&report).contains(&"QL002"), "{report}");
        assert!(report.fails_at(Severity::Warning));
        let d = report.findings.iter().find(|d| d.code == "QL002").unwrap();
        assert!(d.message.contains("entangled"), "{}", d.message);
    }

    #[test]
    fn provably_wrong_termination_is_an_error() {
        let bc = Circ::build(&(), |c, ()| {
            let anc = c.qinit_bit(false);
            c.qnot(anc);
            c.qterm_bit(false, anc); // it is |1⟩, provably
        });
        let report = lint(&bc);
        assert_eq!(report.max_severity(), Some(Severity::Error), "{report}");
        assert!(codes(&report).contains(&"QL001"));
        assert!(report.fails_at(Severity::Error));
        assert_eq!(errors(&bc).findings, errors_of(&report));
    }

    #[test]
    fn bennett_oracle_box_proves_clean_under_superposed_caller() {
        // The sound counterpart from the acceptance criteria: a boxed
        // classical_to_reversible oracle (compute/use/uncompute) applied to
        // wires in superposition. The box's internal assertions are proved
        // for all basis inputs, which certifies it for the superposed caller
        // by linearity.
        let dag = Dag::build(2, |_, xs| vec![&xs[0] & &xs[1]]);
        let bc = Circ::build(
            &(false, false, false),
            |c, (a, b, t): (Qubit, Qubit, Qubit)| {
                c.hadamard(a);
                c.hadamard(b);
                c.box_circ("oracle", (a, b, t), |c, (a, b, t)| {
                    synth::classical_to_reversible(c, &dag, &[a, b], &[t]);
                    (a, b, t)
                })
            },
        );
        let report = lint(&bc);
        assert!(!report.fails_at(Severity::Warning), "{report}");
        assert!(report.proved_terms > 0, "{report}");
        assert!(report.boxes_clean >= 1, "{report}");
    }

    #[test]
    fn grover_lints_clean_with_every_oracle_assertion_proved() {
        let dag = Dag::build(3, |_, xs| vec![&(&!(&xs[0]) & &xs[1]) & &xs[2]]);
        let bc = grover_circuit(&dag, optimal_iterations(3, 1));
        let report = lint(&bc);
        assert!(!report.fails_at(Severity::Warning), "{report}");
        assert!(report.proved_terms > 0, "{report}");
        assert!(report.boxes_clean >= 1, "{report}");
    }

    #[test]
    fn controlled_call_with_control_dependent_assertions_warns() {
        // The box is sound when it fires (anc: 0 → X → 1 → qterm 1) but its
        // assertion relies on a controllable gate; under a blocked control
        // the X does not fire while init/term still run.
        let bc = Circ::build(&(false, false), |c, (ctl, a): (Qubit, Qubit)| {
            c.hadamard(ctl);
            let a = c.with_controls(&ctl, |c| {
                c.box_circ("flip", a, |c, a| {
                    let anc = c.qinit_bit(false);
                    c.qnot(anc);
                    c.qterm_bit(true, anc);
                    a
                })
            });
            (ctl, a)
        });
        let report = lint(&bc);
        assert!(codes(&report).contains(&"QL003"), "{report}");
        // The box body itself is fine — the QL003 is on the call in main.
        let d = report.findings.iter().find(|d| d.code == "QL003").unwrap();
        assert_eq!(d.scope, "main");
    }

    #[test]
    fn measurement_inside_controlled_call_is_an_error() {
        let bc = Circ::build(&(false, false), |c, (ctl, a): (Qubit, Qubit)| {
            c.hadamard(ctl);
            let bit = c.with_controls(&ctl, |c| {
                c.box_circ("measure_it", a, |c, a| c.measure_bit(a))
            });
            (ctl, bit)
        });
        let report = lint(&bc);
        assert!(codes(&report).contains(&"QL020"), "{report}");
        assert!(report.fails_at(Severity::Error));
        assert_eq!(errors(&bc).findings, errors_of(&report));
    }

    #[test]
    fn adjacent_adjoint_pair_is_reported_once_per_pair() {
        let bc = Circ::build(&false, |c, a: Qubit| {
            c.hadamard(a);
            c.hadamard(a);
            c.hadamard(a);
            c.hadamard(a);
            a
        });
        let report = lint(&bc);
        let pairs: Vec<_> = report
            .findings
            .iter()
            .filter(|d| d.code == "QL030")
            .collect();
        assert_eq!(pairs.len(), 2, "{report}");
        // An intervening gate on the same wire suppresses the finding.
        let bc = Circ::build(&false, |c, a: Qubit| {
            c.gate_t(a);
            c.hadamard(a);
            c.gate_t(a);
            a
        });
        assert!(lint(&bc).is_clean());
    }

    #[test]
    fn a_flagged_self_inverse_gate_still_cancels_its_twin() {
        // X⁻¹ is X: the inversion flag of a self-inverse gate changes
        // nothing, so X then X-with-`inverted` is a pair (the optimizer's
        // cancel pass deletes it too), with its CancelsPair fact.
        use quipper_circuit::{Circuit, CircuitDb, Gate, GateName, Wire, WireType};
        let mut c = Circuit::with_inputs(vec![(Wire(0), WireType::Quantum)]);
        c.gates = vec![
            Gate::unary(GateName::X, Wire(0)),
            Gate::QGate {
                name: GateName::X,
                inverted: true,
                targets: vec![Wire(0)],
                controls: vec![],
            },
        ];
        c.outputs = c.inputs.clone();
        c.recompute_wire_bound();
        let bc = BCircuit::new(CircuitDb::new(), c);
        assert_eq!(codes(&lint(&bc)), ["QL030"]);
        let facts = super::facts(&bc);
        let pair = facts.iter().next().expect("one fact");
        assert_eq!(pair.reason, Redundancy::CancelsPair { with: 0 });
        assert_eq!(pair.gate_index, 1);
    }

    #[test]
    fn statically_blocked_and_constant_controls_are_flagged() {
        let bc = Circ::build(&(), |c, ()| {
            let on = c.qinit_bit(true);
            let off = c.qinit_bit(false);
            let t = c.qinit_bit(false);
            c.cnot(t, on); // control always satisfied
            c.cnot(t, off); // control statically violated
            c.qdiscard(on);
            c.qdiscard(off);
            c.qdiscard(t);
        });
        let report = lint(&bc);
        assert!(codes(&report).contains(&"QL031"), "{report}");
        assert!(codes(&report).contains(&"QL032"), "{report}");
        // QL031 is a note, QL032 a warning.
        assert!(report.fails_at(Severity::Warning));
        // ... and the init-origin discards produce notes.
        assert!(codes(&report).contains(&"QL011"));
    }

    #[test]
    fn a_cancelling_pair_does_not_justify_a_termination() {
        let bc = Circ::build(&(), |c, ()| {
            let anc = c.qinit_bit(false);
            c.hadamard(anc);
            c.hadamard(anc);
            c.qterm_bit(false, anc);
        });
        let report = lint(&bc);
        assert!(codes(&report).contains(&"QL030"));
        // H·H cancels but the walk does not exploit that: the termination
        // pass still sees a superposed wire.
        assert!(codes(&report).contains(&"QL002"));
    }

    #[test]
    fn facts_mirror_redundancy_diagnostics() {
        let bc = Circ::build(&(), |c, ()| {
            let on = c.qinit_bit(true);
            let off = c.qinit_bit(false);
            let t = c.qinit_bit(false);
            c.cnot(t, on); // const-true control → ConstControl
            c.cnot(t, off); // blocked control → NeverFires
            c.hadamard(t);
            c.hadamard(t); // adjacent pair → CancelsPair
            c.qdiscard(on);
            c.qdiscard(off);
            c.qdiscard(t);
        });
        let (report, facts) = (lint(&bc), super::facts(&bc));
        // Every fact mirrors a diagnostic with the same code at the same
        // gate index in main.
        for fact in &facts {
            assert_eq!(fact.scope, FactScope::Main);
            assert!(
                report
                    .findings
                    .iter()
                    .any(|d| d.code == fact.code() && d.gate_index == Some(fact.gate_index)),
                "fact {fact:?} has no matching diagnostic"
            );
        }
        let codes: Vec<&str> = facts.iter().map(Fact::code).collect();
        assert_eq!(codes, ["QL031", "QL032", "QL030"], "{facts:?}");
        // The cancelling pair points back at its partner.
        let pair = facts.iter().find(|f| f.code() == "QL030").unwrap();
        let Redundancy::CancelsPair { with } = pair.reason else {
            panic!("{pair:?}");
        };
        assert_eq!(with + 1, pair.gate_index);
    }

    #[test]
    fn facts_are_scoped_to_box_bodies_as_written() {
        // The pair lives inside a box: its fact must carry the box scope,
        // with indices into the body as written.
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.box_circ("noop", q, |c, q| {
                c.hadamard(q);
                c.hadamard(q);
                q
            })
        });
        let facts = super::facts(&bc);
        assert_eq!(facts.len(), 1, "{facts:?}");
        let fact = facts.iter().next().unwrap();
        let FactScope::Box(id) = fact.scope else {
            panic!("{fact:?}");
        };
        assert_eq!(bc.db.get(id).unwrap().name, "noop");
        assert_eq!(facts.for_scope(FactScope::Main).count(), 0);
        assert_eq!(facts.for_scope(fact.scope).count(), 1);
    }

    #[test]
    fn repeated_boxes_reach_a_fixpoint() {
        // x ↦ x⊕1 iterated: the summary alternates with period 2, so odd
        // repetition counts flip and even ones do not — the cycle detector
        // must get the parity right without walking 10^6 steps.
        let build = |reps: u64| {
            Circ::build(&(), |c, ()| {
                let q = c.qinit_bit(false);
                let q = c.box_repeat("flip", "", reps, q, |c, q| {
                    c.qnot(q);
                    q
                });
                c.qterm_bit(false, q);
            })
        };
        let even = lint(&build(1_000_000));
        assert!(even.is_clean(), "{even}");
        assert_eq!(even.proved_terms, 1);
        let odd = lint(&build(1_000_001));
        assert!(odd.fails_at(Severity::Error), "{odd}");
        assert!(codes(&odd).contains(&"QL001"));
    }
}
