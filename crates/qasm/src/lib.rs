//! OpenQASM ingestion: parse, check, and lower client circuits.
//!
//! This crate is the untrusted-input front door of the stack. The
//! exporter in `quipper-circuit` turns IR into OpenQASM 2.0 text; this
//! crate goes the other way, accepting arbitrary bytes from clients
//! (`quipper-serve` submissions, `.qasm` files on the CLI) and producing
//! either a validated hierarchical [`BCircuit`] or a list of
//! span-anchored [`Diag`]s with stable `QP###` codes. It never panics on
//! malformed input — that is a contract, enforced by mutation tests.
//!
//! The accepted language is OpenQASM 2.0 (`qreg`/`creg`, `gate`,
//! `opaque`, `measure ->`, `reset`, `barrier`, `if`, the `U`/`CX`
//! builtins and the `qelib1.inc` gate set) plus a few QASM-3 spellings
//! that show up in the wild: `qubit[n] q;` / `bit[n] c;` declarations,
//! `c[0] = measure q[0];` assignment form, and `gphase(γ)`.
//!
//! [`compile_full`] is one walk from text to circuit: the lexer's tokens
//! are slices of the source, the parser lowers each statement as soon as
//! it has parsed it (there is no statement tree), and the result is
//! validated. Lowering's diagnostics follow the parse's, and only when
//! the parse recorded no error.
//!
//! Round-trip guarantees (tested against the exporter's goldens):
//! `export(parse(export(c))) == export(c)` byte-for-byte, and
//! `parse(export(c))` is statevector-equivalent to `c` up to global
//! phase.

mod ast;
pub mod diag;
mod lex;
mod lower;
mod parse;

pub use diag::{Code, Diag, Diagnostics, Severity, Span};
pub use lower::{MAX_BITS, MAX_GATE_DEPTH, MAX_QUBITS};
pub use parse::MAX_DEPTH;

use quipper_circuit::BCircuit;
use quipper_trace::names;

/// Largest source text the library will look at. Serve applies its own
/// (smaller) wire-level cap before this one.
pub const MAX_SOURCE_BYTES: usize = 1 << 20;

/// Parses and lowers OpenQASM source.
///
/// Returns the circuit when no error-severity diagnostics were produced,
/// together with all diagnostics (warnings survive acceptance). This is
/// the primitive; most callers want [`compile`].
pub fn compile_full(source: &str) -> (Option<BCircuit>, Diagnostics) {
    let started = std::time::Instant::now();
    let mut diags = Diagnostics::new();
    let bc = if source.len() > MAX_SOURCE_BYTES {
        diags.error(
            Code::QP007,
            Span::default(),
            format!(
                "source is {} bytes; the ingestion cap is {MAX_SOURCE_BYTES}",
                source.len()
            ),
        );
        None
    } else {
        let toks = lex::lex(source, &mut diags);
        let bc = parse::parse(&toks, &mut diags).finish(&mut diags);
        match bc.as_ref().map(BCircuit::validate) {
            Some(Err(e)) => {
                diags.error(
                    Code::QP190,
                    Span::default(),
                    format!("internal: lowered circuit failed validation: {e}"),
                );
                None
            }
            _ => bc,
        }
    };
    let m = quipper_trace::tracer().metrics();
    m.add(names::QASM_PROGRAMS, 1);
    if bc.is_some() {
        m.add(names::QASM_ACCEPTED, 1);
    }
    m.add(names::QASM_DIAG_ERROR, diags.count(Severity::Error) as u64);
    m.add(
        names::QASM_DIAG_WARNING,
        diags.count(Severity::Warning) as u64,
    );
    m.add(names::QASM_PARSE_US, started.elapsed().as_micros() as u64);
    (bc, diags)
}

/// Parses and lowers OpenQASM source, rejecting on any error.
///
/// The `Err` carries every diagnostic (errors and warnings, source
/// order); the `Ok` path drops warnings — use [`compile_full`] to keep
/// them.
pub fn compile(source: &str) -> Result<BCircuit, Diagnostics> {
    match compile_full(source) {
        (Some(bc), _) => Ok(bc),
        (None, diags) => Err(diags),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_accepts_the_exporters_dialect() {
        let src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c0[1];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c0[0];\n";
        let bc = compile(src).expect("compiles");
        assert_eq!(bc.main.inputs.len(), 2);
    }

    #[test]
    fn compile_rejects_with_diagnostics_not_panics() {
        let err = compile("OPENQASM 2.0;\nqreg q[1];\nfrob q[0];\n").unwrap_err();
        assert!(err.has_errors());
        assert!(err.iter().any(|d| d.code == Code::QP103));
    }

    #[test]
    fn oversized_source_is_qp007() {
        let big = "/".repeat(MAX_SOURCE_BYTES + 1);
        let err = compile(&big).unwrap_err();
        assert_eq!(err.iter().next().unwrap().code, Code::QP007);
    }

    #[test]
    fn warnings_survive_acceptance_in_compile_full() {
        // Missing header is a warning, not an error.
        let (bc, diags) = compile_full("qreg q[1];\nU(0,0,0) q[0];\n");
        assert!(bc.is_some());
        assert_eq!(diags.count(Severity::Warning), 1);
    }
}
