//! Source-span diagnostics with stable `QP###` codes.
//!
//! The code space mirrors the lint crate's `QL###` convention: stable
//! identifiers that tests, CI corpus fixtures and client tooling can match
//! on without parsing English. `QP0xx` are lexical/syntactic, `QP1xx`
//! semantic/lowering. Codes are append-only: a published code never
//! changes meaning.

use std::fmt;

use quipper_trace::JsonWriter;

/// A position in the source text, 1-based, as editors count.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in bytes from the start of the line).
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Diagnostic severity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Severity {
    /// The program is rejected.
    Error,
    /// The program is accepted, but something deserves attention.
    Warning,
}

impl Severity {
    /// Lower-case label used in renderings and wire formats.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Stable diagnostic codes.
///
/// `QP0xx`: lexical / syntactic. `QP1xx`: semantic / lowering.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Code {
    /// Unexpected character in the input.
    QP001,
    /// Unterminated block comment or string literal.
    QP002,
    /// Syntax error (unexpected token).
    QP003,
    /// Missing or unsupported `OPENQASM` version header.
    QP004,
    /// Malformed numeric literal.
    QP005,
    /// Nesting too deep (expressions or gate-definition calls).
    QP006,
    /// Program exceeds a size cap (source bytes, statements, diagnostics).
    QP007,
    /// Unknown register.
    QP101,
    /// Register index out of range.
    QP102,
    /// Unknown gate.
    QP103,
    /// Wrong number of parameters or qubit arguments.
    QP104,
    /// Duplicate declaration.
    QP105,
    /// The same qubit appears twice in one statement (no-cloning).
    QP106,
    /// Register size mismatch (measure or gate broadcast).
    QP107,
    /// Qubit used after measurement without an intervening reset.
    QP108,
    /// `opaque` gates have no circuit body and cannot be lowered.
    QP109,
    /// Angle expression does not fold to a finite number.
    QP110,
    /// `if` condition value can never match the register (statement dropped).
    QP111,
    /// Statement not allowed in this context.
    QP112,
    /// Unsupported include file.
    QP113,
    /// Unsupported statement or language feature.
    QP114,
    /// Register exceeds the ingestion capacity cap.
    QP115,
    /// Internal error: the lowered circuit failed IR validation.
    QP190,
}

impl Code {
    /// The stable textual form, e.g. `"QP103"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::QP001 => "QP001",
            Code::QP002 => "QP002",
            Code::QP003 => "QP003",
            Code::QP004 => "QP004",
            Code::QP005 => "QP005",
            Code::QP006 => "QP006",
            Code::QP007 => "QP007",
            Code::QP101 => "QP101",
            Code::QP102 => "QP102",
            Code::QP103 => "QP103",
            Code::QP104 => "QP104",
            Code::QP105 => "QP105",
            Code::QP106 => "QP106",
            Code::QP107 => "QP107",
            Code::QP108 => "QP108",
            Code::QP109 => "QP109",
            Code::QP110 => "QP110",
            Code::QP111 => "QP111",
            Code::QP112 => "QP112",
            Code::QP113 => "QP113",
            Code::QP114 => "QP114",
            Code::QP115 => "QP115",
            Code::QP190 => "QP190",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic: a coded finding anchored to a source position.
#[derive(Clone, PartialEq, Debug)]
pub struct Diag {
    /// Stable code.
    pub code: Code,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable message (no trailing period, no source excerpt).
    pub message: String,
    /// Where in the source.
    pub span: Span,
}

impl Diag {
    /// The machine-readable record: `{code, severity, line, col, message}`.
    /// The serve protocol's `diagnostics` array and `quipper-lint --json`
    /// both write their records through here.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object().key("code").string(self.code.as_str());
        w.key("severity").string(self.severity.label());
        w.key("line").int(self.span.line);
        w.key("col").int(self.span.col);
        w.key("message").string(&self.message).end_object();
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [{}] {}",
            self.span,
            self.severity.label(),
            self.code,
            self.message
        )
    }
}

/// An ordered collection of diagnostics (source order).
#[derive(Clone, Default, Debug)]
pub struct Diagnostics {
    diags: Vec<Diag>,
    /// Set when the collection hit its cap and further diagnostics were
    /// dropped (the cap itself is reported as a final `QP007`).
    truncated: bool,
}

/// Beyond this many diagnostics the collection stops recording: adversarial
/// inputs should produce bounded output, not a report proportional to the
/// mutation count.
pub const MAX_DIAGS: usize = 100;

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a diagnostic (dropped once [`MAX_DIAGS`] is reached).
    pub fn push(&mut self, code: Code, severity: Severity, span: Span, message: impl Into<String>) {
        if self.diags.len() >= MAX_DIAGS {
            if !self.truncated {
                self.truncated = true;
                self.diags.push(Diag {
                    code: Code::QP007,
                    severity: Severity::Error,
                    message: format!("too many diagnostics; stopping after {MAX_DIAGS}"),
                    span,
                });
            }
            return;
        }
        self.diags.push(Diag {
            code,
            severity,
            message: message.into(),
            span,
        });
    }

    /// Records an error.
    pub fn error(&mut self, code: Code, span: Span, message: impl Into<String>) {
        self.push(code, Severity::Error, span, message);
    }

    /// Records a warning.
    pub fn warning(&mut self, code: Code, span: Span, message: impl Into<String>) {
        self.push(code, Severity::Warning, span, message);
    }

    /// Whether recording stopped at the cap.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Whether any error-severity diagnostic was recorded.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// All diagnostics in source order.
    pub fn iter(&self) -> impl Iterator<Item = &Diag> {
        self.diags.iter()
    }

    /// Number of diagnostics recorded.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Count at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == severity).count()
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_span_and_severity() {
        let mut ds = Diagnostics::new();
        ds.error(Code::QP103, Span { line: 3, col: 7 }, "unknown gate `frob`");
        assert_eq!(ds.to_string(), "3:7: error [QP103] unknown gate `frob`");
        assert!(ds.has_errors());
    }

    #[test]
    fn warnings_do_not_count_as_errors() {
        let mut ds = Diagnostics::new();
        ds.warning(Code::QP004, Span::default(), "missing OPENQASM header");
        assert!(!ds.has_errors());
        assert_eq!(ds.count(Severity::Warning), 1);
    }

    #[test]
    fn flood_is_capped_with_a_final_qp007() {
        let mut ds = Diagnostics::new();
        for i in 0..(MAX_DIAGS + 50) {
            ds.error(
                Code::QP001,
                Span {
                    line: 1,
                    col: i as u32 + 1,
                },
                "unexpected character",
            );
        }
        assert!(ds.is_truncated());
        assert_eq!(ds.len(), MAX_DIAGS + 1);
        assert_eq!(ds.iter().last().unwrap().code, Code::QP007);
    }
}
