//! Diagnostics: stable codes, severities, findings with provenance, and the
//! aggregate lint report with pretty and JSON Lines rendering.
//!
//! Codes are stable across releases: `QL0xx` for static findings produced
//! here, `QL1xx` for the runtime [`CircuitError`](quipper_circuit::CircuitError)
//! family (see `CircuitError::code`), so runtime and static failures print
//! uniformly.

use std::fmt;

use quipper_circuit::Wire;

/// Severity of a finding. `Ord`: `Note < Warning < Error`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Informational; never fails a gate.
    Note,
    /// Suspicious but not provably wrong.
    Warning,
    /// Provably wrong, or guaranteed to fail at compile/flatten time.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The stable diagnostic code table: `(code, severity, one-line summary)`.
pub const CODES: &[(&str, Severity, &str)] = &[
    (
        "QL001",
        Severity::Error,
        "assertive termination provably violated",
    ),
    (
        "QL002",
        Severity::Warning,
        "assertive termination not statically justified",
    ),
    (
        "QL003",
        Severity::Warning,
        "subroutine assertions may not hold when the call's controls are off",
    ),
    (
        "QL010",
        Severity::Warning,
        "ancilla initialized inside a subroutine escapes through its outputs",
    ),
    (
        "QL011",
        Severity::Note,
        "initialized qubit discarded without an assertion",
    ),
    (
        "QL020",
        Severity::Error,
        "controlled subroutine call reaches a non-controllable gate",
    ),
    (
        "QL021",
        Severity::Error,
        "reversed subroutine call reaches an irreversible gate",
    ),
    (
        "QL030",
        Severity::Warning,
        "adjacent gate/adjoint pair cancels to the identity",
    ),
    ("QL031", Severity::Note, "control is always satisfied"),
    (
        "QL032",
        Severity::Warning,
        "gate can never fire: a control is statically blocked",
    ),
    (
        "QL040",
        Severity::Note,
        "measurement outcome is provably deterministic (stabilizer flow)",
    ),
    (
        "QL041",
        Severity::Warning,
        "Clifford-conjugated gate pair cancels to the identity",
    ),
    (
        "QL042",
        Severity::Note,
        "subroutine body contributes only a global phase",
    ),
    (
        "QL043",
        Severity::Note,
        "phase-polynomial term sums to the identity",
    ),
];

/// The severity of a code from [`CODES`] (unknown codes are warnings).
pub fn severity_of(code: &str) -> Severity {
    CODES
        .iter()
        .find(|(c, _, _)| *c == code)
        .map_or(Severity::Warning, |&(_, s, _)| s)
}

/// One finding, with enough provenance to locate the offending gate.
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// Stable code, e.g. `"QL001"`.
    pub code: &'static str,
    /// Severity (derived from the code).
    pub severity: Severity,
    /// Which circuit the finding is in: `"main"`, a subroutine name, or
    /// `reverse(name)` for the body of an inverted call.
    pub scope: String,
    /// Index of the offending gate in the scope's gate list.
    pub gate_index: Option<usize>,
    /// Short gate description (`QTerm0`, `Subroutine`, …).
    pub gate: String,
    /// The wire the finding is about, when there is a single one.
    pub wire: Option<Wire>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a finding, deriving the severity from the code table.
    pub fn new(
        code: &'static str,
        scope: &str,
        gate_index: Option<usize>,
        gate: String,
        wire: Option<Wire>,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: severity_of(code),
            scope: scope.to_string(),
            gate_index,
            gate,
            wire,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.severity, self.code, self.scope)?;
        if let Some(i) = self.gate_index {
            write!(f, "#{i}")?;
        }
        write!(f, " {}", self.gate)?;
        if let Some(w) = self.wire {
            write!(f, " wire {w}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Compact counters for a one-line verdict.
#[derive(Copy, Clone, PartialEq, Eq, Default, Debug)]
pub struct LintSummary {
    /// Error-severity findings.
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// Note-severity findings.
    pub notes: usize,
    /// Termination assertions statically proved.
    pub proved_terms: usize,
}

impl fmt::Display for LintSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}E/{}W/{}N ({} proved)",
            self.errors, self.warnings, self.notes, self.proved_terms
        )
    }
}

/// The result of a lint run: findings plus positive evidence (what was
/// proved).
#[derive(Clone, PartialEq, Default, Debug)]
pub struct LintReport {
    /// All findings, sorted by (scope, gate index, code).
    pub findings: Vec<Diagnostic>,
    /// Termination assertions the dataflow pass proved correct.
    pub proved_terms: usize,
    /// Subroutine bodies certified *basis-clean*: measurement-free with every
    /// internal assertion proved for all basis inputs — sound under any
    /// entangled caller state by linearity.
    pub boxes_clean: usize,
    /// Circuits analyzed (main plus subroutine bodies, forward and reversed).
    pub scopes: usize,
    /// Gates walked by the dataflow pass (comments excluded).
    pub gates_scanned: usize,
}

impl LintReport {
    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The most severe finding, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|d| d.severity).max()
    }

    /// Whether any finding is at or above the given deny threshold.
    pub fn fails_at(&self, threshold: Severity) -> bool {
        self.findings.iter().any(|d| d.severity >= threshold)
    }

    /// Whether there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Compact counters for reports.
    pub fn summary(&self) -> LintSummary {
        LintSummary {
            errors: self.count(Severity::Error),
            warnings: self.count(Severity::Warning),
            notes: self.count(Severity::Note),
            proved_terms: self.proved_terms,
        }
    }

    /// JSON Lines rendering: one object per finding, then a summary record.
    /// The output parses with `quipper_trace::parse_json` line by line.
    pub fn to_json_lines(&self) -> String {
        let mut w = quipper_trace::JsonWriter::new();
        for d in &self.findings {
            w.begin_object().key("kind").string("finding");
            w.key("code").string(d.code);
            w.key("severity").string(&d.severity.to_string());
            w.key("scope").string(&d.scope);
            w.key("gate").string(&d.gate);
            match d.gate_index {
                Some(i) => w.key("index").int(i),
                None => w.key("index").null(),
            };
            match d.wire {
                Some(wire) => w.key("wire").int(wire.0),
                None => w.key("wire").null(),
            };
            w.key("message").string(&d.message).end_object().newline();
        }
        let s = self.summary();
        w.begin_object().key("kind").string("summary");
        w.key("errors").int(s.errors);
        w.key("warnings").int(s.warnings);
        w.key("notes").int(s.notes);
        w.key("proved").int(s.proved_terms);
        w.key("boxes_clean").int(self.boxes_clean);
        w.key("scopes").int(self.scopes);
        w.key("gates").int(self.gates_scanned);
        w.end_object().newline();
        w.finish()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.findings {
            writeln!(f, "{d}")?;
        }
        let s = self.summary();
        write!(
            f,
            "{} error{}, {} warning{}, {} note{}; {} assertion{} proved, {} box{} certified clean ({} gates in {} scopes)",
            s.errors,
            if s.errors == 1 { "" } else { "s" },
            s.warnings,
            if s.warnings == 1 { "" } else { "s" },
            s.notes,
            if s.notes == 1 { "" } else { "s" },
            s.proved_terms,
            if s.proved_terms == 1 { "" } else { "s" },
            self.boxes_clean,
            if self.boxes_clean == 1 { "" } else { "es" },
            self.gates_scanned,
            self.scopes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic::new(
            "QL001",
            "main",
            Some(5),
            "QTerm0".into(),
            Some(Wire(3)),
            "wire is provably |1⟩ but the assertion claims |0⟩".into(),
        )
    }

    #[test]
    fn severity_ordering_and_table() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(severity_of("QL001"), Severity::Error);
        assert_eq!(severity_of("QL011"), Severity::Note);
        assert_eq!(severity_of("QL999"), Severity::Warning);
        // Codes are unique.
        let mut codes: Vec<&str> = CODES.iter().map(|&(c, _, _)| c).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), CODES.len());
    }

    #[test]
    fn diagnostic_display_golden() {
        assert_eq!(
            sample().to_string(),
            "error[QL001] main#5 QTerm0 wire 3: wire is provably |1⟩ but the assertion claims |0⟩"
        );
    }

    #[test]
    fn report_counters_and_gating() {
        let mut r = LintReport {
            findings: vec![sample()],
            proved_terms: 2,
            ..LintReport::default()
        };
        r.findings.push(Diagnostic::new(
            "QL031",
            "main",
            Some(1),
            "QGate[\"not\"]".into(),
            None,
            "always satisfied".into(),
        ));
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Note), 1);
        assert_eq!(r.max_severity(), Some(Severity::Error));
        assert!(r.fails_at(Severity::Error));
        assert!(r.fails_at(Severity::Note));
        assert!(!LintReport::default().fails_at(Severity::Note));
        assert_eq!(r.summary().to_string(), "1E/0W/1N (2 proved)");
    }
}
