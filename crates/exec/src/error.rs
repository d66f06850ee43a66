//! Errors of the execution engine.

use std::fmt;

use quipper_circuit::CircuitError;
use quipper_lint::LintReport;
use quipper_sim::SimError;

use crate::cancel::CancelReason;

/// Anything that can go wrong preparing or executing a job.
#[derive(Debug)]
pub enum ExecError {
    /// The circuit failed validation or flattening.
    Circuit(CircuitError),
    /// The lint gate found an error in the circuit to run. The report holds
    /// only error-severity findings (`quipper_lint::errors`), so its first
    /// finding is the first error; the plan was not cached.
    Lint(LintReport),
    /// A backend rejected a gate or assertion at execution time.
    Sim {
        /// Which backend was executing.
        backend: &'static str,
        /// The underlying simulator error.
        source: SimError,
    },
    /// No route admits the circuit (at compile), or a
    /// [`Backend`](crate::Backend) was handed a plan routed to another
    /// simulator.
    NoBackend {
        /// Why each candidate was rejected.
        reason: String,
    },
    /// A sampling job needs every circuit output to be classical (measure
    /// quantum outputs inside the circuit).
    QuantumOutputs,
    /// The job's [`CancelToken`](crate::CancelToken) fired while shots were
    /// running; remaining shots were abandoned.
    Cancelled {
        /// Why the token fired.
        reason: CancelReason,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Circuit(e) => write!(f, "circuit error: {e}"),
            ExecError::Lint(report) => {
                let n = report.findings.len();
                write!(f, "circuit rejected by lint gate: {n} error(s)")?;
                if let Some(first) = report.findings.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            ExecError::Sim { backend, source } => {
                write!(f, "backend `{backend}` failed: {source}")
            }
            ExecError::NoBackend { reason } => {
                write!(f, "no backend can execute this circuit: {reason}")
            }
            ExecError::QuantumOutputs => write!(
                f,
                "sampling requires classical outputs only; measure quantum outputs in the circuit"
            ),
            ExecError::Cancelled { reason } => write!(f, "job {reason} during execution"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Circuit(e) => Some(e),
            ExecError::Sim { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CircuitError> for ExecError {
    fn from(e: CircuitError) -> Self {
        ExecError::Circuit(e)
    }
}
