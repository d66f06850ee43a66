//! Simulator errors.

use std::error::Error;
use std::fmt;

use quipper_circuit::Wire;

/// Errors raised while simulating a circuit.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum SimError {
    /// An assertive termination (`QTerm`/`CTerm`) was violated: the wire was
    /// not (sufficiently close to) the asserted basis state. This is the
    /// simulator catching a broken programmer assertion (paper §4.2.2).
    AssertionFailed {
        /// The offending wire.
        wire: Wire,
        /// The asserted value.
        asserted: bool,
        /// The probability with which the assertion held.
        probability: f64,
    },
    /// The circuit contains a gate this simulator cannot execute (e.g. a
    /// Hadamard in the classical simulator, a T gate in the stabilizer
    /// simulator, or a custom named gate).
    UnsupportedGate {
        /// Gate description.
        gate: String,
        /// Which simulator refused it.
        simulator: &'static str,
    },
    /// A gate referenced a wire with no current value.
    UnknownWire { wire: Wire },
    /// Circuit-level error (validation, inlining).
    Circuit(quipper_circuit::CircuitError),
    /// The wrong number of input values was supplied.
    InputArity { expected: usize, found: usize },
    /// The caller's `should_stop` returned `true` while a shot-invariant
    /// prefix was being evolved; the run was abandoned.
    Stopped,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::AssertionFailed { wire, asserted, probability } => write!(
                f,
                "assertive termination violated on wire {wire}: asserted {asserted} but it holds with probability {probability:.6}"
            ),
            SimError::UnsupportedGate { gate, simulator } => {
                write!(f, "gate {gate} is not supported by the {simulator} simulator")
            }
            SimError::UnknownWire { wire } => write!(f, "wire {wire} has no value"),
            SimError::Circuit(e) => write!(f, "circuit error: {e}"),
            SimError::InputArity { expected, found } => {
                write!(f, "expected {expected} input values, found {found}")
            }
            SimError::Stopped => write!(f, "stopped by the caller before the prefix finished"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<quipper_circuit::CircuitError> for SimError {
    fn from(e: quipper_circuit::CircuitError) -> Self {
        SimError::Circuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::AssertionFailed {
            wire: Wire(3),
            asserted: false,
            probability: 0.25,
        };
        assert!(e.to_string().contains("wire 3"));
        assert!(e.to_string().contains("0.25"));
    }
}
