//! Static analysis of flattened circuits for backend selection.
//!
//! Each plan runs on the cheapest capable simulator; the [`Route`] is picked
//! once, when the plan compiles, from a [`CircuitProfile`] computed by a
//! single linear walk over the flat gate list. The walk asks the simulators
//! which gates they run ([`quipper_sim::classical::accepts`],
//! [`quipper_sim::stabilizer::accepts`]); what it keeps itself is each live
//! wire's current type (measurement turns quantum wires classical, paper
//! §4.2.3), which the stabilizer's answer depends on — a *classical* control
//! only gates the whole gate, a quantum one is part of it — and the count of
//! live qubits.

use std::collections::HashMap;

use quipper_circuit::{Circuit, Gate, Wire, WireType};
use quipper_sim::{classical, stabilizer};

/// What a flat circuit needs from a simulator, computed in one pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CircuitProfile {
    /// The bit-per-wire simulator runs every gate: each permutes
    /// computational basis states (X / swap / Z-basis phases / classical
    /// gates) — [`classical::accepts`].
    pub classical_only: bool,
    /// The CHP tableau simulator runs every gate: H, S/S†, V/V†, X, Y, Z,
    /// swap, CNOT, CZ, plus the wire and classical gates every simulator
    /// runs — [`stabilizer::accepts`].
    pub clifford_only: bool,
    /// Peak number of simultaneously live quantum wires. State-vector cost is
    /// `2^peak_qubits` amplitudes, so this bounds which circuits the exact
    /// simulator will accept.
    pub peak_qubits: usize,
    /// Total gate count of the flattened circuit.
    pub num_gates: usize,
    /// Every circuit output is a classical wire, i.e. the circuit measures or
    /// asserts away all its qubits. Sampling jobs require this.
    pub outputs_classical: bool,
}

/// The widest circuit the state-vector route takes: 2²⁴ amplitudes ≈
/// 256 MiB, a safe single-host bound.
pub const DEFAULT_MAX_QUBITS: usize = 24;

/// Which backend runs a plan, picked once when the plan compiles.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Route {
    /// Bit-per-wire permutation simulation, linear time.
    Classical,
    /// CHP tableau simulation, polynomial in width.
    Stabilizer,
    /// Exact state vectors, exponential in width but universal.
    StateVec,
}

impl Route {
    /// The cheapest route for a profile: classical, else stabilizer, else
    /// the state vector up to [`DEFAULT_MAX_QUBITS`].
    ///
    /// # Errors
    ///
    /// Why the state vector refuses a circuit the cheaper routes cannot run.
    pub fn pick(profile: &CircuitProfile) -> Result<Route, String> {
        if profile.classical_only {
            Ok(Route::Classical)
        } else if profile.clifford_only {
            Ok(Route::Stabilizer)
        } else if profile.peak_qubits <= DEFAULT_MAX_QUBITS {
            Ok(Route::StateVec)
        } else {
            Err(format!(
                "non-Clifford circuit of peak width {} qubits exceeds the state-vector cap of {}",
                profile.peak_qubits, DEFAULT_MAX_QUBITS
            ))
        }
    }

    /// The name of the simulator that runs this route, as reports and
    /// [`Backend::name`](crate::Backend::name) give it.
    pub fn name(self) -> &'static str {
        match self {
            Route::Classical => "classical",
            Route::Stabilizer => "stabilizer",
            Route::StateVec => "statevec",
        }
    }

    /// Why a circuit with `profile` took this route: the profile property
    /// that decided it.
    pub fn reason(self, profile: &CircuitProfile) -> String {
        match self {
            Route::Classical => "classical-only circuit; boolean evaluation suffices".into(),
            Route::Stabilizer => "Clifford-only circuit; polynomial stabilizer simulation".into(),
            Route::StateVec => format!(
                "universal gate set; peak {} qubit{} within state-vector cap",
                profile.peak_qubits,
                if profile.peak_qubits == 1 { "" } else { "s" },
            ),
        }
    }
}

/// Profiles a flattened circuit in one linear pass.
///
/// Subroutine calls are not expected in flat circuits; no simulator runs
/// one, so one routes to the state vector, which refuses it.
pub fn profile(flat: &Circuit) -> CircuitProfile {
    let mut types: HashMap<Wire, WireType> = flat.inputs.iter().copied().collect();
    let mut live_qubits = flat
        .inputs
        .iter()
        .filter(|(_, t)| *t == WireType::Quantum)
        .count();
    let mut peak_qubits = live_qubits;
    let mut classical_only = true;
    let mut clifford_only = true;

    for gate in &flat.gates {
        classical_only = classical_only && classical::accepts(gate);
        clifford_only = clifford_only && stabilizer::accepts(gate, |w| types.get(&w).copied());
        // Update wire types and the live-qubit count.
        match gate {
            Gate::QInit { wire, .. }
                if types.insert(*wire, WireType::Quantum) != Some(WireType::Quantum) =>
            {
                live_qubits += 1;
                peak_qubits = peak_qubits.max(live_qubits);
            }
            Gate::CInit { wire, .. }
                if types.insert(*wire, WireType::Classical) == Some(WireType::Quantum) =>
            {
                live_qubits -= 1;
            }
            Gate::CGate { target, .. } => {
                types.insert(*target, WireType::Classical);
            }
            Gate::QMeas { wire }
                if types.insert(*wire, WireType::Classical) == Some(WireType::Quantum) =>
            {
                live_qubits -= 1;
            }
            Gate::QTerm { wire, .. } | Gate::QDiscard { wire }
                if types.remove(wire) == Some(WireType::Quantum) =>
            {
                live_qubits -= 1;
            }
            Gate::CTerm { wire, .. } | Gate::CDiscard { wire } => {
                types.remove(wire);
            }
            _ => {}
        }
    }

    CircuitProfile {
        classical_only,
        clifford_only,
        peak_qubits,
        num_gates: flat.gates.len(),
        outputs_classical: flat.outputs.iter().all(|(_, t)| *t == WireType::Classical),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quipper::{Circ, Qubit};
    use quipper_circuit::flatten::inline_all;

    fn profile_of(bc: &quipper_circuit::BCircuit) -> CircuitProfile {
        profile(&inline_all(&bc.db, &bc.main).unwrap())
    }

    #[test]
    fn route_reasons_name_the_deciding_profile_property() {
        let universal = CircuitProfile {
            classical_only: false,
            clifford_only: false,
            peak_qubits: 9,
            num_gates: 210,
            outputs_classical: true,
        };
        let route = Route::pick(&universal).unwrap();
        assert_eq!(route, Route::StateVec);
        assert_eq!(
            route.reason(&universal),
            "universal gate set; peak 9 qubits within state-vector cap"
        );
        // Only the state vector has a width cap.
        let widest = CircuitProfile {
            peak_qubits: DEFAULT_MAX_QUBITS,
            ..universal
        };
        assert_eq!(Route::pick(&widest), Ok(Route::StateVec));
        let too_wide = CircuitProfile {
            peak_qubits: DEFAULT_MAX_QUBITS + 1,
            ..universal
        };
        let reason = Route::pick(&too_wide).unwrap_err();
        assert!(reason.ends_with("peak width 25 qubits exceeds the state-vector cap of 24"));
        let clifford = CircuitProfile {
            clifford_only: true,
            ..universal
        };
        let route = Route::pick(&clifford).unwrap();
        assert_eq!(route, Route::Stabilizer);
        assert!(route.reason(&clifford).contains("Clifford-only"));
        // A classical circuit is Clifford too, and the cheaper route wins.
        let classical = CircuitProfile {
            classical_only: true,
            ..clifford
        };
        let route = Route::pick(&classical).unwrap();
        assert_eq!(route, Route::Classical);
        assert!(route.reason(&classical).contains("classical-only"));
    }

    #[test]
    fn toffoli_circuit_is_classical_but_not_clifford() {
        let bc = Circ::build(
            &(false, false, false),
            |c, (a, b, t): (Qubit, Qubit, Qubit)| {
                c.toffoli(t, a, b);
                (a, b, t)
            },
        );
        let p = profile_of(&bc);
        assert!(p.classical_only);
        assert!(!p.clifford_only, "doubly-controlled X is not Clifford");
        assert_eq!(p.peak_qubits, 3);
    }

    #[test]
    fn bell_pair_is_clifford_but_not_classical() {
        let bc = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            c.hadamard(a);
            c.cnot(b, a);
            let x = c.measure(a);
            let y = c.measure(b);
            (x, y)
        });
        let p = profile_of(&bc);
        assert!(!p.classical_only);
        assert!(p.clifford_only);
        assert!(p.outputs_classical);
    }

    #[test]
    fn t_gate_breaks_clifford() {
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.hadamard(q);
            c.gate_t(q);
            q
        });
        let p = profile_of(&bc);
        assert!(!p.clifford_only);
        assert!(!p.classical_only);
        assert!(!p.outputs_classical);
    }

    #[test]
    fn peak_counts_ancillas() {
        let bc = Circ::build(&false, |c, q: Qubit| {
            let a = c.qinit_bit(false);
            let b = c.qinit_bit(false);
            c.qterm_bit(false, a);
            let d = c.qinit_bit(false);
            c.qterm_bit(false, b);
            c.qterm_bit(false, d);
            q
        });
        // Alive: q plus at most two ancillas at once.
        assert_eq!(profile_of(&bc).peak_qubits, 3);
    }

    #[test]
    fn measurement_makes_control_classical() {
        // A classically-controlled X after measurement stays Clifford even
        // with a second (classical) control — the stabilizer simulator gates
        // the whole operation on classical controls.
        let bc = Circ::build(
            &(false, false, false),
            |c, (a, b, t): (Qubit, Qubit, Qubit)| {
                c.hadamard(a);
                let ma = c.measure(a);
                let mb = c.measure(b);
                c.qnot_ctrl(t, &(ma, mb));
                (ma, mb, c.measure(t))
            },
        );
        let p = profile_of(&bc);
        assert!(p.clifford_only, "two classical controls are fine for CHP");
    }
}
