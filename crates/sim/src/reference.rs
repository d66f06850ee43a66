//! The oracles: small, slow implementations the production simulators are
//! tested against, and nothing else uses.
//!
//! * [`run_flat_reference`] over [`scan`] — the state-vector oracle. Every
//!   unitary gate of the flat circuit, one at a time and unmerged, is a scan
//!   of all 2^n indices that branches on the target bit and control mask at
//!   each one; an uncontrolled swap moves amplitudes like any other. Its
//!   unitaries are its own; with [`StateVec`] it shares only what is not a
//!   unitary update: the wires every simulator shares (`crate::wires`: input
//!   binding, slot map, parked slots, classical store, classical gates),
//!   growth, measurement and termination.
//! * [`BoolTableau`] — the stabilizer oracle: one `bool` per tableau cell,
//!   behind the same [`Tableau`](crate::stabilizer::Tableau) trait as the
//!   packed production tableau.
//!
//! Only tests and benchmarks may name this module; CI checks that no
//! library, binary or example does.

mod tableau;

use quipper_circuit::{Circuit, Gate, GateName};

use crate::complex::Complex;
use crate::error::SimError;
use crate::fuse::unary_matrix;
use crate::statevec::{RunResult, StateVec};
use crate::wires::{self, Simulator, Wires};

pub use tableau::BoolTableau;

/// Runs a flat circuit on the full-scan oracle: no fusion, no kernels, no
/// windows, no relabeling, no threads. What the production path is verified
/// against (and benchmarked over).
///
/// # Errors
///
/// As for [`run_flat`](crate::statevec::run_flat).
pub fn run_flat_reference(
    flat: &Circuit,
    inputs: &[bool],
    seed: u64,
) -> Result<RunResult, SimError> {
    let Scan(state) = wires::run(Scan(StateVec::new(seed)), flat, inputs)?;
    Ok(RunResult {
        state,
        outputs: flat.outputs.clone(),
    })
}

/// The oracle: a [`StateVec`] whose unitaries, and the flip that sets a
/// recycled slot, are scans; growth, measurement and termination are the
/// state vector's own.
struct Scan(StateVec);

impl Simulator for Scan {
    const NAME: &'static str = StateVec::NAME;

    fn wires_mut(&mut self) -> &mut Wires {
        self.0.wires_mut()
    }

    fn grow(&mut self) -> usize {
        self.0.grow()
    }

    fn flip(&mut self, slot: usize) {
        scan::flip(self.0.amplitudes_mut(), slot);
    }

    fn measure(&mut self, slot: usize) -> bool {
        self.0.measure(slot)
    }

    fn assert(&mut self, slot: usize, value: bool) -> Result<(), f64> {
        self.0.assert(slot, value)
    }

    fn unitary(&mut self, gate: &Gate) -> Result<(), SimError> {
        let unsupported = || SimError::UnsupportedGate {
            gate: gate.describe(),
            simulator: Self::NAME,
        };
        let sv = &mut self.0;
        let (targets, controls) = match gate {
            Gate::QGate {
                targets, controls, ..
            }
            | Gate::QRot {
                targets, controls, ..
            } => (&targets[..], controls),
            Gate::GPhase { controls, .. } => (&[][..], controls),
            _ => return Err(unsupported()),
        };
        let Some((mask, want)) = sv.resolve_controls(controls)? else {
            return Ok(());
        };
        let slots = targets
            .iter()
            .map(|&w| sv.wires_mut().slot(w))
            .collect::<Result<Vec<usize>, SimError>>()?;
        let amps = sv.amplitudes_mut();
        match (gate, &slots[..]) {
            (Gate::GPhase { angle, .. }, []) => {
                let phase = Complex::cis(std::f64::consts::PI * angle);
                scan::apply_phase(amps, phase, mask, want);
            }
            (Gate::QGate { name, .. }, &[a, b]) if *name == GateName::Swap => {
                scan::apply_swap(amps, a, b, mask, want);
            }
            (Gate::QGate { name, .. }, &[a, b]) if *name == GateName::W => {
                scan::apply_w(amps, a, b, mask, want);
            }
            (_, &[t]) => {
                let (_, m, _) = unary_matrix(gate).ok_or_else(unsupported)?;
                scan::apply_1q(amps, t, &m, mask, want);
            }
            _ => return Err(unsupported()),
        }
        Ok(())
    }
}

pub mod scan {
    //! The pre-kernel full-scan implementations, kept verbatim as the
    //! correctness reference for the property tests and as the before-side
    //! of the `statevec_kernels` benchmark: every update visits all 2^n
    //! indices and branches on the target bit and control mask at each one.

    use crate::complex::Complex;
    use crate::kernels::Mat2;

    /// Full-scan single-qubit update.
    pub fn apply_1q(amps: &mut [Complex], slot: usize, m: &Mat2, mask: usize, want: usize) {
        let bit = 1usize << slot;
        for i in 0..amps.len() {
            if i & bit == 0 && (i & mask) == want {
                let j = i | bit;
                let a0 = amps[i];
                let a1 = amps[j];
                amps[i] = m[0][0] * a0 + m[0][1] * a1;
                amps[j] = m[1][0] * a0 + m[1][1] * a1;
            }
        }
    }

    /// Full-scan controlled phase multiplication.
    pub fn apply_phase(amps: &mut [Complex], phase: Complex, mask: usize, want: usize) {
        for (i, a) in amps.iter_mut().enumerate() {
            if (i & mask) == want {
                *a = phase * *a;
            }
        }
    }

    /// Full-scan swap.
    pub fn apply_swap(
        amps: &mut [Complex],
        slot_a: usize,
        slot_b: usize,
        mask: usize,
        want: usize,
    ) {
        let (ba, bb) = (1usize << slot_a, 1usize << slot_b);
        for i in 0..amps.len() {
            if i & ba != 0 && i & bb == 0 && (i & mask) == want {
                amps.swap(i, i ^ ba ^ bb);
            }
        }
    }

    /// Full-scan W gate.
    pub fn apply_w(amps: &mut [Complex], slot_a: usize, slot_b: usize, mask: usize, want: usize) {
        let (ba, bb) = (1usize << slot_a, 1usize << slot_b);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        for i in 0..amps.len() {
            if i & ba == 0 && i & bb != 0 && (i & mask) == want {
                let j = i ^ ba ^ bb;
                let v01 = amps[i];
                let v10 = amps[j];
                amps[i] = (v01 + v10).scale(s);
                amps[j] = (v01 - v10).scale(s);
            }
        }
    }

    /// Full-scan X (used by slot recycling).
    pub fn flip(amps: &mut [Complex], slot: usize) {
        let bit = 1usize << slot;
        for i in 0..amps.len() {
            if i & bit == 0 {
                amps.swap(i, i | bit);
            }
        }
    }
}
