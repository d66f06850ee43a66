//! State-vector simulation of quantum circuits.
//!
//! The analogue of Quipper's `run_generic` (paper §4.4.5) — "necessarily
//! inefficient on a classical computer", i.e. exponential in the number of
//! live qubits, but exact. The simulator allocates qubit slots dynamically
//! as `QInit` gates execute and reclaims them on termination or measurement,
//! so the cost tracks the circuit's *width* (live qubits), not the total
//! number of wires — scoped ancillas (paper §4.2.1) pay only while in scope.
//! The slot map, the parked slots, the classical store and every gate that
//! is not a unitary are the wires all three simulators share
//! (`crate::wires`); this module is the amplitudes and what unitaries,
//! measurement and termination do to them.
//!
//! There is one execution path. A unitary op — a gate of the circuit or a
//! fused single-qubit product from [`crate::fuse`] — is *resolved* once, by
//! `StateVec::resolve`, into a slot-space gate: controls become a bitmask
//! test, wires become slots, the matrix is classified, an uncontrolled swap
//! becomes a relabeling of two slots. The resolved gate then goes to one of
//! two executors: [`crate::kernels`]`::apply`, a full-state pass for that
//! gate alone ([`StateVec::apply`], [`StateVec::apply_fused`] and the
//! dynamic lifter work this way), or, inside a segment that fusion planned,
//! a window buffer that [`crate::window`] sweeps over the state once for
//! all its gates. What is merged and what is windowed is decided in
//! [`crate::fuse`] alone; [`StateVecConfig`] holds only what depends on the
//! host. The full-scan oracle every part of this is tested against lives
//! apart, in [`crate::reference`].
//!
//! Shot loops go through [`evolve`]: the ops before the first measurement
//! run once per job and every shot is drawn from the resulting [`Evolved`]
//! state (see the `evolve` submodule).

mod evolve;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use quipper_circuit::flatten::inline_all;
use quipper_circuit::{BCircuit, Circuit, Control, Gate, GateName, Wire, WireType};

use crate::complex::{Complex, ONE, ZERO};
use crate::error::SimError;
use crate::fuse::{fuse_circuit, unary_matrix, FusedCircuit, FusedOp};
use crate::kernels::{self, KernelCtx, KernelStats, WinGate};
use crate::simd;
use crate::window;
use crate::wires::{self, Simulator, Wires};

pub use evolve::{evolve, Evolved, Shots, Suffix};

/// Tolerance for assertion checking and renormalization.
const EPS: f64 = 1e-9;

/// How many distinct high (beyond-block) target bits one window may demand;
/// each demanded bit doubles the tile working set. The tuning sweep in
/// EXPERIMENTS.md picked it together with the default block size.
const WINDOW_MAX_HIGH: u32 = 4;

/// What the state-vector hot path needs to know about the host.
#[derive(Clone, Copy, Debug)]
pub struct StateVecConfig {
    /// Maximum worker threads per amplitude update (clamped to what the
    /// state size supports; 1 disables threading).
    pub threads: usize,
    /// Live-qubit count from which amplitude updates fan out over threads:
    /// states smaller than `2^parallel_threshold` amplitudes stay
    /// single-threaded (spawn overhead would dominate).
    pub parallel_threshold: u32,
    /// log2 of the window block size in amplitudes. The default (10, i.e.
    /// 1024 amplitudes = 16 KiB) keeps a strip plus the paired strip of a
    /// high gate within L1d; the tuning sweep in EXPERIMENTS.md picked it.
    pub window_block_bits: u32,
}

impl Default for StateVecConfig {
    fn default() -> StateVecConfig {
        StateVecConfig {
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            parallel_threshold: 18,
            window_block_bits: 10,
        }
    }
}

/// A state-vector simulator: the amplitudes over its qubit slots, and the
/// circuit's wires.
#[derive(Debug)]
pub struct StateVec {
    /// `2^slots` amplitudes: one bit of the index per slot, live or parked.
    amps: Vec<Complex>,
    wires: Wires,
    rng: StdRng,
    config: StateVecConfig,
    stats: KernelStats,
}

/// What a unitary op resolved to against the current slot map.
enum Resolved {
    /// No-op here (comment, or an unsatisfied classical control).
    Skip,
    /// An uncontrolled swap: exchanging the two wires' slots is the whole
    /// gate, with no amplitude traffic.
    Relabel(Wire, Wire),
    /// A slot-space gate for one of the two executors.
    Gate(WinGate),
}

impl StateVec {
    /// Creates an empty simulator (zero qubits) with a deterministic seed
    /// for measurement sampling and the default configuration.
    pub fn new(seed: u64) -> StateVec {
        StateVec::with_config(seed, StateVecConfig::default())
    }

    /// Creates an empty simulator with an explicit configuration.
    pub fn with_config(seed: u64, config: StateVecConfig) -> StateVec {
        StateVec {
            amps: vec![ONE],
            wires: Wires::default(),
            rng: StdRng::seed_from_u64(seed),
            config,
            stats: KernelStats::default(),
        }
    }

    /// Makes this simulator a copy of `snapshot` drawing from `seed`,
    /// reusing its allocations.
    fn restore(&mut self, snapshot: &StateVec, seed: u64) {
        self.amps.clone_from(&snapshot.amps);
        self.wires.clone_from(&snapshot.wires);
        self.rng = StdRng::seed_from_u64(seed);
        self.stats = KernelStats::default();
    }

    /// Number of currently live quantum wires.
    pub fn live_qubits(&self) -> usize {
        self.wires.qubits().len()
    }

    /// Kernel dispatch counters accumulated so far.
    pub fn kernel_stats(&self) -> KernelStats {
        self.stats
    }

    /// The raw amplitude vector (length `2^live_slots`), for tests and
    /// benchmarks that compare states across execution paths.
    ///
    /// The wire→slot assignment is execution-history dependent (allocation
    /// order, recycling, swap relabeling), so raw vectors from *different*
    /// circuits or executors are generally not comparable index by index —
    /// use [`canonical_amplitudes`](Self::canonical_amplitudes) for that.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// The amplitude vector re-indexed to a canonical basis: live quantum
    /// wires sorted by wire id become bits 0, 1, … of the index, and freed
    /// slots (which hold definite parked values) are projected out. Two
    /// simulations of equivalent circuits agree on this vector up to global
    /// phase and rounding, regardless of slot assignment or relabeling.
    pub fn canonical_amplitudes(&self) -> Vec<Complex> {
        let mut live: Vec<(Wire, usize)> = self.wires.qubits().collect();
        live.sort_by_key(|&(w, _)| w);
        let mut base = 0usize;
        for &(slot, val) in self.wires.parked() {
            if val {
                base |= 1usize << slot;
            }
        }
        let mut out = vec![ZERO; 1usize << live.len()];
        for (j, out_amp) in out.iter_mut().enumerate() {
            let mut i = base;
            for (k, &(_, slot)) in live.iter().enumerate() {
                if j & (1usize << k) != 0 {
                    i |= 1usize << slot;
                }
            }
            *out_amp = self.amps[i];
        }
        out
    }

    /// The value of a classical wire, if it has one.
    pub fn classical_value(&self, wire: Wire) -> Option<bool> {
        self.wires.bit(wire)
    }

    /// The probability that measuring `wire` would yield `value`.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is not a live quantum wire.
    pub fn probability(&self, wire: Wire, value: bool) -> f64 {
        let slot = self
            .wires
            .slot(wire)
            .expect("probability: wire is not a live qubit");
        self.slot_probability(slot, value)
    }

    /// The joint probability of a basis pattern over several wires.
    pub fn joint_probability(&self, pattern: &[(Wire, bool)]) -> f64 {
        let mut p = 0.0;
        'outer: for (i, a) in self.amps.iter().enumerate() {
            for &(w, v) in pattern {
                if let Ok(slot) = self.wires.slot(w) {
                    if (i & (1 << slot) != 0) != v {
                        continue 'outer;
                    }
                } else if self.wires.bit(w) != Some(v) {
                    return 0.0;
                }
            }
            p += a.norm_sqr();
        }
        p
    }

    fn kernel_ctx(&self) -> KernelCtx {
        KernelCtx {
            threads: self.config.threads,
            min_parallel_amps: 1usize
                .checked_shl(self.config.parallel_threshold)
                .unwrap_or(usize::MAX),
            simd: simd::available(),
        }
    }

    /// Probability of `slot` reading as `value`, summed block-wise over the
    /// target halves — visits the matching amplitudes in the same ascending
    /// order as a full scan, so the sum is bit-identical to the scan's.
    fn slot_probability(&self, slot: usize, value: bool) -> f64 {
        let bit = 1usize << slot;
        let mut p = 0.0;
        for block in self.amps.chunks_exact(2 * bit) {
            let half = if value { &block[bit..] } else { &block[..bit] };
            for a in half {
                p += a.norm_sqr();
            }
        }
        p
    }

    /// Projects `slot` onto `value` and renormalizes. Block-wise like
    /// [`slot_probability`](Self::slot_probability), with the same
    /// ascending-order norm sum.
    fn project(&mut self, slot: usize, value: bool) {
        let bit = 1usize << slot;
        let mut norm = 0.0;
        for block in self.amps.chunks_exact_mut(2 * bit) {
            let (lo, hi) = block.split_at_mut(bit);
            let (keep, zap) = if value { (hi, lo) } else { (lo, hi) };
            for a in zap {
                *a = ZERO;
            }
            for a in keep {
                norm += a.norm_sqr();
            }
        }
        let k = 1.0 / norm.sqrt();
        for a in &mut self.amps {
            *a = a.scale(k);
        }
    }

    /// The amplitude vector, for the oracle's own updates.
    pub(crate) fn amplitudes_mut(&mut self) -> &mut [Complex] {
        &mut self.amps
    }

    /// Folds the controls into a quantum bitmask test `(mask, want)`: index
    /// `i` fires iff `i & mask == want`. `None` if a classical control is
    /// unsatisfied (the gate is a no-op).
    pub(crate) fn resolve_controls(
        &self,
        controls: &[Control],
    ) -> Result<Option<(usize, usize)>, SimError> {
        let (mut mask, mut want) = (0usize, 0usize);
        let fires = self.wires.controls(controls, |slot, positive| {
            let bit = 1usize << slot;
            mask |= bit;
            if positive {
                want |= bit;
            }
        })?;
        Ok(fires.then_some((mask, want)))
    }

    /// Resolves one unitary op of a fused stream to slot space: the single
    /// place where controls become a mask, wires become slots and a matrix
    /// is classified. Both executors take what it returns.
    fn resolve(&self, op: &FusedOp) -> Result<Resolved, SimError> {
        match op {
            FusedOp::Gate(gate) => self.resolve_gate(gate),
            FusedOp::Unitary1q {
                wire,
                controls,
                mat,
                ..
            } => {
                let Some((mask, want)) = self.resolve_controls(controls)? else {
                    return Ok(Resolved::Skip);
                };
                let slot = self.wires.slot(*wire)?;
                Ok(Resolved::Gate(WinGate::from_mat2(slot, mat, mask, want)))
            }
        }
    }

    /// [`resolve`](Self::resolve) for a gate of the circuit. A gate that is
    /// not a unitary the simulator knows — an unknown name, or a known one
    /// with the wrong number of targets — is an error, not a panic: gate
    /// lists can be built by hand, unvalidated.
    fn resolve_gate(&self, gate: &Gate) -> Result<Resolved, SimError> {
        let unsupported = || SimError::UnsupportedGate {
            gate: gate.describe(),
            simulator: "state-vector",
        };
        let (targets, controls) = match gate {
            Gate::Comment { .. } => return Ok(Resolved::Skip),
            Gate::QGate {
                targets, controls, ..
            }
            | Gate::QRot {
                targets, controls, ..
            } => (&targets[..], controls),
            Gate::GPhase { controls, .. } => (&[][..], controls),
            _ => return Err(unsupported()),
        };
        let Some((mask, want)) = self.resolve_controls(controls)? else {
            return Ok(Resolved::Skip);
        };
        let resolved = match (gate, targets) {
            (Gate::GPhase { angle, .. }, []) => WinGate::Phase {
                k: Complex::cis(std::f64::consts::PI * angle),
                mask,
                want,
            },
            (
                Gate::QGate {
                    name: GateName::Swap,
                    ..
                },
                &[wa, wb],
            ) => {
                if mask == 0 {
                    return Ok(Resolved::Relabel(wa, wb));
                }
                let (a, b) = (self.wires.slot(wa)?, self.wires.slot(wb)?);
                WinGate::Swap2 { a, b, mask, want }
            }
            (
                Gate::QGate {
                    name: GateName::W, ..
                },
                &[wa, wb],
            ) => {
                let (a, b) = (self.wires.slot(wa)?, self.wires.slot(wb)?);
                WinGate::W2 { a, b, mask, want }
            }
            _ => {
                let (wire, m, _) = unary_matrix(gate).ok_or_else(unsupported)?;
                WinGate::from_mat2(self.wires.slot(wire)?, &m, mask, want)
            }
        };
        Ok(Resolved::Gate(resolved))
    }

    /// The standalone executor: one full-state pass for one resolved gate.
    fn apply_standalone(&mut self, gate: &WinGate) {
        let ctx = self.kernel_ctx();
        kernels::apply(&mut self.amps, gate, &ctx, &mut self.stats);
    }

    /// Carries out a resolved op on its own, outside any window.
    fn apply_resolved(&mut self, resolved: Resolved) -> Result<(), SimError> {
        match resolved {
            Resolved::Skip => Ok(()),
            Resolved::Relabel(wa, wb) => self.relabel_swap(wa, wb),
            Resolved::Gate(g) => {
                self.apply_standalone(&g);
                Ok(())
            }
        }
    }

    /// Executes one op of a fused stream on its own: resolve, then the
    /// standalone executor.
    ///
    /// # Errors
    ///
    /// As for [`apply`](Self::apply).
    pub fn apply_fused(&mut self, op: &FusedOp) -> Result<(), SimError> {
        match op {
            FusedOp::Gate(g) => self.apply(g),
            _ => {
                let resolved = self.resolve(op)?;
                self.apply_resolved(resolved)
            }
        }
    }

    /// Exchanges the slots of two live wires: an uncontrolled swap executed
    /// as pure bookkeeping, with no amplitude traffic.
    fn relabel_swap(&mut self, wa: Wire, wb: Wire) -> Result<(), SimError> {
        self.wires.relabel(wa, wb)?;
        self.stats.relabeled += 1;
        Ok(())
    }

    /// Executes a single gate: the wire gates as every simulator runs them,
    /// unitaries by resolving them and handing the result to the standalone
    /// executor. Subroutine calls must be inlined first (see [`run`]).
    ///
    /// # Errors
    ///
    /// Returns an error for unsupported gates (including known gates with
    /// the wrong number of targets), unknown wires or violated termination
    /// assertions.
    pub fn apply(&mut self, gate: &Gate) -> Result<(), SimError> {
        wires::apply(self, gate)
    }

    /// Executes `fused.ops[ops]` in order: planned window segments through
    /// the blocked executor, everything between them per op. `should_stop`
    /// is polled between ops and between windows; once it returns `true`
    /// the run is abandoned with [`SimError::Stopped`].
    ///
    /// `ops` must start between segments. Both callers' ranges do: op 0,
    /// or a measurement, which no segment contains.
    fn run_ops(
        &mut self,
        fused: &FusedCircuit,
        ops: std::ops::Range<usize>,
        should_stop: &dyn Fn() -> bool,
    ) -> Result<(), SimError> {
        let mut next_seg = fused.segments.partition_point(|s| s.start < ops.start);
        let mut i = ops.start;
        while i < ops.end {
            if should_stop() {
                return Err(SimError::Stopped);
            }
            if let Some(seg) = fused.segments.get(next_seg).filter(|s| s.start == i) {
                debug_assert!(seg.end <= ops.end, "segment straddles the range end");
                self.exec_segment(&fused.ops[seg.start..seg.end], should_stop)?;
                i = seg.end;
                next_seg += 1;
                continue;
            }
            self.apply_fused(&fused.ops[i])?;
            i += 1;
        }
        Ok(())
    }

    /// Executes a window segment (a run of unitary ops [`crate::fuse`]
    /// marked window-eligible) through the blocked executor: ops are
    /// resolved to slot space and buffered, and each full buffer is applied
    /// in one pass over the state. A two-slot gate reaching above the block
    /// boundary flushes the buffer and runs standalone; a gate demanding
    /// one high bit more than [`WINDOW_MAX_HIGH`] flushes and opens the
    /// next window.
    fn exec_segment(
        &mut self,
        ops: &[FusedOp],
        should_stop: &dyn Fn() -> bool,
    ) -> Result<(), SimError> {
        let block = (1usize << self.config.window_block_bits.min(62)).min(self.amps.len());
        let mut win: Vec<WinGate> = Vec::new();
        let mut demanded = 0usize;
        for op in ops {
            // Polled per op, so at the latest on the op after a window
            // sweep; an abandoned run's state is never read again.
            if should_stop() {
                return Err(SimError::Stopped);
            }
            match self.resolve(op)? {
                Resolved::Skip => {}
                Resolved::Relabel(wa, wb) => {
                    // Pure bookkeeping for *future* resolution; buffered
                    // gates hold already-resolved slots, so no flush.
                    self.relabel_swap(wa, wb)?;
                }
                Resolved::Gate(g) if !g.fits_window(block) => {
                    self.flush_window(&mut win, &mut demanded);
                    self.apply_standalone(&g);
                }
                Resolved::Gate(g) => {
                    let d = g.demand(block);
                    if d != 0 && demanded & d == 0 && demanded.count_ones() >= WINDOW_MAX_HIGH {
                        self.flush_window(&mut win, &mut demanded);
                    }
                    demanded |= d;
                    win.push(g);
                }
            }
        }
        self.flush_window(&mut win, &mut demanded);
        Ok(())
    }

    /// Applies and clears the buffered window. A single-gate window goes to
    /// the standalone executor — one gate gets no reuse out of a blocked
    /// sweep.
    fn flush_window(&mut self, win: &mut Vec<WinGate>, demanded: &mut usize) {
        *demanded = 0;
        if win.len() <= 1 {
            if let Some(g) = win.pop() {
                self.apply_standalone(&g);
            }
            return;
        }
        let ctx = self.kernel_ctx();
        window::execute(
            &mut self.amps,
            win,
            self.config.window_block_bits,
            &ctx,
            &mut self.stats,
        );
        win.clear();
    }
}

impl Simulator for StateVec {
    const NAME: &'static str = "state-vector";

    fn wires_mut(&mut self) -> &mut Wires {
        &mut self.wires
    }

    /// Doubles the amplitude vector in place; the new slot is |0⟩ (upper
    /// half zero), so growing with zeros is the whole job.
    fn grow(&mut self) -> usize {
        let len = self.amps.len();
        let slot = len.trailing_zeros() as usize;
        // Slots are only added when none is parked, so the slot count is
        // the peak of live qubits.
        quipper_trace::record_max(quipper_trace::names::LIVE_QUBITS_PEAK, slot as u64 + 1);
        self.amps.resize(len * 2, ZERO);
        slot
    }

    fn flip(&mut self, slot: usize) {
        self.apply_standalone(&WinGate::flip(slot));
    }

    fn measure(&mut self, slot: usize) -> bool {
        let p1 = self.slot_probability(slot, true);
        let outcome = self.rng.gen::<f64>() < p1;
        self.project(slot, outcome);
        outcome
    }

    fn assert(&mut self, slot: usize, value: bool) -> Result<(), f64> {
        let p = self.slot_probability(slot, value);
        if 1.0 - p > EPS {
            return Err(p);
        }
        self.project(slot, value);
        Ok(())
    }

    fn unitary(&mut self, gate: &Gate) -> Result<(), SimError> {
        let resolved = self.resolve_gate(gate)?;
        self.apply_resolved(resolved)
    }
}

/// The result of running a circuit to completion.
#[derive(Debug)]
pub struct RunResult {
    /// The simulator holding the final state.
    pub state: StateVec,
    /// The circuit's declared outputs.
    pub outputs: Vec<(Wire, WireType)>,
}

impl RunResult {
    /// The boolean value of the `i`-th output, which must be classical.
    ///
    /// # Panics
    ///
    /// Panics if the output is a quantum wire (measure it in the circuit, or
    /// inspect probabilities via [`RunResult::state`]).
    pub fn classical_output(&self, i: usize) -> bool {
        let (w, t) = self.outputs[i];
        assert_eq!(
            t,
            WireType::Classical,
            "output {i} is quantum; measure it first"
        );
        self.state
            .classical_value(w)
            .expect("classical output has a value")
    }

    /// All outputs interpreted as classical bits.
    ///
    /// # Panics
    ///
    /// As for [`RunResult::classical_output`].
    pub fn classical_outputs(&self) -> Vec<bool> {
        (0..self.outputs.len())
            .map(|i| self.classical_output(i))
            .collect()
    }
}

/// Runs a hierarchical circuit on the state-vector simulator.
///
/// Boxed subcircuits are inlined first; `inputs` supplies a basis-state
/// value for every circuit input wire; `seed` drives measurement sampling.
///
/// # Errors
///
/// Returns an error if inlining fails, the input arity is wrong, a gate is
/// unsupported, or a termination assertion is violated.
pub fn run(bc: &BCircuit, inputs: &[bool], seed: u64) -> Result<RunResult, SimError> {
    let flat = inline_all(&bc.db, &bc.main)?;
    run_flat(&flat, inputs, seed)
}

/// Runs an already-flattened circuit (no subroutine calls) for one shot,
/// with the default configuration.
///
/// This is the reusable single-shot entry point over an inlined circuit;
/// the flat circuit is only read, so runs can proceed concurrently over
/// one shared `&Circuit`. Shot loops should not call it per shot: fuse once
/// ([`crate::fuse::fuse_circuit`]) and [`evolve`] the shot-invariant prefix
/// once, then draw every shot from the [`Evolved`] state.
///
/// # Errors
///
/// As for [`run`], minus inlining errors.
pub fn run_flat(flat: &Circuit, inputs: &[bool], seed: u64) -> Result<RunResult, SimError> {
    run_flat_with(flat, inputs, seed, StateVecConfig::default())
}

/// Runs an already-flattened circuit with an explicit configuration: fuses
/// it ([`fuse_circuit`]) and runs the fused stream ([`run_fused`]).
///
/// # Errors
///
/// As for [`run_flat`].
pub fn run_flat_with(
    flat: &Circuit,
    inputs: &[bool],
    seed: u64,
    config: StateVecConfig,
) -> Result<RunResult, SimError> {
    run_fused(&fuse_circuit(flat), inputs, seed, config)
}

/// Feeds one run's kernel-dispatch counters into the process-wide metrics
/// registry, if tracing is enabled.
fn publish_kernel_metrics(sv: &StateVec) {
    if !quipper_trace::enabled() {
        return;
    }
    let stats = sv.kernel_stats();
    let m = quipper_trace::tracer().metrics();
    m.add(quipper_trace::names::KERNEL_DIAGONAL, stats.diagonal);
    m.add(quipper_trace::names::KERNEL_PERMUTATION, stats.permutation);
    m.add(quipper_trace::names::KERNEL_GENERAL, stats.general);
    m.add(quipper_trace::names::KERNEL_SUBCUBE, stats.subcube);
    m.add(quipper_trace::names::KERNEL_THREADED, stats.threaded);
    m.add(quipper_trace::names::KERNEL_WINDOWED, stats.windowed);
    m.add(quipper_trace::names::KERNEL_WINDOWS, stats.windows);
    m.add(quipper_trace::names::KERNEL_RELABELED, stats.relabeled);
}

/// Runs a pre-fused circuit, whole, for one shot: the oracle that
/// [`evolve`] + [`Shots::shot`] (prefix once, then each shot from the
/// evolved state) is tested against, seed for seed.
///
/// The stream decides what runs merged and what runs windowed; a stream
/// from [`segment_circuit`](crate::fuse::segment_circuit) runs the
/// circuit's own gates, unmerged, through the same windows.
///
/// # Errors
///
/// As for [`run_flat`].
pub fn run_fused(
    fused: &FusedCircuit,
    inputs: &[bool],
    seed: u64,
    config: StateVecConfig,
) -> Result<RunResult, SimError> {
    let mut sv = StateVec::with_config(seed, config);
    wires::bind_inputs(&mut sv, &fused.inputs, inputs)?;
    sv.run_ops(fused, 0..fused.ops.len(), &|| false)?;
    publish_kernel_metrics(&sv);
    Ok(RunResult {
        state: sv,
        outputs: fused.outputs.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quipper::{Circ, Qubit};

    #[test]
    fn bell_pair_has_even_correlations() {
        let bc = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            c.hadamard(a);
            c.cnot(b, a);
            (a, b)
        });
        let r = run(&bc, &[false, false], 7).unwrap();
        let (wa, _) = r.outputs[0];
        let (wb, _) = r.outputs[1];
        let p00 = r.state.joint_probability(&[(wa, false), (wb, false)]);
        let p11 = r.state.joint_probability(&[(wa, true), (wb, true)]);
        let p01 = r.state.joint_probability(&[(wa, false), (wb, true)]);
        assert!((p00 - 0.5).abs() < 1e-9);
        assert!((p11 - 0.5).abs() < 1e-9);
        assert!(p01.abs() < 1e-12);
    }

    #[test]
    fn measurement_statistics_follow_born_rule() {
        // Measure H|0⟩ many times: outcome frequencies ≈ 50/50 (paper §2).
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.hadamard(q);
            c.measure_bit(q)
        });
        let mut ones = 0;
        let n = 2000;
        for seed in 0..n {
            let r = run(&bc, &[false], seed).unwrap();
            if r.classical_output(0) {
                ones += 1;
            }
        }
        let frac = f64::from(ones) / f64::from(n as u32);
        assert!((frac - 0.5).abs() < 0.05, "measured fraction {frac}");
    }

    #[test]
    fn toffoli_truth_table() {
        let bc = Circ::build(
            &(false, false, false),
            |c, (a, b, t): (Qubit, Qubit, Qubit)| {
                c.toffoli(t, a, b);
                c.measure((a, b, t))
            },
        );
        for bits in 0..8u32 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let t = bits & 4 != 0;
            let r = run(&bc, &[a, b, t], 1).unwrap();
            let outs = r.classical_outputs();
            assert_eq!(outs[0], a);
            assert_eq!(outs[1], b);
            assert_eq!(outs[2], t ^ (a && b));
        }
    }

    #[test]
    fn violated_assertion_is_detected() {
        // Terminate a qubit in state |1⟩ while asserting |0⟩.
        let bc = Circ::build(&false, |c, q: Qubit| {
            let anc = c.qinit_bit(false);
            c.cnot(anc, q);
            c.qterm_bit(false, anc); // wrong if q = 1
            q
        });
        assert!(run(&bc, &[false], 1).is_ok());
        let err = run(&bc, &[true], 1).unwrap_err();
        assert!(matches!(err, SimError::AssertionFailed { .. }));
    }

    #[test]
    fn hadamard_twice_is_identity() {
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.hadamard(q);
            c.hadamard(q);
            q
        });
        let r = run(&bc, &[true], 1).unwrap();
        let (w, _) = r.outputs[0];
        assert!((r.state.probability(w, true) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn w_gate_mixes_01_and_10() {
        let bc = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            c.gate_w(a, b);
            (a, b)
        });
        // |01⟩ (a=0, b=1) → (|01⟩ + |10⟩)/√2.
        let r = run(&bc, &[false, true], 1).unwrap();
        let (wa, _) = r.outputs[0];
        let (wb, _) = r.outputs[1];
        assert!((r.state.joint_probability(&[(wa, false), (wb, true)]) - 0.5).abs() < 1e-9);
        assert!((r.state.joint_probability(&[(wa, true), (wb, false)]) - 0.5).abs() < 1e-9);
        // |00⟩ is fixed.
        let r = run(&bc, &[false, false], 1).unwrap();
        let (wa, _) = r.outputs[0];
        let (wb, _) = r.outputs[1];
        assert!((r.state.joint_probability(&[(wa, false), (wb, false)]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn w_gate_is_self_inverse_in_simulation() {
        let bc = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            c.gate_w(a, b);
            c.gate_w_inv(a, b);
            c.measure((a, b))
        });
        let r = run(&bc, &[true, false], 3).unwrap();
        assert_eq!(r.classical_outputs(), vec![true, false]);
    }

    #[test]
    fn ancilla_slots_are_reused() {
        // 50 sequential scoped ancillas must not blow up the state vector.
        let bc = Circ::build(&false, |c, q: Qubit| {
            for _ in 0..50 {
                c.with_ancilla(|c, a| {
                    c.cnot(a, q);
                    c.cnot(a, q);
                });
            }
            q
        });
        let r = run(&bc, &[true], 1).unwrap();
        assert!(
            r.state.amps.len() <= 4,
            "state vector grew: {}",
            r.state.amps.len()
        );
    }

    #[test]
    fn boxed_circuits_are_inlined_for_simulation() {
        let bc = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            let (a, b) = c.box_circ("flip", (a, b), |c, (a, b): (Qubit, Qubit)| {
                c.qnot(a);
                c.qnot(b);
                (a, b)
            });
            c.measure((a, b))
        });
        let r = run(&bc, &[false, true], 1).unwrap();
        assert_eq!(r.classical_outputs(), vec![true, false]);
    }

    #[test]
    fn swap_under_control() {
        let bc = Circ::build(
            &(false, false, false),
            |c, (s, a, b): (Qubit, Qubit, Qubit)| {
                c.with_controls(&s, |c| c.swap(a, b));
                c.measure((s, a, b))
            },
        );
        let r = run(&bc, &[true, true, false], 1).unwrap();
        assert_eq!(r.classical_outputs(), vec![true, false, true]);
        let r = run(&bc, &[false, true, false], 1).unwrap();
        assert_eq!(r.classical_outputs(), vec![false, true, false]);
    }

    #[test]
    fn reference_and_kernel_paths_agree_on_measured_outputs() {
        let bc = Circ::build(
            &(false, false, false),
            |c, (a, b, t): (Qubit, Qubit, Qubit)| {
                c.hadamard(a);
                c.gate_t(a);
                c.cnot(b, a);
                c.toffoli(t, a, b);
                c.hadamard(b);
                c.measure((a, b, t))
            },
        );
        let flat = inline_all(&bc.db, &bc.main).unwrap();
        for seed in 0..20 {
            let r =
                crate::reference::run_flat_reference(&flat, &[false, true, false], seed).unwrap();
            let k = run_flat_with(
                &flat,
                &[false, true, false],
                seed,
                StateVecConfig::default(),
            )
            .unwrap();
            assert_eq!(r.classical_outputs(), k.classical_outputs(), "seed {seed}");
        }
    }

    /// The gate-at-a-time path (the lifter's): each gate is resolved and
    /// dispatched to the kernel its matrix classifies to.
    #[test]
    fn kernel_stats_count_dispatches() {
        let bc = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            c.gate_t(a); // diagonal
            c.qnot(a); // permutation
            c.hadamard(b); // general
            c.swap(a, b); // relabeled
            (a, b)
        });
        let flat = inline_all(&bc.db, &bc.main).unwrap();
        let mut sv = StateVec::new(1);
        for &(w, t) in &flat.inputs {
            wires::add_input(&mut sv, w, t, false);
        }
        for gate in &flat.gates {
            sv.apply(gate).unwrap();
        }
        let s = sv.kernel_stats();
        assert_eq!(s.diagonal, 1);
        assert_eq!(s.permutation, 1);
        assert_eq!(s.general, 1);
        assert_eq!(s.relabeled, 1);
        assert_eq!(s.windows, 0);
    }

    /// A hand-built gate with the wrong number of targets is an
    /// `UnsupportedGate` error from every unitary arm of the resolver,
    /// gate-at-a-time and inside a window segment alike — never an
    /// out-of-bounds index — and from the stabilizer and the classical
    /// simulator too.
    #[test]
    fn wrong_target_arity_is_an_error_not_a_panic() {
        use crate::fuse::segment_circuit;
        let ws = [Wire(0), Wire(1), Wire(2)];
        let qgate = |name: GateName, n: usize| Gate::QGate {
            name,
            inverted: false,
            targets: ws[..n].to_vec(),
            controls: Vec::new(),
        };
        let qrot = |n: usize| Gate::QRot {
            name: "R(%)".into(),
            inverted: false,
            angle: 0.5,
            targets: ws[..n].to_vec(),
            controls: Vec::new(),
        };
        let bad = [
            qgate(GateName::H, 0),
            qgate(GateName::H, 2),
            qgate(GateName::X, 0),
            qgate(GateName::X, 3),
            qrot(0),
            qrot(2),
            qgate(GateName::Swap, 0),
            qgate(GateName::Swap, 1),
            qgate(GateName::Swap, 3),
            qgate(GateName::W, 0),
            qgate(GateName::W, 1),
            qgate(GateName::W, 3),
        ];
        let inputs: Vec<_> = ws.iter().map(|&w| (w, WireType::Quantum)).collect();
        for gate in &bad {
            let mut sv = StateVec::new(1);
            for &(w, t) in &inputs {
                wires::add_input(&mut sv, w, t, false);
            }
            let err = sv.apply(gate).unwrap_err();
            assert!(
                matches!(err, SimError::UnsupportedGate { .. }),
                "{gate:?}: {err:?}"
            );
            let alone = Circuit {
                inputs: inputs.clone(),
                gates: vec![gate.clone()],
                outputs: inputs.clone(),
                wire_bound: 3,
            };
            for err in [
                run_flat(&alone, &[false; 3], 1).unwrap_err(),
                crate::stabilizer::run_clifford_flat(&alone, &[false; 3], 1).unwrap_err(),
                crate::classical::run_classical_flat(&alone, &[false; 3]).unwrap_err(),
            ] {
                assert!(
                    matches!(err, SimError::UnsupportedGate { .. }),
                    "{gate:?} alone: {err:?}"
                );
            }

            // Next to a well-formed gate a bad Swap or W lands in a window
            // segment (which takes them by name); the others run between
            // segments.
            let flat = Circuit {
                inputs: inputs.clone(),
                gates: vec![qgate(GateName::H, 1), gate.clone()],
                outputs: inputs.clone(),
                wire_bound: 3,
            };
            let fused = segment_circuit(&flat);
            let two_slot = matches!(
                gate,
                Gate::QGate {
                    name: GateName::Swap | GateName::W,
                    ..
                }
            );
            assert_eq!(fused.segments.len(), usize::from(two_slot), "{gate:?}");
            let err = run_fused(&fused, &[false; 3], 1, StateVecConfig::default()).unwrap_err();
            assert!(
                matches!(err, SimError::UnsupportedGate { .. }),
                "{gate:?} in a fused stream: {err:?}"
            );
        }
    }
}
