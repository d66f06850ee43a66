//! Evolve once, sample many.
//!
//! Every shot of a job runs the same ops on the same inputs up to the first
//! op that draws from the shot's RNG. [`evolve`] runs that *prefix* once —
//! everything before the first `QMeas`/`QDiscard` — and keeps the resulting
//! state vector — amplitudes and wires — as an [`Evolved`] snapshot that
//! workers share read-only. A shot is then finished from `&Evolved` and its
//! seed in one of two ways ([`Suffix`]):
//!
//! * **Sampled** — the suffix is nothing but measurements and discards of
//!   live wires. The shot never copies the state: for each measurement it
//!   draws against the slot's probability and squeezes the kept half, scaled
//!   by `1/sqrt(norm)`, into a scratch buffer half the size, accumulating
//!   the next measurement's probabilities in the same pass. A worker keeps
//!   the squeezed states of its last shot, one per measurement, and a shot
//!   whose first outcomes repeat that shot's starts from where they part:
//!   the squeezed state is a function of the outcomes before it alone.
//! * **Branched** — anything else (mid-circuit measurement feeding classical
//!   controls, reset after measure, assertions after a measurement). The
//!   shot copies the snapshot into a per-worker simulator and continues
//!   through the ordinary executor from the split op.
//!
//! # Why shots stay bit-identical to [`run_fused`](super::run_fused)
//!
//! The prefix draws no randomness, so it computes the same amplitudes
//! whichever seed it runs under. From there the branched path *is* the
//! per-shot executor. The sampled path repeats `slot_probability` and
//! `project` term for term: a probability is a sum of `|a|²` in ascending
//! index order, and the amplitudes a projection zeroed contribute exact
//! `+0.0` terms to it, so summing only the survivors — which squeezing keeps
//! in ascending order — gives the same `f64`; the survivors themselves are
//! `a.scale(k)` with the same `k`. Equal probabilities against equal draws
//! give equal outcomes.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use quipper_circuit::{Gate, Wire, WireType};

use super::{publish_kernel_metrics, StateVec, StateVecConfig};
use crate::complex::Complex;
use crate::error::SimError;
use crate::fuse::{FusedCircuit, FusedOp};
use crate::wires;

/// How a shot is finished from an [`Evolved`] snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Suffix {
    /// Outcomes are drawn from the evolved state without copying it.
    Sampled,
    /// The evolved state is copied and the remaining ops are executed.
    Branched,
}

impl Suffix {
    /// Lower-case name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Suffix::Sampled => "sampled",
            Suffix::Branched => "branched",
        }
    }
}

/// The state of a fused circuit after its shot-invariant prefix, shared
/// read-only by every worker of a job. Built by [`evolve`].
#[derive(Debug)]
pub struct Evolved {
    fused: Arc<FusedCircuit>,
    /// First op of the suffix: `fused.ops[..split]` ran once.
    split: usize,
    /// The state after the prefix; its RNG is never drawn from.
    state: StateVec,
    /// `Some` when the suffix can be sampled.
    sampling: Option<Sampling>,
}

/// A suffix of terminal measurements, resolved against the snapshot.
#[derive(Debug)]
struct Sampling {
    /// One entry per `QMeas`/`QDiscard`, in op order: the measured slot's
    /// bit in the index space left after squeezing out the slots measured
    /// before it.
    bits: Vec<usize>,
    /// `(p0, p1)` of the first measurement: a property of the snapshot.
    first: (f64, f64),
    /// Where each circuit output's bit comes from.
    outputs: Vec<Output>,
}

#[derive(Clone, Copy, Debug)]
enum Output {
    /// Already classical when the prefix ended.
    Fixed(bool),
    /// The outcome of the `i`-th suffix measurement.
    Measured(usize),
}

/// Evolves the shot-invariant prefix of `fused` on basis-state `inputs`.
///
/// `should_stop` is polled between ops and between windows of the prefix;
/// once it returns `true` the run is abandoned with [`SimError::Stopped`].
///
/// # Errors
///
/// Input-arity mismatch, a non-classical circuit output (measure it in the
/// circuit), and any error the prefix itself raises — which every shot of
/// [`run_fused`](super::run_fused) would raise identically, the prefix
/// being the same for all seeds.
pub fn evolve(
    fused: Arc<FusedCircuit>,
    inputs: &[bool],
    config: StateVecConfig,
    should_stop: &dyn Fn() -> bool,
) -> Result<Evolved, SimError> {
    if fused.outputs.iter().any(|&(_, t)| t != WireType::Classical) {
        return Err(SimError::UnsupportedGate {
            gate: "quantum output when sampling shots (measure it first)".into(),
            simulator: "state-vector",
        });
    }
    let split = fused
        .ops
        .iter()
        .position(draws_randomness)
        .unwrap_or(fused.ops.len());

    // The prefix draws nothing, so the seed is immaterial.
    let mut sv = StateVec::with_config(0, config);
    // One allocation for the widest the state will get, instead of one
    // doubling (and copy) per `QInit`. Best effort: if it cannot be had,
    // the state still grows by doubling as far as it gets.
    if let Some(peak) = 1usize.checked_shl(peak_live_qubits(&fused) as u32) {
        let _ = sv
            .amps
            .try_reserve_exact(peak.saturating_sub(sv.amps.len()));
    }
    wires::bind_inputs(&mut sv, &fused.inputs, inputs)?;
    sv.run_ops(&fused, 0..split, should_stop)?;
    publish_kernel_metrics(&sv);

    let mut evolved = Evolved {
        fused,
        split,
        state: sv,
        sampling: None,
    };
    evolved.sampling = evolved.plan_sampling();
    Ok(evolved)
}

/// Whether an op consumes the shot's RNG on the state-vector simulator.
fn draws_randomness(op: &FusedOp) -> bool {
    matches!(
        op,
        FusedOp::Gate(Gate::QMeas { .. } | Gate::QDiscard { .. })
    )
}

/// The most qubits simultaneously live while `fused` runs, which is how many
/// slots the simulator ends up allocating.
fn peak_live_qubits(fused: &FusedCircuit) -> usize {
    let mut live = fused
        .inputs
        .iter()
        .filter(|&&(_, t)| t == WireType::Quantum)
        .count();
    let mut peak = live;
    for op in &fused.ops {
        match op {
            FusedOp::Gate(Gate::QInit { .. }) => {
                live += 1;
                peak = peak.max(live);
            }
            FusedOp::Gate(Gate::QTerm { .. } | Gate::QMeas { .. } | Gate::QDiscard { .. }) => {
                live = live.saturating_sub(1);
            }
            _ => {}
        }
    }
    peak
}

impl Evolved {
    /// How many ops of the fused stream ran once, in the prefix.
    pub fn prefix_ops(&self) -> usize {
        self.split
    }

    /// How shots are finished from this snapshot.
    pub fn suffix(&self) -> Suffix {
        if self.sampling.is_some() {
            Suffix::Sampled
        } else {
            Suffix::Branched
        }
    }

    /// A shot runner for one worker. It owns the worker's scratch memory
    /// (a half, a quarter, an eighth… of the state when sampling, so less
    /// than one state in all; one state copy when branching), allocated on
    /// first use and reused after.
    pub fn shots(&self) -> Shots<'_> {
        Shots {
            evolved: self,
            path: Vec::new(),
            kept: 0,
            outcomes: Vec::new(),
            branch: None,
        }
    }

    /// Resolves the suffix against the snapshot if it is only measurements
    /// and discards of distinct live wires (and comments); `None` sends
    /// every shot down the branched path, which also reproduces whatever
    /// error an ill-formed suffix raises.
    fn plan_sampling(&self) -> Option<Sampling> {
        let mut measured_slots: Vec<usize> = Vec::new();
        let mut bits = Vec::new();
        let mut measured_wires: HashMap<Wire, usize> = HashMap::new();
        for op in &self.fused.ops[self.split..] {
            let (wire, kept) = match op {
                FusedOp::Gate(Gate::QMeas { wire }) => (*wire, true),
                FusedOp::Gate(Gate::QDiscard { wire }) => (*wire, false),
                FusedOp::Gate(Gate::Comment { .. }) => continue,
                _ => return None,
            };
            let slot = self.state.wires.slot(wire).ok()?;
            if measured_slots.contains(&slot) {
                return None;
            }
            let below = measured_slots.iter().filter(|&&s| s < slot).count();
            bits.push(1usize << (slot - below));
            if kept {
                measured_wires.insert(wire, measured_slots.len());
            }
            measured_slots.push(slot);
        }
        let outputs = self
            .fused
            .outputs
            .iter()
            .map(|(w, _)| match measured_wires.get(w) {
                Some(&i) => Some(Output::Measured(i)),
                None => self.state.wires.bit(*w).map(Output::Fixed),
            })
            .collect::<Option<Vec<Output>>>()?;
        let first = bits
            .first()
            .map_or((0.0, 0.0), |&bit| weigh(&self.state.amps, bit));
        Some(Sampling {
            bits,
            first,
            outputs,
        })
    }
}

/// `(p0, p1)` of the slot at `bit`: each a sum of `|a|²` over its half of
/// the indices in ascending order, as `StateVec::slot_probability` sums.
fn weigh(amps: &[Complex], bit: usize) -> (f64, f64) {
    let (mut p0, mut p1) = (0.0f64, 0.0f64);
    for (i, a) in amps.iter().enumerate() {
        if i & bit != 0 {
            p1 += a.norm_sqr();
        } else {
            p0 += a.norm_sqr();
        }
    }
    (p0, p1)
}

/// Squeezes the half of `src` whose `bit` reads `outcome` into `dst`, scaled
/// by `k` — the amplitudes `StateVec::project` leaves non-zero, in the same
/// ascending order — and returns `(p0, p1)` of `next_bit` over `dst`.
fn squeeze(
    src: &[Complex],
    bit: usize,
    outcome: bool,
    k: f64,
    dst: &mut Vec<Complex>,
    next_bit: usize,
) -> (f64, f64) {
    let kept = if outcome { bit } else { 0 };
    let low = bit - 1;
    let (mut p0, mut p1) = (0.0f64, 0.0f64);
    dst.clear();
    dst.reserve_exact(src.len() / 2);
    // `j` counts through `dst`; its source index has `bit` spliced in.
    dst.extend((0..src.len() / 2).map(|j| {
        let a = src[(j & !low) << 1 | (j & low) | kept].scale(k);
        if j & next_bit != 0 {
            p1 += a.norm_sqr();
        } else {
            p0 += a.norm_sqr();
        }
        a
    }));
    (p0, p1)
}

/// One measurement of a worker's last sampled shot.
#[derive(Debug, Default)]
struct Step {
    outcome: bool,
    /// The state squeezed by this outcome and the ones before it.
    amps: Vec<Complex>,
    /// `(p0, p1)` of the next measurement over `amps`.
    next: (f64, f64),
}

/// One worker's shot runner over a shared [`Evolved`] snapshot.
#[derive(Debug)]
pub struct Shots<'a> {
    evolved: &'a Evolved,
    /// Sampled shots: one step per measurement but the last, whose state is
    /// never read. `path[i].amps` is squeezed from `path[i - 1].amps`.
    path: Vec<Step>,
    /// How many leading steps of `path` belong to one chain of outcomes;
    /// the steps after them are stale.
    kept: usize,
    outcomes: Vec<bool>,
    /// Branched shots: the simulator the snapshot is copied into.
    branch: Option<StateVec>,
}

impl Shots<'_> {
    /// Finishes one shot under `seed` and returns the circuit's output
    /// bits: the same bits, and the same error, as
    /// [`run_fused`](super::run_fused) under that seed.
    ///
    /// # Errors
    ///
    /// Whatever the suffix raises (a violated assertion after a
    /// measurement, an unknown wire).
    pub fn shot(&mut self, seed: u64) -> Result<Vec<bool>, SimError> {
        match &self.evolved.sampling {
            Some(sampling) => Ok(self.sample(sampling, seed)),
            None => self.branch(seed),
        }
    }

    fn sample(&mut self, sampling: &Sampling, seed: u64) -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(seed);
        let steps = sampling.bits.len().saturating_sub(1);
        if self.path.len() < steps {
            self.path.resize_with(steps, Step::default);
        }
        let (mut p0, mut p1) = sampling.first;
        self.outcomes.clear();
        for (i, &bit) in sampling.bits.iter().enumerate() {
            let outcome = rng.gen::<f64>() < p1;
            self.outcomes.push(outcome);
            // The state after the last measurement is never read.
            let Some(&next_bit) = sampling.bits.get(i + 1) else {
                break;
            };
            // Equal outcomes so far met equal probabilities, so they scale
            // by the same `k`: the last shot's step is this shot's too.
            if i >= self.kept || self.path[i].outcome != outcome {
                self.kept = i;
                let k = 1.0 / (if outcome { p1 } else { p0 }).sqrt();
                let (before, step) = self.path.split_at_mut(i);
                let src = before.last().map_or(&self.evolved.state.amps, |s| &s.amps);
                let step = &mut step[0];
                step.outcome = outcome;
                step.next = squeeze(src, bit, outcome, k, &mut step.amps, next_bit);
                self.kept = i + 1;
            }
            (p0, p1) = self.path[i].next;
        }
        sampling
            .outputs
            .iter()
            .map(|out| match *out {
                Output::Fixed(v) => v,
                Output::Measured(i) => self.outcomes[i],
            })
            .collect()
    }

    fn branch(&mut self, seed: u64) -> Result<Vec<bool>, SimError> {
        let e = self.evolved;
        let sv = self
            .branch
            .get_or_insert_with(|| StateVec::with_config(seed, e.state.config));
        sv.restore(&e.state, seed);
        sv.run_ops(&e.fused, e.split..e.fused.ops.len(), &|| false)?;
        publish_kernel_metrics(sv);
        wires::read_outputs(sv, &e.fused.outputs)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use quipper::{Circ, Qubit};
    use quipper_circuit::flatten::inline_all;
    use quipper_circuit::BCircuit;

    use super::*;
    use crate::fuse::fuse_circuit;
    use crate::statevec::run_fused;

    fn fused(bc: &BCircuit) -> Arc<FusedCircuit> {
        Arc::new(fuse_circuit(&inline_all(&bc.db, &bc.main).unwrap()))
    }

    /// `n` qubits each rotated by its own angle, two of them entangled,
    /// measured (or, every third, discarded) in an order that is not the
    /// slot order.
    fn product_state(n: usize) -> BCircuit {
        Circ::build(&vec![false; n], |c, qs: Vec<Qubit>| {
            for (i, &q) in qs.iter().enumerate() {
                c.rot("Ry(%)", 0.3 + 0.41 * i as f64, q);
            }
            c.cnot(qs[0], qs[n - 1]);
            let mut bits = Vec::new();
            for i in (0..n).map(|i| (i * 5 + 2) % n) {
                if i % 3 == 2 {
                    c.qdiscard(qs[i]);
                } else {
                    bits.push(c.measure_bit(qs[i]));
                }
            }
            bits
        })
    }

    #[test]
    fn sampled_shots_equal_whole_circuit_shots_seed_for_seed() {
        let n = 7; // coprime to the stride of 5, so every qubit is visited
        let fused = fused(&product_state(n));
        let config = StateVecConfig::default();
        let evolved = evolve(Arc::clone(&fused), &vec![false; n], config, &|| false).unwrap();
        assert_eq!(evolved.suffix(), Suffix::Sampled);
        let mut shots = evolved.shots();
        let mut ones = 0;
        for seed in 0..2000 {
            let oracle = run_fused(&fused, &vec![false; n], seed, config).unwrap();
            let sampled = shots.shot(seed).unwrap();
            assert_eq!(sampled, oracle.classical_outputs(), "seed {seed}");
            ones += sampled.iter().filter(|&&b| b).count();
        }
        assert!(ones > 1000, "the state is far from |0…0⟩");
    }

    #[test]
    fn scratch_is_allocated_once_per_measurement() {
        let fused = fused(&product_state(7));
        let evolved = evolve(fused, &[false; 7], StateVecConfig::default(), &|| false).unwrap();
        let mut shots = evolved.shots();
        shots.shot(1).unwrap();
        let buffers = |shots: &Shots| -> Vec<_> {
            let steps = shots.path.iter();
            steps
                .map(|s| (s.amps.as_ptr(), s.amps.capacity()))
                .collect()
        };
        let first = buffers(&shots);
        // Half the state, then a quarter, down to the last qubit but one.
        let sizes: Vec<usize> = first.iter().map(|b| b.1).collect();
        assert_eq!(sizes, [1 << 6, 1 << 5, 1 << 4, 1 << 3, 1 << 2, 1 << 1]);
        for seed in 2..50 {
            shots.shot(seed).unwrap();
        }
        assert_eq!(buffers(&shots), first);
    }

    /// A shot that repeats the last shot's outcomes squeezes nothing.
    #[test]
    fn a_shot_that_repeats_the_last_one_reuses_its_steps() {
        let n = 7;
        let fused = fused(&product_state(n));
        let config = StateVecConfig::default();
        let evolved = evolve(fused, &vec![false; n], config, &|| false).unwrap();
        let mut shots = evolved.shots();
        let first = shots.shot(3).unwrap();
        assert_eq!(shots.kept, n - 1);
        // Were a step squeezed again, it would overwrite the marks.
        let mark = Complex::new(f64::NAN, f64::NAN);
        for step in &mut shots.path {
            step.amps.fill(mark);
        }
        assert_eq!(shots.shot(3).unwrap(), first);
        let marked = |s: &Step| s.amps.iter().all(|a| a.re.is_nan());
        assert!(shots.path.iter().all(marked));
    }

    /// Ancillas recycle slots, so the state never outgrows the peak the
    /// prefix reserved up front.
    #[test]
    fn the_reserved_peak_is_what_the_prefix_allocates() {
        let bc = Circ::build(&vec![false; 3], |c, qs: Vec<Qubit>| {
            for _ in 0..4 {
                c.with_ancilla(|c, a| {
                    c.with_ancilla(|c, b| {
                        c.cnot(a, qs[0]);
                        c.cnot(b, a);
                        c.cnot(b, a);
                        c.cnot(a, qs[0]);
                    });
                });
                c.hadamard(qs[1]);
            }
            c.measure(qs)
        });
        let fused = fused(&bc);
        assert_eq!(peak_live_qubits(&fused), 5);
        let evolved = evolve(fused, &[true; 3], StateVecConfig::default(), &|| false).unwrap();
        assert_eq!(evolved.state.amps.len(), 1 << 5);
    }

    #[test]
    fn should_stop_is_polled_throughout_the_prefix() {
        // Forty layers that cannot share a window: each needs the one
        // before it finished on every qubit.
        let bc = Circ::build(&vec![false; 4], |c, qs: Vec<Qubit>| {
            for _ in 0..40 {
                for &q in &qs {
                    c.hadamard(q);
                    c.gate_t(q);
                }
                c.cnot(qs[0], qs[3]);
                c.cnot(qs[2], qs[1]);
            }
            c.measure(qs)
        });
        let fused = fused(&bc);
        let config = StateVecConfig::default();
        let polls = Cell::new(0u32);
        let count = || {
            polls.set(polls.get() + 1);
            false
        };
        let evolved = evolve(Arc::clone(&fused), &[false; 4], config, &count).unwrap();
        let total = polls.get();
        assert!(total as usize >= evolved.prefix_ops(), "one poll per op");

        // Stopping at any poll abandons the run there and then.
        for stop_at in [1, total / 2, total] {
            polls.set(0);
            let stop = || {
                polls.set(polls.get() + 1);
                polls.get() >= stop_at
            };
            let err = evolve(Arc::clone(&fused), &[false; 4], config, &stop).unwrap_err();
            assert_eq!(err, SimError::Stopped);
            assert_eq!(polls.get(), stop_at);
        }
    }

    #[test]
    fn an_assertion_after_a_measurement_branches() {
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.hadamard(q);
            let bit = c.measure_bit(q);
            let anc = c.qinit_bit(false);
            c.qnot_ctrl(anc, &bit);
            c.qterm_bit(false, anc); // holds only when the outcome was 0
            bit
        });
        let fused = fused(&bc);
        let config = StateVecConfig::default();
        let evolved = evolve(Arc::clone(&fused), &[false], config, &|| false).unwrap();
        assert_eq!(evolved.suffix(), Suffix::Branched);
        assert_eq!(evolved.prefix_ops(), 1);
        let mut shots = evolved.shots();
        let (mut passed, mut failed) = (0, 0);
        for seed in 0..40 {
            let oracle = run_fused(&fused, &[false], seed, config).map(|r| r.classical_outputs());
            let branched = shots.shot(seed);
            assert_eq!(branched, oracle, "seed {seed}");
            match branched {
                Ok(_) => passed += 1,
                Err(_) => failed += 1,
            }
        }
        assert!(passed > 5 && failed > 5, "{passed} passed, {failed} failed");
    }
}
