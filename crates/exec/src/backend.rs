//! The backend abstraction and the built-in simulator adapters.
//!
//! Quipper separates circuit *description* from the run functions that
//! consume circuits (paper §4.4.5). A [`Backend`] packages one run function
//! behind a uniform interface; the engine runs each compiled plan on the
//! built-in backend its [`Route`](crate::Route) names, and hands the three
//! out ([`Engine::backends`](crate::Engine::backends)) for running a plan
//! one whole shot at a time:
//!
//! * [`ClassicalBackend`] — bit-per-wire permutation simulation, linear time.
//! * [`StabilizerBackend`] — CHP tableau simulation, polynomial in width.
//! * [`StateVecBackend`] — exact state vectors, exponential in width but
//!   universal.

use std::sync::Arc;

use quipper_circuit::Circuit;
use quipper_sim::{
    evolve, evolve_clifford, run_classical_flat, run_clifford_flat, run_fused, Evolved,
    EvolvedClifford, FusedCircuit, Shots, SimError, StateVecConfig, Suffix,
};

use crate::error::ExecError;
use crate::plan::{Body, Plan};
use crate::profile::Route;

/// A job whose shot-invariant prefix has run: the state every shot starts
/// from, shared read-only by the engine's workers.
pub trait PreparedJob: Send + Sync {
    /// Ops of the plan that ran once, ahead of every shot.
    fn prefix_ops(&self) -> usize;

    /// Whether a shot draws from the evolved state as it stands
    /// ([`Suffix::Sampled`], microseconds to milliseconds) or copies it and
    /// runs the remaining ops ([`Suffix::Branched`]).
    fn suffix(&self) -> Suffix;

    /// A shot runner for one worker thread, owning that worker's scratch
    /// memory for the length of the job.
    fn worker(&self) -> Box<dyn ShotWorker + '_>;
}

/// One worker's shot runner over a [`PreparedJob`].
pub trait ShotWorker {
    /// Finishes one shot under `seed`: the same bits, or the same error, as
    /// [`Backend::run_shot`] under that seed.
    fn run_shot(&mut self, seed: u64) -> Result<Vec<bool>, ExecError>;
}

/// A run function behind a uniform interface: the execution of a compiled
/// [`Plan`] routed to it.
///
/// Backends are stateless between jobs — per-job state lives in the
/// [`PreparedJob`], per-shot state in each worker's [`ShotWorker`] — so one
/// backend instance is shared (`Send + Sync`) across the engine's worker
/// threads.
pub trait Backend: Send + Sync {
    /// Stable short name, used in reports: the name of the route it runs
    /// ([`Route::name`](crate::Route::name)).
    fn name(&self) -> &'static str;

    /// Executes one shot of a compiled plan on basis-state `inputs`,
    /// returning the circuit's output bits. `seed` drives any measurement
    /// randomness; equal seeds give equal outcomes.
    fn run_shot(&self, plan: &Plan, inputs: &[bool], seed: u64) -> Result<Vec<bool>, ExecError>;

    /// Runs, once, the part of the plan that is the same for every shot —
    /// the longest run of ops that draws nothing from the shot's RNG — and
    /// returns the state shots are finished from. This is the engine's shot
    /// path; [`run_shot`](Backend::run_shot) is the oracle it is tested
    /// against, seed for seed.
    ///
    /// `should_stop` is polled while the prefix runs; once it returns
    /// `true` the backend gives up with [`SimError::Stopped`].
    ///
    /// # Errors
    ///
    /// Whatever the prefix raises, which [`run_shot`](Backend::run_shot)
    /// would raise under every seed.
    fn prepare<'a>(
        &'a self,
        plan: &'a Plan,
        inputs: &'a [bool],
        should_stop: &dyn Fn() -> bool,
    ) -> Result<Box<dyn PreparedJob + 'a>, ExecError>;
}

fn sim_err(route: Route) -> impl Fn(SimError) -> ExecError {
    let backend = route.name();
    move |source| ExecError::Sim { backend, source }
}

/// The refusal of a plan routed to another backend.
fn misrouted(plan: &Plan) -> ExecError {
    let reason = format!("plan is routed to `{}`", plan.route.name());
    ExecError::NoBackend { reason }
}

/// The flat circuit of a plan on a flat route.
fn flat(plan: &Plan) -> Result<&Circuit, ExecError> {
    match &plan.body {
        Body::Flat(flat) => Ok(flat),
        Body::Fused(_) => Err(misrouted(plan)),
    }
}

/// The fused stream of a plan on the state-vector route.
fn fused(plan: &Plan) -> Result<&Arc<FusedCircuit>, ExecError> {
    match &plan.body {
        Body::Fused(fused) => Ok(fused),
        Body::Flat(_) => Err(misrouted(plan)),
    }
}

/// Adapter over the exact state-vector simulator (`run_generic`): universal
/// but exponential in circuit width.
#[derive(Clone, Copy, Debug)]
pub struct StateVecBackend {
    /// What the kernels need to know about the host: threads per amplitude
    /// update and from what state size, and the window block size. What runs
    /// fused is the plan's business ([`Body::Fused`]), not the backend's.
    pub config: StateVecConfig,
}

impl Backend for StateVecBackend {
    fn name(&self) -> &'static str {
        Route::StateVec.name()
    }

    fn run_shot(&self, plan: &Plan, inputs: &[bool], seed: u64) -> Result<Vec<bool>, ExecError> {
        // Replay the plan's op stream, fused once at compile time.
        let result =
            run_fused(fused(plan)?, inputs, seed, self.config).map_err(sim_err(Route::StateVec))?;
        // The engine admits only all-classical-output circuits to sampling,
        // so this cannot hit `classical_outputs`' quantum-output panic.
        Ok(result.classical_outputs())
    }

    fn prepare<'a>(
        &'a self,
        plan: &'a Plan,
        inputs: &'a [bool],
        should_stop: &dyn Fn() -> bool,
    ) -> Result<Box<dyn PreparedJob + 'a>, ExecError> {
        // The same stream `run_shot` replays.
        let fused = Arc::clone(fused(plan)?);
        let evolved =
            evolve(fused, inputs, self.config, should_stop).map_err(sim_err(Route::StateVec))?;
        Ok(Box::new(evolved))
    }
}

impl PreparedJob for Evolved {
    fn prefix_ops(&self) -> usize {
        Evolved::prefix_ops(self)
    }

    fn suffix(&self) -> Suffix {
        Evolved::suffix(self)
    }

    fn worker(&self) -> Box<dyn ShotWorker + '_> {
        Box::new(self.shots())
    }
}

impl ShotWorker for Shots<'_> {
    fn run_shot(&mut self, seed: u64) -> Result<Vec<bool>, ExecError> {
        self.shot(seed).map_err(sim_err(Route::StateVec))
    }
}

/// Adapter over the bit-per-wire classical simulator
/// (`run_classical_generic`): linear time, deterministic, but only for
/// circuits that permute computational basis states.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassicalBackend;

impl Backend for ClassicalBackend {
    fn name(&self) -> &'static str {
        Route::Classical.name()
    }

    fn run_shot(&self, plan: &Plan, inputs: &[bool], _seed: u64) -> Result<Vec<bool>, ExecError> {
        run_classical_flat(flat(plan)?, inputs).map_err(sim_err(Route::Classical))
    }

    /// Nothing here is random, so the whole circuit is the prefix: it is
    /// evaluated once and every shot reports that evaluation.
    fn prepare<'a>(
        &'a self,
        plan: &'a Plan,
        inputs: &'a [bool],
        _should_stop: &dyn Fn() -> bool,
    ) -> Result<Box<dyn PreparedJob + 'a>, ExecError> {
        Ok(Box::new(Evaluated {
            ops: plan.profile.num_gates,
            outputs: self.run_shot(plan, inputs, 0)?,
        }))
    }
}

/// A classical circuit's one evaluation.
struct Evaluated {
    ops: usize,
    outputs: Vec<bool>,
}

impl PreparedJob for Evaluated {
    fn prefix_ops(&self) -> usize {
        self.ops
    }

    fn suffix(&self) -> Suffix {
        Suffix::Sampled
    }

    fn worker(&self) -> Box<dyn ShotWorker + '_> {
        Box::new(self)
    }
}

impl ShotWorker for &Evaluated {
    fn run_shot(&mut self, _seed: u64) -> Result<Vec<bool>, ExecError> {
        Ok(self.outputs.clone())
    }
}

/// Adapter over the CHP tableau simulator (`run_clifford_generic`):
/// polynomial in width, but only for Clifford circuits.
#[derive(Clone, Copy, Debug, Default)]
pub struct StabilizerBackend;

impl Backend for StabilizerBackend {
    fn name(&self) -> &'static str {
        Route::Stabilizer.name()
    }

    fn run_shot(&self, plan: &Plan, inputs: &[bool], seed: u64) -> Result<Vec<bool>, ExecError> {
        run_clifford_flat(flat(plan)?, inputs, seed).map_err(sim_err(Route::Stabilizer))
    }

    fn prepare<'a>(
        &'a self,
        plan: &'a Plan,
        inputs: &'a [bool],
        should_stop: &dyn Fn() -> bool,
    ) -> Result<Box<dyn PreparedJob + 'a>, ExecError> {
        let evolved: EvolvedClifford<'a> = evolve_clifford(flat(plan)?, inputs, should_stop)
            .map_err(sim_err(Route::Stabilizer))?;
        Ok(Box::new(evolved))
    }
}

impl PreparedJob for EvolvedClifford<'_> {
    fn prefix_ops(&self) -> usize {
        EvolvedClifford::prefix_ops(self)
    }

    fn suffix(&self) -> Suffix {
        Suffix::Branched
    }

    fn worker(&self) -> Box<dyn ShotWorker + '_> {
        Box::new(self)
    }
}

impl ShotWorker for &EvolvedClifford<'_> {
    fn run_shot(&mut self, seed: u64) -> Result<Vec<bool>, ExecError> {
        self.shot(seed).map_err(sim_err(Route::Stabilizer))
    }
}
