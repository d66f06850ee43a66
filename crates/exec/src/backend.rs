//! The engine's three simulators, one per [`Route`]: the paper's
//! `run_classical_generic`, `run_clifford_generic` and `run_generic`
//! (§4.4.5). A job runs its plan's shot-invariant prefix once ([`prepare`])
//! and finishes its shots from the [`Prepared`] state through one
//! [`Worker`]. A [`Backend`] runs a plan one whole shot at a time: the
//! oracle that path is tested against, seed for seed.

use std::borrow::Cow;
use std::sync::Arc;

use quipper_sim::stabilizer::Stabilizer;
use quipper_sim::{
    evolve, evolve_clifford, run_classical_flat, run_clifford_flat, run_fused, Evolved,
    EvolvedClifford, Shots, SimError, StateVecConfig, Suffix,
};

use crate::error::ExecError;
use crate::plan::{Body, Plan};
use crate::profile::Route;

fn sim_err(route: Route) -> impl Fn(SimError) -> ExecError {
    let backend = route.name();
    move |source| ExecError::Sim { backend, source }
}

/// The refusal of a plan routed to another simulator, or of a hand-built
/// plan whose body is not the stream its route reads.
fn misrouted(plan: &Plan) -> ExecError {
    let reason = format!("plan is routed to `{}`", plan.route.name());
    ExecError::NoBackend { reason }
}

/// The simulator of one route, running a plan one whole shot at a time
/// ([`Engine::backends`](crate::Engine::backends)).
#[derive(Clone, Copy, Debug)]
pub struct Backend {
    pub(crate) route: Route,
    pub(crate) config: StateVecConfig,
}

impl Backend {
    /// Stable short name, used in reports: [`Route::name`].
    pub fn name(&self) -> &'static str {
        self.route.name()
    }

    /// Executes one shot of a compiled plan on basis-state `inputs`,
    /// returning the circuit's output bits. `seed` drives any measurement
    /// randomness; equal seeds give equal outcomes.
    ///
    /// # Errors
    ///
    /// [`ExecError::NoBackend`] for a plan routed to another simulator, and
    /// whatever the simulator raises.
    pub fn run_shot(
        &self,
        plan: &Plan,
        inputs: &[bool],
        seed: u64,
    ) -> Result<Vec<bool>, ExecError> {
        if plan.route != self.route {
            return Err(misrouted(plan));
        }
        let outputs = match (plan.route, &plan.body) {
            (Route::Classical, Body::Flat(flat)) => run_classical_flat(flat, inputs),
            (Route::Stabilizer, Body::Flat(flat)) => run_clifford_flat(flat, inputs, seed),
            // The engine samples only all-classical outputs, so this cannot
            // hit `classical_outputs`' quantum-output panic.
            (Route::StateVec, Body::Fused(fused)) => {
                run_fused(fused, inputs, seed, self.config).map(|run| run.classical_outputs())
            }
            _ => return Err(misrouted(plan)),
        };
        outputs.map_err(sim_err(plan.route))
    }
}

/// A job whose shot-invariant prefix has run: the state every shot starts
/// from, which its [`Worker`] reads.
pub(crate) enum Prepared<'a> {
    /// Nothing classical is random: the whole circuit ran, once.
    Classical {
        ops: usize,
        outputs: Vec<bool>,
    },
    Stabilizer(EvolvedClifford<'a>),
    StateVec(Evolved),
}

/// Runs, once, the longest run of `plan`'s ops that draws nothing from the
/// shot's RNG, on the simulator of its route. `should_stop` is polled while
/// it runs; once it returns `true` the run ends in [`SimError::Stopped`].
///
/// # Errors
///
/// Whatever the prefix raises, which [`Backend::run_shot`] would raise under
/// every seed.
pub(crate) fn prepare<'a>(
    plan: &'a Plan,
    inputs: &[bool],
    config: StateVecConfig,
    should_stop: &dyn Fn() -> bool,
) -> Result<Prepared<'a>, ExecError> {
    let err = sim_err(plan.route);
    Ok(match (plan.route, &plan.body) {
        (Route::Classical, Body::Flat(flat)) => Prepared::Classical {
            ops: plan.profile.num_gates,
            outputs: run_classical_flat(flat, inputs).map_err(err)?,
        },
        (Route::Stabilizer, Body::Flat(flat)) => {
            Prepared::Stabilizer(evolve_clifford(flat, inputs, should_stop).map_err(err)?)
        }
        (Route::StateVec, Body::Fused(fused)) => {
            Prepared::StateVec(evolve(Arc::clone(fused), inputs, config, should_stop).map_err(err)?)
        }
        _ => return Err(misrouted(plan)),
    })
}

impl Prepared<'_> {
    /// Ops of the plan that ran once, ahead of every shot.
    pub(crate) fn prefix_ops(&self) -> usize {
        match self {
            Prepared::Classical { ops, .. } => *ops,
            Prepared::Stabilizer(evolved) => evolved.prefix_ops(),
            Prepared::StateVec(evolved) => evolved.prefix_ops(),
        }
    }

    /// How a shot is finished from the prepared state.
    pub(crate) fn suffix(&self) -> Suffix {
        match self {
            Prepared::Classical { .. } => Suffix::Sampled,
            Prepared::Stabilizer(_) => Suffix::Branched,
            Prepared::StateVec(evolved) => evolved.suffix(),
        }
    }

    /// The job's shot runner, owning its scratch memory for the length of
    /// the job.
    pub(crate) fn worker(&self) -> Worker<'_> {
        match self {
            Prepared::Classical { outputs, .. } => Worker::Classical(outputs),
            Prepared::Stabilizer(evolved) => Worker::Stabilizer(evolved, Stabilizer::new(0)),
            Prepared::StateVec(evolved) => Worker::StateVec(evolved.shots()),
        }
    }
}

/// A job's shot runner. It lives on the stack for the length of the job;
/// boxing the large variants would cost every job an allocation.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Worker<'a> {
    Classical(&'a [bool]),
    /// The evolved state, and the scratch simulator each shot restores it
    /// into.
    Stabilizer(&'a EvolvedClifford<'a>, Stabilizer),
    StateVec(Shots<'a>),
}

impl Worker<'_> {
    /// Finishes one shot under `seed`: the same bits, or the same error, as
    /// [`Backend::run_shot`] under that seed. A classical shot's bits are
    /// the prefix's own, borrowed.
    pub(crate) fn run_shot(&mut self, seed: u64) -> Result<Cow<'_, [bool]>, ExecError> {
        match self {
            Worker::Classical(outputs) => Ok(Cow::Borrowed(*outputs)),
            Worker::Stabilizer(evolved, scratch) => evolved
                .shot(scratch, seed)
                .map(Cow::Owned)
                .map_err(sim_err(Route::Stabilizer)),
            Worker::StateVec(shots) => shots
                .shot(seed)
                .map(Cow::Owned)
                .map_err(sim_err(Route::StateVec)),
        }
    }
}
