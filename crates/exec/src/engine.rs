//! The execution engine: jobs, shot scheduling on the plan's route, reports.
//!
//! [`Engine`] fronts every run function behind one subsystem. A [`Job`]
//! couples a circuit with inputs, a shot count and a base seed. Running one
//! is two halves: [`Engine::resolve`] turns the job's circuit into a plan
//! through the [`PlanCache`], and [`Engine::run_resolved`] runs the shots
//! on the simulator the plan's [`Route`] names, and returns an
//! [`ExecResult`] whose [`ExecReport`] records what happened.
//! [`Engine::run`] is the two in a row, shots fanned out over the worker
//! pool; the service calls the halves itself, one after the other.
//!
//! # Evolve once, sample many
//!
//! Every shot of a job runs the same ops on the same inputs until the first
//! op that draws from the shot's RNG. The engine therefore runs that
//! shot-invariant prefix once and each worker finishes its shots from the
//! prepared state. [`Backend::run_shot`], one whole circuit per shot, is the
//! oracle this is tested against.
//!
//! # Determinism
//!
//! Shot `i` always runs with seed `base_seed + i`, regardless of which worker
//! executes it, and per-shot outcomes are merged into a histogram by
//! commutative addition before a canonical sort (count descending, then
//! pattern ascending). Parallel results are therefore bit-identical to
//! sequential ones for the same base seed, and — the prefix drawing no
//! randomness — to one [`Backend::run_shot`] per seed.
//!
//! # What is counted where
//!
//! Each job's [`ExecReport`] says what that job did; the metrics registry
//! of the configured tracer sums it across jobs (`exec.route.*`,
//! `exec.shots_run`, `exec.cache.*`); the [`PlanCache`] counts its own
//! hits and misses, which [`Engine::stats`] reads. The engine keeps no
//! counter of its own beside them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use quipper::{Circ, QCData, Shape};
use quipper_circuit::count::{self, GateCount, Peak};
use quipper_circuit::BCircuit;
use quipper_opt::{OptLevel, OptSummary};
use quipper_sim::{FuseStats, SimError, SimLifter, StateVecConfig, Suffix};
use quipper_trace::{fmt_duration, names, Phase, Tracer};

use crate::backend::{prepare, Backend, Prepared};
use crate::cancel::{CancelReason, CancelToken};
use crate::error::ExecError;
use crate::plan::{Body, Plan, PlanCache, PlanSource};
use crate::profile::Route;

/// Tuning knobs for [`Engine::with_config`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads for multi-shot fan-out; `1` runs everything inline.
    pub workers: usize,
    /// Host settings of the state-vector kernels: threads and threading
    /// threshold, window block size. Plans are fused the same way whatever
    /// is set here.
    pub statevec: StateVecConfig,
    /// Tracing sink for spans, cache/routing events and latency metrics,
    /// and for the metrics of a `quipper_serve::Service` started over this
    /// engine. Defaults to the process-wide [`quipper_trace::tracer`]
    /// (disabled until someone enables it), which is all production uses.
    /// It stays a field because tests assert exact counts and need a sink
    /// no concurrent test touches: [`Tracer::leaked`] gives one
    /// (`deadline_fires_mid_prefix_on_a_wide_job` counts shots, cancels and
    /// cache hits of one job; the service tests count admissions).
    pub trace: &'static Tracer,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            statevec: StateVecConfig::default(),
            trace: quipper_trace::tracer(),
        }
    }
}

/// A unit of work: one circuit, its basis-state inputs, how many shots to
/// run, and the base seed. Built fluently:
///
/// ```ignore
/// let result = engine.run(&Job::new(&circuit).shots(1000).seed(42))?;
/// ```
#[derive(Clone, Debug)]
pub struct Job<'a> {
    circuit: &'a BCircuit,
    inputs: &'a [bool],
    shots: u64,
    base_seed: u64,
    cancel: Option<CancelToken>,
    opt: OptLevel,
}

impl<'a> Job<'a> {
    /// A single-shot job with no inputs and seed 0.
    pub fn new(circuit: &'a BCircuit) -> Job<'a> {
        Job {
            circuit,
            inputs: &[],
            shots: 1,
            base_seed: 0,
            cancel: None,
            opt: OptLevel::Default,
        }
    }

    /// Sets the basis-state values of the circuit's input wires.
    pub fn inputs(mut self, inputs: &'a [bool]) -> Self {
        self.inputs = inputs;
        self
    }

    /// Sets the number of shots.
    pub fn shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Sets the base seed; shot `i` runs with seed `base_seed + i`.
    pub fn seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Attaches a cancellation token. It is polled while the shot-invariant
    /// prefix runs and then between shots: once it fires, the remaining work
    /// is abandoned and the job fails with [`ExecError::Cancelled`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the optimizer level the job's plan is compiled at;
    /// [`OptLevel::Default`] unless set. Plans are cached per
    /// `(fingerprint, level)`, so a job at one level never receives a plan
    /// compiled at another.
    pub fn opt(mut self, level: OptLevel) -> Self {
        self.opt = level;
        self
    }
}

/// The part of a job that ran once, ahead of its shots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PrefixReport {
    /// Ops of the plan that ran once instead of once per shot.
    pub ops: usize,
    /// Wall-clock time they took (part of [`ExecReport::execute`]).
    pub time: Duration,
    /// How each shot was finished from the evolved state.
    pub suffix: Suffix,
}

/// What the engine did for one job, attached to every [`ExecResult`].
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Which backend executed the shots.
    pub backend: &'static str,
    /// Number of shots run.
    pub shots: u64,
    /// Worker threads actually used.
    pub workers: usize,
    /// Whether the plan came from the cache (or from another job's
    /// concurrent compile) instead of being compiled by this job.
    pub cache_hit: bool,
    /// Structural fingerprint of the circuit (the cache key).
    pub fingerprint: u64,
    /// Wall-clock time this job spent compiling its plan (validation,
    /// optimization, inlining, profiling, fusion); zero when it did not.
    pub compile: Duration,
    /// Wall-clock time spent executing: the prefix once, then the shots.
    pub execute: Duration,
    /// What ran once ahead of the shots. `None` for a job of zero shots
    /// (nothing runs), or for reports built outside the engine.
    pub prefix: Option<PrefixReport>,
    /// Fusion counters of the executed plan (static per plan, independent
    /// of shot count). `None` on the routes that never fuse.
    pub fuse: Option<FuseStats>,
    /// Why the job ran on `backend`: the routing decision derived from the
    /// plan's [`CircuitProfile`](crate::CircuitProfile) when it compiled.
    pub route_reason: String,
    /// What the optimizer did to the executed plan (static per plan).
    /// `None` when the plan was compiled at [`OptLevel::Off`].
    pub opt: Option<OptSummary>,
}

impl fmt::Display for ExecReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>6} shots on {:<10} | plan {:#018x} {} | workers {:<2} | compile {:>9} | exec {:>9} | ",
            self.shots,
            self.backend,
            self.fingerprint,
            if self.cache_hit { "hit " } else { "miss" },
            self.workers,
            fmt_duration(self.compile),
            fmt_duration(self.execute),
        )?;
        if let Some(fuse) = &self.fuse {
            write!(f, "fused {}/{} | ", fuse.fused_away, fuse.gates_in)?;
        }
        write!(f, "route: {}", self.route_reason)?;
        if let Some(prefix) = &self.prefix {
            write!(
                f,
                " | prefix: {} ops once in {}, {} shots",
                prefix.ops,
                fmt_duration(prefix.time),
                prefix.suffix.as_str(),
            )?;
        }
        if let Some(opt) = &self.opt {
            write!(f, " | opt: {opt}")?;
        }
        Ok(())
    }
}

/// The outcome histogram of a job plus its report.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// Distinct output bit patterns with their occurrence counts, sorted by
    /// count descending, ties broken by pattern ascending.
    pub histogram: Vec<(Vec<bool>, u64)>,
    /// What the engine did.
    pub report: ExecReport,
}

impl ExecResult {
    /// How many shots produced exactly this pattern.
    pub fn count_of(&self, pattern: &[bool]) -> u64 {
        self.histogram
            .iter()
            .find(|(p, _)| p == pattern)
            .map_or(0, |&(_, n)| n)
    }
}

/// What [`Engine::estimate`] counts, without running anything.
#[derive(Clone, Debug)]
pub struct ResourceEstimate {
    /// Gate counts by class, as printed by the paper's `print_generic`
    /// counting output.
    pub gates: GateCount,
    /// Peak simultaneously-alive wires.
    pub peak: Peak,
    /// Circuit depth (longest wire-dependency chain).
    pub depth: u128,
}

/// The plan cache's counters, snapshot via [`Engine::stats`]; the engine
/// keeps none of its own (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses (compilations).
    pub cache_misses: u64,
    /// Distinct plans currently cached.
    pub cached_plans: usize,
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12}{} hits / {} misses / {} cached",
            "plan cache", self.cache_hits, self.cache_misses, self.cached_plans
        )
    }
}

/// What a test engine runs at the top of every shot, given the shot's seed.
type ShotHook = dyn Fn(u64) + Send + Sync;

/// The execution engine: the plan cache, the worker pool width, and the
/// state-vector simulator's host settings. Shared freely across threads.
pub struct Engine {
    statevec: StateVecConfig,
    cache: PlanCache,
    workers: usize,
    trace: &'static Tracer,
    shot_hook: Option<Box<ShotHook>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with the default configuration: one worker per hardware
    /// thread.
    pub fn new() -> Engine {
        Engine::with_config(EngineConfig::default())
    }

    /// An engine with an explicit configuration.
    pub fn with_config(config: EngineConfig) -> Engine {
        Engine {
            statevec: config.statevec,
            cache: PlanCache::new(),
            workers: config.workers.max(1),
            trace: config.trace,
            shot_hook: None,
        }
    }

    /// A test seam: an engine that calls `hook` with the shot's seed at the
    /// top of every shot it runs. A hook that sleeps makes a slow job (for
    /// deadlines, cancels and backpressure); one that panics stands for a
    /// simulator bug (for the service's panic boundary). An engine built any
    /// other way has no hook, and pays one branch per shot for the seam.
    #[doc(hidden)]
    pub fn with_shot_hook(
        config: EngineConfig,
        hook: impl Fn(u64) + Send + Sync + 'static,
    ) -> Engine {
        Engine {
            shot_hook: Some(Box::new(hook)),
            ..Engine::with_config(config)
        }
    }

    /// The three simulators, one per [`Route`] in route order, for running
    /// a plan's shots one at a time ([`Backend::run_shot`], the oracle).
    pub fn backends(&self) -> impl Iterator<Item = Backend> {
        let config = self.statevec;
        [Route::Classical, Route::Stabilizer, Route::StateVec]
            .into_iter()
            .map(move |route| Backend { route, config })
    }

    /// Compiles (or fetches from cache) the plan for a circuit at
    /// [`OptLevel::Default`], the level of a [`Job`] that sets none. Useful
    /// for inspecting its profile and the route picked from it.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Circuit`] if validation or flattening fails,
    /// [`ExecError::NoBackend`] if no route admits the circuit, and
    /// [`ExecError::Lint`] if the lint gate finds an error in the optimized
    /// circuit.
    pub fn plan(&self, circuit: &BCircuit) -> Result<Arc<Plan>, ExecError> {
        Ok(self.cache.get_or_compile(circuit, OptLevel::Default)?.0)
    }

    /// The engine's plan cache, for hit/miss accounting and eviction.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The tracing sink set by [`EngineConfig::trace`].
    pub fn tracer(&self) -> &'static Tracer {
        self.trace
    }

    /// Runs a job: [`resolve`](Engine::resolve) its plan, then execute all
    /// shots over the worker pool on the plan's route, merge.
    ///
    /// # Errors
    ///
    /// Compilation (routing included), lint-gate and per-shot simulation
    /// errors. On a shot error
    /// the whole job fails with the error of the *lowest-indexed* failing
    /// shot, so parallel and sequential schedules report identically.
    pub fn run(&self, job: &Job) -> Result<ExecResult, ExecError> {
        let (plan, source) = self.resolve(job)?;
        self.run_plan(job, &plan, source, self.workers)
    }

    /// As [`Engine::run`], but forcing a sequential (single-worker) schedule.
    ///
    /// # Errors
    ///
    /// As for [`Engine::run`].
    pub fn run_sequential(&self, job: &Job) -> Result<ExecResult, ExecError> {
        let (plan, source) = self.resolve(job)?;
        self.run_resolved(job, &plan, source)
    }

    /// The first half of a run: the job's plan, from the cache or compiled
    /// into it, and which of the two (see [`PlanCache::get_or_compile`]; a
    /// concurrent job with the same circuit and level may have compiled it
    /// while this one waited). One fingerprint and one cache lookup; counted
    /// in `exec.cache.hit`/`exec.cache.miss`.
    ///
    /// # Errors
    ///
    /// As [`Engine::plan`].
    pub fn resolve(&self, job: &Job) -> Result<(Arc<Plan>, PlanSource), ExecError> {
        let trace = self.trace;
        let _span = trace.span(Phase::Compile, "plan.get_or_compile");
        let (plan, source) = self.cache.get_or_compile(job.circuit, job.opt)?;
        if trace.enabled() {
            let (metric, tag) = match source {
                PlanSource::Compiled => (names::CACHE_MISS, "miss"),
                PlanSource::Hit | PlanSource::Waited => (names::CACHE_HIT, "hit"),
            };
            trace.metrics().add(metric, 1);
            trace.instant(
                Phase::Compile,
                "plan.cache",
                Some(format!("{tag} plan {:#018x}", plan.fingerprint)),
            );
        }
        Ok((plan, source))
    }

    /// The second half of a run: runs the shots of a plan
    /// [`resolve`](Engine::resolve)d for `job` sequentially on the calling
    /// thread, on the simulator of the plan's route, and merges them. Compiles,
    /// lints and looks up nothing, so a caller may run a plan from
    /// [`Plan::compile_with`] that no lint gate has judged; `source` only
    /// feeds the report.
    ///
    /// # Errors
    ///
    /// [`ExecError::QuantumOutputs`] for a plan with a quantum output,
    /// [`ExecError::Cancelled`] once the job's token fires, and per-shot
    /// simulation errors, as for [`Engine::run`].
    pub fn run_resolved(
        &self,
        job: &Job,
        plan: &Plan,
        source: PlanSource,
    ) -> Result<ExecResult, ExecError> {
        self.run_plan(job, plan, source, 1)
    }

    fn run_plan(
        &self,
        job: &Job,
        plan: &Plan,
        source: PlanSource,
        workers: usize,
    ) -> Result<ExecResult, ExecError> {
        let trace = self.trace;
        let _job_span = trace.span(Phase::Execute, "engine.job");

        if trace.enabled() {
            trace.metrics().add(route_metric(plan.route), 1);
            trace
                .metrics()
                .record_max(names::PEAK_QUBITS, plan.profile.peak_qubits as u64);
            trace.instant(
                Phase::Execute,
                "route",
                Some(format!("{}: {}", plan.route.name(), plan.route_reason)),
            );
        }
        if !plan.profile.outputs_classical {
            return Err(ExecError::QuantumOutputs);
        }

        // A token that fired while the job was queued (or compiling) stops
        // the job before anything runs.
        if let Some(reason) = job.cancel.as_ref().and_then(|t| t.check().err()) {
            return Err(cancelled(trace, reason));
        }

        let workers = workers.clamp(1, job.shots.max(1) as usize);
        let start = Instant::now();
        // A job of zero shots runs nothing, not even the prefix (whose
        // errors are shot errors).
        let (histogram, prefix) = if job.shots == 0 {
            (Histogram::new(), None)
        } else {
            let (histogram, prefix) = execute(self, plan, job, workers)?;
            (histogram, Some(prefix))
        };
        let execute = start.elapsed();

        let mut histogram: Vec<(Vec<bool>, u64)> = histogram.into_iter().collect();
        histogram.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        Ok(ExecResult {
            histogram,
            report: ExecReport {
                backend: plan.route.name(),
                shots: job.shots,
                workers,
                cache_hit: source != PlanSource::Compiled,
                fingerprint: plan.fingerprint,
                compile: match source {
                    PlanSource::Compiled => plan.compile_time,
                    PlanSource::Hit | PlanSource::Waited => Duration::ZERO,
                },
                execute,
                prefix,
                fuse: match &plan.body {
                    Body::Fused(fused) => Some(fused.stats),
                    Body::Flat(_) => None,
                },
                route_reason: plan.route_reason.clone(),
                opt: plan.opt.as_ref().map(|r| r.summary()),
            },
        })
    }

    /// Resource estimation without execution — the paper's third run
    /// function beside printing and simulation (§4.4.5): walks the
    /// *hierarchical* circuit, multiplying through subroutine repetitions,
    /// without flattening it.
    pub fn estimate(&self, circuit: &BCircuit) -> ResourceEstimate {
        ResourceEstimate {
            gates: count::count(&circuit.db, &circuit.main),
            peak: count::max_alive(&circuit.db, &circuit.main),
            depth: count::depth(&circuit.db, &circuit.main),
        }
    }

    /// Builds a circuit interactively under a dynamic-lifting executor
    /// (paper §4.3): measurement outcomes observed by `dynamic_lift` inside
    /// `f` come from a state-vector simulation ([`SimLifter`]) seeded with
    /// `seed`, so the returned circuit records the path the computation
    /// really took.
    pub fn run_interactive<S: Shape, B: QCData>(
        &self,
        shape: &S,
        seed: u64,
        f: impl FnOnce(&mut Circ, S::Q) -> B,
    ) -> BCircuit {
        let lifter = Rc::new(RefCell::new(SimLifter::new(seed)));
        Circ::build_interactive(shape, lifter, f)
    }

    /// A snapshot of the plan cache's counters (the same numbers as
    /// [`PlanCache::hits`], [`PlanCache::misses`] and [`PlanCache::len`]).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cached_plans: self.cache.len(),
        }
    }
}

type Histogram = HashMap<Vec<bool>, u64>;

/// The routing-decision counter for a route.
fn route_metric(route: Route) -> &'static str {
    match route {
        Route::Classical => names::ROUTE_CLASSICAL,
        Route::Stabilizer => names::ROUTE_STABILIZER,
        Route::StateVec => names::ROUTE_STATEVEC,
    }
}

/// The error of a job whose token fired, counted in `exec.cancelled`.
fn cancelled(trace: &Tracer, reason: CancelReason) -> ExecError {
    if trace.enabled() {
        trace.metrics().add(names::EXEC_CANCELLED, 1);
    }
    ExecError::Cancelled { reason }
}

/// Runs a job's shots on `engine`: the shot-invariant prefix once
/// ([`prepare`]), then every shot from the prepared state, fanned out over
/// `workers`.
fn execute(
    engine: &Engine,
    plan: &Plan,
    job: &Job,
    workers: usize,
) -> Result<(Histogram, PrefixReport), ExecError> {
    let trace = engine.trace;
    let fired = || job.cancel.as_ref().and_then(|t| t.check().err());
    let start = Instant::now();
    let prepared = {
        let _span = trace.span(Phase::Execute, "prefix");
        prepare(plan, job.inputs, engine.statevec, &|| fired().is_some())
    };
    let prepared = prepared.map_err(|e| match (&e, fired()) {
        (
            ExecError::Sim {
                source: SimError::Stopped,
                ..
            },
            Some(reason),
        ) => cancelled(trace, reason),
        _ => e,
    })?;
    let prefix = PrefixReport {
        ops: prepared.prefix_ops(),
        time: start.elapsed(),
        suffix: prepared.suffix(),
    };
    if trace.enabled() {
        let m = trace.metrics();
        m.observe(names::PREFIX_US, prefix.time.as_micros() as u64);
        m.add(names::PREFIX_OPS, prefix.ops as u64);
        let finished = match prefix.suffix {
            Suffix::Sampled => names::SUFFIX_SAMPLED,
            Suffix::Branched => names::SUFFIX_BRANCHED,
        };
        m.add(finished, 1);
    }

    let task = ShotTask {
        prepared: &prepared,
        base_seed: job.base_seed,
        cancel: job.cancel.as_ref(),
        trace,
        hook: engine.shot_hook.as_deref(),
    };
    let _span = trace.span(Phase::Execute, "shots");
    let histogram = if workers == 1 {
        run_shots(&task, 0..job.shots).map_err(|(_, e)| e)?
    } else {
        run_shots_parallel(&task, job.shots, workers)?
    };
    Ok((histogram, prefix))
}

/// Everything a shot worker needs, shared read-only across workers.
struct ShotTask<'a> {
    prepared: &'a Prepared<'a>,
    base_seed: u64,
    cancel: Option<&'a CancelToken>,
    trace: &'a Tracer,
    hook: Option<&'a ShotHook>,
}

/// How many *sampled* shots run between cancellation polls. A sampled shot
/// can be sub-microsecond, where even a poll (a relaxed atomic load, plus a
/// clock read when a deadline is set) would show; a branched shot copies
/// the state and re-runs ops, so those poll before every shot.
const CANCEL_POLL_CHUNK: u64 = 8;

/// Runs a contiguous range of shots on one worker, accumulating a local
/// histogram. On error, reports the failing shot's index so callers can
/// pick the lowest-indexed error deterministically. The job's cancellation
/// token is polled before every branched shot and every
/// [`CANCEL_POLL_CHUNK`] sampled ones, so a fired token abandons
/// in-progress work rather than only unstarted jobs.
fn run_shots(task: &ShotTask, shots: std::ops::Range<u64>) -> Result<Histogram, (u64, ExecError)> {
    // Per-shot timing costs two clock reads; only pay them while tracing.
    let timed = task.trace.enabled();
    let first = shots.start;
    let poll_every = match task.prepared.suffix() {
        Suffix::Sampled => CANCEL_POLL_CHUNK,
        Suffix::Branched => 1,
    };
    let mut worker = task.prepared.worker();
    let mut histogram = Histogram::new();
    for shot in shots {
        if let Some(token) = task.cancel {
            if (shot - first).is_multiple_of(poll_every) {
                if let Err(reason) = token.check() {
                    return Err((shot, cancelled(task.trace, reason)));
                }
            }
        }
        let shot_start = timed.then(Instant::now);
        let seed = task.base_seed.wrapping_add(shot);
        if let Some(hook) = task.hook {
            hook(seed);
        }
        match worker.run_shot(seed) {
            Ok(bits) => *histogram.entry(bits).or_insert(0) += 1,
            Err(e) => return Err((shot, e)),
        }
        if timed {
            task.trace.metrics().add(names::SHOTS_RUN, 1);
        }
        if let Some(start) = shot_start {
            task.trace
                .metrics()
                .observe(names::SHOT_LATENCY_US, start.elapsed().as_micros() as u64);
        }
    }
    Ok(histogram)
}

/// Fans `shots` out over `workers` scoped threads, one contiguous chunk
/// each, and merges the per-worker histograms. Seeds depend only on the shot
/// index, and histogram addition commutes, so the merged result is
/// bit-identical to a sequential run.
fn run_shots_parallel(task: &ShotTask, shots: u64, workers: usize) -> Result<Histogram, ExecError> {
    let results: Vec<Result<Histogram, (u64, ExecError)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers as u64)
            .map(|i| (i * shots / workers as u64)..((i + 1) * shots / workers as u64))
            .map(|range| {
                scope.spawn(move || {
                    let _span = task.trace.enabled().then(|| {
                        task.trace.span(
                            Phase::Execute,
                            format!("shots[{}..{}]", range.start, range.end),
                        )
                    });
                    run_shots(task, range)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shot worker panicked"))
            .collect()
    });

    let mut merged = Histogram::new();
    let mut first_error: Option<(u64, ExecError)> = None;
    for result in results {
        match result {
            Ok(local) => {
                for (bits, n) in local {
                    *merged.entry(bits).or_insert(0) += n;
                }
            }
            Err((shot, e)) => {
                if first_error.as_ref().is_none_or(|(s, _)| shot < *s) {
                    first_error = Some((shot, e));
                }
            }
        }
    }
    match first_error {
        Some((_, e)) => Err(e),
        None => Ok(merged),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ExecReport {
        ExecReport {
            backend: "statevec",
            shots: 1000,
            workers: 4,
            cache_hit: false,
            fingerprint: 0xdead_beef,
            compile: Duration::from_micros(1_500),
            execute: Duration::from_micros(250),
            prefix: Some(PrefixReport {
                ops: 190,
                time: Duration::from_micros(120),
                suffix: Suffix::Sampled,
            }),
            fuse: Some(FuseStats {
                gates_in: 210,
                gates_out: 198,
                fused_away: 12,
            }),
            route_reason: "universal gate set; peak 9 qubits within state-vector cap".into(),
            opt: None,
        }
    }

    // Golden tests: the exact rendering is part of the interface (logs and
    // example output are diffed across PRs), so any change must be explicit.
    #[test]
    fn exec_report_display_golden() {
        assert_eq!(
            sample_report().to_string(),
            "  1000 shots on statevec   | plan 0x00000000deadbeef miss | workers 4  | \
             compile    1.50ms | exec  250.00µs | fused 12/210 | \
             route: universal gate set; peak 9 qubits within state-vector cap | \
             prefix: 190 ops once in 120.00µs, sampled shots"
        );
        // A report without a prefix (zero shots, or built outside the
        // engine) renders as it did before the prefix existed.
        let bare = ExecReport {
            prefix: None,
            ..sample_report()
        };
        assert!(bare.to_string().ends_with("within state-vector cap"));
    }

    #[test]
    fn exec_report_display_with_cache_hit() {
        let report = ExecReport {
            cache_hit: true,
            compile: Duration::from_nanos(480),
            execute: Duration::from_millis(2_500),
            prefix: Some(PrefixReport {
                ops: 12,
                time: Duration::from_millis(40),
                suffix: Suffix::Branched,
            }),
            ..sample_report()
        };
        assert_eq!(
            report.to_string(),
            "  1000 shots on statevec   | plan 0x00000000deadbeef hit  | workers 4  | \
             compile     480ns | exec     2.50s | fused 12/210 | \
             route: universal gate set; peak 9 qubits within state-vector cap | \
             prefix: 12 ops once in 40.00ms, branched shots"
        );
    }

    /// A plan on a flat route never fused, so its report has no `fused`
    /// segment.
    #[test]
    fn exec_report_display_leaves_out_fusion_on_flat_routes() {
        let report = ExecReport {
            backend: "stabilizer",
            fuse: None,
            route_reason: "Clifford-only circuit; polynomial stabilizer simulation".into(),
            prefix: None,
            ..sample_report()
        };
        assert_eq!(
            report.to_string(),
            "  1000 shots on stabilizer | plan 0x00000000deadbeef miss | workers 4  | \
             compile    1.50ms | exec  250.00µs | \
             route: Clifford-only circuit; polynomial stabilizer simulation"
        );
    }

    #[test]
    fn engine_stats_display_golden() {
        let stats = EngineStats {
            cache_hits: 2,
            cache_misses: 1,
            cached_plans: 1,
        };
        assert_eq!(
            stats.to_string(),
            "plan cache  2 hits / 1 misses / 1 cached"
        );
    }

    #[test]
    fn exec_report_display_mentions_opt_when_a_level_ran() {
        let report = ExecReport {
            opt: Some(OptSummary {
                level: OptLevel::Default,
                gates_before: 220,
                gates_after: 198,
                rewrites: 11,
            }),
            ..sample_report()
        };
        assert_eq!(
            report.to_string(),
            "  1000 shots on statevec   | plan 0x00000000deadbeef miss | workers 4  | \
             compile    1.50ms | exec  250.00µs | fused 12/210 | \
             route: universal gate set; peak 9 qubits within state-vector cap | \
             prefix: 190 ops once in 120.00µs, sampled shots | opt: default 220->198"
        );
    }
}
