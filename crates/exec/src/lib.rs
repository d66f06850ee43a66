//! `quipper-exec`: a backend-abstracted execution engine for Quipper
//! circuits.
//!
//! Quipper keeps circuit *description* separate from the run functions that
//! consume circuits — printing, resource counting, and the various simulators
//! (paper §4.4.5). The lower crates each expose one run function; this crate
//! puts them all behind a single subsystem:
//!
//! * **Three simulators** — classical, stabilizer and state vector, one per
//!   [`Route`]; a job runs on the one its plan's route names, through one
//!   `match`: its shot-invariant prefix (everything before the first op that
//!   draws from the shot's RNG) once, then each shot from that state,
//!   bit-identical to one [`Backend::run_shot`] (the oracle, from
//!   [`Engine::backends`]) per seed. [`Engine::estimate`] is the run function
//!   that simulates nothing: gate counts, peak width and depth of the
//!   hierarchical circuit.
//! * **Routing at compile** — each circuit is profiled once
//!   ([`CircuitProfile`]); its plan's [`Route`] is the cheapest backend that
//!   runs it (classical, else the CHP tableau, else the state vector up to
//!   [`DEFAULT_MAX_QUBITS`]; else [`ExecError::NoBackend`]), and the plan
//!   keeps only the gate stream that backend reads ([`Body`]).
//! * [`Plan`] / [`PlanCache`] — validation and flattening happen once per
//!   structurally-distinct circuit, keyed by the stable circuit
//!   [`fingerprint`](quipper_circuit::fingerprint); repeat submissions skip
//!   straight to execution. The cache has one entry point,
//!   [`PlanCache::get_or_compile`]: it hashes the circuit once, answers a
//!   hit without waiting, and single-flights concurrent misses on one
//!   `(fingerprint, level)` — one caller compiles, the others wait and
//!   share its plan — telling each caller which it was ([`PlanSource`]).
//! * **One job path** — [`Engine::resolve`] (the job's plan, through the
//!   cache) then [`Engine::run_resolved`] (prefix, shots, merge).
//!   [`Engine::run`] is the two in a row; a scheduler (`quipper-serve`)
//!   calls each half once per job.
//! * **One lint gate** — every plan compilation runs only the lint passes
//!   that can find an error (`quipper_lint::errors`), and
//!   [`PlanCache::get_or_compile`] refuses a plan with one
//!   ([`ExecError::Lint`]) before anything is cached or executed; no report
//!   is kept. An ungated caller runs a [`Plan::compile_with`] plan through
//!   [`Engine::run_resolved`].
//! * [`Job`] — multi-shot scheduling over a worker thread pool, with
//!   deterministic per-shot seed derivation (`base_seed + shot_index`) so
//!   parallel results are bit-identical to sequential ones. Scheduling
//!   *across* jobs is `quipper_serve::Service`.
//! * [`ExecReport`] — per-job observability: shots, wall time, cache hit,
//!   the plan's backend and why. Cumulative numbers are the metrics
//!   registry's; the engine's [`EngineStats`] is only its plan cache's
//!   hit/miss/size.
//!
//! ```
//! use quipper::{Circ, Qubit};
//! use quipper_exec::{Engine, Job};
//!
//! let bell = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
//!     c.hadamard(a);
//!     c.cnot(b, a);
//!     (c.measure(a), c.measure(b))
//! });
//! let engine = Engine::new();
//! let job = Job::new(&bell).inputs(&[false, false]).shots(100).seed(7);
//! let result = engine.run(&job).unwrap();
//! assert_eq!(result.report.backend, "stabilizer"); // Clifford-only circuit
//! // Bell measurement outcomes are perfectly correlated.
//! assert!(result.histogram.iter().all(|(bits, _)| bits[0] == bits[1]));
//! ```

pub mod backend;
pub mod cancel;
pub mod engine;
pub mod error;
pub mod plan;
pub mod profile;

pub use backend::Backend;
pub use cancel::{CancelReason, CancelToken};
pub use engine::{
    Engine, EngineConfig, EngineStats, ExecReport, ExecResult, Job, PrefixReport, ResourceEstimate,
};
pub use error::ExecError;
pub use plan::{Body, Plan, PlanCache, PlanSource};
pub use profile::{profile, CircuitProfile, Route, DEFAULT_MAX_QUBITS};
pub use quipper_lint::LintReport;
pub use quipper_opt::{OptLevel, OptReport, OptSummary};
pub use quipper_sim::Suffix;
pub use quipper_trace::Tracer;

// The engine is shared across scoped worker threads; keep that a compile-time
// guarantee rather than an emergent property of field types.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<PlanCache>();
    assert_send_sync::<ExecError>();
    assert_send_sync::<ExecResult>();
};
