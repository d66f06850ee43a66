//! `quipper-serve`: a multi-tenant circuit-execution service over the
//! `quipper-exec` engine.
//!
//! The paper's third phase — *circuit execution time* — assumes a long-lived
//! connection to a scarce, shared device (§2's dynamic lifting is an online
//! protocol). At realistic workload sizes that device must be multiplexed
//! across many clients, not owned by one process. This crate is that
//! multiplexer, dependency-free over the standard library:
//!
//! * [`Service`] — a worker-pool scheduler in front of one shared
//!   [`Engine`](quipper_exec::Engine). Submissions pass **admission
//!   control** (per-tenant token-bucket quotas, a bounded queue) and are
//!   executed in priority order, earliest deadline first. A full queue or an
//!   exhausted quota rejects *synchronously* with a retry-after hint — load
//!   sheds at the door instead of timing out inside.
//! * **One state, one lock** — the service's state is one plain struct,
//!   `Core` (`state.rs`), behind one `Mutex`.
//! * **Panic boundary** — a job's shots are a pure function of its plan,
//!   inputs and seed, so a job that failed would fail the same way again:
//!   nothing is retried. A panic inside the engine (a simulator bug)
//!   becomes that job's `failed: panicked: …`; the worker and every other
//!   job go on.
//! * **Deadlines and cancellation** — every job carries a
//!   [`CancelToken`](quipper_exec::CancelToken) that the exec shot loop
//!   polls between shot chunks, so a client cancel or a missed deadline
//!   stops real simulation work mid-job, not just unstarted dequeues.
//! * **One job path** — a worker asks the engine for the job's plan once
//!   ([`Engine::resolve`](quipper_exec::Engine::resolve)), then runs the
//!   shots on it
//!   ([`Engine::run_resolved`](quipper_exec::Engine::run_resolved)). This
//!   crate compiles nothing and hashes nothing: the engine's plan cache
//!   decides who compiles, and of concurrent jobs that miss on one circuit
//!   and optimizer level one compiles while the others wait and share its
//!   plan (counted as `serve.coalesced`). A job whose plan is cached waits
//!   for nobody.
//! * **Flight recorder** — every job stamps an always-on lifecycle timeline
//!   (admit → queue → compile → shots → terminal): `compile` when a worker
//!   picks the job up and asks for its plan, then `coalesce` if the plan
//!   came from another job's concurrent compile, stamped when that wait
//!   ended. The timeline lives in the job's record, for as long as the
//!   service remembers the job; failed and deadline-missed wire results
//!   carry theirs inline, and the `flight` op dumps them on demand.
//! * [`protocol`] / [`Server`] — a newline-delimited JSON protocol
//!   (submit/status/result/cancel/export/stats/metrics/flight) over
//!   `std::net::TcpListener`, served by the `quipper-served` binary.
//!
//! Everything observable lands in `quipper-trace` metrics: admissions,
//! rejections, deadline misses, coalesced compiles, the
//! admission-queue depth high-water mark, and per-tenant latency/queue-wait
//! histograms with SLO burn counters ([`ServiceConfig::slo`]) — all exportable through the
//! `metrics` protocol op in JSON Lines or Prometheus text form.

pub mod catalog;
pub mod flight;
pub mod protocol;
mod queue;
pub mod quota;
pub mod server;
pub mod service;
mod state;

pub use flight::{FlightEvent, FlightTimeline};
pub use quota::QuotaPolicy;
pub use server::Server;
pub use service::{
    JobId, JobState, JobStatus, RejectReason, Rejection, Service, ServiceConfig, ServiceStats,
    Submission,
};

// The service and its handles cross threads by design.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Service>();
};
