//! What `drain` promises, and a way one job used to cost the whole
//! service:
//!
//! * `drain` returns only once every finished job's metrics are written;
//! * a submission after `shutdown` stayed queued forever, so `drain` never
//!   returned — it is now admitted already cancelled.
//!
//! (A panicking shot costs one job, not the service: the workspace's
//! `tests/failure_boundary.rs` checks that over a real socket.)
//!
//! Each scenario runs on its own thread and is given 10 s: a hang fails the
//! test instead of stalling the suite.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use quipper::{Circ, Qubit};
use quipper_circuit::BCircuit;
use quipper_exec::{Engine, EngineConfig};
use quipper_serve::{QuotaPolicy, Service, ServiceConfig, ServiceStats, Submission};
use quipper_trace::{names, Tracer};

fn ghz3() -> Arc<BCircuit> {
    Arc::new(Circ::build(&vec![false; 3], |c, qs: Vec<Qubit>| {
        c.hadamard(qs[0]);
        for w in qs.windows(2) {
            c.cnot(w[1], w[0]);
        }
        qs.into_iter().map(|q| c.measure(q)).collect::<Vec<_>>()
    }))
}

fn one_worker() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        quota: QuotaPolicy::unlimited(),
        ..ServiceConfig::default()
    }
}

/// Runs `scenario` on its own thread and returns what it returned, or fails
/// if it panicked or had not returned within 10 s.
fn within_10_s<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(scenario());
    });
    match outcome.recv_timeout(Duration::from_secs(10)) {
        Ok(value) => value,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("still running after 10 s"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the scenario panicked"),
    }
}

/// `drain` returns only after every finished job's metrics are written: the
/// last metric a job writes, its tenant's SLO check, agrees with the stats
/// right after `drain`, round after round.
#[test]
fn drain_returns_after_the_metrics_are_written() {
    within_10_s(|| {
        let trace = Tracer::leaked(4096);
        trace.set_enabled(true);
        let engine = Engine::with_config(EngineConfig {
            trace,
            ..EngineConfig::default()
        });
        let config = ServiceConfig {
            workers: 2,
            slo: Some(Duration::from_secs(60)),
            ..one_worker()
        };
        let service = Service::start(engine, config);
        let (metrics, circuit) = (trace.metrics(), ghz3());
        for round in 0..100 {
            for i in 0..16 {
                let job = Submission::new("t", Arc::clone(&circuit)).inputs(vec![false; 3]);
                let id = service.submit(job).unwrap();
                if i % 5 == 0 {
                    service.cancel(id);
                }
            }
            service.drain();
            let stats = service.stats();
            let written = [
                metrics.counter(names::SERVE_COMPLETED),
                metrics.counter(names::SERVE_CANCELLED),
                metrics.labeled_counter(names::SLO_CHECKED, &[("tenant", "t")]),
            ];
            let counted = [stats.completed, stats.cancelled, stats.terminal()];
            assert_eq!(written, counted, "round {round}");
        }
        service.shutdown();
    });
}

#[test]
fn a_submission_after_shutdown_is_cancelled_and_drain_returns() {
    let (state, stats) = within_10_s(|| {
        let service = Service::start(Engine::new(), one_worker());
        service.shutdown();
        let job = Submission::new("late", ghz3()).inputs(vec![false; 3]);
        let id = service.submit(job).expect("a closed service still answers");
        service.drain();
        let state = service.status(id).unwrap().state.tag();
        service.shutdown();
        (state, service.stats())
    });
    assert_eq!(state, "cancelled");
    let counted = ServiceStats {
        submitted: 1,
        admitted: 1,
        cancelled: 1,
        ..ServiceStats::default()
    };
    assert_eq!(stats, counted);
}
