//! Integration tests of the service's headline guarantees:
//!
//! * a mixed-tenant, 100-job load whose shots panic on a seeded subset of
//!   jobs loses nothing — every admitted job reaches a terminal state, and
//!   exactly the chosen jobs end `Failed`;
//! * deadlines and client cancels stop shot execution *mid-job*, visible
//!   in the exec trace metrics;
//! * a full queue and an empty quota reject synchronously with honest
//!   retry-after hints;
//! * identical concurrent submissions share compiles and agree bit-exactly;
//! * a job's flight timeline is in lifecycle order even when an idle worker
//!   picks it up at once.

use std::sync::Arc;
use std::time::{Duration, Instant};

use quipper::{Circ, Qubit};
use quipper_circuit::BCircuit;
use quipper_exec::{Engine, EngineConfig};
use quipper_serve::catalog::Catalog;
use quipper_serve::flight::phases;
use quipper_serve::{JobState, QuotaPolicy, RejectReason, Service, ServiceConfig, Submission};
use quipper_trace::{names, Tracer};

fn ghz(n: usize) -> BCircuit {
    Circ::build(&vec![false; n], |c, qs: Vec<Qubit>| {
        c.hadamard(qs[0]);
        for w in qs.windows(2) {
            c.cnot(w[1], w[0]);
        }
        qs.into_iter().map(|q| c.measure(q)).collect::<Vec<_>>()
    })
}

/// QFT-ish non-Clifford circuit: routes to the state-vector backend.
fn rotated(n: usize) -> BCircuit {
    Circ::build(&vec![false; n], |c, qs: Vec<Qubit>| {
        for (i, &q) in qs.iter().enumerate() {
            c.hadamard(q);
            c.rot("Ry(%)", 0.3 + 0.1 * i as f64, q);
        }
        qs.into_iter().map(|q| c.measure(q)).collect::<Vec<_>>()
    })
}

fn leaked_enabled_tracer() -> &'static Tracer {
    let trace = Tracer::leaked(4096);
    trace.set_enabled(true);
    trace
}

/// A service over an engine with a dedicated tracer (the service's metrics
/// land there too) that runs `hook` at the top of every shot.
fn hooked_service(
    trace: &'static Tracer,
    hook: impl Fn(u64) + Send + Sync + 'static,
    config: ServiceConfig,
) -> Service {
    let engine_config = EngineConfig {
        trace,
        ..EngineConfig::default()
    };
    Service::start(Engine::with_shot_hook(engine_config, hook), config)
}

/// A shot that takes 2 ms.
fn slow_shot(_seed: u64) {
    std::thread::sleep(Duration::from_millis(2));
}

/// Job `i` of the load runs shot seeds `i * SEEDS_PER_JOB` onwards, so a
/// shot's seed names its job.
const SEEDS_PER_JOB: u64 = 1_000;

/// Whether job `i` of the load is one whose shots panic: a seeded eighth of
/// the jobs no client cancels.
fn doomed(i: u64) -> bool {
    !i.is_multiple_of(9) && (i ^ 0xFA17).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61 == 0
}

/// The acceptance load: 100 jobs, four tenants, mixed circuits and shot
/// counts, a sprinkle of client cancels, and a simulator bug that panics
/// every shot of a seeded subset of the jobs. Zero lost jobs: everything
/// admitted terminates; the chosen jobs, and only they, end Failed with
/// the panic's message, and the rest end Completed or Cancelled
/// (deadlines here are generous).
#[test]
fn hundred_job_faulted_mixed_tenant_load_loses_nothing() {
    let trace = leaked_enabled_tracer();
    let service = hooked_service(
        trace,
        |seed| {
            if doomed(seed / SEEDS_PER_JOB) {
                panic!("a simulator bug");
            }
        },
        ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            quota: QuotaPolicy::unlimited(),
            ..ServiceConfig::default()
        },
    );

    let circuits: [(&str, usize, Arc<BCircuit>); 3] = [
        ("ghz3", 3, Arc::new(ghz(3))),
        ("ghz5", 5, Arc::new(ghz(5))),
        ("rot4", 4, Arc::new(rotated(4))),
    ];
    let tenants = ["alice", "bob", "carol", "dave"];

    let mut submitted = Vec::new();
    for i in 0..100u64 {
        let (name, arity, circuit) = &circuits[(i % 3) as usize];
        let shots = 1 + i % 8;
        let mut submission = Submission::new(tenants[(i % 4) as usize], Arc::clone(circuit))
            .label(format!("{name}-{i}"))
            .inputs(vec![false; *arity])
            .shots(shots)
            .seed(i * SEEDS_PER_JOB)
            .priority((i % 3) as u8);
        if i % 10 == 0 {
            // Generous deadlines: these jobs should still complete.
            submission = submission.deadline(Duration::from_secs(120));
        }
        let id = service.submit(submission).expect("load fits the queue");
        submitted.push((id, shots, format!("{name}-{i}")));
        if i % 9 == 0 {
            // A client changes its mind; queued or running, nothing is lost.
            service.cancel(id);
        }
    }

    service.drain();

    let (mut completed, mut cancelled, mut failed) = (0u64, 0u64, 0u64);
    for (i, (id, shots, label)) in submitted.iter().enumerate() {
        let status = service.status(*id).expect("admitted job is known");
        assert_eq!(&status.label, label);
        assert_eq!(
            matches!(status.state, JobState::Failed(_)),
            doomed(i as u64),
            "job {id} ended {}",
            status.state.tag()
        );
        match &status.state {
            JobState::Completed(result) => {
                completed += 1;
                let total: u64 = result.histogram.iter().map(|&(_, n)| n).sum();
                assert_eq!(total, *shots, "job {id} lost shots");
            }
            JobState::Cancelled => cancelled += 1,
            JobState::Failed(detail) => {
                failed += 1;
                assert_eq!(detail, "panicked: a simulator bug");
            }
            other => panic!("job {id} lost: ended {other:?}"),
        }
    }
    assert_eq!(
        completed + cancelled + failed,
        100,
        "every admitted job terminates"
    );
    assert!(cancelled <= 12, "cancels only affect targeted jobs");
    assert!(failed > 0, "the seeded subset is not empty");

    let stats = service.stats();
    assert_eq!(stats.submitted, 100);
    assert_eq!(stats.admitted, 100);
    assert_eq!(stats.terminal(), 100);
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.cancelled, cancelled);
    assert_eq!(stats.failed, failed);
    let metrics = trace.metrics();
    assert_eq!(metrics.counter(names::SERVE_ADMIT), 100);
    assert_eq!(metrics.counter(names::SERVE_COMPLETED), completed);
    assert_eq!(metrics.counter(names::SERVE_FAILED), failed);
    assert!(metrics.max(names::SERVE_QUEUE_DEPTH) > 0);

    service.shutdown();
}

/// A deadline fires while the shot loop is running: the job ends
/// `DeadlineExceeded`, and the trace metrics show execution stopped
/// mid-job — some shots ran, far fewer than requested.
#[test]
fn deadline_stops_shot_execution_mid_job() {
    let trace = leaked_enabled_tracer();
    // Every shot takes 2 ms, so the job cannot finish 50_000 shots inside
    // its deadline.
    let service = hooked_service(
        trace,
        slow_shot,
        ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            quota: QuotaPolicy::unlimited(),
            ..ServiceConfig::default()
        },
    );

    let id = service
        .submit(
            Submission::new("tenant", Arc::new(ghz(3)))
                .label("deadline-victim")
                .inputs(vec![false; 3])
                .shots(50_000)
                .deadline(Duration::from_millis(80)),
        )
        .unwrap();
    service.drain();

    let status = service.status(id).unwrap();
    assert!(
        matches!(status.state, JobState::DeadlineExceeded),
        "expected DeadlineExceeded, got {}",
        status.state.tag()
    );

    let metrics = trace.metrics();
    let shots_run = metrics.counter(names::SHOTS_RUN);
    assert!(shots_run > 0, "execution started before the deadline");
    assert!(
        shots_run < 50_000,
        "deadline interrupted the shot loop mid-job (ran {shots_run})"
    );
    assert!(metrics.counter(names::EXEC_CANCELLED) >= 1);
    assert_eq!(metrics.counter(names::SERVE_DEADLINE_MISS), 1);
    assert_eq!(service.stats().deadline_misses, 1);

    service.shutdown();
}

/// Cancelling a *running* job stops its shot loop the same way.
#[test]
fn cancel_stops_a_running_job_mid_execution() {
    let trace = leaked_enabled_tracer();
    let service = hooked_service(
        trace,
        slow_shot,
        ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            quota: QuotaPolicy::unlimited(),
            ..ServiceConfig::default()
        },
    );

    let id = service
        .submit(
            Submission::new("tenant", Arc::new(ghz(3)))
                .inputs(vec![false; 3])
                .shots(50_000),
        )
        .unwrap();
    // Wait for the worker to pick it up.
    let running_by = Instant::now() + Duration::from_secs(10);
    while !matches!(service.status(id).unwrap().state, JobState::Running) {
        assert!(Instant::now() < running_by, "job never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    service.cancel(id);
    service.drain();

    let status = service.status(id).unwrap();
    assert!(matches!(status.state, JobState::Cancelled));
    let metrics = trace.metrics();
    assert!(metrics.counter(names::SHOTS_RUN) < 50_000);
    assert!(metrics.counter(names::EXEC_CANCELLED) >= 1);
    assert_eq!(metrics.counter(names::SERVE_CANCELLED), 1);

    service.shutdown();
}

/// A full admission queue rejects synchronously with a positive
/// retry-after hint, and the rejection shows up in metrics — backpressure
/// at the door, not timeouts inside.
#[test]
fn full_queue_rejects_with_retry_hint() {
    let trace = leaked_enabled_tracer();
    let service = hooked_service(
        trace,
        slow_shot,
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            quota: QuotaPolicy::unlimited(),
            ..ServiceConfig::default()
        },
    );

    let slow = |label: &str| {
        Submission::new("tenant", Arc::new(ghz(3)))
            .label(label)
            .inputs(vec![false; 3])
            .shots(50_000)
    };
    // First job occupies the worker (eventually); second sits in the queue;
    // the queue has capacity 1, so a third must bounce.
    let a = service.submit(slow("runs")).unwrap();
    let mut queued = Vec::new();
    let rejection = loop {
        match service.submit(slow("queued")) {
            Ok(id) => queued.push(id),
            Err(rejection) => break rejection,
        }
        assert!(queued.len() <= 2, "capacity-1 queue admitted too much");
    };
    assert_eq!(rejection.reason, RejectReason::QueueFull);
    assert!(rejection.retry_after > Duration::ZERO);
    assert!(trace.metrics().counter(names::SERVE_REJECT_FULL) >= 1);
    assert_eq!(service.stats().rejected_queue_full, 1);

    // Nothing admitted is lost: cancel everything and drain.
    service.cancel(a);
    for id in queued {
        service.cancel(id);
    }
    service.drain();
    assert_eq!(service.stats().terminal(), service.stats().admitted);
    service.shutdown();
}

/// Quota exhaustion rejects with a retry-after hint and is per-tenant:
/// one tenant draining its bucket does not affect another.
#[test]
fn quota_rejections_are_per_tenant_with_hints() {
    let trace = leaked_enabled_tracer();
    let engine = Engine::with_config(EngineConfig {
        trace,
        ..EngineConfig::default()
    });
    let service = Service::start(
        engine,
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            quota: QuotaPolicy {
                capacity: 2.0,
                refill_per_sec: 0.5,
                cost_per_job: 1.0,
                cost_per_kshot: 0.0,
            },
            ..ServiceConfig::default()
        },
    );

    let cheap = |tenant: &str| {
        Submission::new(tenant, Arc::new(ghz(3)))
            .inputs(vec![false; 3])
            .shots(4)
    };
    service.submit(cheap("greedy")).unwrap();
    service.submit(cheap("greedy")).unwrap();
    let rejection = service.submit(cheap("greedy")).unwrap_err();
    assert_eq!(rejection.reason, RejectReason::QuotaExhausted);
    // Missing ~1 token at 0.5/s: the hint is honest (~2s).
    assert!(rejection.retry_after > Duration::from_millis(500));
    assert!(rejection.retry_after < Duration::from_secs(5));
    // Another tenant is unaffected.
    service.submit(cheap("frugal")).unwrap();
    assert!(trace.metrics().counter(names::SERVE_REJECT_QUOTA) >= 1);

    service.drain();
    assert_eq!(service.stats().failed, 0);
    service.shutdown();
}

/// A four-worker service over its own enabled tracer, and a submission to
/// send it in identical copies (one circuit, one seed).
fn service_and_a_job_to_copy() -> (&'static Tracer, Service, Submission) {
    let trace = leaked_enabled_tracer();
    let engine = Engine::with_config(EngineConfig {
        trace,
        ..EngineConfig::default()
    });
    let service = Service::start(
        engine,
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            quota: QuotaPolicy::unlimited(),
            ..ServiceConfig::default()
        },
    );

    let copy = Submission::new("tenant", Arc::new(rotated(4)))
        .inputs(vec![false; 4])
        .shots(64)
        .seed(99);
    (trace, service, copy)
}

/// Concurrent identical submissions: everyone completes, results are
/// bit-identical across all copies (same circuit, same seed), and the
/// engine compiled the plan exactly once — one job compiled it, and the
/// followers either waited on that compile or hit the plan cache.
#[test]
fn identical_concurrent_jobs_share_one_compile_and_agree() {
    let (trace, service, copy) = service_and_a_job_to_copy();
    let ids: Vec<_> = (0..12)
        .map(|i| {
            service
                .submit(copy.clone().label(format!("copy-{i}")))
                .unwrap()
        })
        .collect();
    service.drain();

    let reference = service.result(ids[0]).expect("first copy completed");
    for &id in &ids[1..] {
        let result = service.result(id).expect("copy completed");
        assert_eq!(
            result.histogram, reference.histogram,
            "same circuit + same seed must be bit-identical"
        );
    }
    assert_eq!(
        service.engine().plan_cache().misses(),
        1,
        "twelve identical jobs, one compile"
    );
    // Each job asked the cache once, and exactly one of them found it cold.
    assert_eq!(trace.metrics().counter(names::CACHE_MISS), 1);
    assert_eq!(trace.metrics().counter(names::CACHE_HIT), 11);
    let missed = ids
        .iter()
        .filter(|&&id| !service.result(id).unwrap().report.cache_hit)
        .count();
    assert_eq!(missed, 1, "the job that compiled says so in its report");
    let stats = service.stats();
    assert_eq!(stats.completed, 12);
    service.shutdown();
}

/// A warm batch: once one job has put the plan in the cache, concurrent
/// copies hit it without waiting on each other.
#[test]
fn warm_concurrent_jobs_hit_the_cache_without_waiting() {
    let (trace, service, copy) = service_and_a_job_to_copy();
    service.submit(copy.clone()).unwrap();
    service.drain();
    for _ in 0..12 {
        service.submit(copy.clone()).unwrap();
    }
    service.drain();

    let stats = service.stats();
    assert_eq!(stats.completed, 13);
    assert_eq!(stats.coalesced_compiles, 0, "a hit waits for nobody");
    assert_eq!(trace.metrics().counter(names::SERVE_COALESCED), 0);
    assert_eq!(stats.engine_cache_misses, 1);
    assert_eq!(stats.engine_cache_hits, 12);
    service.shutdown();
}

/// An idle worker can pop a job before `submit` returns; the `queue` stamp
/// must already be on the timeline when that worker stamps `compile`.
#[test]
fn flight_stamps_queue_before_compile_under_an_idle_worker() {
    let service = Service::start(
        Engine::new(),
        ServiceConfig {
            workers: 1,
            quota: QuotaPolicy::unlimited(),
            ..ServiceConfig::default()
        },
    );
    let circuit = Arc::new(ghz(2));
    for _ in 0..200 {
        // One job at a time, so the worker is idle at every submit.
        let job = Submission::new("tenant", Arc::clone(&circuit)).inputs(vec![false; 2]);
        let id = service.submit(job.shots(1)).unwrap();
        service.drain();
        let flight = service.flight(id).unwrap();
        assert_eq!(flight.state, "completed");
        let at = |phase| {
            let stamped = flight.events.iter().position(|e| e.phase == phase);
            stamped.unwrap_or_else(|| panic!("job {id}: no {phase} stamp"))
        };
        assert!(
            at(phases::QUEUE) < at(phases::COMPILE),
            "job {id}: {:?}",
            flight.events
        );
        for pair in flight.spans().windows(2) {
            assert_eq!(
                pair[0].1 + pair[0].2,
                pair[1].1,
                "job {id}: a span runs backwards"
            );
        }
    }
    service.shutdown();
}

/// Every circuit `list` names runs: submitted with its default all-false
/// inputs, each one ends with a histogram.
#[test]
fn every_listed_circuit_runs() {
    let catalog = Catalog::new();
    let service = Service::start(Engine::new(), ServiceConfig::default());
    for name in catalog.names() {
        let inputs = vec![false; catalog.input_arity(name).unwrap()];
        let id = service
            .submit(Submission::new("t", catalog.get(name).unwrap()).inputs(inputs))
            .unwrap();
        service.drain();
        let state = service.status(id).unwrap().state;
        assert!(
            service.result(id).is_some_and(|r| !r.histogram.is_empty()),
            "{name}: {state:?}"
        );
    }
    service.shutdown();
}
