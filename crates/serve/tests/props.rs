//! Property tests of the service's determinism guarantees.
//!
//! The headline property: fault-injected retry is *invisible* in results.
//! Because shot seeds derive from (job seed, shot index) and the fault
//! injector draws from its own seed stream, a job that survives transient
//! faults via retries produces output bit-identical to the same job run
//! fault-free on a plain engine.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use quipper::{Circ, Qubit};
use quipper_circuit::BCircuit;
use quipper_exec::{Engine, EngineConfig, Job};
use quipper_serve::{
    FaultConfig, FaultInjector, QuotaPolicy, RetryPolicy, Service, ServiceConfig, Submission,
};

/// GHZ chain: routes to the stabilizer backend.
fn ghz(n: usize) -> BCircuit {
    Circ::build(&vec![false; n], |c, qs: Vec<Qubit>| {
        c.hadamard(qs[0]);
        for w in qs.windows(2) {
            c.cnot(w[1], w[0]);
        }
        qs.into_iter().map(|q| c.measure(q)).collect::<Vec<_>>()
    })
}

/// Per-qubit rotations: non-Clifford, routes to the state-vector backend.
fn rotated(n: usize) -> BCircuit {
    Circ::build(&vec![false; n], |c, qs: Vec<Qubit>| {
        for (i, &q) in qs.iter().enumerate() {
            c.hadamard(q);
            c.rot("Ry(%)", 0.3 + 0.1 * i as f64, q);
        }
        qs.into_iter().map(|q| c.measure(q)).collect::<Vec<_>>()
    })
}

fn build(kind: bool, n: usize) -> BCircuit {
    if kind {
        ghz(n)
    } else {
        rotated(n)
    }
}

proptest! {
    // Each case spins up a real worker pool; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Retried jobs are bit-identical to a fault-free run: same circuit,
    /// same inputs, same seed, wildly different fault histories — exactly
    /// the same histogram.
    #[test]
    fn retried_jobs_match_the_fault_free_run(
        kind in any::<bool>(),
        n in 2usize..=4,
        shots in 1u64..20,
        seed in any::<u64>(),
        // The vendored proptest has no f64 range strategy; draw percent.
        fail_pct in 5u32..30,
        fault_seed in any::<u64>(),
    ) {
        let circuit = Arc::new(build(kind, n));
        let inputs = vec![false; n];

        // Reference: a plain engine, no faults, no service.
        let reference = Engine::new()
            .run_sequential(
                &Job::new(&circuit).inputs(inputs.clone()).shots(shots).seed(seed),
            )
            .expect("fault-free reference run succeeds");

        // Candidate: the full service path with injected faults. A fault can
        // hit any shot, so a whole attempt fails with probability
        // 1-(1-p)^shots ≤ 1-0.7^20 ≈ 0.9992; with 512 attempts the chance of
        // losing the job is ~1e-70 — effectively impossible, and the test
        // fails loudly (state != completed) if it ever happens.
        let engine_config = EngineConfig::default();
        let backends = FaultInjector::wrap_default_backends(
            &engine_config,
            FaultConfig::failing(f64::from(fail_pct) / 100.0, fault_seed),
        );
        let service = Service::start(
            Engine::with_backends(engine_config, backends),
            ServiceConfig {
                workers: 1,
                queue_capacity: 4,
                quota: QuotaPolicy::unlimited(),
                retry: RetryPolicy {
                    max_attempts: 512,
                    base: Duration::from_micros(100),
                    cap: Duration::from_millis(1),
                },
                ..ServiceConfig::default()
            },
        );
        let id = service
            .submit(
                Submission::new("prop", Arc::clone(&circuit))
                    .inputs(inputs)
                    .shots(shots)
                    .seed(seed),
            )
            .expect("queue has room");
        service.drain();

        let result = service.result(id).unwrap_or_else(|| {
            panic!(
                "job not completed: {}",
                service.status(id).unwrap().state.tag()
            )
        });
        prop_assert_eq!(&result.histogram, &reference.histogram);
        service.shutdown();
    }

    /// The service itself is replay-deterministic: submitting the same job
    /// twice (same seed) yields identical histograms, regardless of worker
    /// interleaving.
    #[test]
    fn resubmission_with_the_same_seed_replays_exactly(
        kind in any::<bool>(),
        n in 2usize..=4,
        shots in 1u64..32,
        seed in any::<u64>(),
    ) {
        let circuit = Arc::new(build(kind, n));
        let service = Service::start(
            Engine::new(),
            ServiceConfig {
                workers: 2,
                queue_capacity: 8,
                quota: QuotaPolicy::unlimited(),
                retry: RetryPolicy::default(),
                ..ServiceConfig::default()
            },
        );
        let submit = || {
            service
                .submit(
                    Submission::new("prop", Arc::clone(&circuit))
                        .inputs(vec![false; n])
                        .shots(shots)
                        .seed(seed),
                )
                .expect("queue has room")
        };
        let first = submit();
        let second = submit();
        service.drain();
        let a = service.result(first).expect("first run completed");
        let b = service.result(second).expect("second run completed");
        prop_assert_eq!(&a.histogram, &b.histogram);
        service.shutdown();
    }
}
