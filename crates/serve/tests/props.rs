//! Property tests of the service's determinism guarantees.
//!
//! The headline property: the service adds nothing to a job's result.
//! Because shot seeds derive from (job seed, shot index) alone, a job run
//! through the service's queue and worker pool produces output
//! bit-identical to the same job run sequentially on a plain engine.

use std::sync::Arc;

use proptest::prelude::*;
use quipper::{Circ, Qubit};
use quipper_circuit::BCircuit;
use quipper_exec::{Engine, Job};
use quipper_serve::{QuotaPolicy, Service, ServiceConfig, Submission};

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

    /// A service result is bit-identical to a plain sequential run: same
    /// circuit, same inputs, same seed — exactly the same histogram.
    #[test]
    fn service_results_match_a_plain_sequential_run(
        kind in any::<bool>(),
        n in 2usize..=4,
        shots in 1u64..20,
        seed in any::<u64>(),
    ) {
        let circuit = Arc::new(build(kind, n));
        let inputs = vec![false; n];

        // Reference: a plain engine, no service.
        let reference = Engine::new()
            .run_sequential(
                &Job::new(&circuit).inputs(&inputs).shots(shots).seed(seed),
            )
            .expect("reference run succeeds");

        // Candidate: the full service path.
        let service = Service::start(
            Engine::new(),
            ServiceConfig {
                workers: 1,
                queue_capacity: 4,
                quota: QuotaPolicy::unlimited(),
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
