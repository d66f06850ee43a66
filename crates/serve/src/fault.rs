//! Seeded fault injection: a [`Backend`] wrapper that fails shots and adds
//! latency spikes with configured probabilities.
//!
//! The service's graceful-degradation story (retry, backoff, zero lost
//! jobs) is only credible if it can be demonstrated under faults; this
//! wrapper makes faults a reproducible input instead of an operational
//! anecdote. Draws are a pure function of `(seed, draw counter)`, so a
//! given configuration injects a deterministic fault *sequence* — the
//! per-shot result seeds are untouched, which is why a retried job remains
//! bit-identical to a fault-free run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use quipper_exec::{Backend, EngineConfig, ExecError, Plan, PreparedJob, ShotWorker, Suffix};
use quipper_trace::names;

use crate::unit_draw;

/// Fault-injection parameters.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Probability that a shot attempt fails with a transient fault.
    pub fail_prob: f64,
    /// Probability that a (non-faulted) shot is delayed by `spike`.
    pub spike_prob: f64,
    /// The injected latency spike.
    pub spike: Duration,
    /// Seed for the deterministic draw sequence.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            fail_prob: 0.0,
            spike_prob: 0.0,
            spike: Duration::from_millis(1),
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// A config that only injects transient failures.
    pub fn failing(fail_prob: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            fail_prob,
            seed,
            ..FaultConfig::default()
        }
    }
}

/// A [`Backend`] wrapper injecting transient faults and latency spikes in
/// front of an inner backend. Routing is transparent: the wrapper reports
/// the inner backend's name, so plans routed to it run through the wrapper.
pub struct FaultInjector {
    inner: Arc<dyn Backend>,
    config: FaultConfig,
    draws: AtomicU64,
    injected: AtomicU64,
}

impl FaultInjector {
    /// Wraps one backend.
    pub fn new(inner: Arc<dyn Backend>, config: FaultConfig) -> FaultInjector {
        FaultInjector {
            inner,
            config,
            draws: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Wraps every default backend of `engine_config`, giving each wrapper
    /// a distinct seed stream. The result slots straight into
    /// [`Engine::with_backends`](quipper_exec::Engine::with_backends).
    pub fn wrap_default_backends(
        engine_config: &EngineConfig,
        config: FaultConfig,
    ) -> Vec<Arc<dyn Backend>> {
        quipper_exec::Engine::default_backends(engine_config)
            .into_iter()
            .enumerate()
            .map(|(i, inner)| {
                let per_backend = FaultConfig {
                    seed: config.seed.wrapping_add(0x5151_0000 + i as u64),
                    ..config
                };
                Arc::new(FaultInjector::new(inner, per_backend)) as Arc<dyn Backend>
            })
            .collect()
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// One shot attempt's draws: fails it with a transient fault, or delays
    /// it by a latency spike, with the configured probabilities.
    fn inject(&self) -> Result<(), ExecError> {
        let n = self.draws.fetch_add(1, Ordering::Relaxed);
        let draw = unit_draw(self.config.seed ^ n.wrapping_mul(2));
        if draw < self.config.fail_prob {
            let k = self.injected.fetch_add(1, Ordering::Relaxed) + 1;
            quipper_trace::count(names::SERVE_FAULTS_INJECTED, 1);
            return Err(ExecError::Transient {
                backend: self.inner.name(),
                detail: format!("injected fault #{k}"),
            });
        }
        if unit_draw(self.config.seed ^ n.wrapping_mul(2).wrapping_add(1)) < self.config.spike_prob
        {
            std::thread::sleep(self.config.spike);
        }
        Ok(())
    }
}

/// The inner backend's prepared job, with every shot drawn from it still
/// passing through the injector: evolving the prefix once must not make
/// shots immune to faults.
struct FaultedJob<'a> {
    injector: &'a FaultInjector,
    inner: Box<dyn PreparedJob + 'a>,
}

impl PreparedJob for FaultedJob<'_> {
    fn prefix_ops(&self) -> usize {
        self.inner.prefix_ops()
    }

    fn suffix(&self) -> Suffix {
        self.inner.suffix()
    }

    fn worker(&self) -> Box<dyn ShotWorker + '_> {
        Box::new(FaultedWorker {
            injector: self.injector,
            inner: self.inner.worker(),
        })
    }
}

struct FaultedWorker<'a> {
    injector: &'a FaultInjector,
    inner: Box<dyn ShotWorker + 'a>,
}

impl ShotWorker for FaultedWorker<'_> {
    fn run_shot(&mut self, seed: u64) -> Result<Vec<bool>, ExecError> {
        self.injector.inject()?;
        self.inner.run_shot(seed)
    }
}

impl Backend for FaultInjector {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_shot(&self, plan: &Plan, inputs: &[bool], seed: u64) -> Result<Vec<bool>, ExecError> {
        self.inject()?;
        self.inner.run_shot(plan, inputs, seed)
    }

    fn prepare<'a>(
        &'a self,
        plan: &'a Plan,
        inputs: &'a [bool],
        should_stop: &dyn Fn() -> bool,
    ) -> Result<Box<dyn PreparedJob + 'a>, ExecError> {
        Ok(Box::new(FaultedJob {
            injector: self,
            inner: self.inner.prepare(plan, inputs, should_stop)?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quipper::{Circ, Qubit};
    use quipper_exec::{ClassicalBackend, Engine, Job, OptLevel};

    fn parity() -> quipper_circuit::BCircuit {
        Circ::build(
            &(vec![false; 2], false),
            |c, (xs, t): (Vec<Qubit>, Qubit)| {
                for &x in &xs {
                    c.cnot(t, x);
                }
                let ms: Vec<_> = xs.into_iter().map(|x| c.measure(x)).collect();
                (ms, c.measure(t))
            },
        )
    }

    #[test]
    fn injects_transient_faults_at_roughly_the_configured_rate() {
        let injector =
            FaultInjector::new(Arc::new(ClassicalBackend), FaultConfig::failing(0.25, 99));
        let plan = Plan::compile_with(&parity(), OptLevel::Off).unwrap();
        let mut faults = 0;
        for shot in 0..400 {
            match injector.run_shot(&plan, &[true, false, false], shot) {
                Ok(bits) => assert_eq!(bits, vec![true, false, true]),
                Err(e) => {
                    assert!(e.is_transient(), "unexpected error {e}");
                    faults += 1;
                }
            }
        }
        assert_eq!(faults, injector.injected());
        // 400 draws at p = 0.25: the seeded sequence lands well inside
        // (50, 150); exact value pinned by the seed.
        assert!((50..150).contains(&faults), "faults = {faults}");
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = || {
            let injector =
                FaultInjector::new(Arc::new(ClassicalBackend), FaultConfig::failing(0.3, 1234));
            let plan = Plan::compile_with(&parity(), OptLevel::Off).unwrap();
            (0..64)
                .map(|shot| {
                    injector
                        .run_shot(&plan, &[false, false, false], shot)
                        .is_err()
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    /// The engine prepares a job once and draws every shot from that state;
    /// each of those shots still goes through the injector.
    #[test]
    fn shots_of_a_prepared_job_still_pass_through_the_injector() {
        let config = EngineConfig::default();
        let bc = parity();
        let job = Job::new(&bc).inputs(vec![true, true, false]).shots(400);

        let wrapped = |fault: FaultConfig| {
            let backends: Vec<Arc<FaultInjector>> = Engine::default_backends(&config)
                .into_iter()
                .map(|inner| Arc::new(FaultInjector::new(inner, fault)))
                .collect();
            let engine = Engine::with_backends(
                config,
                backends
                    .iter()
                    .map(|b| Arc::clone(b) as Arc<dyn Backend>)
                    .collect(),
            );
            (engine, backends)
        };

        // Certain failure: the first shot faults, whatever the prefix did.
        let (engine, _) = wrapped(FaultConfig::failing(1.0, 7));
        assert!(engine.run_sequential(&job).unwrap_err().is_transient());

        // No failures, a spike on every shot: one draw per shot, none for
        // the prefix.
        let (engine, backends) = wrapped(FaultConfig {
            spike_prob: 1.0,
            spike: Duration::from_micros(1),
            ..FaultConfig::default()
        });
        engine.run_sequential(&job).unwrap();
        let draws: u64 = backends
            .iter()
            .map(|b| b.draws.load(Ordering::Relaxed))
            .sum();
        assert_eq!(draws, 400);
    }

    #[test]
    fn wrapped_engine_still_routes_and_runs() {
        let config = EngineConfig::default();
        let backends = FaultInjector::wrap_default_backends(&config, FaultConfig::failing(0.0, 0));
        let engine = Engine::with_backends(config, backends);
        let bc = parity();
        let result = engine
            .run(&Job::new(&bc).inputs(vec![true, true, false]).shots(20))
            .unwrap();
        assert_eq!(result.report.backend, "classical");
        assert_eq!(result.histogram.len(), 1);
    }
}
