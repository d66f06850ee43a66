//! Compiled execution plans and the fingerprint-keyed plan cache.
//!
//! Preparing a circuit for execution — validation, inlining every boxed
//! subroutine (paper §4.4.4), and profiling for backend selection — costs as
//! much as a simulation shot for classical circuits, and repeated jobs over
//! the same circuit family (multi-shot sampling, benchmark sweeps) would pay
//! it every time. A [`Plan`] captures the prepared form once; the
//! [`PlanCache`] keys plans by the structural
//! [`fingerprint`](quipper_circuit::fingerprint) of the hierarchical circuit,
//! so a repeat submission skips validation and flattening entirely.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use quipper_circuit::flatten::inline_all;
use quipper_circuit::{validate, BCircuit, Circuit};
use quipper_lint::{LintReport, Severity};
use quipper_opt::{optimize, OptLevel, OptReport};
use quipper_sim::{fuse_circuit, FuseStats, FusedCircuit};

use crate::error::ExecError;
use crate::profile::{profile, CircuitProfile};

/// How strictly the engine's static-analysis gate treats lint findings when
/// compiling a plan.
///
/// The lint passes (`quipper-lint`) always run during [`Plan::compile`] and
/// their report travels with the plan; the gate only decides whether findings
/// *block* caching and execution. A plan that fails the gate is rejected with
/// [`ExecError::Lint`] and is **not** inserted into the cache, so a later
/// submission under a laxer gate recompiles and re-decides.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum LintGate {
    /// Never block; findings are still reported on the plan.
    Off,
    /// Block on error-severity findings (e.g. a provably violated
    /// assertive termination). The default.
    #[default]
    DenyErrors,
    /// Block on warning-severity findings and above.
    DenyWarnings,
}

impl LintGate {
    /// The severity at or above which this gate blocks, if any.
    pub fn threshold(self) -> Option<Severity> {
        match self {
            LintGate::Off => None,
            LintGate::DenyErrors => Some(Severity::Error),
            LintGate::DenyWarnings => Some(Severity::Warning),
        }
    }

    /// Checks a report against this gate.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Lint`] carrying a clone of the report when any
    /// finding reaches the gate's threshold.
    pub fn check(self, report: &LintReport) -> Result<(), ExecError> {
        match self.threshold() {
            Some(threshold) if report.fails_at(threshold) => Err(ExecError::Lint(report.clone())),
            _ => Ok(()),
        }
    }
}

/// A circuit prepared for repeated execution: validated, flattened, profiled
/// and gate-fused. Plans are immutable and shared (`Arc`) between the cache,
/// jobs in flight, and worker threads.
#[derive(Debug)]
pub struct Plan {
    /// Structural fingerprint of the *hierarchical* circuit this plan was
    /// compiled from (the cache key).
    pub fingerprint: u64,
    /// The flattened circuit: every subroutine call inlined.
    pub flat: Circuit,
    /// The flat circuit with runs of single-qubit gates fused, for backends
    /// that replay the stream many times (state vector). Fused once here so
    /// multi-shot jobs and cached resubmissions never re-fuse. Shared with
    /// each job's evolved prefix state, which outlives no plan but is
    /// simpler to hold without a borrow.
    pub fused: Arc<FusedCircuit>,
    /// Backend-selection profile of the flat circuit.
    pub profile: CircuitProfile,
    /// Static-analysis findings for the hierarchical circuit. Always
    /// populated; whether findings block execution is the [`LintGate`]'s
    /// decision, not the plan's. When an optimizer level is active the
    /// *rewritten* circuit is what gets linted — the gate must judge what
    /// will actually run.
    pub lint: LintReport,
    /// What the optimizer did, when a level other than
    /// [`OptLevel::Off`] was active at compile time.
    pub opt: Option<OptReport>,
    /// How long validation + optimization + inlining + profiling + fusion
    /// took.
    pub compile_time: Duration,
}

impl Plan {
    /// Validates, flattens, profiles and fuses a hierarchical circuit.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Circuit`] if validation or inlining fails.
    pub fn compile(bc: &BCircuit) -> Result<Plan, ExecError> {
        Plan::compile_with(bc, OptLevel::Off)
    }

    /// As [`Plan::compile`], but running the `quipper-opt` pipeline at
    /// `level` between validation and flattening. `OptLevel::Off`
    /// reproduces the unoptimized pipeline exactly. Lint runs on the
    /// *optimized* hierarchical circuit, so a [`LintGate`] judges the
    /// circuit that will actually execute.
    ///
    /// # Errors
    ///
    /// As [`Plan::compile`].
    pub fn compile_with(bc: &BCircuit, level: OptLevel) -> Result<Plan, ExecError> {
        let _span = quipper_trace::span(quipper_trace::Phase::Compile, "plan.compile");
        let start = Instant::now();
        // The plan is keyed by the fingerprint of the circuit *as
        // submitted* — rewriting must never change which cache slot a
        // submission lands in.
        let fingerprint = bc.fingerprint();
        validate::validate(&bc.db, &bc.main)?;
        let (bc, opt) = match level {
            OptLevel::Off => (bc.clone(), None),
            level => {
                let (optimized, report) = optimize(bc, level);
                // The rewritten hierarchy must still be well-formed; a pass
                // bug should surface here, not as a backend panic.
                validate::validate(&optimized.db, &optimized.main)?;
                (optimized, Some(report))
            }
        };
        // Lint the *hierarchical* circuit (box summaries need the call
        // structure), before flattening discards it.
        let lint = quipper_lint::lint(&bc);
        let flat = inline_all(&bc.db, &bc.main)?;
        let profile = {
            let _span = quipper_trace::span(quipper_trace::Phase::Compile, "profile");
            profile(&flat)
        };
        let fused = {
            let _span = quipper_trace::span(quipper_trace::Phase::Compile, "fuse");
            Arc::new(fuse_circuit(&flat))
        };
        Ok(Plan {
            fingerprint,
            flat,
            fused,
            profile,
            lint,
            opt,
            compile_time: start.elapsed(),
        })
    }

    /// What fusion did to this plan's gate stream (static per plan).
    pub fn fuse_stats(&self) -> FuseStats {
        self.fused.stats
    }
}

/// A thread-safe cache of compiled plans keyed by circuit fingerprint and
/// optimizer level, with hit/miss counters surfaced in execution reports.
///
/// The level is part of the key because the same circuit compiled at
/// different levels yields genuinely different plans (different flat gate
/// streams); a job asking for `Aggressive` must never receive a plan
/// compiled at `Off`.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<(u64, OptLevel), Arc<Plan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Returns the cached plan for this circuit, compiling and inserting it
    /// on first sight. The boolean is `true` on a cache hit.
    ///
    /// # Errors
    ///
    /// Propagates [`Plan::compile`] errors; failed compilations are not
    /// cached.
    pub fn get_or_compile(&self, bc: &BCircuit) -> Result<(Arc<Plan>, bool), ExecError> {
        self.get_or_compile_opt(bc, LintGate::Off, OptLevel::Off)
    }

    /// As [`PlanCache::get_or_compile`], but refusing plans whose lint report
    /// fails `gate`. The gate is applied on the cache-hit path too (the plan
    /// may have been admitted under a laxer gate), and a rejected compilation
    /// is **not** cached — the cache only ever holds plans that passed the
    /// gate they were compiled under.
    ///
    /// # Errors
    ///
    /// [`ExecError::Lint`] when the report fails the gate, plus all
    /// [`Plan::compile`] errors.
    pub fn get_or_compile_gated(
        &self,
        bc: &BCircuit,
        gate: LintGate,
    ) -> Result<(Arc<Plan>, bool), ExecError> {
        self.get_or_compile_opt(bc, gate, OptLevel::Off)
    }

    /// As [`PlanCache::get_or_compile_gated`], but compiling at the given
    /// optimizer level. Plans are cached per `(fingerprint, level)`, so
    /// mixed-level workloads over the same circuit coexist in the cache.
    ///
    /// # Errors
    ///
    /// As [`PlanCache::get_or_compile_gated`].
    pub fn get_or_compile_opt(
        &self,
        bc: &BCircuit,
        gate: LintGate,
        level: OptLevel,
    ) -> Result<(Arc<Plan>, bool), ExecError> {
        let key = (bc.fingerprint(), level);
        if let Some(plan) = self.plans.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let plan = Arc::clone(plan);
            gate.check(&plan.lint)?;
            return Ok((plan, true));
        }
        // Compile outside the lock: plans can be large and compilation is the
        // expensive path. Two threads racing on the same new circuit both
        // compile; the entry is just overwritten with an identical plan.
        let plan = Arc::new(Plan::compile_with(bc, level)?);
        gate.check(&plan.lint)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.plans.lock().unwrap().insert(key, Arc::clone(&plan));
        Ok((plan, false))
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (compilations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct plans currently cached.
    pub fn len(&self) -> usize {
        self.plans.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached plans and resets the counters.
    pub fn clear(&self) {
        self.plans.lock().unwrap().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quipper::{Circ, Qubit};

    fn bell() -> BCircuit {
        Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            c.hadamard(a);
            c.cnot(b, a);
            (c.measure(a), c.measure(b))
        })
    }

    #[test]
    fn repeat_submission_hits_cache() {
        let cache = PlanCache::new();
        let bc = bell();
        let (p1, hit1) = cache.get_or_compile(&bc).unwrap();
        let (p2, hit2) = cache.get_or_compile(&bc).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn structurally_equal_circuits_share_a_plan() {
        // Two independent builds of the same circuit fingerprint identically.
        let cache = PlanCache::new();
        cache.get_or_compile(&bell()).unwrap();
        let (_, hit) = cache.get_or_compile(&bell()).unwrap();
        assert!(hit);
        assert_eq!(cache.len(), 1);
    }

    /// An ancilla is CNOT-entangled with a superposed wire, then asserted
    /// |0⟩: the termination pass flags this (warning severity — the
    /// assertion is unjustified, not provably wrong).
    fn entangled_qterm() -> BCircuit {
        Circ::build(&false, |c, q: Qubit| {
            c.hadamard(q);
            let anc = c.qinit_bit(false);
            c.cnot(anc, q);
            c.qterm_bit(false, anc);
            q
        })
    }

    /// The assertion is provably wrong on a known basis state: error
    /// severity, failing even the default `DenyErrors` gate.
    fn provably_wrong_qterm() -> BCircuit {
        Circ::build(&(), |c, ()| {
            let anc = c.qinit_bit(false);
            c.qnot(anc);
            c.qterm_bit(false, anc);
        })
    }

    #[test]
    fn gate_refuses_and_does_not_cache_a_flagged_plan() {
        let cache = PlanCache::new();
        let bc = provably_wrong_qterm();
        let err = cache.get_or_compile_gated(&bc, LintGate::DenyErrors);
        match err {
            Err(ExecError::Lint(report)) => {
                assert!(report.fails_at(quipper_lint::Severity::Error));
                assert_eq!(report.findings[0].code, "QL001");
            }
            other => panic!("expected lint rejection, got {other:?}"),
        }
        assert_eq!(cache.len(), 0, "rejected plans must not be cached");
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn deny_warnings_blocks_what_deny_errors_admits() {
        let cache = PlanCache::new();
        let bc = entangled_qterm();
        // Warning-level finding: passes the default gate…
        let (plan, _) = cache
            .get_or_compile_gated(&bc, LintGate::DenyErrors)
            .unwrap();
        assert!(plan.lint.fails_at(quipper_lint::Severity::Warning));
        // …but the stricter gate rejects it even on the cache-hit path.
        assert!(matches!(
            cache.get_or_compile_gated(&bc, LintGate::DenyWarnings),
            Err(ExecError::Lint(_))
        ));
        assert_eq!(cache.len(), 1, "hit-path rejection keeps the cached plan");
    }

    #[test]
    fn gate_off_compiles_and_caches_anything_lintable() {
        let cache = PlanCache::new();
        let (plan, hit) = cache
            .get_or_compile_gated(&provably_wrong_qterm(), LintGate::Off)
            .unwrap();
        assert!(!hit);
        assert_eq!(plan.lint.summary().errors, 1);
        assert_eq!(cache.len(), 1);
    }

    /// A circuit with an obvious cancelling pair, so `Default` provably
    /// differs from `Off`.
    fn cancelling_pair() -> BCircuit {
        Circ::build(&false, |c, q: Qubit| {
            c.hadamard(q);
            c.hadamard(q);
            c.gate_t(q);
            c.measure(q)
        })
    }

    #[test]
    fn off_level_reproduces_unoptimized_plans_bit_identically() {
        let bc = cancelling_pair();
        let plain = Plan::compile(&bc).unwrap();
        let off = Plan::compile_with(&bc, OptLevel::Off).unwrap();
        assert_eq!(off.fingerprint, plain.fingerprint);
        assert_eq!(off.flat, plain.flat);
        assert_eq!(off.fuse_stats(), plain.fuse_stats());
        assert!(off.opt.is_none());
    }

    #[test]
    fn optimized_plans_shrink_and_carry_the_report() {
        let bc = cancelling_pair();
        let off = Plan::compile_with(&bc, OptLevel::Off).unwrap();
        let opt = Plan::compile_with(&bc, OptLevel::Default).unwrap();
        assert!(opt.flat.gates.len() < off.flat.gates.len());
        let report = opt.opt.as_ref().expect("optimized plan carries a report");
        // H·H cancels (−2), and the terminal T is absorbed into the
        // measurement by the Clifford-push pass (−1).
        assert_eq!(report.removed(), 3);
        // The cache key is the circuit as submitted, not as rewritten.
        assert_eq!(opt.fingerprint, bc.fingerprint());
    }

    #[test]
    fn cache_keys_plans_per_opt_level() {
        let cache = PlanCache::new();
        let bc = cancelling_pair();
        let (off_plan, hit0) = cache
            .get_or_compile_opt(&bc, LintGate::Off, OptLevel::Off)
            .unwrap();
        let (opt_plan, hit1) = cache
            .get_or_compile_opt(&bc, LintGate::Off, OptLevel::Default)
            .unwrap();
        // Same fingerprint, different level: a real compile, not a hit.
        assert!(!hit0);
        assert!(!hit1);
        assert_eq!(cache.len(), 2);
        assert!(opt_plan.flat.gates.len() < off_plan.flat.gates.len());
        let (again, hit2) = cache
            .get_or_compile_opt(&bc, LintGate::Off, OptLevel::Default)
            .unwrap();
        assert!(hit2);
        assert!(Arc::ptr_eq(&opt_plan, &again));
    }

    #[test]
    fn different_circuits_do_not_collide() {
        let cache = PlanCache::new();
        cache.get_or_compile(&bell()).unwrap();
        let other = Circ::build(&false, |c, q: Qubit| {
            c.gate_t(q);
            q
        });
        let (_, hit) = cache.get_or_compile(&other).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }
}
