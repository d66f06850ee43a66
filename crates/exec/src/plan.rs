//! Compiled execution plans and the fingerprint-keyed plan cache.
//!
//! Preparing a circuit for execution — validation, inlining every boxed
//! subroutine (paper §4.4.4), and profiling for backend selection — costs as
//! much as a simulation shot for classical circuits, and repeated jobs over
//! the same circuit family (multi-shot sampling, benchmark sweeps) would pay
//! it every time. A [`Plan`] captures the prepared form once: the circuit is
//! described once and handed to one run function (paper §4.4.5), so the plan
//! is its [`Route`] and the one gate stream that route's backend reads
//! ([`Body`]). The [`PlanCache`] keys plans by the structural
//! [`fingerprint`](quipper_circuit::fingerprint) of the hierarchical circuit,
//! so a repeat submission skips validation and flattening entirely.
//!
//! This module is the one place that decides how a submission becomes a
//! plan and who waits for whom while it does: [`PlanCache::get_or_compile`]
//! hashes the circuit once, answers a hit at once, and single-flights
//! concurrent misses on one key so that one caller compiles and the rest
//! share its plan.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use quipper_circuit::flatten::inline_all;
use quipper_circuit::{validate, BCircuit, Circuit};
use quipper_lint::LintReport;
use quipper_opt::{optimize, OptLevel, OptReport};
use quipper_sim::{fuse_circuit, FusedCircuit};

use crate::error::ExecError;
use crate::profile::{profile, CircuitProfile, Route};

/// The one gate stream a plan keeps: the one its route's backend reads.
#[derive(Debug)]
pub enum Body {
    /// The flattened circuit, every subroutine call inlined: what the
    /// classical and stabilizer backends run.
    Flat(Circuit),
    /// The flattened circuit with runs of single-qubit gates fused, once,
    /// for the state vector to replay every shot. Shared with each job's
    /// evolved prefix state, which is simpler to hold without a borrow.
    Fused(Arc<FusedCircuit>),
}

/// A circuit prepared for repeated execution: validated, flattened, profiled
/// and routed, fused if its route is the state vector. Plans are immutable
/// and shared (`Arc`) between the cache, jobs in flight, and worker threads.
#[derive(Debug)]
pub struct Plan {
    /// Structural fingerprint of the *hierarchical* circuit this plan was
    /// compiled from (the cache key).
    pub fingerprint: u64,
    /// The backend this plan runs on, picked from its profile at compile.
    pub route: Route,
    /// Why: the profile property that decided the route.
    pub route_reason: String,
    /// The gate stream the route's backend reads.
    pub body: Body,
    /// Backend-selection profile of the flat circuit.
    pub profile: CircuitProfile,
    /// What the optimizer did, when a level other than
    /// [`OptLevel::Off`] was active at compile time.
    pub opt: Option<OptReport>,
    /// How long validation + optimization + inlining + profiling + fusion
    /// (state-vector routes only) took.
    pub compile_time: Duration,
}

impl Plan {
    /// Validates, flattens, profiles and routes a hierarchical circuit,
    /// running the `quipper-opt` pipeline at `level` between validation and
    /// flattening, and fuses it if the route is the state vector.
    /// `OptLevel::Off` reproduces the unoptimized pipeline exactly. The
    /// gate's [`quipper_lint::errors`] runs on the *optimized* circuit, the
    /// one that will execute, but nothing here refuses a finding (that is
    /// [`PlanCache::get_or_compile`]'s gate).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Circuit`] if validation or inlining fails, and
    /// [`ExecError::NoBackend`] if no backend runs the circuit's profile.
    pub fn compile_with(bc: &BCircuit, level: OptLevel) -> Result<Plan, ExecError> {
        Ok(Plan::compile_keyed(bc, level, bc.fingerprint())?.0)
    }

    /// [`Plan::compile_with`] for a caller that already hashed `bc`, with
    /// the gate's error findings beside the plan. The plan is keyed by the
    /// fingerprint of the circuit *as submitted* — rewriting must never
    /// change which cache slot a submission lands in.
    fn compile_keyed(
        bc: &BCircuit,
        level: OptLevel,
        fingerprint: u64,
    ) -> Result<(Plan, LintReport), ExecError> {
        let _span = quipper_trace::span(quipper_trace::Phase::Compile, "plan.compile");
        let start = Instant::now();
        validate::validate(&bc.db, &bc.main)?;
        let (bc, opt) = match level {
            OptLevel::Off => (Cow::Borrowed(bc), None),
            level => {
                let (optimized, report) = optimize(bc, level);
                // A rewritten hierarchy must still be well-formed; a pass bug
                // should surface here, not as a backend panic. A borrowed
                // result is the input, validated above.
                if let Cow::Owned(rewritten) = &optimized {
                    validate::validate(&rewritten.db, &rewritten.main)?;
                }
                (optimized, Some(report))
            }
        };
        // Gate the *hierarchical* circuit (box summaries need the call
        // structure), before flattening discards it.
        let errors = quipper_lint::errors(&bc);
        let flat = inline_all(&bc.db, &bc.main)?;
        let profile = {
            let _span = quipper_trace::span(quipper_trace::Phase::Compile, "profile");
            profile(&flat)
        };
        let route = Route::pick(&profile).map_err(|reason| ExecError::NoBackend { reason })?;
        let body = match route {
            Route::Classical | Route::Stabilizer => Body::Flat(flat),
            Route::StateVec => {
                let _span = quipper_trace::span(quipper_trace::Phase::Compile, "fuse");
                Body::Fused(Arc::new(fuse_circuit(&flat)))
            }
        };
        let plan = Plan {
            fingerprint,
            route,
            route_reason: route.reason(&profile),
            body,
            profile,
            opt,
            compile_time: start.elapsed(),
        };
        Ok((plan, errors))
    }
}

/// How a caller of [`PlanCache::get_or_compile`] came by its plan.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PlanSource {
    /// The plan was cached: nothing compiled, nothing waited.
    Hit,
    /// This caller compiled the plan (a cache miss) and cached it.
    Compiled,
    /// Another caller was compiling the same key; this one waited for it
    /// and shares its plan.
    Waited,
}

type Key = (u64, OptLevel);

/// A cache slot: a finished plan, or the mark of the one caller compiling it.
#[derive(Debug)]
enum Slot {
    Ready(Arc<Plan>),
    Compiling,
}

/// A thread-safe cache of compiled plans keyed by circuit fingerprint and
/// optimizer level, with hit/miss counters surfaced in execution reports.
///
/// The level is part of the key because the same circuit compiled at
/// different levels yields genuinely different plans (different flat gate
/// streams); a job asking for `Default` must never receive a plan
/// compiled at `Off`.
#[derive(Debug, Default)]
pub struct PlanCache {
    slots: Mutex<HashMap<Key, Slot>>,
    /// Signalled when a compile lands, on whatever key: waiters re-read
    /// their own slot.
    landed: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// The slot table. Every update under this lock is one insert or one
    /// remove, so the map is valid even if a holder panicked; and
    /// [`Landing`] takes it while a panicking compile unwinds.
    fn slots(&self) -> MutexGuard<'_, HashMap<Key, Slot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the plan for this circuit at `level`, and how the caller got
    /// it. The circuit is hashed once. A cached plan is returned at once
    /// ([`PlanSource::Hit`]); on a miss, concurrent callers with the same
    /// key single-flight: one compiles outside the lock and caches the plan
    /// ([`PlanSource::Compiled`]), the others wait and share its `Arc`
    /// ([`PlanSource::Waited`]). Callers with other keys are never held up.
    ///
    /// A fresh compile with an error-severity lint finding (a provably
    /// violated assertive termination, say) is refused and **not** cached,
    /// nor is a compile that fails; of its waiters one compiles next while
    /// the rest go on waiting. So every cached plan has passed this gate,
    /// and a hit or a wait does not check again. A caller that wants no
    /// gate compiles with [`Plan::compile_with`].
    ///
    /// # Errors
    ///
    /// [`ExecError::Lint`] with the error findings, plus all
    /// [`Plan::compile_with`] errors.
    pub fn get_or_compile(
        &self,
        bc: &BCircuit,
        level: OptLevel,
    ) -> Result<(Arc<Plan>, PlanSource), ExecError> {
        let key = (bc.fingerprint(), level);
        let mut source = PlanSource::Hit;
        let mut slots = self.slots();
        let plan = loop {
            match slots.get(&key) {
                Some(Slot::Ready(plan)) => break Arc::clone(plan),
                Some(Slot::Compiling) => {
                    source = PlanSource::Waited;
                    slots = self
                        .landed
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    slots.insert(key, Slot::Compiling);
                    drop(slots);
                    // Compile outside the lock: plans can be large and
                    // compilation is the expensive path.
                    let mut landing = Landing {
                        cache: self,
                        key,
                        plan: None,
                    };
                    let (plan, errors) = Plan::compile_keyed(bc, level, key.0)?;
                    if !errors.is_clean() {
                        return Err(ExecError::Lint(errors));
                    }
                    let plan = Arc::new(plan);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    landing.plan = Some(Arc::clone(&plan));
                    return Ok((plan, PlanSource::Compiled));
                }
            }
        };
        drop(slots);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Ok((plan, source))
    }

    /// Number of lookups answered without compiling (hits and waits).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (compilations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct plans currently cached.
    pub fn len(&self) -> usize {
        self.slots()
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Lands the compile its holder marked in the slot table, when dropped,
/// however the compile ended — an error return or a panicking pass
/// included — so waiters never hang: the slot becomes the plan or is
/// vacated, then the waiters are woken.
struct Landing<'a> {
    cache: &'a PlanCache,
    key: Key,
    plan: Option<Arc<Plan>>,
}

impl Drop for Landing<'_> {
    fn drop(&mut self) {
        let mut slots = self.cache.slots();
        match self.plan.take() {
            Some(plan) => slots.insert(self.key, Slot::Ready(plan)),
            None => slots.remove(&self.key),
        };
        drop(slots);
        self.cache.landed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quipper::{Circ, Qubit};
    use quipper_lint::Severity;
    use std::sync::{mpsc, Barrier};

    /// A lookup at `OptLevel::Off` that must succeed.
    fn get(cache: &PlanCache, bc: &BCircuit) -> (Arc<Plan>, PlanSource) {
        cache.get_or_compile(bc, OptLevel::Off).unwrap()
    }

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
        let (p1, first) = get(&cache, &bc);
        let (p2, second) = get(&cache, &bc);
        assert_eq!(first, PlanSource::Compiled);
        assert_eq!(second, PlanSource::Hit);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn structurally_equal_circuits_share_a_plan() {
        // Two independent builds of the same circuit fingerprint identically.
        let cache = PlanCache::new();
        get(&cache, &bell());
        let (_, source) = get(&cache, &bell());
        assert_eq!(source, PlanSource::Hit);
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
    /// severity, which the cache's gate refuses.
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
        match cache.get_or_compile(&bc, OptLevel::Off) {
            Err(ExecError::Lint(report)) => {
                assert!(report.fails_at(Severity::Error));
                assert_eq!(report.findings[0].code, "QL001");
            }
            other => panic!("expected lint rejection, got {other:?}"),
        }
        assert_eq!(cache.len(), 0, "rejected plans must not be cached");
        assert_eq!(cache.misses(), 0);
    }

    /// A warning passes the gate: the plan is compiled and cached.
    #[test]
    fn warnings_pass_the_gate() {
        let cache = PlanCache::new();
        assert_eq!(get(&cache, &entangled_qterm()).1, PlanSource::Compiled);
        assert_eq!(cache.len(), 1);
    }

    /// Outside the cache nothing is gated: the plan compiles despite its
    /// error.
    #[test]
    fn compile_with_refuses_nothing() {
        let bc = provably_wrong_qterm();
        assert_eq!(quipper_lint::errors(&bc).findings.len(), 1);
        assert!(Plan::compile_with(&bc, OptLevel::Off).is_ok());
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
    fn optimized_plans_shrink_and_carry_the_report() {
        let bc = cancelling_pair();
        let off = Plan::compile_with(&bc, OptLevel::Off).unwrap();
        let opt = Plan::compile_with(&bc, OptLevel::Default).unwrap();
        assert!(off.opt.is_none());
        assert!(opt.profile.num_gates < off.profile.num_gates);
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
        let at = |level| cache.get_or_compile(&bc, level).unwrap();
        let (off_plan, first) = at(OptLevel::Off);
        let (opt_plan, second) = at(OptLevel::Default);
        // Same fingerprint, different level: a real compile, not a hit.
        assert_eq!(first, PlanSource::Compiled);
        assert_eq!(second, PlanSource::Compiled);
        assert_eq!(cache.len(), 2);
        assert!(opt_plan.profile.num_gates < off_plan.profile.num_gates);
        let (again, third) = at(OptLevel::Default);
        assert_eq!(third, PlanSource::Hit);
        assert!(Arc::ptr_eq(&opt_plan, &again));
    }

    #[test]
    fn different_circuits_do_not_collide() {
        let cache = PlanCache::new();
        get(&cache, &bell());
        let other = Circ::build(&false, |c, q: Qubit| {
            c.gate_t(q);
            q
        });
        let (_, source) = get(&cache, &other);
        assert_eq!(source, PlanSource::Compiled);
        assert_eq!(cache.len(), 2);
    }

    /// Runs `lookup` on eight threads released together, and collects what
    /// each returned; a thread that has not answered in ten seconds fails
    /// the test instead of hanging it.
    fn race<T: Send + 'static>(
        cache: &Arc<PlanCache>,
        lookup: impl Fn(&PlanCache) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        const THREADS: usize = 8;
        let start = Arc::new(Barrier::new(THREADS));
        let lookup = Arc::new(lookup);
        let (tx, rx) = mpsc::channel();
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (cache, start) = (Arc::clone(cache), Arc::clone(&start));
                let (lookup, tx) = (Arc::clone(&lookup), tx.clone());
                std::thread::spawn(move || {
                    start.wait();
                    tx.send(lookup(&cache)).unwrap();
                })
            })
            .collect();
        let answers = (0..THREADS)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("a racing lookup hung")
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        answers
    }

    #[test]
    fn racing_misses_on_one_key_compile_once_and_share_the_plan() {
        let cache = Arc::new(PlanCache::new());
        let bc = cancelling_pair();
        let answers = race(&cache, move |cache| {
            cache.get_or_compile(&bc, OptLevel::Default).unwrap()
        });
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
        assert_eq!(cache.len(), 1);
        let compiled = answers.iter().filter(|(_, s)| *s == PlanSource::Compiled);
        assert_eq!(compiled.count(), 1, "exactly one caller compiles");
        for (plan, _) in &answers {
            assert!(Arc::ptr_eq(plan, &answers[0].0));
        }
    }

    #[test]
    fn racing_refused_compiles_all_fail_and_cache_nothing() {
        let cache = Arc::new(PlanCache::new());
        let bc = provably_wrong_qterm();
        let answers = race(&cache, move |cache| {
            cache.get_or_compile(&bc, OptLevel::Off)
        });
        for answer in answers {
            assert!(matches!(answer, Err(ExecError::Lint(_))), "{answer:?}");
        }
        assert_eq!(cache.len(), 0);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert!(cache.slots().is_empty(), "no flight left behind");
    }

    /// A compile stuck in flight on one key holds up lookups of that key
    /// and nothing else; landing it releases the waiter with the plan.
    #[test]
    fn a_compile_in_flight_holds_up_only_its_own_key() {
        let cache = Arc::new(PlanCache::new());
        let stuck = bell();
        let key = (stuck.fingerprint(), OptLevel::Off);
        cache.slots().insert(key, Slot::Compiling);

        // Another key compiles, and then hits, while that one is in flight.
        assert_eq!(get(&cache, &cancelling_pair()).1, PlanSource::Compiled);
        assert_eq!(get(&cache, &cancelling_pair()).1, PlanSource::Hit);
        assert_eq!(cache.len(), 1, "a compile in flight is not a cached plan");

        let waiter = {
            let (cache, stuck) = (Arc::clone(&cache), stuck.clone());
            std::thread::spawn(move || get(&cache, &stuck))
        };
        let plan = Arc::new(Plan::compile_with(&stuck, OptLevel::Off).unwrap());
        drop(Landing {
            cache: &cache,
            key,
            plan: Some(Arc::clone(&plan)),
        });
        // Waited if the waiter got there before the landing, Hit if after.
        let (got, source) = waiter.join().unwrap();
        assert!(Arc::ptr_eq(&got, &plan));
        assert_ne!(source, PlanSource::Compiled);
        assert_eq!(cache.len(), 2);
    }
}
