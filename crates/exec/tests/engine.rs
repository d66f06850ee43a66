//! Integration tests of the execution engine: backend auto-selection,
//! deterministic shots, plan caching and dynamic lifting.

use quipper::classical::Dag;
use quipper::{Circ, Qubit};
use quipper_algorithms::grover::{grover_circuit, optimal_iterations};
use quipper_circuit::{BCircuit, Gate, Wire, WireType};
use std::time::Duration;

use quipper_exec::{
    CancelReason, CancelToken, Engine, EngineConfig, ExecError, Job, OptLevel, Plan, PlanSource,
    Route, Tracer,
};
use quipper_lint::Severity;
use quipper_trace::names;

fn bell() -> BCircuit {
    Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
        c.hadamard(a);
        c.cnot(b, a);
        (c.measure(a), c.measure(b))
    })
}

fn parity3() -> BCircuit {
    Circ::build(
        &(vec![false; 3], false),
        |c, (xs, t): (Vec<Qubit>, Qubit)| {
            for &x in &xs {
                c.cnot(t, x);
            }
            let ms: Vec<_> = xs.into_iter().map(|x| c.measure(x)).collect();
            (ms, c.measure(t))
        },
    )
}

fn t_gate() -> BCircuit {
    Circ::build(&false, |c, q: Qubit| {
        c.hadamard(q);
        c.gate_t(q);
        c.hadamard(q);
        c.measure(q)
    })
}

#[test]
fn auto_selection_routes_to_cheapest_backend() {
    let engine = Engine::new();
    let routed = |bc: &BCircuit, inputs: usize| {
        let inputs = vec![false; inputs];
        let job = Job::new(bc).inputs(&inputs);
        engine.run(&job).unwrap().report.backend
    };
    assert_eq!(routed(&parity3(), 4), "classical");
    assert_eq!(routed(&bell(), 2), "stabilizer");
    assert_eq!(routed(&t_gate(), 1), "statevec");
}

/// The oracle's simulators are the three routes, in route order, and one
/// refuses a plan of another route without running it: given no inputs for
/// a circuit that takes some, a run fails in the simulator.
#[test]
fn the_oracles_are_the_routes_and_refuse_other_routes() {
    let names: Vec<_> = Engine::new().backends().map(|b| b.name()).collect();
    assert_eq!(names, ["classical", "stabilizer", "statevec"]);
    assert_eq!(
        names,
        [Route::Classical, Route::Stabilizer, Route::StateVec].map(Route::name)
    );
    for bc in [parity3(), bell(), t_gate()] {
        let plan = Plan::compile_with(&bc, OptLevel::Default).unwrap();
        let routed = format!("plan is routed to `{}`", plan.route.name());
        for backend in Engine::new().backends() {
            let own = backend.name() == plan.route.name();
            match backend.run_shot(&plan, &[], 0) {
                Err(ExecError::Sim { backend: ran, .. }) if own => assert_eq!(ran, backend.name()),
                Err(ExecError::NoBackend { reason }) if !own => assert_eq!(reason, routed),
                other => panic!("{} on a {routed} plan: {other:?}", backend.name()),
            }
        }
    }
}

/// An N-shot Grover job runs on the state vector and amplifies the marked
/// index.
#[test]
fn grover_amplifies_the_marked_index_on_the_statevec_route() {
    // Search for index 5 among 2^3: predicate x == 5.
    let dag = Dag::build(3, |_, xs| vec![&(&xs[0] & &!(&xs[1])) & &xs[2]]);
    let bc = grover_circuit(&dag, optimal_iterations(3, 1));
    let shots = 48;

    let job = Job::new(&bc).shots(shots).seed(0xDEAD_BEEF);
    let result = Engine::new().run(&job).unwrap();
    // Grover uses GPhase + Toffoli-style oracles: only statevec can run it.
    assert_eq!(result.report.backend, "statevec");
    // With the optimal iteration count, |101⟩ = index 5 dominates.
    let (top, _) = result.histogram.first().unwrap();
    assert_eq!(top, &[true, false, true], "amplified state wins");
    assert!(result.count_of(top) > shots / 2);
}

#[test]
fn repeat_jobs_hit_the_plan_cache() {
    let engine = Engine::new();
    let bc = bell();
    let job = Job::new(&bc).inputs(&[false, false]).shots(4);
    let first = engine.run(&job).unwrap();
    let second = engine.run(&job).unwrap();
    assert!(!first.report.cache_hit);
    assert!(second.report.cache_hit);
    assert_eq!(first.report.fingerprint, second.report.fingerprint);

    let cache = engine.plan_cache();
    assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    assert_eq!(first.report.backend, "stabilizer");
    assert_eq!(second.report.backend, "stabilizer");
}

/// The two halves of a run: a plan resolved once runs again without
/// another fingerprint, lookup or compile.
#[test]
fn a_resolved_plan_reruns_without_asking_the_cache_again() {
    let engine = Engine::new();
    let bc = bell();
    let job = Job::new(&bc).inputs(&[false, false]).shots(16).seed(3);
    let (plan, source) = engine.resolve(&job).unwrap();
    assert_eq!(source, PlanSource::Compiled);
    let first = engine.run_resolved(&job, &plan, source).unwrap();
    let again = engine.run_resolved(&job, &plan, source).unwrap();
    assert_eq!(first.histogram, again.histogram);
    assert_eq!(first.histogram, engine.run(&job).unwrap().histogram);
    assert!(!again.report.cache_hit, "this job's plan was a miss");
    let cache = engine.plan_cache();
    assert_eq!((cache.misses(), cache.hits()), (1, 1), "resolve + run");
}

/// The route is picked when the plan compiles: a circuit no backend runs
/// fails there, with the reason, and leaves nothing in the cache; a wide
/// Clifford circuit is no problem for the stabilizer route, classical gate
/// and all.
#[test]
fn a_wide_non_clifford_circuit_is_refused_at_compile() {
    let engine = Engine::new();
    let wide = Circ::build(&vec![false; 25], |c, qs: Vec<Qubit>| {
        c.hadamard(qs[0]);
        c.gate_t(qs[0]);
        c.hadamard(qs[0]);
        c.measure(qs)
    });
    match engine.plan(&wide) {
        Err(ExecError::NoBackend { reason }) => {
            assert!(reason.contains("state-vector cap of 24"), "{reason}")
        }
        other => panic!("expected a refusal at compile, got {other:?}"),
    }
    let cache = engine.plan_cache();
    assert_eq!((cache.len(), cache.misses()), (0, 0));

    let mut ghz = Circ::build(&vec![false; 200], |c, qs: Vec<Qubit>| {
        c.hadamard(qs[0]);
        for pair in qs.windows(2) {
            c.cnot(pair[1], pair[0]);
        }
        c.measure(qs)
    });
    assert_eq!(engine.plan(&ghz).unwrap().route.name(), "stabilizer");
    // No generator emits a `CGate`: xor the first and last outcomes by hand.
    let parity = Wire(ghz.main.wire_bound);
    let inputs = vec![ghz.main.outputs[0].0, ghz.main.outputs[199].0];
    ghz.main.gates.push(Gate::CGate {
        name: "xor".into(),
        inverted: false,
        target: parity,
        inputs,
    });
    ghz.main.outputs.push((parity, WireType::Classical));
    ghz.main.wire_bound += 1;
    assert_eq!(engine.plan(&ghz).unwrap().route.name(), "stabilizer");
    let job = Job::new(&ghz).inputs(&[false; 200]).shots(32);
    let result = engine.run(&job).unwrap();
    let agree = |bits: &[bool]| bits[..200].iter().all(|&b| b == bits[0]) && !bits[200];
    assert!(result.histogram.iter().all(|(bits, _)| agree(bits)));
    assert_eq!(result.histogram.len(), 2, "both GHZ outcomes occur");
}

#[test]
fn quantum_outputs_are_rejected_for_sampling() {
    let engine = Engine::new();
    let bc = Circ::build(&false, |c, q: Qubit| {
        c.hadamard(q);
        q // unmeasured quantum output
    });
    let err = engine.run(&Job::new(&bc).inputs(&[false])).unwrap_err();
    assert!(matches!(err, ExecError::QuantumOutputs));
}

#[test]
fn resource_estimation_needs_no_simulation() {
    let engine = Engine::new();
    let est = engine.estimate(&bell());
    assert_eq!(est.gates.by_name("\"H\"", 0, 0), 1);
    assert_eq!(est.gates.by_name("Meas", 0, 0), 2);
    assert_eq!(est.peak.total, 2);
    assert!(est.depth >= 3);
}

#[test]
fn interactive_jobs_route_through_dynamic_lifting() {
    let engine = Engine::new();
    // Measure a deterministic qubit; only the taken branch is generated
    // (paper §4.3.2). The engine supplies the simulated QRAM.
    for bit in [false, true] {
        let bc = engine.run_interactive(&(), 42, |c, ()| {
            let q = c.qinit_bit(bit);
            let m = c.measure_bit(q);
            let v = c.dynamic_lift(m);
            assert_eq!(v, bit);
            let out = c.qinit_bit(false);
            if v {
                c.qnot(out);
            }
            c.cdiscard(m);
            c.measure_bit(out)
        });
        assert_eq!(bc.gate_count().by_name("\"Not\"", 0, 0), u128::from(bit));
    }
}

/// A job whose assertion fails on some shots fails with the error the
/// oracle raises at the job's first failing seed. The ancilla copies a
/// random outcome, so the assertion fails only on the shots that measure 1,
/// and shot 0 is not one of them.
#[test]
fn a_failing_job_reports_the_oracle_error_of_its_first_failing_shot() {
    let bc = Circ::build(&(), |c, ()| {
        let q = c.qinit_bit(false);
        c.hadamard(q);
        let anc = c.qinit_bit(false);
        c.cnot(anc, q);
        let m = c.measure_bit(q);
        c.qterm_bit(false, anc); // fails when m = 1
        m
    });
    let engine = Engine::new();
    let (seed, shots) = (3, 20);
    let err = engine
        .run(&Job::new(&bc).shots(shots).seed(seed))
        .unwrap_err();
    assert!(matches!(err, ExecError::Sim { .. }), "{err}");

    let plan = engine.plan(&bc).unwrap();
    let oracle = engine.backends().find(|b| b.name() == plan.route.name());
    let shot = |seed| oracle.unwrap().run_shot(&plan, &[], seed);
    assert!(shot(seed).is_ok(), "shot 0 passes");
    let first = (seed..seed + shots).find_map(|seed| shot(seed).err());
    assert_eq!(format!("{err:?}"), format!("{:?}", first.unwrap()));
}

#[test]
fn engine_refuses_to_cache_or_execute_lint_rejected_plans() {
    // An ancilla provably in |1⟩ asserted |0⟩: QL001, error severity. The
    // default gate (deny errors) rejects the job before compilation output
    // reaches the cache or any backend.
    let bc = Circ::build(&(), |c, ()| {
        let anc = c.qinit_bit(false);
        c.qnot(anc);
        c.qterm_bit(false, anc);
        let out = c.qinit_bit(false);
        c.measure_bit(out)
    });
    let engine = Engine::new();
    let err = engine.run(&Job::new(&bc)).unwrap_err();
    match err {
        ExecError::Lint(report) => assert_eq!(report.findings[0].code, "QL001"),
        other => panic!("expected lint rejection, got {other:?}"),
    }
    assert!(engine.plan_cache().is_empty());

    // Ungated, through a plan compiled outside the cache, the same circuit
    // reaches the backend, which then fails the assertion at run time.
    let job = Job::new(&bc).opt(OptLevel::Off);
    let plan = Plan::compile_with(&bc, OptLevel::Off).unwrap();
    let err = engine
        .run_resolved(&job, &plan, PlanSource::Compiled)
        .unwrap_err();
    assert!(matches!(err, ExecError::Sim { .. }), "{err}");
    assert!(engine.plan_cache().is_empty());
}

/// The gate's report holds only errors, so a refusal quotes an error even
/// when a note comes first in the circuit.
#[test]
fn a_refusal_names_its_error() {
    let bc = Circ::build(&(), |c, ()| {
        let on = c.qinit_bit(true);
        let t = c.qinit_bit(false);
        c.cnot(t, on); // the control is always satisfied: QL031, a note
        c.qnot(on);
        c.qterm_bit(false, on);
        c.qterm_bit(false, t); // t is provably |1⟩: QL001
    });
    let lint = quipper_lint::lint(&bc);
    let found: Vec<_> = lint
        .findings
        .iter()
        .map(|d| (d.code, d.gate_index))
        .collect();
    assert_eq!(found, [("QL031", Some(2)), ("QL001", Some(5))], "{lint}");

    let err = Engine::new()
        .run(&Job::new(&bc).opt(OptLevel::Off))
        .unwrap_err();
    let ExecError::Lint(report) = &err else {
        panic!("expected lint rejection, got {err:?}");
    };
    assert_eq!(
        report.count(Severity::Error),
        report.findings.len(),
        "{report}"
    );
    assert!(
        err.to_string()
            .starts_with("circuit rejected by lint gate: 1 error(s); first: error[QL001]"),
        "{err}"
    );
}

/// The gate judges the circuit the optimizer leaves: a false assertion the
/// lint cannot refute as written is refuted once the optimizer simplifies
/// the circuit.
#[test]
fn the_gate_judges_the_optimized_circuit() {
    // H·H is the identity, so the wire is |0⟩ and the assertion |1⟩ fails
    // on every shot; but the abstract domain cannot follow H·H back to a
    // basis state, so as written the lint only warns (QL002).
    let bc = Circ::build(&(), |c, ()| {
        let q = c.qinit_bit(false);
        c.hadamard(q);
        c.hadamard(q);
        c.qterm_bit(true, q);
    });
    let lint = quipper_lint::lint(&bc);
    assert!(lint.findings.iter().any(|d| d.code == "QL002"), "{lint}");
    assert!(!lint.fails_at(Severity::Error), "{lint}");
    let engine = Engine::new();

    // As written the gate admits it, and the backend fails the assertion.
    let err = engine
        .run(&Job::new(&bc).shots(10).opt(OptLevel::Off))
        .unwrap_err();
    assert!(matches!(err, ExecError::Sim { .. }), "{err}");

    // The default optimizer deletes H·H, and the gate refuses what is left.
    match engine.run(&Job::new(&bc).shots(10)) {
        Err(ExecError::Lint(report)) => assert_eq!(report.findings[0].code, "QL001"),
        other => panic!("expected lint rejection, got {other:?}"),
    }
    assert_eq!(engine.plan_cache().len(), 1, "only the admitted plan");
}

/// A deadline that fires while the shot-invariant prefix of a wide job is
/// still running abandons the job there: `Cancelled`, no shot run, and the
/// prefix never reported as finished. Before the prefix was polled, a fired
/// deadline was seen only between chunks of whole shots.
#[test]
fn deadline_fires_mid_prefix_on_a_wide_job() {
    const QUBITS: usize = 18;
    // Hundreds of window sweeps over 2^18 amplitudes: seconds of prefix,
    // against a deadline of tens of milliseconds.
    let bc = Circ::build(&vec![false; QUBITS], |c, qs: Vec<Qubit>| {
        for _ in 0..150 {
            for &q in &qs {
                c.hadamard(q);
                c.gate_t(q);
            }
            for pair in qs.windows(2) {
                c.cnot(pair[1], pair[0]);
            }
        }
        c.measure(qs)
    });
    let trace = Tracer::leaked(1024);
    trace.set_enabled(true);
    let engine = Engine::with_config(EngineConfig {
        trace,
        ..EngineConfig::default()
    });
    let job = Job::new(&bc)
        .inputs(&[false; QUBITS])
        .shots(4)
        .opt(OptLevel::Off);
    // Compile ahead, so that the deadline's clock covers only execution.
    engine.resolve(&job).unwrap();

    let token = CancelToken::with_timeout(Duration::from_millis(40));
    let job = job.cancel_token(token);
    let err = engine.run(&job).unwrap_err();
    assert!(
        matches!(
            err,
            ExecError::Cancelled {
                reason: CancelReason::DeadlineExceeded
            }
        ),
        "expected a deadline cancellation, got {err}"
    );
    let metrics = trace.metrics();
    assert_eq!(metrics.counter(names::SHOTS_RUN), 0);
    assert_eq!(metrics.counter(names::EXEC_CANCELLED), 1);
    assert_eq!(
        metrics.counter(names::CACHE_HIT),
        1,
        "the job got as far as executing"
    );
    assert!(
        metrics.histogram(names::PREFIX_US).is_none(),
        "the prefix was abandoned, not finished"
    );
}
