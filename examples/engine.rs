//! The execution engine: one subsystem fronting every run function
//! (paper §4.4.5's description/execution split, industrialized).
//!
//! Submits multi-shot jobs over three circuit classes and lets the engine
//! route each to the cheapest capable backend — bit-per-wire simulation for
//! classical circuits, CHP tableaus for Clifford circuits, state vectors for
//! everything else — then repeats a job to show the compiled-plan cache and
//! prints the engine's cumulative counters.
//!
//! Run with: `cargo run --example engine`
//!
//! Pass `--trace-out <path>` to enable phase-aware tracing for the whole run
//! and write a Chrome trace-event file (open it at `chrome://tracing` or
//! <https://ui.perfetto.dev>), plus a per-subroutine resource report for the
//! Grover circuit on stdout.

use quipper::classical::Dag;
use quipper::{Circ, Qubit};
use quipper_algorithms::grover::{grover_circuit, optimal_iterations};
use quipper_circuit::resources::resource_report;
use quipper_exec::{Engine, Job};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut trace_out: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(path),
                None => {
                    eprintln!("usage: engine [--trace-out <trace.json>]");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`; usage: engine [--trace-out <trace.json>]");
                std::process::exit(2);
            }
        }
    }
    // Enable tracing before any circuit is built so generation spans (one per
    // boxed subroutine) land in the trace alongside compile and execute.
    if trace_out.is_some() {
        quipper_trace::tracer().set_enabled(true);
    }

    let engine = Engine::new();

    // --- a classical circuit: 4-bit ripple parity -----------------------
    let parity = Circ::build(
        &(vec![false; 4], false),
        |c, (xs, t): (Vec<Qubit>, Qubit)| {
            for &x in &xs {
                c.cnot(t, x);
            }
            let ms: Vec<_> = xs.into_iter().map(|x| c.measure(x)).collect();
            (ms, c.measure(t))
        },
    );

    // --- a Clifford circuit: a GHZ state --------------------------------
    let ghz = Circ::build(&vec![false; 3], |c, qs: Vec<Qubit>| {
        c.hadamard(qs[0]);
        c.cnot(qs[1], qs[0]);
        c.cnot(qs[2], qs[1]);
        c.measure(qs)
    });

    // --- a full quantum circuit: Grover search for x = 6 ----------------
    let dag = Dag::build(3, |_, xs| vec![&(&!(&xs[0]) & &xs[1]) & &xs[2]]);
    let grover = grover_circuit(&dag, optimal_iterations(3, 1));

    // Routing at compile: each plan runs on the cheapest capable backend.
    let jobs = [
        (
            "parity",
            Job::new(&parity)
                .inputs(&[true, true, false, true, false])
                .shots(200),
        ),
        ("GHZ", Job::new(&ghz).inputs(&[false; 3]).shots(200).seed(7)),
        ("Grover", Job::new(&grover).shots(200).seed(42)),
    ];
    for (name, job) in &jobs {
        let result = engine.run(job).unwrap();
        println!("{name:>8}: {}", result.report);
        for (bits, n) in result.histogram.iter().take(3) {
            let pattern: String = bits.iter().map(|&b| if b { '1' } else { '0' }).collect();
            println!("          {pattern} x{n}");
        }
    }

    // Resubmission skips validation and flattening: the plan cache serves
    // the compiled circuit by its structural fingerprint.
    let again = engine.run(&Job::new(&grover).shots(200).seed(42)).unwrap();
    println!("  repeat: {}", again.report);
    assert!(again.report.cache_hit);

    // A batch is a loop over `run`: each job fans its own shots out over
    // the worker pool (scheduling *across* jobs is `quipper_serve::Service`).
    let batch: Vec<_> = (0..4)
        .map(|seed| {
            let job = Job::new(&ghz).inputs(&[false; 3]).shots(50).seed(seed);
            engine.run(&job).unwrap()
        })
        .collect();
    println!("   batch: {} GHZ jobs, all correlated: {}", batch.len(), {
        batch.iter().all(|r| {
            r.histogram
                .iter()
                .all(|(bits, _)| bits.iter().all(|&b| b == bits[0]))
        })
    });

    // Resource estimation counts the hierarchical circuit; nothing simulates.
    let est = engine.estimate(&grover);
    println!(
        "estimate: Grover uses {} gates, peak {} qubits, depth {}",
        est.gates.total(),
        est.peak.quantum,
        est.depth
    );

    // The engine's plan cache, across every job above.
    println!("\n{}", engine.stats());

    if let Some(path) = trace_out {
        let tracer = quipper_trace::tracer();
        tracer.set_enabled(false);
        let log = tracer.drain();
        std::fs::write(&path, quipper_trace::to_chrome_trace(&log)).unwrap();
        println!(
            "\nwrote {} trace events to {path} (load in chrome://tracing)",
            log.events.len()
        );
        // Gates by class, per level of the boxed-subroutine hierarchy —
        // the arXiv:1412.0625-style resource report, from the *unflattened*
        // circuit.
        println!("\n{}", resource_report(&grover, "Grover (3 qubits)"));
        println!("{}", tracer.metrics().snapshot());
    }
}
