//! Optimizer effectiveness: gate, T and two-qubit counts before/after the
//! pipeline, and the compile-time cost of running it. What the removed
//! gates buy at execution time is `BENCHMARK.json`'s business (and the
//! answer for the mixed workload, none, is EXPERIMENTS.md A6).
//!
//! Not a criterion bench: each circuit is optimized once. Run
//! modes:
//!
//! * default — the full-size mixed workload;
//! * `BENCH_QUICK=1` — a two-layer mixed workload, used as the CI smoke.
//!
//! Both modes assert the same things: the default pipeline must remove
//! gates from the mixed workload and from at least three circuits, and
//! must beat the recorded T-count of the pipeline it replaced.
//!
//! Every run rewrites `BENCH_opt.json` at the repo root so CI archives a
//! machine-readable snapshot of optimizer effectiveness alongside the
//! serving and kernel baselines.

use std::time::{Duration, Instant};

use quipper::classical::synth;
use quipper::{Circ, Qubit};
use quipper_algorithms::bwt::{bwt_circuit, Flavor, WeldedTree};
use quipper_algorithms::cl::mod_const_dag;
use quipper_circuit::BCircuit;
use quipper_opt::{optimize, OptLevel};
use quipper_serve::catalog::Catalog;
use quipper_trace::JsonWriter;

/// A 20-qubit mixed workload with realistic redundancy: mergeable rotation
/// runs, Hadamard pairs straddling diagonal gates, phase-polynomial T terms
/// only parity tracking can fold, and an uncompute tail that mirrors the
/// compute prefix. The optimizer should collapse a large fraction; the rest
/// (the CNOT ladder, one T per parity term) is irreducible.
fn mixed_workload(n: usize, layers: usize) -> BCircuit {
    Circ::build(&vec![false; n], |c, qs: Vec<Qubit>| {
        for layer in 0..layers {
            for (i, &q) in qs.iter().enumerate() {
                c.hadamard(q);
                // A run of three Z-rotations on one wire: merges to one.
                c.rot("exp(-i%Z)", 0.11 * (i + 1) as f64, q);
                c.rot("exp(-i%Z)", 0.07, q);
                c.rot("exp(-i%Z)", -0.07, q);
                c.hadamard(q);
            }
            for w in qs.windows(2) {
                c.cnot(w[1], w[0]);
            }
            // H · Z-diagonal · H sandwiches: the outer pair cannot cancel,
            // but the T and its adjoint straddling a commuting CZ can.
            let (a, b) = (qs[layer % n], qs[(layer + 1) % n]);
            c.gate_t(a);
            c.gate_ctrl(quipper::GateName::Z, a, &b);
            c.gate_inv(quipper::GateName::T, a);
            // A phase-polynomial merge no commute-based pass can see: the
            // outer T's act on the same parity (the CNOT pair restores wire
            // b), but the X-type action on b blocks structural commuting,
            // so only `opt.phasepoly` folds them into one S.
            c.gate_t(b);
            c.cnot(b, a);
            c.gate_t(b);
            c.cnot(b, a);
            c.gate_t(b);
        }
        qs.into_iter().map(|q| c.measure(q)).collect::<Vec<_>>()
    })
}

struct OptMeasurement {
    name: String,
    gates_before: u128,
    gates_after: u128,
    t_before: u128,
    t_after: u128,
    twoq_before: u128,
    twoq_after: u128,
    rewrites: u64,
    compile: Duration,
}

fn measure(name: &str, bc: &BCircuit) -> OptMeasurement {
    let start = Instant::now();
    let (optimized, report) = optimize(bc, OptLevel::Default);
    let compile = start.elapsed();
    optimized.validate().expect("optimized circuit validates");
    OptMeasurement {
        name: name.to_string(),
        gates_before: report.gates_before(),
        gates_after: report.gates_after(),
        t_before: report.before.t_count(),
        t_after: report.after.t_count(),
        twoq_before: report.before.two_qubit(),
        twoq_after: report.after.two_qubit(),
        rewrites: report.rewrites(),
        compile,
    }
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let workload_layers = if quick { 2 } else { 4 };

    let catalog = Catalog::new();
    let mut circuits: Vec<(String, BCircuit)> = catalog
        .names()
        .iter()
        .filter_map(|name| {
            catalog
                .get(name)
                .map(|bc| (name.to_string(), (*bc).clone()))
        })
        .collect();
    // Example circuits with redundancy the catalog lacks: the welded-tree
    // walk (adjacent inverse pairs from its compute/uncompute structure)
    // and a synthesized modular oracle (constant-control simplification).
    circuits.push((
        "bwt-orthodox".to_string(),
        bwt_circuit(WeldedTree::new(1, [0b0, 0b1]), 1, 0.35, Flavor::Orthodox),
    ));
    let mod_dag = mod_const_dag(4, 3);
    circuits.push((
        "mod-oracle".to_string(),
        Circ::build(&vec![false; 4], |c, xs: Vec<Qubit>| {
            let outs = synth::synthesize_clean(c, &mod_dag, &xs);
            (xs, outs)
        }),
    ));
    // A pure phase-polynomial specimen: T-count reduction with no
    // structural redundancy for the older passes to claim.
    circuits.push((
        "t-merge".to_string(),
        Circ::build(&vec![false; 3], |c, qs: Vec<Qubit>| {
            c.hadamard(qs[0]);
            c.hadamard(qs[1]);
            c.gate_t(qs[0]);
            c.cnot(qs[2], qs[0]);
            c.gate_t(qs[0]);
            c.gate_t(qs[1]);
            c.cnot(qs[2], qs[1]);
            c.gate_inv(quipper::GateName::T, qs[1]);
            c.cnot(qs[2], qs[1]);
            qs.into_iter().map(|q| c.measure(q)).collect::<Vec<_>>()
        }),
    ));
    circuits.push(("mixed-20q".to_string(), mixed_workload(20, workload_layers)));

    let results: Vec<OptMeasurement> = circuits
        .iter()
        .map(|(name, bc)| measure(name, bc))
        .collect();

    println!(
        "{:>16}  {:>10}  {:>10}  {:>11}  {:>11}  {:>8}  {:>10}",
        "circuit", "before", "after", "T", "2q", "rewrites", "compile"
    );
    for m in &results {
        println!(
            "{:>16}  {:>10}  {:>10}  {:>11}  {:>11}  {:>8}  {:>10.3?}",
            m.name,
            m.gates_before,
            m.gates_after,
            format!("{}->{}", m.t_before, m.t_after),
            format!("{}->{}", m.twoq_before, m.twoq_after),
            m.rewrites,
            m.compile
        );
    }

    // Smoke in both modes: the default pipeline must find real reductions.
    let default_reduced: Vec<&OptMeasurement> = results
        .iter()
        .filter(|m| m.gates_after < m.gates_before)
        .collect();
    let workload_delta = results
        .iter()
        .find(|m| m.name == "mixed-20q")
        .map(|m| m.gates_before - m.gates_after)
        .unwrap();
    assert!(
        workload_delta > 0,
        "default pipeline must reduce the 20q mixed workload"
    );
    assert!(
        default_reduced.len() >= 3,
        "default pipeline should reduce at least 3 circuits, got {}",
        default_reduced.len()
    );
    // Phase-polynomial smoke: the pass must strictly reduce T-count on at
    // least two circuits, and on the mixed workload it must beat what the
    // cancel/merge-only pipeline that preceded it last measured
    // (EXPERIMENTS.md A8) without growing the total.
    let t_reduced: Vec<&OptMeasurement> =
        results.iter().filter(|m| m.t_after < m.t_before).collect();
    assert!(
        t_reduced.len() >= 2,
        "default pipeline should strictly reduce T-count on at least 2 circuits, got {}",
        t_reduced.len()
    );
    let (baseline_t, baseline_total): (u128, u128) = if quick { (6, 190) } else { (12, 360) };
    let workload_default = results.iter().find(|m| m.name == "mixed-20q").unwrap();
    assert!(
        workload_default.t_after < baseline_t,
        "default pipeline T-count ({}) must beat the cancel/merge baseline ({baseline_t})",
        workload_default.t_after,
    );
    assert!(
        workload_default.gates_after <= baseline_total,
        "default pipeline total ({}) must be no worse than the baseline ({baseline_total})",
        workload_default.gates_after,
    );
    println!(
        "smoke check passed ({} circuits reduced at default, {} with lower T-count, \
         workload -{workload_delta} gates, T {} vs recorded baseline {baseline_t})",
        default_reduced.len(),
        t_reduced.len(),
        workload_default.t_after,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_opt.json");
    let mut w = JsonWriter::new();
    w.begin_object()
        .newline()
        .key("bench")
        .string("opt_gate_counts");
    w.newline()
        .key("mode")
        .string(if quick { "quick" } else { "full" });
    w.newline().key("benches").begin_array();
    for m in &results {
        w.newline().begin_object().key("name").string(&m.name);
        w.key("level").string(OptLevel::Default.as_str());
        w.key("gates_before").int(m.gates_before);
        w.key("gates_after").int(m.gates_after);
        w.key("t_before").int(m.t_before);
        w.key("t_after").int(m.t_after);
        w.key("twoq_before").int(m.twoq_before);
        w.key("twoq_after").int(m.twoq_after);
        w.key("rewrites").int(m.rewrites);
        w.key("compile_ms")
            .float(m.compile.as_secs_f64() * 1e3, Some(3));
        w.end_object();
    }
    w.newline().end_array().newline().end_object().newline();
    let json = w.finish();
    std::fs::write(path, json).unwrap();
    println!("wrote BENCH_opt.json");
}
