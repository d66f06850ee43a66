//! Tests that span modules: the package's contracts with the repository (build
//! profile, `BENCHMARK.json`), every generator's closed-form answer against
//! the reference simulator, determinism, and proof that a wrong answer counts.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::client::{check, Histogram};
use crate::generate::{self, FAMILIES};
use crate::host::Harness;
use crate::json::{self, Json};
use crate::load::closed_loop;
use crate::measure::gates_out;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::programs::{self, Expect, Program};
use crate::refsim::distribution;
use crate::rng::Rng;
use crate::spans::SpanLog;
use crate::workloads::{self, Inputs, Known, Stream, Workload};

fn repo_file(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of `[profile.release]` in a manifest.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .skip_while(|line| line.trim() != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('['))
        .map(|line| {
            line.split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect::<String>()
        })
        .filter(|line| !line.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_repeats_the_repository_root() {
    let root = release_profile(&repo_file("Cargo.toml"));
    assert!(root.contains(&"codegen-units=1".to_string()), "{root:?}");
    assert_eq!(root, release_profile(&repo_file("benchmark/Cargo.toml")));
}

#[test]
fn benchmark_json_is_the_metric_tables_and_meets_the_contract() {
    let committed = repo_file("BENCHMARK.json");
    assert_eq!(
        committed,
        metrics::manifest(),
        "regenerate with `benchmark manifest > BENCHMARK.json`"
    );
    let json = json::parse(&committed).unwrap();
    let Json::Obj(fields) = &json else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!(committed.len() <= 64 << 10);

    let name_ok = |name: &str| {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |unit: &str| {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
    for metric in END_TO_END.iter().chain(PER_LAYER) {
        assert!(unit_ok(metric.unit), "{}", metric.unit);
        assert!(["lower", "higher"].contains(&metric.better));
        names.push(metric.name);
    }
    assert!(names.iter().all(|name| name_ok(name)));
    names.sort_unstable();
    assert!(
        names.windows(2).all(|w| w[0] != w[1]),
        "a name is used twice"
    );
    assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    for workload in workloads::ALL {
        assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
    }
    // 4 + 22 runs per workload, each a set-up and a measurement, and two builds.
    let runs = 4 + 22 * workloads::ALL.len() as u64;
    assert!(runs * (metrics::RUN_SECONDS + 8) + 2 * 300 <= 3420);
}

/// The outcomes of non-zero probability, as a histogram of `shots` in all.
fn support(program: &Program, shots: u64) -> (Vec<f64>, Histogram) {
    let p = distribution(program.qubits, &program.reference);
    assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    let outcomes: Vec<usize> = (0..p.len()).filter(|&i| p[i] > 1e-9).collect();
    let histogram = outcomes
        .iter()
        .enumerate()
        .map(|(k, &i)| {
            let bits = (0..program.qubits).map(|q| i >> q & 1 == 1).collect();
            (
                bits,
                shots / outcomes.len() as u64 + (k == 0) as u64 * (shots % outcomes.len() as u64),
            )
        })
        .collect();
    (p, histogram)
}

/// The program's expected answer accepts exactly what the reference
/// simulator says can happen.
fn assert_answer_is_the_reference(program: &Program) {
    let (p, histogram) = support(program, 64);
    check(&histogram, 64, program.qubits, &program.expect, Some(&p))
        .unwrap_or_else(|e| panic!("{}: {e}\n{}", program.family, program.source));
    if let Expect::Exact(_) = program.expect {
        assert_eq!(histogram.len(), 1, "{}", program.family);
    }
}

#[test]
fn every_generator_agrees_with_the_reference_simulator() {
    let mut rng = Rng::new(11, 0);
    for n in 2..=8 {
        assert_answer_is_the_reference(&programs::qft_adder(n, &mut rng));
    }
    assert_answer_is_the_reference(&programs::ripple_adder(3, 2, &mut rng));
    assert_answer_is_the_reference(&programs::ripple_adder(2, 3, &mut rng));
    for (w, rounds) in [(3, 1), (3, 2), (4, 1)] {
        let program = programs::ghz_syndrome(w, rounds, &mut rng);
        assert_answer_is_the_reference(&program);
        assert_eq!(support(&program, 2).1.len(), 2, "the two GHZ branches");
    }

    for n in 4..=8 {
        let p = distribution(n, &programs::ghz(n, &mut rng).reference);
        assert!((p[0] - 0.5).abs() < 1e-12 && (p[(1 << n) - 1] - 0.5).abs() < 1e-12);

        let product = programs::product(n, &mut rng);
        let marginals = crate::client::marginals_of(&distribution(n, &product.reference));
        let angles = product.reference.iter().filter(|op| op.gate == "ry");
        for (theta, got) in angles.map(|op| op.params[0]).zip(marginals) {
            assert!((got - (1.0 + theta.sin()) / 2.0).abs() < 1e-12);
        }
    }
    for marked in 0..8 {
        for (iterations, expect) in [(1, 0.78125), (2, 0.9453125)] {
            let p = distribution(3, &programs::grover3(marked, iterations).reference);
            assert!(
                (p[marked] - expect).abs() < 1e-12,
                "{marked} {iterations}: {}",
                p[marked]
            );
        }
    }
    let p = distribution(3, &programs::teleport(&mut rng).reference);
    for (outcome, &probability) in p.iter().enumerate() {
        // The receiving qubit always reads zero; the two sent bits are fair.
        let expect = if outcome & 0b100 == 0 { 0.25 } else { 0.0 };
        assert!(
            (probability - expect).abs() < 1e-12,
            "{outcome}: {probability}"
        );
    }
}

fn first_lines(workload: Workload, seed: u64, count: usize) -> Vec<String> {
    let mut inputs = workloads::inputs(workload, seed);
    let mut lines = Vec::new();
    for stream in &mut inputs.streams {
        lines.extend(
            (0..count)
                .filter_map(|_| stream.next_op())
                .map(|op| op.line),
        );
    }
    lines.extend(inputs.warmups.into_iter().map(|op| op.line));
    lines
}

#[test]
fn the_same_seed_gives_the_same_bytes_and_another_seed_other_programs() {
    let socket = [
        Workload::Sv20Shots,
        Workload::ServeSmall,
        Workload::CompileCold,
        Workload::OpenMix,
    ];
    for workload in socket {
        let lines = first_lines(workload, 5, 12);
        assert_eq!(lines, first_lines(workload, 5, 12), "{}", workload.name());
        assert_ne!(lines, first_lines(workload, 6, 12), "{}", workload.name());
        assert!(lines
            .iter()
            .all(|line| line.ends_with("}\n") && line.len() <= 256 << 10));
    }
    assert_eq!(
        crate::measure::family_order(5),
        crate::measure::family_order(5)
    );
}

#[test]
fn the_cold_pool_stays_inside_its_size_range() {
    let pool = workloads::cold_programs(32, &mut Rng::new(3, 0));
    for known in &pool {
        let bytes = known.program.source.len();
        assert!(
            (30 << 10..=workloads::COLD_MAX_BYTES + (8 << 10)).contains(&bytes),
            "{} is {bytes} B",
            known.program.family
        );
        assert!(
            known.program.reference.is_empty(),
            "large programs keep no gate list"
        );
    }
    let adders = pool
        .iter()
        .filter(|k| k.program.family == "ripple_adder")
        .count();
    assert_eq!(adders, 2 * workloads::COLD_BLOCK_ADDERS);
}

#[test]
fn gates_out_repeats_exactly_for_a_seed() {
    let engine = quipper_exec::Engine::new();
    let count =
        |seed: u64| gates_out(&engine, &workloads::inputs(Workload::ServeSmall, seed)).unwrap();
    assert_eq!(count(9), count(9));
    assert!(count(9) > 0.0);
}

#[test]
fn the_generated_families_count_to_the_pinned_values() {
    let mut spans = SpanLog::new();
    for (op, family) in FAMILIES.into_iter().enumerate() {
        let generated = generate::run_op(family, &mut spans, op).unwrap_or_else(|e| panic!("{e}"));
        assert!(generated.ir_nodes > 0);
        let flattened = matches!(
            family,
            generate::Family::Pow17Flat | generate::Family::QwshFlat
        );
        assert_eq!(generated.flat_gates.is_some(), flattened);
    }
    spans.check().unwrap();
    assert!(spans.layer_self_us().contains_key("core"));
    // EXPERIMENTS.md, E7 and E6.
    assert_eq!(generate::Family::TfFull.pinned().0, 1_232_940_510_960);
    assert_eq!(generate::Family::TfOracle.pinned().0, 1_990_109);
}

/// One op of `program` through a real in-process server.
fn serve_once(program: Program) -> crate::load::Tally {
    let harness = Harness::start(None);
    let line = crate::client::submit_line(&program.source, "test", 16, 3);
    let known = Known {
        reference: Some({
            let p = distribution(program.qubits, &program.reference);
            let marginals = crate::client::marginals_of(&p);
            (p, marginals)
        }),
        program,
    };
    let mut stream = Stream::Fixed {
        ops: vec![workloads::OpSpec {
            program: 0,
            shots: 16,
            line,
        }],
        next: 0,
        cycle: false,
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let tally = closed_loop(
        harness.addr(),
        &mut stream,
        &[known],
        1,
        deadline,
        &mut SpanLog::disabled(),
        0,
    );
    harness.stop();
    tally
}

#[test]
fn a_corrupted_expected_answer_shows_up_as_a_failure() {
    let mut rng = Rng::new(2, 0);
    let good = programs::qft_adder(5, &mut rng);
    let tally = serve_once(good.clone());
    assert_eq!(
        (tally.attempted, tally.failed, tally.latencies_ms.len()),
        (1, 0, 1)
    );

    let mut bad = good;
    let Expect::Exact(bits) = &mut bad.expect else {
        panic!("adders are exact")
    };
    bits[2] ^= true;
    let tally = serve_once(bad);
    assert_eq!(
        (tally.attempted, tally.failed, tally.latencies_ms.len()),
        (1, 1, 0)
    );
    assert!(
        tally.errors[0].contains("not a possible answer"),
        "{:?}",
        tally.errors
    );
}

#[test]
fn a_short_run_of_the_small_workload_is_correct_end_to_end() {
    let report = crate::measure::end_to_end(Workload::ServeSmall, 4, 0.3).unwrap();
    assert!(
        report.attempted >= 2 && report.failed == 0,
        "{:?}",
        report.notes
    );
    let values = report.values.in_table(END_TO_END);
    assert!(values
        .iter()
        .all(|(name, _, value)| *value > 0.0 || panic!("{name} is 0")));
    let _: Inputs = workloads::inputs(Workload::OpenMix, 1);
}
