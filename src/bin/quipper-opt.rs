//! `quipper-opt`: run the optimizer over the built-in circuit suite and
//! report the gate deltas.
//!
//! The suite is the same one `quipper-lint` checks, so the delta table
//! shows what the optimizer does to exactly the circuits the examples
//! execute:
//!
//! ```text
//! cargo run --release --bin quipper-opt -- --level default
//! ```
//!
//! Exit status is 0 unless arguments are malformed; the tool reports, it
//! does not gate (CI asserts reductions through the benchmark instead).

use std::process::ExitCode;

use quipper_circuit::BCircuit;
use quipper_opt::{optimize, OptLevel, OptReport};
use quipper_trace::JsonWriter;

#[path = "../circuit_suite.rs"]
mod circuit_suite;
use circuit_suite::suite;

const USAGE: &str = "\
quipper-opt: circuit optimizer over the built-in suite

USAGE: quipper-opt [OPTIONS]

OPTIONS:
  --list             print the suite's circuit names and exit
  --only NAME        optimize only this circuit (repeatable)
  --qasm FILE        also optimize an OpenQASM file (repeatable); files
                     that do not parse report their QP codes and fail
  --level LEVEL      whether the pipeline runs: off | default
                     (default: default)
  --json             emit JSON Lines instead of the pretty table
  -h, --help         this text";

struct Options {
    list: bool,
    json: bool,
    level: OptLevel,
    only: Vec<String>,
    qasm: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        list: false,
        json: false,
        level: OptLevel::Default,
        only: Vec::new(),
        qasm: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--json" => opts.json = true,
            "--level" => {
                opts.level = match args.next().as_deref().and_then(OptLevel::parse) {
                    Some(level) => level,
                    None => return Err("--level expects off|default".into()),
                }
            }
            "--only" => match args.next() {
                Some(name) => opts.only.push(name),
                None => return Err("--only expects a circuit name".into()),
            },
            "--qasm" => match args.next() {
                Some(path) => opts.qasm.push(path),
                None => return Err("--qasm expects a file path".into()),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// One circuit's `--json` line.
fn report_json(name: &str, report: &OptReport) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().key("kind").string("circuit");
    w.key("name").string(name);
    w.key("level").string(&report.level.to_string());
    w.key("gates_before").int(report.gates_before());
    w.key("gates_after").int(report.gates_after());
    w.key("removed").int(report.removed());
    w.key("rewrites").int(report.rewrites());
    w.key("t_before").int(report.before.t_count());
    w.key("t_after").int(report.after.t_count());
    w.key("twoq_before").int(report.before.two_qubit());
    w.key("twoq_after").int(report.after.two_qubit());
    w.key("passes").begin_array();
    for p in &report.passes {
        w.begin_object().key("pass").string(p.name);
        w.key("gates_before").int(p.gates_before);
        w.key("gates_after").int(p.gates_after);
        w.key("rewrites").int(p.rewrites).end_object();
    }
    w.end_array().end_object();
    w.finish()
}

fn optimize_one(name: &str, bc: &BCircuit, opts: &Options) -> OptReport {
    let (_, report) = optimize(bc, opts.level);
    if opts.json {
        println!("{}", report_json(name, &report));
    } else {
        let pct = if report.gates_before() > 0 {
            100.0 * report.removed() as f64 / report.gates_before() as f64
        } else {
            0.0
        };
        println!(
            "{name:<16}{:>10} -> {:<10}{:>+8}  ({pct:.1}%)  T {:>4} -> {:<4} 2q {:>4} -> {:<4} {} rewrites",
            report.gates_before(),
            report.gates_after(),
            -report.removed(),
            report.before.t_count(),
            report.after.t_count(),
            report.before.two_qubit(),
            report.after.two_qubit(),
            report.rewrites(),
        );
    }
    report
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let suite = suite();
    if opts.list {
        for (name, _) in &suite {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some(unknown) = opts
        .only
        .iter()
        .find(|name| !suite.iter().any(|(n, _)| n == *name))
    {
        eprintln!("error: no circuit named {unknown:?} (see --list)");
        return ExitCode::FAILURE;
    }

    if !opts.json {
        println!(
            "{:<16}{:>10}    {:<10}{:>8}  {:<27}level: {}",
            "circuit", "before", "after", "delta", "T-count / 2q-count", opts.level
        );
    }
    let mut selected = 0usize;
    let mut total_before: u128 = 0;
    let mut total_after: u128 = 0;
    for (name, build) in &suite {
        if !opts.only.is_empty() && !opts.only.iter().any(|n| n == name) {
            continue;
        }
        selected += 1;
        let report = optimize_one(name, &build(), &opts);
        total_before += report.gates_before();
        total_after += report.gates_after();
    }
    let mut parse_failures = 0usize;
    for path in &opts.qasm {
        let source = match std::fs::read_to_string(path) {
            Ok(source) => source,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                parse_failures += 1;
                continue;
            }
        };
        match quipper_qasm::compile(&source) {
            Ok(bc) => {
                selected += 1;
                let report = optimize_one(path, &bc, &opts);
                total_before += report.gates_before();
                total_after += report.gates_after();
            }
            Err(diags) => {
                eprintln!("error: {path} does not parse:");
                for d in diags.iter() {
                    eprintln!("  {d}");
                }
                parse_failures += 1;
            }
        }
    }
    if !opts.json {
        println!(
            "{selected} circuit{} optimized at --level {}: {total_before} -> {total_after} gates",
            if selected == 1 { "" } else { "s" },
            opts.level,
        );
    }
    if parse_failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quipper_trace::{parse_json, Json};

    #[test]
    fn json_line_escapes_the_circuit_name() {
        let name = "a\"b\\c\n";
        let (_, build) = &suite()[0];
        let (_, report) = optimize(&build(), OptLevel::Default);
        let line = report_json(name, &report);
        assert!(!line.contains('\n'), "one record per line: {line:?}");
        let json = parse_json(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(json.get("name").and_then(Json::as_str), Some(name));
        assert_eq!(
            json.get("gates_before").and_then(Json::as_num),
            Some(report.gates_before() as f64)
        );
        let passes = json.get("passes").and_then(Json::as_arr).unwrap();
        assert_eq!(passes.len(), report.passes.len());
    }
}
