//! `quipper-lint`: run the static-analysis passes over a suite of built-in
//! circuits and report the findings.
//!
//! The suite mirrors the repository's example binaries — teleportation,
//! synthesized oracles, Grover, QFT, the welded-tree walk — so CI can assert
//! that everything the examples execute is statically clean:
//!
//! ```text
//! cargo run --release --bin quipper-lint -- --deny warnings
//! ```
//!
//! Exit status is 1 when any selected circuit has a finding at or above the
//! deny threshold (after `--allow` filtering), 0 otherwise.

use std::process::ExitCode;

use quipper_circuit::BCircuit;
use quipper_lint::{lint, LintReport, Severity};
use quipper_trace::JsonWriter;

#[path = "../circuit_suite.rs"]
mod circuit_suite;
use circuit_suite::suite;

const USAGE: &str = "\
quipper-lint: static analysis over the built-in circuit suite

USAGE: quipper-lint [OPTIONS]

OPTIONS:
  --list             print the suite's circuit names and exit
  --only NAME        lint only this circuit (repeatable)
  --qasm FILE        also lint an OpenQASM file (repeatable); parse errors
                     are reported with their QP codes and count as failures
  --deny LEVEL       fail on findings at or above LEVEL: errors | warnings
                     (default: errors)
  --allow CODE       drop findings with this code, e.g. --allow QL030
                     (repeatable)
  --json             emit JSON Lines instead of the pretty report
  -h, --help         this text";

struct Options {
    list: bool,
    json: bool,
    deny: Severity,
    allow: Vec<String>,
    only: Vec<String>,
    qasm: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        list: false,
        json: false,
        deny: Severity::Error,
        allow: Vec::new(),
        only: Vec::new(),
        qasm: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--json" => opts.json = true,
            "--deny" => {
                opts.deny = match args.next().as_deref() {
                    Some("errors") => Severity::Error,
                    Some("warnings") => Severity::Warning,
                    other => return Err(format!("--deny expects errors|warnings, got {other:?}")),
                }
            }
            "--allow" => match args.next() {
                Some(code) => opts.allow.push(code),
                None => return Err("--allow expects a code, e.g. QL030".into()),
            },
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

/// Starts a circuit's `--json` output with its `{"kind":"circuit",…}` line;
/// the circuit's records follow, one per line.
fn json_header(name: &str) -> JsonWriter {
    let mut w = JsonWriter::new();
    w.begin_object().key("kind").string("circuit");
    w.key("name").string(name).end_object().newline();
    w
}

/// `--json` output for a file that did not parse: the header line, then one
/// QP record per diagnostic.
fn rejection_json(path: &str, diags: &quipper_qasm::Diagnostics) -> String {
    let mut w = json_header(path);
    for d in diags.iter() {
        d.write_json(&mut w);
        w.newline();
    }
    w.finish()
}

fn lint_one(name: &str, bc: &BCircuit, opts: &Options) -> (LintReport, bool) {
    let mut report = lint(bc);
    report
        .findings
        .retain(|d| !opts.allow.iter().any(|code| code == d.code));
    let failed = report.fails_at(opts.deny);
    if opts.json {
        print!("{}{}", json_header(name).finish(), report.to_json_lines());
    } else {
        let verdict = if failed {
            "FAIL"
        } else if report.is_clean() {
            "ok"
        } else {
            "ok (with findings)"
        };
        println!("{name}: {} — {verdict}", report.summary());
        if !report.findings.is_empty() {
            for line in report.to_string().lines() {
                println!("  {line}");
            }
        }
    }
    (report, failed)
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

    let mut failures = 0usize;
    let mut selected = 0usize;
    for (name, build) in &suite {
        if !opts.only.is_empty() && !opts.only.iter().any(|n| n == name) {
            continue;
        }
        selected += 1;
        let (_, failed) = lint_one(name, &build(), &opts);
        failures += usize::from(failed);
    }
    for path in &opts.qasm {
        selected += 1;
        let source = match std::fs::read_to_string(path) {
            Ok(source) => source,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                failures += 1;
                continue;
            }
        };
        match quipper_qasm::compile(&source) {
            Ok(bc) => {
                let (_, failed) = lint_one(path, &bc, &opts);
                failures += usize::from(failed);
            }
            Err(diags) => {
                // Parse/lowering rejections always fail, whatever --deny
                // says: there is no circuit to lint.
                if opts.json {
                    print!("{}", rejection_json(path, &diags));
                } else {
                    println!("{path}: does not parse — FAIL");
                    for d in diags.iter() {
                        println!("  {d}");
                    }
                }
                failures += 1;
            }
        }
    }
    if !opts.json {
        println!(
            "{selected} circuit{} linted, {failures} failed at --deny {}",
            if selected == 1 { "" } else { "s" },
            if opts.deny == Severity::Error {
                "errors"
            } else {
                "warnings"
            },
        );
    }
    if failures > 0 {
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
    fn json_lines_escape_the_path_and_the_messages() {
        let path = "a\"b\\c\n";
        let diags = quipper_qasm::compile("OPENQASM 2.0;\ninclude \"no\\pe\";\n").unwrap_err();
        let text = rejection_json(path, &diags);
        let lines: Vec<Json> = text
            .lines()
            .map(|line| parse_json(line).unwrap_or_else(|e| panic!("{e}: {line}")))
            .collect();
        assert_eq!(lines.len(), 1 + diags.len());
        assert_eq!(lines[0].get("kind").and_then(Json::as_str), Some("circuit"));
        assert_eq!(lines[0].get("name").and_then(Json::as_str), Some(path));
        for (line, d) in lines[1..].iter().zip(diags.iter()) {
            assert_eq!(
                line.get("code").and_then(Json::as_str),
                Some(d.code.as_str())
            );
            assert_eq!(
                line.get("message").and_then(Json::as_str),
                Some(&*d.message)
            );
        }
        // The fixture's message itself needs both escapes.
        assert!(diags
            .iter()
            .any(|d| d.message.contains('"') && d.message.contains('\\')));
    }
}
