//! The benchmark's command line. See `README.md` beside `Cargo.toml`.
//!
//! The driver's form runs one pass of one workload in this process:
//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! and prints one JSON object as the last line of standard output.
//!
//! The forms for people run each workload in a child process of its own, so
//! that peak memory is per workload: `all`, `run <workload>`,
//! `trace <workload>`, `repeat <n>`, with `--seed`, `--seconds`, `--quick`.

mod client;
mod generate;
mod host;
mod json;
mod load;
mod measure;
mod metrics;
mod programs;
mod refsim;
mod repeat;
mod rng;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::process::ExitCode;

use measure::Report;
use workloads::Workload;

/// The flags every form shares.
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

/// One pass of one workload in this process; prints the driver's JSON line.
fn run_pass(workload: Workload, options: &Options, traced: bool) -> ExitCode {
    let table = if traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let report = if traced {
        trace::traced(workload, options.seed, options.seconds)
    } else {
        measure::end_to_end(workload, options.seed, options.seconds)
    };
    let mut report: Report = match report {
        Ok(report) => report,
        Err(error) => {
            eprintln!("{}: {error}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        eprintln!("{}: {note}", workload.name());
    }
    if !traced {
        let mut values = report.values;
        values.set(
            "failed_share",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
        for (name, unit, value) in values.in_table(metrics::DIAGNOSTIC) {
            println!("# {name} {value} {unit}");
        }
        report.values = values;
    }
    let metrics: Vec<String> = report
        .values
        .in_table(table)
        .into_iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      benchmark all|run <workload>|trace <workload>|repeat <n>|manifest \
         [--seed <n>] [--seconds <s>] [--quick] [--vary-seed] [--out <file>]\n\
         workloads: {}",
        workloads::ALL.map(Workload::name).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seconds = match flag(&args, "--seconds").map(str::parse::<f64>) {
        Some(Ok(seconds)) if seconds > 0.0 => seconds,
        Some(_) => return usage(),
        None if quick => metrics::RUN_SECONDS as f64 / 20.0,
        None => metrics::RUN_SECONDS as f64,
    };
    let seed = match flag(&args, "--seed").map(str::parse::<u64>) {
        Some(Ok(seed)) => seed,
        Some(Err(_)) => return usage(),
        None => 1,
    };
    let options = Options { seed, seconds };

    if let Some(name) = flag(&args, "--workload") {
        let Some(workload) = Workload::parse(name) else {
            return usage();
        };
        return run_pass(workload, &options, flag(&args, "--trace") == Some("1"));
    }
    let named = || args.get(1).and_then(|name| Workload::parse(name));
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        Some("all") => repeat::all(&workloads::ALL, &options, &[false, true]),
        Some("run") => match named() {
            Some(workload) => repeat::all(&[workload], &options, &[false]),
            None => usage(),
        },
        Some("trace") => match named() {
            Some(workload) => repeat::all(&[workload], &options, &[true]),
            None => usage(),
        },
        Some("repeat") => match args.get(1).and_then(|n| n.parse::<usize>().ok()) {
            Some(runs) if runs >= 2 => repeat::repeat(
                runs,
                &options,
                args.iter().any(|a| a == "--vary-seed"),
                flag(&args, "--out"),
            ),
            _ => usage(),
        },
        _ => usage(),
    }
}
