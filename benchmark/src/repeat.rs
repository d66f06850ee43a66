//! The forms for people: each pass of each workload runs in a child process of
//! its own (peak memory is then per workload), and the results are printed as
//! `workload metric value unit` rows, or, for `repeat`, as a table of medians,
//! quartiles and spreads beside the bounds.

use std::process::{Command, ExitCode, Stdio};

use crate::host;
use crate::json::{self, Json};
use crate::metrics::{Metric, DIAGNOSTIC, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::workloads::{self, Workload};
use crate::Options;

/// One pass as its child process reported it.
struct Pass {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in table order.
    metrics: Vec<(String, f64, String)>,
    /// The `# name value unit` lines before the result line.
    diagnostics: Vec<(String, f64, String)>,
}

/// Runs one pass in a child process; its notes go straight to standard error.
fn child(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("no result line")?;
    let result = json::parse(line)?;
    let number = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("no {key}"))
    };
    let Some(Json::Obj(fields)) = result.get("metrics") else {
        return Err("no metrics".to_string());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (name.clone(), value, unit.to_string())
        })
        .collect();
    let diagnostics = stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix("# ")?.split(' ');
            let (name, value, unit) = (words.next()?, words.next()?, words.next()?);
            Some((name.to_string(), value.parse().ok()?, unit.to_string()))
        })
        .collect();
    Ok(Pass {
        attempted: number("attempted")? as u64,
        failed: number("failed")? as u64,
        metrics,
        diagnostics,
    })
}

fn print_machine() {
    let m = host::machine();
    println!(
        "# cpu: {}; nproc: {}; available_parallelism: {}",
        m.cpu_model, m.nproc, m.available_parallelism
    );
}

/// Prints one pass; returns whether every answer was right.
fn print_pass(workload: Workload, pass: &Pass, traced: bool) -> bool {
    for (name, value, unit) in pass.metrics.iter().chain(&pass.diagnostics) {
        println!("{} {name} {value} {unit}", workload.name());
    }
    if traced {
        println!("{} ops_checked {} count", workload.name(), pass.attempted);
    }
    pass.failed == 0
}

/// `all`, `run` and `trace`: for each workload, the passes asked for
/// (`false` the end-to-end pass, `true` the traced pass), in that order.
pub fn all(workloads: &[Workload], options: &Options, passes: &[bool]) -> ExitCode {
    print_machine();
    let mut ok = true;
    for &workload in workloads {
        for &traced in passes {
            match child(workload, options.seed, options.seconds, traced) {
                Ok(pass) => ok &= print_pass(workload, &pass, traced),
                Err(error) => {
                    eprintln!("{error}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: a pass did not run or an answer was wrong");
        ExitCode::FAILURE
    }
}

/// `repeat`: the end-to-end pass of every workload `runs` times, on the same
/// seed or, with `vary_seed`, on `seed, seed + 1, ...` as the driver does.
/// Prints median, quartiles and spread per workload and metric beside the
/// bound, and writes the same as JSON to `out`.
pub fn repeat(runs: usize, options: &Options, vary_seed: bool, out: Option<&str>) -> ExitCode {
    print_machine();
    let mut ok = true;
    // values[workload][metric] = one value per run
    let table: Vec<&Metric> = END_TO_END.iter().chain(DIAGNOSTIC).collect();
    let mut values = vec![vec![Vec::new(); table.len()]; workloads::ALL.len()];
    for run in 0..runs {
        let seed = options.seed + if vary_seed { run as u64 } else { 0 };
        for (w, &workload) in workloads::ALL.iter().enumerate() {
            match child(workload, seed, options.seconds, false) {
                Ok(pass) => {
                    ok &= pass.failed == 0;
                    for (m, (_, value, _)) in
                        pass.metrics.iter().chain(&pass.diagnostics).enumerate()
                    {
                        values[w][m].push(*value);
                    }
                    eprintln!("run {run} seed {seed} {}: done", workload.name());
                }
                Err(error) => {
                    eprintln!("{error}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let machine = host::machine();
    let mut file = format!(
        "{{\n  \"cpu_model\": \"{}\",\n  \"nproc\": {},\n  \"available_parallelism\": {},\n  \
         \"runs\": {runs},\n  \"first_seed\": {},\n  \"seeds\": \"{}\",\n  \"run_seconds\": {},\n  \"rows\": [\n",
        machine.cpu_model,
        machine.nproc,
        machine.available_parallelism,
        options.seed,
        if vary_seed { "one per run" } else { "the same" },
        options.seconds,
    );
    println!("workload metric unit median q1 q3 spread bound verdict");
    let mut rows = Vec::new();
    for (w, workload) in workloads::ALL.iter().enumerate() {
        for (m, metric) in table.iter().enumerate() {
            let v = &values[w][m];
            let (q1, q3) = quartiles(v);
            let (mid, spread) = (median(v), spread(v));
            // The driver holds every spread but set-up's to the bound; the
            // aim is a third of it. Diagnostics have no bound.
            let verdict = match spread {
                _ if m >= END_TO_END.len() => "diagnostic",
                s if s <= metric.bound / 3.0 => "steady",
                s if s <= metric.bound || metric.name == "setup_s" => "within",
                _ => "TOO-WIDE",
            };
            println!(
                "{} {} {} {mid} {q1} {q3} {spread:.4} {} {verdict}",
                workload.name(),
                metric.name,
                metric.unit,
                metric.bound
            );
            let list: Vec<String> = v.iter().map(f64::to_string).collect();
            rows.push(format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"median\": {mid}, \
                 \"q1\": {q1}, \"q3\": {q3}, \"spread\": {spread}, \"bound\": {}, \"values\": [{}]}}",
                workload.name(),
                metric.name,
                metric.unit,
                metric.bound,
                list.join(", ")
            ));
        }
    }
    file.push_str(&rows.join(",\n"));
    file.push_str("\n  ]\n}\n");
    if let Some(path) = out {
        if let Err(error) = std::fs::write(path, file) {
            eprintln!("{path}: {error}");
            return ExitCode::FAILURE;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: an answer was wrong");
        ExitCode::FAILURE
    }
}
