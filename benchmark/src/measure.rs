//! The end-to-end pass: set up, measure for the run's duration with tracing
//! off, check every answer, and report what a user of the system would see.

use std::time::{Duration, Instant};

use quipper_exec::Engine;

use crate::client::{POLL_FIRST_SLEEP, POLL_SLEEP_CAP};
use crate::generate::{self, Family, FAMILIES};
use crate::host::{self, Harness};
use crate::load::{closed_loop, open_loop, warm_up, Tally};
use crate::metrics::Values;
use crate::rng::Rng;
use crate::spans::SpanLog;
use crate::stats::{median, percentile};
use crate::workloads::{self, Inputs, Known, Workload, MIX_HEAVY_PERIOD, MIX_SMALL_PERIOD};

/// Set-up is done this many times in a run and its median reported, so that
/// one slow start does not read as a regression.
pub const SETUP_REPEATS: usize = 5;

/// A run too short to be compared with another (`--quick`) sets up once.
fn setup_repeats(seconds: f64) -> usize {
    if seconds < 5.0 {
        1
    } else {
        SETUP_REPEATS
    }
}

/// What one run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Sample counts, failures and other context, for people.
    pub notes: Vec<String>,
}

/// The family order of a `generate_count` round for `seed`.
pub fn family_order(seed: u64) -> Vec<Family> {
    let mut order = FAMILIES.to_vec();
    Rng::new(seed, Workload::GenerateCount as u64).shuffle(&mut order);
    order
}

/// Inputs, reference answers, server start and one warm-up op per program
/// family and worker, `repeats` times; the last set-up is the one measured on.
fn set_up(
    workload: Workload,
    seed: u64,
    repeats: usize,
    values: &mut Values,
) -> Result<(Harness, Inputs), String> {
    let mut seconds = Vec::new();
    loop {
        let started = Instant::now();
        let inputs = workloads::inputs(workload, seed);
        let harness = Harness::start(None);
        warm_up(
            harness.addr(),
            &inputs.warmups,
            &inputs.programs,
            harness.workers,
        )?;
        seconds.push(started.elapsed().as_secs_f64());
        if seconds.len() == repeats {
            values.set("setup_s", median(&seconds));
            return Ok((harness, inputs));
        }
        harness.stop();
    }
}

/// What the workload's own loop saw.
pub struct Driven {
    /// The connections of a closed loop merged, or the small tenant.
    pub tally: Tally,
    /// The heavy tenant of `open_mix`.
    pub heavy: Option<Tally>,
    /// From the start of measuring to the last answer of any stream.
    pub elapsed: Duration,
}

impl Driven {
    fn both(&self) -> impl Iterator<Item = &Tally> {
        std::iter::once(&self.tally).chain(&self.heavy)
    }

    pub fn attempted(&self) -> u64 {
        self.both().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.both().map(|t| t.failed).sum()
    }

    /// Ops answered correctly.
    pub fn completed(&self) -> usize {
        self.both().map(|t| t.latencies_ms.len()).sum()
    }

    /// The first failures of every stream, as notes.
    pub fn failures(&self) -> impl Iterator<Item = String> + '_ {
        self.both()
            .flat_map(|t| &t.errors)
            .map(|e| format!("FAILED {e}"))
    }
}

/// Runs the workload's streams against `harness` for `seconds`, one thread
/// and one connection per stream.
pub fn drive(
    workload: Workload,
    harness: &Harness,
    inputs: &mut Inputs,
    seconds: f64,
    spans: &mut SpanLog,
) -> Driven {
    let addr = harness.addr();
    let programs: &[Known] = &inputs.programs;
    let round = inputs.round;
    let start = Instant::now();
    let duration = Duration::from_secs_f64(seconds);
    let mut tallies = std::thread::scope(|scope| {
        let threads: Vec<_> = inputs
            .streams
            .iter_mut()
            .enumerate()
            .map(|(k, stream)| {
                let mut log = spans.fork();
                scope.spawn(move || {
                    let tally = if workload == Workload::OpenMix {
                        let period = [MIX_SMALL_PERIOD, MIX_HEAVY_PERIOD][k];
                        open_loop(addr, stream, programs, period, start, duration)
                    } else {
                        let (deadline, first_op) = (start + duration, k * 1_000_000);
                        closed_loop(addr, stream, programs, round, deadline, &mut log, first_op)
                    };
                    (tally, log)
                })
            })
            .collect();
        let mut tallies = Vec::new();
        for thread in threads {
            let (tally, log) = thread.join().expect("load thread");
            spans.absorb(log);
            tallies.push(tally);
        }
        tallies
    });
    let finished = tallies.iter().filter_map(|t| t.finished).max();
    let heavy = (workload == Workload::OpenMix).then(|| tallies.pop().expect("heavy tenant"));
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t);
    }
    Driven {
        tally,
        heavy,
        elapsed: finished.expect("a finished stream") - start,
    }
}

/// The sum over `inputs.gates_set` of the gate count the server's own engine
/// reports after its default pipeline; programs it has run are cache hits.
pub fn gates_out(engine: &Engine, inputs: &Inputs) -> Result<f64, String> {
    let mut total = 0u128;
    for &i in &inputs.gates_set {
        let source = &inputs.programs[i].program.source;
        let bc = quipper_qasm::compile(source).map_err(|d| d.to_string())?;
        let plan = engine.plan(&bc).map_err(|e| e.to_string())?;
        total += match &plan.opt {
            Some(report) => report.gates_after(),
            None => bc.gate_count().total(),
        };
    }
    Ok(total as f64)
}

/// Latency of `tally`'s correct ops and the share of its ops inside the limit.
fn latency_values(values: &mut Values, tally: &Tally, workload: Workload) {
    let limit_ms = workload.latency_limit().as_secs_f64() * 1e3;
    let within = tally
        .latencies_ms
        .iter()
        .filter(|&&ms| ms <= limit_ms)
        .count();
    values.set("latency_p50_ms", median(&tally.latencies_ms));
    values.set("latency_p90_ms", percentile(&tally.latencies_ms, 90.0));
    values.set(
        "slo_met_share",
        within as f64 / tally.attempted.max(1) as f64,
    );
}

/// Closed-loop throughput: the ops of one round on every connection over the
/// median round time, times the share of ops that were right. The median
/// round stands for the run, so one stalled round does not.
fn closed_loop_rate(
    round_ops: usize,
    connections: usize,
    round_s: &[f64],
    right: usize,
    attempted: u64,
) -> f64 {
    let per_round = (round_ops * connections) as f64 / median(round_s).max(1e-9);
    per_round * right as f64 / attempted.max(1) as f64
}

fn generate_count(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut values = Values::default();
    let order = family_order(seed);
    let mut off = SpanLog::disabled();
    let mut setups = Vec::new();
    for _ in 0..setup_repeats(seconds) {
        let started = Instant::now();
        let order = family_order(seed);
        let warm = generate::run_rounds(&order, Instant::now(), &mut off);
        if let Some(error) = warm.errors.first() {
            return Err(format!("warm-up: {error}"));
        }
        setups.push(started.elapsed().as_secs_f64());
    }
    values.set("setup_s", median(&setups));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let rounds = generate::run_rounds(&order, deadline, &mut off);
    let tally = Tally {
        attempted: (rounds.done.len() + rounds.errors.len()) as u64,
        failed: rounds.errors.len() as u64,
        latencies_ms: rounds.done.iter().map(|(_, ms, _)| *ms).collect(),
        errors: rounds.errors,
        ..Tally::default()
    };
    latency_values(&mut values, &tally, Workload::GenerateCount);
    let right = tally.latencies_ms.len();
    let rate = closed_loop_rate(order.len(), 1, &rounds.round_s, right, tally.attempted);
    values.set("ops_per_s", rate);
    values.set("gates_out", generate::pinned_total() as f64);
    values.set("peak_rss_mib", host::peak_rss_mib());
    let mut notes = vec![format!(
        "{right} latency samples in {} rounds of {} families, one thread",
        rounds.round_s.len(),
        order.len()
    )];
    notes.extend(tally.errors.iter().map(|e| format!("FAILED {e}")));
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        notes,
    })
}

pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    if workload == Workload::GenerateCount {
        return generate_count(seed, seconds);
    }
    let mut values = Values::default();
    let (harness, mut inputs) = set_up(workload, seed, setup_repeats(seconds), &mut values)?;
    let driven = drive(
        workload,
        &harness,
        &mut inputs,
        seconds,
        &mut SpanLog::disabled(),
    );
    let tally = &driven.tally;
    let mut notes = Vec::new();
    let mut failed = driven.failed();
    let sigma = tally.marginals.worst_sigma();
    if sigma > 5.0 {
        failed += 1;
        notes.push(format!(
            "FAILED pooled marginals are {sigma:.1} sigma from the reference"
        ));
    }
    latency_values(&mut values, tally, workload);
    let rate = if workload == Workload::OpenMix {
        // Open loop: what the schedule achieved, both tenants.
        driven.completed() as f64 / driven.elapsed.as_secs_f64()
    } else {
        let (right, attempted) = (driven.completed(), driven.attempted());
        closed_loop_rate(
            inputs.round,
            inputs.streams.len(),
            &tally.round_s,
            right,
            attempted,
        )
    };
    values.set("ops_per_s", rate);
    values.set("gates_out", gates_out(harness.service.engine(), &inputs)?);
    let stats = harness.service.stats();
    harness.stop();
    values.set("peak_rss_mib", host::peak_rss_mib());
    notes.push(format!(
        "{} latency samples over {:.2} s; polls {:.2}/op (at once, then {POLL_FIRST_SLEEP:?} \
         doubling to {POLL_SLEEP_CAP:?}); pooled marginals within {sigma:.2} sigma; server refused {}",
        tally.latencies_ms.len(),
        driven.elapsed.as_secs_f64(),
        tally.polls as f64 / tally.attempted.max(1) as f64,
        stats.rejected_queue_full + stats.rejected_quota,
    ));
    if let Some(heavy) = &driven.heavy {
        notes.push(format!(
            "heavy tenant: {} ops, p50 {:.1} ms; small tenant sent late by p99 {:.0} us",
            heavy.latencies_ms.len(),
            median(&heavy.latencies_ms),
            percentile(&tally.late_us, 99.0)
        ));
    }
    notes.extend(driven.failures());
    Ok(Report {
        attempted: driven.attempted(),
        failed,
        values,
        notes,
    })
}
