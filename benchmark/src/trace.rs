//! The traced pass: the per-layer numbers. The benchmark replays a workload's
//! ops by calling each layer's public function in pipeline order from here,
//! with a span around every call, then drives the same ops through the socket
//! with client-side spans, with the program's own tracer off and on.
//!
//! End-to-end metrics never come from this pass. Times are medians per op;
//! counts are means per replayed op.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use quipper_circuit::flatten::inline_all;
use quipper_exec::{Engine, Job, OptLevel, Plan};
use quipper_serve::catalog::Catalog;
use quipper_serve::protocol::handle_line;
use quipper_serve::Service;
use quipper_sim::fuse_circuit;

use crate::client::{self, check, parse_ack, result_line, submit_line, Histogram};
use crate::generate::{self, Family};
use crate::host::{self, Harness};
use crate::load::warm_up;
use crate::measure::{drive, family_order, Driven, Report};
use crate::metrics::Values;
use crate::spans::SpanLog;
use crate::stats::{mean, median, percentile};
use crate::workloads::{self, Inputs, Known, OpSpec, Workload, SV_QUBITS, SV_SHOTS};

/// Shots replayed per op for programs this wide or wider; narrower programs
/// replay every shot. Two 20-qubit shots are a third of a second.
const WIDE_QUBITS: usize = 16;
const WIDE_SHOTS: u64 = 2;
/// At most this many ops are replayed layer by layer.
const MAX_REPLAYED: usize = 2_000;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut values = Values::default();
    let mut notes = Vec::new();
    let mut spans = SpanLog::new();
    values.set("host.stream_gbps", host::stream_gbps());
    let (attempted, failed) = if workload == Workload::GenerateCount {
        trace_generate(seed, seconds, &mut spans, &mut values, &mut notes)?
    } else {
        trace_socket(workload, seed, seconds, &mut spans, &mut values, &mut notes)?
    };
    spans.check().map_err(|e| format!("span self-check: {e}"))?;
    let path = PathBuf::from("benchmark/out").join(format!("trace-{}.jsonl", workload.name()));
    match spans.write_jsonl(&path) {
        Ok(()) => notes.push(format!("{} spans in {}", spans.spans.len(), path.display())),
        Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
    }
    Ok(Report {
        attempted,
        failed,
        values,
        notes,
    })
}

/// Median duration in µs of the spans called `name`; 0 when there are none.
fn p50(spans: &SpanLog, name: &str) -> f64 {
    median(&spans.durations_us(name))
}

fn trace_generate(
    seed: u64,
    seconds: f64,
    spans: &mut SpanLog,
    values: &mut Values,
    notes: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let order = family_order(seed);
    let share = |x: f64| Instant::now() + Duration::from_secs_f64(seconds * x);
    // The sum over families of the median op latency: one round's cost.
    let round_ms = |rounds: &generate::Rounds| -> f64 {
        order
            .iter()
            .map(|family| {
                let ms: Vec<f64> = rounds
                    .done
                    .iter()
                    .filter(|(f, ..)| f == family)
                    .map(|(_, ms, _)| *ms)
                    .collect();
                median(&ms)
            })
            .sum()
    };
    let mut off = SpanLog::disabled();
    let warm = generate::run_rounds(&order, Instant::now(), &mut off);
    let plain = generate::run_rounds(&order, share(0.25), &mut off);
    let traced = generate::run_rounds(&order, share(0.4), spans);
    quipper_trace::tracer().set_enabled(true);
    let on = generate::run_rounds(&order, share(0.25), &mut off);
    quipper_trace::tracer().set_enabled(false);
    let done = &traced.done;

    let family_of = |op: usize| order[op % order.len()];
    let build_ms = |families: &[Family]| {
        let ms: Vec<f64> = spans
            .spans
            .iter()
            .filter(|s| s.name == "core.build" && families.contains(&family_of(s.op)))
            .map(|s| s.us() / 1e3)
            .collect();
        median(&ms)
    };
    values.set("core.build_us", p50(spans, "core.build"));
    values.set("algorithms.tf_full_ms", build_ms(&[Family::TfFull]));
    values.set("algorithms.tf_oracle_ms", build_ms(&[Family::TfOracle]));
    values.set(
        "algorithms.bwt_ms",
        build_ms(&[Family::BwtOrthodox, Family::BwtTemplate]),
    );
    values.set("algorithms.hex_ms", build_ms(&[Family::Hex]));
    values.set("arith.pow17_ms", build_ms(&[Family::Pow17]));
    values.set("arith.sin_ms", build_ms(&[Family::Sin]));
    let build_s: f64 = spans.durations_us("core.build").iter().sum::<f64>() / 1e6;
    let nodes: usize = done.iter().map(|(.., g)| g.ir_nodes).sum();
    values.set("core.ir_gates_per_s", nodes as f64 / build_s.max(1e-9));
    let rounds = (done.len() / order.len()).max(1);
    values.set(
        "core.subroutines",
        done.iter().map(|(.., g)| g.subroutines).sum::<usize>() as f64 / rounds as f64,
    );
    values.set("core.decompose_us", p50(spans, "core.decompose"));
    values.set("circuit.validate_us", p50(spans, "circuit.validate"));
    values.set("circuit.count_us", p50(spans, "circuit.count"));
    values.set("circuit.resources_us", p50(spans, "circuit.resources"));
    values.set("circuit.flatten_us", p50(spans, "circuit.flatten"));
    values.set("circuit.export_us", p50(spans, "circuit.export"));
    let flat: Vec<f64> = done
        .iter()
        .filter_map(|(.., g)| g.flat_gates.map(|n| n as f64))
        .collect();
    values.set("circuit.flat_gates", mean(&flat));

    let plain_round = round_ms(&plain);
    values.set(
        "trace.overhead_share",
        round_ms(&traced) / plain_round - 1.0,
    );
    values.set("trace.tracer_on_share", round_ms(&on) / plain_round - 1.0);
    let layer_us: f64 = spans.layer_self_us().values().sum();
    let op_us: f64 = spans.durations_us("op").iter().sum();
    values.set("trace.coverage", layer_us / op_us.max(1e-9));
    notes.push(format!(
        "layer self time: {}",
        shares(&spans.layer_self_us().into_iter().collect::<Vec<_>>())
    ));

    let all_errors: Vec<&String> = [&warm.errors, &plain.errors, &traced.errors, &on.errors]
        .into_iter()
        .flatten()
        .collect();
    notes.extend(all_errors.iter().take(4).map(|e| format!("FAILED {e}")));
    let attempted = plain.done.len() + done.len() + on.done.len() + all_errors.len();
    Ok((attempted as u64, all_errors.len() as u64))
}

/// `layer share%` pairs, largest first.
fn shares(layers: &[(&str, f64)]) -> String {
    let total: f64 = layers.iter().map(|(_, us)| us).sum();
    let mut rows: Vec<(&str, f64)> = layers.to_vec();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let rows: Vec<String> = rows
        .iter()
        .map(|(layer, us)| format!("{layer} {:.1}%", 100.0 * us / total.max(1e-9)))
        .collect();
    rows.join(", ")
}

/// What the layer-by-layer replay of one op measured beyond its spans.
struct Replayed {
    source_bytes: usize,
    lowered: usize,
    flat_gates: usize,
    fused_away: usize,
    diagnostics: usize,
    opt: quipper_opt::OptReport,
    /// `Plan::compile_with` minus the replayed calls it is made of.
    plan_self_us: f64,
    /// `run_sequential`'s execute time minus the same shots run one by one.
    run_overhead_us: f64,
    /// `handle_line` submit minus request decode and QASM compile.
    submit_self_us: f64,
    /// What every op pays: request decode, QASM compile, the server's own
    /// submit and result code, and the shots at the op's real shot count.
    always_us: f64,
    /// What only a plan-cache miss pays: validate to fuse, and the plan's own.
    on_miss_us: f64,
    /// The op's shots over the shots replayed.
    shot_scale: f64,
    correct: bool,
}

/// Replays one op: each layer's public function in pipeline order under `op`
/// roots (compile, then shots and result), and between them the engine's and
/// the server's own entry points, whole, under an `op_whole` root.
fn replay(
    op: &OpSpec,
    known: &Known,
    id: usize,
    engine: &Engine,
    service: &Service,
    catalog: &Catalog,
    spans: &mut SpanLog,
) -> Result<Replayed, String> {
    let program = &known.program;
    let shots = if program.qubits >= WIDE_QUBITS {
        op.shots.min(WIDE_SHOTS)
    } else {
        op.shots
    };
    let seed = 1 + id as u64;
    let line = submit_line(&program.source, "trace", shots, seed);
    let level = OptLevel::default();

    let root = spans.enter("op", None, id);
    let request = spans.time("serve.decode", root, id, || {
        quipper_trace::parse_json(line.trim())
    })?;
    let source = request
        .get("qasm")
        .and_then(|q| q.as_str())
        .ok_or("no qasm field")?;
    let bc = spans
        .time("qasm.compile", root, id, || quipper_qasm::compile(source))
        .map_err(|d| d.to_string())?;
    spans
        .time("circuit.validate", root, id, || bc.validate())
        .map_err(|e| e.to_string())?;
    spans.time("circuit.fingerprint", root, id, || bc.fingerprint());
    let (optimized, opt) = spans.time("opt.optimize", root, id, || {
        quipper_opt::optimize(&bc, level)
    });
    let lint = spans.time("lint.lint", root, id, || quipper_lint::lint(&optimized));
    let flat = spans
        .time("circuit.flatten", root, id, || {
            inline_all(&optimized.db, &optimized.main)
        })
        .map_err(|e| e.to_string())?;
    let fused = spans.time("sim.fuse", root, id, || fuse_circuit(&flat));
    let pieces: f64 = PLAN_PIECES.iter().map(|name| last_us(spans, name)).sum();

    spans.exit(root);

    let whole = spans.enter("op_whole", None, id);
    let plan = spans
        .time("exec.plan_compile", whole, id, || {
            Plan::compile_with(&bc, level)
        })
        .map_err(|e| e.to_string())?;
    let plan_us = last_us(spans, "exec.plan_compile");
    let job = Job::new(&bc).shots(shots).seed(seed);
    let result = spans
        .time("exec.run", whole, id, || engine.run_sequential(&job))
        .map_err(|e| e.to_string())?;
    let response = spans
        .time("serve.submit", whole, id, || {
            handle_line(service, catalog, &line)
        })
        .response;
    let submit_us = last_us(spans, "serve.submit");
    let job_id = parse_ack(&response)?;
    service.drain();
    spans.exit(whole);

    let backend_name = result.report.backend;
    let backend = engine
        .backends()
        .find(|b| b.name() == backend_name)
        .ok_or("backend gone")?;
    let shot_span = match backend_name {
        "statevec" => "sim.sv.shot",
        "stabilizer" => "sim.stab.shot",
        "classical" => "sim.classical.shot",
        _ => "sim.other.shot",
    };
    let root = spans.enter("op", None, id);
    let mut histogram: Histogram = Vec::new();
    let mut shots_us = 0.0;
    for shot in 0..shots {
        let bits = spans
            .time(shot_span, root, id, || {
                backend.run_shot(&plan, &[], seed + shot)
            })
            .map_err(|e| e.to_string())?;
        shots_us += last_us(spans, shot_span);
        match histogram.iter_mut().find(|(b, _)| *b == bits) {
            Some(entry) => entry.1 += 1,
            None => histogram.push((bits, 1)),
        }
    }
    let encoded = spans.time("serve.result_encode", root, id, || {
        handle_line(service, catalog, &result_line(job_id))
    });
    spans.exit(root);

    let distribution = known.reference.as_ref().map(|(d, _)| d.as_slice());
    let replay_ok = check(
        &histogram,
        shots,
        program.qubits,
        &program.expect,
        distribution,
    );
    let served = client::parse_result(&encoded.response)?.ok_or("job not finished after drain")?;
    let served_ok = check(
        &served,
        shots,
        program.qubits,
        &program.expect,
        distribution,
    );
    let front_us = last_us(spans, "serve.decode") + last_us(spans, "qasm.compile");
    let plan_self_us = (plan_us - pieces).max(0.0);
    let run_overhead_us = (us(result.report.execute) - shots_us).max(0.0);
    let submit_self_us = (submit_us - front_us).max(0.0);
    let scale = op.shots as f64 / shots as f64;
    Ok(Replayed {
        source_bytes: source.len(),
        lowered: bc.main.gates.len()
            + bc.db
                .iter()
                .map(|(_, def)| def.circuit.gates.len())
                .sum::<usize>(),
        flat_gates: flat.gates.len(),
        fused_away: fused.stats.fused_away,
        diagnostics: lint.findings.len(),
        opt,
        plan_self_us,
        run_overhead_us,
        submit_self_us,
        always_us: front_us
            + submit_self_us
            + (shots_us + run_overhead_us) * scale
            + last_us(spans, "serve.result_encode"),
        on_miss_us: pieces + plan_self_us,
        shot_scale: scale,
        correct: replay_ok.is_ok() && served_ok.is_ok(),
    })
}

/// Duration in µs of the most recent span called `name`.
fn last_us(spans: &SpanLog, name: &str) -> f64 {
    spans
        .spans
        .iter()
        .rev()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.us())
}

/// One socket phase: fresh inputs and server, a warm-up, then the workload's
/// own loop for `seconds`. The harness comes back for its reports; the caller
/// stops it.
fn socket_phase(
    workload: Workload,
    seed: u64,
    seconds: f64,
    workers: Option<usize>,
    spans: &mut SpanLog,
) -> Result<(Driven, Harness), String> {
    let mut inputs = workloads::inputs(workload, seed);
    let harness = Harness::start(workers);
    warm_up(
        harness.addr(),
        &inputs.warmups,
        &inputs.programs,
        harness.workers,
    )?;
    let driven = drive(workload, &harness, &mut inputs, seconds, spans);
    Ok((driven, harness))
}

/// A phase whose harness is not looked at: its result and its ops per second.
fn quiet_phase(
    workload: Workload,
    seed: u64,
    seconds: f64,
    workers: Option<usize>,
) -> Result<(Driven, f64), String> {
    let (driven, harness) =
        socket_phase(workload, seed, seconds, workers, &mut SpanLog::disabled())?;
    harness.stop();
    let rate = driven.completed() as f64 / driven.elapsed.as_secs_f64();
    Ok((driven, rate))
}

/// Replays the workload's ops layer by layer, in process, for `seconds`:
/// at least one op per stream, at most `MAX_REPLAYED`.
fn replay_ops(
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans: &mut SpanLog,
) -> Result<Vec<Replayed>, String> {
    let mut inputs: Inputs = workloads::inputs(workload, seed);
    let engine = Engine::new();
    let service = Service::start(Engine::new(), host::service_config(None));
    let catalog = Catalog::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut replayed: Vec<Replayed> = Vec::new();
    let streams = inputs.streams.len();
    while replayed.len() < MAX_REPLAYED && (replayed.len() < streams || Instant::now() < deadline) {
        let Some(op) = inputs.streams[replayed.len() % streams].next_op() else {
            break;
        };
        let known = &inputs.programs[op.program];
        replayed.push(replay(
            &op,
            known,
            replayed.len(),
            &engine,
            &service,
            &catalog,
            spans,
        )?);
    }
    service.shutdown();
    Ok(replayed)
}

/// The metrics that come from the replay alone.
fn replay_values(values: &mut Values, spans: &SpanLog, replayed: &[Replayed]) {
    for (metric, span) in [
        ("serve.decode_us", "serve.decode"),
        ("serve.submit_us", "serve.submit"),
        ("serve.result_encode_us", "serve.result_encode"),
        ("qasm.compile_us", "qasm.compile"),
        ("circuit.validate_us", "circuit.validate"),
        ("circuit.fingerprint_us", "circuit.fingerprint"),
        ("circuit.flatten_us", "circuit.flatten"),
        ("lint.lint_us", "lint.lint"),
        ("opt.optimize_us", "opt.optimize"),
        ("exec.plan_compile_us", "exec.plan_compile"),
        ("sim.fuse_us", "sim.fuse"),
        ("sim.stab.shot_us", "sim.stab.shot"),
        ("sim.classical.shot_us", "sim.classical.shot"),
    ] {
        values.set(metric, p50(spans, span));
    }
    values.set("sim.sv.shot_ms", p50(spans, "sim.sv.shot") / 1e3);
    let shots: Vec<f64> = SHOT_SPANS
        .iter()
        .flat_map(|name| spans.durations_us(name))
        .collect();
    values.set("exec.shot_us", median(&shots));

    let per_op = |f: &dyn Fn(&Replayed) -> f64| -> Vec<f64> { replayed.iter().map(f).collect() };
    let compile_s: f64 = spans.durations_us("qasm.compile").iter().sum::<f64>() / 1e6;
    let bytes: f64 = per_op(&|r| r.source_bytes as f64).iter().sum();
    values.set("qasm.bytes_per_s", bytes / compile_s.max(1e-9));
    values.set("qasm.gates_lowered", mean(&per_op(&|r| r.lowered as f64)));
    values.set(
        "circuit.flat_gates",
        mean(&per_op(&|r| r.flat_gates as f64)),
    );
    values.set("lint.diagnostics", mean(&per_op(&|r| r.diagnostics as f64)));
    let gates_in = mean(&per_op(&|r| r.opt.gates_before() as f64));
    let gates_out = mean(&per_op(&|r| r.opt.gates_after() as f64));
    values.set("opt.gates_in", gates_in);
    values.set("opt.gates_out", gates_out);
    values.set("opt.removed_share", 1.0 - gates_out / gates_in.max(1e-9));
    values.set(
        "opt.t_out",
        mean(&per_op(&|r| r.opt.after.t_count() as f64)),
    );
    values.set("opt.rewrites", mean(&per_op(&|r| r.opt.rewrites() as f64)));
    for (metric, pass) in [
        ("opt.facts.removed", "opt.facts"),
        ("opt.cancel.removed", "opt.cancel"),
        ("opt.merge.removed", "opt.merge"),
        ("opt.phasepoly.removed", "opt.phasepoly"),
        ("opt.clifford_push.removed", "opt.clifford_push"),
    ] {
        let removed = |r: &Replayed| -> f64 {
            let passes = r.opt.passes.iter().filter(|p| p.name == pass);
            passes.map(|p| p.removed() as f64).sum()
        };
        values.set(metric, mean(&per_op(&removed)));
    }
    values.set("exec.plan_self_us", median(&per_op(&|r| r.plan_self_us)));
    values.set(
        "exec.run_overhead_us",
        median(&per_op(&|r| r.run_overhead_us)),
    );
    values.set("sim.fused_away", mean(&per_op(&|r| r.fused_away as f64)));
}

/// Replayed self time in µs by layer. The spans under `op` are each a layer's
/// own call; the engine's and the server's own code is what their whole calls
/// take beyond the calls they are made of. What only a plan-cache miss pays is
/// weighted by `miss_share`, and shots by the op's real shot count.
fn layer_shares(
    spans: &SpanLog,
    replayed: &[Replayed],
    miss_share: f64,
) -> Vec<(&'static str, f64)> {
    let mut layers: Vec<(&str, f64)> = Vec::new();
    let mut add = |layer: &'static str, us: f64| match layers.iter_mut().find(|(l, _)| *l == layer)
    {
        Some(slot) => slot.1 += us,
        None => layers.push((layer, us)),
    };
    for (span, own) in spans.spans.iter().zip(spans.self_ns()) {
        let under_op = span.parent.is_some_and(|p| spans.spans[p].name == "op");
        if let (true, Some(layer)) = (under_op, span.layer()) {
            let weight = match span.name {
                name if PLAN_PIECES.contains(&name) => miss_share,
                name if SHOT_SPANS.contains(&name) => replayed[span.op].shot_scale,
                _ => 1.0,
            };
            add(layer, own as f64 / 1e3 * weight);
        }
    }
    for r in replayed {
        add(
            "exec",
            r.plan_self_us * miss_share + r.run_overhead_us * r.shot_scale,
        );
        add("serve", r.submit_self_us);
    }
    layers
}

/// From the flight timeline of each job in `ids`, in µs: queued until a
/// worker picked it up, and from then (plan compile and shots) until its
/// terminal stamp.
fn flight_times(harness: &Harness, ids: &[u64]) -> (Vec<f64>, Vec<f64>) {
    let (mut queue_wait_us, mut engine_us) = (Vec::new(), Vec::new());
    for &id in ids {
        let Some(flight) = harness.service.flight(id) else {
            continue;
        };
        let at = |phase: &str| {
            flight
                .events
                .iter()
                .find(|e| e.phase == phase)
                .map(|e| e.at)
        };
        let done = flight.events.last().map(|e| e.at);
        let picked = at("compile").or(at("coalesce"));
        if let (Some(queued), Some(picked), Some(done)) = (at("queue"), picked, done) {
            queue_wait_us.push(us(picked.saturating_sub(queued)));
            engine_us.push(us(done.saturating_sub(picked)));
        }
    }
    (queue_wait_us, engine_us)
}

/// The engine's own shot fan-out against its sequential schedule, on one
/// `sv20_shots` job of `shots` shots.
fn workers_speedup(seed: u64, shots: u64) -> Result<f64, String> {
    let inputs = workloads::inputs(Workload::Sv20Shots, seed);
    let bc =
        quipper_qasm::compile(&inputs.programs[0].program.source).map_err(|d| d.to_string())?;
    let engine = Engine::new();
    let job = Job::new(&bc).shots(shots).seed(7);
    engine.run_sequential(&job).map_err(|e| e.to_string())?;
    let started = Instant::now();
    engine.run_sequential(&job).map_err(|e| e.to_string())?;
    let sequential = started.elapsed();
    let started = Instant::now();
    engine.run(&job).map_err(|e| e.to_string())?;
    Ok(sequential.as_secs_f64() / started.elapsed().as_secs_f64())
}

fn trace_socket(
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans: &mut SpanLog,
    values: &mut Values,
    notes: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let replayed = replay_ops(workload, seed, seconds * 0.3, spans)?;
    replay_values(values, spans, &replayed);

    // Through the socket: tracer off, off with client spans, on.
    let phase = seconds * 0.15;
    let (plain_phase, _) = quiet_phase(workload, seed, phase, None)?;
    let (spanned_phase, harness) = socket_phase(workload, seed, phase, None, spans)?;
    let (plain, spanned) = (&plain_phase.tally, &spanned_phase.tally);
    let (queue_wait_us, engine_us) = flight_times(&harness, &spanned.ids);
    let stats = harness.service.stats();
    harness.stop();
    quipper_trace::tracer().set_enabled(true);
    let before = kernel_counters();
    let on_phase = quiet_phase(workload, seed, phase, None);
    quipper_trace::tracer().set_enabled(false);
    let after = kernel_counters();
    let (on_phase, _) = on_phase?;

    let plain_p50_us = median(&plain.latencies_ms) * 1e3;
    let spanned_p50_us = median(&spanned.latencies_ms) * 1e3;
    let answered = plain.ids.len().max(1) as f64;
    values.set("serve.submit_rtt_us", median(&plain.submit_rtt_us));
    values.set(
        "serve.polls_per_op",
        plain.polls as f64 / plain.attempted.max(1) as f64,
    );
    values.set("serve.poll_gap_us", plain.poll_gap_us / answered);
    values.set(
        "serve.response_bytes",
        plain.response_bytes as f64 / answered,
    );
    values.set("serve.queue_wait_us", median(&queue_wait_us));
    values.set("serve.queue_wait_p99_us", percentile(&queue_wait_us, 99.0));
    values.set("serve.overhead_us", spanned_p50_us - median(&engine_us));
    values.set(
        "serve.rejected",
        (stats.rejected_queue_full + stats.rejected_quota) as f64,
    );
    values.set("serve.coalesced", stats.coalesced_compiles as f64);
    if let Some(heavy) = &spanned_phase.heavy {
        values.set("serve.heavy_latency_p50_ms", median(&heavy.latencies_ms));
        values.set("serve.gen_late_p99_us", percentile(&spanned.late_us, 99.0));
    }
    // A worker asks the cache twice per job, to compile and to run; only a
    // never-seen program misses, and then once.
    let miss_share = stats.engine_cache_misses as f64 / stats.completed.max(1) as f64;
    values.set("exec.cache_hit_share", 1.0 - miss_share);
    let on_p50_us = median(&on_phase.tally.latencies_ms) * 1e3;
    values.set(
        "trace.overhead_share",
        spanned_p50_us / plain_p50_us.max(1e-9) - 1.0,
    );
    values.set(
        "trace.tracer_on_share",
        on_p50_us / plain_p50_us.max(1e-9) - 1.0,
    );
    let layers_us: Vec<f64> = replayed
        .iter()
        .map(|r| r.always_us + r.on_miss_us * miss_share)
        .collect();
    values.set(
        "trace.coverage",
        median(&layers_us) / plain_p50_us.max(1e-9),
    );
    notes.push(format!(
        "{} ops replayed, {:.1}% of jobs missed the plan cache; replayed self time: {}",
        replayed.len(),
        100.0 * miss_share,
        shares(&layer_shares(spans, &replayed, miss_share))
    ));
    notes.push(format!(
        "op p50 {:.3} ms = {:.3} ms outside the engine (wire, queue, polls) + {:.3} ms inside",
        spanned_p50_us / 1e3,
        (spanned_p50_us - median(&engine_us)) / 1e3,
        median(&engine_us) / 1e3
    ));

    // Sweeps over the state per shot, from the simulator's own dispatch
    // counts with its tracer on: a window is one sweep, and so is every
    // dispatch that did not go through a window.
    let shots_run = (after[0] - before[0]).max(1) as f64;
    let windows = (after[1] - before[1]) as f64;
    let unwindowed = (after[2] - before[2]).saturating_sub(after[3] - before[3]) as f64;
    values.set("sim.windows_per_shot", windows / shots_run);
    let sv_shot_s = p50(spans, "sim.sv.shot") / 1e6;
    if workload == Workload::Sv20Shots && sv_shot_s > 0.0 {
        // One sweep reads and writes every amplitude: 2 x 16 B x 2^n.
        let sweeps = (windows + unwindowed) / shots_run;
        let bytes_per_s = sweeps * 2.0 * 16.0 * (1u64 << SV_QUBITS) as f64 / sv_shot_s;
        values.set("sim.sv.bytes_per_s", bytes_per_s);
        let stream = values.get("host.stream_gbps").unwrap_or(0.0) * 1e9;
        values.set("sim.sv.roofline_share", bytes_per_s / stream.max(1e-9));
    }

    let mut phases = vec![plain_phase, spanned_phase, on_phase];
    match workload {
        Workload::ServeSmall => {
            // Two workers against one, on the same ops.
            let (one, one_rate) = quiet_phase(workload, seed, seconds * 0.1, Some(1))?;
            let (two, two_rate) = quiet_phase(workload, seed, seconds * 0.1, Some(2))?;
            values.set("serve.pool_speedup", two_rate / one_rate.max(1e-9));
            phases.extend([one, two]);
        }
        Workload::Sv20Shots => {
            let shots = if seconds >= 6.0 { SV_SHOTS } else { WIDE_SHOTS };
            values.set("exec.workers_speedup", workers_speedup(seed, shots)?);
        }
        _ => {}
    }
    let mut attempted = replayed.len() as u64;
    let mut failed = replayed.iter().filter(|r| !r.correct).count() as u64;
    for phase in &phases {
        attempted += phase.attempted();
        failed += phase.failed();
        notes.extend(phase.failures().take(2));
    }
    Ok((attempted, failed))
}

/// The spans of the calls a plan compile is made of: only a cache miss pays.
const PLAN_PIECES: [&str; 6] = [
    "circuit.validate",
    "circuit.fingerprint",
    "opt.optimize",
    "lint.lint",
    "circuit.flatten",
    "sim.fuse",
];

/// The spans around `Backend::run_shot`, by backend.
const SHOT_SPANS: [&str; 4] = [
    "sim.sv.shot",
    "sim.stab.shot",
    "sim.classical.shot",
    "sim.other.shot",
];

/// `[shots run, windows, class dispatches, windowed gates]` from the
/// program's own metrics registry, read by name so that a renamed or removed
/// counter reads 0 instead of breaking the build.
fn kernel_counters() -> [u64; 4] {
    let m = quipper_trace::tracer().metrics();
    let classes = [
        "sim.kernel.diagonal",
        "sim.kernel.permutation",
        "sim.kernel.general",
        "sim.kernel.mat4",
    ];
    [
        m.counter("exec.shots_run"),
        m.counter("sim.kernel.windows"),
        classes.iter().map(|name| m.counter(name)).sum(),
        m.counter("sim.kernel.windowed"),
    ]
}
