//! The newline-delimited JSON wire protocol.
//!
//! Each request is one JSON object on one line; each response is one JSON
//! object on one line. Requests name an operation via `"op"`:
//!
//! | op        | fields                                                        |
//! |-----------|---------------------------------------------------------------|
//! | `submit`  | `circuit` (catalog name) *or* `qasm` (inline OpenQASM 2.0     |
//! |           | source, size-capped; rejected with span-anchored `QP###`      |
//! |           | `diagnostics`), plus `tenant`, `shots`, `seed`, `label`,      |
//! |           | `priority`, `deadline_ms`, `inputs` (array of 0/1), `opt`     |
//! |           | (`"off"`/`"default"`, defaults to `default`) — all optional   |
//! |           | except circuit/qasm                                           |
//! | `status`  | `id`                                                          |
//! | `result`  | `id` — histogram + report once completed; failed and          |
//! |           | deadline-missed jobs attach their flight timeline             |
//! | `cancel`  | `id`                                                          |
//! | `export`  | `circuit` (catalog name) *or* `qasm` (inline source, parsed   |
//! |           | and re-emitted canonically) — OpenQASM 2.0 text               |
//! | `list`    | — catalog names                                               |
//! | `stats`   | — service counters + the engine's plan-cache counters         |
//! | `metrics` | `format` (`"json"` lines or `"prometheus"` text, default      |
//! |           | `"json"`) — full metrics-registry snapshot as `text`          |
//! | `flight`  | `id` (one job's timeline) or `recent` (last N finished,       |
//! |           | default 8) — flight-timeline dump                             |
//! | `ping`    | — liveness                                                    |
//! | `shutdown`| — stop accepting, drain, exit                                 |
//!
//! Responses carry `"ok": true` plus op-specific fields, or `"ok": false`
//! with `"error"` and — for backpressure rejections — `"retry_after_ms"`,
//! so well-behaved clients know when to come back. Requests are read by
//! `quipper-trace`'s JSON parser, which bounds nesting, so a hostile line
//! costs one error response; every response is streamed through the same
//! module's `JsonWriter`, so field order is call order here and escaping
//! happens in one place.

use std::sync::Arc;

use quipper_trace::{parse_json, Json, JsonWriter};

use crate::catalog::Catalog;
use crate::flight::FlightTimeline;
use crate::service::{JobState, RejectReason, Service, Submission};

/// The outcome of handling one request line.
pub struct Handled {
    /// The response line (no trailing newline).
    pub response: String,
    /// Whether the request asked the server to shut down.
    pub shutdown: bool,
}

/// One response line: `{"ok":<ok>` followed by whatever `fields` writes.
fn respond(ok: bool, fields: impl FnOnce(&mut JsonWriter) -> &mut JsonWriter) -> Handled {
    let mut w = JsonWriter::new();
    fields(w.begin_object().key("ok").bool(ok)).end_object();
    Handled {
        response: w.finish(),
        shutdown: false,
    }
}

fn ok(fields: impl FnOnce(&mut JsonWriter) -> &mut JsonWriter) -> Handled {
    respond(true, fields)
}

fn err(message: &str) -> Handled {
    err_with(message, |w| w)
}

/// An error response with extra members after `"error"`.
fn err_with(message: &str, extra: impl FnOnce(&mut JsonWriter) -> &mut JsonWriter) -> Handled {
    respond(false, |w| extra(w.key("error").string(message)))
}

/// An error response carrying the job's flight timeline, so a failed or
/// deadline-missed `result` answers "where did the time go" in one round
/// trip.
fn err_with_flight(service: &Service, id: u64, message: &str) -> Handled {
    err_with(message, |w| match service.flight(id) {
        Some(timeline) => flight_json(w.key("flight"), &timeline),
        None => w,
    })
}

/// One element of a submission's `inputs`: the number 0 or 1, nothing else.
fn input_bit(value: &Json) -> Option<bool> {
    match value.as_num()? {
        0.0 => Some(false),
        1.0 => Some(true),
        _ => None,
    }
}

fn get_u64(req: &Json, key: &str) -> Option<u64> {
    req.get(key).and_then(Json::as_num).map(|n| n as u64)
}

/// One flight timeline as a JSON object: identity, terminal/current state,
/// and the stamped events with derived span durations in microseconds.
fn flight_json<'w>(w: &'w mut JsonWriter, timeline: &FlightTimeline) -> &'w mut JsonWriter {
    w.begin_object().key("id").int(timeline.id);
    w.key("tenant").string(&timeline.tenant);
    w.key("label").string(&timeline.label);
    w.key("state").string(&timeline.state);
    w.key("events").begin_array();
    for (phase, at, dur, detail) in timeline.spans() {
        w.begin_object().key("phase").string(phase);
        w.key("at_us").int(at.as_micros());
        w.key("dur_us").int(dur.as_micros());
        if let Some(detail) = detail {
            w.key("detail").string(detail);
        }
        w.end_object();
    }
    w.end_array().end_object()
}

/// The `flights` member of a `flight` response.
fn flights_json<'w>(w: &'w mut JsonWriter, timelines: &[FlightTimeline]) -> &'w mut JsonWriter {
    w.key("flights").begin_array();
    for timeline in timelines {
        flight_json(w, timeline);
    }
    w.end_array()
}

/// Handles one request line against the service and catalog. Pure with
/// respect to I/O: the caller owns the socket.
pub fn handle_line(service: &Service, catalog: &Catalog, line: &str) -> Handled {
    let req = match parse_json(line.trim()) {
        Ok(req) => req,
        Err(e) => return err(&format!("bad request: {e}")),
    };
    let op = match req.get("op").and_then(Json::as_str) {
        Some(op) => op,
        None => return err("missing \"op\""),
    };
    match op {
        "ping" => ok(|w| w.key("pong").bool(true)),
        "list" => ok(|w| {
            w.key("circuits").begin_array();
            for name in catalog.names() {
                w.string(name);
            }
            w.end_array()
        }),
        "stats" => {
            let s = service.stats();
            ok(|w| {
                w.key("submitted").int(s.submitted);
                w.key("admitted").int(s.admitted);
                w.key("rejected")
                    .int(s.rejected_queue_full + s.rejected_quota);
                w.key("completed").int(s.completed);
                w.key("failed").int(s.failed);
                w.key("cancelled").int(s.cancelled);
                w.key("deadline_misses").int(s.deadline_misses);
                w.key("coalesced").int(s.coalesced_compiles);
                w.key("engine_cache_hits").int(s.engine_cache_hits);
                w.key("engine_cache_misses").int(s.engine_cache_misses);
                w.key("engine_cached_plans").int(s.engine_cached_plans)
            })
        }
        "metrics" => {
            let format = req.get("format").and_then(Json::as_str).unwrap_or("json");
            let snapshot = service.metrics_snapshot();
            let text = match format {
                "json" => quipper_trace::to_metrics_json_lines(&snapshot),
                "prometheus" => quipper_trace::to_prometheus_text(&snapshot),
                other => {
                    return err(&format!(
                        "unknown metrics format {other:?} (json/prometheus)"
                    ))
                }
            };
            ok(|w| w.key("format").string(format).key("text").string(&text))
        }
        "flight" => match get_u64(&req, "id") {
            Some(id) => match service.flight(id) {
                None => err(&format!("no flight timeline for job id {id}")),
                Some(timeline) => ok(|w| flights_json(w, &[timeline])),
            },
            None => {
                let n = get_u64(&req, "recent").unwrap_or(8).min(1024) as usize;
                ok(|w| flights_json(w, &service.flights(n)))
            }
        },
        "shutdown" => Handled {
            shutdown: true,
            ..ok(|w| w.key("stopping").bool(true))
        },
        "submit" => handle_submit(service, catalog, &req),
        "export" => match (
            req.get("circuit").and_then(Json::as_str),
            req.get("qasm").and_then(Json::as_str),
        ) {
            (Some(_), Some(_)) => err("export takes \"circuit\" or \"qasm\", not both"),
            (None, None) => err("export needs a \"circuit\" (see op \"list\") or inline \"qasm\""),
            (Some(name), None) => match catalog.get(name) {
                None => err(&format!("unknown circuit {name:?} (see op \"list\")")),
                Some(circuit) => match quipper_circuit::qasm::to_qasm(&circuit) {
                    Ok(qasm) => ok(|w| w.key("circuit").string(name).key("qasm").string(&qasm)),
                    Err(e) => err(&format!("{name} does not export: {e}")),
                },
            },
            // Canonicalization: parse the client's text and re-emit it in
            // the exporter's dialect (idempotent on its own output).
            (None, Some(source)) => match ingest_qasm(source) {
                Ok(bc) => match quipper_circuit::qasm::to_qasm(&bc) {
                    Ok(qasm) => ok(|w| w.key("circuit").string("qasm").key("qasm").string(&qasm)),
                    Err(e) => err(&format!("submitted qasm does not re-export: {e}")),
                },
                Err(handled) => handled,
            },
        },
        "status" => match get_u64(&req, "id") {
            None => err("status needs a numeric \"id\""),
            Some(id) => match service.status(id) {
                None => err(&format!("unknown job id {id}")),
                Some(status) => ok(|w| {
                    w.key("id").int(status.id);
                    w.key("state").string(status.state.tag());
                    w.key("label").string(&status.label)
                }),
            },
        },
        "result" => match get_u64(&req, "id") {
            None => err("result needs a numeric \"id\""),
            Some(id) => match service.status(id) {
                None => err(&format!("unknown job id {id}")),
                Some(status) => match &status.state {
                    JobState::Completed(result) => ok(|w| {
                        w.key("id").int(id).key("label").string(&status.label);
                        w.key("backend").string(result.report.backend);
                        w.key("shots").int(result.report.shots);
                        w.key("histogram").begin_array();
                        for (bits, count) in result.histogram.iter() {
                            w.begin_object().key("bits").begin_array();
                            for &bit in bits {
                                w.int(u8::from(bit));
                            }
                            w.end_array().key("count").int(*count).end_object();
                        }
                        w.end_array()
                    }),
                    JobState::Failed(detail) => {
                        err_with_flight(service, id, &format!("job {id} failed: {detail}"))
                    }
                    JobState::DeadlineExceeded => {
                        err_with_flight(service, id, &format!("job {id} missed its deadline"))
                    }
                    state => err(&format!("job {id} is {}, no result", state.tag())),
                },
            },
        },
        "cancel" => match get_u64(&req, "id") {
            None => err("cancel needs a numeric \"id\""),
            Some(id) => match service.cancel(id) {
                None => err(&format!("unknown job id {id}")),
                Some(status) => ok(|w| {
                    w.key("id")
                        .int(status.id)
                        .key("state")
                        .string(status.state.tag())
                }),
            },
        },
        other => err(&format!("unknown op {other:?}")),
    }
}

/// Wire-level cap on inline OpenQASM submissions: bounded work per request
/// line, well under the library's own ingestion cap.
pub const MAX_QASM_BYTES: usize = 256 * 1024;

/// Wire-level cap on one request line, newline excluded: a submit carrying
/// a [`MAX_QASM_BYTES`] program at JSON's worst-case escaping (six bytes,
/// `\u00XX`, per source byte), plus 64 KiB for the other members. The
/// server drops a longer line's bytes as they arrive and answers it with
/// `bad request: line longer than N bytes`.
pub const MAX_LINE_BYTES: usize = 6 * MAX_QASM_BYTES + 64 * 1024;

/// The answer to a request line longer than [`MAX_LINE_BYTES`].
pub(crate) fn line_too_long() -> Handled {
    err(&format!(
        "bad request: line longer than {MAX_LINE_BYTES} bytes"
    ))
}

/// Rejects an inline-QASM request with the full diagnostics list, so
/// clients can render span-anchored errors without another round trip.
fn err_with_diagnostics(message: &str, diags: &quipper_qasm::Diagnostics) -> Handled {
    err_with(message, |w| {
        w.key("diagnostics").begin_array();
        for d in diags.iter() {
            d.write_json(w);
        }
        w.end_array()
    })
}

/// Parses an inline OpenQASM submission into a circuit, or a ready-made
/// error response. Every parse failure is a structured rejection — client
/// bytes can never panic the server.
fn ingest_qasm(source: &str) -> Result<Arc<quipper_circuit::BCircuit>, Handled> {
    if source.len() > MAX_QASM_BYTES {
        return Err(err(&format!(
            "inline qasm is {} bytes; the wire cap is {MAX_QASM_BYTES}",
            source.len()
        )));
    }
    match quipper_qasm::compile(source) {
        Ok(bc) => Ok(Arc::new(bc)),
        Err(diags) => {
            let errors = diags.count(quipper_qasm::Severity::Error);
            Err(err_with_diagnostics(
                &format!("qasm rejected with {errors} error(s)"),
                &diags,
            ))
        }
    }
}

fn handle_submit(service: &Service, catalog: &Catalog, req: &Json) -> Handled {
    let name_field = req.get("circuit").and_then(Json::as_str);
    let qasm_field = req.get("qasm").and_then(Json::as_str);
    let (name, circuit, default_inputs) = match (name_field, qasm_field) {
        (Some(_), Some(_)) => return err("submit takes \"circuit\" or \"qasm\", not both"),
        (None, None) => {
            return err("submit needs a \"circuit\" (see op \"list\") or inline \"qasm\"")
        }
        (Some(name), None) => match catalog.get(name) {
            Some(circuit) => (name, circuit, catalog.input_arity(name).unwrap_or(0)),
            None => return err(&format!("unknown circuit {name:?} (see op \"list\")")),
        },
        (None, Some(source)) => match ingest_qasm(source) {
            Ok(bc) => {
                let arity = bc.main.inputs.len();
                ("qasm", bc, arity)
            }
            Err(handled) => return handled,
        },
    };
    let inputs = match req.get("inputs") {
        None => vec![false; default_inputs],
        Some(value) => match value
            .as_arr()
            .and_then(|v| v.iter().map(input_bit).collect())
        {
            Some(bits) => bits,
            None => return err("\"inputs\" must be an array of 0/1"),
        },
    };
    let tenant = req
        .get("tenant")
        .and_then(Json::as_str)
        .unwrap_or("anonymous");
    let mut submission = Submission::new(tenant, Arc::clone(&circuit))
        .inputs(inputs)
        .shots(get_u64(req, "shots").unwrap_or(1).max(1))
        .seed(get_u64(req, "seed").unwrap_or(0))
        .priority(get_u64(req, "priority").unwrap_or(0).min(255) as u8);
    if let Some(label) = req.get("label").and_then(Json::as_str) {
        submission = submission.label(label);
    } else {
        submission = submission.label(name);
    }
    if let Some(ms) = get_u64(req, "deadline_ms") {
        submission = submission.deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(spec) = req.get("opt").and_then(Json::as_str) {
        match quipper_exec::OptLevel::parse(spec) {
            Some(level) => submission = submission.opt(level),
            None => return err(&format!("unknown opt level {spec:?} (off/default)")),
        }
    }
    match service.submit(submission) {
        Ok(id) => ok(|w| w.key("id").int(id)),
        Err(rejection) => err_with(&rejection.reason.to_string(), |w| {
            w.key("retry_after_ms")
                .int(rejection.retry_after.as_millis());
            w.key("reason").string(match rejection.reason {
                RejectReason::QueueFull => "queue_full",
                RejectReason::QuotaExhausted => "quota_exhausted",
            })
        }),
    }
}
