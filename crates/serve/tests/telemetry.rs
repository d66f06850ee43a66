//! Loopback smoke for the telemetry plane (PR 8 acceptance):
//!
//! * a job whose shots are too slow for its deadline produces a flight dump
//!   naming every lifecycle phase (admit → queue → compile → shots →
//!   deadline_exceeded) with monotone offsets and span durations;
//! * the `metrics` op round-trips through the in-repo JSON parser in both
//!   exposition formats, and carries the per-tenant SLO burn counters and
//!   latency histograms;
//! * the `stats` op reports the engine-level plan-cache counters.
//!
//! Everything runs over a real TCP loopback connection against a dedicated
//! (leaked) tracer, so the assertions cover the full wire path and don't
//! depend on process-global tracing state.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use quipper_exec::{Engine, EngineConfig};
use quipper_serve::catalog::Catalog;
use quipper_serve::{Server, Service, ServiceConfig};
use quipper_trace::{parse_json, Json, Tracer};

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        let writer = stream.try_clone().unwrap();
        Client {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn rpc(&mut self, line: &str) -> Json {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        parse_json(response.trim()).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
    }
}

/// How long every shot of the served stack takes.
const SHOT: Duration = Duration::from_millis(10);

/// The deadline of the doomed job: 8 shots' worth, of the 1 000 it asks for.
const DEADLINE_MS: u64 = 80;

/// A served stack where every shot takes [`SHOT`], so a job of many shots
/// deterministically misses a short deadline in the middle of its shots.
fn slow_stack() -> (Arc<Service>, Server) {
    let trace: &'static Tracer = Tracer::leaked(1 << 16);
    trace.set_enabled(true);
    let engine_config = EngineConfig {
        trace,
        ..EngineConfig::default()
    };
    let service = Arc::new(Service::start(
        Engine::with_shot_hook(engine_config, |_| std::thread::sleep(SHOT)),
        ServiceConfig {
            workers: 1,
            slo: Some(Duration::from_millis(1)),
            flight_capacity: 32,
            ..ServiceConfig::default()
        },
    ));
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&service),
        Arc::new(Catalog::new()),
    )
    .expect("bind loopback");
    (service, server)
}

fn wait_terminal(client: &mut Client, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = client.rpc(&format!(r#"{{"op":"status","id":{id}}}"#));
        let state = status
            .get("state")
            .and_then(Json::as_str)
            .expect("status has state")
            .to_string();
        if !matches!(state.as_str(), "queued" | "running") {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} never terminated");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Assert the timeline object names every lifecycle phase, with numeric
/// monotone offsets and span durations on every event.
fn assert_full_lifecycle(flight: &Json, terminal: &str) {
    let events = flight
        .get("events")
        .and_then(Json::as_arr)
        .expect("flight has events");
    let phases: Vec<&str> = events
        .iter()
        .map(|e| e.get("phase").and_then(Json::as_str).expect("event phase"))
        .collect();
    assert_eq!(phases, ["admit", "queue", "compile", "shots", terminal]);
    let mut last_at = -1.0;
    for event in events {
        let at = event.get("at_us").and_then(Json::as_num).expect("at_us");
        let dur = event.get("dur_us").and_then(Json::as_num).expect("dur_us");
        assert!(at >= last_at, "offsets must be monotone: {events:?}");
        assert!(dur >= 0.0);
        last_at = at;
    }
    // The shots ran until the deadline passed.
    let deadline_us = (DEADLINE_MS * 1_000) as f64;
    assert!(last_at >= deadline_us, "timeline too short: {events:?}");
}

#[test]
fn deadline_missed_job_dumps_flight_and_metrics_expose_slo_burn() {
    let (_service, server) = slow_stack();
    let mut client = Client::connect(server.local_addr());

    let submit = client.rpc(&format!(
        r#"{{"op":"submit","circuit":"ghz3","tenant":"alice","shots":1000,"seed":3,"label":"doomed","deadline_ms":{DEADLINE_MS}}}"#
    ));
    assert_eq!(submit.get("ok"), Some(&Json::Bool(true)), "{submit:?}");
    let id = submit.get("id").and_then(Json::as_num).unwrap() as u64;

    assert_eq!(wait_terminal(&mut client, id), "deadline_exceeded");

    // The failed result carries the flight dump inline.
    let result = client.rpc(&format!(r#"{{"op":"result","id":{id}}}"#));
    assert_eq!(result.get("ok"), Some(&Json::Bool(false)));
    assert_full_lifecycle(
        result.get("flight").expect("result has flight"),
        "deadline_exceeded",
    );

    // The same timeline is addressable via the flight op, by id and ring.
    let by_id = client.rpc(&format!(r#"{{"op":"flight","id":{id}}}"#));
    let flights = by_id.get("flights").and_then(Json::as_arr).unwrap();
    assert_eq!(flights.len(), 1);
    assert_eq!(
        flights[0].get("state").and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    assert_full_lifecycle(&flights[0], "deadline_exceeded");
    let recent = client.rpc(r#"{"op":"flight","recent":4}"#);
    assert!(
        recent
            .get("flights")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .any(|t| t.get("id").and_then(Json::as_num) == Some(id as f64)),
        "ring dump misses the job"
    );

    // JSON Lines exposition: every line parses; the SLO burn and the
    // per-tenant latency histogram are present.
    let metrics = client.rpc(r#"{"op":"metrics","format":"json"}"#);
    assert_eq!(metrics.get("ok"), Some(&Json::Bool(true)));
    let text = metrics.get("text").and_then(Json::as_str).unwrap();
    let rows: Vec<Json> = text
        .lines()
        .map(|l| parse_json(l).expect("JSON line parses"))
        .collect();
    let find = |name: &str, label: Option<(&str, &str)>| -> Option<&Json> {
        rows.iter().find(|r| {
            r.get("name").and_then(Json::as_str) == Some(name)
                && label.is_none_or(|(k, v)| {
                    r.get("labels")
                        .and_then(|l| l.get(k))
                        .and_then(Json::as_str)
                        == Some(v)
                })
        })
    };
    assert!(
        find("serve.deadline_miss", None)
            .and_then(|r| r.get("value"))
            .and_then(Json::as_num)
            .unwrap()
            >= 1.0
    );
    let latency = find("serve.job_latency_us", Some(("tenant", "alice"))).unwrap();
    assert_eq!(
        latency
            .get("labels")
            .and_then(|l| l.get("state"))
            .and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    assert!(latency.get("p99").and_then(Json::as_num).unwrap() > 0.0);
    assert!(
        find("serve.slo.checked", Some(("tenant", "alice"))).is_some(),
        "SLO checks missing"
    );
    assert!(
        find("serve.slo.miss", Some(("tenant", "alice")))
            .and_then(|r| r.get("value"))
            .and_then(Json::as_num)
            .unwrap()
            >= 1.0,
        "an 80ms+ job must burn a 1ms SLO"
    );

    // Prometheus exposition: typed families, sanitized names, labeled
    // samples (labels sorted by key).
    let prom = client.rpc(r#"{"op":"metrics","format":"prometheus"}"#);
    let text = prom.get("text").and_then(Json::as_str).unwrap();
    assert!(
        text.contains("# TYPE serve_deadline_miss counter"),
        "{text}"
    );
    assert!(text.contains("serve_slo_miss{tenant=\"alice\"}"), "{text}");
    assert!(
        text.contains("serve_job_latency_us_count{state=\"deadline_exceeded\",tenant=\"alice\"}"),
        "{text}"
    );
    assert!(text.contains("serve_queue_wait_us_bucket{"), "{text}");

    // stats now reports the engine-level plan-cache counters: the one
    // compile is a miss, and the plan stayed cached.
    let stats = client.rpc(r#"{"op":"stats"}"#);
    assert!(
        stats
            .get("engine_cache_misses")
            .and_then(Json::as_num)
            .unwrap()
            >= 1.0
    );
    assert!(
        stats
            .get("engine_cached_plans")
            .and_then(Json::as_num)
            .unwrap()
            >= 1.0
    );
    assert!(stats.get("deadline_misses").and_then(Json::as_num).unwrap() >= 1.0);

    // Unknown formats are a protocol error, not a panic.
    let bad = client.rpc(r#"{"op":"metrics","format":"xml"}"#);
    assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
}
