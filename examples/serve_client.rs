//! A line-protocol client for `quipper-served`, doubling as the CI
//! integration smoke test.
//!
//! Connects to a running server (address from argv or `QUIPPER_SERVED`),
//! then drives a full session: list the catalog, submit a mixed batch
//! across two tenants, poll to completion, cancel one long job, export a
//! circuit to OpenQASM, and print the final server stats. Exits non-zero
//! if any step misbehaves, so `cargo run --example serve_client` is a
//! pass/fail check against a live server:
//!
//! ```text
//! cargo run --bin quipper-served -- --addr 127.0.0.1:7878 &
//! cargo run --example serve_client -- 127.0.0.1:7878
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use quipper_trace::{parse_json, Json};

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// One request line out, one response line in, parsed.
    fn call(&mut self, request: &str) -> Json {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        parse_json(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }

    fn call_ok(&mut self, request: &str) -> Json {
        let resp = self.call(request);
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(true)),
            "request {request} failed: {resp:?}"
        );
        resp
    }
}

fn field_u64(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_num).unwrap() as u64
}

fn main() {
    let addr = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("QUIPPER_SERVED").ok())
        .expect("usage: serve_client ADDR (or set QUIPPER_SERVED)");
    let mut client = Client::connect(&addr).expect("connect to quipper-served");

    // Liveness + catalog.
    client.call_ok(r#"{"op":"ping"}"#);
    let list = client.call_ok(r#"{"op":"list"}"#);
    let circuits = list.get("circuits").and_then(Json::as_arr).unwrap();
    println!(
        "catalog: {}",
        circuits
            .iter()
            .filter_map(Json::as_str)
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert!(circuits.iter().any(|c| c.as_str() == Some("ghz5")));

    // A mixed two-tenant batch: GHZ and teleportation shots.
    let mut ids = Vec::new();
    for i in 0..6 {
        let (tenant, circuit) = if i % 2 == 0 {
            ("alice", "ghz5")
        } else {
            ("bob", "teleportation")
        };
        // Cycle the per-job optimizer level so the batch exercises both
        // levels (and both plan-cache keys) the server offers.
        let opt = ["off", "default"][i % 2];
        let resp = client.call_ok(&format!(
            r#"{{"op":"submit","circuit":"{circuit}","tenant":"{tenant}","shots":24,"seed":{i},"label":"batch-{i}","opt":"{opt}"}}"#
        ));
        ids.push(field_u64(&resp, "id"));
    }

    // A bogus optimizer level is refused at the door.
    let bad = client.call(r#"{"op":"submit","circuit":"ghz5","opt":"extreme"}"#);
    assert_eq!(bad.get("ok"), Some(&Json::Bool(false)), "{bad:?}");

    // One deliberately huge job to cancel mid-flight.
    let victim = field_u64(
        &client.call_ok(
            r#"{"op":"submit","circuit":"grover3","tenant":"alice","shots":800000,"label":"victim"}"#,
        ),
        "id",
    );
    let resp = client.call_ok(&format!(r#"{{"op":"cancel","id":{victim}}}"#));
    let state = resp
        .get("state")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert!(
        state == "cancelled" || state == "running" || state == "queued",
        "unexpected post-cancel state {state}"
    );

    // Poll the batch to completion.
    let deadline = Instant::now() + Duration::from_secs(60);
    for &id in &ids {
        loop {
            let status = client.call_ok(&format!(r#"{{"op":"status","id":{id}}}"#));
            match status.get("state").and_then(Json::as_str).unwrap() {
                "completed" => break,
                "queued" | "running" => {
                    assert!(Instant::now() < deadline, "job {id} stuck");
                    std::thread::sleep(Duration::from_millis(20));
                }
                other => panic!("job {id} ended {other}: {status:?}"),
            }
        }
        let result = client.call_ok(&format!(r#"{{"op":"result","id":{id}}}"#));
        let total: u64 = result
            .get("histogram")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| field_u64(e, "count"))
            .sum();
        assert_eq!(total, 24, "job {id} lost shots");
        println!(
            "job {id} [{}] completed on {} ({} patterns)",
            result.get("label").and_then(Json::as_str).unwrap(),
            result.get("backend").and_then(Json::as_str).unwrap(),
            result
                .get("histogram")
                .and_then(Json::as_arr)
                .unwrap()
                .len(),
        );
    }

    // The cancelled job must terminate without completing.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.call_ok(&format!(r#"{{"op":"status","id":{victim}}}"#));
        match status.get("state").and_then(Json::as_str).unwrap() {
            "cancelled" => break,
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "cancel never landed");
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("victim ended {other}, expected cancelled"),
        }
    }
    println!("victim job {victim} cancelled");

    // OpenQASM export over the wire: dynamic lifting survives serialization.
    let export = client.call_ok(r#"{"op":"export","circuit":"teleportation"}"#);
    let qasm = export.get("qasm").and_then(Json::as_str).unwrap();
    assert!(qasm.contains("if(c1==1) x q[2];"), "{qasm}");
    println!(
        "teleportation exports to {} QASM lines",
        qasm.lines().count()
    );

    // Ingestion, the other direction: submit raw OpenQASM text the server
    // has never seen. It passes the same optimizer, lint gate (which refuses
    // only error findings) and plan cache as catalog jobs.
    let bell = "OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[2];\\ncreg c[2];\\nreset q;\\nh q[0];\\ncx q[0],q[1];\\nmeasure q -> c;\\n";
    let resp = client.call_ok(&format!(
        r#"{{"op":"submit","qasm":"{bell}","tenant":"carol","shots":24,"seed":11,"label":"inline-bell","opt":"default"}}"#
    ));
    let inline_id = field_u64(&resp, "id");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.call_ok(&format!(r#"{{"op":"status","id":{inline_id}}}"#));
        match status.get("state").and_then(Json::as_str).unwrap() {
            "completed" => break,
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "inline qasm job stuck");
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("inline qasm job ended {other}: {status:?}"),
        }
    }
    let result = client.call_ok(&format!(r#"{{"op":"result","id":{inline_id}}}"#));
    let hist = result.get("histogram").and_then(Json::as_arr).unwrap();
    let total: u64 = hist.iter().map(|e| field_u64(e, "count")).sum();
    assert_eq!(total, 24, "inline qasm job lost shots");
    assert!(
        hist.len() <= 2,
        "Bell pair must collapse to 00/11: {hist:?}"
    );
    println!(
        "inline qasm job {inline_id} completed ({} patterns)",
        hist.len()
    );

    // Malformed submissions come back as span-anchored QP diagnostics,
    // never a dropped connection.
    let bad_qasm =
        client.call(r#"{"op":"submit","qasm":"OPENQASM 2.0;\nqreg q[1];\nfrob q[0];\n"}"#);
    assert_eq!(bad_qasm.get("ok"), Some(&Json::Bool(false)), "{bad_qasm:?}");
    let diags = bad_qasm.get("diagnostics").and_then(Json::as_arr).unwrap();
    assert!(
        diags
            .iter()
            .any(|d| d.get("code").and_then(Json::as_str) == Some("QP103")),
        "{diags:?}"
    );
    println!("malformed qasm rejected with {} diagnostic(s)", diags.len());

    // Canonicalization round trip: exporting client text re-emits it in
    // the server's dialect, and that dialect is a fixpoint.
    let canon = client.call_ok(&format!(r#"{{"op":"export","qasm":"{bell}"}}"#));
    let canon_text = canon
        .get("qasm")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert!(canon_text.starts_with("OPENQASM 2.0;\n"), "{canon_text}");
    let mut requoted = quipper_trace::JsonWriter::new();
    requoted.string(&canon_text);
    let requoted = requoted.finish();
    let again = client.call_ok(&format!(r#"{{"op":"export","qasm":{requoted}}}"#));
    assert_eq!(
        again.get("qasm").and_then(Json::as_str),
        Some(canon_text.as_str()),
        "canonical form must be a fixpoint"
    );
    println!(
        "inline qasm canonicalizes to {} lines",
        canon_text.lines().count()
    );

    let stats = client.call_ok(r#"{"op":"stats"}"#);
    println!(
        "server stats: {} admitted, {} completed, {} cancelled",
        field_u64(&stats, "admitted"),
        field_u64(&stats, "completed"),
        field_u64(&stats, "cancelled"),
    );
    println!(
        "plan cache: {} hits / {} misses / {} cached plans",
        field_u64(&stats, "engine_cache_hits"),
        field_u64(&stats, "engine_cache_misses"),
        field_u64(&stats, "engine_cached_plans"),
    );
    assert_eq!(field_u64(&stats, "failed"), 0, "no job may be lost");

    // The metrics op must answer in both exposition formats; the JSON Lines
    // body feeds the per-tenant latency table below. (The registry is empty
    // unless the server runs with --trace / --metrics-dump.)
    let prom = client.call_ok(r#"{"op":"metrics","format":"prometheus"}"#);
    let prom_text = prom.get("text").and_then(Json::as_str).unwrap();
    let metrics = client.call_ok(r#"{"op":"metrics","format":"json"}"#);
    let rows: Vec<Json> = metrics
        .get("text")
        .and_then(Json::as_str)
        .unwrap()
        .lines()
        .map(|l| parse_json(l).expect("metrics line parses"))
        .collect();
    let latency_rows: Vec<&Json> = rows
        .iter()
        .filter(|r| r.get("name").and_then(Json::as_str) == Some("serve.job_latency_us"))
        .collect();
    if latency_rows.is_empty() {
        println!("per-tenant latency: no data (server running without --trace)");
    } else {
        assert!(
            prom_text.contains("serve_job_latency_us"),
            "prometheus exposition must agree with json lines"
        );
        println!("per-tenant job latency (us):");
        println!(
            "{:<10} {:<20} {:>6} {:>10} {:>10}",
            "tenant", "state", "jobs", "p50", "p99"
        );
        for row in latency_rows {
            let label = |k| {
                row.get("labels")
                    .and_then(|l| l.get(k))
                    .and_then(Json::as_str)
                    .unwrap_or("-")
            };
            println!(
                "{:<10} {:<20} {:>6} {:>10} {:>10}",
                label("tenant"),
                label("state"),
                field_u64(row, "count"),
                field_u64(row, "p50"),
                field_u64(row, "p99"),
            );
        }
    }

    // The service keeps the recent jobs' timelines; print the last
    // few so "where did the time go" is answerable from the client.
    let flights = client.call_ok(r#"{"op":"flight","recent":3}"#);
    for timeline in flights.get("flights").and_then(Json::as_arr).unwrap() {
        let phases: Vec<String> = timeline
            .get("events")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                format!(
                    "{}+{}us",
                    e.get("phase").and_then(Json::as_str).unwrap(),
                    field_u64(e, "dur_us")
                )
            })
            .collect();
        println!(
            "flight job {} [{}] {}: {}",
            field_u64(timeline, "id"),
            timeline.get("tenant").and_then(Json::as_str).unwrap(),
            timeline.get("state").and_then(Json::as_str).unwrap(),
            phases.join(" -> ")
        );
    }

    println!("serve client: all checks passed");
}
