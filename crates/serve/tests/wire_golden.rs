//! Exact-byte goldens for the wire protocol: scripted `handle_line` sessions
//! covering every op and every error shape.
//!
//! These pin *bytes*, not structure: field order, escaping and number
//! rendering are all part of what a client's parser and a log grep see. A
//! transcript is what is on the wire: `> ` a request line, `< ` the exact
//! response, `~ ` the response with every number outside a string masked to
//! `0` (clocks: `flight` offsets, `retry_after_ms`; counters: `stats`), and
//! `drain` waits for the admitted jobs to finish.

use std::time::Duration;

use quipper_exec::{Engine, EngineConfig};
use quipper_serve::catalog::Catalog;
use quipper_serve::protocol::handle_line;
use quipper_serve::{QuotaPolicy, Service, ServiceConfig};
use quipper_trace::{names, Tracer};

fn quiet_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        quota: QuotaPolicy::unlimited(),
        ..ServiceConfig::default()
    }
}

/// A service whose engine runs `hook` at the top of every shot.
fn hooked(hook: impl Fn(u64) + Send + Sync + 'static, config: ServiceConfig) -> Service {
    let engine = Engine::with_shot_hook(EngineConfig::default(), hook);
    Service::start(engine, config)
}

/// Replaces every number outside a string literal with `0`.
fn mask_numbers(raw: &str) -> String {
    let mut out = String::new();
    let mut chars = raw.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            match c {
                '\\' => out.extend(chars.next()),
                '"' => in_string = false,
                _ => {}
            }
        } else if c.is_ascii_digit() {
            while chars.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
            }
            out.push('0');
        } else {
            in_string = c == '"';
            out.push(c);
        }
    }
    out
}

/// Plays a transcript against `service` and reports every exchange whose
/// response differs.
fn play(service: &Service, transcript: &str) {
    let catalog = Catalog::new();
    let (mut request, mut response) = ("", String::new());
    let mut wrong = Vec::new();
    for line in transcript.lines().filter(|line| !line.is_empty()) {
        let got = match line.split_at(2) {
            ("> ", sent) => {
                request = sent;
                response = handle_line(service, &catalog, request).response;
                continue;
            }
            ("< ", _) => response.clone(),
            ("~ ", _) => mask_numbers(&response),
            _ => {
                assert_eq!(line, "drain");
                service.drain();
                continue;
            }
        };
        if got != line[2..] {
            wrong.push(format!("{request}\n   got {got}\n  want {}", &line[2..]));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

const SESSION: &str = r##"
> {"op":"ping"}
< {"ok":true,"pong":true}
> {"op":"list"}
< {"ok":true,"circuits":["teleportation","ghz3","ghz5","parity4","grover3","qft4"]}

> {"op":"submit","circuit":"ghz3","tenant":"alice","shots":16,"seed":7,"opt":"default","label":"a\"b\\c\nd\te\u0001é😀"}
< {"ok":true,"id":1}
drain
> {"op":"status","id":1}
< {"ok":true,"id":1,"state":"completed","label":"a\"b\\c\nd\te\u0001é😀"}
> {"op":"result","id":1}
< {"ok":true,"id":1,"label":"a\"b\\c\nd\te\u0001é😀","backend":"stabilizer","shots":16,"histogram":[{"bits":[0,0,0],"count":8},{"bits":[1,1,1],"count":8}]}
> {"op":"submit","circuit":"ghz3","shots":4,"seed":1}
< {"ok":true,"id":2}
drain
> {"op":"status","id":2}
< {"ok":true,"id":2,"state":"completed","label":"ghz3"}
> {"op":"submit","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\nreset q;\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nmeasure q -> c;\n","tenant":"t","shots":16,"seed":3}
< {"ok":true,"id":3}
drain
> {"op":"status","id":3}
< {"ok":true,"id":3,"state":"completed","label":"qasm"}
> {"op":"result","id":3}
< {"ok":true,"id":3,"label":"qasm","backend":"stabilizer","shots":16,"histogram":[{"bits":[0,0,0],"count":9},{"bits":[1,1,1],"count":7}]}
> {"op":"submit","circuit":"ghz3","shots":16,"seed":3,"inputs":[0,1,0]}
< {"ok":true,"id":4}
drain
> {"op":"result","id":4}
< {"ok":true,"id":4,"label":"ghz3","backend":"stabilizer","shots":16,"histogram":[{"bits":[0,1,1],"count":9},{"bits":[1,0,0],"count":7}]}

> {"op":"export","circuit":"teleportation"}
< {"ok":true,"circuit":"teleportation","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c0[1];\ncreg c1[1];\ncreg c2[1];\nreset q[0];\nry(0.7) q[0];\nreset q[1];\nreset q[2];\nh q[1];\ncx q[1],q[2];\ncx q[0],q[1];\nh q[0];\nmeasure q[0] -> c0[0];\nmeasure q[1] -> c1[0];\nif(c1==1) x q[2];\nif(c0==1) z q[2];\nry(-0.7) q[2];\nmeasure q[2] -> c2[0];\n"}
> {"op":"export","qasm":"OPENQASM 3;\nqubit[2] q;\nU(0,0,3.141592653589793) q[0];\nCX q[0],q[1];\n"}
< {"ok":true,"circuit":"qasm","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nu1(3.141592653589793) q[0];\ncx q[0],q[1];\n"}
> {"op":"export","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nu1(3.141592653589793) q[0];\ncx q[0],q[1];\n"}
< {"ok":true,"circuit":"qasm","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nu1(3.141592653589793) q[0];\ncx q[0],q[1];\n"}

> {"op":"cancel","id":999}
< {"ok":false,"error":"unknown job id 999"}
> {"op":"cancel","id":1}
< {"ok":true,"id":1,"state":"completed"}

> not json
< {"ok":false,"error":"bad request: bad keyword: expected 'u', got Some('o')"}
> {"op":"ping"} trailing
< {"ok":false,"error":"bad request: trailing character 't' after JSON value"}
> {"circuit":"ghz3"}
< {"ok":false,"error":"missing \"op\""}
> {"op":"warp"}
< {"ok":false,"error":"unknown op \"warp\""}
> {"op":"submit"}
< {"ok":false,"error":"submit needs a \"circuit\" (see op \"list\") or inline \"qasm\""}
> {"op":"submit","circuit":"nope"}
< {"ok":false,"error":"unknown circuit \"nope\" (see op \"list\")"}
> {"op":"submit","circuit":"ghz3","opt":"extreme"}
< {"ok":false,"error":"unknown opt level \"extreme\" (off/default)"}
> {"op":"submit","circuit":"ghz3","opt":"aggressive"}
< {"ok":false,"error":"unknown opt level \"aggressive\" (off/default)"}
> {"op":"submit","circuit":"ghz3","qasm":"OPENQASM 2.0;"}
< {"ok":false,"error":"submit takes \"circuit\" or \"qasm\", not both"}
> {"op":"submit","circuit":"ghz3","inputs":3}
< {"ok":false,"error":"\"inputs\" must be an array of 0/1"}
> {"op":"submit","circuit":"ghz3","inputs":[true,false,false]}
< {"ok":false,"error":"\"inputs\" must be an array of 0/1"}
> {"op":"submit","circuit":"ghz3","inputs":["1",0,0]}
< {"ok":false,"error":"\"inputs\" must be an array of 0/1"}
> {"op":"submit","circuit":"ghz3","inputs":[0.5,0,0]}
< {"ok":false,"error":"\"inputs\" must be an array of 0/1"}
> {"op":"submit","qasm":"OPENQASM 2.0;\ninclude \"nope.inc\";\nqreg q[1];\nfrob q[0];\n"}
< {"ok":false,"error":"qasm rejected with 2 error(s)","diagnostics":[{"code":"QP113","severity":"error","line":2,"col":1,"message":"unsupported include \"nope.inc\" (only \"qelib1.inc\" / \"stdgates.inc\")"},{"code":"QP103","severity":"error","line":4,"col":1,"message":"unknown gate `frob`"}]}
> {"op":"export"}
< {"ok":false,"error":"export needs a \"circuit\" (see op \"list\") or inline \"qasm\""}
> {"op":"export","circuit":"ghz3","qasm":"x"}
< {"ok":false,"error":"export takes \"circuit\" or \"qasm\", not both"}
> {"op":"export","circuit":"nope"}
< {"ok":false,"error":"unknown circuit \"nope\" (see op \"list\")"}
> {"op":"status"}
< {"ok":false,"error":"status needs a numeric \"id\""}
> {"op":"status","id":999}
< {"ok":false,"error":"unknown job id 999"}
> {"op":"result"}
< {"ok":false,"error":"result needs a numeric \"id\""}
> {"op":"result","id":999}
< {"ok":false,"error":"unknown job id 999"}
> {"op":"cancel"}
< {"ok":false,"error":"cancel needs a numeric \"id\""}
> {"op":"flight","id":999}
< {"ok":false,"error":"no flight timeline for job id 999"}
> {"op":"metrics","format":"xml"}
< {"ok":false,"error":"unknown metrics format \"xml\" (json/prometheus)"}

> {"op":"stats"}
~ {"ok":true,"submitted":0,"admitted":0,"rejected":0,"completed":0,"failed":0,"cancelled":0,"deadline_misses":0,"coalesced":0,"engine_cache_hits":0,"engine_cache_misses":0,"engine_cached_plans":0}
> {"op":"metrics"}
< {"ok":true,"format":"json","text":"{\"kind\":\"counter\",\"name\":\"serve.admit\",\"value\":3}\n"}
> {"op":"metrics","format":"prometheus"}
< {"ok":true,"format":"prometheus","text":"# TYPE serve_admit counter\nserve_admit 3\n"}
> {"op":"shutdown"}
< {"ok":true,"stopping":true}
"##;

#[test]
fn scripted_session_matches_golden_bytes() {
    // A dedicated, disabled tracer: nothing the service or engine does
    // lands in the registry, so the `metrics` exchanges control it.
    let trace = Tracer::leaked(64);
    trace.metrics().add(names::SERVE_ADMIT, 3);
    let engine = Engine::with_config(EngineConfig {
        trace,
        ..EngineConfig::default()
    });
    let service = Service::start(engine, quiet_config());
    play(&service, SESSION);
    let handled = handle_line(&service, &Catalog::new(), r#"{"op":"shutdown"}"#);
    assert!(handled.shutdown);
    service.shutdown();
}

/// Flight timelines are only golden for jobs submitted while the single
/// worker is busy: `Service::submit` stamps `queue` after the push, so an
/// idle worker can race that stamp.
#[test]
fn backpressure_and_queued_jobs_match_golden_bytes() {
    // One worker held by a slow job (2 ms a shot), a queue of one.
    let slow = |_| std::thread::sleep(Duration::from_millis(2));
    let config = ServiceConfig {
        queue_capacity: 1,
        ..quiet_config()
    };
    let service = hooked(slow, config);
    let submit = r#"{"op":"submit","circuit":"ghz3","tenant":"t","shots":50000}"#;
    let catalog = Catalog::new();
    handle_line(&service, &catalog, submit);
    let status = r#"{"op":"status","id":1}"#;
    while !handle_line(&service, &catalog, status)
        .response
        .contains("running")
    {
        std::thread::yield_now();
    }
    play(
        &service,
        r#"
> {"op":"submit","circuit":"ghz3","tenant":"t","label":"waits"}
< {"ok":true,"id":2}
> {"op":"submit","circuit":"ghz3","tenant":"t"}
~ {"ok":false,"error":"admission queue full","retry_after_ms":0,"reason":"queue_full"}
> {"op":"flight","id":2}
~ {"ok":true,"flights":[{"id":0,"tenant":"t","label":"waits","state":"queued","events":[{"phase":"admit","at_us":0,"dur_us":0},{"phase":"queue","at_us":0,"dur_us":0}]}]}
> {"op":"result","id":2}
< {"ok":false,"error":"job 2 is queued, no result"}
> {"op":"cancel","id":2}
< {"ok":true,"id":2,"state":"cancelled"}
> {"op":"flight","recent":1}
~ {"ok":true,"flights":[{"id":0,"tenant":"t","label":"waits","state":"cancelled","events":[{"phase":"admit","at_us":0,"dur_us":0},{"phase":"queue","at_us":0,"dur_us":0},{"phase":"cancelled","at_us":0,"dur_us":0}]}]}
"#,
    );
    service.shutdown();

    // Quota: a one-token bucket that refills slower than the test runs.
    let quota = QuotaPolicy {
        capacity: 1.0,
        refill_per_sec: 0.5,
        cost_per_job: 1.0,
        cost_per_kshot: 0.0,
    };
    let config = ServiceConfig {
        quota,
        ..quiet_config()
    };
    play(
        &Service::start(Engine::new(), config),
        r#"
> {"op":"submit","circuit":"ghz3","tenant":"greedy"}
< {"ok":true,"id":1}
> {"op":"submit","circuit":"ghz3","tenant":"greedy"}
~ {"ok":false,"error":"tenant quota exhausted","retry_after_ms":0,"reason":"quota_exhausted"}
"#,
    );
}

#[test]
fn failed_and_late_results_carry_their_flight_inline() {
    // Every shot of seed 0 takes 20 ms, so job 1 keeps the worker while
    // jobs 2 and 3 are admitted; every shot of seed 5 panics.
    let hook = |seed| match seed {
        5 => panic!("a simulator bug"),
        _ => std::thread::sleep(Duration::from_millis(20)),
    };
    play(
        &hooked(hook, quiet_config()),
        r#"
> {"op":"submit","circuit":"ghz3","tenant":"t"}
< {"ok":true,"id":1}
> {"op":"submit","circuit":"ghz3","tenant":"t","label":"doomed","seed":5}
< {"ok":true,"id":2}
> {"op":"submit","circuit":"ghz3","tenant":"t","label":"late","deadline_ms":0}
< {"ok":true,"id":3}
drain
> {"op":"result","id":2}
~ {"ok":false,"error":"job 2 failed: panicked: a simulator bug","flight":{"id":0,"tenant":"t","label":"doomed","state":"failed","events":[{"phase":"admit","at_us":0,"dur_us":0},{"phase":"queue","at_us":0,"dur_us":0},{"phase":"compile","at_us":0,"dur_us":0},{"phase":"shots","at_us":0,"dur_us":0},{"phase":"failed","at_us":0,"dur_us":0,"detail":"panicked: a simulator bug"}]}}
> {"op":"cancel","id":2}
< {"ok":true,"id":2,"state":"failed"}
> {"op":"status","id":3}
< {"ok":true,"id":3,"state":"deadline_exceeded","label":"late"}
> {"op":"result","id":3}
~ {"ok":false,"error":"job 3 missed its deadline","flight":{"id":0,"tenant":"t","label":"late","state":"deadline_exceeded","events":[{"phase":"admit","at_us":0,"dur_us":0},{"phase":"queue","at_us":0,"dur_us":0},{"phase":"deadline_exceeded","at_us":0,"dur_us":0}]}}
"#,
    );
}
