//! The service's one real failure boundary, over a real loopback socket.
//!
//! Every run function is a pure function of plan, inputs and seed, so the
//! only failure a job can meet that a well-formed circuit does not predict
//! is a bug: a panic inside a simulator. The service contains it — the job
//! whose shot panicked fails alone, with the panic's message, and the
//! worker that ran it goes on to run every other tenant's jobs. The panic
//! comes from the engine's shot hook, which runs at the top of every shot.
//!
//! The scenario runs on its own thread and is given 10 s: with the boundary
//! broken the worker dies and `drain` never returns, and a hang must fail
//! the test instead of stalling the suite.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use quipper_exec::{Engine, EngineConfig};
use quipper_serve::catalog::Catalog;
use quipper_serve::{QuotaPolicy, Server, Service, ServiceConfig};
use quipper_trace::{parse_json, Json};

/// The seed of the one shot that panics.
const DOOMED_SEED: u64 = 1_000;

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
        self.reader.read_line(&mut response).expect("an answer");
        parse_json(response.trim()).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
    }

    fn submit(&mut self, tenant: &str, circuit: &str, seed: u64) -> u64 {
        let ack = self.rpc(&format!(
            r#"{{"op":"submit","circuit":"{circuit}","tenant":"{tenant}","shots":8,"seed":{seed}}}"#
        ));
        ack.get("id").and_then(Json::as_num).expect("admitted") as u64
    }

    fn state(&mut self, id: u64) -> String {
        loop {
            let status = self.rpc(&format!(r#"{{"op":"status","id":{id}}}"#));
            let state = status.get("state").and_then(Json::as_str).unwrap();
            if !matches!(state, "queued" | "running") {
                return state.to_string();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

fn stat(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_num).unwrap()
}

#[test]
fn a_panicking_backend_costs_one_job_not_the_service() {
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        one_panicking_job_beside_another_tenant();
        let _ = done.send(());
    });
    match outcome.recv_timeout(Duration::from_secs(10)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("still running after 10 s"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the scenario panicked"),
    }
}

fn one_panicking_job_beside_another_tenant() {
    let hook = |seed| {
        if seed == DOOMED_SEED {
            panic!("a simulator bug");
        }
    };
    // One worker: the jobs after the panic run on the worker that met it.
    let config = ServiceConfig {
        workers: 1,
        quota: QuotaPolicy::unlimited(),
        ..ServiceConfig::default()
    };
    let engine = Engine::with_shot_hook(EngineConfig::default(), hook);
    let service = Arc::new(Service::start(engine, config));
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&service),
        Arc::new(Catalog::new()),
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.local_addr());

    let doomed = client.submit("alice", "ghz3", DOOMED_SEED);
    let others: Vec<u64> = (0..3)
        .map(|seed| client.submit("bob", ["ghz3", "qft4", "ghz5"][seed as usize], seed))
        .collect();

    assert_eq!(client.state(doomed), "failed");
    let result = client.rpc(&format!(r#"{{"op":"result","id":{doomed}}}"#));
    assert_eq!(
        result.get("error").and_then(Json::as_str),
        Some(format!("job {doomed} failed: panicked: a simulator bug").as_str())
    );
    let events = result
        .get("flight")
        .and_then(|flight| flight.get("events"))
        .and_then(Json::as_arr)
        .expect("a failed result carries its flight");
    let phases: Vec<&str> = events
        .iter()
        .map(|event| event.get("phase").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(phases, ["admit", "queue", "compile", "shots", "failed"]);

    // The worker lived: the other tenant's jobs ran after the panic.
    for id in others {
        assert_eq!(client.state(id), "completed", "job {id}");
        let result = client.rpc(&format!(r#"{{"op":"result","id":{id}}}"#));
        assert_eq!(result.get("shots").and_then(Json::as_num), Some(8.0));
    }

    // The service still answers, and counted the one failure.
    let stats = client.rpc(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        (stat(&stats, "failed"), stat(&stats, "completed")),
        (1.0, 3.0)
    );
    server.stop();
    service.shutdown();
}
