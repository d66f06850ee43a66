//! Hostile request lines cost one request: a line nested far past any
//! stack, or longer than the wire's line cap, is answered with `ok:false`,
//! and the process, the connection and the other connections keep serving.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use quipper_exec::Engine;
use quipper_serve::catalog::Catalog;
use quipper_serve::protocol::{handle_line, MAX_LINE_BYTES};
use quipper_serve::{Server, Service, ServiceConfig};

fn service() -> Service {
    let config = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    Service::start(Engine::new(), config)
}

const BAD_REQUEST: &str = "{\"ok\":false,\"error\":\"bad request: ";

#[test]
fn deep_nesting_is_a_bad_request_on_a_default_stack_thread() {
    // A spawned thread gets the default 2 MiB stack, like the server's
    // connection threads (the test harness's own stack may be larger).
    std::thread::spawn(|| {
        let (service, catalog) = (service(), Catalog::new());
        for open in ["[", "{\"a\":"] {
            let response = handle_line(&service, &catalog, &open.repeat(100_000)).response;
            assert!(response.starts_with(BAD_REQUEST), "{response}");
        }
        let pong = handle_line(&service, &catalog, r#"{"op":"ping"}"#).response;
        assert_eq!(pong, r#"{"ok":true,"pong":true}"#);
        service.shutdown();
    })
    .join()
    .expect("handle_line must not overflow the stack");
}

fn rpc(stream: &mut BufReader<TcpStream>, line: &[u8]) -> String {
    stream.get_mut().write_all(&[line, b"\n"].concat()).unwrap();
    let mut response = String::new();
    stream.read_line(&mut response).unwrap();
    response
}

#[test]
fn a_megabyte_of_open_brackets_costs_the_server_one_request() {
    let server = Server::start("127.0.0.1:0", Arc::new(service()), Arc::new(Catalog::new()))
        .expect("bind loopback");
    let connect = || BufReader::new(TcpStream::connect(server.local_addr()).unwrap());

    let mut hostile = connect();
    let response = rpc(&mut hostile, &vec![b'['; 1 << 20]);
    assert!(response.starts_with(BAD_REQUEST), "{response}");

    // The same connection and a new one are both still served.
    let pong = "{\"ok\":true,\"pong\":true}\n";
    assert_eq!(rpc(&mut hostile, br#"{"op":"ping"}"#), pong);
    assert_eq!(rpc(&mut connect(), br#"{"op":"ping"}"#), pong);
}

#[test]
fn an_eight_megabyte_line_is_dropped_as_it_arrives_and_answered() {
    let server = Server::start("127.0.0.1:0", Arc::new(service()), Arc::new(Catalog::new()))
        .expect("bind loopback");
    let connect = || BufReader::new(TcpStream::connect(server.local_addr()).unwrap());

    let mut hostile = connect();
    let response = rpc(&mut hostile, &vec![b'x'; 8 << 20]);
    assert_eq!(
        response,
        format!("{BAD_REQUEST}line longer than {MAX_LINE_BYTES} bytes\"}}\n")
    );

    let pong = "{\"ok\":true,\"pong\":true}\n";
    assert_eq!(rpc(&mut hostile, br#"{"op":"ping"}"#), pong);
    assert_eq!(rpc(&mut connect(), br#"{"op":"ping"}"#), pong);
}
