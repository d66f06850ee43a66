//! The TCP front door: newline-delimited JSON over `std::net`.
//!
//! One listener thread blocks in `accept()`; each connection gets a thread
//! reading request lines and writing response lines via
//! [`crate::protocol::handle_line`]. Nothing between a request line and its
//! response line waits on a timer: a response and its newline leave in one
//! write on a `TCP_NODELAY` socket, so neither Nagle's algorithm nor the
//! peer's delayed ACK can hold the end of a line back (either alone would
//! still stall a client that leaves Nagle on). Whoever raises the stop
//! flag ([`Server::stop`], `Drop`, the connection thread that handled a
//! `shutdown` op) wakes the listener with one connect to its own address.
//! A connection holds at most [`MAX_LINE_BYTES`] of a request line: the
//! rest of a longer line is dropped as it arrives, and the line is answered
//! with one error. The server is deliberately boring — all scheduling
//! intelligence lives in the [`Service`]; this layer only moves lines.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::catalog::Catalog;
use crate::protocol::{handle_line, line_too_long, MAX_LINE_BYTES};
use crate::service::Service;

/// A running NDJSON server over a [`Service`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<Stop>,
    accept_thread: Option<JoinHandle<()>>,
}

/// The stop flag, and the address whose connections reach the listener: the
/// accept loop blocks in `accept()`, so raising the flag takes a connect.
struct Stop {
    flag: AtomicBool,
    wake: SocketAddr,
}

impl Stop {
    /// Raises the flag; the first raiser wakes the accept loop. `SeqCst`,
    /// because the loop must see the flag once it sees the connection.
    fn raise(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            // Refused when the loop has already gone; bounded, because a
            // full backlog would otherwise hold the raiser (and then the
            // loop has connections to wake it anyway).
            let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
        }
    }

    fn raised(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting connections against `service` and `catalog`.
    pub fn start(
        addr: &str,
        service: Arc<Service>,
        catalog: Arc<Catalog>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // A listener on the unspecified address is reached through loopback.
        let mut wake = addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let stop = Arc::new(Stop {
            flag: AtomicBool::new(false),
            wake,
        });
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, service, catalog, accept_stop))
            .expect("spawn accept thread");
        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a shutdown has been requested (by [`Server::stop`] or a
    /// client's `shutdown` op).
    pub fn stopped(&self) -> bool {
        self.stop.raised()
    }

    /// Blocks until the accept loop exits (a client sent `shutdown`, or
    /// another thread called [`Server::stop`]).
    pub fn join(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            handle.join().expect("accept thread panicked");
        }
    }

    /// Requests the accept loop to exit.
    pub fn stop(&self) {
        self.stop.raise();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<Service>,
    catalog: Arc<Catalog>,
    stop: Arc<Stop>,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // Checked after the accept: the connection may be the raiser's.
        if stop.raised() {
            break;
        }
        let Ok((stream, _)) = accepted else { break };
        let service = Arc::clone(&service);
        let catalog = Arc::clone(&catalog);
        let stop = Arc::clone(&stop);
        connections.push(
            std::thread::Builder::new()
                .name("serve-conn".into())
                .spawn(move || serve_connection(stream, &service, &catalog, &stop))
                .expect("spawn connection thread"),
        );
        connections.retain(|handle| !handle.is_finished());
    }
    for handle in connections {
        let _ = handle.join();
    }
}

fn serve_connection(stream: TcpStream, service: &Service, catalog: &Catalog, stop: &Stop) {
    let _ = stream.set_nodelay(true);
    // Reads time out, so a silent client doesn't pin the thread past server
    // shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // The request line read so far. A read can time out mid-line, even
    // mid-character: its bytes stay here until the whole line is handled.
    let mut line = Vec::new();
    // Whether the line being read is longer than `MAX_LINE_BYTES`: its
    // bytes are dropped as they arrive, and its newline gets an error.
    let mut overlong = false;
    loop {
        if stop.raised() {
            return;
        }
        // One byte past the cap at most: a line that reaches it is overlong.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(0) if line.is_empty() => return, // client hung up
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
            overlong = true;
            line.clear();
            continue;
        }
        let handled = if std::mem::take(&mut overlong) {
            Some(line_too_long())
        } else {
            let Ok(request) = std::str::from_utf8(&line) else {
                return;
            };
            let blank = request.trim().is_empty();
            (!blank).then(|| handle_line(service, catalog, request))
        };
        if let Some(mut handled) = handled {
            // Raise the stop flag before answering: a one-shot client may
            // close right after sending `shutdown`, and a failed response
            // write must not swallow the request.
            if handled.shutdown {
                stop.raise();
            }
            handled.response.push('\n');
            if writer.write_all(handled.response.as_bytes()).is_err() || handled.shutdown {
                return;
            }
        }
        line.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use quipper_exec::Engine;
    use quipper_trace::{parse_json, Json};
    use std::time::Instant;

    /// One connection that leaves Nagle on: a request line out in one write,
    /// a response line in.
    fn client(addr: SocketAddr) -> impl FnMut(&str) -> Json {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        move |line| {
            writer.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            parse_json(response.trim()).unwrap()
        }
    }

    fn client_round_trip(addr: SocketAddr, lines: &[&str]) -> Vec<Json> {
        lines.iter().copied().map(client(addr)).collect()
    }

    #[test]
    fn serves_a_submit_result_session_over_tcp() {
        let service = Arc::new(Service::start(
            Engine::new(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        ));
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&service),
            Arc::new(Catalog::new()),
        )
        .unwrap();
        let addr = server.local_addr();

        let responses = client_round_trip(
            addr,
            &[
                r#"{"op":"ping"}"#,
                r#"{"op":"submit","circuit":"ghz3","shots":16}"#,
            ],
        );
        assert_eq!(responses[0].get("pong"), Some(&Json::Bool(true)));
        let id = responses[1].get("id").and_then(Json::as_num).unwrap() as u64;
        service.drain();

        let responses = client_round_trip(addr, &[&format!(r#"{{"op":"result","id":{id}}}"#)]);
        assert_eq!(responses[0].get("ok"), Some(&Json::Bool(true)));

        // A second connection still works, then shutdown stops the loop.
        let responses = client_round_trip(addr, &[r#"{"op":"shutdown"}"#]);
        assert_eq!(responses[0].get("stopping"), Some(&Json::Bool(true)));
        server.join();
        service.shutdown();
    }

    /// A one-shot client (`printf '{"op":"shutdown"}' | nc`) closes the
    /// socket without reading the response; the failed response write must
    /// not swallow the shutdown request.
    #[test]
    fn shutdown_from_a_client_that_hangs_up_immediately() {
        let service = Arc::new(Service::start(Engine::new(), ServiceConfig::default()));
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&service),
            Arc::new(Catalog::new()),
        )
        .unwrap();
        let addr = server.local_addr();

        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
            // Drop without reading: the server's response write hits a
            // closed peer.
        }
        server.join();
        service.shutdown();
    }

    /// A stall detector, not a timing test. A response that leaves the
    /// server in two segments waits for this client's delayed ACK, 40 ms a
    /// response once the connection leaves quick-ACK mode (about 2 s for
    /// this session). Without a stall the session is a few milliseconds.
    #[test]
    fn no_response_waits_for_a_delayed_ack() {
        let service = Arc::new(Service::start(Engine::new(), ServiceConfig::default()));
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&service),
            Arc::new(Catalog::new()),
        )
        .unwrap();
        let addr = server.local_addr();

        let started = Instant::now();
        let mut call = client(addr);
        for _ in 0..50 {
            let pong = call(r#"{"op":"ping"}"#);
            assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));
        }
        let submitted = call(r#"{"op":"submit","circuit":"ghz3","shots":16}"#);
        let id = submitted.get("id").and_then(Json::as_num).unwrap() as u64;
        let result = format!(r#"{{"op":"result","id":{id}}}"#);
        while call(&result).get("histogram").is_none() {
            let waited = started.elapsed();
            assert!(waited < Duration::from_secs(10), "job never ended");
        }
        let session = started.elapsed();
        assert!(
            session < Duration::from_millis(500),
            "52+ round trips took {session:?}: a response is waiting on a timer"
        );
        drop(call);
        drop(server);
        service.shutdown();
    }

    /// A request line that arrives in two writes, with a pause longer than
    /// the server's 200 ms read timeout between them, is one request, also
    /// when the pause falls inside a character.
    #[test]
    fn a_line_split_by_the_read_timeout_is_one_request() {
        let service = Arc::new(Service::start(Engine::new(), ServiceConfig::default()));
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&service),
            Arc::new(Catalog::new()),
        )
        .unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut send_in_two = |first: &[u8], rest: &[u8]| {
            writer.write_all(first).unwrap();
            std::thread::sleep(Duration::from_millis(500));
            writer.write_all(rest).unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            response
        };

        let pong = send_in_two(br#"{"op":"#, b"\"ping\"}\n");
        assert_eq!(pong, "{\"ok\":true,\"pong\":true}\n");
        // The tenant is "\u{e9}", bytes C3 A9: the pause splits them.
        let submit = br#"{"op":"submit","circuit":"ghz3","tenant":""#;
        let accepted = send_in_two(&[&submit[..], b"\xC3"].concat(), b"\xA9\"}\n");
        assert_eq!(accepted, "{\"ok\":true,\"id\":1}\n");
        drop(server);
        service.shutdown();
    }

    #[test]
    fn stop_wakes_the_blocked_accept_loop() {
        let service = Arc::new(Service::start(Engine::new(), ServiceConfig::default()));
        let server =
            Server::start("0.0.0.0:0", Arc::clone(&service), Arc::new(Catalog::new())).unwrap();
        assert!(!server.stopped());
        let started = Instant::now();
        server.stop();
        assert!(server.stopped());
        server.join();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(100), "join took {took:?}");
        service.shutdown();
    }
}
