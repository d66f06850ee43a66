//! The socket client: one request line out, one response line in, and the
//! check of a histogram against a program's known answer.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::json::{self, Json};
use crate::programs::Expect;
use crate::spans::SpanLog;

/// The result poll cadence, fixed here and reported with every result: poll
/// at once, then sleep `POLL_FIRST_SLEEP`, doubling up to `POLL_SLEEP_CAP`.
pub const POLL_FIRST_SLEEP: Duration = Duration::from_micros(50);
pub const POLL_SLEEP_CAP: Duration = Duration::from_millis(2);
/// An op that has no result after this long has failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    response: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            response: String::new(),
        })
    }

    /// Sends `line`, which ends in a newline, and returns the response line.
    pub fn call(&mut self, line: &str) -> std::io::Result<&str> {
        debug_assert!(line.ends_with('\n'));
        self.writer.write_all(line.as_bytes())?;
        self.response.clear();
        if self.reader.read_line(&mut self.response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.response.trim_end())
    }
}

/// The request line that submits `source`.
pub fn submit_line(source: &str, tenant: &str, shots: u64, seed: u64) -> String {
    let mut line = String::with_capacity(source.len() + source.len() / 16 + 96);
    line.push_str("{\"op\":\"submit\",\"qasm\":");
    json::quote_into(&mut line, source);
    line.push_str(&format!(
        ",\"tenant\":\"{tenant}\",\"shots\":{shots},\"seed\":{seed}}}\n"
    ));
    line
}

pub fn result_line(id: u64) -> String {
    format!("{{\"op\":\"result\",\"id\":{id}}}\n")
}

/// The job id of a submit acknowledgement, or the server's refusal.
pub fn parse_ack(response: &str) -> Result<u64, String> {
    let json = json::parse(response)?;
    match (json.get("ok"), json.get("id").and_then(Json::as_f64)) {
        (Some(Json::Bool(true)), Some(id)) => Ok(id as u64),
        _ => Err(format!("submit refused: {response}")),
    }
}

/// A histogram as `(bits, count)` entries.
pub type Histogram = Vec<(Vec<bool>, u64)>;

/// `Ok(Some(histogram))` for a completed job, `Ok(None)` while it is queued
/// or running, `Err` when it failed.
pub fn parse_result(response: &str) -> Result<Option<Histogram>, String> {
    let json = json::parse(response)?;
    if json.get("ok") != Some(&Json::Bool(true)) {
        let error = json.get("error").and_then(Json::as_str).unwrap_or(response);
        return if error.ends_with(", no result") {
            Ok(None)
        } else {
            Err(error.to_string())
        };
    }
    let entries = json
        .get("histogram")
        .and_then(Json::as_arr)
        .ok_or("result without a histogram")?;
    let mut histogram = Histogram::with_capacity(entries.len());
    for entry in entries {
        let bits = entry.get("bits").and_then(Json::as_arr);
        let count = entry.get("count").and_then(Json::as_f64);
        let (Some(bits), Some(count)) = (bits, count) else {
            return Err("malformed histogram entry".to_string());
        };
        let bits = bits.iter().map(|b| b.as_f64() == Some(1.0)).collect();
        histogram.push((bits, count as u64));
    }
    Ok(Some(histogram))
}

/// What one op cost the client.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTiming {
    /// The job id the server gave the op.
    pub id: u64,
    /// Submit line written to acknowledgement read.
    pub submit_rtt: Duration,
    pub polls: u32,
    /// The last sleep between polls: how stale the result can have been.
    pub last_gap: Duration,
    pub response_bytes: usize,
}

/// One closed-loop op: submit, read the acknowledgement, poll for the result.
/// The client-side spans (`wire.submit`, one `wire.poll` per poll) go to
/// `spans` under a `socket_op` root; the end-to-end pass passes a disabled log.
pub fn run_op(
    client: &mut Client,
    line: &str,
    spans: &mut SpanLog,
    op: usize,
) -> Result<(Histogram, OpTiming), String> {
    let started = Instant::now();
    let mut timing = OpTiming::default();
    let root = spans.enter("socket_op", None, op);
    let submit = spans.enter("wire.submit", Some(root), op);
    timing.id = parse_ack(client.call(line).map_err(|e| e.to_string())?)?;
    spans.exit(submit);
    timing.submit_rtt = started.elapsed();
    let poll = result_line(timing.id);
    let mut sleep = POLL_FIRST_SLEEP;
    loop {
        timing.polls += 1;
        let span = spans.enter("wire.poll", Some(root), op);
        let response = client.call(&poll).map_err(|e| e.to_string())?;
        spans.exit(span);
        timing.response_bytes = response.len();
        if let Some(histogram) = parse_result(response)? {
            spans.exit(root);
            return Ok((histogram, timing));
        }
        if started.elapsed() > OP_TIMEOUT {
            return Err(format!("job {} timed out", timing.id));
        }
        std::thread::sleep(sleep);
        timing.last_gap = sleep;
        sleep = (sleep * 2).min(POLL_SLEEP_CAP);
    }
}

fn index_of(bits: &[bool]) -> usize {
    bits.iter().rev().fold(0, |acc, &b| acc << 1 | b as usize)
}

/// Checks one op's histogram against the program's known answer.
/// `distribution` is the reference simulator's, for [`Expect::Distribution`].
pub fn check(
    histogram: &Histogram,
    shots: u64,
    qubits: usize,
    expect: &Expect,
    distribution: Option<&[f64]>,
) -> Result<(), String> {
    let total: u64 = histogram.iter().map(|(_, count)| count).sum();
    if total != shots {
        return Err(format!("{total} shots counted, {shots} asked"));
    }
    if let Some((bits, _)) = histogram.iter().find(|(bits, _)| bits.len() != qubits) {
        return Err(format!("{} output bits, {qubits} qubits", bits.len()));
    }
    for (bits, _) in histogram {
        let ok = match expect {
            Expect::Exact(answer) => bits == answer,
            Expect::Distribution => {
                distribution.expect("a reference distribution")[index_of(bits)] > 1e-12
            }
            Expect::Ghz { errors, syndromes } => {
                let (data, checks) = bits.split_at(errors.len());
                let first = data[0] ^ errors[0];
                data.iter().zip(errors).all(|(d, e)| d ^ e == first) && checks == syndromes
            }
        };
        if !ok {
            return Err(format!(
                "outcome {} is not a possible answer",
                index_of(&bits[..bits.len().min(60)])
            ));
        }
    }
    Ok(())
}

/// The probability that each qubit reads one under `distribution`.
pub fn marginals_of(distribution: &[f64]) -> Vec<f64> {
    (0..distribution.len().trailing_zeros())
        .map(|k| {
            let ones = (0..distribution.len()).filter(|i| i >> k & 1 == 1);
            ones.map(|i| distribution[i]).sum()
        })
        .collect()
}

/// Per-bit counts of ones, pooled over ops, against the reference marginals:
/// for each bit, the ones seen, the ones expected and the variance of that.
#[derive(Clone, Debug, Default)]
pub struct Marginals(Vec<[f64; 3]>);

impl Marginals {
    fn bit(&mut self, k: usize) -> &mut [f64; 3] {
        if self.0.len() <= k {
            self.0.resize(k + 1, [0.0; 3]);
        }
        &mut self.0[k]
    }

    pub fn add(&mut self, histogram: &Histogram, shots: u64, marginals: &[f64]) {
        for (k, &p) in marginals.iter().enumerate() {
            let ones: u64 = histogram
                .iter()
                .filter(|(bits, _)| bits[k])
                .map(|(_, c)| c)
                .sum();
            let shots = shots as f64;
            let [seen, expected, variance] = self.bit(k);
            *seen += ones as f64;
            *expected += shots * p;
            *variance += shots * p * (1.0 - p);
        }
    }

    pub fn merge(&mut self, other: &Marginals) {
        for (k, theirs) in other.0.iter().enumerate() {
            for (mine, theirs) in self.bit(k).iter_mut().zip(theirs) {
                *mine += theirs;
            }
        }
    }

    /// The largest deviation of a pooled bit count from its expectation, in
    /// standard deviations.
    pub fn worst_sigma(&self) -> f64 {
        self.0
            .iter()
            .filter(|[_, _, variance]| *variance > 0.0)
            .map(|[seen, expected, variance]| (seen - expected).abs() / variance.sqrt())
            .fold(0.0, f64::max)
    }
}
