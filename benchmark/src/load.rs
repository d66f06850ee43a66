//! The load generators: a closed loop (the next op goes out when the last one
//! is checked) and an open loop (ops go out on a schedule, whatever the
//! server does), each over one connection per thread.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::client::{
    check, parse_ack, parse_result, result_line, run_op, Client, Histogram, Marginals, OpTiming,
    OP_TIMEOUT, POLL_FIRST_SLEEP, POLL_SLEEP_CAP,
};
use crate::spans::SpanLog;
use crate::workloads::{Known, OpSpec, Stream};

/// What one connection saw.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Latency in ms of each op answered correctly.
    pub latencies_ms: Vec<f64>,
    /// When the last op finished.
    pub finished: Option<Instant>,
    /// Closed loop: wall time of each whole round of ops, in seconds.
    pub round_s: Vec<f64>,
    pub marginals: Marginals,
    /// The server's job id of each op answered, in order.
    pub ids: Vec<u64>,
    pub submit_rtt_us: Vec<f64>,
    pub polls: u64,
    pub poll_gap_us: f64,
    pub response_bytes: u64,
    /// Open loop: how late each op was sent, in µs.
    pub late_us: Vec<f64>,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(error);
        }
    }

    /// Checks an answered op and books it.
    fn answer(&mut self, op: &OpSpec, known: &Known, histogram: &Histogram, latency: Duration) {
        let distribution = known.reference.as_ref().map(|(d, _)| d.as_slice());
        let program = &known.program;
        match check(
            histogram,
            op.shots,
            program.qubits,
            &program.expect,
            distribution,
        ) {
            Ok(()) => {
                self.latencies_ms.push(latency.as_secs_f64() * 1e3);
                if let Some((_, marginals)) = &known.reference {
                    self.marginals.add(histogram, op.shots, marginals);
                }
            }
            Err(e) => self.fail(format!("{}: {e}", program.family)),
        }
    }

    fn timing(&mut self, timing: &OpTiming) {
        self.ids.push(timing.id);
        self.submit_rtt_us
            .push(timing.submit_rtt.as_secs_f64() * 1e6);
        self.polls += timing.polls as u64;
        self.poll_gap_us += timing.last_gap.as_secs_f64() * 1e6;
        self.response_bytes += timing.response_bytes as u64;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
        self.finished = self.finished.max(other.finished);
        self.round_s.extend(other.round_s);
        self.marginals.merge(&other.marginals);
        self.ids.extend(other.ids);
        self.submit_rtt_us.extend(other.submit_rtt_us);
        self.polls += other.polls;
        self.poll_gap_us += other.poll_gap_us;
        self.response_bytes += other.response_bytes;
        self.late_us.extend(other.late_us);
        self.errors.extend(other.errors);
    }
}

/// Runs `stream` in a closed loop, a whole round of `round` ops at a time,
/// starting a new round until `deadline` or the end of the stream: every run
/// then measures the same mix of ops, however many rounds it gets through.
/// Spans are numbered from `first_op`, so that connections share no op ids.
pub fn closed_loop(
    addr: SocketAddr,
    stream: &mut Stream,
    programs: &[Known],
    round: usize,
    deadline: Instant,
    spans: &mut SpanLog,
    first_op: usize,
) -> Tally {
    let mut tally = Tally::default();
    let mut client = Client::connect(addr).expect("connect to the in-process server");
    'rounds: while Instant::now() < deadline {
        let round_started = Instant::now();
        for _ in 0..round {
            let Some(op) = stream.next_op() else {
                break 'rounds;
            };
            tally.attempted += 1;
            let started = Instant::now();
            match run_op(
                &mut client,
                &op.line,
                spans,
                first_op + tally.attempted as usize,
            ) {
                Ok((histogram, timing)) => {
                    tally.answer(&op, &programs[op.program], &histogram, started.elapsed());
                    tally.timing(&timing);
                }
                Err(e) => tally.fail(e),
            }
        }
        tally.round_s.push(round_started.elapsed().as_secs_f64());
    }
    tally.finished = Some(Instant::now());
    tally
}

/// Runs each op unmeasured, `copies` at a time: fills lazy initialisation,
/// instruction-set detection and thread start-up. With one copy per service
/// worker every worker has run every program family before measuring starts,
/// so that what a worker keeps allocated does not depend on which worker the
/// queue happens to hand the measured jobs to. A wrong answer here is a
/// failed set-up.
pub fn warm_up(
    addr: SocketAddr,
    ops: &[OpSpec],
    programs: &[Known],
    copies: usize,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    for op in ops {
        let mut ids = Vec::new();
        for _ in 0..copies {
            ids.push(parse_ack(
                client.call(&op.line).map_err(|e| e.to_string())?,
            )?);
        }
        for id in ids {
            let histogram = loop {
                let response = client.call(&result_line(id)).map_err(|e| e.to_string())?;
                match parse_result(response)? {
                    Some(histogram) => break histogram,
                    None => std::thread::sleep(POLL_SLEEP_CAP),
                }
            };
            tally.answer(op, &programs[op.program], &histogram, Duration::ZERO);
        }
    }
    match tally.errors.pop() {
        Some(error) => Err(error),
        None => Ok(()),
    }
}

struct Pending {
    id: u64,
    op: OpSpec,
    due: Instant,
    next_poll: Instant,
    sleep: Duration,
}

/// Sends one op of `stream` every `period` from `start` for `duration`,
/// polling the jobs in flight in between, then waits for the stragglers.
/// Latency runs from the instant an op was due, not from when it was sent.
pub fn open_loop(
    addr: SocketAddr,
    stream: &mut Stream,
    programs: &[Known],
    period: Duration,
    start: Instant,
    duration: Duration,
) -> Tally {
    let mut tally = Tally::default();
    let mut client = Client::connect(addr).expect("connect to the in-process server");
    let mut pending: Vec<Pending> = Vec::new();
    let mut sent = 0u32;
    loop {
        let due = start + period * sent;
        let more = period * sent < duration;
        let now = Instant::now();
        if more && now >= due {
            let op = stream.next_op().expect("open-loop streams do not end");
            sent += 1;
            tally.attempted += 1;
            tally.late_us.push((now - due).as_secs_f64() * 1e6);
            match client
                .call(&op.line)
                .map_err(|e| e.to_string())
                .and_then(parse_ack)
            {
                Ok(id) => pending.push(Pending {
                    id,
                    op,
                    due,
                    next_poll: Instant::now(),
                    sleep: POLL_FIRST_SLEEP,
                }),
                Err(e) => tally.fail(e),
            }
            continue;
        }
        if let Some(at) = pending.iter().position(|p| p.next_poll <= now) {
            tally.polls += 1;
            let response = client
                .call(&result_line(pending[at].id))
                .map_err(|e| e.to_string());
            match response.and_then(parse_result) {
                Ok(Some(histogram)) => {
                    let job = pending.remove(at);
                    let latency = job.due.elapsed();
                    tally.ids.push(job.id);
                    tally.answer(&job.op, &programs[job.op.program], &histogram, latency);
                }
                Ok(None) if pending[at].due.elapsed() > OP_TIMEOUT => {
                    tally.fail(format!("job {} timed out", pending.remove(at).id));
                }
                Ok(None) => {
                    let job = &mut pending[at];
                    job.next_poll = Instant::now() + job.sleep;
                    job.sleep = (job.sleep * 2).min(POLL_SLEEP_CAP);
                }
                Err(e) => {
                    pending.remove(at);
                    tally.fail(e);
                }
            }
            continue;
        }
        let next_poll = pending.iter().map(|p| p.next_poll).min();
        let wake = match (more.then_some(due), next_poll) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) | (None, Some(a)) => a,
            (None, None) => break,
        };
        std::thread::sleep(wake.saturating_duration_since(now));
    }
    tally.finished = Some(Instant::now());
    tally
}
