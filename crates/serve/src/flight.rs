//! Flight log: always-on capture of per-job event timelines.
//!
//! Every admitted job carries a [`FlightLog`] that stamps each lifecycle
//! phase (admit → queue → compile → shots → terminal, plus `coalesce` after
//! a wait and one stamp per retry) against the job's admission instant. The
//! log lives in the job's record in the service's job table and nowhere
//! else: [`Service::flight`](crate::Service::flight) and
//! [`Service::flights`](crate::Service::flights) read a [`FlightTimeline`]
//! out of it on demand, and the log goes when the service forgets the job
//! ([`ServiceConfig::flight_capacity`](crate::ServiceConfig::flight_capacity)
//! bounds how many finished jobs it remembers). The dump turns "job 4132 was
//! slow" into an answerable question: the timeline shows where the time
//! went, phase by phase.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::service::JobId;

/// Lifecycle phase tags stamped into a [`FlightLog`]. Kept as constants so
/// tests and the wire protocol agree on spelling.
pub mod phases {
    /// Admission decision made; the timeline's epoch.
    pub const ADMIT: &str = "admit";
    /// Waiting in the admission queue.
    pub const QUEUE: &str = "queue";
    /// A worker picked the job up and asked the engine for its plan: a
    /// cache hit, a compile, or a wait on another job's compile.
    pub const COMPILE: &str = "compile";
    /// The plan came from a concurrent identical job's compile; stamped
    /// when the wait for it ended.
    pub const COALESCE: &str = "coalesce";
    /// Executing shots (one stamp per attempt).
    pub const SHOTS: &str = "shots";
    /// Backing off before a retry attempt.
    pub const RETRY: &str = "retry";
}

/// One stamped event in a job's timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Phase tag (see [`phases`]; terminal events use the job state's tag).
    pub phase: &'static str,
    /// Offset from the job's admission.
    pub at: Duration,
    /// Optional human-readable annotation (attempt number, error text).
    pub detail: Option<String>,
}

/// A job's per-lifecycle event log, stamped as the job moves through the
/// service. Thread-safe: admission, workers, and finalization stamp from
/// different threads.
#[derive(Debug)]
pub struct FlightLog {
    epoch: Instant,
    events: Mutex<Vec<FlightEvent>>,
}

impl Default for FlightLog {
    fn default() -> Self {
        FlightLog::new()
    }
}

impl FlightLog {
    /// A fresh log whose epoch is now, pre-stamped with the `admit` phase.
    pub fn new() -> FlightLog {
        let log = FlightLog {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        };
        log.stamp(phases::ADMIT, None);
        log
    }

    /// Record `phase` at the current offset.
    pub fn stamp(&self, phase: &'static str, detail: Option<String>) {
        self.events.lock().unwrap().push(FlightEvent {
            phase,
            at: self.epoch.elapsed(),
            detail,
        });
    }

    /// Time since admission.
    pub fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Offset of the first stamp of `phase`, if it happened.
    pub fn first_at(&self, phase: &str) -> Option<Duration> {
        self.events
            .lock()
            .unwrap()
            .iter()
            .find(|e| e.phase == phase)
            .map(|e| e.at)
    }

    /// Snapshot the events stamped so far (in stamp order).
    pub fn events(&self) -> Vec<FlightEvent> {
        self.events.lock().unwrap().clone()
    }
}

/// A finished (or in-flight) job's timeline, read from its [`FlightLog`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightTimeline {
    pub id: JobId,
    pub tenant: String,
    pub label: String,
    /// Terminal state tag, or the current state for live dumps.
    pub state: String,
    /// Stamped events in order. Spans are derived: each event lasts until
    /// the next one's offset (see [`FlightTimeline::spans`]).
    pub events: Vec<FlightEvent>,
}

impl FlightTimeline {
    /// `(phase, at, duration, detail)` rows: each event's duration runs to
    /// the next event's offset; the last event gets zero.
    pub fn spans(&self) -> Vec<(&'static str, Duration, Duration, Option<&str>)> {
        self.events
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let end = self.events.get(i + 1).map_or(e.at, |n| n.at);
                (e.phase, e.at, end.saturating_sub(e.at), e.detail.as_deref())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_stamps_admit_and_derives_spans() {
        let log = FlightLog::new();
        log.stamp(phases::QUEUE, None);
        log.stamp(phases::COMPILE, None);
        log.stamp(phases::SHOTS, Some("attempt 1".into()));
        log.stamp("completed", None);
        let events = log.events();
        assert_eq!(events[0].phase, phases::ADMIT);
        let tl = FlightTimeline {
            id: 1,
            tenant: "t".into(),
            label: String::new(),
            state: "completed".into(),
            events,
        };
        let spans = tl.spans();
        assert_eq!(spans.len(), 5);
        // Offsets are monotone and each span runs to the next offset.
        for pair in spans.windows(2) {
            assert!(pair[1].1 >= pair[0].1);
            assert_eq!(pair[0].1 + pair[0].2, pair[1].1);
        }
        assert_eq!(spans[3].3, Some("attempt 1"));
        assert_eq!(spans.last().unwrap().2, Duration::ZERO);
    }
}
