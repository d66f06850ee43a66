//! Flight recorder: always-on, bounded capture of per-job event timelines.
//!
//! Every admitted job carries a [`FlightLog`] that stamps each lifecycle
//! phase (admit → queue → compile → shots → terminal, plus `coalesce` after
//! a wait and one stamp per retry) against the job's admission instant. When
//! the job reaches a terminal state the finished timeline is pushed into the
//! service's [`FlightRecorder`] — a fixed-capacity ring, so the recorder's
//! memory is bounded no matter how many jobs flow through, and the service
//! forgets a finished job when the ring forgets its timeline. The dump turns
//! "job 4132 was slow" into an answerable question: the timeline shows
//! where the time went, phase by phase.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::service::JobId;

/// Lifecycle phase tags used by the recorder. Kept as constants so tests
/// and the wire protocol agree on spelling.
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
#[derive(Clone, Debug)]
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

/// A finished (or in-flight) job timeline, as captured by the recorder.
#[derive(Clone, Debug)]
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

/// Fixed-capacity ring of recently finished job timelines.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<Arc<FlightTimeline>>>,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` timelines (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Append a finished timeline; returns the id of the oldest one when
    /// it had to go to make room, so the caller can forget that job too.
    pub fn push(&self, timeline: FlightTimeline) -> Option<JobId> {
        let mut ring = self.ring.lock().unwrap();
        let evicted = if ring.len() == self.capacity {
            ring.pop_front().map(|oldest| oldest.id)
        } else {
            None
        };
        ring.push_back(Arc::new(timeline));
        evicted
    }

    /// The most recent `n` timelines, newest last.
    pub fn recent(&self, n: usize) -> Vec<Arc<FlightTimeline>> {
        let ring = self.ring.lock().unwrap();
        ring.iter()
            .skip(ring.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// Timelines currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(id: JobId) -> FlightTimeline {
        FlightTimeline {
            id,
            tenant: "t".into(),
            label: String::new(),
            state: "completed".into(),
            events: Vec::new(),
        }
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let rec = FlightRecorder::new(3);
        let evicted: Vec<_> = (1..=5).map(|id| rec.push(timeline(id))).collect();
        assert_eq!(evicted, vec![None, None, None, Some(1), Some(2)]);
        assert_eq!(rec.len(), 3);
        let ids: Vec<_> = rec.recent(10).iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![3, 4, 5]);
        assert_eq!(rec.recent(2).len(), 2);
    }

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
