//! Flight log: always-on capture of per-job event timelines.
//!
//! Every admitted job carries a timeline of [`FlightEvent`]s, one per
//! lifecycle phase (admit → queue → compile → shots → terminal, plus
//! `coalesce` after a wait), each an offset from the job's admission. The events live in the job's record in
//! [`Core`](crate::state::Core) and nowhere else:
//! [`Service::flight`](crate::Service::flight) and
//! [`Service::flights`](crate::Service::flights) read a [`FlightTimeline`]
//! out of it on demand, and the log goes when the service forgets the job
//! ([`ServiceConfig::flight_capacity`](crate::ServiceConfig::flight_capacity)
//! bounds how many finished jobs it remembers). The dump turns "job 4132 was
//! slow" into an answerable question: the timeline shows where the time
//! went, phase by phase.

use std::time::Duration;

use crate::service::JobId;

/// Lifecycle phase tags stamped into a job's flight log. Kept as constants so
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
    /// Executing shots.
    pub const SHOTS: &str = "shots";
}

/// One stamped event in a job's timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Phase tag (see [`phases`]; terminal events use the job state's tag).
    pub phase: &'static str,
    /// Offset from the job's admission.
    pub at: Duration,
    /// Optional human-readable annotation (a failed job's error text).
    pub detail: Option<String>,
}

/// A finished (or in-flight) job's timeline, read from its flight log.
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
    fn spans_run_from_each_offset_to_the_next() {
        let event = |phase, us, detail: Option<&str>| FlightEvent {
            phase,
            at: Duration::from_micros(us),
            detail: detail.map(String::from),
        };
        let events = vec![
            event(phases::ADMIT, 0, None),
            event(phases::QUEUE, 3, None),
            event(phases::COMPILE, 40, None),
            event(phases::SHOTS, 45, None),
            event("failed", 900, Some("panicked: a simulator bug")),
        ];
        let tl = FlightTimeline {
            id: 1,
            tenant: "t".into(),
            label: String::new(),
            state: "failed".into(),
            events,
        };
        let spans = tl.spans();
        assert_eq!(spans.len(), 5);
        // Each span runs to the next offset.
        for pair in spans.windows(2) {
            assert_eq!(pair[0].1 + pair[0].2, pair[1].1);
        }
        assert_eq!(spans[2].2, Duration::from_micros(5));
        assert_eq!(spans[4].3, Some("panicked: a simulator bug"));
        assert_eq!(spans.last().unwrap().2, Duration::ZERO);
    }
}
