//! The service's state: one plain struct, [`Core`], that every job
//! transition goes through.
//!
//! `Core` holds the job table, the finished-id list, the admission queue,
//! the quota buckets, the service counters and the next job id — and no
//! lock, no atomic and no engine. Each transition is a `&mut self` method
//! given the instant it happens at, so the same code runs behind the
//! service's one `Mutex` (where every instant is read under the lock, so a
//! timeline is stamped in the order its transitions happened) and under the
//! seeded-schedule test below, which drives it with synthetic instants and
//! checks the invariants after every step. The engine calls, the condvar
//! and the metrics belong to the shell, [`Service`](crate::Service): it
//! locks `Core` to admit, pick up, stamp, finish or read, and runs the
//! engine and writes the metrics with the lock released. A finished job is
//! handed out as a [`Finished`] for its metrics and counts as drained only
//! once the shell has written them and called [`Core::settle`].

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use quipper_exec::CancelToken;

use crate::flight::{phases, FlightEvent, FlightTimeline};
use crate::queue::QueueEntry;
use crate::quota::{QuotaPolicy, TenantQuotas};
use crate::service::{
    JobId, JobState, JobStatus, RejectReason, Rejection, ServiceStats, Submission,
};

struct JobRecord {
    submission: Arc<Submission>,
    token: CancelToken,
    state: JobState,
    admitted: Instant,
    /// The flight timeline, the only copy of it, as offsets from `admitted`.
    /// Shared with the reads in flight, so a read copies a pointer under
    /// the lock; a stamp that meets a read in flight copies the events.
    events: Arc<Vec<FlightEvent>>,
}

impl JobRecord {
    fn stamp(&mut self, phase: &'static str, detail: Option<String>, now: Instant) {
        let at = now.duration_since(self.admitted);
        Arc::make_mut(&mut self.events).push(FlightEvent { phase, at, detail });
    }

    /// The job's timeline as of now, in shared handles only.
    fn snapshot(&self, id: JobId) -> Snapshot {
        Snapshot {
            id,
            submission: Arc::clone(&self.submission),
            state: self.state.tag(),
            events: Arc::clone(&self.events),
        }
    }
}

/// A job's flight timeline as read under the lock, to be built into a
/// [`FlightTimeline`] after the lock is released.
pub(crate) struct Snapshot {
    id: JobId,
    submission: Arc<Submission>,
    state: &'static str,
    events: Arc<Vec<FlightEvent>>,
}

impl Snapshot {
    /// The one place a [`FlightTimeline`] is built.
    pub fn timeline(self) -> FlightTimeline {
        FlightTimeline {
            id: self.id,
            tenant: self.submission.tenant.clone(),
            label: self.submission.label.clone(),
            state: self.state.to_string(),
            events: Arc::unwrap_or_clone(self.events),
        }
    }
}

/// What a worker needs to run a job it picked up, outside the lock.
pub(crate) struct Ticket {
    pub id: JobId,
    pub submission: Arc<Submission>,
    pub token: CancelToken,
}

/// What a job's terminal transition leaves for the shell's metrics.
#[must_use = "write its metrics, then settle it"]
pub(crate) struct Finished {
    pub submission: Arc<Submission>,
    pub state: JobState,
    /// Admission to terminal.
    pub latency: Duration,
    /// Admission to pick-up; the whole latency of a job that never left the
    /// queue.
    pub queue_wait: Duration,
}

/// An admitted submission.
pub(crate) struct Admitted {
    pub id: JobId,
    /// The queue depth the job brought the queue to.
    pub depth: usize,
    /// Set when the core was closed: the job was cancelled on arrival.
    pub cancelled: Option<Finished>,
}

/// The service's mutable state. See the [module docs](self).
pub(crate) struct Core {
    jobs: HashMap<JobId, JobRecord>,
    /// Ids of the finished jobs in `jobs`, in finish order, at most
    /// `flight_capacity` of them.
    finished: VecDeque<JobId>,
    flight_capacity: usize,
    queue: BinaryHeap<QueueEntry>,
    queue_capacity: usize,
    closed: bool,
    quotas: TenantQuotas,
    /// The service-level counters; the engine's fields stay zero here.
    stats: ServiceStats,
    /// Finished jobs whose metrics the shell has written.
    settled: u64,
    next_id: JobId,
}

impl Core {
    pub fn new(queue_capacity: usize, quota: QuotaPolicy, flight_capacity: usize) -> Core {
        Core {
            jobs: HashMap::new(),
            finished: VecDeque::new(),
            flight_capacity: flight_capacity.max(1),
            queue: BinaryHeap::new(),
            queue_capacity: queue_capacity.max(1),
            closed: false,
            quotas: TenantQuotas::new(quota),
            stats: ServiceStats::default(),
            settled: 0,
            next_id: 1,
        }
    }

    /// Admits a submission: charged to its tenant's bucket, then queued.
    /// A full queue refunds the charge; the retry-after hint is one notional
    /// 10 ms service interval per queue slot. A closed core charges
    /// nothing and cancels the job on arrival, as closing did to every job
    /// that was queued.
    pub fn submit(&mut self, submission: Submission, now: Instant) -> Result<Admitted, Rejection> {
        self.stats.submitted += 1;
        let cost = self.quotas.policy().cost(submission.shots);
        if !self.closed {
            if let Err(retry_after) = self.quotas.try_acquire(&submission.tenant, cost, now) {
                self.stats.rejected_quota += 1;
                return Err(Rejection {
                    reason: RejectReason::QuotaExhausted,
                    retry_after,
                });
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        if !self.closed && self.queue.len() >= self.queue_capacity {
            // Not admitted after all: uncharge the tenant.
            self.quotas.refund(&submission.tenant, cost);
            self.stats.rejected_queue_full += 1;
            return Err(Rejection {
                reason: RejectReason::QueueFull,
                retry_after: Duration::from_millis(10 * self.queue_capacity as u64),
            });
        }

        self.stats.admitted += 1;
        let deadline = submission.deadline.map(|d| now + d);
        let entry = QueueEntry {
            id,
            priority: submission.priority,
            deadline,
        };
        let record = JobRecord {
            submission: Arc::new(submission),
            token: deadline.map_or_else(CancelToken::new, CancelToken::with_deadline),
            state: JobState::Queued,
            admitted: now,
            events: Arc::default(),
        };
        self.jobs.insert(id, record);
        self.record(id).stamp(phases::ADMIT, None, now);
        if self.closed {
            let cancelled = self.finish(id, JobState::Cancelled, now);
            return Ok(Admitted {
                id,
                depth: 0,
                cancelled: Some(cancelled),
            });
        }
        self.record(id).stamp(phases::QUEUE, None, now);
        self.queue.push(entry);
        Ok(Admitted {
            id,
            depth: self.queue.len(),
            cancelled: None,
        })
    }

    /// Takes the next job off the queue: `Ok` — running, stamped `compile`
    /// — for a worker to run, or `Err` for one whose deadline passed while it
    /// waited, finished `DeadlineExceeded`. `None` when the queue is empty.
    pub fn pick_up(&mut self, now: Instant) -> Option<Result<Ticket, Finished>> {
        let entry = self.queue.pop()?;
        if entry.deadline.is_some_and(|at| at <= now) {
            return Some(Err(self.finish(entry.id, JobState::DeadlineExceeded, now)));
        }
        let record = self.record(entry.id);
        record.state = JobState::Running;
        record.stamp(phases::COMPILE, None, now);
        Some(Ok(Ticket {
            id: entry.id,
            submission: Arc::clone(&record.submission),
            token: record.token.clone(),
        }))
    }

    /// Stamps `phase` on a running job's timeline; a `coalesce` stamp is
    /// also counted in the stats.
    pub fn stamp(&mut self, id: JobId, phase: &'static str, now: Instant) {
        if phase == phases::COALESCE {
            self.stats.coalesced_compiles += 1;
        }
        self.record(id).stamp(phase, None, now);
    }

    /// Moves a live job to its terminal `state` — the one writer of
    /// terminal states — lists it as finished, and forgets the oldest
    /// finished job if that makes one too many. The one eviction point:
    /// only finished jobs are listed, so a queued or running job is never
    /// forgotten.
    pub fn finish(&mut self, id: JobId, state: JobState, now: Instant) -> Finished {
        let counter = match &state {
            JobState::Completed(_) => &mut self.stats.completed,
            JobState::Failed(_) => &mut self.stats.failed,
            JobState::Cancelled => &mut self.stats.cancelled,
            JobState::DeadlineExceeded => &mut self.stats.deadline_misses,
            JobState::Queued | JobState::Running => unreachable!("not a terminal state"),
        };
        *counter += 1;
        let record = self.record(id);
        debug_assert!(!record.state.is_terminal(), "job {id} finished twice");
        let detail = match &state {
            JobState::Failed(err) => Some(err.clone()),
            _ => None,
        };
        record.stamp(state.tag(), detail, now);
        record.state = state.clone();
        let latency = now.duration_since(record.admitted);
        let picked_up = record.events.iter().find(|e| e.phase == phases::COMPILE);
        let finished = Finished {
            submission: Arc::clone(&record.submission),
            state,
            latency,
            queue_wait: picked_up.map_or(latency, |e| e.at),
        };
        if self.finished.len() == self.flight_capacity {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
        self.finished.push_back(id);
        finished
    }

    /// Cancels a job: a queued one leaves the queue and finishes
    /// `Cancelled` at once (returned second); a running one has its token
    /// fired and finishes when its worker sees it. A terminal job is left
    /// as it is. `None` for an unknown id.
    pub fn cancel(&mut self, id: JobId, now: Instant) -> Option<(JobStatus, Option<Finished>)> {
        let record = self.jobs.get(&id)?;
        let finished = match record.state {
            JobState::Queued => {
                self.queue.retain(|entry| entry.id != id);
                Some(self.finish(id, JobState::Cancelled, now))
            }
            JobState::Running => {
                record.token.cancel();
                None
            }
            _ => None,
        };
        Some((self.status(id)?, finished))
    }

    /// Closes the core, in one step: every live job's token fires, the
    /// queued jobs finish `Cancelled` (returned, in dequeue order), and
    /// every later submission is cancelled on arrival. Running jobs finish
    /// when their workers see the token. Idempotent.
    pub fn close(&mut self, now: Instant) -> Vec<Finished> {
        self.closed = true;
        for record in self.jobs.values() {
            if !record.state.is_terminal() {
                record.token.cancel();
            }
        }
        let queued = std::mem::take(&mut self.queue).into_sorted_vec();
        queued
            .iter()
            .rev()
            .map(|entry| self.finish(entry.id, JobState::Cancelled, now))
            .collect()
    }

    /// Whether [`Core::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Counts `n` finished jobs settled: their metrics are written.
    pub fn settle(&mut self, n: u64) {
        self.settled += n;
    }

    /// Admitted jobs not yet settled: queued, running, or finished with
    /// their metrics still being written. `drain` waits for zero.
    pub fn unsettled(&self) -> u64 {
        self.stats.admitted - self.settled
    }

    /// A status snapshot for `id`, or `None` for unknown or evicted ids.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let record = self.jobs.get(&id)?;
        Some(JobStatus {
            id,
            tenant: record.submission.tenant.clone(),
            label: record.submission.label.clone(),
            state: record.state.clone(),
        })
    }

    /// The job's flight timeline as of now.
    pub fn flight(&self, id: JobId) -> Option<Snapshot> {
        Some(self.jobs.get(&id)?.snapshot(id))
    }

    /// The timelines of the most recent `n` finished jobs, newest last.
    pub fn flights(&self, n: usize) -> Vec<Snapshot> {
        let newest = self
            .finished
            .iter()
            .skip(self.finished.len().saturating_sub(n));
        newest.map(|&id| self.jobs[&id].snapshot(id)).collect()
    }

    /// The service-level counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    fn record(&mut self, id: JobId) -> &mut JobRecord {
        self.jobs.get_mut(&id).expect("a live job is in the table")
    }
}

#[cfg(test)]
mod tests {
    //! The seeded-schedule test. Each schedule drives one `Core` through a
    //! random interleaving of what the service's threads do — submissions
    //! from three tenants with tight buckets, pick-ups, coalesce and shots
    //! stamps, runs that end every way a run can, cancels of any id (live,
    //! finished, evicted or never handed out), and a close — with a
    //! synthetic clock, and checks after every step that the core agrees
    //! with what the test saw happen.

    use super::*;
    use std::collections::{BTreeSet, HashSet};

    use quipper::{Circ, Qubit};
    use quipper_circuit::BCircuit;
    use quipper_exec::{Engine, ExecResult, Job};

    impl Core {
        /// Records in the job table, live and finished.
        pub(crate) fn table_len(&self) -> usize {
            self.jobs.len()
        }
    }

    const SCHEDULES: u64 = 10_000;
    const STEPS: usize = 48;
    const TENANTS: [&str; 3] = ["ada", "bob", "cy"];
    const QUEUE_CAPACITY: usize = 3;
    const FLIGHT_CAPACITY: usize = 4;
    /// A job costs 1.1–2 tokens of a 4-token bucket that refills at
    /// 100/s, against a step every 2 ms on average: rejections are common.
    const QUOTA: QuotaPolicy = QuotaPolicy {
        capacity: 4.0,
        refill_per_sec: 100.0,
        cost_per_job: 1.0,
        cost_per_kshot: 100.0,
    };

    /// SplitMix64: each draw a pure function of the schedule's counter.
    fn splitmix64(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(1);
            splitmix64(self.0) % n
        }

        fn pick(&mut self, ids: &[JobId]) -> Option<JobId> {
            (!ids.is_empty()).then(|| ids[self.below(ids.len() as u64) as usize])
        }
    }

    /// Where a job is, as the test saw it go.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Seen {
        Queued,
        Running { shots: bool },
        Terminal(&'static str),
    }

    /// How often each rarer branch was reached, over every schedule.
    #[derive(Debug, Default)]
    struct Reached {
        queue_full: u64,
        quota_exhausted: u64,
        expired_in_queue: u64,
        evicted_cancels: u64,
        closed_submits: u64,
    }

    struct Schedule<'a> {
        core: Core,
        draws: Draws,
        now: Instant,
        seen: HashMap<JobId, Seen>,
        live: BTreeSet<JobId>,
        tickets: HashMap<JobId, Ticket>,
        finish_order: Vec<JobId>,
        /// The test's own count of what it did.
        stats: ServiceStats,
        circuit: &'a Arc<BCircuit>,
        result: &'a Arc<ExecResult>,
        reached: &'a mut Reached,
    }

    impl Schedule<'_> {
        fn step(&mut self) {
            self.now += Duration::from_micros(self.draws.below(4_000));
            // About half the schedules close before their last step.
            match self.draws.below(64) {
                0..=17 => self.submit(),
                18..=29 => self.pick_up(),
                30..=51 => self.advance(),
                52..=62 => self.cancel(),
                _ => self.close(),
            }
            self.check();
        }

        fn ids(&self, filter: impl Fn(Seen) -> bool) -> Vec<JobId> {
            let live = self.live.iter().copied();
            live.filter(|id| filter(self.seen[id])).collect()
        }

        fn submit(&mut self) {
            let tenant = TENANTS[self.draws.below(3) as usize];
            let shots = 1 + self.draws.below(10);
            let mut submission = Submission::new(tenant, Arc::clone(self.circuit))
                .shots(shots)
                .priority(self.draws.below(3) as u8);
            if self.draws.below(3) == 0 {
                submission = submission.deadline(Duration::from_micros(self.draws.below(6_000)));
            }
            let quotas = self.core.quotas.clone();
            let queued = self.core.queue.len();
            self.stats.submitted += 1;
            match self.core.submit(submission, self.now) {
                Ok(admitted) => {
                    self.stats.admitted += 1;
                    assert!(self.seen.insert(admitted.id, Seen::Queued).is_none());
                    self.live.insert(admitted.id);
                    if let Some(cancelled) = admitted.cancelled {
                        assert!(self.core.closed);
                        assert_eq!(self.core.quotas, quotas, "a closed core charged");
                        self.reached.closed_submits += 1;
                        self.terminal(admitted.id, &cancelled);
                    } else {
                        assert_eq!(admitted.depth, queued + 1);
                    }
                }
                Err(rejection) => {
                    assert!(!self.core.closed);
                    if rejection.reason == RejectReason::QuotaExhausted {
                        self.stats.rejected_quota += 1;
                        self.reached.quota_exhausted += 1;
                        return;
                    }
                    self.stats.rejected_queue_full += 1;
                    self.reached.queue_full += 1;
                    assert_eq!(queued, QUEUE_CAPACITY);
                    assert!(rejection.retry_after > Duration::ZERO);
                    // Quota before queue, and the charge refunded.
                    let (mut charged, cost) = (quotas, QUOTA.cost(shots));
                    charged.try_acquire(tenant, cost, self.now).unwrap();
                    charged.refund(tenant, cost);
                    assert_eq!(
                        self.core.quotas, charged,
                        "a queue-full rejection kept the charge"
                    );
                }
            }
        }

        fn pick_up(&mut self) {
            let next = self
                .core
                .queue
                .peek()
                .map(|entry| (entry.id, entry.deadline));
            match self.core.pick_up(self.now) {
                None => assert!(self.ids(|seen| seen == Seen::Queued).is_empty()),
                Some(Ok(ticket)) => {
                    let (id, deadline) = next.unwrap();
                    assert_eq!(ticket.id, id);
                    assert!(deadline.is_none_or(|at| at > self.now));
                    let running = Seen::Running { shots: false };
                    assert_eq!(self.seen.insert(id, running), Some(Seen::Queued));
                    self.tickets.insert(id, ticket);
                }
                Some(Err(expired)) => {
                    let (id, deadline) = next.unwrap();
                    assert!(deadline.is_some_and(|at| at <= self.now));
                    assert!(matches!(expired.state, JobState::DeadlineExceeded));
                    self.reached.expired_in_queue += 1;
                    self.terminal(id, &expired);
                }
            }
        }

        /// Moves a running job on by one worker step.
        fn advance(&mut self) {
            let running = self.ids(|seen| matches!(seen, Seen::Running { .. }));
            let Some(id) = self.draws.pick(&running) else {
                return;
            };
            let Seen::Running { shots } = self.seen[&id] else {
                unreachable!()
            };
            let now = self.now;
            let end = match (shots, self.draws.below(8)) {
                // Its plan came from another job's compile.
                (false, 0) => {
                    self.core.stamp(id, phases::COALESCE, now);
                    self.stats.coalesced_compiles += 1;
                    return;
                }
                (false, _) => {
                    self.core.stamp(id, phases::SHOTS, now);
                    self.seen.insert(id, Seen::Running { shots: true });
                    return;
                }
                (true, 0..=3) => JobState::Completed(Arc::clone(self.result)),
                (true, 4) => JobState::Failed("panicked: a simulator bug".into()),
                (true, 5) => JobState::Failed("shot error".into()),
                (true, 6) => JobState::Cancelled,
                (true, _) => JobState::DeadlineExceeded,
            };
            let finished = self.core.finish(id, end, now);
            self.terminal(id, &finished);
        }

        fn cancel(&mut self) {
            // Any id: live, finished, evicted, refused or not yet handed out.
            let id = 1 + self.draws.below(self.core.next_id);
            let seen = self.seen.get(&id).copied();
            match self.core.cancel(id, self.now) {
                None => {
                    assert!(matches!(seen, None | Some(Seen::Terminal(_))));
                    self.reached.evicted_cancels += u64::from(seen.is_some());
                }
                Some((status, finished)) => match seen.expect("an answer for no job") {
                    Seen::Queued => {
                        assert_eq!(status.state.tag(), "cancelled");
                        self.terminal(id, &finished.expect("a queued job finishes at once"));
                    }
                    Seen::Running { .. } => {
                        assert!(finished.is_none());
                        assert_eq!(status.state.tag(), "running");
                        assert!(self.tickets[&id].token.fired());
                    }
                    Seen::Terminal(tag) => {
                        assert!(finished.is_none());
                        assert_eq!(status.state.tag(), tag);
                    }
                },
            }
        }

        fn close(&mut self) {
            let mut queued = self.core.queue.clone().into_sorted_vec();
            queued.reverse();
            let cancelled = self.core.close(self.now);
            assert_eq!(cancelled.len(), queued.len());
            for (entry, finished) in queued.iter().zip(&cancelled) {
                assert!(matches!(finished.state, JobState::Cancelled));
                self.terminal(entry.id, finished);
            }
            assert!(self.tickets.values().all(|ticket| ticket.token.fired()));
            assert!(self.core.pick_up(self.now).is_none());
        }

        /// Books a terminal transition the core reported for `id`.
        fn terminal(&mut self, id: JobId, finished: &Finished) {
            let tag = finished.state.tag();
            let before = self.seen.insert(id, Seen::Terminal(tag));
            assert!(
                matches!(before, Some(Seen::Queued | Seen::Running { .. })),
                "job {id} went {before:?} → {tag}"
            );
            match finished.state {
                JobState::Completed(_) => self.stats.completed += 1,
                JobState::Failed(_) => self.stats.failed += 1,
                JobState::Cancelled => self.stats.cancelled += 1,
                _ => self.stats.deadline_misses += 1,
            }
            // The shell writes the metrics, then settles.
            self.core.settle(1);
            self.live.remove(&id);
            self.tickets.remove(&id);
            self.finish_order.push(id);
        }

        /// The invariants, after every step.
        fn check(&self) {
            let core = &self.core;
            assert_eq!(core.stats, self.stats, "the stats are not a recount");
            assert_eq!(core.unsettled(), self.live.len() as u64);

            // The queue holds the queued jobs, each once: none terminal.
            let mut queue: Vec<JobId> = core.queue.iter().map(|entry| entry.id).collect();
            queue.sort_unstable();
            assert_eq!(queue, self.ids(|seen| seen == Seen::Queued));

            // Live jobs are never evicted; the table holds them and the
            // newest `FLIGHT_CAPACITY` finished ones, listed in finish order.
            let listed = self.finish_order.len().saturating_sub(FLIGHT_CAPACITY);
            assert!(core.finished.iter().eq(&self.finish_order[listed..]));
            assert!(self.live.iter().all(|id| core.jobs.contains_key(id)));
            assert_eq!(core.jobs.len(), self.live.len() + core.finished.len());

            for (&id, record) in &core.jobs {
                match self.seen[&id] {
                    Seen::Queued => assert!(matches!(record.state, JobState::Queued)),
                    Seen::Running { shots } => {
                        assert!(matches!(record.state, JobState::Running));
                        let stamped = record.events.iter().any(|e| e.phase == phases::SHOTS);
                        assert_eq!(stamped, shots, "job {id}: {:?}", record.events);
                    }
                    Seen::Terminal(tag) => assert_eq!(record.state.tag(), tag),
                }
                self.check_timeline(id, record);
            }
        }

        /// Monotone, `admit` first, `queue` before `compile`, at most one
        /// `shots` stamp, and the terminal stamp last and only there.
        fn check_timeline(&self, id: JobId, record: &JobRecord) {
            let events = &record.events;
            assert_eq!(events[0].phase, phases::ADMIT);
            assert!(
                events.windows(2).all(|pair| pair[0].at <= pair[1].at),
                "job {id}: {events:?}"
            );
            assert!(events[events.len() - 1].at <= self.now.duration_since(record.admitted));
            let first = |phase| events.iter().position(|event| event.phase == phase);
            if let Some(compile) = first(phases::COMPILE) {
                assert!(
                    first(phases::QUEUE).is_some_and(|queue| queue < compile),
                    "job {id}: {events:?}"
                );
            }
            let shots = events.iter().filter(|event| event.phase == phases::SHOTS);
            assert!(shots.count() <= 1, "job {id}: {events:?}");
            let tag = record.state.tag();
            let terminal = events.iter().filter(|event| event.phase == tag).count();
            match record.state.is_terminal() {
                true => assert!(terminal == 1 && events[events.len() - 1].phase == tag),
                false => assert!(events.iter().all(|event| !is_terminal_tag(event.phase))),
            }
        }

        /// Closes the core, stops every running job, and checks that every
        /// admitted job reached exactly one terminal state.
        fn wind_down(&mut self) {
            self.close();
            for id in self.ids(|seen| matches!(seen, Seen::Running { .. })) {
                let finished = self.core.finish(id, JobState::Cancelled, self.now);
                self.terminal(id, &finished);
            }
            self.check();
            assert!(self.live.is_empty());
            assert_eq!(self.finish_order.len() as u64, self.stats.admitted);
            assert_eq!(
                self.finish_order.iter().collect::<HashSet<_>>().len(),
                self.finish_order.len()
            );
        }
    }

    fn is_terminal_tag(phase: &str) -> bool {
        ["completed", "failed", "cancelled", "deadline_exceeded"].contains(&phase)
    }

    #[test]
    fn seeded_schedules_keep_every_invariant() {
        let circuit = Arc::new(Circ::build(&vec![false; 2], |c, qs: Vec<Qubit>| {
            qs.into_iter().map(|q| c.measure(q)).collect::<Vec<_>>()
        }));
        let job = Job::new(&circuit).inputs(&[false; 2]);
        let result = Arc::new(Engine::new().run(&job).unwrap());
        let mut reached = Reached::default();
        let epoch = Instant::now();
        for seed in 0..SCHEDULES {
            let mut schedule = Schedule {
                core: Core::new(QUEUE_CAPACITY, QUOTA, FLIGHT_CAPACITY),
                draws: Draws(seed << 32),
                now: epoch,
                seen: HashMap::new(),
                live: BTreeSet::new(),
                tickets: HashMap::new(),
                finish_order: Vec::new(),
                stats: ServiceStats::default(),
                circuit: &circuit,
                result: &result,
                reached: &mut reached,
            };
            for _ in 0..STEPS {
                schedule.step();
            }
            schedule.wind_down();
        }
        // Every branch a schedule can take was taken.
        let Reached {
            queue_full,
            quota_exhausted,
            expired_in_queue,
            evicted_cancels,
            closed_submits,
        } = reached;
        let counts = [
            queue_full,
            quota_exhausted,
            expired_in_queue,
            evicted_cancels,
            closed_submits,
        ];
        assert!(counts.iter().all(|&n| n > 0), "{reached:?}");
    }
}
