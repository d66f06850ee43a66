//! The bounded, priority- and deadline-ordered admission queue.
//!
//! Jobs are dequeued highest priority first; ties run earliest deadline
//! first (no deadline sorts last), then FIFO by admission order. The queue
//! is *bounded*: pushing into a full queue fails synchronously with a
//! retry-after hint, which is how the service applies backpressure at the
//! door instead of letting latency balloon inside.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One admitted job, ordered for the scheduler.
#[derive(Clone, Debug)]
pub struct QueueEntry {
    /// The job's service-wide id.
    pub id: u64,
    /// Scheduling priority; higher runs first.
    pub priority: u8,
    /// Absolute deadline, if the submission carried one.
    pub deadline: Option<Instant>,
    /// Admission sequence number (FIFO tiebreak).
    pub seq: u64,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    // BinaryHeap is a max-heap: "greater" means "dequeued sooner".
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.priority
            .cmp(&other.priority)
            // Earlier deadline wins; None (no deadline) sorts after any Some.
            .then_with(|| match (self.deadline, other.deadline) {
                (Some(a), Some(b)) => b.cmp(&a),
                (Some(_), None) => CmpOrdering::Greater,
                (None, Some(_)) => CmpOrdering::Less,
                (None, None) => CmpOrdering::Equal,
            })
            // FIFO: the older admission wins.
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct State {
    heap: BinaryHeap<QueueEntry>,
    closed: bool,
}

/// A bounded blocking priority queue.
pub struct AdmissionQueue {
    capacity: usize,
    state: Mutex<State>,
    available: Condvar,
}

impl AdmissionQueue {
    /// An empty queue holding at most `capacity` entries.
    pub fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                heap: BinaryHeap::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The queue's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits an entry and returns the depth it brought the queue to, or —
    /// when full — returns a retry-after hint scaled to the backlog (one
    /// notional service interval per queued entry ahead of the caller).
    pub fn push(&self, entry: QueueEntry) -> Result<usize, Duration> {
        let mut state = self.state.lock().unwrap();
        if state.heap.len() >= self.capacity {
            return Err(Duration::from_millis(10 * self.capacity as u64));
        }
        state.heap.push(entry);
        let depth = state.heap.len();
        drop(state);
        self.available.notify_one();
        Ok(depth)
    }

    /// Blocks until an entry is available or the queue is closed *and*
    /// drained; `None` means "no more work ever" (worker exit).
    pub fn pop(&self) -> Option<QueueEntry> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(entry) = state.heap.pop() {
                return Some(entry);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap();
        }
    }

    /// Closes the queue: pending entries are still handed out, then every
    /// (current and future) `pop` returns `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, priority: u8, deadline_ms: Option<u64>, seq: u64) -> QueueEntry {
        let base = Instant::now();
        QueueEntry {
            id,
            priority,
            deadline: deadline_ms.map(|ms| base + Duration::from_millis(ms)),
            seq,
        }
    }

    fn queue(capacity: usize) -> AdmissionQueue {
        AdmissionQueue::new(capacity)
    }

    #[test]
    fn orders_by_priority_then_deadline_then_fifo() {
        let q = queue(16);
        q.push(entry(1, 0, None, 1)).unwrap();
        q.push(entry(2, 5, Some(500), 2)).unwrap();
        q.push(entry(3, 5, Some(100), 3)).unwrap();
        q.push(entry(4, 5, None, 4)).unwrap();
        q.push(entry(5, 0, None, 5)).unwrap();
        let order: Vec<u64> = (0..5).map(|_| q.pop().unwrap().id).collect();
        // Priority 5 first (deadline 100ms before 500ms before none), then
        // priority 0 in FIFO order.
        assert_eq!(order, vec![3, 2, 4, 1, 5]);
    }

    #[test]
    fn rejects_when_full_with_retry_hint() {
        let q = queue(2);
        q.push(entry(1, 0, None, 1)).unwrap();
        assert_eq!(q.push(entry(2, 0, None, 2)), Ok(2));
        let hint = q.push(entry(3, 0, None, 3)).unwrap_err();
        assert!(hint > Duration::ZERO);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q = queue(4);
        q.push(entry(1, 0, None, 1)).unwrap();
        q.close();
        assert_eq!(q.pop().unwrap().id, 1);
        assert!(q.pop().is_none());
    }
}
