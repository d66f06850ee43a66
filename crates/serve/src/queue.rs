//! The admission queue's order; the queue is a `BinaryHeap<QueueEntry>` in
//! [`Core`](crate::state::Core).
//!
//! Jobs are dequeued highest priority first; ties run earliest deadline
//! first (no deadline sorts last), then FIFO by admission order, which is
//! id order. The queue is *bounded*: a submission that finds it full is
//! refused synchronously with a retry-after hint, which is how the service
//! applies backpressure at the door instead of letting latency balloon
//! inside.

use std::cmp::Ordering as CmpOrdering;
use std::time::Instant;

use crate::service::JobId;

/// One queued job, ordered for the scheduler.
#[derive(Clone, Debug)]
pub(crate) struct QueueEntry {
    /// The job's service-wide id; ids are handed out in admission order.
    pub id: JobId,
    /// Scheduling priority; higher runs first.
    pub priority: u8,
    /// Absolute deadline, if the submission carried one.
    pub deadline: Option<Instant>,
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
            .then_with(|| other.id.cmp(&self.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;
    use std::time::Duration;

    #[test]
    fn orders_by_priority_then_deadline_then_fifo() {
        let base = Instant::now();
        let entry = |id, priority, deadline_ms: Option<u64>| QueueEntry {
            id,
            priority,
            deadline: deadline_ms.map(|ms| base + Duration::from_millis(ms)),
        };
        let mut heap = BinaryHeap::from([
            entry(1, 0, None),
            entry(2, 5, Some(500)),
            entry(3, 5, Some(100)),
            entry(4, 5, None),
            entry(5, 0, None),
        ]);
        let order: Vec<JobId> = std::iter::from_fn(|| heap.pop().map(|e| e.id)).collect();
        // Priority 5 first (deadline 100ms before 500ms before none), then
        // priority 0 in FIFO order.
        assert_eq!(order, vec![3, 2, 4, 1, 5]);
    }
}
