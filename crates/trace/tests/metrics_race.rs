//! Concurrent metrics-registry writers racing a snapshot.
//!
//! The registry's hot path is relaxed atomics behind `Arc` handles, and
//! `Metrics::snapshot` reads while writers are mid-flight. The contract
//! under race:
//!
//! * **Valid prefix** — every mid-flight snapshot total (counter value,
//!   histogram count/sum, per-bucket count) is ≤ the corresponding final
//!   total. A torn 64-bit read or a lost update would violate this.
//! * **No lost updates** — after all writers join, the final snapshot
//!   equals the totals computed from the schedule exactly, and histogram
//!   bucket counts sum to the histogram count.

use proptest::prelude::*;
use quipper_trace::{names, Metrics};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const COUNTER: &str = names::SERVE_ADMIT;
const HIST: &str = names::SHOT_LATENCY_US;

fn check_prefix(snap: &quipper_trace::MetricsSnapshot, fin: &quipper_trace::MetricsSnapshot) {
    for (key, v) in &snap.counters {
        let f = fin.counters.get(key).copied().unwrap_or(0);
        assert!(*v <= f, "counter {key:?}: snapshot {v} > final {f}");
    }
    for (key, h) in &snap.histograms {
        let f = &fin.histograms[key];
        assert!(h.count <= f.count, "histogram {key:?} count");
        assert!(h.sum <= f.sum, "histogram {key:?} sum");
        for (le, n) in &h.buckets {
            let fb = f
                .buckets
                .iter()
                .find(|(fle, _)| fle == le)
                .map_or(0, |(_, n)| *n);
            assert!(*n <= fb, "histogram {key:?} bucket le={le}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn snapshot_totals_are_a_valid_prefix_of_final_totals(
        per_writer in proptest::collection::vec(
            proptest::collection::vec((0u64..5_000, 1u64..4), 1..200),
            2..4,
        ),
    ) {
        let metrics = Arc::new(Metrics::new());
        let done = Arc::new(AtomicBool::new(false));

        // Snapshot thread: hammer snapshots while writers run, keep them
        // all for the prefix check.
        let reader = {
            let metrics = Arc::clone(&metrics);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut snaps = Vec::new();
                while !done.load(Ordering::Acquire) {
                    snaps.push(metrics.snapshot());
                }
                snaps
            })
        };

        let mut expected_count = 0u64;
        let mut expected_sum = 0u64;
        let mut expected_adds = 0u64;
        for ops in &per_writer {
            for (v, n) in ops {
                expected_count += 1;
                expected_sum += v;
                expected_adds += n;
            }
        }

        let writers: Vec<_> = per_writer
            .into_iter()
            .enumerate()
            .map(|(w, ops)| {
                let metrics = Arc::clone(&metrics);
                thread::spawn(move || {
                    let tenant = if w % 2 == 0 { "even" } else { "odd" };
                    for (v, n) in ops {
                        metrics.add(COUNTER, n);
                        metrics.observe(HIST, v);
                        metrics.add_labeled(COUNTER, &[("tenant", tenant)], n);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let snaps = reader.join().unwrap();

        let fin = metrics.snapshot();

        // No lost updates: the final snapshot equals the schedule totals.
        prop_assert_eq!(fin.counters[&(COUNTER, Vec::new())], expected_adds);
        let h = &fin.histograms[&(HIST, Vec::new())];
        prop_assert_eq!(h.count, expected_count);
        prop_assert_eq!(h.sum, expected_sum);
        prop_assert_eq!(h.buckets.iter().map(|(_, n)| n).sum::<u64>(), h.count);
        let labeled_total: u64 = fin
            .counters
            .iter()
            .filter(|((_, labels), _)| !labels.is_empty())
            .map(|(_, v)| v)
            .sum();
        prop_assert_eq!(labeled_total, expected_adds);

        // Every mid-flight snapshot is a valid prefix of the final one.
        for snap in &snaps {
            check_prefix(snap, &fin);
        }
        // And the snapshot sequence itself is monotone per instrument.
        for pair in snaps.windows(2) {
            check_prefix(&pair[0], &pair[1]);
        }
    }
}
