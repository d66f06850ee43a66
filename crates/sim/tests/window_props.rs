//! Property tests of the blocked window executor, which is how every
//! planned segment of a fused stream runs.
//!
//! Two contracts, mirroring `kernel_props`:
//!
//! * **Unmerged windows are bit-identical.** [`segment_circuit`] plans
//!   window segments without merging any matrices, so the executor performs
//!   gate-for-gate the same arithmetic as the scan oracle — sequential and
//!   threaded results must compare `==` on canonical amplitudes (uncontrolled
//!   swaps are relabeled, not executed). The vector bodies reproduce scalar
//!   `Complex` products exactly (no FMA), so this holds on AVX2 hosts and on
//!   CI's forced-scalar leg alike. The block size is *part of the random
//!   input*: with six qubits, blocks of 1 to 16 amplitudes put more slots
//!   above the block than the window's fixed budget of four high bits, so
//!   strip pairing, per-strip phases, budget overflow, the standalone
//!   fallback for two-slot gates above the block and single-gate windows
//!   all fire — `the_generator_reaches_every_executor_path` counts them.
//! * **The production stream** ([`fuse_circuit`]: 1q merging, windows,
//!   relabeling) rounds differently through matrix products, so it is held
//!   to 1e-9 closeness on canonical amplitudes and exact outputs on
//!   measured circuits.

mod common;

use proptest::prelude::*;
use quipper_circuit::{Circuit, Gate, GateName};
use quipper_sim::reference::run_flat_reference;
use quipper_sim::statevec::run_fused;
use quipper_sim::{fuse_circuit, segment_circuit, FusedCircuit, FusedOp, KernelStats};

use common::{assert_close, assert_identical, circuit, config, exact, flat_of, op, Ending, QUBITS};

/// The oracle against the unmerged windowed stream, `==`.
fn check_unmerged(flat: &Circuit, bits: u32, threads: usize, seed: u64) -> KernelStats {
    let oracle = run_flat_reference(flat, &[], seed).unwrap();
    let windowed = run_fused(&segment_circuit(flat), &[], seed, config(bits, threads)).unwrap();
    assert_identical(&oracle.state, &windowed.state, "unmerged windows");
    windowed.state.kernel_stats()
}

/// The oracle against the production stream, to 1e-9.
fn check_merged(flat: &Circuit, bits: u32, seed: u64) -> KernelStats {
    let oracle = run_flat_reference(flat, &[], seed).unwrap();
    let full = run_fused(&fuse_circuit(flat), &[], seed, config(bits, 1)).unwrap();
    assert_close(&oracle.state, &full.state, "production stream");
    full.state.kernel_stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The blocked executor over unmerged segments is bit-identical to the
    /// scan, for every block size from "everything is a high gate" up.
    #[test]
    fn windowed_execution_is_bit_identical_to_scan(
        ops in proptest::collection::vec(op(), 1..40),
        bits in 0u32..5,
    ) {
        let flat = flat_of(&circuit(&exact(&ops), Ending::Quantum));
        check_unmerged(&flat, bits, 1, 7);
    }

    /// Threading chunks on whole-tile boundaries, so the threaded windowed
    /// path is bit-identical as well.
    #[test]
    fn threaded_windowed_execution_is_bit_identical_to_scan(
        ops in proptest::collection::vec(op(), 1..40),
        bits in 0u32..5,
    ) {
        let flat = flat_of(&circuit(&exact(&ops), Ending::Quantum));
        check_unmerged(&flat, bits, 4, 13);
    }

    /// The production stream agrees with the oracle up to matrix-product
    /// rounding on canonical amplitudes.
    #[test]
    fn full_default_path_matches_reference_amplitudes(
        ops in proptest::collection::vec(op(), 1..40),
        bits in 0u32..5,
    ) {
        let flat = flat_of(&circuit(&ops, Ending::Quantum));
        check_merged(&flat, bits, 17);
    }

    /// On measured circuits the production stream reproduces the oracle's
    /// outputs exactly, seed for seed: windows flush at measurements and
    /// the surviving rounding noise is far below sampling resolution.
    #[test]
    fn full_default_path_histograms_match_reference(
        ops in proptest::collection::vec(op(), 1..30),
        bits in 0u32..5,
    ) {
        let flat = flat_of(&circuit(&ops, Ending::Measured));
        let fused = fuse_circuit(&flat);
        for seed in 0..20u64 {
            let oracle = run_flat_reference(&flat, &[], seed).unwrap();
            let full = run_fused(&fused, &[], seed, config(bits, 1)).unwrap();
            prop_assert_eq!(
                oracle.classical_outputs(),
                full.classical_outputs(),
                "outputs diverge at seed {}",
                seed
            );
        }
    }
}

/// Unitary ops of the stream that run outside every segment, one standalone
/// pass each (the generator's controls are all quantum, so none is skipped;
/// uncontrolled swaps relabel and dispatch nothing).
fn unitaries_outside_segments(fused: &FusedCircuit) -> u64 {
    let in_segment = |i: usize| fused.segments.iter().any(|s| (s.start..s.end).contains(&i));
    let dispatches = |op: &FusedOp| match op {
        FusedOp::Gate(Gate::QGate {
            name: GateName::Swap,
            controls,
            ..
        }) => !controls.is_empty(),
        FusedOp::Gate(g) => matches!(
            g,
            Gate::QGate { .. } | Gate::QRot { .. } | Gate::GPhase { .. }
        ),
        _ => true,
    };
    let outside = fused.ops.iter().enumerate();
    outside
        .filter(|&(i, op)| !in_segment(i) && dispatches(op))
        .count() as u64
}

/// The knobs that used to select executor paths are gone; this counts that
/// the one executor's own decisions still all occur under the generator
/// above, so a change that loses a path fails here instead of passing
/// vacuously. Written as the loop `proptest!` expands to.
///
/// What a run took is read off [`KernelStats`] and the stream's shape. Every
/// other case has its two-slot gates (CSwap, W) taken out, so that what is
/// left to explain a count is one cause:
///
/// * a stream that ends up as more multi-gate windows than it has segments
///   was flushed mid-segment — by **budget overflow** when it has no
///   two-slot gate, by the **two-slot fallback** when the block leaves at
///   most four slots above it (seven slots with an ancilla live, so
///   `bits ≥ 3`) and overflow is impossible;
/// * dispatches that were neither windowed nor outside every segment ran
///   standalone from inside one: without two-slot gates, each is a
///   **single-gate window**;
/// * **relabels** and **threaded** dispatches are counted as such.
#[test]
fn the_generator_reaches_every_executor_path() {
    let mut rng = proptest::test_runner::TestRng::deterministic("window_executor_paths");
    let case = (proptest::collection::vec(op(), 1..40), 0u32..5);
    let (mut overflow, mut fallback, mut single) = (0, 0, 0);
    let mut total = KernelStats::default();
    for i in 0..2048 {
        let (ops, bits) = case.generate(&mut rng);
        let mut ops = exact(&ops);
        let two_slot = i % 2 == 1;
        if !two_slot {
            ops.retain(|op| !op.is_two_slot());
        }
        let flat = flat_of(&circuit(&ops, Ending::Quantum));
        let stats = check_unmerged(&flat, bits, if i % 4 < 2 { 1 } else { 4 }, 23);
        total.merge(&stats);
        total.merge(&check_merged(&flat, bits, 23));

        let fused = segment_circuit(&flat);
        let split = stats.windows > fused.segments.len() as u64;
        let standalone_in_segments = (stats.total() - stats.windowed)
            .checked_sub(unitaries_outside_segments(&fused))
            .expect("every unitary outside a segment dispatches once");
        if !two_slot {
            overflow += u32::from(split);
            single += u32::from(standalone_in_segments > 0);
        } else if QUBITS as u32 + 1 - bits <= 4 {
            fallback += u32::from(split);
        }
    }
    // Thresholds are about half of what the generator reaches today
    // (86, 190, 23; 4030, 2169, 9670).
    assert!(
        overflow >= 40,
        "streams flushed by budget overflow: {overflow}"
    );
    assert!(
        fallback >= 90,
        "streams flushed by a two-slot gate above the block: {fallback}"
    );
    assert!(single >= 10, "streams with a single-gate window: {single}");
    assert!(
        total.relabeled >= 2000,
        "relabeled swaps: {}",
        total.relabeled
    );
    assert!(
        total.threaded >= 1000,
        "threaded dispatches: {}",
        total.threaded
    );
    assert!(
        total.windows >= 4800,
        "multi-gate windows: {}",
        total.windows
    );
}
