//! Property tests of the standalone executor: every gate resolved and
//! applied in a full-state pass of its own, which is how
//! [`StateVec::apply`](quipper_sim::StateVec::apply), the dynamic lifter and
//! every op outside a window segment run.
//!
//! The stream under test is the circuit's own gates with *no* window
//! segments, so nothing is buffered. Two contracts:
//!
//! * **Unmerged, sequential and threaded**: the kernels perform the same
//!   floating-point operations per pair as the scan oracle, so canonical
//!   amplitudes compare *equal* (`==`). The vector bodies run where the host
//!   has AVX2 and the portable ones where it does not (or where CI's scalar
//!   leg forces them); both are held to the same `==`.
//! * **Merged**: the production stream replaces gate runs with matrix
//!   products, which round differently, so on measured circuits it is held
//!   to exact outputs, seed for seed (`window_props` holds its amplitudes
//!   to 1e-9).

mod common;

use proptest::prelude::*;
use quipper_sim::reference::run_flat_reference;
use quipper_sim::statevec::run_fused;
use quipper_sim::{fuse_circuit, segment_circuit, FusedCircuit};

use common::{assert_identical, circuit, config, exact, flat_of, op, Ending};

/// The circuit's gates as a stream that never windows: every op goes to
/// the standalone executor.
fn unwindowed(flat: &quipper_circuit::Circuit) -> FusedCircuit {
    FusedCircuit {
        segments: Vec::new(),
        ..segment_circuit(flat)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sequential kernels are bit-identical to the full-scan oracle: same
    /// pairs, same arithmetic, different iteration scheme.
    #[test]
    fn sequential_kernels_are_bit_identical_to_scan(
        ops in proptest::collection::vec(op(), 1..40)
    ) {
        let flat = flat_of(&circuit(&exact(&ops), Ending::Quantum));
        let oracle = run_flat_reference(&flat, &[], 7).unwrap();
        let kernels = run_fused(&unwindowed(&flat), &[], 7, config(10, 1)).unwrap();
        prop_assert_eq!(kernels.state.kernel_stats().windows, 0);
        assert_identical(&oracle.state, &kernels.state, "sequential kernels");
    }

    /// Threaded kernels are bit-identical too: chunks are disjoint and the
    /// per-pair arithmetic is unchanged.
    #[test]
    fn threaded_kernels_are_bit_identical_to_scan(
        ops in proptest::collection::vec(op(), 1..40)
    ) {
        let flat = flat_of(&circuit(&exact(&ops), Ending::Quantum));
        let oracle = run_flat_reference(&flat, &[], 11).unwrap();
        let threaded = run_fused(&unwindowed(&flat), &[], 11, config(10, 4)).unwrap();
        assert_identical(&oracle.state, &threaded.state, "threaded kernels");
    }

    /// On measured circuits the production stream, threaded, reproduces the
    /// oracle's outputs exactly, seed for seed: fusion flushes at every
    /// measurement, so the sampled state (and RNG consumption order) is the
    /// same up to rounding far below the sampling resolution.
    #[test]
    fn fused_threaded_histograms_match_reference(
        ops in proptest::collection::vec(op(), 1..30)
    ) {
        let flat = flat_of(&circuit(&ops, Ending::Measured));
        let fused = fuse_circuit(&flat);
        for seed in 0..20u64 {
            let oracle = run_flat_reference(&flat, &[], seed).unwrap();
            let got = run_fused(&fused, &[], seed, config(10, 4)).unwrap();
            prop_assert_eq!(
                oracle.classical_outputs(),
                got.classical_outputs(),
                "outputs diverge at seed {}",
                seed
            );
        }
    }
}
