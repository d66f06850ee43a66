//! Golden-file tests for OpenQASM 2.0 exports of *optimized* circuits.
//!
//! Two suite circuits the default pipeline really rewrites are optimized
//! and their exports compared byte-for-byte against
//! `tests/golden/<name>.opt.qasm`, pinning the optimizer's exact output.
//! Four catalog circuits it has nothing to remove from must export exactly
//! as their unoptimized goldens (`tests/golden/<name>.qasm`, owned by
//! `qasm_golden.rs`).
//!
//! To re-bless after an *intentional* optimizer or exporter change:
//!
//! ```text
//! QASM_BLESS=1 cargo test --test opt_qasm_golden
//! ```

use std::path::PathBuf;

use quipper_circuit::qasm::to_qasm;
use quipper_circuit::BCircuit;
use quipper_opt::{optimize, OptLevel};
use quipper_serve::catalog::Catalog;

#[path = "../src/circuit_suite.rs"]
mod circuit_suite;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn optimized_qasm(name: &str, circuit: &BCircuit) -> String {
    let (optimized, report) = optimize(circuit, OptLevel::Default);
    optimized.validate().unwrap();
    assert_eq!(report.level, OptLevel::Default);
    to_qasm(&optimized).unwrap_or_else(|e| panic!("optimized {name} does not export: {e}"))
}

/// A suite circuit the optimizer rewrites, against its own blessed golden.
fn check_rewritten(name: &str) {
    let (_, build) = circuit_suite::suite()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no suite circuit {name}"));
    let circuit = build();
    let qasm = optimized_qasm(name, &circuit);
    assert_ne!(
        qasm,
        to_qasm(&circuit).unwrap(),
        "{name}: the optimizer no longer rewrites this circuit"
    );
    let path = golden_path(&format!("{name}.opt.qasm"));
    if std::env::var_os("QASM_BLESS").is_some() {
        std::fs::write(&path, &qasm).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with QASM_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        qasm, expected,
        "optimized {name} drifted from its golden file; if intentional, re-bless with QASM_BLESS=1"
    );
}

/// A catalog circuit with nothing to remove: the optimized export is the
/// unoptimized golden, byte for byte.
fn check_untouched(name: &str) {
    let circuit = Catalog::new()
        .get(name)
        .unwrap_or_else(|| panic!("no circuit {name}"));
    let expected = std::fs::read_to_string(golden_path(&format!("{name}.qasm"))).unwrap();
    assert_eq!(
        optimized_qasm(name, &circuit),
        expected,
        "the optimizer changed {name}'s export"
    );
}

/// Phase-polynomial merging: T·…·T folds to S, T·…·T† vanishes.
#[test]
fn t_merge_opt_matches_golden() {
    check_rewritten("t-merge");
}

/// The welded-tree walk: the compute/uncompute structure leaves adjacent
/// inverse pairs and constant controls for `opt.facts` and `opt.cancel`.
#[test]
fn bwt_orthodox_opt_matches_golden() {
    check_rewritten("bwt-orthodox");
}

/// Teleportation: the classically-controlled corrections survive the
/// optimizer untouched.
#[test]
fn teleportation_opt_matches_golden() {
    check_untouched("teleportation");
}

/// Grover over 3 qubits: the oracle's Toffolis stay Toffolis; decomposing
/// them is the user's `decompose`, not the optimizer's.
#[test]
fn grover3_opt_matches_golden() {
    check_untouched("grover3");
}

/// GHZ: irreducible; the export pins that the pipeline leaves it alone.
#[test]
fn ghz3_opt_matches_golden() {
    check_untouched("ghz3");
}

/// QFT over 4 qubits: the controlled-phase cascade has no mergeable runs.
#[test]
fn qft4_opt_matches_golden() {
    check_untouched("qft4");
}
