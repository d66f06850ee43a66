//! `facts` does only the work its facts need: it builds no Pauli-flow note
//! (QL040, QL042, QL043), which only `lint` reports.
//!
//! The one test lives alone in this file so it owns its process and the
//! global tracer's counters: no other test can bump them underneath it.

use quipper::{Circ, Qubit};
use quipper_lint::{facts, lint};
use quipper_trace::names::LINT_PAULI_GENERATORS;

#[test]
fn facts_seeds_no_stabilizer_generators_and_lint_does() {
    // GHZ3 plus a parity ancilla: the circuit of `pauli.rs`'s
    // `ghz_syndrome_measurement_is_deterministic`, whose QL040 note seeds a
    // generator per initialized wire.
    let bc = Circ::build(&(), |c, ()| {
        let q: Vec<Qubit> = (0..3).map(|_| c.qinit_bit(false)).collect();
        c.hadamard(q[0]);
        c.cnot(q[1], q[0]);
        c.cnot(q[2], q[1]);
        let anc = c.qinit_bit(false);
        c.cnot(anc, q[0]);
        c.cnot(anc, q[1]);
        let syndrome = c.measure_bit(anc);
        let leg = c.measure_bit(q[0]);
        c.cdiscard(syndrome);
        c.cdiscard(leg);
        c.qdiscard(q[1]);
        c.qdiscard(q[2]);
    });
    let tracer = quipper_trace::tracer();
    tracer.set_enabled(true);
    let generators = || tracer.metrics().counter(LINT_PAULI_GENERATORS);

    facts(&bc);
    assert_eq!(generators(), 0, "facts walked the stabilizer generators");

    let report = lint(&bc);
    assert!(
        report.findings.iter().any(|d| d.code == "QL040"),
        "{report}"
    );
    assert_eq!(generators(), 4, "one generator per initialized qubit");
}
