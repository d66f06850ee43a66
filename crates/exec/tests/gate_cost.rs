//! A plan compile runs only the lint passes that can refuse a plan: it
//! seeds no Pauli-flow stabilizer generator, which only the full
//! `quipper_lint::lint` walks.
//!
//! The one test lives alone in this file so it owns its process and the
//! global tracer's counters: no other test can bump them underneath it.

use quipper::{Circ, Qubit};
use quipper_exec::{OptLevel, Plan};
use quipper_trace::names::LINT_PAULI_GENERATORS;

#[test]
fn a_plan_compile_seeds_no_stabilizer_generators_and_lint_does() {
    // GHZ3 plus a parity ancilla, as in `quipper-lint`'s `facts_cost.rs`:
    // its QL040 note seeds a generator per initialized wire.
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

    for level in [OptLevel::Off, OptLevel::Default] {
        Plan::compile_with(&bc, level).expect("the circuit compiles");
        assert_eq!(generators(), 0, "a compile at {level:?} walked generators");
    }

    quipper_lint::lint(&bc);
    assert_eq!(generators(), 4, "one generator per initialized qubit");
}
