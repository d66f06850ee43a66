//! Quickstart: the paper's §4.4 walkthrough, in Rust.
//!
//! Builds the `mycirc` family of circuits gate by gate, uses block
//! structure (`with_controls`, `with_ancilla`), reverses a subcircuit,
//! decomposes to binary gates, and runs a Bell pair on the simulator.
//!
//! Run with: `cargo run --example quickstart`

use quipper::decompose::{decompose, GateBase};
use quipper::{Circ, Qubit};
use quipper_circuit::print::{to_ascii, to_text};

fn mycirc(c: &mut Circ, a: Qubit, b: Qubit) -> (Qubit, Qubit) {
    c.hadamard(a);
    c.hadamard(b);
    c.cnot(b, a); // controlled_not
    (a, b)
}

fn main() {
    // --- mycirc (procedural paradigm, §4.4.1) ---------------------------
    let bc = Circ::build(&(false, false), |c, (a, b)| mycirc(c, a, b));
    println!("mycirc:\n{}", to_ascii(&bc.db, &bc.main, 100).unwrap());

    // --- mycirc2: whole blocks under a control (§4.4.2) -----------------
    let bc = Circ::build(
        &(false, false, false),
        |c, (a, b, ctl): (Qubit, Qubit, Qubit)| {
            mycirc(c, a, b);
            c.with_controls(&ctl, |c| {
                mycirc(c, a, b);
                mycirc(c, b, a);
            });
            mycirc(c, a, ctl);
            (a, b, ctl)
        },
    );
    println!("mycirc2:\n{}", to_ascii(&bc.db, &bc.main, 100).unwrap());

    // --- mycirc3: a scoped ancilla (§4.4.2) -----------------------------
    let bc = Circ::build(
        &(false, false, false),
        |c, (a, b, q): (Qubit, Qubit, Qubit)| {
            c.with_ancilla(|c, x| {
                c.qnot_ctrl(x, &(a, b));
                c.gate_ctrl(quipper::GateName::H, q, &x);
                c.qnot_ctrl(x, &(a, b));
            });
            (a, b, q)
        },
    );
    println!("mycirc3:\n{}", to_ascii(&bc.db, &bc.main, 100).unwrap());

    // --- timestep: reversing a subcircuit mid-computation (§4.4.3) ------
    let bc = Circ::build(
        &(false, false, false),
        |c, (a, b, t): (Qubit, Qubit, Qubit)| {
            mycirc(c, a, b);
            c.toffoli(t, a, b);
            c.reverse_simple(&(false, false), |c, (a, b)| mycirc(c, a, b), (a, b));
            (a, b, t)
        },
    );
    println!("timestep:\n{}", to_ascii(&bc.db, &bc.main, 100).unwrap());

    // --- timestep2 = decompose_generic Binary timestep ------------------
    let binary = decompose(GateBase::Binary, &bc);
    println!(
        "timestep2 (binary gate base):\n{}",
        to_ascii(&binary.db, &binary.main, 200).unwrap()
    );
    println!("timestep2 gate count:\n{}\n", binary.gate_count());

    // --- and the machine-readable text format ---------------------------
    println!("timestep in Quipper's text format:\n{}", to_text(&bc));

    // --- running a circuit (§4.4.5): a Bell pair ------------------------
    let bell = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
        c.hadamard(a);
        c.cnot(b, a);
        c.measure((a, b))
    });
    let engine = quipper_exec::Engine::new();
    let job = quipper_exec::Job::new(&bell)
        .inputs(&[false, false])
        .shots(10)
        .seed(0);
    let result = engine.run(&job).unwrap();
    println!("ten Bell-pair shots [{}]:", result.report);
    for (bits, n) in &result.histogram {
        println!("  {}{} x{}", u8::from(bits[0]), u8::from(bits[1]), n);
    }
}
