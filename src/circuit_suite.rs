//! The built-in circuit suite shared by the `quipper-lint` and
//! `quipper-opt` binaries.
//!
//! The suite mirrors the repository's example binaries — teleportation,
//! synthesized oracles, Grover, QFT, the welded-tree walk — so both tools
//! analyze exactly the shapes users see. The five circuits the served
//! catalog also offers come from its builders, so the tools check what
//! the service runs. Included into each binary via `#[path]` (the root
//! package is examples/bins only, no library target).

use quipper::classical::synth;
use quipper::{Circ, Qubit};
use quipper_algorithms::bf::{hex_winner_dag, HexBoard};
use quipper_algorithms::bwt::{bwt_circuit, Flavor, WeldedTree};
use quipper_algorithms::cl::mod_const_dag;
use quipper_circuit::BCircuit;
use quipper_serve::catalog::Catalog;

/// A named circuit in the suite: display name plus builder.
pub type SuiteEntry = (&'static str, fn() -> BCircuit);

/// The circuits the examples build and run.
pub fn suite() -> Vec<SuiteEntry> {
    vec![
        ("teleportation", || catalog("teleportation")),
        ("ghz5", || catalog("ghz5")),
        ("parity-oracle", || catalog("parity4")),
        ("mod-oracle", mod_oracle),
        ("hex-oracle", hex_oracle),
        ("grover3", || catalog("grover3")),
        ("qft4", || catalog("qft4")),
        ("bwt-orthodox", bwt_orthodox),
        ("ghz-syndrome", ghz_syndrome),
        ("t-merge", t_merge),
    ]
}

/// The served catalog's circuit of that name.
fn catalog(name: &str) -> BCircuit {
    let circuit = Catalog::new().get(name).expect("a catalog circuit");
    BCircuit::clone(&circuit)
}

/// A modular-arithmetic oracle (Class Number), synthesized clean.
fn mod_oracle() -> BCircuit {
    let dag = mod_const_dag(4, 3);
    Circ::build(&vec![false; 4], |c, xs: Vec<Qubit>| {
        let outs = synth::synthesize_clean(c, &dag, &xs);
        (xs, outs)
    })
}

/// The Hex flood-fill winner oracle (Boolean Formula) on a small board.
fn hex_oracle() -> BCircuit {
    let board = HexBoard::new(3, 3);
    let dag = hex_winner_dag(board, true, None);
    Circ::build(
        &(vec![false; board.cells()], false),
        |c, (cells, out): (Vec<Qubit>, Qubit)| {
            synth::classical_to_reversible(c, &dag, &cells, &[out]);
            (cells, out)
        },
    )
}

/// One timestep of the orthodox welded-tree walk on a depth-1 tree.
fn bwt_orthodox() -> BCircuit {
    bwt_circuit(WeldedTree::new(1, [0b0, 0b1]), 1, 0.35, Flavor::Orthodox)
}

/// GHZ-3 preparation plus a parity-syndrome ancilla whose measurement is
/// provably deterministic by stabilizer flow — the lint suite's QL040
/// exemplar (the data measurements stay genuinely random).
fn ghz_syndrome() -> BCircuit {
    // Qubits are qinit'd (not open inputs) so the stabilizer walker has
    // seeded generators to flow through the preparation.
    Circ::build(&(), |c, ()| {
        let qs: Vec<Qubit> = (0..3).map(|_| c.qinit_bit(false)).collect();
        c.hadamard(qs[0]);
        for w in qs.windows(2) {
            c.cnot(w[1], w[0]);
        }
        let anc = c.qinit_bit(false);
        c.cnot(anc, qs[0]);
        c.cnot(anc, qs[1]);
        let syndrome = c.measure(anc);
        let data = qs.into_iter().map(|q| c.measure(q)).collect::<Vec<_>>();
        (syndrome, data)
    })
}

/// Z-rotations separated by CNOTs on the same phase-polynomial term: the
/// optimizer's `opt.phasepoly` pass merges each T·…·T pair into an S and
/// deletes the T·…·T† term outright.
fn t_merge() -> BCircuit {
    Circ::build(&vec![false; 3], |c, qs: Vec<Qubit>| {
        c.hadamard(qs[0]);
        c.hadamard(qs[1]);
        // T ... T on qs[0] across CNOTs it controls: merges to S.
        c.gate_t(qs[0]);
        c.cnot(qs[2], qs[0]);
        c.gate_t(qs[0]);
        // T ... T† on qs[1]: sums to the identity term.
        c.gate_t(qs[1]);
        c.cnot(qs[2], qs[1]);
        c.gate_inv(quipper::GateName::T, qs[1]);
        c.cnot(qs[2], qs[1]);
        qs.into_iter().map(|q| c.measure(q)).collect::<Vec<_>>()
    })
}
