//! The program generators: OpenQASM 2 text for the server, the same gates as
//! a [`RefOp`] list for the reference simulator, and the closed-form answer.
//!
//! Every program declares its quantum registers, resets them in declaration
//! order and measures each qubit exactly once, so output bit `k` of a
//! histogram entry is qubit `k` in flat declaration order.

use std::f64::consts::PI;
use std::fmt::Write as _;

use crate::refsim::RefOp;
use crate::rng::Rng;

/// A generated program.
#[derive(Clone, Debug)]
pub struct Program {
    /// Stable family name: ops of one family share a warm-up and a trace row.
    pub family: &'static str,
    pub source: String,
    pub qubits: usize,
    /// The gates in application order, user-defined gates expanded.
    pub reference: Vec<RefOp>,
    pub expect: Expect,
}

/// What a correct histogram for a program looks like.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// Every shot gives exactly these bits.
    Exact(Vec<bool>),
    /// Outcomes follow the reference simulator's distribution: an outcome of
    /// probability zero is wrong, and marginals are pooled across ops.
    Distribution,
    /// GHZ with known bit-flip errors: the first `errors.len()` bits, xored
    /// with `errors`, are all equal; the remaining bits equal `syndromes`.
    Ghz {
        errors: Vec<bool>,
        syndromes: Vec<bool>,
    },
}

struct Builder {
    source: String,
    declared: usize,
    reference: Vec<RefOp>,
    /// Whether to keep the gate list: only programs the reference simulator
    /// can run need it, and for the large ones it would outweigh the text.
    keep_reference: bool,
}

/// The widest program the reference simulator is asked to run.
pub const REFERENCE_QUBITS: usize = 12;

/// A declared quantum register: its name and the flat index of its qubit 0.
#[derive(Clone, Copy)]
struct Reg(&'static str, usize);

impl Builder {
    /// A program on `qubits` qubits in all.
    fn new(user_gates: &str, qubits: usize) -> Builder {
        Builder {
            source: format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n{user_gates}"),
            declared: 0,
            reference: Vec::new(),
            keep_reference: qubits <= REFERENCE_QUBITS,
        }
    }

    /// Declares `qreg name[size]` with a result register `m<name>[size]`.
    fn reg(&mut self, name: &'static str, size: usize) -> Reg {
        let _ = writeln!(self.source, "qreg {name}[{size}];\ncreg m{name}[{size}];");
        self.declared += size;
        Reg(name, self.declared - size)
    }

    fn reset(&mut self, regs: &[Reg]) {
        for Reg(name, _) in regs {
            let _ = writeln!(self.source, "reset {name};");
        }
    }

    fn measure(&mut self, regs: &[Reg]) {
        for Reg(name, _) in regs {
            let _ = writeln!(self.source, "measure {name} -> m{name};");
        }
    }

    fn args(&mut self, qubits: &[(Reg, usize)]) {
        for (i, (Reg(name, _), k)) in qubits.iter().enumerate() {
            let _ = write!(self.source, "{}{name}[{k}]", if i == 0 { ' ' } else { ',' });
        }
        self.source.push_str(";\n");
    }

    fn record(&mut self, gate: &'static str, params: &[f64], qubits: &[(Reg, usize)]) {
        if !self.keep_reference {
            return;
        }
        self.reference.push(RefOp {
            gate,
            params: params.to_vec(),
            qubits: qubits.iter().map(|(Reg(_, start), k)| start + k).collect(),
            cond: None,
        });
    }

    fn gate(&mut self, gate: &'static str, params: &[f64], qubits: &[(Reg, usize)]) {
        self.source.push_str(gate);
        if let [first, rest @ ..] = params {
            let _ = write!(self.source, "({first}");
            for p in rest {
                let _ = write!(self.source, ",{p}");
            }
            self.source.push(')');
        }
        self.args(qubits);
        self.record(gate, params, qubits);
    }

    /// A call of a user-defined gate whose body, on formal positions, is `body`.
    fn call(&mut self, name: &str, body: &[(&'static str, &[usize])], qubits: &[(Reg, usize)]) {
        self.source.push_str(name);
        self.args(qubits);
        for (gate, formals) in body {
            let actual: Vec<(Reg, usize)> = formals.iter().map(|&f| qubits[f]).collect();
            self.record(gate, &[], &actual);
        }
    }

    /// `measure q -> bit; if(bit==1) gate target;` for each of `then`, where
    /// `bit` is the one-bit result register of the one-qubit register `q`.
    fn measure_then(&mut self, q: Reg, then: &[(&'static str, (Reg, usize))]) {
        self.measure(&[q]);
        for (gate, target) in then {
            let _ = write!(self.source, "if(m{}==1) {gate}", q.0);
            self.args(&[*target]);
            self.record(gate, &[], &[*target]);
            if let Some(op) = self.reference.last_mut() {
                op.cond = Some(q.1);
            }
        }
    }

    fn finish(self, family: &'static str, expect: Expect) -> Program {
        assert!(self.keep_reference == (self.declared <= REFERENCE_QUBITS));
        Program {
            family,
            source: self.source,
            qubits: self.declared,
            reference: self.reference,
            expect,
        }
    }
}

fn bits_of(value: u64, n: usize) -> Vec<bool> {
    (0..n).map(|k| value >> k & 1 == 1).collect()
}

/// Identity-net fragment `kind` (of five) on seeded qubits of `q[0..n]`: the
/// redundancy a machine-written program carries, which an optimizer may or
/// may not find.
fn redundancy(b: &mut Builder, q: Reg, n: usize, kind: usize, rng: &mut Rng) {
    let i = rng.below(n as u64) as usize;
    let j = (i + 1 + rng.below(n as u64 - 1) as usize) % n;
    let angle = 0.05 + rng.unit();
    match kind {
        0 => {
            b.gate("h", &[], &[(q, i)]);
            b.gate("h", &[], &[(q, i)]);
        }
        1 => {
            b.gate("rz", &[angle], &[(q, i)]);
            b.gate("rz", &[-angle], &[(q, i)]);
        }
        2 => {
            b.gate("cx", &[], &[(q, i), (q, j)]);
            b.gate("cx", &[], &[(q, i), (q, j)]);
        }
        3 => {
            // T and CZ commute, so the pairs cancel across each other.
            b.gate("t", &[], &[(q, i)]);
            b.gate("cz", &[], &[(q, i), (q, j)]);
            b.gate("tdg", &[], &[(q, i)]);
            b.gate("cz", &[], &[(q, i), (q, j)]);
        }
        _ => {
            // The same parity gets T and T-dagger: a phase-polynomial merge.
            b.gate("t", &[], &[(q, j)]);
            b.gate("cx", &[], &[(q, i), (q, j)]);
            b.gate("cx", &[], &[(q, i), (q, j)]);
            b.gate("tdg", &[], &[(q, j)]);
        }
    }
}

/// The quantum Fourier transform on `q[0..n]` (qubit 0 least significant),
/// or its inverse, with two redundancy fragments after every row. The kinds
/// of fragment cycle, so that every program of a width has the same gates in
/// the same numbers; the seed only places them.
fn qft(b: &mut Builder, q: Reg, n: usize, inverse: bool, rng: &mut Rng) {
    let sign = if inverse { -1.0 } else { 1.0 };
    let swaps = |b: &mut Builder| {
        for i in 0..n / 2 {
            b.gate("swap", &[], &[(q, i), (q, n - 1 - i)]);
        }
    };
    let row = |b: &mut Builder, j: usize| {
        if !inverse {
            b.gate("h", &[], &[(q, j)]);
        }
        for k in 0..j {
            let k = if inverse { k } else { j - 1 - k };
            let angle = sign * PI / (1u64 << (j - k)) as f64;
            b.gate("cu1", &[angle], &[(q, k), (q, j)]);
        }
        if inverse {
            b.gate("h", &[], &[(q, j)]);
        }
    };
    if inverse {
        swaps(b);
    }
    for step in 0..n {
        row(b, if inverse { step } else { n - 1 - step });
        for fragment in 0..2 {
            redundancy(b, q, n, (2 * step + fragment) % 5, rng);
        }
    }
    if !inverse {
        swaps(b);
    }
}

/// A Draper adder on `n` qubits: prepare `a`, transform, add `b` in phase,
/// transform back, measure `(a + b) mod 2^n`. Basis-state redundancy sits
/// between preparation and transform, where it only moves a global phase.
/// `a` is one of the two alternating bit patterns and `b` is odd, so that
/// every program of a width has the same number of preparation gates, the same
/// number of known-one controls for an optimizer to fold, and no zero angle.
pub fn qft_adder(n: usize, rng: &mut Rng) -> Program {
    assert!((2..=32).contains(&n));
    let a = (0..n).filter(|k| k % 2 == 0).fold(0u64, |a, k| a | 1 << k) << rng.below(2)
        & ((1 << n) - 1);
    let b = rng.below(1 << n) | 1;
    let mut p = Builder::new("", n);
    let q = p.reg("q", n);
    p.reset(&[q]);
    for k in (0..n).filter(|k| a >> k & 1 == 1) {
        p.gate("x", &[], &[(q, k)]);
    }
    for k in 0..n / 2 {
        let i = rng.below(n as u64) as usize;
        match k % 3 {
            0 => p.gate("z", &[], &[(q, i)]),
            1 => p.gate("s", &[], &[(q, i)]),
            _ => p.gate("cz", &[], &[(q, i), (q, (i + 1) % n)]),
        }
    }
    qft(&mut p, q, n, false, rng);
    for k in 0..n {
        // Qubit k of the transform carries exp(2 pi i x 2^k / 2^n).
        let turns = (b << k) % (1 << n);
        p.gate(
            "u1",
            &[2.0 * PI * turns as f64 / (1u64 << n) as f64],
            &[(q, k)],
        );
    }
    qft(&mut p, q, n, true, rng);
    p.measure(&[q]);
    p.finish("qft_adder", Expect::Exact(bits_of((a + b) % (1 << n), n)))
}

/// GHZ on `n` qubits, entangled from a seeded root in a seeded order.
pub fn ghz(n: usize, rng: &mut Rng) -> Program {
    let mut p = Builder::new("", n);
    let q = p.reg("q", n);
    p.reset(&[q]);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    p.gate("h", &[], &[(q, order[0])]);
    for k in 1..n {
        // Entangle from any qubit already in the state.
        let from = order[rng.below(k as u64) as usize];
        p.gate("cx", &[], &[(q, from), (q, order[k])]);
    }
    p.measure(&[q]);
    p.finish("ghz", Expect::Distribution)
}

/// A product state: `h` then `ry(theta_k)` on every qubit, so qubit `k` reads
/// one with probability `(1 + sin theta_k) / 2`.
pub fn product(n: usize, rng: &mut Rng) -> Program {
    let mut p = Builder::new("", n);
    let q = p.reg("q", n);
    p.reset(&[q]);
    for k in 0..n {
        p.gate("h", &[], &[(q, k)]);
        p.gate("ry", &[(rng.unit() - 0.5) * PI], &[(q, k)]);
    }
    p.measure(&[q]);
    p.finish("product", Expect::Distribution)
}

/// Grover search over three qubits for `marked`, with one or two iterations.
pub fn grover3(marked: usize, iterations: usize) -> Program {
    let mut p = Builder::new("", 3);
    let q = p.reg("q", 3);
    p.reset(&[q]);
    let all = |p: &mut Builder, gate: &'static str, mask: usize| {
        for k in (0..3).filter(|k| mask >> k & 1 == 1) {
            p.gate(gate, &[], &[(q, k)]);
        }
    };
    // A phase flip of |111>, conjugated by X where `flip` has a one.
    let ccz = |p: &mut Builder, flip: usize| {
        all(p, "x", flip);
        p.gate("h", &[], &[(q, 2)]);
        p.gate("ccx", &[], &[(q, 0), (q, 1), (q, 2)]);
        p.gate("h", &[], &[(q, 2)]);
        all(p, "x", flip);
    };
    all(&mut p, "h", 0b111);
    for _ in 0..iterations {
        ccz(&mut p, !marked & 0b111);
        all(&mut p, "h", 0b111);
        ccz(&mut p, 0b111);
        all(&mut p, "h", 0b111);
    }
    p.measure(&[q]);
    p.finish("grover3", Expect::Distribution)
}

/// Teleportation of `ry(theta)|0>` with classically controlled corrections,
/// undone on the receiving qubit so that it always reads zero.
pub fn teleport(rng: &mut Rng) -> Program {
    let theta = (rng.unit() - 0.5) * 2.0 * PI;
    let mut p = Builder::new("", 3);
    let (a, b, c) = (p.reg("a", 1), p.reg("b", 1), p.reg("c", 1));
    p.reset(&[a, b, c]);
    p.gate("ry", &[theta], &[(a, 0)]);
    p.gate("h", &[], &[(b, 0)]);
    p.gate("cx", &[], &[(b, 0), (c, 0)]);
    p.gate("cx", &[], &[(a, 0), (b, 0)]);
    p.gate("h", &[], &[(a, 0)]);
    p.measure_then(b, &[("x", (c, 0))]);
    p.measure_then(a, &[("z", (c, 0))]);
    p.gate("ry", &[-theta], &[(c, 0)]);
    p.measure(&[c]);
    p.finish("teleport", Expect::Distribution)
}

const MAJ_UMA: &str = "gate maj a,b,c { cx c,b; cx c,a; ccx a,b,c; }\n\
                       gate uma a,b,c { ccx a,b,c; cx c,a; cx a,b; }\n";
const MAJ: &[(&str, &[usize])] = &[("cx", &[2, 1]), ("cx", &[2, 0]), ("ccx", &[0, 1, 2])];
const UMA: &[(&str, &[usize])] = &[("ccx", &[0, 1, 2]), ("cx", &[2, 0]), ("cx", &[0, 1])];

fn add_bits(a: &[bool], b: &[bool]) -> (Vec<bool>, bool) {
    let mut carry = false;
    let sum = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            let s = x ^ y ^ carry;
            carry = (x & y) | (carry & (x ^ y));
            s
        })
        .collect();
    (sum, carry)
}

/// `additions` chained ripple-carry additions `b += a` on `w`-bit registers,
/// built from user-defined `maj`/`uma` boxes on `2w + 2` qubits; the carry
/// qubit collects the parity of the carries out.
pub fn ripple_adder(w: usize, additions: usize, rng: &mut Rng) -> Program {
    let mut p = Builder::new(MAJ_UMA, 2 * w + 2);
    let (cin, a, b, cout) = (p.reg("ci", 1), p.reg("a", w), p.reg("b", w), p.reg("co", 1));
    p.reset(&[cin, a, b, cout]);
    let (a_bits, mut b_bits) = (rng.bits(w), rng.bits(w));
    for (reg, bits) in [(a, &a_bits), (b, &b_bits)] {
        for k in (0..w).filter(|&k| bits[k]) {
            p.gate("x", &[], &[(reg, k)]);
        }
    }
    let mut carry_parity = false;
    for _ in 0..additions {
        let carry_in = |i: usize| if i == 0 { (cin, 0) } else { (a, i - 1) };
        for i in 0..w {
            p.call("maj", MAJ, &[carry_in(i), (b, i), (a, i)]);
        }
        p.gate("cx", &[], &[(a, w - 1), (cout, 0)]);
        for i in (0..w).rev() {
            p.call("uma", UMA, &[carry_in(i), (b, i), (a, i)]);
        }
        let (sum, carry) = add_bits(&a_bits, &b_bits);
        b_bits = sum;
        carry_parity ^= carry;
    }
    p.measure(&[cin, a, b, cout]);
    let mut expect = vec![false];
    expect.extend(&a_bits);
    expect.extend(&b_bits);
    expect.push(carry_parity);
    p.finish("ripple_adder", Expect::Exact(expect))
}

/// GHZ on `w` data qubits, then `rounds` rounds of bit-flip errors on seeded
/// data qubits, each followed by a parity check of every neighbouring pair
/// into a fresh ancilla that is measured at once.
pub fn ghz_syndrome(w: usize, rounds: usize, rng: &mut Rng) -> Program {
    let mut p = Builder::new("", w + rounds * (w - 1));
    let (d, s) = (p.reg("dat", w), p.reg("anc", rounds * (w - 1)));
    p.reset(&[d]);
    p.gate("h", &[], &[(d, 0)]);
    for i in 1..w {
        p.gate("cx", &[], &[(d, i - 1), (d, i)]);
    }
    let mut errors = vec![false; w];
    let mut syndromes = Vec::with_capacity(rounds * (w - 1));
    for _ in 0..rounds {
        for _ in 0..1 + w / 32 {
            let hit = rng.below(w as u64) as usize;
            p.gate("x", &[], &[(d, hit)]);
            errors[hit] ^= true;
        }
        for i in 0..w - 1 {
            // Reset just before use and measure just after, so that only one
            // ancilla is live at a time; wires are still numbered in order.
            let k = syndromes.len();
            let _ = writeln!(p.source, "reset anc[{k}];");
            p.gate("cx", &[], &[(d, i), (s, k)]);
            p.gate("cx", &[], &[(d, i + 1), (s, k)]);
            let _ = writeln!(p.source, "measure anc[{k}] -> manc[{k}];");
            syndromes.push(errors[i] ^ errors[i + 1]);
        }
    }
    p.measure(&[d]);
    p.finish("ghz_syndrome", Expect::Ghz { errors, syndromes })
}
