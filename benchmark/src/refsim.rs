//! The independent reference: a dense simulator that knows two primitives, the
//! OpenQASM 2 builtins `U(θ,φ,λ)` and `CX`, and the `qelib1.inc` definitions of
//! every other gate in terms of them. It shares no code with `quipper-sim`, so
//! an answer checked against it is checked against the language definition.
//!
//! A statement under `if(c==1)` is applied as a gate controlled on the qubit
//! that was measured into `c` (deferred measurement), which gives the same
//! outcome distribution because the generators never touch a measured qubit.

use std::f64::consts::PI;

/// One gate application: a `qelib1.inc` mnemonic, its angles, its qubits, and
/// the measured qubit it is conditioned on, if any.
#[derive(Clone, Debug, PartialEq)]
pub struct RefOp {
    pub gate: &'static str,
    pub params: Vec<f64>,
    pub qubits: Vec<usize>,
    pub cond: Option<usize>,
}

type Amp = (f64, f64);

fn mul(a: Amp, b: Amp) -> Amp {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

struct State(Vec<Amp>);

impl State {
    /// The builtin `U(θ,φ,λ)` on qubit `q`, on basis states that have every
    /// bit of `mask` set.
    fn u(&mut self, theta: f64, phi: f64, lambda: f64, q: usize, mask: usize) {
        let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        let m01 = (-lambda.cos() * s, -lambda.sin() * s);
        let m10 = (phi.cos() * s, phi.sin() * s);
        let m11 = ((phi + lambda).cos() * c, (phi + lambda).sin() * c);
        let bit = 1 << q;
        for i in (0..self.0.len()).filter(|i| i & bit == 0 && i & mask == mask) {
            let (a0, a1) = (self.0[i], self.0[i | bit]);
            let (p, r) = (mul(m01, a1), mul(m10, a0));
            let t = mul(m11, a1);
            self.0[i] = (c * a0.0 + p.0, c * a0.1 + p.1);
            self.0[i | bit] = (r.0 + t.0, r.1 + t.1);
        }
    }

    /// The builtin `CX`, under the same mask.
    fn cx(&mut self, control: usize, target: usize, mask: usize) {
        let (cb, tb) = (1 << control, 1 << target);
        for i in (0..self.0.len()).filter(|i| i & cb != 0 && i & tb == 0 && i & mask == mask) {
            self.0.swap(i, i | tb);
        }
    }

    /// `qelib1.inc`, transcribed definition by definition.
    fn gate(&mut self, name: &str, p: &[f64], q: &[usize], m: usize) {
        match name {
            "u3" => self.u(p[0], p[1], p[2], q[0], m),
            "u2" => self.u(PI / 2.0, p[0], p[1], q[0], m),
            "u1" | "rz" => self.u(0.0, 0.0, p[0], q[0], m),
            "cx" => self.cx(q[0], q[1], m),
            "x" => self.gate("u3", &[PI, 0.0, PI], q, m),
            "z" => self.gate("u1", &[PI], q, m),
            "h" => self.gate("u2", &[0.0, PI], q, m),
            "s" => self.gate("u1", &[PI / 2.0], q, m),
            "sdg" => self.gate("u1", &[-PI / 2.0], q, m),
            "t" => self.gate("u1", &[PI / 4.0], q, m),
            "tdg" => self.gate("u1", &[-PI / 4.0], q, m),
            "ry" => self.gate("u3", &[p[0], 0.0, 0.0], q, m),
            "cz" => self.body("h1 cx01 h1", q, m),
            "swap" => self.body("cx01 cx10 cx01", q, m),
            "ccx" => self.body(
                "h2 cx12 tdg2 cx02 t2 cx12 tdg2 cx02 t1 t2 h2 cx01 t0 tdg1 cx01",
                q,
                m,
            ),
            "cu1" => {
                self.gate("u1", &[p[0] / 2.0], &q[..1], m);
                self.cx(q[0], q[1], m);
                self.gate("u1", &[-p[0] / 2.0], &q[1..], m);
                self.cx(q[0], q[1], m);
                self.gate("u1", &[p[0] / 2.0], &q[1..], m);
            }
            other => panic!("the reference simulator has no definition for {other:?}"),
        }
    }

    /// A definition body of parameterless gates: each word is a mnemonic
    /// followed by the positions in `q` of its qubits.
    fn body(&mut self, text: &str, q: &[usize], m: usize) {
        for word in text.split(' ') {
            let digits = word
                .find(|c: char| c.is_ascii_digit())
                .expect("qubit positions");
            let qubits: Vec<usize> = word[digits..]
                .bytes()
                .map(|d| q[(d - b'0') as usize])
                .collect();
            self.gate(&word[..digits], &[], &qubits, m);
        }
    }
}

/// The probability of every outcome of measuring all `n` qubits after `ops`,
/// from |0…0⟩; outcome `i` has qubit `k` in bit `k`.
pub fn distribution(n: usize, ops: &[RefOp]) -> Vec<f64> {
    assert!(n <= 12, "the reference simulator is for small instances");
    let mut state = State(vec![(0.0, 0.0); 1 << n]);
    state.0[0] = (1.0, 0.0);
    for op in ops {
        state.gate(
            op.gate,
            &op.params,
            &op.qubits,
            op.cond.map_or(0, |c| 1 << c),
        );
    }
    state.0.iter().map(|a| a.0 * a.0 + a.1 * a.1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(gate: &'static str, params: &[f64], qubits: &[usize]) -> RefOp {
        RefOp {
            gate,
            params: params.to_vec(),
            qubits: qubits.to_vec(),
            cond: None,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn toffoli_and_swap_permute_basis_states() {
        let p = distribution(
            3,
            &[
                op("x", &[], &[0]),
                op("x", &[], &[1]),
                op("ccx", &[], &[0, 1, 2]),
            ],
        );
        assert!(close(p[0b111], 1.0));
        let p = distribution(3, &[op("x", &[], &[0]), op("ccx", &[], &[0, 1, 2])]);
        assert!(close(p[0b001], 1.0));
        let p = distribution(2, &[op("x", &[], &[0]), op("swap", &[], &[0, 1])]);
        assert!(close(p[0b10], 1.0));
    }

    #[test]
    fn controlled_phase_shows_up_as_interference() {
        // H on the target turns cu1(pi)'s phase flip into a bit flip.
        let ops = [
            op("x", &[], &[0]),
            op("h", &[], &[1]),
            op("cu1", &[PI], &[0, 1]),
            op("h", &[], &[1]),
        ];
        assert!(close(distribution(2, &ops)[0b11], 1.0));
        let p = distribution(2, &[op("h", &[], &[0]), op("cx", &[], &[0, 1])]);
        assert!(close(p[0b00], 0.5) && close(p[0b11], 0.5));
    }

    #[test]
    fn a_condition_acts_only_on_the_branch_that_measured_one() {
        let mut flip = op("x", &[], &[1]);
        flip.cond = Some(0);
        let p = distribution(2, &[op("h", &[], &[0]), flip]);
        assert!(close(p[0b00], 0.5) && close(p[0b11], 0.5));
    }
}
