//! The bool-matrix stabilizer tableau: the executable specification the
//! packed production tableau is property-tested against, seed for seed.

use rand::rngs::StdRng;
use rand::Rng;

use crate::stabilizer::Tableau;

/// One-`bool`-per-cell tableau: the executable specification. Kept for
/// property tests; `x[i][q]`/`z[i][q]` index row `i` (destabilizers then
/// stabilizers), column `q`.
#[derive(Clone, Debug)]
pub struct BoolTableau {
    n: usize,
    x: Vec<Vec<bool>>,
    z: Vec<Vec<bool>>,
    r: Vec<bool>,
}

impl BoolTableau {
    /// The phase-exponent contribution of multiplying Paulis (the `g`
    /// function of Aaronson & Gottesman).
    fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
        match (x1, z1) {
            (false, false) => 0,
            (true, true) => i32::from(z2) - i32::from(x2),
            (true, false) => i32::from(z2) * (2 * i32::from(x2) - 1),
            (false, true) => i32::from(x2) * (1 - 2 * i32::from(z2)),
        }
    }

    fn rowsum_into(&mut self, h: usize, i: usize) {
        let mut phase = 2 * i32::from(self.r[h]) + 2 * i32::from(self.r[i]);
        for q in 0..self.n {
            phase += Self::g(self.x[i][q], self.z[i][q], self.x[h][q], self.z[h][q]);
        }
        self.r[h] = phase.rem_euclid(4) == 2;
        for q in 0..self.n {
            self.x[h][q] ^= self.x[i][q];
            self.z[h][q] ^= self.z[i][q];
        }
    }
}

impl Tableau for BoolTableau {
    fn empty() -> Self {
        BoolTableau {
            n: 0,
            x: Vec::new(),
            z: Vec::new(),
            r: Vec::new(),
        }
    }

    fn grow(&mut self) -> usize {
        let q = self.n;
        self.n += 1;
        for row in self.x.iter_mut().chain(self.z.iter_mut()) {
            row.push(false);
        }
        // Insert a new destabilizer row at index n-1 (end of destabilizers)
        // and a new stabilizer row at the very end.
        let mut dx = vec![false; self.n];
        dx[q] = true;
        let dz = vec![false; self.n];
        let sx = vec![false; self.n];
        let mut sz = vec![false; self.n];
        sz[q] = true;
        self.x.insert(q, dx);
        self.z.insert(q, dz);
        self.r.insert(q, false);
        self.x.push(sx);
        self.z.push(sz);
        self.r.push(false);
        q
    }

    fn gate_h(&mut self, q: usize) {
        for i in 0..2 * self.n {
            let (xi, zi) = (self.x[i][q], self.z[i][q]);
            self.r[i] ^= xi && zi;
            self.x[i][q] = zi;
            self.z[i][q] = xi;
        }
    }

    fn gate_s(&mut self, q: usize) {
        for i in 0..2 * self.n {
            let (xi, zi) = (self.x[i][q], self.z[i][q]);
            self.r[i] ^= xi && zi;
            self.z[i][q] = zi ^ xi;
        }
    }

    fn gate_x(&mut self, q: usize) {
        for i in 0..2 * self.n {
            self.r[i] ^= self.z[i][q];
        }
    }

    fn gate_z(&mut self, q: usize) {
        for i in 0..2 * self.n {
            self.r[i] ^= self.x[i][q];
        }
    }

    fn gate_cnot(&mut self, ctl: usize, tgt: usize) {
        for i in 0..2 * self.n {
            let (xa, za) = (self.x[i][ctl], self.z[i][ctl]);
            let (xb, zb) = (self.x[i][tgt], self.z[i][tgt]);
            self.r[i] ^= xa && zb && (xb == za);
            self.x[i][tgt] = xb ^ xa;
            self.z[i][ctl] = za ^ zb;
        }
    }

    fn gate_cz(&mut self, a: usize, b: usize) {
        // CZ = H(b) · CNOT(a→b) · H(b).
        self.gate_h(b);
        self.gate_cnot(a, b);
        self.gate_h(b);
    }

    fn is_random(&self, q: usize) -> bool {
        (self.n..2 * self.n).any(|i| self.x[i][q])
    }

    fn measure_slot(&mut self, q: usize, rng: &mut StdRng) -> (bool, bool) {
        let n = self.n;
        let p = (n..2 * n).find(|&i| self.x[i][q]);
        match p {
            Some(p) => {
                // Random outcome.
                let outcome = rng.gen::<bool>();
                for i in 0..2 * n {
                    if i != p && self.x[i][q] {
                        self.rowsum_into(i, p);
                    }
                }
                // Destabilizer row p-n := old stabilizer row p.
                self.x[p - n] = self.x[p].clone();
                self.z[p - n] = self.z[p].clone();
                self.r[p - n] = self.r[p];
                // Stabilizer row p := Z_q with sign = outcome.
                for k in 0..n {
                    self.x[p][k] = false;
                    self.z[p][k] = false;
                }
                self.z[p][q] = true;
                self.r[p] = outcome;
                (outcome, false)
            }
            None => {
                // Deterministic outcome: accumulate into a scratch row.
                let mut sx = vec![false; n];
                let mut sz = vec![false; n];
                let mut sr = false;
                for i in 0..n {
                    if self.x[i][q] {
                        // rowsum of scratch with stabilizer row i+n.
                        let mut phase = 2 * i32::from(sr) + 2 * i32::from(self.r[i + n]);
                        for k in 0..n {
                            phase += Self::g(self.x[i + n][k], self.z[i + n][k], sx[k], sz[k]);
                        }
                        sr = phase.rem_euclid(4) == 2;
                        for k in 0..n {
                            sx[k] ^= self.x[i + n][k];
                            sz[k] ^= self.z[i + n][k];
                        }
                    }
                }
                (sr, true)
            }
        }
    }
}
