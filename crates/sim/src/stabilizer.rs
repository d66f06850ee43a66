//! Stabilizer (Clifford) simulation, after Aaronson & Gottesman's CHP.
//!
//! The analogue of Quipper's `run_clifford_generic` (paper §4.4.5): circuits
//! built from Clifford gates (H, S, V, Pauli gates, CNOT, CZ, swap) and
//! measurements are simulated in polynomial time using the stabilizer
//! tableau representation, instead of the exponential state vector.
//!
//! The tableau is [`PackedTableau`]: each qubit column stores its X and Z
//! bits for all `2n` tableau rows as `u64` words, so every Clifford generator
//! updates 64 rows per instruction, and the row-sum broadcast of a random
//! measurement XORs the pivot row into all affected rows one *word of rows*
//! at a time. Phase (mod-4) arithmetic runs on two bit-planes instead of
//! per-row integers.
//!
//! A deterministic measurement of `q` reads the product, in row order, of
//! the stabilizer rows whose destabilizers have X on `q`: the selection
//! mask is column `q`'s destabilizer half. A product of Pauli strings
//! factorizes over columns, so its phase is a sum taken column by column,
//! a word of rows at a time: `2·popcount(r ∧ sel)`, plus, per column, the
//! `±i` of each selected row times the product of the selected rows before
//! it, an exclusive prefix XOR whose parity carries from word to word. The
//! outcome is 1 iff the sum is 2 mod 4. The rows commute, so every partial
//! product has an even phase and the sum equals the row-by-row chain.
//!
//! The gate updates and the row-product phase are the Aaronson–Gottesman
//! rules of [`quipper_circuit::pauli::clifford`], the ones the lint's Pauli
//! strings run one factor at a time; here each rule runs on a `u64` word of
//! rows.
//!
//! The simulator is generic over the [`Tableau`] trait so that the oracle —
//! the one-`bool`-per-cell
//! [`BoolTableau`](crate::reference::BoolTableau) — plugs into the same
//! gate loop ([`run_clifford_flat_tableau`]). Both consume randomness in the
//! same order, so a run is reproducible bit-for-bit across the two under the
//! same seed. The oracle writes its rules out per cell and does not share
//! them, so the comparison checks the shared rules too.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use quipper_circuit::flatten::inline_all;
use quipper_circuit::pauli::clifford;
use quipper_circuit::{BCircuit, Circuit, Gate, GateName, Wire, WireType};

use crate::error::SimError;
use crate::wires::{self, Simulator, Wires};

/// The operations a stabilizer-tableau representation must provide.
///
/// Rows `0..n` are destabilizers and rows `n..2n` stabilizers, following
/// Aaronson & Gottesman; `grow` appends one qubit (a fresh `|0⟩` column with
/// destabilizer `X_q` and stabilizer `Z_q`). Randomness for measurements is
/// drawn from the caller's RNG so backends stay seed-compatible.
pub trait Tableau {
    /// An empty tableau (no qubits).
    fn empty() -> Self;
    /// Appends a qubit in `|0⟩`; returns its slot index.
    fn grow(&mut self) -> usize;
    fn gate_h(&mut self, q: usize);
    fn gate_s(&mut self, q: usize);
    fn gate_x(&mut self, q: usize);
    fn gate_z(&mut self, q: usize);
    fn gate_cnot(&mut self, ctl: usize, tgt: usize);
    /// CZ as a native generator (`z_a ^= x_b`, `z_b ^= x_a`,
    /// `r ^= x_a·x_b·(z_a ⊕ z_b)`).
    fn gate_cz(&mut self, a: usize, b: usize);
    /// Swap of two qubits. Implementations may relabel columns directly;
    /// the default composes three CNOTs (same unitary, so same tableau).
    fn gate_swap(&mut self, a: usize, b: usize) {
        self.gate_cnot(a, b);
        self.gate_cnot(b, a);
        self.gate_cnot(a, b);
    }
    /// Whether a Z-basis measurement of slot `q` has a random outcome, i.e.
    /// whether [`measure_slot`](Tableau::measure_slot) would draw from its
    /// RNG: some stabilizer anticommutes with `Z_q`.
    fn is_random(&self, q: usize) -> bool;
    /// Measures slot `q` in the Z basis; returns `(outcome, deterministic)`.
    /// Draws exactly one bool from `rng` iff the outcome is random.
    fn measure_slot(&mut self, q: usize, rng: &mut StdRng) -> (bool, bool);
}

// ---------------------------------------------------------------------------
// Bit helpers shared by the packed tableau.

#[inline]
fn bit_get(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 != 0
}

#[inline]
fn bit_set(bits: &mut [u64], i: usize, v: bool) {
    let (w, b) = (i / 64, i % 64);
    bits[w] = (bits[w] & !(1u64 << b)) | (u64::from(v) << b);
}

/// Bit `i` of the result is the XOR of bits `0..=i` of `v`.
#[inline]
fn prefix_xor(mut v: u64) -> u64 {
    for shift in [1, 2, 4, 8, 16, 32] {
        v ^= v << shift;
    }
    v
}

// ---------------------------------------------------------------------------
// Packed tableau

/// Bit-packed tableau: column-major over qubits, word-parallel over rows.
///
/// For qubit column `q`, `x[q]` (and `z[q]`) is a bitset over tableau rows:
/// destabilizer row `i` lives at bit `i`, stabilizer row `i` at bit
/// `cap + i`, where `cap` (a multiple of 64) is the current row capacity of
/// each half. `r` is the sign row-bitset in the same layout. Keeping the
/// stabilizer half word-aligned at `cap` lets capacity growth relocate it
/// with whole-word copies.
#[derive(Debug)]
pub struct PackedTableau {
    n: usize,
    /// Row capacity per half (destabilizer / stabilizer); multiple of 64.
    cap: usize,
    /// Words per row-bitset: `2 * cap / 64`.
    words: usize,
    x: Vec<Vec<u64>>,
    z: Vec<Vec<u64>>,
    r: Vec<u64>,
    /// A random measurement's three row-bitsets: the rows it updates and
    /// the two bit-planes of their phase counters. Scratch, not state:
    /// kept only so that later measurements reuse the buffers.
    scratch: [Vec<u64>; 3],
}

impl Clone for PackedTableau {
    fn clone(&self) -> PackedTableau {
        let mut tab = PackedTableau::empty();
        tab.clone_from(self);
        tab
    }

    /// Field by field, so restoring a snapshot every shot reuses the
    /// columns.
    fn clone_from(&mut self, source: &PackedTableau) {
        self.n = source.n;
        self.cap = source.cap;
        self.words = source.words;
        self.x.clone_from(&source.x);
        self.z.clone_from(&source.z);
        self.r.clone_from(&source.r);
    }
}

impl PackedTableau {
    fn relayout(&mut self, new_cap: usize) {
        let new_words = 2 * new_cap / 64;
        let (old_lo, new_lo) = (self.cap / 64, new_cap / 64);
        let used = self.n.div_ceil(64);
        let move_half = |bits: &Vec<u64>| {
            let mut out = vec![0u64; new_words];
            out[..used].copy_from_slice(&bits[..used]);
            out[new_lo..new_lo + used].copy_from_slice(&bits[old_lo..old_lo + used]);
            out
        };
        for col in self.x.iter_mut().chain(self.z.iter_mut()) {
            *col = move_half(col);
        }
        self.r = move_half(&self.r);
        self.cap = new_cap;
        self.words = new_words;
    }

    /// First stabilizer row with an X bit in column `q`, if any.
    fn stab_x_pivot(&self, q: usize) -> Option<usize> {
        let lo = self.cap / 64;
        for (w, &word) in self.x[q][lo..].iter().enumerate() {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Runs a one-qubit rule of [`clifford`] on column `q`, a word of rows
    /// at a time. Inlined into each `gate_*`, so the rule is a direct call
    /// the compiler inlines in turn.
    #[inline(always)]
    fn rule_1q(&mut self, q: usize, rule: clifford::Rule1q<u64>) {
        let words = self.x[q].iter_mut().zip(self.z[q].iter_mut());
        for ((x, z), r) in words.zip(self.r.iter_mut()) {
            rule(x, z, r);
        }
    }

    /// Runs a two-qubit rule of [`clifford`] on columns `a` and `b`, a word
    /// of rows at a time. Inlined like [`rule_1q`](Self::rule_1q).
    #[inline(always)]
    fn rule_2q(&mut self, a: usize, b: usize, rule: clifford::Rule2q<u64>) {
        debug_assert_ne!(a, b);
        for w in 0..self.words {
            let (mut xa, mut za) = (self.x[a][w], self.z[a][w]);
            let (mut xb, mut zb) = (self.x[b][w], self.z[b][w]);
            rule(&mut xa, &mut za, &mut xb, &mut zb, &mut self.r[w]);
            (self.x[a][w], self.z[a][w]) = (xa, za);
            (self.x[b][w], self.z[b][w]) = (xb, zb);
        }
    }
}

impl Tableau for PackedTableau {
    fn empty() -> Self {
        PackedTableau {
            n: 0,
            cap: 64,
            words: 2,
            x: Vec::new(),
            z: Vec::new(),
            r: vec![0; 2],
            scratch: Default::default(),
        }
    }

    fn grow(&mut self) -> usize {
        if self.n == self.cap {
            self.relayout(self.cap * 2);
        }
        let q = self.n;
        self.n += 1;
        let mut xc = vec![0u64; self.words];
        bit_set(&mut xc, q, true); // destabilizer X_q
        let mut zc = vec![0u64; self.words];
        bit_set(&mut zc, self.cap + q, true); // stabilizer Z_q
        self.x.push(xc);
        self.z.push(zc);
        q
    }

    fn gate_h(&mut self, q: usize) {
        self.rule_1q(q, clifford::h);
    }

    fn gate_s(&mut self, q: usize) {
        self.rule_1q(q, clifford::s);
    }

    fn gate_x(&mut self, q: usize) {
        self.rule_1q(q, clifford::x);
    }

    fn gate_z(&mut self, q: usize) {
        self.rule_1q(q, clifford::z);
    }

    fn gate_cnot(&mut self, ctl: usize, tgt: usize) {
        self.rule_2q(ctl, tgt, clifford::cnot);
    }

    fn gate_cz(&mut self, a: usize, b: usize) {
        self.rule_2q(a, b, clifford::cz);
    }

    fn gate_swap(&mut self, a: usize, b: usize) {
        // Swap is a column relabeling: no phase terms, O(1) per word pair.
        self.x.swap(a, b);
        self.z.swap(a, b);
    }

    fn is_random(&self, q: usize) -> bool {
        self.stab_x_pivot(q).is_some()
    }

    fn measure_slot(&mut self, q: usize, rng: &mut StdRng) -> (bool, bool) {
        match self.stab_x_pivot(q) {
            Some(s) => {
                // Random outcome. All rows h ≠ pivot with X in column q get
                // the pivot row multiplied in; do the mod-4 phase arithmetic
                // for every such row at once on two bit-planes (s0 = low
                // bit, s1 = high bit of the per-row phase counter).
                let outcome = rng.gen::<bool>();
                let p = self.cap + s;
                let [m, s0, s1] = &mut self.scratch;
                m.clone_from(&self.x[q]);
                bit_set(m, p, false);
                let rp = bit_get(&self.r, p);
                s0.clear();
                s0.resize(self.words, 0);
                s1.clear();
                s1.resize(self.words, 0);
                for w in 0..self.words {
                    // Counter starts at 2·r[h] + 2·r[p].
                    s1[w] = (self.r[w] ^ if rp { !0 } else { 0 }) & m[w];
                }
                for k in 0..self.n {
                    let x1 = bit_get(&self.x[k], p);
                    let z1 = bit_get(&self.z[k], p);
                    if !x1 && !z1 {
                        continue;
                    }
                    // The pivot's factor in column k, in every row lane.
                    let (x1, z1) = (u64::from(x1).wrapping_neg(), u64::from(z1).wrapping_neg());
                    for w in 0..self.words {
                        let mw = m[w];
                        if mw == 0 {
                            continue;
                        }
                        // Rows whose g-contribution is +1 / −1 for this
                        // column.
                        let (plus, minus) =
                            clifford::product_phase(x1, z1, self.x[k][w], self.z[k][w]);
                        let (plus, minus) = (plus & mw, minus & mw);
                        // counter += 1 on `plus` rows, += 3 on `minus` rows.
                        s1[w] ^= s0[w] & plus;
                        s0[w] ^= plus;
                        s1[w] ^= minus & !s0[w];
                        s0[w] ^= minus;
                    }
                }
                for w in 0..self.words {
                    // r[h] := (counter ≡ 2 mod 4). Stabilizer rows always
                    // land on 0 or 2; the destabilizer partner row can end
                    // odd (it anticommutes with the pivot), and its sign is
                    // don't-care — mapping odd to 0 matches the reference.
                    self.r[w] = (self.r[w] & !m[w]) | (s1[w] & !s0[w] & m[w]);
                }
                // Broadcast the pivot row into every affected row, one word
                // of rows per XOR.
                for k in 0..self.n {
                    if bit_get(&self.x[k], p) {
                        for (xw, &mw) in self.x[k].iter_mut().zip(m.iter()) {
                            *xw ^= mw;
                        }
                    }
                    if bit_get(&self.z[k], p) {
                        for (zw, &mw) in self.z[k].iter_mut().zip(m.iter()) {
                            *zw ^= mw;
                        }
                    }
                }
                // Destabilizer row s := old stabilizer row s; stabilizer
                // row s := Z_q with sign = outcome.
                for k in 0..self.n {
                    let xv = bit_get(&self.x[k], p);
                    let zv = bit_get(&self.z[k], p);
                    bit_set(&mut self.x[k], s, xv);
                    bit_set(&mut self.z[k], s, zv);
                    bit_set(&mut self.x[k], p, false);
                    bit_set(&mut self.z[k], p, false);
                }
                bit_set(&mut self.z[q], p, true);
                let old_r = bit_get(&self.r, p);
                bit_set(&mut self.r, s, old_r);
                bit_set(&mut self.r, p, outcome);
                (outcome, false)
            }
            None => {
                // Deterministic outcome: the column sums of the module doc.
                let (lo, used) = (self.cap / 64, self.n.div_ceil(64));
                let sel = &self.x[q][..used];
                let signs = sel
                    .iter()
                    .zip(&self.r[lo..])
                    .map(|(s, r)| (s & r).count_ones());
                let mut phase = 2 * u64::from(signs.sum::<u32>());
                for (xk, zk) in self.x.iter().zip(&self.z) {
                    let (mut cx, mut cz) = (0u64, 0u64);
                    for ((&x, &z), &s) in xk[lo..].iter().zip(&zk[lo..]).zip(sel) {
                        let (x, z) = (x & s, z & s);
                        if x | z == 0 {
                            continue; // no factor here: no phase, same carry
                        }
                        let (ix, iz) = (prefix_xor(x), prefix_xor(z));
                        let (plus, minus) = clifford::product_phase(x, z, ix ^ x ^ cx, iz ^ z ^ cz);
                        // `−i` adds 3, which is −1 mod 4.
                        phase += u64::from(plus.count_ones()) + 3 * u64::from(minus.count_ones());
                        cx ^= (ix >> 63).wrapping_neg();
                        cz ^= (iz >> 63).wrapping_neg();
                    }
                }
                debug_assert!(phase.is_multiple_of(2), "odd row-product phase");
                (phase % 4 == 2, true)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Clifford simulator over a tableau backend

/// A tableau generator; a Clifford gate runs as a few of them.
#[derive(Clone, Copy)]
enum Gen {
    H,
    S,
    X,
    Z,
    Cnot,
    Cz,
    Swap,
}

/// The gate set, written once: the generators the named gate `name` runs
/// as, with `targets` targets under `controls` quantum controls (`negative`
/// if one fires on 0). X and Z run under one positive quantum control
/// (CNOT, CZ), the others uncontrolled; classical controls only gate the
/// whole gate, so they do not count.
fn generators(
    name: &GateName,
    inverted: bool,
    targets: usize,
    controls: usize,
    negative: bool,
) -> Option<&'static [Gen]> {
    use Gen::*;
    let gens: &'static [Gen] = match (name, inverted, controls) {
        _ if negative => return None,
        (GateName::X, _, 0) => &[X],
        (GateName::X, _, 1) => &[Cnot],
        (GateName::Z, _, 0) => &[Z],
        (GateName::Z, _, 1) => &[Cz],
        (GateName::Y, _, 0) => &[Z, X],
        (GateName::H, _, 0) => &[H],
        (GateName::S, false, 0) => &[S],
        (GateName::S, true, 0) => &[S, S, S],
        // V = H·S·H exactly; V† = H·S†·H.
        (GateName::V, false, 0) => &[H, S, H],
        (GateName::V, true, 0) => &[H, S, S, S, H],
        (GateName::Swap, _, 0) => &[Swap],
        _ => return None,
    };
    let arity = if matches!(gens, [Swap]) { 2 } else { 1 };
    (targets == arity).then_some(gens)
}

/// Whether the stabilizer simulator runs `gate`, given the type each wire
/// has when the gate runs (`None` for a wire with no value). The route
/// profile asks this; [`CliffordSim::apply`] decides by the same table.
pub fn accepts(gate: &Gate, wire_type: impl Fn(Wire) -> Option<WireType>) -> bool {
    match gate {
        Gate::QGate {
            name,
            inverted,
            targets,
            controls,
        } => {
            let (mut quantum, mut negative) = (0, false);
            for c in controls {
                match wire_type(c.wire) {
                    Some(WireType::Classical) => {}
                    Some(WireType::Quantum) => {
                        quantum += 1;
                        negative |= !c.positive;
                    }
                    None => return false,
                }
            }
            generators(name, *inverted, targets.len(), quantum, negative).is_some()
        }
        Gate::QRot { .. } | Gate::GPhase { .. } => false,
        _ => wires::accepts(gate),
    }
}

/// Clifford circuit simulator over a pluggable [`Tableau`] backend: the
/// gate → generator translation lives here, the linear algebra in the
/// tableau, and the wires (slot map, classical store, classical gates) in
/// the module every simulator shares.
#[derive(Clone, Debug)]
pub struct CliffordSim<T> {
    tab: T,
    wires: Wires,
    rng: StdRng,
}

/// The production stabilizer simulator (bit-packed tableau).
pub type Stabilizer = CliffordSim<PackedTableau>;

impl<T: Tableau> CliffordSim<T> {
    /// Creates an empty simulator.
    pub fn new(seed: u64) -> CliffordSim<T> {
        CliffordSim {
            tab: T::empty(),
            wires: Wires::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The value of a classical wire, if set.
    pub fn classical_value(&self, wire: Wire) -> Option<bool> {
        self.wires.bit(wire)
    }

    /// Whether executing `gate` now would draw from the RNG: it measures
    /// (or discards, or asserts) a qubit whose outcome the tableau does not
    /// fix.
    fn draws_randomness(&self, gate: &Gate) -> bool {
        match gate {
            Gate::QMeas { wire } | Gate::QDiscard { wire } | Gate::QTerm { wire, .. } => self
                .wires
                .slot(*wire)
                .is_ok_and(|slot| self.tab.is_random(slot)),
            _ => false,
        }
    }

    /// Executes one gate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedGate`] for gates outside the Clifford
    /// set (see [`accepts`]), [`SimError::UnknownWire`] for a gate on a wire
    /// with no value, and [`SimError::AssertionFailed`] for violated (or
    /// non-deterministic) termination assertions.
    pub fn apply(&mut self, gate: &Gate) -> Result<(), SimError> {
        wires::apply(self, gate)
    }
}

impl<T: Tableau> Simulator for CliffordSim<T> {
    const NAME: &'static str = "stabilizer";

    fn wires_mut(&mut self) -> &mut Wires {
        &mut self.wires
    }

    fn grow(&mut self) -> usize {
        self.tab.grow()
    }

    fn flip(&mut self, slot: usize) {
        self.tab.gate_x(slot);
    }

    fn measure(&mut self, slot: usize) -> bool {
        self.tab.measure_slot(slot, &mut self.rng).0
    }

    fn assert(&mut self, slot: usize, value: bool) -> Result<(), f64> {
        match self.tab.measure_slot(slot, &mut self.rng) {
            (outcome, true) if outcome == value => Ok(()),
            (_, true) => Err(0.0),
            (_, false) => Err(0.5),
        }
    }

    fn unitary(&mut self, gate: &Gate) -> Result<(), SimError> {
        let unsupported = || SimError::UnsupportedGate {
            gate: gate.describe(),
            simulator: Self::NAME,
        };
        let Gate::QGate {
            name,
            inverted,
            targets,
            controls,
        } = gate
        else {
            return Err(unsupported());
        };
        let (mut ctl, mut quantum, mut negative) = (0, 0, false);
        let fires = self.wires.controls(controls, |slot, positive| {
            ctl = slot;
            quantum += 1;
            negative |= !positive;
        })?;
        if !fires {
            return Ok(());
        }
        let gens = generators(name, *inverted, targets.len(), quantum, negative)
            .ok_or_else(unsupported)?;
        let t = self.wires.slot(targets[0])?;
        let other = match gens {
            [Gen::Swap] => self.wires.slot(targets[1])?,
            _ => ctl,
        };
        for gen in gens {
            match gen {
                Gen::H => self.tab.gate_h(t),
                Gen::S => self.tab.gate_s(t),
                Gen::X => self.tab.gate_x(t),
                Gen::Z => self.tab.gate_z(t),
                Gen::Cnot => self.tab.gate_cnot(ctl, t),
                Gen::Cz => self.tab.gate_cz(ctl, t),
                Gen::Swap if t != other => self.tab.gate_swap(t, other),
                Gen::Swap => {}
            }
        }
        Ok(())
    }
}

/// Runs a Clifford hierarchical circuit, returning the classical values of
/// its outputs (quantum outputs are measured at the end).
///
/// # Errors
///
/// Returns an error for non-Clifford gates, arity mismatches, and violated
/// termination assertions.
pub fn run_clifford(bc: &BCircuit, inputs: &[bool], seed: u64) -> Result<Vec<bool>, SimError> {
    let flat = inline_all(&bc.db, &bc.main)?;
    run_clifford_flat(&flat, inputs, seed)
}

/// Runs an already-flattened Clifford circuit for one shot.
///
/// The reusable single-shot entry point for callers that inline once and
/// replay (shot loops, the `quipper-exec` engine); the flat circuit is only
/// read, so shots can run concurrently over one shared `&Circuit`.
///
/// # Errors
///
/// As for [`run_clifford`], minus inlining errors.
pub fn run_clifford_flat(
    flat: &Circuit,
    inputs: &[bool],
    seed: u64,
) -> Result<Vec<bool>, SimError> {
    run_clifford_flat_tableau::<PackedTableau>(flat, inputs, seed)
}

/// [`run_clifford_flat`] over an explicit tableau backend. Backends draw
/// randomness in the same order, so results are seed-for-seed identical —
/// the property the packed tableau is tested for against
/// [`BoolTableau`](crate::reference::BoolTableau).
///
/// # Errors
///
/// As for [`run_clifford_flat`].
pub fn run_clifford_flat_tableau<T: Tableau>(
    flat: &Circuit,
    inputs: &[bool],
    seed: u64,
) -> Result<Vec<bool>, SimError> {
    let mut st = wires::run(CliffordSim::<T>::new(seed), flat, inputs)?;
    wires::read_outputs(&mut st, &flat.outputs)
}

/// A flat Clifford circuit run up to its first random measurement: the
/// shot-invariant prefix, since [`Tableau::measure_slot`] draws from the RNG
/// only when the outcome is random. A shot restores a scratch simulator to
/// that state and continues.
#[derive(Clone, Debug)]
pub struct EvolvedClifford<'a, T = PackedTableau> {
    flat: &'a Circuit,
    sim: CliffordSim<T>,
    /// First gate of the suffix: `flat.gates[..split]` ran once.
    split: usize,
}

/// Runs `flat` on basis-state `inputs` until a gate would draw from the RNG.
/// `should_stop` is polled between gates; once it returns `true` the run is
/// abandoned with [`SimError::Stopped`].
///
/// # Errors
///
/// As for [`run_clifford_flat`], for errors raised before the first random
/// measurement — which every seed would raise identically.
pub fn evolve_clifford<'a, T: Tableau>(
    flat: &'a Circuit,
    inputs: &[bool],
    should_stop: &dyn Fn() -> bool,
) -> Result<EvolvedClifford<'a, T>, SimError> {
    // Nothing is drawn before the split, so the seed is immaterial.
    let mut sim = CliffordSim::<T>::new(0);
    wires::bind_inputs(&mut sim, &flat.inputs, inputs)?;
    let mut split = flat.gates.len();
    for (i, gate) in flat.gates.iter().enumerate() {
        if should_stop() {
            return Err(SimError::Stopped);
        }
        if sim.draws_randomness(gate) {
            split = i;
            break;
        }
        sim.apply(gate)?;
    }
    Ok(EvolvedClifford { flat, sim, split })
}

impl<T: Tableau + Clone> EvolvedClifford<'_, T> {
    /// How many gates ran once, in the prefix.
    pub fn prefix_ops(&self) -> usize {
        self.split
    }

    /// Finishes one shot under `seed` in `scratch`, which it first restores
    /// to the evolved state, reusing the scratch's allocations: the same
    /// bits, and the same error, as [`run_clifford_flat_tableau`] under that
    /// seed. Any simulator serves as the scratch, an empty
    /// [`CliffordSim::new`] included.
    ///
    /// # Errors
    ///
    /// Whatever the suffix raises.
    pub fn shot(&self, scratch: &mut CliffordSim<T>, seed: u64) -> Result<Vec<bool>, SimError> {
        scratch.tab.clone_from(&self.sim.tab);
        scratch.wires.clone_from(&self.sim.wires);
        scratch.rng = StdRng::seed_from_u64(seed);
        for gate in &self.flat.gates[self.split..] {
            scratch.apply(gate)?;
        }
        wires::read_outputs(scratch, &self.flat.outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quipper::{Circ, Qubit};

    #[test]
    fn deterministic_cnot_chain() {
        let bc = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            c.qnot(a);
            c.cnot(b, a);
            c.measure((a, b))
        });
        let out = run_clifford(&bc, &[false, false], 5).unwrap();
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn bell_pair_is_perfectly_correlated() {
        let bc = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            c.hadamard(a);
            c.cnot(b, a);
            c.measure((a, b))
        });
        let mut seen = [false, false];
        for seed in 0..50 {
            let out = run_clifford(&bc, &[false, false], seed).unwrap();
            assert_eq!(out[0], out[1], "Bell pair outcomes must agree");
            seen[usize::from(out[0])] = true;
        }
        assert!(seen[0] && seen[1], "both outcomes occur");
    }

    #[test]
    fn vv_equals_x() {
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.gate_v(q);
            c.gate_v(q);
            c.measure(q)
        });
        let out = run_clifford(&bc, &[false], 1).unwrap();
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn hh_is_identity_in_tableau() {
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.hadamard(q);
            c.hadamard(q);
            c.measure(q)
        });
        assert_eq!(run_clifford(&bc, &[true], 9).unwrap(), vec![true]);
    }

    #[test]
    fn t_gate_is_rejected() {
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.gate_t(q);
            q
        });
        assert!(matches!(
            run_clifford(&bc, &[false], 0),
            Err(SimError::UnsupportedGate { .. })
        ));
    }

    #[test]
    fn superposed_assertion_fails() {
        let bc = Circ::build(&(), |c, ()| {
            let q = c.qinit_bit(false);
            c.hadamard(q);
            c.qterm_bit(false, q);
        });
        assert!(matches!(
            run_clifford(&bc, &[], 0),
            Err(SimError::AssertionFailed { .. })
        ));
    }

    #[test]
    fn stabilizer_agrees_with_statevector_on_ghz() {
        let bc = Circ::build(&vec![false; 3], |c, qs: Vec<Qubit>| {
            c.hadamard(qs[0]);
            c.cnot(qs[1], qs[0]);
            c.cnot(qs[2], qs[1]);
            c.measure(qs)
        });
        for seed in 0..30 {
            let tab = run_clifford(&bc, &[false; 3], seed).unwrap();
            assert!(
                tab.iter().all(|&b| b == tab[0]),
                "GHZ measurement must agree"
            );
            let sv = crate::statevec::run(&bc, &[false; 3], seed).unwrap();
            let outs = sv.classical_outputs();
            assert!(outs.iter().all(|&b| b == outs[0]));
        }
    }

    /// The tableau keeps working past one word of rows: a 70-qubit GHZ
    /// chain crosses the 64-row capacity boundary and forces a relayout.
    #[test]
    fn ghz_across_word_boundary() {
        const N: usize = 70;
        let bc = Circ::build(&vec![false; N], |c, qs: Vec<Qubit>| {
            c.hadamard(qs[0]);
            for i in 1..N {
                c.cnot(qs[i], qs[i - 1]);
            }
            c.measure(qs)
        });
        for seed in 0..10 {
            let packed = run_clifford(&bc, &[false; N], seed).unwrap();
            assert!(packed.iter().all(|&b| b == packed[0]));
            let flat = inline_all(&bc.db, &bc.main).unwrap();
            let reference = run_clifford_flat_tableau::<crate::reference::BoolTableau>(
                &flat,
                &[false; N],
                seed,
            )
            .unwrap();
            assert_eq!(packed, reference, "backends diverge at seed {seed}");
        }
    }
}
