//! Pauli-string algebra with Clifford conjugation, and phase-polynomial
//! region extraction — the algebraic core of the Pauli-flow static analysis.
//!
//! [`commute.rs`](crate::commute) answers "do these two gates provably
//! commute?" structurally, wire by wire. This module answers the stronger
//! algebraic questions the lint and optimizer passes need:
//!
//! * **Conjugation**: given a Pauli string `P` and a gate `G`, what is
//!   `G P G†`? Exact for the Clifford gates {X, Y, Z, H, S, S†, CNOT
//!   (positive or negative control), CZ, Swap}, for any gate that does not
//!   touch `P`'s support, and for Z-diagonal gates against Z/I strings.
//!   `P` is rewritten in place; everything else is refused (`false`, `P`
//!   unchanged) — sound, not complete, the same trade `commute.rs` makes.
//!   The Clifford images come from [`clifford`], the symplectic-bit rules
//!   the stabilizer simulator's packed tableau runs too, 64 rows at a time.
//! * **Commutation**: two Pauli strings commute iff they anticommute on an
//!   even number of wires (the symplectic form over GF(2)).
//! * **Phase polynomials**: over a region built from {X, CNOT, Swap,
//!   Z-phase} gates, the region's unitary factors as `L ∘ D` where `L` is an
//!   affine-linear reversible map and `D` applies a phase `f_i(⟨m_i,x⟩⊕c_i)`
//!   per phase gate. Terms with the *same* parity function `(m, c)` and the
//!   same gate family compose by adding their exponents, which is what lets
//!   `opt.phasepoly` merge distant T gates and the lint flag identity terms
//!   (QL043). [`phase_groups`] performs that bucketing.
//!
//! Phases are tracked as powers of `i` (mod 4), so the product of any two
//! Pauli strings — and the conjugate of a Hermitian string — stays exact;
//! the `i` a product of two factors picks up is [`clifford::product_phase`].

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

use crate::circuit::Circuit;
use crate::commute::{all_actions, WireAction};
use crate::gate::{Gate, GateName};
use crate::wire::Wire;

pub mod clifford;

/// A single-wire Pauli operator.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Pauli {
    /// Identity.
    I,
    /// Bit flip.
    X,
    /// Bit-and-phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// The symplectic bits `(x, z)` of the factor: `X = (1, 0)`,
    /// `Z = (0, 1)`, `Y = (1, 1)`.
    fn bits(self) -> (bool, bool) {
        (
            matches!(self, Pauli::X | Pauli::Y),
            matches!(self, Pauli::Z | Pauli::Y),
        )
    }

    /// The factor with symplectic bits `(x, z)`.
    fn from_bits(x: bool, z: bool) -> Pauli {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (false, true) => Pauli::Z,
            (true, true) => Pauli::Y,
        }
    }

    /// Whether two single-wire Paulis commute.
    pub fn commutes(self, other: Pauli) -> bool {
        self == Pauli::I || other == Pauli::I || self == other
    }
}

/// A signed multi-wire Pauli operator: `i^phase · ⊗_w ops[w]`, identity on
/// every wire absent from `ops`.
///
/// Stabilizer generators and pushed Pauli frames are Hermitian, so their
/// `phase` is 0 (`+1`) or 2 (`−1`); intermediate products may pass through
/// `±i`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PauliString {
    /// Exponent of `i`, mod 4.
    pub phase: u8,
    /// Non-identity tensor factors, keyed by wire.
    pub ops: BTreeMap<Wire, Pauli>,
}

impl PauliString {
    /// A single-wire Pauli with sign `+1`.
    pub fn single(wire: Wire, p: Pauli) -> PauliString {
        let mut ops = BTreeMap::new();
        if p != Pauli::I {
            ops.insert(wire, p);
        }
        PauliString { phase: 0, ops }
    }

    /// The Pauli on `wire` (identity if untracked).
    pub fn get(&self, wire: Wire) -> Pauli {
        self.ops.get(&wire).copied().unwrap_or(Pauli::I)
    }

    /// Whether the string is the identity operator (any sign).
    pub fn is_identity(&self) -> bool {
        self.ops.is_empty()
    }

    /// Negates the string.
    pub fn negate(&mut self) {
        self.phase = (self.phase + 2) % 4;
    }

    /// The product `self · rhs`, with exact `i`-phase tracking.
    pub fn mul(&self, rhs: &PauliString) -> PauliString {
        let mut out = self.clone();
        out.phase = (out.phase + rhs.phase) % 4;
        for (&w, &p) in &rhs.ops {
            let ((x1, z1), (x2, z2)) = (out.get(w).bits(), p.bits());
            let (plus, minus) = clifford::product_phase(x1, z1, x2, z2);
            out.phase = (out.phase + u8::from(plus) + 3 * u8::from(minus)) % 4;
            out.set(w, Pauli::from_bits(x1 ^ x2, z1 ^ z2));
        }
        out
    }

    /// Whether `self` and `rhs` commute: they anticommute on an even number
    /// of shared wires (the symplectic form).
    pub fn commutes_with(&self, rhs: &PauliString) -> bool {
        let anti = self
            .ops
            .iter()
            .filter(|(w, p)| !p.commutes(rhs.get(**w)))
            .count();
        anti % 2 == 0
    }

    /// Sets `wire` to `p`, dropping identity entries.
    fn set(&mut self, wire: Wire, p: Pauli) {
        if p == Pauli::I {
            self.ops.remove(&wire);
        } else {
            self.ops.insert(wire, p);
        }
    }

    /// Runs a one-qubit rule of [`clifford`] on the factor on `wire`.
    fn rule_1q(&mut self, wire: Wire, rule: clifford::Rule1q<bool>) {
        let ((mut x, mut z), mut r) = (self.get(wire).bits(), false);
        rule(&mut x, &mut z, &mut r);
        self.set(wire, Pauli::from_bits(x, z));
        if r {
            self.negate();
        }
    }

    /// Runs a two-qubit rule of [`clifford`] on the factors on `a` and `b`.
    fn rule_2q(&mut self, a: Wire, b: Wire, rule: clifford::Rule2q<bool>) {
        let ((mut xa, mut za), (mut xb, mut zb)) = (self.get(a).bits(), self.get(b).bits());
        let mut r = false;
        rule(&mut xa, &mut za, &mut xb, &mut zb, &mut r);
        self.set(a, Pauli::from_bits(xa, za));
        self.set(b, Pauli::from_bits(xb, zb));
        if r {
            self.negate();
        }
    }

    /// Conjugates the string in place, `self ← G · self · G†`. Returns
    /// `false` when the gate is outside the supported Clifford fragment
    /// (relative to this string): the string is then left unchanged, and
    /// the caller drops it.
    ///
    /// Three tiers are handled exactly:
    /// 1. gates disjoint from the string's support leave it unchanged;
    /// 2. the Clifford gates X/Y/Z/H/S/S†/CNOT/CZ run their [`clifford`]
    ///    rule (a negative control is an X rule on each side), and Swap
    ///    exchanges two factors;
    /// 3. any all-Z-diagonal gate (T, controlled phases, Z rotations,
    ///    GPhase) fixes a string that is Z or I on every wire it touches.
    pub fn conjugate(&mut self, gate: &Gate) -> bool {
        let mut touches = false;
        gate.for_each_wire(&mut |w| touches |= self.ops.contains_key(&w));
        if !touches {
            return true;
        }
        match gate {
            Gate::QGate {
                name,
                inverted,
                targets,
                controls,
            } => match (name, controls.len()) {
                (GateName::X | GateName::Y | GateName::Z | GateName::H | GateName::S, 0) => {
                    let rule: clifford::Rule1q<bool> = match (name, inverted) {
                        (GateName::H, _) => clifford::h,
                        (GateName::S, false) => clifford::s,
                        (GateName::S, true) => clifford::s_dag,
                        (GateName::X, _) => clifford::x,
                        (GateName::Y, _) => clifford::y,
                        _ => clifford::z,
                    };
                    for &t in targets {
                        self.rule_1q(t, rule);
                    }
                    true
                }
                (GateName::Swap, 0) => {
                    let [a, b] = targets[..] else { return false };
                    let (pa, pb) = (self.get(a), self.get(b));
                    self.set(a, pb);
                    self.set(b, pa);
                    true
                }
                (GateName::X | GateName::Z, 1) => {
                    let c = controls[0];
                    if targets.contains(&c.wire) {
                        return false; // malformed self-control; stay conservative
                    }
                    let rule: clifford::Rule2q<bool> = if *name == GateName::X {
                        clifford::cnot
                    } else {
                        clifford::cz
                    };
                    // A negative control is the positive one between two Xs.
                    if !c.positive {
                        self.rule_1q(c.wire, clifford::x);
                    }
                    for &t in targets {
                        self.rule_2q(c.wire, t, rule);
                    }
                    if !c.positive {
                        self.rule_1q(c.wire, clifford::x);
                    }
                    true
                }
                _ => self.fixed_by_diagonal(gate),
            },
            Gate::QRot { .. } | Gate::GPhase { .. } => self.fixed_by_diagonal(gate),
            _ => false,
        }
    }

    /// Tier 3: a gate diagonal in the computational basis on every wire it
    /// touches fixes any string that is Z/I on those wires.
    fn fixed_by_diagonal(&self, gate: &Gate) -> bool {
        all_actions(gate, |w, a| {
            a == WireAction::ZDiagonal && matches!(self.get(w), Pauli::I | Pauli::Z)
        })
    }
}

// ---------------------------------------------------------------------
// Phase-polynomial regions
// ---------------------------------------------------------------------

/// Which mergeable family a phase term belongs to. Named gates compose in
/// exact π/4 units; rotation families compose by adding angles. Families are
/// never merged with each other — `T` and `exp(-iπ/8·Z)` differ by a global
/// phase, which would be unsound to introduce inside a subroutine body.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PhaseFamily {
    /// Z/S/T and their inverses, in units of π/4 (T=1, S=2, Z=4, mod 8).
    Named,
    /// A rotation family such as `"exp(-i%Z)"` or `"R(%)"`; angles add.
    Rot(Arc<str>),
}

/// An affine parity over the region's entry values: `⟨mask, x⟩ ⊕ flip`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Parity {
    /// Wires whose region-entry value participates in the parity.
    pub mask: BTreeSet<Wire>,
    /// Constant term, flipped by uncontrolled X gates.
    pub flip: bool,
}

impl Parity {
    fn fresh(w: Wire) -> Parity {
        Parity {
            mask: [w].into_iter().collect(),
            flip: false,
        }
    }

    fn xor_in(&mut self, other: &Parity, extra_flip: bool) {
        for &w in &other.mask {
            if !self.mask.remove(&w) {
                self.mask.insert(w);
            }
        }
        self.flip ^= other.flip ^ extra_flip;
    }
}

/// A bucket of phase gates acting on the *same* parity function with the
/// same family, within one barrier-delimited region. Replacing every member
/// by a single gate carrying the net phase — at the first member's position
/// and wire — preserves the region's unitary exactly.
#[derive(Clone, Debug)]
pub struct PhaseGroup {
    /// Gate indices of the members, ascending.
    pub members: Vec<usize>,
    /// The parity function all members share.
    pub parity: Parity,
    /// The family they compose in.
    pub family: PhaseFamily,
    /// Target wire of the first member (its parity at that point *is*
    /// `parity`, so a replacement gate can be emitted there).
    pub wire: Wire,
    /// Net named phase in π/4 units, mod 8 (0 ⇒ the group is the identity).
    pub units: u8,
    /// Net rotation angle (sign folds in gate inversion).
    pub angle: f64,
}

impl PhaseGroup {
    /// Whether the group's net phase is the identity.
    pub fn is_identity(&self) -> bool {
        match self.family {
            PhaseFamily::Named => self.units == 0,
            PhaseFamily::Rot(_) => {
                let tau = std::f64::consts::TAU;
                let r = self.angle.rem_euclid(tau);
                r.min(tau - r) < 1e-12
            }
        }
    }
}

/// Rotation families that are pure Z-phases and compose by angle addition.
const MERGEABLE_ROTS: &[&str] = &["exp(-i%Z)", "R(%)"];

/// The named phase gate's exponent in π/4 units, if it is one.
pub fn named_units(name: &GateName, inverted: bool) -> Option<u8> {
    let u = match name {
        GateName::T => 1,
        GateName::S => 2,
        GateName::Z => 4,
        _ => return None,
    };
    Some(if inverted { (8 - u) % 8 } else { u })
}

/// The shortest gate sequence realizing a net phase of `units`·π/4 on
/// `wire`: at most two gates, empty when `units ≡ 0`.
pub fn gates_for_units(units: u8, wire: Wire) -> Vec<Gate> {
    let named = |name: GateName, inverted: bool| Gate::QGate {
        name,
        inverted,
        targets: vec![wire],
        controls: vec![],
    };
    match units % 8 {
        0 => vec![],
        1 => vec![named(GateName::T, false)],
        2 => vec![named(GateName::S, false)],
        3 => vec![named(GateName::S, false), named(GateName::T, false)],
        4 => vec![named(GateName::Z, false)],
        5 => vec![named(GateName::Z, false), named(GateName::T, false)],
        6 => vec![named(GateName::S, true)],
        _ => vec![named(GateName::T, true)],
    }
}

/// Whether [`phase_groups`] records `gate` as a phase term: an uncontrolled
/// single-target Z/S/T, or an uncontrolled single-target rotation in
/// [`MERGEABLE_ROTS`]. It is the guard under which `phase_groups` records
/// a gate, so a scope with fewer than two has no group to merge.
pub fn is_phase_term(gate: &Gate) -> bool {
    match gate {
        Gate::QGate {
            name: GateName::Z | GateName::S | GateName::T,
            targets,
            controls,
            ..
        } => controls.is_empty() && targets.len() == 1,
        Gate::QRot {
            name,
            targets,
            controls,
            ..
        } => controls.is_empty() && targets.len() == 1 && MERGEABLE_ROTS.contains(&name.as_ref()),
        _ => false,
    }
}

/// Scans `circuit` for phase-polynomial regions and returns every bucket of
/// same-parity phase gates found (including single-member buckets, so the
/// lint can flag lone identity rotations).
///
/// Region members: uncontrolled or singly-controlled X (affine update of the
/// target parity), uncontrolled Swap (parity exchange), uncontrolled
/// single-target Z/S/T and the rotations in [`MERGEABLE_ROTS`] (phase
/// terms). Any other Z-diagonal gate is a *spectator* — it stays in place
/// and neither ends the region nor merges, which is sound because every
/// phase term commutes with every other diagonal factor. Anything else is a
/// barrier that flushes the region.
pub fn phase_groups(circuit: &Circuit) -> Vec<PhaseGroup> {
    let mut out: Vec<PhaseGroup> = Vec::new();
    let mut parities: BTreeMap<Wire, Parity> = BTreeMap::new();
    let mut open: Vec<PhaseGroup> = Vec::new();
    let mut index: BTreeMap<(Vec<Wire>, bool, PhaseFamily), usize> = BTreeMap::new();

    let flush = |parities: &mut BTreeMap<Wire, Parity>,
                 open: &mut Vec<PhaseGroup>,
                 index: &mut BTreeMap<(Vec<Wire>, bool, PhaseFamily), usize>,
                 out: &mut Vec<PhaseGroup>| {
        parities.clear();
        index.clear();
        out.append(open);
    };

    for (idx, gate) in circuit.gates.iter().enumerate() {
        let parity_of = |parities: &mut BTreeMap<Wire, Parity>, w: Wire| {
            parities
                .entry(w)
                .or_insert_with(|| Parity::fresh(w))
                .clone()
        };
        let record = |parities: &mut BTreeMap<Wire, Parity>,
                      open: &mut Vec<PhaseGroup>,
                      index: &mut BTreeMap<(Vec<Wire>, bool, PhaseFamily), usize>,
                      wire: Wire,
                      family: PhaseFamily,
                      units: u8,
                      angle: f64| {
            let p = parity_of(parities, wire);
            let key = (p.mask.iter().copied().collect(), p.flip, family.clone());
            match index.get(&key) {
                Some(&g) => {
                    open[g].members.push(idx);
                    open[g].units = (open[g].units + units) % 8;
                    open[g].angle += angle;
                }
                None => {
                    index.insert(key, open.len());
                    open.push(PhaseGroup {
                        members: vec![idx],
                        parity: p,
                        family,
                        wire,
                        units,
                        angle,
                    });
                }
            }
        };

        match gate {
            Gate::Comment { .. } => {}
            Gate::QGate {
                name,
                inverted,
                targets,
                controls,
            } => match (name, controls.len()) {
                (GateName::X, 0) => {
                    for &t in targets {
                        parities.entry(t).or_insert_with(|| Parity::fresh(t)).flip ^= true;
                    }
                }
                (GateName::X, 1) if !targets.contains(&controls[0].wire) => {
                    let c = controls[0];
                    // t ← t ⊕ c (positive) or t ⊕ ¬c (negative): affine.
                    let cp = parity_of(&mut parities, c.wire);
                    for &t in targets {
                        let tp = parities.entry(t).or_insert_with(|| Parity::fresh(t));
                        tp.xor_in(&cp, !c.positive);
                    }
                }
                (GateName::Swap, 0) if targets.len() == 2 => {
                    let (a, b) = (targets[0], targets[1]);
                    let pa = parity_of(&mut parities, a);
                    let pb = parity_of(&mut parities, b);
                    parities.insert(a, pb);
                    parities.insert(b, pa);
                }
                _ if is_phase_term(gate) => {
                    let units = named_units(name, *inverted).expect("Z/S/T have units");
                    record(
                        &mut parities,
                        &mut open,
                        &mut index,
                        targets[0],
                        PhaseFamily::Named,
                        units,
                        0.0,
                    );
                }
                _ => {
                    if !is_spectator(gate) {
                        flush(&mut parities, &mut open, &mut index, &mut out);
                    }
                }
            },
            Gate::QRot {
                name,
                inverted,
                angle,
                targets,
                ..
            } if is_phase_term(gate) => {
                let signed = if *inverted { -*angle } else { *angle };
                record(
                    &mut parities,
                    &mut open,
                    &mut index,
                    targets[0],
                    PhaseFamily::Rot(name.clone()),
                    0,
                    signed,
                );
            }
            _ => {
                if !is_spectator(gate) {
                    flush(&mut parities, &mut open, &mut index, &mut out);
                }
            }
        }
    }
    flush(&mut parities, &mut open, &mut index, &mut out);
    out
}

/// A spectator is diagonal in the computational basis on every wire it
/// touches (controlled phases, `R(2pi/%)`, GPhase …): it commutes with the
/// diagonal factor of the region, so merging phase terms across it is sound.
fn is_spectator(gate: &Gate) -> bool {
    if matches!(
        gate,
        Gate::QInit { .. }
            | Gate::QTerm { .. }
            | Gate::CInit { .. }
            | Gate::CTerm { .. }
            | Gate::QMeas { .. }
            | Gate::QDiscard { .. }
            | Gate::CDiscard { .. }
            | Gate::CGate { .. }
            | Gate::Subroutine { .. }
    ) {
        return false;
    }
    let mut touches = false;
    let diagonal = all_actions(gate, |_, a| {
        touches = true;
        a == WireAction::ZDiagonal
    });
    diagonal && (touches || matches!(gate, Gate::GPhase { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::wire::{Control, WireType};

    // ---- complex matrix scaffolding (tests only) ----

    type C = (f64, f64);
    type Mat = Vec<Vec<C>>;

    fn cmul(a: C, b: C) -> C {
        (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
    }
    fn cadd(a: C, b: C) -> C {
        (a.0 + b.0, a.1 + b.1)
    }

    fn matmul(a: &Mat, b: &Mat) -> Mat {
        let n = a.len();
        let mut out = vec![vec![(0.0, 0.0); n]; n];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                for k in 0..n {
                    *cell = cadd(*cell, cmul(a[i][k], b[k][j]));
                }
            }
        }
        out
    }

    fn dagger(a: &Mat) -> Mat {
        let n = a.len();
        (0..n)
            .map(|i| (0..n).map(|j| (a[j][i].0, -a[j][i].1)).collect())
            .collect()
    }

    fn kron(a: &Mat, b: &Mat) -> Mat {
        let (n, m) = (a.len(), b.len());
        let mut out = vec![vec![(0.0, 0.0); n * m]; n * m];
        for i in 0..n {
            for j in 0..n {
                for k in 0..m {
                    for l in 0..m {
                        out[i * m + k][j * m + l] = cmul(a[i][j], b[k][l]);
                    }
                }
            }
        }
        out
    }

    fn scale(s: C, a: &Mat) -> Mat {
        a.iter()
            .map(|row| row.iter().map(|&x| cmul(s, x)).collect())
            .collect()
    }

    fn approx_eq(a: &Mat, b: &Mat) -> bool {
        a.iter().zip(b).all(|(ra, rb)| {
            ra.iter()
                .zip(rb)
                .all(|(x, y)| (x.0 - y.0).abs() < 1e-12 && (x.1 - y.1).abs() < 1e-12)
        })
    }

    fn pauli_mat(p: Pauli) -> Mat {
        match p {
            Pauli::I => vec![vec![(1.0, 0.0), (0.0, 0.0)], vec![(0.0, 0.0), (1.0, 0.0)]],
            Pauli::X => vec![vec![(0.0, 0.0), (1.0, 0.0)], vec![(1.0, 0.0), (0.0, 0.0)]],
            Pauli::Y => vec![vec![(0.0, 0.0), (0.0, -1.0)], vec![(0.0, 1.0), (0.0, 0.0)]],
            Pauli::Z => vec![vec![(1.0, 0.0), (0.0, 0.0)], vec![(0.0, 0.0), (-1.0, 0.0)]],
        }
    }

    fn i_pow(k: u8) -> C {
        match k % 4 {
            0 => (1.0, 0.0),
            1 => (0.0, 1.0),
            2 => (-1.0, 0.0),
            _ => (0.0, -1.0),
        }
    }

    /// The matrix of a PauliString over wires `[0, 1)` or `[0, 2)`.
    fn string_mat(s: &PauliString, wires: &[Wire]) -> Mat {
        let mut m = pauli_mat(s.get(wires[0]));
        for &w in &wires[1..] {
            m = kron(&m, &pauli_mat(s.get(w)));
        }
        scale(i_pow(s.phase), &m)
    }

    fn gate_1q_mat(name: &GateName, inverted: bool) -> Mat {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        match name {
            GateName::H => vec![vec![(h, 0.0), (h, 0.0)], vec![(h, 0.0), (-h, 0.0)]],
            GateName::S if !inverted => {
                vec![vec![(1.0, 0.0), (0.0, 0.0)], vec![(0.0, 0.0), (0.0, 1.0)]]
            }
            GateName::S => vec![vec![(1.0, 0.0), (0.0, 0.0)], vec![(0.0, 0.0), (0.0, -1.0)]],
            GateName::X => pauli_mat(Pauli::X),
            GateName::Y => pauli_mat(Pauli::Y),
            GateName::Z => pauli_mat(Pauli::Z),
            GateName::T if !inverted => {
                let c = std::f64::consts::FRAC_PI_4;
                vec![
                    vec![(1.0, 0.0), (0.0, 0.0)],
                    vec![(0.0, 0.0), (c.cos(), c.sin())],
                ]
            }
            _ => unreachable!(),
        }
    }

    /// |c t⟩ basis with wire order `[c, t]`; `negative` flips the firing value.
    fn cnot_mat(negative: bool) -> Mat {
        let mut m = vec![vec![(0.0, 0.0); 4]; 4];
        for c in 0..2usize {
            for t in 0..2usize {
                let fires = if negative { c == 0 } else { c == 1 };
                let t2 = if fires { t ^ 1 } else { t };
                m[c * 2 + t2][c * 2 + t] = (1.0, 0.0);
            }
        }
        m
    }

    fn cz_mat() -> Mat {
        let mut m = vec![vec![(0.0, 0.0); 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = if i == 3 { (-1.0, 0.0) } else { (1.0, 0.0) };
        }
        m
    }

    fn swap_mat() -> Mat {
        let mut m = vec![vec![(0.0, 0.0); 4]; 4];
        for c in 0..2usize {
            for t in 0..2usize {
                m[t * 2 + c][c * 2 + t] = (1.0, 0.0);
            }
        }
        m
    }

    fn all_strings_2q() -> Vec<PauliString> {
        let ps = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];
        let mut out = Vec::new();
        for &a in &ps {
            for &b in &ps {
                let s = PauliString::single(Wire(0), a).mul(&PauliString::single(Wire(1), b));
                out.push(s);
            }
        }
        out
    }

    #[test]
    fn products_track_phase_exactly() {
        let x = PauliString::single(Wire(0), Pauli::X);
        let z = PauliString::single(Wire(0), Pauli::Z);
        let xz = x.mul(&z);
        // X·Z = −iY.
        assert_eq!(xz.get(Wire(0)), Pauli::Y);
        assert_eq!(xz.phase, 3);
        // (X·Z)·(Z·X) = X·X = I (phases cancel: −i · i = 1).
        let zx = z.mul(&x);
        let one = xz.mul(&zx);
        assert!(one.is_identity() && one.phase == 0);
    }

    #[test]
    fn products_match_matrices() {
        let ps = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];
        for a in ps {
            for b in ps {
                let (sa, sb) = (
                    PauliString::single(Wire(0), a),
                    PauliString::single(Wire(0), b),
                );
                let lhs = matmul(&string_mat(&sa, &[Wire(0)]), &string_mat(&sb, &[Wire(0)]));
                let rhs = string_mat(&sa.mul(&sb), &[Wire(0)]);
                assert!(approx_eq(&lhs, &rhs), "{a:?}·{b:?}: product disagrees");
            }
        }
    }

    #[test]
    fn symplectic_commutation_matches_matrices() {
        for a in all_strings_2q() {
            for b in all_strings_2q() {
                let (ma, mb) = (
                    string_mat(&a, &[Wire(0), Wire(1)]),
                    string_mat(&b, &[Wire(0), Wire(1)]),
                );
                let claim = a.commutes_with(&b);
                assert_eq!(
                    approx_eq(&matmul(&ma, &mb), &matmul(&mb, &ma)),
                    claim,
                    "commutes_with disagrees with matrices on {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn one_qubit_conjugation_tables_match_matrices() {
        let gates = [
            (GateName::H, false),
            (GateName::S, false),
            (GateName::S, true),
            (GateName::X, false),
            (GateName::Y, false),
            (GateName::Z, false),
        ];
        for (name, inverted) in gates {
            let g = gate_1q_mat(&name, inverted);
            for p in [Pauli::X, Pauli::Y, Pauli::Z] {
                let s = PauliString::single(Wire(0), p);
                let gate = Gate::QGate {
                    name: name.clone(),
                    inverted,
                    targets: vec![Wire(0)],
                    controls: vec![],
                };
                let mut conj = s.clone();
                assert!(conj.conjugate(&gate), "Clifford");
                let lhs = matmul(&matmul(&g, &string_mat(&s, &[Wire(0)])), &dagger(&g));
                let rhs = string_mat(&conj, &[Wire(0)]);
                assert!(
                    approx_eq(&lhs, &rhs),
                    "{name:?} inverted={inverted} on {p:?}: table disagrees with matrices"
                );
            }
        }
    }

    #[test]
    fn two_qubit_conjugation_tables_match_matrices() {
        let cnot = Gate::cnot(Wire(1), Wire(0));
        let cnot_neg = Gate::QGate {
            name: GateName::X,
            inverted: false,
            targets: vec![Wire(1)],
            controls: vec![Control::negative(Wire(0))],
        };
        let cz = Gate::QGate {
            name: GateName::Z,
            inverted: false,
            targets: vec![Wire(1)],
            controls: vec![Control::positive(Wire(0))],
        };
        let swap = Gate::QGate {
            name: GateName::Swap,
            inverted: false,
            targets: vec![Wire(0), Wire(1)],
            controls: vec![],
        };
        let cases: [(&Gate, Mat); 4] = [
            (&cnot, cnot_mat(false)),
            (&cnot_neg, cnot_mat(true)),
            (&cz, cz_mat()),
            (&swap, swap_mat()),
        ];
        for (gate, g) in &cases {
            for s in all_strings_2q() {
                let mut conj = s.clone();
                assert!(conj.conjugate(gate), "Clifford");
                let lhs = matmul(&matmul(g, &string_mat(&s, &[Wire(0), Wire(1)])), &dagger(g));
                let rhs = string_mat(&conj, &[Wire(0), Wire(1)]);
                assert!(
                    approx_eq(&lhs, &rhs),
                    "{}: conjugation of {s:?} disagrees with matrices",
                    gate.describe()
                );
            }
        }
    }

    #[test]
    fn diagonal_gates_fix_z_strings() {
        let t = Gate::unary(GateName::T, Wire(0));
        let z = PauliString::single(Wire(0), Pauli::Z);
        let mut conj = z.clone();
        assert!(conj.conjugate(&t));
        assert_eq!(conj, z);
        // …and the matrices agree.
        let g = gate_1q_mat(&GateName::T, false);
        let lhs = matmul(&matmul(&g, &string_mat(&z, &[Wire(0)])), &dagger(&g));
        assert!(approx_eq(&lhs, &string_mat(&z, &[Wire(0)])));
        // X does not survive a T conjugation in this fragment, and a
        // refused conjugation leaves the string as it was.
        let x = PauliString::single(Wire(0), Pauli::X);
        let mut conj = x.clone();
        assert!(!conj.conjugate(&t));
        assert_eq!(conj, x);
        // Disjoint support is always fine.
        let far = PauliString::single(Wire(7), Pauli::X);
        let mut conj = far.clone();
        assert!(conj.conjugate(&t));
        assert_eq!(conj, far);
    }

    // ---- phase-polynomial regions ----

    fn q(w: u32) -> (Wire, WireType) {
        (Wire(w), WireType::Quantum)
    }

    #[test]
    fn t_gates_merge_across_restored_parity() {
        // T(0); CNOT(1←0); T(1); CNOT(1←0); T(0): wire 0 holds parity x0 at
        // gates 0 and 4 → one Named group of two; the T on x0⊕x1 is its own.
        let mut c = Circuit::with_inputs(vec![q(0), q(1)]);
        c.gates.push(Gate::unary(GateName::T, Wire(0)));
        c.gates.push(Gate::cnot(Wire(1), Wire(0)));
        c.gates.push(Gate::unary(GateName::T, Wire(1)));
        c.gates.push(Gate::cnot(Wire(1), Wire(0)));
        c.gates.push(Gate::unary(GateName::T, Wire(0)));
        let groups = phase_groups(&c);
        assert_eq!(groups.len(), 2);
        let pair = groups.iter().find(|g| g.members.len() == 2).unwrap();
        assert_eq!(pair.members, vec![0, 4]);
        assert_eq!(pair.units, 2); // T·T = S
        let lone = groups.iter().find(|g| g.members.len() == 1).unwrap();
        assert_eq!(lone.members, vec![2]);
        assert_eq!(lone.parity.mask.len(), 2);
    }

    #[test]
    fn barriers_split_regions_and_x_flips_const() {
        let mut c = Circuit::with_inputs(vec![q(0)]);
        c.gates.push(Gate::unary(GateName::T, Wire(0)));
        c.gates.push(Gate::unary(GateName::X, Wire(0)));
        c.gates.push(Gate::unary(GateName::T, Wire(0))); // parity ¬x0: new group
        c.gates.push(Gate::unary(GateName::H, Wire(0))); // barrier
        c.gates.push(Gate::unary(GateName::T, Wire(0))); // fresh region
        let groups = phase_groups(&c);
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|g| g.members.len() == 1));
        let flipped = groups.iter().find(|g| g.members == vec![2]).unwrap();
        assert!(flipped.parity.flip);
    }

    #[test]
    fn inverse_rotations_form_identity_group() {
        let rz = |angle: f64, inverted: bool| Gate::QRot {
            name: "exp(-i%Z)".into(),
            inverted,
            angle,
            targets: vec![Wire(0)],
            controls: vec![],
        };
        let mut c = Circuit::with_inputs(vec![q(0), q(1)]);
        c.gates.push(rz(0.37, false));
        c.gates.push(Gate::cnot(Wire(0), Wire(1)));
        c.gates.push(Gate::cnot(Wire(0), Wire(1)));
        c.gates.push(rz(0.37, true));
        let groups = phase_groups(&c);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, vec![0, 3]);
        assert!(groups[0].is_identity());
    }

    #[test]
    fn spectators_do_not_break_regions() {
        // A controlled-T between two T gates on the same parity: the pair
        // still merges across it.
        let mut c = Circuit::with_inputs(vec![q(0), q(1)]);
        c.gates.push(Gate::unary(GateName::T, Wire(0)));
        c.gates.push(Gate::QGate {
            name: GateName::T,
            inverted: false,
            targets: vec![Wire(1)],
            controls: vec![Control::positive(Wire(0))],
        });
        c.gates.push(Gate::unary(GateName::T, Wire(0)));
        let groups = phase_groups(&c);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, vec![0, 2]);
    }

    #[test]
    fn units_synthesis_is_minimal_and_total() {
        for units in 0u8..8 {
            let gates = gates_for_units(units, Wire(0));
            assert!(gates.len() <= 2);
            let mut m = vec![vec![(1.0, 0.0), (0.0, 0.0)], vec![(0.0, 0.0), (1.0, 0.0)]];
            for g in &gates {
                let Gate::QGate { name, inverted, .. } = g else {
                    panic!("named synthesis emits QGates")
                };
                let gm = match name {
                    GateName::T if *inverted => dagger(&gate_1q_mat(&GateName::T, false)),
                    GateName::S if *inverted => gate_1q_mat(&GateName::S, true),
                    n => gate_1q_mat(n, false),
                };
                m = matmul(&gm, &m);
            }
            let want = {
                let a = f64::from(units) * std::f64::consts::FRAC_PI_4;
                vec![
                    vec![(1.0, 0.0), (0.0, 0.0)],
                    vec![(0.0, 0.0), (a.cos(), a.sin())],
                ]
            };
            assert!(approx_eq(&m, &want), "units={units}");
        }
    }
}
