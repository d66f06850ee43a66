//! The Clifford rules on symplectic bits, written once.
//!
//! A Pauli factor is a pair of bits `(x, z)`: `I = (0, 0)`, `X = (1, 0)`,
//! `Z = (0, 1)`, `Y = (1, 1)`, so that a string of factors is `±` the
//! product of its `X^x Z^z` parts with each `(1, 1)` read as `Y`. The
//! updates below are Aaronson & Gottesman's (CHP): conjugating by a gate
//! rewrites the bits of the wires it acts on and flips the sign bit `r`
//! when the image picks up a `−1`. [`product_phase`] is their `g`, the
//! power of `i` a product of two factors picks up.
//!
//! Every rule is generic over a [`Word`] of independent lanes: `bool` is one
//! factor ([`PauliString`](super::PauliString) runs the rules per wire) and
//! `u64` is 64 tableau rows at once (the stabilizer simulator runs them per
//! word of rows). The rules take every bit by `&mut` so that one-qubit rules
//! share one signature, and two-qubit rules another.

use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A word of lanes the rules run on: one Pauli factor per lane.
pub trait Word:
    Copy + BitAnd<Output = Self> + BitOr<Output = Self> + BitXor<Output = Self> + Not<Output = Self>
{
}

impl Word for bool {}
impl Word for u64 {}

/// A one-qubit rule over `(x, z, r)`.
pub type Rule1q<W> = fn(&mut W, &mut W, &mut W);

/// A two-qubit rule over `(xa, za, xb, zb, r)`.
pub type Rule2q<W> = fn(&mut W, &mut W, &mut W, &mut W, &mut W);

/// Hadamard: `X ↔ Z`, `Y → −Y`.
pub fn h<W: Word>(x: &mut W, z: &mut W, r: &mut W) {
    *r = *r ^ (*x & *z);
    std::mem::swap(x, z);
}

/// Phase `S`: `X → Y`, `Y → −X`, `Z → Z`.
pub fn s<W: Word>(x: &mut W, z: &mut W, r: &mut W) {
    *r = *r ^ (*x & *z);
    *z = *z ^ *x;
}

/// `S† = Z·S`: `X → −Y`, `Y → X`, `Z → Z`.
pub fn s_dag<W: Word>(x: &mut W, z: &mut W, r: &mut W) {
    s(x, z, r);
    self::z(x, z, r);
}

/// Pauli `X`: negates the factors that anticommute with it (`Y`, `Z`).
pub fn x<W: Word>(_x: &mut W, z: &mut W, r: &mut W) {
    *r = *r ^ *z;
}

/// Pauli `Y`: negates the factors that anticommute with it (`X`, `Z`).
pub fn y<W: Word>(x: &mut W, z: &mut W, r: &mut W) {
    *r = *r ^ *x ^ *z;
}

/// Pauli `Z`: negates the factors that anticommute with it (`X`, `Y`).
pub fn z<W: Word>(x: &mut W, _z: &mut W, r: &mut W) {
    *r = *r ^ *x;
}

/// CNOT from control `a` to target `b`: `Xa → XaXb`, `Zb → ZaZb`, `Za` and
/// `Xb` fixed.
pub fn cnot<W: Word>(xa: &mut W, za: &mut W, xb: &mut W, zb: &mut W, r: &mut W) {
    *r = *r ^ (*xa & *zb & !(*xb ^ *za));
    *xb = *xb ^ *xa;
    *za = *za ^ *zb;
}

/// CZ on `a` and `b`: `Xa → XaZb`, `Xb → ZaXb`, `Z` fixed.
pub fn cz<W: Word>(xa: &mut W, za: &mut W, xb: &mut W, zb: &mut W, r: &mut W) {
    *r = *r ^ (*xa & *xb & (*za ^ *zb));
    *za = *za ^ *xb;
    *zb = *zb ^ *xa;
}

/// The lanes where the product of factor `(x1, z1)` by factor `(x2, z2)`
/// picks up `+i` and where it picks up `−i`, as `(plus, minus)`; the other
/// lanes pick up `1`. The product's own bits are `(x1 ^ x2, z1 ^ z2)`.
pub fn product_phase<W: Word>(x1: W, z1: W, x2: W, z2: W) -> (W, W) {
    let (y1, x_only, z_only) = (x1 & z1, x1 & !z1, !x1 & z1);
    // Y·Z = iX, X·Y = iZ, Z·X = iY, and the reversed orders give −i.
    let plus = (y1 & z2 & !x2) | (x_only & x2 & z2) | (z_only & x2 & !z2);
    let minus = (y1 & x2 & !z2) | (x_only & z2 & !x2) | (z_only & x2 & z2);
    (plus, minus)
}
