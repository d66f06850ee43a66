//! The abstract domain of the assertive-termination pass.
//!
//! Each live wire is mapped to an [`AbsVal`] describing what the analysis
//! knows about its state for *computational basis* inputs (the only inputs
//! the execution engine supplies — see `Job::inputs`):
//!
//! * [`AbsVal::Bool`] — the wire is, on every run, in the basis state
//!   |e(x)⟩ where `e` is a boolean function of the symbolic input variables
//!   `x`, and the wire is unentangled with the rest of the system. The
//!   constants |0⟩ and |1⟩ are the special case of a constant `e`; tracking
//!   full expressions is what lets the pass prove Bennett-style
//!   compute/use/uncompute oracles clean.
//! * [`AbsVal::AnyBasis`] — a basis state on every run, but the value is no
//!   longer tracked (expression blow-up, measurement outcomes, unknown
//!   classical gates). Still unentangled.
//! * [`AbsVal::Stab`] — an unentangled single-qubit pure state: the
//!   "stabilizer" tier of the lattice, generalized to any separable state a
//!   single-qubit unitary can produce (H, V, T, arbitrary rotations).
//! * [`AbsVal::Top`] — anything, possibly entangled with other wires.
//!
//! The order is `Bool ⊑ AnyBasis ⊑ Stab ⊑ Top`; there is no explicit ⊥
//! because dead wires are simply absent from the state map.
//!
//! Expressions are kept in algebraic normal form (constant ⊕ XOR of AND
//! monomials), which makes X/CNOT/Toffoli chains — the entire output of the
//! classical oracle synthesizer — exactly representable, with a hard size cap
//! ([`MAX_MONOMIALS`]) beyond which values degrade to `AnyBasis` instead of
//! exploding.

use std::collections::BTreeSet;

/// A symbolic boolean variable: the basis value of one circuit input.
pub type Var = u32;

/// Cap on the number of AND monomials in one expression. Crossing the cap
/// degrades the wire to [`AbsVal::AnyBasis`] — soundness is preserved, only
/// precision is lost.
pub const MAX_MONOMIALS: usize = 48;

/// A boolean expression in algebraic normal form:
/// `constant ⊕ m₁ ⊕ m₂ ⊕ …` where each monomial `mᵢ` is an AND of distinct
/// variables. Monomials are kept sorted and duplicate-free, so structural
/// equality is semantic equality.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BExpr {
    constant: bool,
    /// Sorted list of sorted, distinct variable sets; never contains the
    /// empty monomial (that is `constant`) and never contains duplicates.
    monomials: Vec<Vec<Var>>,
}

impl BExpr {
    /// The constant expression `b`.
    pub fn constant(b: bool) -> BExpr {
        BExpr {
            constant: b,
            monomials: Vec::new(),
        }
    }

    /// The single-variable expression `v`.
    pub fn var(v: Var) -> BExpr {
        BExpr {
            constant: false,
            monomials: vec![vec![v]],
        }
    }

    /// `Some(b)` iff the expression is the constant `b`.
    pub fn as_const(&self) -> Option<bool> {
        self.monomials.is_empty().then_some(self.constant)
    }

    /// Logical negation (free in ANF: flip the constant).
    pub fn not(&self) -> BExpr {
        BExpr {
            constant: !self.constant,
            monomials: self.monomials.clone(),
        }
    }

    /// Exclusive or; `None` if the result exceeds [`MAX_MONOMIALS`].
    pub fn xor(&self, other: &BExpr) -> Option<BExpr> {
        // Symmetric difference of two sorted monomial lists.
        let mut out = Vec::with_capacity(self.monomials.len() + other.monomials.len());
        let (mut i, mut j) = (0, 0);
        while i < self.monomials.len() && j < other.monomials.len() {
            match self.monomials[i].cmp(&other.monomials[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.monomials[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.monomials[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.monomials[i..]);
        out.extend_from_slice(&other.monomials[j..]);
        (out.len() <= MAX_MONOMIALS).then_some(BExpr {
            constant: self.constant ^ other.constant,
            monomials: out,
        })
    }

    /// Logical and; `None` if the result exceeds [`MAX_MONOMIALS`].
    pub fn and(&self, other: &BExpr) -> Option<BExpr> {
        // A constant operand decides the product: `0 ∧ e = 0`, `1 ∧ e = e`
        // (already within the cap, and already in normal form).
        match (self.as_const(), other.as_const()) {
            (Some(false), _) | (_, Some(false)) => return Some(BExpr::constant(false)),
            (Some(true), _) => return Some(other.clone()),
            (_, Some(true)) => return Some(self.clone()),
            (None, None) => {}
        }
        // Distribute: every pair of terms (treating the constant true as the
        // empty monomial) multiplies to the union of their variable sets;
        // equal products cancel pairwise (x ⊕ x = 0).
        let mut acc: std::collections::BTreeMap<Vec<Var>, bool> = std::collections::BTreeMap::new();
        for a in self.terms() {
            for b in other.terms() {
                let m = union_sorted(a, b);
                let parity = acc.entry(m).or_insert(false);
                *parity = !*parity;
            }
        }
        let mut constant = false;
        let mut monomials = Vec::new();
        for (m, parity) in acc {
            if parity {
                if m.is_empty() {
                    constant = true;
                } else {
                    monomials.push(m);
                }
            }
        }
        (monomials.len() <= MAX_MONOMIALS).then_some(BExpr {
            constant,
            monomials,
        })
    }

    /// Substitutes every variable via `lookup`; `None` if a variable has no
    /// substitution or the result blows past the cap.
    pub fn subst<'e>(&self, lookup: impl Fn(Var) -> Option<&'e BExpr>) -> Option<BExpr> {
        // Every substituted value a constant: evaluate, with no ANF
        // arithmetic. The first symbolic one hands over to the general path.
        let mut value = self.constant;
        for m in &self.monomials {
            let mut product = true;
            for &v in m {
                match lookup(v)?.as_const() {
                    Some(b) => product &= b,
                    None => return self.subst_symbolic(lookup),
                }
            }
            value ^= product;
        }
        Some(BExpr::constant(value))
    }

    /// [`BExpr::subst`] by ANF arithmetic, for any substituted values.
    fn subst_symbolic<'e>(&self, lookup: impl Fn(Var) -> Option<&'e BExpr>) -> Option<BExpr> {
        let mut acc = BExpr::constant(self.constant);
        for m in &self.monomials {
            let mut term = BExpr::constant(true);
            for &v in m {
                term = term.and(lookup(v)?)?;
            }
            acc = acc.xor(&term)?;
        }
        Some(acc)
    }

    /// The set of variables the expression depends on.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.monomials.iter().flatten().copied().collect()
    }

    /// All product terms, with the constant `true` contributing the empty
    /// monomial.
    fn terms(&self) -> impl Iterator<Item = &[Var]> {
        const EMPTY: &[Var] = &[];
        self.constant
            .then_some(EMPTY)
            .into_iter()
            .chain(self.monomials.iter().map(|m| m.as_slice()))
    }
}

fn union_sorted(a: &[Var], b: &[Var]) -> Vec<Var> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// What the analysis knows about one live wire; see the module docs for the
/// lattice.
#[derive(Clone, PartialEq, Debug)]
pub enum AbsVal {
    /// Basis state |e(x)⟩, unentangled.
    Bool(BExpr),
    /// A basis state with untracked value, unentangled.
    AnyBasis,
    /// An unentangled single-qubit pure state (possibly in superposition).
    Stab,
    /// Unknown; possibly entangled.
    Top,
}

impl AbsVal {
    /// The constant basis state |b⟩.
    pub fn known(b: bool) -> AbsVal {
        AbsVal::Bool(BExpr::constant(b))
    }

    /// Whether the wire has a definite (per-run) basis value: `Bool` or
    /// `AnyBasis`. Gates conditioned only on such wires never create
    /// entanglement.
    pub fn is_classical_valued(&self) -> bool {
        matches!(self, AbsVal::Bool(_) | AbsVal::AnyBasis)
    }

    /// Position in the lattice: 0 = `Bool` … 3 = `Top`.
    pub fn rank(&self) -> u8 {
        match self {
            AbsVal::Bool(_) => 0,
            AbsVal::AnyBasis => 1,
            AbsVal::Stab => 2,
            AbsVal::Top => 3,
        }
    }

    /// The weakest value of the given rank (`Bool` has no weakest element, so
    /// rank 0 maps to `AnyBasis`).
    pub fn from_rank(rank: u8) -> AbsVal {
        match rank {
            0 | 1 => AbsVal::AnyBasis,
            2 => AbsVal::Stab,
            _ => AbsVal::Top,
        }
    }

    /// Human wording for diagnostics.
    pub fn describe(&self) -> &'static str {
        match self {
            AbsVal::Bool(_) => "a known basis state",
            AbsVal::AnyBasis => "a basis state with statically unknown value",
            AbsVal::Stab => "possibly in superposition",
            AbsVal::Top => "possibly entangled with other live wires",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_cancels_pairs() {
        let x = BExpr::var(0);
        let y = BExpr::var(1);
        let xy = x.xor(&y).unwrap();
        // (x ⊕ y) ⊕ y = x
        assert_eq!(xy.xor(&y).unwrap(), x);
        // x ⊕ x = 0
        assert_eq!(x.xor(&x).unwrap(), BExpr::constant(false));
    }

    #[test]
    fn and_distributes_and_cancels() {
        let x = BExpr::var(0);
        let y = BExpr::var(1);
        // x ∧ x = x (idempotent monomials)
        assert_eq!(x.and(&x).unwrap(), x);
        // (x ⊕ 1)(x ⊕ 1) = x ⊕ 1
        let nx = x.not();
        assert_eq!(nx.and(&nx).unwrap(), nx);
        // (x ⊕ y) ∧ y = xy ⊕ y
        let got = x.xor(&y).unwrap().and(&y).unwrap();
        let xy = x.and(&y).unwrap();
        assert_eq!(got, xy.xor(&y).unwrap());
    }

    #[test]
    fn negation_evaluates_on_constants() {
        let t = BExpr::constant(true);
        assert_eq!(t.not().as_const(), Some(false));
        assert_eq!(BExpr::var(3).as_const(), None);
    }

    #[test]
    fn subst_composes_expressions() {
        // e = v0 ∧ v1, with v0 := a ⊕ b, v1 := 1 gives a ⊕ b.
        let e = BExpr::var(0).and(&BExpr::var(1)).unwrap();
        let ab = BExpr::var(10).xor(&BExpr::var(11)).unwrap();
        let one = BExpr::constant(true);
        let got = e
            .subst(|v| match v {
                0 => Some(&ab),
                1 => Some(&one),
                _ => None,
            })
            .unwrap();
        assert_eq!(got, ab);
        // Missing substitution is None.
        assert!(e.subst(|_| None).is_none());
    }

    #[test]
    fn monomial_cap_degrades_to_none() {
        // Product of (v_i ⊕ v_{i+100}) terms doubles the monomial count each
        // step and must eventually refuse instead of exploding.
        let mut acc = BExpr::constant(true);
        let mut overflowed = false;
        for i in 0..20 {
            let term = BExpr::var(i).xor(&BExpr::var(i + 100)).unwrap();
            match acc.and(&term) {
                Some(next) => acc = next,
                None => {
                    overflowed = true;
                    break;
                }
            }
        }
        assert!(overflowed);
    }

    /// Variables the random expressions range over: truth tables are `u64`.
    const VARS: u32 = 6;

    /// The normal form of `constant ⊕ ⨁ masks`, each mask a monomial over
    /// variables `0..VARS` (equal monomials cancel in pairs).
    fn anf(constant: bool, masks: &[u8]) -> BExpr {
        let mut monomials: Vec<Vec<Var>> = Vec::new();
        for &mask in masks.iter().filter(|&&m| m != 0) {
            let m: Vec<Var> = (0..VARS).filter(|v| mask >> v & 1 == 1).collect();
            match monomials.iter().position(|x| *x == m) {
                Some(at) => drop(monomials.remove(at)),
                None => monomials.push(m),
            }
        }
        monomials.sort();
        BExpr {
            constant,
            monomials,
        }
    }

    /// The expression's value when variable `v` is bit `v` of `x`.
    fn eval(e: &BExpr, x: u64) -> bool {
        let monomial = |m: &Vec<Var>| m.iter().all(|&v| x >> v & 1 == 1);
        (e.monomials.iter().filter(|m| monomial(m)).count() % 2 == 1) ^ e.constant
    }

    /// The normal form of the function whose value at `x` is bit `x` of
    /// `table`, by the Möbius transform: the brute-force oracle.
    fn from_truth_table(table: u64) -> BExpr {
        let mut coeffs = table;
        for v in 0..VARS {
            for x in 0..64u64 {
                if x >> v & 1 == 1 {
                    coeffs ^= (coeffs >> (x ^ 1 << v) & 1) << x;
                }
            }
        }
        let masks: Vec<u8> = (1..64u8).filter(|&m| coeffs >> m & 1 == 1).collect();
        anf(coeffs & 1 == 1, &masks)
    }

    fn truth_table(f: impl Fn(u64) -> bool) -> u64 {
        (0..64u64).filter(|&x| f(x)).fold(0, |t, x| t | 1 << x)
    }

    /// A random expression: a constant one time in three (`kind`), else up
    /// to eight monomials.
    fn random_expr(kind: u8, constant: bool, masks: &[u8]) -> BExpr {
        if kind.is_multiple_of(3) {
            BExpr::constant(constant)
        } else {
            anf(constant, masks)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// `and`, constant operands included, is the product of the truth
        /// tables, in normal form.
        #[test]
        fn and_agrees_with_truth_tables(
            a in (0u8..3, proptest::arbitrary::any::<bool>(),
                  proptest::collection::vec(1u8..64, 0..8)),
            b in (0u8..3, proptest::arbitrary::any::<bool>(),
                  proptest::collection::vec(1u8..64, 0..8)),
        ) {
            let (ea, eb) = (random_expr(a.0, a.1, &a.2), random_expr(b.0, b.1, &b.2));
            if let Some(product) = ea.and(&eb) {
                let table = truth_table(|x| eval(&ea, x) && eval(&eb, x));
                proptest::prop_assert_eq!(product, from_truth_table(table));
            }
        }

        /// `subst` is composition: its value at `x` is the expression's value
        /// at the substituted values' values at `x`. Substitutes are missing,
        /// constant or symbolic; `all_const` makes every one a constant, the
        /// path that evaluates without ANF arithmetic.
        #[test]
        fn subst_agrees_with_truth_tables(
            e in (proptest::arbitrary::any::<bool>(), proptest::collection::vec(1u8..64, 0..8)),
            kinds in proptest::collection::vec(0u8..10, 6),
            subs in proptest::collection::vec(
                (proptest::arbitrary::any::<bool>(), proptest::collection::vec(1u8..64, 0..4)),
                6,
            ),
            all_const in proptest::arbitrary::any::<bool>(),
        ) {
            let e = anf(e.0, &e.1);
            // kind 0: no substitute; 1–4: a constant; 5–9: symbolic.
            let values: Vec<Option<BExpr>> = kinds
                .iter()
                .zip(&subs)
                .map(|(&kind, (constant, masks))| match kind {
                    0 if !all_const => None,
                    _ if all_const || kind <= 4 => Some(BExpr::constant(*constant)),
                    _ => Some(anf(*constant, masks)),
                })
                .collect();
            let got = e.subst(|v| values[v as usize].as_ref());
            let missing = e.vars().iter().any(|&v| values[v as usize].is_none());
            if missing {
                proptest::prop_assert!(got.is_none(), "{got:?}");
            } else if let Some(got) = got {
                let table = truth_table(|x| {
                    let y = (0..VARS).fold(0u64, |y, v| match &values[v as usize] {
                        Some(s) if eval(s, x) => y | 1 << v,
                        _ => y,
                    });
                    eval(&e, y)
                });
                proptest::prop_assert_eq!(got, from_truth_table(table));
            } else {
                // Only the monomial cap may refuse, and never a constant result.
                proptest::prop_assert!(!all_const);
            }
        }
    }

    #[test]
    fn rank_order_matches_lattice() {
        assert!(AbsVal::known(false).rank() < AbsVal::AnyBasis.rank());
        assert!(AbsVal::AnyBasis.rank() < AbsVal::Stab.rank());
        assert!(AbsVal::Stab.rank() < AbsVal::Top.rank());
        assert!(AbsVal::known(true).is_classical_valued());
        assert!(!AbsVal::Stab.is_classical_valued());
    }
}
