//! Amplitude-update kernels for the state-vector simulator, and the one
//! place a gate is mapped to a kernel.
//!
//! A gate reaches this module already resolved to slot space as a
//! [`WinGate`]: wires are slot indices, controls one `(mask, want)` condition
//! on the amplitude index. [`WinGate::from_mat2`] is the only classifier of
//! 2×2 matrices (diagonal, folding to a phase when one entry is 1;
//! anti-diagonal; dense). The only two-slot gates are swap and W, each with
//! a kernel of its own. A resolved gate has exactly two executors: [`apply`]
//! here, one pass over the whole state for one gate, and
//! [`crate::window::execute`], one pass for a run of gates.
//!
//! The naive update scans all 2^n indices and branches on `i & bit == 0` and
//! on the control mask at every one; that implementation is kept as the test
//! oracle in [`crate::reference`]. The kernels replace the scan with three
//! ideas:
//!
//! 1. **Pair-stride iteration.** The 2^(n-1) target pairs `(i, i | bit)` are
//!    enumerated directly: uncontrolled kernels walk the state in blocks of
//!    `2·bit` and split each block into its lower (target = 0) and upper
//!    (target = 1) halves, so no index is ever visited without work to do.
//!    Controlled kernels enumerate only the satisfying sub-cube — for a
//!    control mask of popcount m the kernel touches `2^(n-1-m)` pairs,
//!    reconstructing each global index by inserting the fixed bits
//!    (`for_each_subcube`).
//! 2. **Kernel specialization.** Diagonal matrices (Z, S, T, R, phases)
//!    touch each amplitude once with a single multiply and never load the
//!    partner; anti-diagonal matrices (X, Y) are index swaps with at most a
//!    scale; only genuinely dense matrices (H, V, fused products) pay the
//!    full 2×2 update. Contiguous runs go through the vector bodies of
//!    [`crate::simd`] when the host has them.
//! 3. **Threaded updates.** Above a configurable state size the kernels
//!    split the amplitude array into aligned power-of-two chunks and fan the
//!    chunks out over `std::thread::scope` workers (the same scoped-thread
//!    pattern as the `quipper-exec` shot scheduler). Chunks are disjoint
//!    slices, every pair lives inside one chunk, and the per-pair arithmetic
//!    is unchanged, so the threaded result is bit-identical to the
//!    sequential one.
//!
//! All kernels perform the same floating-point operations per pair, in the
//! same (ascending-index) order, as the reference scan — up to the sign of
//! zeros produced by multiplying by exact matrix zeros — so results compare
//! equal (`==`) with the scan path; the property tests assert exactly that.

use quipper_circuit::GateName;

use crate::complex::{Complex, I, ONE, ZERO};
use crate::simd;

/// A 2×2 complex matrix, row-major: `m[row][col]`.
pub type Mat2 = [[Complex; 2]; 2];

/// How a 2×2 matrix is executed; see [`classify`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelClass {
    /// Off-diagonal entries are exactly zero: each amplitude is scaled in
    /// place, the partner amplitude is never loaded.
    Diagonal,
    /// Diagonal entries are exactly zero: the pair is swapped (with at most
    /// a scale per side).
    Permutation,
    /// Dense matrix: the full 2×2 update.
    General,
}

/// Classifies a matrix into the kernel that executes it.
///
/// The test is *exact* zero comparison: matrices built from gate
/// definitions have exact zeros, and misclassifying a near-zero fused
/// product as diagonal would silently change results.
pub fn classify(m: &Mat2) -> KernelClass {
    let zero = |c: Complex| c.re == 0.0 && c.im == 0.0;
    if zero(m[0][1]) && zero(m[1][0]) {
        KernelClass::Diagonal
    } else if zero(m[0][0]) && zero(m[1][1]) {
        KernelClass::Permutation
    } else {
        KernelClass::General
    }
}

/// Per-simulation kernel dispatch counters, surfaced through
/// [`StateVec::kernel_stats`](crate::statevec::StateVec::kernel_stats).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct KernelStats {
    /// Dispatches that took the diagonal (scale-in-place) kernel.
    pub diagonal: u64,
    /// Dispatches that took the permutation (index-swap) kernel.
    pub permutation: u64,
    /// Dispatches that took the dense 2×2 kernel.
    pub general: u64,
    /// Dispatches that enumerated a controlled sub-cube instead of the full
    /// pair range.
    pub subcube: u64,
    /// Dispatches that fanned out over scoped threads.
    pub threaded: u64,
    /// Gates applied through the blocked window executor instead of a
    /// dedicated full-state pass.
    pub windowed: u64,
    /// Windows executed (each window is one sweep of the state applying
    /// `windowed / windows` gates on average).
    pub windows: u64,
    /// Swap gates absorbed into slot relabeling (no amplitude traffic).
    pub relabeled: u64,
}

impl KernelStats {
    /// Total kernel dispatches (by class; `subcube`/`threaded` are
    /// attributes of a dispatch, not separate dispatches).
    pub fn total(&self) -> u64 {
        self.diagonal + self.permutation + self.general
    }

    /// Adds another counter snapshot into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.diagonal += other.diagonal;
        self.permutation += other.permutation;
        self.general += other.general;
        self.subcube += other.subcube;
        self.threaded += other.threaded;
        self.windowed += other.windowed;
        self.windows += other.windows;
        self.relabeled += other.relabeled;
    }
}

/// Execution context resolved from
/// [`StateVecConfig`](crate::statevec::StateVecConfig) and the host: how
/// many threads a kernel may use, from what state size threading pays, and
/// whether the vector bodies may run.
#[derive(Clone, Copy, Debug)]
pub struct KernelCtx {
    /// Maximum worker threads for one amplitude update.
    pub threads: usize,
    /// Minimum amplitude-vector length at which to thread.
    pub min_parallel_amps: usize,
    /// Whether the vectorized bodies in [`crate::simd`] may run: the
    /// simulator sets it to [`simd::available`], and nothing may set it
    /// where that is false.
    pub simd: bool,
}

impl KernelCtx {
    /// A context that never threads and never vectorizes.
    pub fn sequential() -> KernelCtx {
        KernelCtx {
            threads: 1,
            min_parallel_amps: usize::MAX,
            simd: false,
        }
    }
}

/// One gate resolved to slot space: wires are slot indices and controls are
/// a global `(mask, want)` condition on the amplitude index. What the
/// simulator's resolver produces and what both executors ([`apply`],
/// [`crate::window::execute`]) consume.
#[derive(Clone, Debug)]
pub(crate) enum WinGate {
    /// Multiply every amplitude satisfying the condition by `k` (GPhase,
    /// and the phase-folded diagonal 1q gates: T, S, R, CP, CRz).
    Phase {
        k: Complex,
        mask: usize,
        want: usize,
    },
    /// A diagonal 1q gate with both entries non-unit.
    Diag {
        slot: usize,
        d0: Complex,
        d1: Complex,
        mask: usize,
        want: usize,
    },
    /// An anti-diagonal 1q gate (X, Y and scaled variants).
    Perm {
        slot: usize,
        m01: Complex,
        m10: Complex,
        mask: usize,
        want: usize,
    },
    /// A dense 1q gate.
    Dense {
        slot: usize,
        m: Mat2,
        mask: usize,
        want: usize,
    },
    /// A swap of two slots.
    Swap2 {
        a: usize,
        b: usize,
        mask: usize,
        want: usize,
    },
    /// The W gate over two slots.
    W2 {
        a: usize,
        b: usize,
        mask: usize,
        want: usize,
    },
}

impl WinGate {
    /// The gate of a 2×2 matrix on `slot`, by the cheapest kernel that can
    /// execute it. A diagonal matrix with a unit entry on one side is a
    /// (controlled) phase on the other, which touches only the amplitudes
    /// that actually change: T, S, R and CP/CRz all land there, turning
    /// e.g. a controlled-Z ladder into pure sub-cube phase flips.
    pub(crate) fn from_mat2(slot: usize, m: &Mat2, mask: usize, want: usize) -> WinGate {
        let bit = 1usize << slot;
        match classify(m) {
            KernelClass::Diagonal if m[0][0] == ONE => WinGate::Phase {
                k: m[1][1],
                mask: mask | bit,
                want: want | bit,
            },
            KernelClass::Diagonal if m[1][1] == ONE => WinGate::Phase {
                k: m[0][0],
                mask: mask | bit,
                want,
            },
            KernelClass::Diagonal => WinGate::Diag {
                slot,
                d0: m[0][0],
                d1: m[1][1],
                mask,
                want,
            },
            KernelClass::Permutation => WinGate::Perm {
                slot,
                m01: m[0][1],
                m10: m[1][0],
                mask,
                want,
            },
            KernelClass::General => WinGate::Dense {
                slot,
                m: *m,
                mask,
                want,
            },
        }
    }

    /// An uncontrolled X on `slot`: a pure pair swap. Slot allocation uses
    /// it to flip a recycled ancilla into the requested basis state.
    pub(crate) fn flip(slot: usize) -> WinGate {
        WinGate::Perm {
            slot,
            m01: ONE,
            m10: ONE,
            mask: 0,
            want: 0,
        }
    }

    /// Whether a window of `block` amplitudes per strip can hold this gate.
    /// A one-slot gate above the block pairs strips, which the window
    /// arranges (see [`demand`](Self::demand)); a two-slot gate must lie
    /// wholly inside a strip.
    pub(crate) fn fits_window(&self, block: usize) -> bool {
        match self {
            WinGate::Swap2 { a, b, .. } | WinGate::W2 { a, b, .. } => (1usize << a.max(b)) < block,
            _ => true,
        }
    }

    /// The high bit this gate demands of its window's tile, or 0. Only 1q
    /// pair updates demand; diagonal/phase gates select per strip, and
    /// two-slot gates that [fit](Self::fits_window) lie below the block.
    pub(crate) fn demand(&self, block: usize) -> usize {
        match self {
            WinGate::Perm { slot, .. } | WinGate::Dense { slot, .. } => {
                let bit = 1usize << slot;
                if bit >= block {
                    bit
                } else {
                    0
                }
            }
            _ => 0,
        }
    }

    /// The gate's control condition `(mask, want)`.
    pub(crate) fn condition(&self) -> (usize, usize) {
        match *self {
            WinGate::Phase { mask, want, .. }
            | WinGate::Diag { mask, want, .. }
            | WinGate::Perm { mask, want, .. }
            | WinGate::Dense { mask, want, .. }
            | WinGate::Swap2 { mask, want, .. }
            | WinGate::W2 { mask, want, .. } => (mask, want),
        }
    }

    /// Counts this gate into the dispatch statistics, as the kernel that
    /// [`apply`] routes it to counts itself.
    pub(crate) fn count(&self, stats: &mut KernelStats) {
        if self.condition().0 != 0 {
            stats.subcube += 1;
        }
        match self {
            WinGate::Phase { .. } | WinGate::Diag { .. } => stats.diagonal += 1,
            WinGate::Perm { .. } | WinGate::Swap2 { .. } => stats.permutation += 1,
            WinGate::Dense { .. } | WinGate::W2 { .. } => stats.general += 1,
        }
    }
}

/// Applies one resolved gate in a full-state pass of its own: the
/// standalone executor. Counts the dispatch into `stats`.
pub(crate) fn apply(
    amps: &mut [Complex],
    gate: &WinGate,
    ctx: &KernelCtx,
    stats: &mut KernelStats,
) {
    let (mask, want) = gate.condition();
    apply_under(amps, gate, mask, want, ctx, stats);
}

/// [`apply`] with the gate's own condition replaced by `(mask, want)`: what
/// the window executor calls per strip, with the condition localized to it.
pub(crate) fn apply_under(
    amps: &mut [Complex],
    gate: &WinGate,
    mask: usize,
    want: usize,
    ctx: &KernelCtx,
    stats: &mut KernelStats,
) {
    match *gate {
        WinGate::Phase { k, .. } => apply_phase(amps, k, mask, want, ctx, stats),
        WinGate::Diag { slot, d0, d1, .. } => {
            apply_diagonal(amps, slot, d0, d1, mask, want, ctx, stats);
        }
        WinGate::Perm { slot, m01, m10, .. } => {
            apply_permutation(amps, slot, m01, m10, mask, want, ctx, stats);
        }
        WinGate::Dense { slot, ref m, .. } => apply_general(amps, slot, m, mask, want, ctx, stats),
        WinGate::Swap2 { a, b, .. } => apply_swap(amps, a, b, mask, want, ctx, stats),
        WinGate::W2 { a, b, .. } => apply_w(amps, a, b, mask, want, ctx, stats),
    }
}

/// Enumerates the sub-cube of `0..len` with all bits of `fixed` forced to
/// zero, in ascending order, by the carry trick: saturating the fixed bits
/// before the increment makes the carry ripple straight through them, so
/// each step costs O(1) regardless of how many bits are fixed. Callers OR
/// in the wanted fixed bits afterwards.
#[inline]
pub(crate) fn for_each_subcube(len: usize, fixed: usize, mut f: impl FnMut(usize)) {
    debug_assert!(len.is_power_of_two());
    debug_assert!(fixed < len);
    let mut i = 0usize;
    while i < len {
        f(i);
        i = ((i | fixed) + 1) & !fixed;
    }
}

/// Restricts a global control condition `(i & mask) == want` to the aligned
/// power-of-two chunk `[base, base + len)`. Returns the chunk-local
/// `(mask, want)`, or `None` if no index in the chunk satisfies the bits
/// above the chunk.
#[inline]
pub(crate) fn localize(
    base: usize,
    len: usize,
    mask: usize,
    want: usize,
) -> Option<(usize, usize)> {
    debug_assert!(len.is_power_of_two());
    debug_assert_eq!(base % len, 0);
    let lo = len - 1;
    if (base & mask & !lo) != (want & !lo) {
        return None;
    }
    Some((mask & lo, want & lo))
}

/// Runs `body(base, chunk)` over the state, splitting it into aligned
/// power-of-two chunks (each a multiple of `min_block`) across scoped
/// threads when the state is large enough. Returns whether it threaded.
///
/// Chunks are disjoint `&mut` slices and each is processed with the same
/// per-pair arithmetic as the sequential path, so the result is
/// bit-identical regardless of the split.
pub(crate) fn dispatch(
    amps: &mut [Complex],
    ctx: &KernelCtx,
    min_block: usize,
    body: impl Fn(usize, &mut [Complex]) + Sync,
) -> bool {
    let len = amps.len();
    debug_assert!(min_block.is_power_of_two());
    let max_chunks = len / min_block;
    let workers = ctx.threads.min(max_chunks).max(1);
    // Round down to a power of two so chunks stay aligned to their size.
    let workers = usize::BITS - 1 - workers.leading_zeros();
    let workers = 1usize << workers;
    if workers <= 1 || len < ctx.min_parallel_amps {
        body(0, amps);
        return false;
    }
    let chunk_len = len / workers;
    std::thread::scope(|scope| {
        for (i, chunk) in amps.chunks_exact_mut(chunk_len).enumerate() {
            let body = &body;
            scope.spawn(move || {
                let _span = quipper_trace::span(quipper_trace::Phase::Execute, "kernel.chunk");
                body(i * chunk_len, chunk)
            });
        }
    });
    true
}

/// The dense 2×2 kernel: pair-stride over `(i, i | bit)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_general(
    amps: &mut [Complex],
    slot: usize,
    m: &Mat2,
    mask: usize,
    want: usize,
    ctx: &KernelCtx,
    stats: &mut KernelStats,
) {
    let bit = 1usize << slot;
    let m = *m;
    let simd = ctx.simd;
    stats.general += 1;
    if mask != 0 {
        stats.subcube += 1;
    }
    let threaded = dispatch(amps, ctx, 2 * bit, move |base, chunk| {
        let Some((mask, want)) = localize(base, chunk.len(), mask, want) else {
            return;
        };
        if mask == 0 {
            for block in chunk.chunks_exact_mut(2 * bit) {
                let (lo, hi) = block.split_at_mut(bit);
                simd::pair_update(lo, hi, &m, simd);
            }
        } else {
            for_each_subcube(chunk.len(), mask | bit, |i| {
                let i0 = i | want;
                let i1 = i0 | bit;
                let (x0, x1) = (chunk[i0], chunk[i1]);
                chunk[i0] = m[0][0] * x0 + m[0][1] * x1;
                chunk[i1] = m[1][0] * x0 + m[1][1] * x1;
            });
        }
    });
    if threaded {
        stats.threaded += 1;
    }
}

/// The diagonal kernel: scales the two target halves in place; unit
/// diagonal entries skip their half entirely.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_diagonal(
    amps: &mut [Complex],
    slot: usize,
    d0: Complex,
    d1: Complex,
    mask: usize,
    want: usize,
    ctx: &KernelCtx,
    stats: &mut KernelStats,
) {
    let bit = 1usize << slot;
    let simd = ctx.simd;
    stats.diagonal += 1;
    if mask != 0 {
        stats.subcube += 1;
    }
    let threaded = dispatch(amps, ctx, 2 * bit, move |base, chunk| {
        let Some((mask, want)) = localize(base, chunk.len(), mask, want) else {
            return;
        };
        if mask == 0 {
            for block in chunk.chunks_exact_mut(2 * bit) {
                let (lo, hi) = block.split_at_mut(bit);
                if d0 != ONE {
                    simd::scale_slice(lo, d0, simd);
                }
                if d1 != ONE {
                    simd::scale_slice(hi, d1, simd);
                }
            }
        } else {
            for_each_subcube(chunk.len(), mask | bit, |i| {
                let i0 = i | want;
                let i1 = i0 | bit;
                chunk[i0] = d0 * chunk[i0];
                chunk[i1] = d1 * chunk[i1];
            });
        }
    });
    if threaded {
        stats.threaded += 1;
    }
}

/// The permutation kernel for anti-diagonal matrices: |0⟩ ↦ m10·|1⟩ and
/// |1⟩ ↦ m01·|0⟩. X (both entries 1) degenerates to a pure swap.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_permutation(
    amps: &mut [Complex],
    slot: usize,
    m01: Complex,
    m10: Complex,
    mask: usize,
    want: usize,
    ctx: &KernelCtx,
    stats: &mut KernelStats,
) {
    let bit = 1usize << slot;
    let pure_swap = m01 == ONE && m10 == ONE;
    let simd = ctx.simd;
    stats.permutation += 1;
    if mask != 0 {
        stats.subcube += 1;
    }
    let threaded = dispatch(amps, ctx, 2 * bit, move |base, chunk| {
        let Some((mask, want)) = localize(base, chunk.len(), mask, want) else {
            return;
        };
        if mask == 0 {
            for block in chunk.chunks_exact_mut(2 * bit) {
                let (lo, hi) = block.split_at_mut(bit);
                if pure_swap {
                    lo.swap_with_slice(hi);
                } else {
                    simd::cross_scale(lo, hi, m01, m10, simd);
                }
            }
        } else {
            for_each_subcube(chunk.len(), mask | bit, |i| {
                let i0 = i | want;
                let i1 = i0 | bit;
                if pure_swap {
                    chunk.swap(i0, i1);
                } else {
                    let (x0, x1) = (chunk[i0], chunk[i1]);
                    chunk[i0] = m01 * x1;
                    chunk[i1] = m10 * x0;
                }
            });
        }
    });
    if threaded {
        stats.threaded += 1;
    }
}

/// The phase kernel: multiplies every amplitude satisfying
/// `(i & mask) == want` by `phase` (GPhase, possibly controlled).
pub(crate) fn apply_phase(
    amps: &mut [Complex],
    phase: Complex,
    mask: usize,
    want: usize,
    ctx: &KernelCtx,
    stats: &mut KernelStats,
) {
    let simd = ctx.simd;
    stats.diagonal += 1;
    if mask != 0 {
        stats.subcube += 1;
    }
    let threaded = dispatch(amps, ctx, 1, move |base, chunk| {
        let Some((mask, want)) = localize(base, chunk.len(), mask, want) else {
            return;
        };
        // The satisfying indices come in contiguous runs as long as the
        // lowest fixed bit (no fixed bit: one run, the chunk); runs worth a
        // vector lane are scaled as slices.
        let run = 1usize << mask.trailing_zeros().min(chunk.len().trailing_zeros());
        if run >= 4 {
            for_each_subcube(chunk.len(), mask | (run - 1), |i| {
                let i = i | want;
                simd::scale_slice(&mut chunk[i..i + run], phase, simd);
            });
        } else {
            for_each_subcube(chunk.len(), mask, |i| {
                let i = i | want;
                chunk[i] = phase * chunk[i];
            });
        }
    });
    if threaded {
        stats.threaded += 1;
    }
}

/// The swap kernel: exchanges the `a=1, b=0` and `a=0, b=1` amplitudes of
/// the satisfying sub-cube.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_swap(
    amps: &mut [Complex],
    slot_a: usize,
    slot_b: usize,
    mask: usize,
    want: usize,
    ctx: &KernelCtx,
    stats: &mut KernelStats,
) {
    let (ba, bb) = (1usize << slot_a, 1usize << slot_b);
    stats.permutation += 1;
    if mask != 0 {
        stats.subcube += 1;
    }
    let threaded = dispatch(amps, ctx, 2 * ba.max(bb), move |base, chunk| {
        let Some((mask, want)) = localize(base, chunk.len(), mask, want) else {
            return;
        };
        for_each_subcube(chunk.len(), mask | ba | bb, |i| {
            let i10 = i | want | ba;
            chunk.swap(i10, i10 ^ ba ^ bb);
        });
    });
    if threaded {
        stats.threaded += 1;
    }
}

/// The W kernel (Binary Welded Tree, paper Figure 1): mixes the |01⟩ and
/// |10⟩ amplitudes of each pair, fixing |00⟩ and |11⟩.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_w(
    amps: &mut [Complex],
    slot_a: usize,
    slot_b: usize,
    mask: usize,
    want: usize,
    ctx: &KernelCtx,
    stats: &mut KernelStats,
) {
    let (ba, bb) = (1usize << slot_a, 1usize << slot_b);
    let s = std::f64::consts::FRAC_1_SQRT_2;
    stats.general += 1;
    if mask != 0 {
        stats.subcube += 1;
    }
    let threaded = dispatch(amps, ctx, 2 * ba.max(bb), move |base, chunk| {
        let Some((mask, want)) = localize(base, chunk.len(), mask, want) else {
            return;
        };
        for_each_subcube(chunk.len(), mask | ba | bb, |i| {
            // i01 has a=0, b=1; the partner has a=1, b=0. W and its inverse
            // coincide on these pairs (the matrix is real symmetric), so the
            // gate's `inverted` flag never reaches here.
            let i01 = i | want | bb;
            let i10 = i01 ^ ba ^ bb;
            let (v01, v10) = (chunk[i01], chunk[i10]);
            chunk[i01] = (v01 + v10).scale(s);
            chunk[i10] = (v01 - v10).scale(s);
        });
    });
    if threaded {
        stats.threaded += 1;
    }
}

/// The matrix of a named single-qubit gate, if it has one.
pub fn single_qubit_matrix(name: &GateName, inverted: bool) -> Option<Mat2> {
    let h = std::f64::consts::FRAC_1_SQRT_2;
    let r = |x: f64| Complex::new(x, 0.0);
    let m: Mat2 = match name {
        GateName::X => [[ZERO, ONE], [ONE, ZERO]],
        GateName::Y => [[ZERO, -I], [I, ZERO]],
        GateName::Z => [[ONE, ZERO], [ZERO, -ONE]],
        GateName::H => [[r(h), r(h)], [r(h), -r(h)]],
        GateName::S => [[ONE, ZERO], [ZERO, I]],
        GateName::T => [
            [ONE, ZERO],
            [ZERO, Complex::cis(std::f64::consts::FRAC_PI_4)],
        ],
        GateName::V => {
            let p = Complex::new(0.5, 0.5);
            let q = Complex::new(0.5, -0.5);
            [[p, q], [q, p]]
        }
        _ => return None,
    };
    Some(if inverted { dagger(&m) } else { m })
}

/// The matrix of a rotation-family gate, if the family is known.
pub fn rotation_matrix(name: &str, angle: f64, inverted: bool) -> Option<Mat2> {
    let m: Mat2 = match name {
        // e^{-iZt} = diag(e^{-it}, e^{it}).
        "exp(-i%Z)" => [[Complex::cis(-angle), ZERO], [ZERO, Complex::cis(angle)]],
        // R(2π/2ᵏ) = diag(1, e^{2πi/2ᵏ}) where the parameter is k.
        "R(2pi/%)" => {
            let phase = 2.0 * std::f64::consts::PI / f64::powf(2.0, angle);
            [[ONE, ZERO], [ZERO, Complex::cis(phase)]]
        }
        // Generic Z-axis rotation: diag(1, e^{iθ}).
        "R(%)" => [[ONE, ZERO], [ZERO, Complex::cis(angle)]],
        // Y-axis rotation e^{-iYθ/2}, used by the QLS conditional rotation.
        "Ry(%)" => {
            let (c, s) = ((angle / 2.0).cos(), (angle / 2.0).sin());
            [
                [Complex::new(c, 0.0), Complex::new(-s, 0.0)],
                [Complex::new(s, 0.0), Complex::new(c, 0.0)],
            ]
        }
        _ => return None,
    };
    Some(if inverted { dagger(&m) } else { m })
}

/// Conjugate transpose.
pub fn dagger(m: &Mat2) -> Mat2 {
    [
        [m[0][0].conj(), m[1][0].conj()],
        [m[0][1].conj(), m[1][1].conj()],
    ]
}

/// Matrix product `a · b` (so `matmul(a, b)` applies `b` first).
pub fn matmul(a: &Mat2, b: &Mat2) -> Mat2 {
    [
        [
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ],
        [
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::scan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_state(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..1usize << n)
            .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect()
    }

    fn assert_same(a: &[Complex], b: &[Complex]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re == y.re && x.im == y.im,
                "amplitude {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn classify_standard_gates() {
        let diag = single_qubit_matrix(&GateName::T, false).unwrap();
        assert_eq!(classify(&diag), KernelClass::Diagonal);
        let perm = single_qubit_matrix(&GateName::X, false).unwrap();
        assert_eq!(classify(&perm), KernelClass::Permutation);
        let y = single_qubit_matrix(&GateName::Y, false).unwrap();
        assert_eq!(classify(&y), KernelClass::Permutation);
        let dense = single_qubit_matrix(&GateName::H, false).unwrap();
        assert_eq!(classify(&dense), KernelClass::General);
    }

    #[test]
    fn subcube_enumerates_satisfying_indices_in_order() {
        let mut seen = Vec::new();
        // len 32, fixed bits {1, 8}.
        for_each_subcube(32, 0b01001, |i| seen.push(i));
        let expect: Vec<usize> = (0..32).filter(|i| i & 0b01001 == 0).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn general_kernel_matches_scan_all_slots_and_masks() {
        let n = 6;
        let m = single_qubit_matrix(&GateName::H, false).unwrap();
        for slot in 0..n {
            for (mask, want) in [(0usize, 0usize), (0b100, 0b100), (0b101000, 0b001000)] {
                if mask & (1 << slot) != 0 {
                    continue;
                }
                let mut a = random_state(n, 7);
                let mut b = a.clone();
                scan::apply_1q(&mut a, slot, &m, mask, want);
                let mut stats = KernelStats::default();
                apply_general(
                    &mut b,
                    slot,
                    &m,
                    mask,
                    want,
                    &KernelCtx::sequential(),
                    &mut stats,
                );
                assert_same(&a, &b);
            }
        }
    }

    #[test]
    fn diagonal_kernel_matches_scan() {
        let n = 6;
        let m = single_qubit_matrix(&GateName::T, false).unwrap();
        for slot in 0..n {
            let mut a = random_state(n, 11);
            let mut b = a.clone();
            scan::apply_1q(&mut a, slot, &m, 0b10 & !(1 << slot), 0);
            let mut stats = KernelStats::default();
            let gate = WinGate::from_mat2(slot, &m, 0b10 & !(1 << slot), 0);
            apply(&mut b, &gate, &KernelCtx::sequential(), &mut stats);
            assert_same(&a, &b);
            assert_eq!(stats.diagonal, 1);
        }
    }

    #[test]
    fn permutation_kernel_matches_scan() {
        let n = 5;
        for name in [GateName::X, GateName::Y] {
            let m = single_qubit_matrix(&name, false).unwrap();
            for slot in 0..n {
                let mut a = random_state(n, 13);
                let mut b = a.clone();
                scan::apply_1q(&mut a, slot, &m, 0, 0);
                let mut stats = KernelStats::default();
                let gate = WinGate::from_mat2(slot, &m, 0, 0);
                apply(&mut b, &gate, &KernelCtx::sequential(), &mut stats);
                assert_same(&a, &b);
                assert_eq!(stats.permutation, 1);
            }
        }
    }

    #[test]
    fn swap_and_w_match_scan_under_controls() {
        let n = 6;
        let (sa, sb) = (1, 4);
        let (mask, want) = (0b100001, 0b000001);
        let mut a = random_state(n, 17);
        let mut b = a.clone();
        scan::apply_swap(&mut a, sa, sb, mask, want);
        let mut stats = KernelStats::default();
        apply_swap(
            &mut b,
            sa,
            sb,
            mask,
            want,
            &KernelCtx::sequential(),
            &mut stats,
        );
        assert_same(&a, &b);

        let mut a = random_state(n, 19);
        let mut b = a.clone();
        scan::apply_w(&mut a, sa, sb, mask, want);
        apply_w(
            &mut b,
            sa,
            sb,
            mask,
            want,
            &KernelCtx::sequential(),
            &mut stats,
        );
        assert_same(&a, &b);
    }

    #[test]
    fn threaded_dispatch_is_bit_identical_to_sequential() {
        let n = 10;
        let threaded = KernelCtx {
            threads: 4,
            min_parallel_amps: 1,
            simd: false,
        };
        let h = single_qubit_matrix(&GateName::H, false).unwrap();
        let t = single_qubit_matrix(&GateName::T, false).unwrap();
        for slot in 0..n {
            for (mask, want) in [(0usize, 0usize), (0b1000000001 & !(1 << slot), 0)] {
                let mut a = random_state(n, 23);
                let mut b = a.clone();
                let mut s1 = KernelStats::default();
                let mut s2 = KernelStats::default();
                apply_general(
                    &mut a,
                    slot,
                    &h,
                    mask,
                    want,
                    &KernelCtx::sequential(),
                    &mut s1,
                );
                apply_general(&mut b, slot, &h, mask, want, &threaded, &mut s2);
                assert_same(&a, &b);
                let gate = WinGate::from_mat2(slot, &t, mask, want);
                apply(&mut a, &gate, &KernelCtx::sequential(), &mut s1);
                apply(&mut b, &gate, &threaded, &mut s2);
                assert_same(&a, &b);
            }
        }
        let mut a = random_state(n, 29);
        let mut b = a.clone();
        let mut s = KernelStats::default();
        apply_phase(
            &mut a,
            Complex::cis(0.3),
            0b11,
            0b01,
            &KernelCtx::sequential(),
            &mut s,
        );
        apply_phase(&mut b, Complex::cis(0.3), 0b11, 0b01, &threaded, &mut s);
        assert_same(&a, &b);
        assert!(s.threaded >= 1);
    }

    /// Every run length of the phase kernel — single amplitudes below a
    /// vector lane, slices from it up, the whole chunk — against the scan.
    #[test]
    fn phase_kernel_matches_scan_for_every_lowest_fixed_bit() {
        let n = 7;
        let k = Complex::cis(0.7);
        for simd in [false, simd::available()] {
            let ctx = KernelCtx {
                simd,
                ..KernelCtx::sequential()
            };
            // Bit `n` is outside the state: it stands for "no such bit".
            for low in 0..=n {
                for high in low..=n {
                    let mask = (1usize << low | 1 << high) % (1 << n);
                    for want in [mask, 1 << high, 0] {
                        let mut a = random_state(n, 31);
                        let mut b = a.clone();
                        scan::apply_phase(&mut a, k, mask, want & mask);
                        apply_phase(
                            &mut b,
                            k,
                            mask,
                            want & mask,
                            &ctx,
                            &mut KernelStats::default(),
                        );
                        assert_same(&a, &b);
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_composes_gates() {
        let h = single_qubit_matrix(&GateName::H, false).unwrap();
        let hh = matmul(&h, &h);
        // The off-diagonal entries cancel *exactly* (h·h − h·h), so the
        // product classifies as diagonal; the diagonal is 1 up to rounding.
        assert_eq!(classify(&hh), KernelClass::Diagonal);
        assert!((hh[0][0].re - 1.0).abs() < 1e-15 && hh[0][0].im == 0.0);
        assert!((hh[1][1].re - 1.0).abs() < 1e-15 && hh[1][1].im == 0.0);
    }
}
