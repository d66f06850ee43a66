//! The blocked window executor: cache-resident multi-gate sweeps.
//!
//! A per-gate kernel pass streams the entire 2^n-amplitude state through
//! memory once per gate; for the large states the simulator is actually
//! slow on, that traffic — not arithmetic — is the bound. The window
//! executor regroups execution: a *window* is a short run of resolved gates
//! ([`WinGate`], the same slot-space gates [`kernels::apply`] takes one at a
//! time), and the state is walked once in cache-sized *blocks* of
//! `2^block_bits` contiguous amplitudes, applying every gate of the window
//! to a block before moving on. Each amplitude is loaded from DRAM once per
//! window instead of once per gate.
//!
//! **Tiles and strips.** Gates whose target slot is below `block_bits`
//! ("low" gates) pair amplitudes within one block, so they apply to each
//! block independently. A 1q gate with a high target slot pairs amplitude
//! `i` with `i | bit` in a *different* block; such a gate *demands* its
//! high bit. The union of demanded bits (`high_mask`, bounded by the
//! caller) defines a tile: 2^|high_mask| strips of `2^block_bits`
//! contiguous amplitudes that are closed under every gate of the window.
//! The executor enumerates tiles with the same sub-cube walk the kernels
//! use, processes each tile's strips, and pairs strips across a demanded
//! bit for the high gates. Diagonal and phase gates never demand: a high
//! diagonal slot is constant within a strip, so the gate degenerates to a
//! per-strip phase selected by the strip's base index.
//!
//! **Bit-identical contract.** Every per-amplitude update inside a strip
//! performs the same products in the same order as the corresponding
//! full-pass kernel (the strip bodies *are* the kernel bodies: a gate inside
//! the block goes through [`kernels::apply_under`] on the strip's sub-slice,
//! with the control mask pre-localized). Gates are applied in stream order
//! within each tile and tiles are disjoint and independent, so the window
//! result is `==`-equal to applying the gates one by one — the window
//! property tests assert this against the scan oracle
//! ([`crate::reference`]).
//!
//! **Who builds windows.** The simulator (`StateVec::exec_segment`) buffers
//! the gates of a planned segment into windows and flushes on two
//! conditions only: a two-slot gate that does not
//! [fit](WinGate::fits_window) below the block boundary, which runs
//! standalone, and a gate that would demand a fifth distinct high bit. A
//! window of one gate also runs standalone: one gate gets no reuse out of a
//! blocked sweep.
//!
//! Threading reuses [`kernels::dispatch`]: chunks are constrained to whole
//! tiles (`min_block` of twice the highest demanded bit), which keeps the
//! threaded result bit-identical as well.

use crate::complex::{Complex, ONE};
use crate::kernels::{self, KernelCtx, KernelStats, WinGate};
use crate::simd;

/// Enumerates the subsets of `mask` (including 0 and `mask` itself) in
/// ascending order.
#[inline]
fn for_each_subset(mask: usize, mut f: impl FnMut(usize)) {
    let mut a = 0usize;
    loop {
        f(a);
        if a == mask {
            break;
        }
        a = a.wrapping_sub(mask) & mask;
    }
}

/// Applies a whole window to the state: one pass over the amplitudes,
/// every gate per tile. `block_bits` bounds the strip size (clamped to the
/// state).
pub(crate) fn execute(
    amps: &mut [Complex],
    gates: &[WinGate],
    block_bits: u32,
    ctx: &KernelCtx,
    stats: &mut KernelStats,
) {
    if gates.is_empty() {
        return;
    }
    let block = (1usize << block_bits.min(62)).min(amps.len());
    let mut high_mask = 0usize;
    for g in gates {
        g.count(stats);
        high_mask |= g.demand(block);
    }
    stats.windows += 1;
    stats.windowed += gates.len() as u64;
    // Chunks must contain whole tiles: everything up to the highest
    // demanded bit (or one block when nothing demands).
    let min_block = if high_mask == 0 {
        block
    } else {
        1usize << (usize::BITS - high_mask.leading_zeros())
    };
    let strip_ctx = KernelCtx {
        simd: ctx.simd,
        ..KernelCtx::sequential()
    };
    let threaded = kernels::dispatch(amps, ctx, min_block, move |base, chunk| {
        let tile_fixed = (block - 1) | high_mask;
        kernels::for_each_subcube(chunk.len(), tile_fixed, |t| {
            for g in gates {
                apply_in_tile(chunk, base, t, g, block, high_mask, &strip_ctx);
            }
        });
    });
    if threaded {
        stats.threaded += 1;
    }
}

/// Applies one gate to the tile with chunk-local base `t` (the chunk's
/// global base being `chunk_base`). A gate inside the block runs per strip
/// through the standalone executor's kernels, with the control condition
/// localized to the strip; a 1q gate above the block selects a per-strip
/// phase (diagonal) or pairs strips across its demanded bit.
fn apply_in_tile(
    chunk: &mut [Complex],
    chunk_base: usize,
    t: usize,
    gate: &WinGate,
    block: usize,
    high_mask: usize,
    strip_ctx: &KernelCtx,
) {
    // Per-strip kernel calls double-count into a scratch; the window's own
    // counters were taken once per gate in `execute`.
    let mut scratch = KernelStats::default();
    let simd = strip_ctx.simd;
    let (mask, want) = gate.condition();
    match gate {
        WinGate::Diag { slot, d0, d1, .. } if (1usize << slot) >= block => {
            // The slot is constant within each strip: a per-strip scale by
            // whichever diagonal entry the strip's base selects.
            let bit = 1usize << slot;
            for_each_subset(high_mask, |a| {
                let off = t | a;
                let g = chunk_base + off;
                let k = if g & bit != 0 { *d1 } else { *d0 };
                if k == ONE {
                    return;
                }
                let Some((m, w)) = kernels::localize(g, block, mask, want) else {
                    return;
                };
                let strip = &mut chunk[off..off + block];
                kernels::apply_phase(strip, k, m, w, strip_ctx, &mut scratch);
            });
        }
        WinGate::Perm { slot, m01, m10, .. } if (1usize << slot) >= block => {
            let bit = 1usize << slot;
            let pure_swap = *m01 == ONE && *m10 == ONE;
            for_each_subset(high_mask & !bit, |a| {
                let off0 = t | a;
                let Some((m, w)) = kernels::localize(chunk_base + off0, block, mask, want) else {
                    return;
                };
                let (lo, hi) = strip_pair(chunk, off0, off0 | bit, block);
                if m == 0 {
                    if pure_swap {
                        lo.swap_with_slice(hi);
                    } else {
                        simd::cross_scale(lo, hi, *m01, *m10, simd);
                    }
                } else {
                    kernels::for_each_subcube(block, m, |i| {
                        let i = i | w;
                        if pure_swap {
                            std::mem::swap(&mut lo[i], &mut hi[i]);
                        } else {
                            let (x0, x1) = (lo[i], hi[i]);
                            lo[i] = *m01 * x1;
                            hi[i] = *m10 * x0;
                        }
                    });
                }
            });
        }
        WinGate::Dense { slot, m, .. } if (1usize << slot) >= block => {
            let bit = 1usize << slot;
            for_each_subset(high_mask & !bit, |a| {
                let off0 = t | a;
                let Some((lm, lw)) = kernels::localize(chunk_base + off0, block, mask, want) else {
                    return;
                };
                let (lo, hi) = strip_pair(chunk, off0, off0 | bit, block);
                if lm == 0 {
                    simd::pair_update(lo, hi, m, simd);
                } else {
                    kernels::for_each_subcube(block, lm, |i| {
                        let i = i | lw;
                        let (x0, x1) = (lo[i], hi[i]);
                        lo[i] = m[0][0] * x0 + m[0][1] * x1;
                        hi[i] = m[1][0] * x0 + m[1][1] * x1;
                    });
                }
            });
        }
        _ => for_each_subset(high_mask, |a| {
            let off = t | a;
            let Some((m, w)) = kernels::localize(chunk_base + off, block, mask, want) else {
                return;
            };
            let strip = &mut chunk[off..off + block];
            kernels::apply_under(strip, gate, m, w, strip_ctx, &mut scratch);
        }),
    }
}

/// Two disjoint strips of `block` amplitudes at chunk-local offsets
/// `off0 < off1`.
fn strip_pair(
    chunk: &mut [Complex],
    off0: usize,
    off1: usize,
    block: usize,
) -> (&mut [Complex], &mut [Complex]) {
    debug_assert!(off0 + block <= off1);
    let (left, right) = chunk.split_at_mut(off1);
    (&mut left[off0..off0 + block], &mut right[..block])
}
