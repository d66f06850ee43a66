//! Vectorized complex-arithmetic primitives for the amplitude kernels.
//!
//! The hot kernels are memory-bandwidth bound: each gate streams over
//! contiguous runs of amplitudes doing a handful of multiplies per 16-byte
//! complex. This module provides the three streaming primitives they share —
//! scale-in-place, the dense 2×2 pair update across two equal-length slices,
//! and the anti-diagonal cross-scale — each with an AVX2 body (two complexes
//! per 256-bit lane) and a portable scalar body.
//!
//! **Bit-identical contract.** The vector bodies perform, per amplitude, the
//! exact products and the exact add/subtract order of the scalar bodies
//! (which in turn mirror `Complex::mul`): for `k·x` the even lane computes
//! `x.re·k.re − x.im·k.im` via `_mm256_addsub_pd` and the odd lane
//! `x.im·k.re + x.re·k.im`. IEEE-754 multiplication and addition commute
//! bitwise, no FMA contraction is used, and no reassociation happens, so
//! the vector and the scalar bodies produce `==`-equal states. The property
//! tests hold whichever of the two the host selects to `==` against the scan
//! oracle, and a unit test here compares the two directly.
//!
//! Dispatch is decided once per process by [`available`]: AVX2 is detected
//! at runtime (`is_x86_feature_detected!`) and can be vetoed by the
//! [`FORCE_SCALAR_ENV`] environment variable — the CI scalar leg, and the
//! only way to run the portable bodies on an AVX2 host. The simulator has no
//! switch of its own: it passes `available()` down as the `simd` argument of
//! the primitives below.

use crate::complex::Complex;
use crate::kernels::Mat2;

/// Environment variable that forces the scalar fallback even when AVX2 is
/// available. Used by the CI matrix leg that keeps the fallback honest.
pub const FORCE_SCALAR_ENV: &str = "QUIPPER_SIM_FORCE_SCALAR";

/// Whether the vectorized bodies may be used on this host (checked once).
pub fn available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        if std::env::var_os(FORCE_SCALAR_ENV).is_some() {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Human-readable name of the active dispatch path, for bench metadata.
pub fn feature_name() -> &'static str {
    if available() {
        "avx2"
    } else {
        "scalar"
    }
}

/// `x ← k·x` for every amplitude in the slice.
#[inline]
pub fn scale_slice(xs: &mut [Complex], k: Complex, simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: callers pass `simd == true` only when [`available`]
        // confirmed AVX2 at runtime.
        unsafe { avx::scale_slice(xs, k) };
        return;
    }
    let _ = simd;
    for a in xs {
        *a = k * *a;
    }
}

/// The dense 2×2 update across a low/high half pair:
/// `lo[i] ← m00·lo[i] + m01·hi[i]`, `hi[i] ← m10·lo[i] + m11·hi[i]`.
#[inline]
pub fn pair_update(lo: &mut [Complex], hi: &mut [Complex], m: &Mat2, simd: bool) {
    debug_assert_eq!(lo.len(), hi.len());
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: as in [`scale_slice`].
        unsafe { avx::pair_update(lo, hi, m) };
        return;
    }
    let _ = simd;
    for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
        let (x0, x1) = (*a0, *a1);
        *a0 = m[0][0] * x0 + m[0][1] * x1;
        *a1 = m[1][0] * x0 + m[1][1] * x1;
    }
}

/// The anti-diagonal update across a low/high half pair:
/// `lo[i] ← m01·hi[i]`, `hi[i] ← m10·lo[i]`.
#[inline]
pub fn cross_scale(lo: &mut [Complex], hi: &mut [Complex], m01: Complex, m10: Complex, simd: bool) {
    debug_assert_eq!(lo.len(), hi.len());
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: as in [`scale_slice`].
        unsafe { avx::cross_scale(lo, hi, m01, m10) };
        return;
    }
    let _ = simd;
    for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
        let (x0, x1) = (*a0, *a1);
        *a0 = m01 * x1;
        *a1 = m10 * x0;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx {
    //! AVX2 bodies. `Complex` is `#[repr(C)]`, so a `&mut [Complex]` is a
    //! `re,im,re,im,…` run of f64s; one 256-bit lane holds two complexes.

    use std::arch::x86_64::*;

    use crate::complex::Complex;
    use crate::kernels::Mat2;

    /// Multiplies two packed complexes by the broadcast scalar `k`
    /// (`kre`/`kim` are `set1(k.re)`/`set1(k.im)`): even lanes get
    /// `x.re·k.re − x.im·k.im`, odd lanes `x.im·k.re + x.re·k.im` — the
    /// same products and add/subtract order as `Complex::mul`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmul(v: __m256d, kre: __m256d, kim: __m256d) -> __m256d {
        let t1 = _mm256_mul_pd(v, kre);
        let sw = _mm256_permute_pd(v, 0b0101);
        let t2 = _mm256_mul_pd(sw, kim);
        _mm256_addsub_pd(t1, t2)
    }

    #[inline]
    fn broadcast(k: Complex) -> (__m256d, __m256d) {
        // SAFETY: set1 has no feature requirements beyond AVX, implied by
        // the callers' avx2 gate.
        unsafe { (_mm256_set1_pd(k.re), _mm256_set1_pd(k.im)) }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_slice(xs: &mut [Complex], k: Complex) {
        let (kre, kim) = broadcast(k);
        let p = xs.as_mut_ptr().cast::<f64>();
        let lanes = (xs.len() / 2) * 4;
        let mut i = 0;
        while i < lanes {
            let v = _mm256_loadu_pd(p.add(i));
            _mm256_storeu_pd(p.add(i), cmul(v, kre, kim));
            i += 4;
        }
        if xs.len() % 2 == 1 {
            let j = xs.len() - 1;
            xs[j] = k * xs[j];
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn pair_update(lo: &mut [Complex], hi: &mut [Complex], m: &Mat2) {
        let (m00re, m00im) = broadcast(m[0][0]);
        let (m01re, m01im) = broadcast(m[0][1]);
        let (m10re, m10im) = broadcast(m[1][0]);
        let (m11re, m11im) = broadcast(m[1][1]);
        let pl = lo.as_mut_ptr().cast::<f64>();
        let ph = hi.as_mut_ptr().cast::<f64>();
        let lanes = (lo.len() / 2) * 4;
        let mut i = 0;
        while i < lanes {
            let x0 = _mm256_loadu_pd(pl.add(i));
            let x1 = _mm256_loadu_pd(ph.add(i));
            let y0 = _mm256_add_pd(cmul(x0, m00re, m00im), cmul(x1, m01re, m01im));
            let y1 = _mm256_add_pd(cmul(x0, m10re, m10im), cmul(x1, m11re, m11im));
            _mm256_storeu_pd(pl.add(i), y0);
            _mm256_storeu_pd(ph.add(i), y1);
            i += 4;
        }
        if lo.len() % 2 == 1 {
            let j = lo.len() - 1;
            let (x0, x1) = (lo[j], hi[j]);
            lo[j] = m[0][0] * x0 + m[0][1] * x1;
            hi[j] = m[1][0] * x0 + m[1][1] * x1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn cross_scale(lo: &mut [Complex], hi: &mut [Complex], m01: Complex, m10: Complex) {
        let (are, aim) = broadcast(m01);
        let (bre, bim) = broadcast(m10);
        let pl = lo.as_mut_ptr().cast::<f64>();
        let ph = hi.as_mut_ptr().cast::<f64>();
        let lanes = (lo.len() / 2) * 4;
        let mut i = 0;
        while i < lanes {
            let x0 = _mm256_loadu_pd(pl.add(i));
            let x1 = _mm256_loadu_pd(ph.add(i));
            _mm256_storeu_pd(pl.add(i), cmul(x1, are, aim));
            _mm256_storeu_pd(ph.add(i), cmul(x0, bre, bim));
            i += 4;
        }
        if lo.len() % 2 == 1 {
            let j = lo.len() - 1;
            let (x0, x1) = (lo[j], hi[j]);
            lo[j] = m01 * x1;
            hi[j] = m10 * x0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::ONE;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect()
    }

    fn assert_bits(a: &[Complex], b: &[Complex]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "lane {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    /// Every vector body must be bit-identical to its scalar body, including
    /// odd-length tails.
    #[test]
    fn simd_matches_scalar_bitwise() {
        if !available() {
            return;
        }
        let k = Complex::cis(0.731);
        let m: Mat2 = [
            [Complex::new(0.6, 0.2), Complex::new(-0.3, 0.8)],
            [Complex::new(0.1, -0.9), Complex::new(0.5, 0.4)],
        ];
        for len in [0usize, 1, 2, 3, 7, 8, 64, 65] {
            let base_lo = random(len, 3 + len as u64);
            let base_hi = random(len, 17 + len as u64);

            let mut a = base_lo.clone();
            let mut b = base_lo.clone();
            scale_slice(&mut a, k, true);
            scale_slice(&mut b, k, false);
            assert_bits(&a, &b);

            let (mut al, mut ah) = (base_lo.clone(), base_hi.clone());
            let (mut bl, mut bh) = (base_lo.clone(), base_hi.clone());
            pair_update(&mut al, &mut ah, &m, true);
            pair_update(&mut bl, &mut bh, &m, false);
            assert_bits(&al, &bl);
            assert_bits(&ah, &bh);

            let (mut al, mut ah) = (base_lo.clone(), base_hi.clone());
            let (mut bl, mut bh) = (base_lo, base_hi);
            cross_scale(&mut al, &mut ah, k, ONE, true);
            cross_scale(&mut bl, &mut bh, k, ONE, false);
            assert_bits(&al, &bl);
            assert_bits(&ah, &bh);
        }
    }
}
