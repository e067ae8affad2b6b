//! SIMD kernel layer with runtime dispatch (DESIGN.md §13).
//!
//! Every hot kernel here has two bodies, and the host picks one:
//!
//! * an explicit `std::arch` AVX2 body (a couple of cheap NEON bodies on
//!   aarch64), used whenever [`simd_available`] reports the vector unit;
//! * a scalar body in [`scalar`], used on every other host. The scalar
//!   bodies are also the **oracle**: every vector body is differential-
//!   tested against them, and the all-scalar packet oracle calls them
//!   directly.
//!
//! There is no user-set selection. Every vector body is **bit-identical**
//! to its scalar body: lanes are only used for element-wise maps and for
//! *independent* accumulation chains (multiple outputs / rows / dot
//! products), never to reassociate a single f64 reduction, and no FMA
//! contraction is used. Complex multiplies use the `addsub` formulation,
//! which performs exactly the scalar `C64::mul` roundings. So the host's
//! choice changes speed, never an output: the committed fixtures and all
//! `*_reference` differential tests pass unchanged on either body.
//!
//! This module is the only place in the crate where `unsafe` is allowed:
//! every unsafe block is an intrinsics path guarded by the runtime feature
//! check and pinned to its scalar oracle by the differential tests below.
#![allow(unsafe_code)]

use crate::complex::C64;
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Host detection
// ---------------------------------------------------------------------------

/// True when the host has the vector unit the kernels target (AVX2 on
/// x86-64, baseline NEON on aarch64). Cached after the first call; every
/// dispatched kernel checks it per call.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(target_arch = "aarch64")]
    {
        true
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// Detected CPU features relevant to kernel selection, for bench provenance
/// metadata: `(name, detected)` pairs.
pub fn cpu_features() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ]
    }
    #[cfg(target_arch = "aarch64")]
    {
        vec![("neon", true)]
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// Dispatched kernels (bit-identical to `scalar`)
// ---------------------------------------------------------------------------

/// `dst[i] += Σ_k ops[k].0[i] · ops[k].1`, folded per element in `ops`
/// order: bit-identical to [`scalar::axpy_wr`] (`dst[i] += src[i] * w`)
/// once per op, but one pass over `dst` on x86-64 (the AVX2 body keeps a
/// block of `dst` in registers across every op; NEON runs one element-wise
/// pass per op). The DFE's fused slot prediction.
///
/// # Panics
/// Panics if any op's segment length differs from `dst.len()`.
#[inline]
pub fn axpy_wr_many(dst: &mut [C64], ops: &[(&[C64], f64)]) {
    for (seg, _) in ops {
        assert_eq!(dst.len(), seg.len(), "axpy_wr_many: length mismatch");
    }
    if simd_available() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_available() implies AVX2 was detected at runtime;
        // every segment's length was asserted equal to `dst.len()` above.
        unsafe {
            return avx2::axpy_wr_many(dst, ops);
        }
        #[cfg(target_arch = "aarch64")]
        {
            for &(seg, w) in ops {
                neon::axpy_wr(dst, seg, w);
            }
            return;
        }
    }
    scalar::axpy_wr_many(dst, ops)
}

/// The DFE's residual and its cross-correlations in one pass: with
/// `z[t] = x[t] − p[t]`, returns `Σ |z[t]|²` and writes
/// `cross[u] = Σ z[t]·conj(deltas[u][t])`, every sum its own chain in
/// ascending `t` from zero (`|z|²` as `re·re + im·im`, one rounding per
/// product and per accumulate); `z` never leaves registers.
///
/// # Panics
/// Panics if `cross.len() != deltas.len()` or any length differs from
/// `x.len()`.
#[inline]
pub fn residual_cross(x: &[C64], p: &[C64], deltas: &[&[C64]], cross: &mut [C64]) -> f64 {
    assert_eq!(x.len(), p.len(), "residual_cross: length mismatch");
    assert_eq!(cross.len(), deltas.len(), "residual_cross: length mismatch");
    for d in deltas {
        assert_eq!(x.len(), d.len(), "residual_cross: length mismatch");
    }
    if simd_available() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_available() implies AVX2 was detected at runtime;
        // the lengths were asserted above and each arm passes `N` with
        // `2·N == deltas.len() == cross.len()`.
        unsafe {
            match deltas.len() {
                2 => return avx2::residual_cross::<1>(x, p, deltas, cross),
                4 => return avx2::residual_cross::<2>(x, p, deltas, cross),
                6 => return avx2::residual_cross::<3>(x, p, deltas, cross),
                8 => return avx2::residual_cross::<4>(x, p, deltas, cross),
                _ => {}
            }
        }
    }
    scalar::residual_cross(x, p, deltas, cross)
}

/// Two running inner products with a shared conjugated left factor:
/// `(i0 + Σ conj(a[t])·b0[t], i1 + Σ conj(a[t])·b1[t])` — the training
/// refinement's Hermitian pair dots, which carry their accumulators across
/// window slots (hence the explicit initial values: starting each lane's
/// chain at the carried value preserves the scalar chain bit-for-bit).
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn dotc2(a: &[C64], b0: &[C64], b1: &[C64], i0: C64, i1: C64) -> (C64, C64) {
    assert_eq!(a.len(), b0.len(), "dotc2: length mismatch");
    assert_eq!(a.len(), b1.len(), "dotc2: length mismatch");
    if simd_available() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_available() implies AVX2 was detected at runtime.
        unsafe {
            return avx2::dotc2(a, b0, b1, i0, i1);
        }
    }
    scalar::dotc2(a, b0, b1, i0, i1)
}

/// Column-`j` update of the row-oriented Cholesky factorization: for every
/// row `i` in `below` (row-major slabs of length `n`),
/// `row_i[j] = (row_i[j] − Σ_{k<j} row_i[k]·conj(prefix_j[k])) · inv_ljj`.
/// Rows are independent chains, vectorized in pairs.
///
/// # Panics
/// Panics if `below` is not a multiple of `n` or `prefix_j` shorter than `j`.
#[inline]
pub fn chol_col_update(below: &mut [C64], n: usize, j: usize, prefix_j: &[C64], inv_ljj: f64) {
    assert!(
        below.len().is_multiple_of(n),
        "chol_col_update: ragged rows"
    );
    assert!(prefix_j.len() >= j, "chol_col_update: short prefix");
    if simd_available() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_available() implies AVX2 was detected at runtime.
        unsafe {
            return avx2::chol_col_update(below, n, j, prefix_j, inv_ljj);
        }
    }
    scalar::chol_col_update(below, n, j, prefix_j, inv_ljj)
}

/// One RK2 midpoint step of the liquid-crystal dynamics for every pixel,
/// writing the optical contribution `contrib[p] = w[p]·(2·x⁺[p] − 1)`.
///
/// This mirrors `retroturbo_lcm::dynamics::step_rates` exactly (charging
/// `dx = ((1−x)·u)·inv_c`, `du = (1−u)·inv_uc`; discharging
/// `dx = ((−x)·((1−x)+δ))·inv_r`, `du = (−u)·inv_ud`; both stages clamped to
/// `[0, 1]`), selected per pixel by `drive_mask` (`u64::MAX` = field on,
/// `0` = off). Bit-identity with the reference panel loop is differential-
/// tested in `retroturbo-lcm`.
///
/// # Panics
/// Panics if the slices disagree in length.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn lc_rk2_contrib(
    x: &mut [f64],
    u: &mut [f64],
    drive_mask: &[u64],
    w: &[f64],
    inv_charge: &[f64],
    inv_ready_up: &[f64],
    inv_relax: &[f64],
    inv_ready_down: &[f64],
    delta: &[f64],
    dt: f64,
    contrib: &mut [f64],
) {
    let n = x.len();
    assert!(
        [
            u.len(),
            drive_mask.len(),
            w.len(),
            inv_charge.len(),
            inv_ready_up.len(),
            inv_relax.len(),
            inv_ready_down.len(),
            delta.len(),
            contrib.len(),
        ]
        .iter()
        .all(|&l| l == n),
        "lc_rk2_contrib: length mismatch"
    );
    if simd_available() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_available() implies AVX2 was detected at runtime.
        unsafe {
            return avx2::lc_rk2_contrib(
                x,
                u,
                drive_mask,
                w,
                inv_charge,
                inv_ready_up,
                inv_relax,
                inv_ready_down,
                delta,
                dt,
                contrib,
            );
        }
    }
    scalar::lc_rk2_range(
        0..n,
        x,
        u,
        drive_mask,
        w,
        inv_charge,
        inv_ready_up,
        inv_relax,
        inv_ready_down,
        delta,
        dt,
        contrib,
    );
}

// ---------------------------------------------------------------------------
// Scalar bodies: the non-SIMD path and the oracle
// ---------------------------------------------------------------------------

/// The scalar body of every dispatched kernel above, with the same
/// signature, contract and panics. Hosts without the vector unit run these;
/// the differential tests and the all-scalar packet oracle call them
/// directly.
pub mod scalar {
    use crate::complex::C64;

    /// `dst[i] += src[i] * w`, the complex × real axpy that
    /// [`axpy_wr_many`] folds once per op.
    pub fn axpy_wr(dst: &mut [C64], src: &[C64], w: f64) {
        assert_eq!(dst.len(), src.len(), "axpy_wr: length mismatch");
        for (p, s) in dst.iter_mut().zip(src) {
            *p += *s * w;
        }
    }

    /// Scalar body of [`super::axpy_wr_many`]: one [`axpy_wr`] per op.
    pub fn axpy_wr_many(dst: &mut [C64], ops: &[(&[C64], f64)]) {
        for &(seg, w) in ops {
            axpy_wr(dst, seg, w);
        }
    }

    /// Scalar body of [`super::residual_cross`].
    pub fn residual_cross(x: &[C64], p: &[C64], deltas: &[&[C64]], cross: &mut [C64]) -> f64 {
        assert_eq!(x.len(), p.len(), "residual_cross: length mismatch");
        assert_eq!(cross.len(), deltas.len(), "residual_cross: length mismatch");
        cross.fill(C64::default());
        let mut e = 0.0;
        for (t, (&a, &b)) in x.iter().zip(p).enumerate() {
            let z = a - b;
            e += z.norm_sqr();
            for (c, d) in cross.iter_mut().zip(deltas) {
                *c += z * d[t].conj();
            }
        }
        e
    }

    /// Scalar body of [`super::dotc2`].
    pub fn dotc2(a: &[C64], b0: &[C64], b1: &[C64], i0: C64, i1: C64) -> (C64, C64) {
        assert_eq!(a.len(), b0.len(), "dotc2: length mismatch");
        assert_eq!(a.len(), b1.len(), "dotc2: length mismatch");
        let (mut a0, mut a1) = (i0, i1);
        for ((&at, &x0), &x1) in a.iter().zip(b0).zip(b1) {
            a0 += at.conj() * x0;
            a1 += at.conj() * x1;
        }
        (a0, a1)
    }

    /// Scalar body of [`super::chol_col_update`].
    pub fn chol_col_update(below: &mut [C64], n: usize, j: usize, prefix_j: &[C64], inv_ljj: f64) {
        assert!(
            below.len().is_multiple_of(n),
            "chol_col_update: ragged rows"
        );
        assert!(prefix_j.len() >= j, "chol_col_update: short prefix");
        for row_i in below.chunks_exact_mut(n) {
            let mut s = row_i[j];
            for (&x, &yv) in row_i[..j].iter().zip(prefix_j) {
                s -= x * yv.conj();
            }
            row_i[j] = s.scale(inv_ljj);
        }
    }

    /// Scalar body of [`super::lc_rk2_contrib`].
    #[allow(clippy::too_many_arguments)]
    pub fn lc_rk2_contrib(
        x: &mut [f64],
        u: &mut [f64],
        drive_mask: &[u64],
        w: &[f64],
        inv_charge: &[f64],
        inv_ready_up: &[f64],
        inv_relax: &[f64],
        inv_ready_down: &[f64],
        delta: &[f64],
        dt: f64,
        contrib: &mut [f64],
    ) {
        let n = x.len();
        assert!(
            [
                u.len(),
                drive_mask.len(),
                w.len(),
                inv_charge.len(),
                inv_ready_up.len(),
                inv_relax.len(),
                inv_ready_down.len(),
                delta.len(),
                contrib.len(),
            ]
            .iter()
            .all(|&l| l == n),
            "lc_rk2_contrib: length mismatch"
        );
        lc_rk2_range(
            0..n,
            x,
            u,
            drive_mask,
            w,
            inv_charge,
            inv_ready_up,
            inv_relax,
            inv_ready_down,
            delta,
            dt,
            contrib,
        );
    }

    /// [`lc_rk2_contrib`] over a pixel range (the vector body's tail).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn lc_rk2_range(
        range: std::ops::Range<usize>,
        x: &mut [f64],
        u: &mut [f64],
        drive_mask: &[u64],
        w: &[f64],
        inv_charge: &[f64],
        inv_ready_up: &[f64],
        inv_relax: &[f64],
        inv_ready_down: &[f64],
        delta: &[f64],
        dt: f64,
        contrib: &mut [f64],
    ) {
        let derivs = |xp: f64, up: f64, p: usize, on: bool| -> (f64, f64) {
            if on {
                (
                    (1.0 - xp) * up * inv_charge[p],
                    (1.0 - up) * inv_ready_up[p],
                )
            } else {
                (
                    -xp * (1.0 - xp + delta[p]) * inv_relax[p],
                    -up * inv_ready_down[p],
                )
            }
        };
        for p in range {
            let on = drive_mask[p] != 0;
            let (dx1, du1) = derivs(x[p], u[p], p, on);
            let mx = (x[p] + 0.5 * dt * dx1).clamp(0.0, 1.0);
            let mu = (u[p] + 0.5 * dt * du1).clamp(0.0, 1.0);
            let (dx2, du2) = derivs(mx, mu, p, on);
            let xn = (x[p] + dt * dx2).clamp(0.0, 1.0);
            let un = (u[p] + dt * du2).clamp(0.0, 1.0);
            x[p] = xn;
            u[p] = un;
            contrib[p] = w[p] * (2.0 * xn - 1.0);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 implementations. Bit-identity discipline (f64 kernels):
    //!
    //! * element-wise maps use plain `mul`/`add`/`sub` — no FMA (contraction
    //!   changes rounding);
    //! * f64 reductions keep one scalar chain per *independent* output; the
    //!   ymm lanes hold different outputs, never partial sums of one output;
    //! * complex products use the `addsub` formulation, whose per-component
    //!   roundings are exactly `C64::mul`'s (addition commutes bit-exactly,
    //!   and `a − (−b)` rounds identically to `a + b`);
    //! * `max/min` only replace `clamp` where `NaN`/`−0.0` inputs are
    //!   unreachable (argued at the call sites).

    use crate::complex::C64;
    use std::arch::x86_64::*;

    #[inline(always)]
    fn pf(xs: &[C64]) -> *const f64 {
        xs.as_ptr() as *const f64
    }

    #[inline(always)]
    fn pfm(xs: &mut [C64]) -> *mut f64 {
        xs.as_mut_ptr() as *mut f64
    }

    /// Load one complex into the low lane pair and another into the high
    /// pair: `[a.re, a.im, b.re, b.im]`.
    #[inline(always)]
    unsafe fn pair(a: *const f64, b: *const f64) -> __m256d {
        _mm256_set_m128d(_mm_loadu_pd(b), _mm_loadu_pd(a))
    }

    #[inline(always)]
    unsafe fn neg(v: __m256d) -> __m256d {
        _mm256_xor_pd(v, _mm256_set1_pd(-0.0))
    }

    /// Per-128-lane `a·conj(b)` (`b_swap` = `b` with re/im swapped). Rounds
    /// exactly like `C64::mul(a, b.conj())`.
    #[inline(always)]
    unsafe fn cmul_conj_rhs(a: __m256d, b: __m256d, b_swap: __m256d) -> __m256d {
        let t1 = _mm256_mul_pd(_mm256_movedup_pd(a), b);
        let t2 = _mm256_mul_pd(_mm256_permute_pd(a, 0b1111), b_swap);
        _mm256_addsub_pd(t2, neg(t1))
    }

    /// Per-128-lane `conj(a)·b`. Rounds exactly like
    /// `C64::mul(a.conj(), b)`.
    #[inline(always)]
    unsafe fn cmul_conj_lhs(a: __m256d, b: __m256d, b_swap: __m256d) -> __m256d {
        let t1 = _mm256_mul_pd(_mm256_movedup_pd(a), b);
        let t2 = _mm256_mul_pd(_mm256_permute_pd(a, 0b1111), b_swap);
        _mm256_addsub_pd(t1, neg(t2))
    }

    #[inline(always)]
    unsafe fn swap_halves(v: __m256d) -> __m256d {
        _mm256_permute_pd(v, 0b0101)
    }

    #[inline(always)]
    unsafe fn extract2(v: __m256d) -> (C64, C64) {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd(v, 1);
        let mut buf = [0.0f64; 4];
        _mm_storeu_pd(buf.as_mut_ptr(), lo);
        _mm_storeu_pd(buf.as_mut_ptr().add(2), hi);
        (C64::new(buf[0], buf[1]), C64::new(buf[2], buf[3]))
    }

    /// `dst += Σ seg·w` in op order per element. Each block of `dst` is
    /// loaded once, takes every op's `mul` then `add` in registers, and is
    /// stored once: the per-element op sequence of sequential
    /// `scalar::axpy_wr`.
    /// The widest block is one 20-sample DFE slot (10 accumulators, enough
    /// independent chains to hide the add latency).
    ///
    /// # Safety
    /// The CPU must support AVX2, and every op's segment must hold at
    /// least `dst.len()` samples (the dispatcher asserts equal lengths).
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_wr_many(dst: &mut [C64], ops: &[(&[C64], f64)]) {
        let n = dst.len();
        let dp = pfm(dst);
        let mut i = 0;
        while i + 20 <= n {
            let mut acc = [_mm256_setzero_pd(); 10];
            for (k, a) in acc.iter_mut().enumerate() {
                *a = _mm256_loadu_pd(dp.add(2 * i + 4 * k));
            }
            for &(seg, w) in ops {
                let sp = pf(seg).add(2 * i);
                let wv = _mm256_set1_pd(w);
                for (k, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_pd(*a, _mm256_mul_pd(_mm256_loadu_pd(sp.add(4 * k)), wv));
                }
            }
            for (k, a) in acc.iter().enumerate() {
                _mm256_storeu_pd(dp.add(2 * i + 4 * k), *a);
            }
            i += 20;
        }
        while i + 4 <= n {
            let mut a0 = _mm256_loadu_pd(dp.add(2 * i));
            let mut a1 = _mm256_loadu_pd(dp.add(2 * i + 4));
            for &(seg, w) in ops {
                let sp = pf(seg).add(2 * i);
                let wv = _mm256_set1_pd(w);
                a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(sp), wv));
                a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(sp.add(4)), wv));
            }
            _mm256_storeu_pd(dp.add(2 * i), a0);
            _mm256_storeu_pd(dp.add(2 * i + 4), a1);
            i += 4;
        }
        while i < n {
            // Up to three samples left: a 128-bit lane each.
            let mut a = _mm_loadu_pd(dp.add(2 * i));
            for &(seg, w) in ops {
                let s = _mm_loadu_pd(pf(seg).add(2 * i));
                a = _mm_add_pd(a, _mm_mul_pd(s, _mm_set1_pd(w)));
            }
            _mm_storeu_pd(dp.add(2 * i), a);
            i += 1;
        }
    }

    /// `N` delta pairs, one accumulator per pair (`[re, im]` of each
    /// output in one 128-bit lane); `hadd` gives `|z|²` with one rounding,
    /// matching `norm_sqr`'s `re·re + im·im`, into a scalar energy chain.
    ///
    /// # Safety
    /// The CPU must support AVX2; `deltas` and `cross` must hold `2·N`
    /// entries and `p` and every delta at least `x.len()` samples (the
    /// dispatcher asserts all of these).
    #[target_feature(enable = "avx2")]
    pub unsafe fn residual_cross<const N: usize>(
        x: &[C64],
        p: &[C64],
        deltas: &[&[C64]],
        cross: &mut [C64],
    ) -> f64 {
        let xp = pf(x);
        let pp = pf(p);
        let dp: [[*const f64; 2]; N] =
            std::array::from_fn(|k| [pf(deltas[2 * k]), pf(deltas[2 * k + 1])]);
        let mut acc = [_mm256_setzero_pd(); N];
        let mut e = 0.0f64;
        for t in 0..x.len() {
            let z = _mm_sub_pd(_mm_loadu_pd(xp.add(2 * t)), _mm_loadu_pd(pp.add(2 * t)));
            let sq = _mm_mul_pd(z, z);
            e += _mm_cvtsd_f64(_mm_hadd_pd(sq, sq));
            let a = _mm256_set_m128d(z, z);
            for (ac, d) in acc.iter_mut().zip(&dp) {
                let b = pair(d[0].add(2 * t), d[1].add(2 * t));
                *ac = _mm256_add_pd(*ac, cmul_conj_rhs(a, b, swap_halves(b)));
            }
        }
        for (k, ac) in acc.iter().enumerate() {
            let (c0, c1) = extract2(*ac);
            cross[2 * k] = c0;
            cross[2 * k + 1] = c1;
        }
        e
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn dotc2(a: &[C64], b0: &[C64], b1: &[C64], i0: C64, i1: C64) -> (C64, C64) {
        let n = a.len();
        let ap = pf(a);
        let b0p = pf(b0);
        let b1p = pf(b1);
        let mut acc = _mm256_set_pd(i1.im, i1.re, i0.im, i0.re);
        for t in 0..n {
            let av = _mm256_broadcast_pd(&*(ap.add(2 * t) as *const __m128d));
            let b = pair(b0p.add(2 * t), b1p.add(2 * t));
            acc = _mm256_add_pd(acc, cmul_conj_lhs(av, b, swap_halves(b)));
        }
        extract2(acc)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn chol_col_update(
        below: &mut [C64],
        n: usize,
        j: usize,
        prefix_j: &[C64],
        inv_ljj: f64,
    ) {
        let ppj = pf(prefix_j);
        let inv = _mm256_set1_pd(inv_ljj);
        let mut rows = below.chunks_exact_mut(2 * n);
        for pair_rows in &mut rows {
            let (r0, r1) = pair_rows.split_at_mut(n);
            let r0p = pfm(r0);
            let r1p = pfm(r1);
            let mut acc = pair(r0p.add(2 * j) as *const f64, r1p.add(2 * j) as *const f64);
            for k in 0..j {
                let b = _mm256_broadcast_pd(&*(ppj.add(2 * k) as *const __m128d));
                let a = pair(r0p.add(2 * k) as *const f64, r1p.add(2 * k) as *const f64);
                acc = _mm256_sub_pd(acc, cmul_conj_rhs(a, b, swap_halves(b)));
            }
            acc = _mm256_mul_pd(acc, inv);
            _mm_storeu_pd(r0p.add(2 * j), _mm256_castpd256_pd128(acc));
            _mm_storeu_pd(r1p.add(2 * j), _mm256_extractf128_pd(acc, 1));
        }
        for row_i in rows.into_remainder().chunks_exact_mut(n) {
            let mut sv = row_i[j];
            for (&xv, &yv) in row_i[..j].iter().zip(prefix_j) {
                sv -= xv * yv.conj();
            }
            row_i[j] = sv.scale(inv_ljj);
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn lc_rk2_contrib(
        x: &mut [f64],
        u: &mut [f64],
        drive_mask: &[u64],
        w: &[f64],
        inv_charge: &[f64],
        inv_ready_up: &[f64],
        inv_relax: &[f64],
        inv_ready_down: &[f64],
        delta: &[f64],
        dt: f64,
        contrib: &mut [f64],
    ) {
        let n = x.len();
        let one = _mm256_set1_pd(1.0);
        let zero = _mm256_setzero_pd();
        let hdt = _mm256_set1_pd(0.5 * dt);
        let dtv = _mm256_set1_pd(dt);
        // x⁺ ∈ [0,1] is finite and never −0.0 (see scalar analysis), so
        // max/min are exact stand-ins for clamp.
        let clamp01 = |v: __m256d| _mm256_min_pd(_mm256_max_pd(v, zero), one);
        let mut p = 0;
        while p + 4 <= n {
            let xv = _mm256_loadu_pd(x.as_ptr().add(p));
            let uv = _mm256_loadu_pd(u.as_ptr().add(p));
            let mask = _mm256_loadu_pd(drive_mask.as_ptr().add(p) as *const f64);
            let icv = _mm256_loadu_pd(inv_charge.as_ptr().add(p));
            let iuv = _mm256_loadu_pd(inv_ready_up.as_ptr().add(p));
            let irv = _mm256_loadu_pd(inv_relax.as_ptr().add(p));
            let idv = _mm256_loadu_pd(inv_ready_down.as_ptr().add(p));
            let dev = _mm256_loadu_pd(delta.as_ptr().add(p));

            let derivs = |xs: __m256d, us: __m256d| -> (__m256d, __m256d) {
                let dx_on = _mm256_mul_pd(_mm256_mul_pd(_mm256_sub_pd(one, xs), us), icv);
                let du_on = _mm256_mul_pd(_mm256_sub_pd(one, us), iuv);
                let dx_off = _mm256_mul_pd(
                    _mm256_mul_pd(
                        super::avx2neg(xs),
                        _mm256_add_pd(_mm256_sub_pd(one, xs), dev),
                    ),
                    irv,
                );
                let du_off = _mm256_mul_pd(super::avx2neg(us), idv);
                (
                    _mm256_blendv_pd(dx_off, dx_on, mask),
                    _mm256_blendv_pd(du_off, du_on, mask),
                )
            };
            let (dx1, du1) = derivs(xv, uv);
            let mx = clamp01(_mm256_add_pd(xv, _mm256_mul_pd(hdt, dx1)));
            let mu = clamp01(_mm256_add_pd(uv, _mm256_mul_pd(hdt, du1)));
            let (dx2, du2) = derivs(mx, mu);
            let xn = clamp01(_mm256_add_pd(xv, _mm256_mul_pd(dtv, dx2)));
            let un = clamp01(_mm256_add_pd(uv, _mm256_mul_pd(dtv, du2)));
            _mm256_storeu_pd(x.as_mut_ptr().add(p), xn);
            _mm256_storeu_pd(u.as_mut_ptr().add(p), un);
            let g = _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), xn), one);
            _mm256_storeu_pd(
                contrib.as_mut_ptr().add(p),
                _mm256_mul_pd(_mm256_loadu_pd(w.as_ptr().add(p)), g),
            );
            p += 4;
        }
        super::scalar::lc_rk2_range(
            p..n,
            x,
            u,
            drive_mask,
            w,
            inv_charge,
            inv_ready_up,
            inv_relax,
            inv_ready_down,
            delta,
            dt,
            contrib,
        );
    }
}

/// Sign-flip helper shared with the AVX2 module (kept here so the module can
/// call it through `super::`).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn avx2neg(v: std::arch::x86_64::__m256d) -> std::arch::x86_64::__m256d {
    // SAFETY: pure bitwise op, no feature requirement beyond AVX (caller is
    // inside an avx2 target_feature region).
    unsafe { std::arch::x86_64::_mm256_xor_pd(v, std::arch::x86_64::_mm256_set1_pd(-0.0)) }
}

// ---------------------------------------------------------------------------
// NEON kernels (aarch64): the cheap element-wise subset
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use crate::complex::C64;
    use std::arch::aarch64::*;

    /// One op of [`super::axpy_wr_many`]; `src` must hold at least
    /// `dst.len()` samples (the dispatcher asserts equal lengths).
    pub fn axpy_wr(dst: &mut [C64], src: &[C64], w: f64) {
        let n = dst.len();
        // SAFETY: NEON is baseline on aarch64; C64 is repr(C) [re, im].
        unsafe {
            let dp = dst.as_mut_ptr() as *mut f64;
            let sp = src.as_ptr() as *const f64;
            let wv = vdupq_n_f64(w);
            for i in 0..n {
                let s = vld1q_f64(sp.add(2 * i));
                let d = vld1q_f64(dp.add(2 * i));
                vst1q_f64(dp.add(2 * i), vaddq_f64(d, vmulq_f64(s, wv)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Each test runs the public dispatched entry against its `scalar::`
    //! body and compares bits. On a SIMD host that proves the vector body
    //! the host runs; elsewhere both sides are the scalar body.
    use super::*;

    /// Deterministic pseudo-random stream (no external deps).
    struct Lcg(u64);
    impl Lcg {
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
        fn f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }
        fn c64(&mut self) -> C64 {
            C64::new(self.f64(), self.f64())
        }
    }

    fn cvec(r: &mut Lcg, n: usize) -> Vec<C64> {
        (0..n).map(|_| r.c64()).collect()
    }

    /// Mix in the edge cases the bit-identity contract must survive.
    fn spice(xs: &mut [C64]) {
        if xs.len() >= 6 {
            xs[0] = C64::new(0.0, -0.0);
            xs[1] = C64::new(1e-310, -1e-310); // subnormals
            xs[2] = C64::new(1e300, -1e300);
            xs[3] = C64::new(-0.0, 0.0);
        }
    }

    fn assert_bits_eq(a: C64, b: C64, ctx: &str) {
        assert_eq!(
            a.re.to_bits(),
            b.re.to_bits(),
            "{ctx}: re {} vs {}",
            a.re,
            b.re
        );
        assert_eq!(
            a.im.to_bits(),
            b.im.to_bits(),
            "{ctx}: im {} vs {}",
            a.im,
            b.im
        );
    }

    /// The fused prediction kernel against its scalar body (sequential
    /// `scalar::axpy_wr`) over every length 0–41 (the DFE's 10- and
    /// 20-sample slots included, with odd tails and partial blocks) and
    /// 0–64 ops.
    #[test]
    fn axpy_many_bit_identical() {
        let mut r = Lcg(41);
        let ws = [1.0, -0.0, 0.25, -3.5e-8, 2.7e12, 0.0];
        for n in 0usize..=41 {
            for n_ops in [0usize, 1, 2, 3, 5, 8, 14, 28, 64] {
                let segs: Vec<Vec<C64>> = (0..n_ops)
                    .map(|k| {
                        let mut v = cvec(&mut r, n);
                        if k % 3 == 0 {
                            spice(&mut v);
                        }
                        v
                    })
                    .collect();
                let ops: Vec<(&[C64], f64)> = segs
                    .iter()
                    .enumerate()
                    .map(|(k, v)| (v.as_slice(), ws[k % ws.len()] * (1.0 + r.f64())))
                    .collect();
                let base = cvec(&mut r, n);
                let mut a = base.clone();
                let mut b = base;
                scalar::axpy_wr_many(&mut a, &ops);
                axpy_wr_many(&mut b, &ops);
                for (x, y) in a.iter().zip(&b) {
                    assert_bits_eq(*x, *y, &format!("axpy_many n={n} ops={n_ops}"));
                }
            }
        }
    }

    /// The fused residual/cross kernel against its scalar body for every
    /// delta count a PQAM order gives (2, 4, 6, 8 run the vector body; odd
    /// counts the scalar one) and slot-sized lengths.
    #[test]
    fn residual_cross_bit_identical() {
        let mut r = Lcg(19);
        for n in [0usize, 1, 2, 7, 10, 20, 31] {
            for nd in 0usize..=8 {
                let mut x = cvec(&mut r, n);
                spice(&mut x);
                let p = cvec(&mut r, n);
                let ds: Vec<Vec<C64>> = (0..nd).map(|_| cvec(&mut r, n)).collect();
                let deltas: Vec<&[C64]> = ds.iter().map(|d| d.as_slice()).collect();
                let mut ca = vec![C64::new(9.0, 9.0); nd];
                let mut cb = vec![C64::new(-9.0, 9.0); nd];
                let ea = scalar::residual_cross(&x, &p, &deltas, &mut ca);
                let eb = residual_cross(&x, &p, &deltas, &mut cb);
                assert_eq!(ea.to_bits(), eb.to_bits(), "energy n={n} nd={nd}");
                for (u, (a, b)) in ca.iter().zip(&cb).enumerate() {
                    assert_bits_eq(*a, *b, &format!("cross[{u}] n={n} nd={nd}"));
                }
            }
        }
    }

    #[test]
    fn dots_bit_identical() {
        let mut r = Lcg(13);
        for n in [0usize, 1, 3, 20, 48] {
            let mut a = cvec(&mut r, n);
            spice(&mut a);
            let b0 = cvec(&mut r, n);
            let b1 = cvec(&mut r, n);
            let (j0, j1) = (C64::new(0.25, -3.0), C64::new(-0.0, 1e-12));
            let (s0, s1) = scalar::dotc2(&a, &b0, &b1, j0, j1);
            let (v0, v1) = dotc2(&a, &b0, &b1, j0, j1);
            assert_bits_eq(s0, v0, &format!("dotc2[0] n={n}"));
            assert_bits_eq(s1, v1, &format!("dotc2[1] n={n}"));
        }
    }

    #[test]
    fn chol_update_bit_identical() {
        let mut r = Lcg(19);
        for (n, j, rows) in [(5usize, 0usize, 3usize), (8, 3, 5), (8, 7, 1), (12, 6, 4)] {
            let mut a = cvec(&mut r, rows * n);
            spice(&mut a);
            let mut b = a.clone();
            let prefix = cvec(&mut r, j);
            let inv = 0.37;
            scalar::chol_col_update(&mut a, n, j, &prefix, inv);
            chol_col_update(&mut b, n, j, &prefix, inv);
            for (x, y) in a.iter().zip(&b) {
                assert_bits_eq(*x, *y, &format!("chol n={n} j={j} rows={rows}"));
            }
        }
    }

    #[test]
    fn lc_rk2_bit_identical() {
        let mut r = Lcg(23);
        for n in [1usize, 4, 5, 9, 32] {
            let mut x: Vec<f64> = (0..n).map(|_| r.f64().abs()).collect();
            let mut u: Vec<f64> = (0..n).map(|_| r.f64().abs()).collect();
            let mask: Vec<u64> = (0..n)
                .map(|i| if i % 3 == 0 { u64::MAX } else { 0 })
                .collect();
            let w: Vec<f64> = (0..n).map(|_| r.f64()).collect();
            let ic: Vec<f64> = (0..n)
                .map(|_| 1.0 / (8e-5 * (1.0 + 0.1 * r.f64().abs())))
                .collect();
            let iu: Vec<f64> = (0..n).map(|_| 1.0 / 1e-4).collect();
            let ir: Vec<f64> = (0..n).map(|_| 1.0 / 7e-4).collect();
            let id: Vec<f64> = (0..n).map(|_| 1.0 / 1.2e-3).collect();
            let de: Vec<f64> = (0..n).map(|_| 0.05).collect();
            let dt = 25e-6;
            let (mut xa, mut ua) = (x.clone(), u.clone());
            let mut ca = vec![0.0; n];
            let mut cb = vec![0.0; n];
            // Several steps to let state evolve.
            for _ in 0..50 {
                scalar::lc_rk2_contrib(
                    &mut xa, &mut ua, &mask, &w, &ic, &iu, &ir, &id, &de, dt, &mut ca,
                );
                lc_rk2_contrib(
                    &mut x, &mut u, &mask, &w, &ic, &iu, &ir, &id, &de, dt, &mut cb,
                );
            }
            for i in 0..n {
                assert_eq!(xa[i].to_bits(), x[i].to_bits(), "x[{i}] n={n}");
                assert_eq!(ua[i].to_bits(), u[i].to_bits(), "u[{i}] n={n}");
                assert_eq!(ca[i].to_bits(), cb[i].to_bits(), "contrib[{i}] n={n}");
            }
        }
    }
}
