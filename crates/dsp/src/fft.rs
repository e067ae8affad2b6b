//! Radix-2 complex FFT with a rigorous forward-error bound.
//!
//! The preamble detector scores whole offset ranges from FFT
//! cross-correlations and then *certifies* each approximate score against
//! the exact per-offset fit (DESIGN.md §8). That needs more than a fast
//! transform: it needs a proven bound on how far the computed spectrum can
//! sit from the exact one. This module is the textbook iterative
//! Cooley–Tukey decimation-in-time transform (bit-reversal permutation,
//! then `log₂ n` butterfly stages), precisely the algorithm of Higham,
//! *Accuracy and Stability of Numerical Algorithms* (2nd ed.), Thm. 24.2:
//!
//! ```text
//! ‖fl(F x) − F x‖₂ ≤ t·η / (1 − t·η) · ‖F x‖₂,   t = log₂ n,
//! η = μ + γ₄(√2 + μ),                            γ_m = m·u / (1 − m·u)
//! ```
//!
//! where `μ` bounds the error of every stored twiddle factor. Twiddles are
//! computed once as `sin_cos(−2π·j/N)` for the largest size `N`; the
//! argument carries at most `2u·π` absolute error and `sin`/`cos` a few
//! ulp, so `|ŵ − w| ≤ 11u` — `TWIDDLE_ERR` claims `32u`, which also
//! covers a libm that is off by up to ~10 ulp. Smaller sizes reuse the
//! table at a power-of-two stride, which yields bit-identical twiddles.

/// Unit roundoff of IEEE-754 binary64.
const U: f64 = f64::EPSILON / 2.0;

/// Claimed bound `μ` on `|ŵ − w|` for every stored twiddle factor.
const TWIDDLE_ERR: f64 = 32.0 * U;

/// `γ_m = m·u / (1 − m·u)`, the standard accumulated-rounding factor.
#[inline]
pub fn gamma(m: usize) -> f64 {
    let mu = m as f64 * U;
    mu / (1.0 - mu)
}

/// Radix-2 FFT plan for every power-of-two length up to `max_len`.
///
/// Data is split into real and imaginary slices (structure of arrays), so
/// the butterfly loops vectorise without any explicit SIMD.
#[derive(Debug, Clone)]
pub struct Fft {
    max_len: usize,
    /// Stage-ordered twiddles: the stage with half-width `h` reads
    /// `exp(−2πi·j / 2h)`, `j < h`, from `[h − 1, 2h − 1)` — the same
    /// values as the length-`max_len` table at stride `max_len / 2h`.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

impl Fft {
    /// Plan transforms of every power-of-two length up to `max_len`.
    ///
    /// # Panics
    /// Panics unless `max_len` is a power of two.
    pub fn new(max_len: usize) -> Self {
        assert!(
            max_len.is_power_of_two(),
            "Fft: length must be a power of two"
        );
        let table: Vec<(f64, f64)> = (0..max_len / 2)
            .map(|j| {
                let theta = -2.0 * std::f64::consts::PI * j as f64 / max_len as f64;
                let (s, c) = theta.sin_cos();
                (c, s)
            })
            .collect();
        let (mut tw_re, mut tw_im) = (Vec::new(), Vec::new());
        let mut half = 1;
        while half < max_len {
            let stride = max_len / (2 * half);
            for j in 0..half {
                tw_re.push(table[j * stride].0);
                tw_im.push(table[j * stride].1);
            }
            half *= 2;
        }
        Self {
            max_len,
            tw_re,
            tw_im,
        }
    }

    /// In-place forward DFT `X_m = Σ_j x_j·e^{−2πi·jm/n}` of
    /// `x = re + i·im`, `n = re.len()`.
    ///
    /// # Panics
    /// Panics unless both slices have the same power-of-two length no
    /// larger than the planned `max_len`.
    pub fn forward(&self, re: &mut [f64], im: &mut [f64]) {
        let n = re.len();
        assert!(
            n == im.len() && n.is_power_of_two() && n <= self.max_len,
            "Fft: length {n} is not a power of two ≤ {}",
            self.max_len
        );
        if n < 4 {
            if n == 2 {
                (re[0], re[1]) = (re[0] + re[1], re[0] - re[1]);
                (im[0], im[1]) = (im[0] + im[1], im[0] - im[1]);
            }
            return;
        }
        let shift = usize::BITS - n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> shift;
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        // Stages one and two have the trivial twiddles 1 and −i; using them
        // exactly is add-only and no less accurate than the stored values.
        for (r, m) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
            let (r0, r1, r2, r3) = (r[0] + r[1], r[0] - r[1], r[2] + r[3], r[2] - r[3]);
            let (i0, i1, i2, i3) = (m[0] + m[1], m[0] - m[1], m[2] + m[3], m[2] - m[3]);
            // b·(−i) = (b.im, −b.re) for the second pair.
            (r[0], r[2]) = (r0 + r2, r0 - r2);
            (m[0], m[2]) = (i0 + i2, i0 - i2);
            (r[1], r[3]) = (r1 + i3, r1 - i3);
            (m[1], m[3]) = (i1 - r3, i1 + r3);
        }
        let mut half = 4;
        while half < n {
            let (wr, wi) = (
                &self.tw_re[half - 1..2 * half - 1],
                &self.tw_im[half - 1..2 * half - 1],
            );
            for (r, m) in re
                .chunks_exact_mut(2 * half)
                .zip(im.chunks_exact_mut(2 * half))
            {
                let (ar, br) = r.split_at_mut(half);
                let (ai, bi) = m.split_at_mut(half);
                let lanes = ar
                    .iter_mut()
                    .zip(ai.iter_mut())
                    .zip(br.iter_mut().zip(bi.iter_mut()));
                for (((ar, ai), (br, bi)), (&wr, &wi)) in lanes.zip(wr.iter().zip(wi)) {
                    // t = b·w, then (a, b) ← (a + t, a − t).
                    let tr = *br * wr - *bi * wi;
                    let ti = *br * wi + *bi * wr;
                    *br = *ar - tr;
                    *bi = *ai - ti;
                    *ar += tr;
                    *ai += ti;
                }
            }
            half *= 2;
        }
    }

    /// In-place *unnormalised* inverse DFT `x_j = Σ_m X_m·e^{+2πi·jm/n}`
    /// (divide by `n` for the true inverse).
    ///
    /// Computed as the forward transform of the swapped parts,
    /// `F⁻¹x·n = swap(F·swap(x))` with `swap(a + ib) = b + ia`; swapping is
    /// exact, so the error bound is [`Self::error_bound`] as well, and the
    /// result equals a transform with conjugated twiddles bit for bit.
    ///
    /// # Panics
    /// As [`Self::forward`].
    pub fn inverse(&self, re: &mut [f64], im: &mut [f64]) {
        self.forward(im, re);
    }

    /// Relative forward-error bound `ε` of a length-`n` transform:
    /// `‖fl(F x) − F x‖₂ ≤ ε·‖F x‖₂ = ε·√n·‖x‖₂` (Higham Thm. 24.2).
    pub fn error_bound(n: usize) -> f64 {
        let t = n.trailing_zeros() as f64;
        let eta = TWIDDLE_ERR + gamma(4) * (std::f64::consts::SQRT_2 + TWIDDLE_ERR);
        t * eta / (1.0 - t * eta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    fn dft(x: &[C64], sign: f64) -> Vec<C64> {
        let n = x.len();
        (0..n)
            .map(|m| {
                x.iter()
                    .enumerate()
                    .map(|(j, &xj)| {
                        let th =
                            sign * 2.0 * std::f64::consts::PI * ((j * m) % n) as f64 / n as f64;
                        xj * C64::new(th.cos(), th.sin())
                    })
                    .sum()
            })
            .collect()
    }

    fn signal(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                C64::new(
                    (0.37 * t).sin() + 0.1 * (t * t * 0.01).cos(),
                    (1.3 * t).cos() - 0.2,
                )
            })
            .collect()
    }

    fn norm(v: &[C64]) -> f64 {
        v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    fn run(x: &[C64], f: impl Fn(&mut [f64], &mut [f64])) -> Vec<C64> {
        let mut re: Vec<f64> = x.iter().map(|z| z.re).collect();
        let mut im: Vec<f64> = x.iter().map(|z| z.im).collect();
        f(&mut re, &mut im);
        re.iter().zip(&im).map(|(&r, &i)| C64::new(r, i)).collect()
    }

    #[test]
    fn matches_direct_dft_within_bound() {
        let fft = Fft::new(1024);
        for n in [1usize, 2, 4, 8, 64, 256, 1024] {
            let x = signal(n);
            let want = dft(&x, -1.0);
            let got = run(&x, |r, i| fft.forward(r, i));
            let err: Vec<C64> = got.iter().zip(&want).map(|(a, b)| *a - *b).collect();
            // The direct DFT is itself only accurate to ~n·u, so compare
            // against the FFT bound plus the direct sum's own bound.
            let tol = (Fft::error_bound(n) + gamma(4 * n + 16)) * norm(&want);
            assert!(norm(&err) <= tol, "n={n}: error {} > {tol}", norm(&err));
        }
    }

    #[test]
    fn inverse_round_trips() {
        let fft = Fft::new(512);
        let x = signal(512);
        let y = run(&x, |r, i| {
            fft.forward(r, i);
            fft.inverse(r, i);
        });
        for (a, b) in y.iter().zip(&x) {
            assert!((*a / 512.0 - *b).abs() < 1e-12);
        }
        let want = dft(&x, 1.0);
        let got = run(&x, |r, i| fft.inverse(r, i));
        let err: Vec<C64> = got.iter().zip(&want).map(|(a, b)| *a - *b).collect();
        assert!(norm(&err) <= (Fft::error_bound(512) + gamma(4 * 512 + 16)) * norm(&want));
    }

    #[test]
    fn smaller_lengths_reuse_the_table_exactly() {
        // A length-64 plan and a length-1024 plan stride into bit-identical
        // twiddles, so their length-64 transforms agree bit for bit.
        let x = signal(64);
        let a = run(&x, |r, i| Fft::new(64).forward(r, i));
        let b = run(&x, |r, i| Fft::new(1024).forward(r, i));
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p.re.to_bits(), q.re.to_bits());
            assert_eq!(p.im.to_bits(), q.im.to_bits());
        }
    }

    #[test]
    fn twiddles_within_claimed_error() {
        // |w|² = 1 and w^{N/4} = −i up to the claimed twiddle error.
        let fft = Fft::new(2048);
        for (&c, &s) in fft.tw_re.iter().zip(&fft.tw_im) {
            assert!((C64::new(c, s).norm_sqr() - 1.0).abs() <= 2.0 * TWIDDLE_ERR);
        }
        // The half-width-2 stage holds exp(−iπ/2) = −i.
        let q = C64::new(fft.tw_re[2], fft.tw_im[2]);
        assert!((q - C64::new(0.0, -1.0)).abs() <= TWIDDLE_ERR);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        Fft::new(1024).forward(&mut [0.0; 12], &mut [0.0; 12]);
    }
}
