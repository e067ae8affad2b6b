//! Small dense linear algebra used by the receiver.
//!
//! Three consumers drive the feature set:
//!
//! * the preamble detector (§4.3.1) solves a 3-unknown complex least-squares
//!   fit `min ‖Y − (aX + bX* + c)‖²` at candidate offsets, and certifies
//!   moment-based approximations of it everywhere else;
//! * the online channel trainer (§4.3.3) solves a tall complex least-squares
//!   system for `2·S·L` basis coefficients;
//! * the offline channel trainer extracts Karhunen–Loève bases with a
//!   truncated SVD of the fingerprint matrix.
//!
//! Everything is dense and small (tens of unknowns), so simple, robust
//! algorithms — normal equations with partially pivoted Gaussian elimination,
//! and one-sided Jacobi SVD — are the right tools; no external linear algebra
//! crate is needed.

use crate::backend;
use crate::complex::C64;
use crate::fft::gamma;

// ---------------------------------------------------------------------------
// Real matrices
// ---------------------------------------------------------------------------

/// Dense row-major real matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "Mat::from_vec: shape mismatch");
        Self { rows, cols, data }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transpose.
    pub fn t(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "matmul: inner dimension mismatch");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

// ---------------------------------------------------------------------------
// Complex matrices
// ---------------------------------------------------------------------------

/// Dense row-major complex matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMat {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![C64::default(); rows * cols],
        }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<C64>) -> Self {
        assert_eq!(data.len(), rows * cols, "CMat::from_vec: shape mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Conjugate transpose `Aᴴ`.
    pub fn h(&self) -> CMat {
        let mut out = CMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Matrix product.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &CMat) -> CMat {
        assert_eq!(self.cols, rhs.rows, "CMat::matmul: dimension mismatch");
        let mut out = CMat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a.norm_sqr() == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let t = a * rhs[(k, j)];
                    out[(i, j)] += t;
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[C64]) -> Vec<C64> {
        assert_eq!(x.len(), self.cols, "CMat::matvec: dimension mismatch");
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self[(i, j)] * x[j]).sum())
            .collect()
    }
}

impl std::ops::Index<(usize, usize)> for CMat {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Solve the square complex system `A x = b` by Gaussian elimination with
/// partial pivoting on `|a_ik|`. Returns `None` when singular.
///
/// This is [`GaussFactor::new`] followed by [`GaussFactor::solve`]: the one
/// elimination body, with the right-hand side replayed afterwards.
pub fn gauss_solve_c(a: &CMat, b: &[C64]) -> Option<Vec<C64>> {
    assert_eq!(a.rows(), b.len(), "gauss_solve_c: rhs length mismatch");
    GaussFactor::new(a).map(|f| f.solve(b))
}

/// Gaussian elimination of a square complex matrix with partial pivoting
/// on `|a_ik|`, recorded so that any number of right-hand sides can be
/// solved later without eliminating the matrix again.
///
/// [`GaussFactor::solve`] applies to `b` exactly the operations the
/// interleaved elimination would, in the same order: each row receives
/// `v_i −= v_k·f_ik` for ascending `k` (skipping the same zero multipliers),
/// the pivot swaps only relabel rows, and the back substitution reads the
/// same U. So a replayed solve is bit-identical to eliminating `[A | b]`
/// from scratch, for every `b`, non-finite entries included (a NaN result
/// is NaN in both, though Rust leaves its sign and payload unspecified).
#[derive(Debug, Clone)]
pub struct GaussFactor {
    n: usize,
    /// Row-major n × n: U on and above the diagonal; below it, each row's
    /// multiplier `f_ik` for step `k`, carried along by later pivot swaps.
    lu: Vec<C64>,
    /// Pivot row chosen at each elimination step.
    pivots: Vec<usize>,
}

impl GaussFactor {
    /// Eliminate `a`. Returns `None` when singular.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn new(a: &CMat) -> Option<Self> {
        assert_eq!(a.rows(), a.cols(), "gauss_solve_c: matrix must be square");
        let n = a.rows();
        let mut data = a.data.clone();
        let mut pivots = Vec::with_capacity(n);
        // Elimination on raw row slices: identical arithmetic in identical
        // order to the obvious `m[(i, j)]` formulation (bit-identical
        // results), but with the per-element index math and bounds checks
        // hoisted out so the independent-per-column update vectorizes.
        for k in 0..n {
            let (piv, pmax) = (k..n)
                .map(|i| (i, data[i * n + k].norm_sqr()))
                .max_by(|x, y| x.1.total_cmp(&y.1))?;
            if pmax < 1e-300 {
                return None;
            }
            if piv != k {
                for j in 0..n {
                    data.swap(k * n + j, piv * n + j);
                }
            }
            pivots.push(piv);
            let (top, bottom) = data.split_at_mut((k + 1) * n);
            let row_k = &top[k * n + k..(k + 1) * n];
            let pivot = row_k[0];
            for row_i in bottom.chunks_exact_mut(n) {
                let f = row_i[k] / pivot;
                row_i[k] = f;
                if f.norm_sqr() == 0.0 {
                    continue;
                }
                for (x, &p) in row_i[k + 1..].iter_mut().zip(&row_k[1..]) {
                    let t = p * f;
                    *x -= t;
                }
            }
        }
        Some(Self {
            n,
            lu: data,
            pivots,
        })
    }

    /// Solve `A x = b` against the recorded elimination.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the matrix order.
    pub fn solve(&self, b: &[C64]) -> Vec<C64> {
        let n = self.n;
        assert_eq!(b.len(), n, "gauss_solve_c: rhs length mismatch");
        let lu = &self.lu;
        let mut v = b.to_vec();
        // Later swaps touch only rows below the current step, so applying
        // them all first hands every row the same updates in the same order.
        for (k, &piv) in self.pivots.iter().enumerate() {
            v.swap(k, piv);
        }
        for k in 0..n {
            let vk = v[k];
            for i in k + 1..n {
                let f = lu[i * n + k];
                if f.norm_sqr() == 0.0 {
                    continue;
                }
                let t = vk * f;
                v[i] -= t;
            }
        }
        let mut x = vec![C64::default(); n];
        for i in (0..n).rev() {
            let row_i = &lu[i * n..(i + 1) * n];
            let mut s = v[i];
            for (&mij, &xj) in row_i[i + 1..].iter().zip(&x[i + 1..]) {
                s -= mij * xj;
            }
            x[i] = s / row_i[i];
        }
        x
    }
}

/// Solve `A x = b` for a Hermitian positive-definite `A` via an in-place
/// L·Lᴴ Cholesky factorization — about half the arithmetic of
/// [`gauss_solve_c`] (no pivot search, one triangle). Only the lower
/// triangle of `A` is read. Returns `None` when a pivot is not strictly
/// positive (the matrix is not numerically positive-definite); callers that
/// cannot guarantee definiteness should fall back to [`gauss_solve_c`].
///
/// The column update runs the host's kernel body, which is bit-identical to
/// the scalar one (see [`crate::backend`]).
pub fn chol_solve_c(a: &CMat, b: &[C64]) -> Option<Vec<C64>> {
    chol_solve_by(backend::chol_col_update, a, b)
}

/// [`chol_solve_c`] on the scalar column update alone, for oracles that must
/// run no vector kernel (the all-scalar packet reference).
pub fn chol_solve_c_scalar(a: &CMat, b: &[C64]) -> Option<Vec<C64>> {
    chol_solve_by(backend::scalar::chol_col_update, a, b)
}

/// The Cholesky solve body, generic over the column update.
fn chol_solve_by(
    col_update: fn(&mut [C64], usize, usize, &[C64], f64),
    a: &CMat,
    b: &[C64],
) -> Option<Vec<C64>> {
    assert_eq!(a.rows(), a.cols(), "chol_solve_c: matrix must be square");
    assert_eq!(a.rows(), b.len(), "chol_solve_c: rhs length mismatch");
    let n = a.rows();
    let mut l = a.clone();
    let data = &mut l.data;
    // Dot-product (row-oriented) factorization: L[i][j] needs prefix dots of
    // rows i and j, so every inner loop walks contiguous memory.
    for j in 0..n {
        let (_, rest) = data.split_at_mut(j * n);
        let (row_j, below) = rest.split_at_mut(n);
        let mut d = row_j[j].re;
        for z in &row_j[..j] {
            d -= z.norm_sqr();
        }
        if d <= 0.0 || d.is_nan() {
            return None; // not PD
        }
        let ljj = d.sqrt();
        row_j[j] = C64::real(ljj);
        // `s / ljj` is `s.scale(1.0 / ljj)` (see `Div<f64> for C64`), so the
        // reciprocal can be hoisted without changing a bit.
        col_update(below, n, j, &row_j[..j], 1.0 / ljj);
    }
    // Forward solve L·y = b, then back solve Lᴴ·x = y.
    let mut y = b.to_vec();
    for i in 0..n {
        let row_i = &data[i * n..i * n + i + 1];
        let mut s = y[i];
        for (&m, &yk) in row_i[..i].iter().zip(&y) {
            s -= m * yk;
        }
        y[i] = s / row_i[i].re;
    }
    for i in (0..n).rev() {
        let mut s = y[i];
        for (k, &yk) in y.iter().enumerate().skip(i + 1) {
            s -= data[k * n + i].conj() * yk;
        }
        y[i] = s / data[i * n + i].re;
    }
    Some(y)
}

/// Complex least squares `min ‖A x − b‖²` via the normal equations
/// `AᴴA x = Aᴴ b` with a small ridge ([`add_ridge`]).
pub fn lstsq_c(a: &CMat, b: &[C64]) -> Option<Vec<C64>> {
    assert_eq!(a.rows(), b.len(), "lstsq_c: rhs length mismatch");
    let ah = a.h();
    let mut aha = ah.matmul(a);
    let ahb = ah.matvec(b);
    add_ridge(&mut aha);
    gauss_solve_c(&aha, &ahb)
}

/// Add the normal equations' ridge to a square Gram `AᴴA` in place:
/// `1e-12 ·` its mean diagonal on every diagonal entry (floored so that an
/// all-zero Gram still gets a positive ridge). [`lstsq_c`] and the Grams
/// precomputed from a fixed design ([`WidelyLinearGram`], the online
/// trainer's) share it, so their replayed solves match [`lstsq_c`] bit for
/// bit.
pub fn add_ridge(aha: &mut CMat) {
    let n = aha.rows();
    let scale: f64 = (0..n).map(|i| aha[(i, i)].re).sum::<f64>() / n as f64;
    let ridge = 1e-12 * scale.max(1e-300);
    for i in 0..n {
        aha[(i, i)] += C64::real(ridge);
    }
}

// ---------------------------------------------------------------------------
// Widely-linear (preamble) fit
// ---------------------------------------------------------------------------

/// Result of the widely-linear fit `y ≈ a·x + b·x* + c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WidelyLinearFit {
    /// Rotation-and-scale coefficient.
    pub a: C64,
    /// I/Q-imbalance (conjugate) coefficient.
    pub b: C64,
    /// DC offset.
    pub c: C64,
    /// Residual sum of squares `‖y − (a x + b x* + c)‖²`.
    pub residual: f64,
}

impl WidelyLinearFit {
    /// Apply the fitted correction to a sample: maps a *received* sample into
    /// the *reference* frame, `ŷ = a·z + b·z* + c`.
    #[inline]
    pub fn apply(&self, z: C64) -> C64 {
        self.a * z + self.b * z.conj() + self.c
    }
}

/// Fit `y ≈ a·x + b·x* + c` in the least-squares sense (§4.3.1).
///
/// The model is linear in `(a, b, c)` because `x*` is just data, so this is a
/// 3-unknown complex least-squares problem solved with the normal equations.
///
/// # Panics
/// Panics if the slices have different lengths or fewer than 3 samples.
pub fn widely_linear_fit(x: &[C64], y: &[C64]) -> WidelyLinearFit {
    assert_eq!(x.len(), y.len(), "widely_linear_fit: length mismatch");
    assert!(x.len() >= 3, "widely_linear_fit: need at least 3 samples");
    let n = x.len();
    let mut a = CMat::zeros(n, 3);
    for (i, &xi) in x.iter().enumerate() {
        a[(i, 0)] = xi;
        a[(i, 1)] = xi.conj();
        a[(i, 2)] = C64::real(1.0);
    }
    let sol = lstsq_c(&a, y).unwrap_or_else(|| vec![C64::default(); 3]);
    let fitted = a.matvec(&sol);
    let residual = crate::complex::dist_sqr(&fitted, y);
    WidelyLinearFit {
        a: sol[0],
        b: sol[1],
        c: sol[2],
        residual,
    }
}

/// Precomputed normal-equation factors of the widely-linear design built
/// from a *fixed* regressor `x` — for detectors that refit the same
/// reference against many received windows (the preamble search refits
/// every candidate offset its certified bound cannot rule out).
///
/// [`widely_linear_fit`] spends most of its time on quantities that depend
/// only on `x`: building the n×3 design matrix `A = [x, x*, 1]`, forming
/// `Aᴴ`, the ridged Gram `AᴴA` and its elimination. This type computes those
/// once; per call only the y-dependent work (`Aᴴy`, replaying the 3×3
/// elimination on it, the fitted residual) remains.
///
/// **Bit-identity**: [`WidelyLinearGram::fit`] folds the same operands in the
/// same order as [`widely_linear_fit`]'s `CMat` products, and replays the
/// [`GaussFactor`] that its [`gauss_solve_c`] eliminates, so the result is
/// bit-for-bit identical (differential-tested). The window sums are
/// recomputed fresh per call: a sliding update across consecutive offsets
/// would change the f64 summation order. Scans over many offsets instead
/// score the whole range approximately from its moments and bound the gap
/// to this fit with a [`ResidualCertificate`]
/// ([`Self::residual_certificate`]), refitting exactly only where the bound
/// cannot decide.
#[derive(Debug, Clone)]
pub struct WidelyLinearGram {
    a: CMat,
    ah: CMat,
    aha_ridged: CMat,
    /// Elimination of `aha_ridged`, replayed by every fit; `None` if
    /// singular.
    normal: Option<GaussFactor>,
}

impl WidelyLinearGram {
    /// Precompute the design, its conjugate transpose, the ridged Gram and
    /// its elimination for the fixed regressor `x`.
    ///
    /// # Panics
    /// Panics if `x` has fewer than 3 samples.
    pub fn new(x: &[C64]) -> Self {
        assert!(x.len() >= 3, "WidelyLinearGram: need at least 3 samples");
        let n = x.len();
        let mut a = CMat::zeros(n, 3);
        for (i, &xi) in x.iter().enumerate() {
            a[(i, 0)] = xi;
            a[(i, 1)] = xi.conj();
            a[(i, 2)] = C64::real(1.0);
        }
        let ah = a.h();
        let mut aha = ah.matmul(&a);
        add_ridge(&mut aha);
        Self {
            a,
            ah,
            normal: GaussFactor::new(&aha),
            aha_ridged: aha,
        }
    }

    /// Length of the fixed regressor (and of every `y` passed to
    /// [`Self::fit`]).
    pub fn n_samples(&self) -> usize {
        self.a.rows()
    }

    /// Fit `y ≈ a·x + b·x* + c` against the fixed regressor; bit-identical
    /// to `widely_linear_fit(x, y)`.
    ///
    /// # Panics
    /// Panics if `y.len() != self.n_samples()`.
    pub fn fit(&self, y: &[C64]) -> WidelyLinearFit {
        assert_eq!(y.len(), self.a.rows(), "WidelyLinearGram::fit: length");
        let n = y.len();
        // Aᴴy fused into one pass over y with one accumulator per row. Each
        // accumulator folds the same stored coefficients in the same index
        // order as `CMat::matvec`'s per-row sum (zero-initialised, ascending
        // j), so the three sums are bit-identical to the matvec — without
        // materialising the result vector.
        let (r0, r12) = self.ah.data.split_at(n);
        let (r1, r2) = r12.split_at(n);
        let mut ahb = [C64::default(); 3];
        for (((&a0, &a1), &a2), &yj) in r0.iter().zip(r1).zip(r2).zip(y) {
            ahb[0] += a0 * yj;
            ahb[1] += a1 * yj;
            ahb[2] += a2 * yj;
        }
        // Replaying the recorded elimination is bit-identical to
        // `gauss_solve_c` on the ridged Gram (see [`GaussFactor`]).
        let sol = match &self.normal {
            Some(f) => f.solve(&ahb),
            None => vec![C64::default(); 3],
        };
        // Fitted value and residual fused into one pass: each row's fitted
        // sample folds the stored design coefficients in matvec order, and
        // the residual accumulates `(fitted − y)` squared distances in the
        // same ascending order as `dist_sqr` — again bit-identical, with no
        // n-length temporary.
        let mut residual = 0.0;
        for (row, &yi) in self.a.data.chunks_exact(3).zip(y) {
            let f = C64::default() + row[0] * sol[0] + row[1] * sol[1] + row[2] * sol[2];
            residual += (f - yi).norm_sqr();
        }
        WidelyLinearFit {
            a: sol[0],
            b: sol[1],
            c: sol[2],
            residual,
        }
    }

    /// Certify the moment form of [`Self::fit`]'s residual (DESIGN.md
    /// §8, "Certified preamble scan"): with `G = AᴴA` the exact Gram of the
    /// stored design, the exact least-squares residual is
    /// `R = Σ|y|² − bᴴG⁻¹b`, `b = Aᴴy`, and the fit's floating-point residual
    /// stays within a constant multiple of `Σ|y|²` of it.
    ///
    /// `None` when the Gram cannot be certified: a regressor energy outside
    /// `[1e-100, 1e100]`, a singular or ill-conditioned `G` (any of the
    /// perturbation bounds reaching ½), or an elimination that would fall
    /// back to the zero solution. Callers then refit every offset exactly.
    pub fn residual_certificate(&self) -> Option<ResidualCertificate> {
        let k = self.a.rows();
        let g_hat = &self.aha_ridged;
        // ‖A‖_F²; the energy gate keeps every product in the Gram and in the
        // scan's moments clear of underflow and overflow.
        let a2: f64 = self.a.data.iter().map(|z| z.norm_sqr()).sum();
        if !(1e-100..=1e100).contains(&a2) {
            return None;
        }
        let frob = |m: &[C64]| m.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        let g_hat_f = frob(&g_hat.data);
        // M̃ ≈ Ĝ⁻¹ column by column, replaying the elimination `fit` replays:
        // a Gram that `fit` would solve as zero has no factor, so success
        // here means `fit` never falls back.
        let normal = self.normal.as_ref()?;
        let mut m = [C64::default(); 9];
        for j in 0..3 {
            let mut e = [C64::default(); 3];
            e[j] = C64::real(1.0);
            let col = normal.solve(&e);
            for i in 0..3 {
                m[3 * i + j] = col[i];
            }
        }
        // Hermitian part, so the quadratic form is real by construction.
        for i in 0..3 {
            m[4 * i] = C64::real(m[4 * i].re);
            for j in i + 1..3 {
                let h = (m[3 * i + j] + m[3 * j + i].conj()) * 0.5;
                m[3 * i + j] = h;
                m[3 * j + i] = h.conj();
            }
        }
        let m_f = frob(&m);
        // φ ≥ ‖I − M̃Ĝ‖_F: the computed residual plus its own rounding.
        let mut f2 = 0.0;
        for i in 0..3 {
            for j in 0..3 {
                let mut s = C64::real(if i == j { 1.0 } else { 0.0 });
                for l in 0..3 {
                    s -= m[3 * i + l] * g_hat[(l, j)];
                }
                f2 += s.norm_sqr();
            }
        }
        let phi = f2.sqrt() + gamma(16) * m_f * g_hat_f + gamma(2);
        // Every perturbation bound must stay at or below ½ (NaN fails).
        let at_most_half = |v: f64| (v <= 0.5).then_some(());
        at_most_half(phi)?;
        // ‖Ĝ⁻¹‖₂ ≤ g_hat_inv, and h_G ≥ ‖Ĝ − G‖_F: the matmul's rounding,
        // the ridge (1e-12 of the mean diagonal) and its addition.
        let g_hat_inv = m_f / (1.0 - phi);
        let h_g = gamma(2 * k + 8) * a2 + 3f64.sqrt() * (1e-12 + gamma(1)) * g_hat_f;
        at_most_half(g_hat_inv * h_g)?;
        let g = g_hat_inv / (1.0 - g_hat_inv * h_g); // ≥ ‖G⁻¹‖₂
        let mu = phi * m_f / (1.0 - phi) + g_hat_inv * g_hat_inv * h_g / (1.0 - g_hat_inv * h_g);
        // The solve: (G + H)ŝ = b̂ with ‖H‖ ≤ h_G + ‖ΔGE‖ (partial-pivoting
        // backward error, growth ≤ 4 at n = 3, complex-arithmetic γ).
        let h = h_g + 24.0 * gamma(48) * g_hat_f;
        at_most_half(g * h)?;
        // |ŝ − G⁻¹b| ≤ σ·√E, with b̂ = fl(Aᴴy) off by ≤ γ_{2k+8}·‖A‖_F·√E.
        let sigma = 2.0 * g * (gamma(2 * k + 8) * a2.sqrt() + h * g.sqrt());
        // Fitted-value rounding in the residual fold, per unit √E.
        let delta = gamma(16) * a2.sqrt() * (g.sqrt() + sigma);
        let t = (g_hat_f + h_g) * sigma * sigma;
        let fit_dev = gamma(k + 4)
            + (1.0 + gamma(k + 4)) * (t + 2.0 * delta * (1.0 + t).sqrt() + delta * delta);
        let cert = ResidualCertificate {
            m_diag: [m[0].re, m[4].re, m[8].re],
            m01: m[1],
            m02: m[2],
            m12: m[5],
            mu,
            g,
            q_round: gamma(16) * m_f,
            fit_dev,
        };
        [mu, g, cert.q_round, fit_dev]
            .iter()
            .all(|v| v.is_finite())
            .then_some(cert)
    }
}

/// The moment form of [`WidelyLinearGram::fit`]'s residual with a
/// proven bound on its distance to the fit's floating-point result; built
/// by [`WidelyLinearGram::residual_certificate`].
#[derive(Debug, Clone)]
pub struct ResidualCertificate {
    /// Hermitian `M̃ ≈ G⁻¹`: real diagonal and the upper triangle.
    m_diag: [f64; 3],
    m01: C64,
    m02: C64,
    m12: C64,
    /// `‖M̃ − G⁻¹‖₂ ≤ mu`.
    mu: f64,
    /// `‖G⁻¹‖₂ ≤ g`.
    g: f64,
    /// Rounding of the computed quadratic form per unit `|b|²`.
    q_round: f64,
    /// `|fit(y).residual − (Σ|y|² − bᴴG⁻¹b)| ≤ fit_dev·Σ|y|²`.
    fit_dev: f64,
}

impl ResidualCertificate {
    /// Approximate residual `R̃ = E − bᴴM̃b` from approximate moments, and a
    /// bound `e` with `|fit(y).residual − R̃| ≤ e`.
    ///
    /// `energy` approximates `E = Σ|y|²` within `energy_err`; `ahy`
    /// approximates `b = Aᴴy = [Σx̄y, Σxy, Σy]` within `ahy_err` in the
    /// 2-norm. The returned bound is twice the first-order sum, which
    /// dominates every neglected `O(u²)` term.
    #[inline]
    pub fn residual(
        &self,
        energy: f64,
        energy_err: f64,
        ahy: &[C64; 3],
        ahy_err: f64,
    ) -> (f64, f64) {
        let [b0, b1, b2] = *ahy;
        let bn2 = b0.norm_sqr() + b1.norm_sqr() + b2.norm_sqr();
        let cross =
            b0.conj() * self.m01 * b1 + b0.conj() * self.m02 * b2 + b1.conj() * self.m12 * b2;
        let q = self.m_diag[0] * b0.norm_sqr()
            + self.m_diag[1] * b1.norm_sqr()
            + self.m_diag[2] * b2.norm_sqr()
            + 2.0 * cross.re;
        let r = energy - q;
        let e = energy_err
            + (self.mu + self.q_round) * bn2
            + self.g * ahy_err * (2.0 * bn2.sqrt() + 3.0 * ahy_err)
            + gamma(2) * r.abs()
            + self.fit_dev * (energy + energy_err);
        (r, 2.0 * e)
    }
}

// ---------------------------------------------------------------------------
// One-sided Jacobi SVD (real)
// ---------------------------------------------------------------------------

/// Thin singular value decomposition `A = U Σ Vᵀ`.
///
/// `u` is rows×r, `sigma` has r = min(rows, cols) non-negative entries in
/// descending order, and `v` is cols×r.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (one per column).
    pub u: Mat,
    /// Singular values, descending.
    pub sigma: Vec<f64>,
    /// Right singular vectors (one per column).
    pub v: Mat,
}

/// Compute the thin SVD of a real matrix with the one-sided Jacobi method.
///
/// Robust and simple; cost is O(rows·cols²·sweeps), fine for the fingerprint
/// matrices of the offline channel trainer (thousands of rows, tens of
/// columns).
pub fn jacobi_svd(a: &Mat) -> Svd {
    let m = a.rows();
    let n = a.cols();
    // Work on AᵀA implicitly by rotating columns of a working copy of A.
    let mut w = a.clone();
    let mut v = Mat::identity(n);

    let max_sweeps = 60;
    let eps = 1e-14;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in p + 1..n {
                // Compute the 2x2 Gram block for columns p, q.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                off = off.max(apq.abs() / (app * aqq).sqrt().max(1e-300));
                if apq.abs() <= eps * (app * aqq).sqrt() {
                    continue;
                }
                // Jacobi rotation zeroing the off-diagonal Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    w[(i, p)] = c * wp - s * wq;
                    w[(i, q)] = s * wp + c * wq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if off < 1e-13 {
            break;
        }
    }

    // Column norms are the singular values; normalize to get U.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n)
        .map(|j| (0..m).map(|i| w[(i, j)] * w[(i, j)]).sum::<f64>().sqrt())
        .collect();
    order.sort_by(|&x, &y| norms[y].total_cmp(&norms[x]));

    let r = n.min(m);
    let mut u = Mat::zeros(m, r);
    let mut vv = Mat::zeros(n, r);
    let mut sigma = Vec::with_capacity(r);
    for (k, &j) in order.iter().take(r).enumerate() {
        let s = norms[j];
        sigma.push(s);
        if s > 1e-300 {
            for i in 0..m {
                u[(i, k)] = w[(i, j)] / s;
            }
        }
        for i in 0..n {
            vv[(i, k)] = v[(i, j)];
        }
    }
    Svd { u, sigma, v: vv }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn complex_solve_round_trip() {
        let a = CMat::from_vec(
            2,
            2,
            vec![
                C64::new(1.0, 1.0),
                C64::new(0.0, -1.0),
                C64::new(2.0, 0.0),
                C64::new(1.0, 1.0),
            ],
        );
        let x_true = vec![C64::new(1.0, -2.0), C64::new(0.5, 0.5)];
        let b = a.matvec(&x_true);
        let x = gauss_solve_c(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!(xi.dist(*ti) < 1e-10);
        }
    }

    /// Gaussian elimination of `[A | b]` with the right-hand side updated
    /// inside the elimination loop: the formulation [`GaussFactor`]
    /// replays.
    fn gauss_interleaved(a: &CMat, b: &[C64]) -> Option<Vec<C64>> {
        let n = a.rows();
        let mut data = a.data.clone();
        let mut v = b.to_vec();
        for k in 0..n {
            let (piv, pmax) = (k..n)
                .map(|i| (i, data[i * n + k].norm_sqr()))
                .max_by(|x, y| x.1.total_cmp(&y.1))?;
            if pmax < 1e-300 {
                return None;
            }
            if piv != k {
                for j in 0..n {
                    data.swap(k * n + j, piv * n + j);
                }
                v.swap(k, piv);
            }
            for i in k + 1..n {
                let f = data[i * n + k] / data[k * n + k];
                if f.norm_sqr() == 0.0 {
                    continue;
                }
                for j in k..n {
                    let t = data[k * n + j] * f;
                    data[i * n + j] -= t;
                }
                let t = v[k] * f;
                v[i] -= t;
            }
        }
        let mut x = vec![C64::default(); n];
        for i in (0..n).rev() {
            let mut s = v[i];
            for j in i + 1..n {
                s -= data[i * n + j] * x[j];
            }
            x[i] = s / data[i * n + i];
        }
        Some(x)
    }

    /// One factorization replayed on many right-hand sides equals
    /// eliminating each `[A | b]` from scratch, bit for bit (NaNs aside,
    /// whose bits Rust leaves unspecified): on matrices
    /// that pivot, that skip zero and underflowing multipliers, and on
    /// right-hand sides holding signed zeros, NaN and ±Inf.
    #[test]
    fn replayed_solve_matches_interleaved_elimination() {
        let n = 9;
        let mut rng = crate::noise::NoiseSource::new(41);
        for case in 0..24 {
            let mut a = CMat::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    let z = rng.complex_gaussian(1.0);
                    // Sparse cases leave exact-zero multipliers; case 3 mod 4
                    // shrinks one first-column entry so its multiplier
                    // underflows in `norm_sqr` while staying nonzero.
                    a[(i, j)] = match case % 4 {
                        1 if (i + 2 * j) % 3 == 0 => C64::default(),
                        2 if i == j => C64::default(),
                        3 if i == n - 1 && j == 0 => z.scale(1e-170),
                        _ => z,
                    };
                }
            }
            let f = GaussFactor::new(&a).expect("nonsingular");
            let specials = [
                0.0,
                -0.0,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            for r in 0..8 {
                let mut b: Vec<C64> = (0..n).map(|_| rng.complex_gaussian(1.0)).collect();
                if r > 0 {
                    b[(r + case) % n].re = specials[r % specials.len()];
                    b[(2 * r + case) % n].im = specials[(r + 3) % specials.len()];
                }
                let want = gauss_interleaved(&a, &b).unwrap();
                let got = f.solve(&b);
                // Rust leaves a NaN result's sign and payload unspecified,
                // so every NaN counts as one value.
                let bits = |x: f64| {
                    if x.is_nan() {
                        f64::NAN.to_bits()
                    } else {
                        x.to_bits()
                    }
                };
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        (bits(g.re), bits(g.im)),
                        (bits(w.re), bits(w.im)),
                        "case {case} rhs {r}: {g} vs {w}"
                    );
                }
            }
        }
        let singular = CMat::zeros(3, 3);
        assert!(GaussFactor::new(&singular).is_none());
        assert!(gauss_solve_c(&singular, &[C64::default(); 3]).is_none());
    }

    #[test]
    fn cholesky_matches_gauss_on_hermitian_pd() {
        // Build A = BᴴB + I (Hermitian PD) for a non-trivial B.
        let n = 12;
        let mut b_mat = CMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let x = ((i * 13 + j * 7) % 11) as f64 / 11.0 - 0.4;
                b_mat[(i, j)] = C64::new(x, 0.3 * x * x - 0.1);
            }
        }
        let mut a = b_mat.h().matmul(&b_mat);
        for i in 0..n {
            a[(i, i)] += C64::real(1.0);
        }
        let rhs: Vec<C64> = (0..n)
            .map(|i| C64::new(i as f64 - 3.0, 0.5 * i as f64))
            .collect();
        let xc = chol_solve_c(&a, &rhs).unwrap();
        let xg = gauss_solve_c(&a, &rhs).unwrap();
        for (c, g) in xc.iter().zip(&xg) {
            assert!(c.dist(*g) < 1e-9, "chol {c} vs gauss {g}");
        }
        // The oracle's all-scalar solve lands on the same bits.
        let xs = chol_solve_c_scalar(&a, &rhs).unwrap();
        let bits =
            |v: &[C64]| -> Vec<_> { v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect() };
        assert_eq!(bits(&xc), bits(&xs));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        // diag(1, −1) is Hermitian but not PD.
        let mut a = CMat::zeros(2, 2);
        a[(0, 0)] = C64::real(1.0);
        a[(1, 1)] = C64::real(-1.0);
        assert!(chol_solve_c(&a, &[C64::real(1.0), C64::real(1.0)]).is_none());
    }

    #[test]
    fn lstsq_c_overdetermined() {
        // 5 equations, 2 unknowns, consistent system.
        let mut a = CMat::zeros(5, 2);
        let x_true = [C64::new(0.3, 0.7), C64::new(-1.0, 0.2)];
        let mut b = vec![C64::default(); 5];
        for i in 0..5 {
            a[(i, 0)] = C64::new(i as f64, 1.0);
            a[(i, 1)] = C64::new((i * i) as f64, 0.5);
            b[i] = a[(i, 0)] * x_true[0] + a[(i, 1)] * x_true[1];
        }
        let x = lstsq_c(&a, &b).unwrap();
        assert!(x[0].dist(x_true[0]) < 1e-8);
        assert!(x[1].dist(x_true[1]) < 1e-8);
    }

    #[test]
    fn widely_linear_recovers_rotation_offset_imbalance() {
        // Synthesize y = a x + b x* + c exactly and recover the coefficients.
        let a = C64::from_polar(0.8, 0.6);
        let b = C64::new(0.05, -0.02);
        let c = C64::new(0.3, -0.1);
        let x: Vec<C64> = (0..32)
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.71).cos()))
            .collect();
        let y: Vec<C64> = x.iter().map(|&z| a * z + b * z.conj() + c).collect();
        let fit = widely_linear_fit(&x, &y);
        assert!(fit.a.dist(a) < 1e-8, "a: {} vs {}", fit.a, a);
        assert!(fit.b.dist(b) < 1e-8);
        assert!(fit.c.dist(c) < 1e-8);
        assert!(fit.residual < 1e-12);
    }

    #[test]
    fn gram_fit_bit_identical_to_widely_linear_fit() {
        // Across clean, noisy-ish and degenerate regressors, the precomputed
        // Gram path must reproduce widely_linear_fit to the last bit.
        let mk_x = |phase: f64, scale: f64| -> Vec<C64> {
            (0..48)
                .map(|i| {
                    C64::new(
                        scale * (i as f64 * 0.37 + phase).sin(),
                        scale * (i as f64 * 0.71 - phase).cos(),
                    )
                })
                .collect()
        };
        for (phase, scale) in [(0.0, 1.0), (1.3, 0.01), (2.2, 40.0)] {
            let x = mk_x(phase, scale);
            let gram = WidelyLinearGram::new(&x);
            assert_eq!(gram.n_samples(), x.len());
            for seed in 0..4u64 {
                let y: Vec<C64> = x
                    .iter()
                    .enumerate()
                    .map(|(i, &z)| {
                        let jitter = ((seed as f64 + 1.0) * (i as f64 * 0.13).sin()) * 0.2;
                        C64::new(0.4, -0.9) * z
                            + C64::new(0.05, 0.02) * z.conj()
                            + C64::new(jitter, -jitter)
                    })
                    .collect();
                let slow = widely_linear_fit(&x, &y);
                let fast = gram.fit(&y);
                assert_eq!(slow.a.re.to_bits(), fast.a.re.to_bits());
                assert_eq!(slow.a.im.to_bits(), fast.a.im.to_bits());
                assert_eq!(slow.b.re.to_bits(), fast.b.re.to_bits());
                assert_eq!(slow.b.im.to_bits(), fast.b.im.to_bits());
                assert_eq!(slow.c.re.to_bits(), fast.c.re.to_bits());
                assert_eq!(slow.c.im.to_bits(), fast.c.im.to_bits());
                assert_eq!(slow.residual.to_bits(), fast.residual.to_bits());
            }
        }
        // Degenerate regressor (all-equal x): both paths must agree even when
        // the solve falls back to the zero solution.
        let x = vec![C64::real(1.0); 8];
        let y = vec![C64::new(0.5, -0.5); 8];
        let slow = widely_linear_fit(&x, &y);
        let fast = WidelyLinearGram::new(&x).fit(&y);
        assert_eq!(slow.residual.to_bits(), fast.residual.to_bits());
        assert_eq!(slow.a.re.to_bits(), fast.a.re.to_bits());
    }

    #[test]
    fn residual_certificate_bounds_the_fit() {
        // The moment form, fed moments accurate to a few ulp, must land
        // within its bound of the fit's own floating-point residual — for
        // near-perfect fits, noise-like windows and large DC offsets.
        let x: Vec<C64> = (0..64)
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.71).cos()))
            .collect();
        let gram = WidelyLinearGram::new(&x);
        let cert = gram
            .residual_certificate()
            .expect("generic regressor certifies");
        for (noise, dc) in [
            (0.0, 0.0),
            (1e-6, 0.0),
            (0.3, 0.0),
            (2.0, 0.0),
            (0.01, 50.0),
        ] {
            let y: Vec<C64> = x
                .iter()
                .enumerate()
                .map(|(i, &z)| {
                    let n = C64::new((i as f64 * 2.3).sin(), (i as f64 * 1.9).cos()) * noise;
                    C64::new(0.4, -0.9) * z + C64::new(0.05, 0.02) * z.conj() + dc + n
                })
                .collect();
            let fit = gram.fit(&y);
            let energy: f64 = y.iter().map(|z| z.norm_sqr()).sum();
            let ahy = [
                y.iter().zip(&x).map(|(&v, &u)| u.conj() * v).sum::<C64>(),
                y.iter().zip(&x).map(|(&v, &u)| u * v).sum::<C64>(),
                y.iter().copied().sum::<C64>(),
            ];
            let b_norm = ahy.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            let (r, e) = cert.residual(energy, 1e-13 * energy, &ahy, 1e-13 * b_norm);
            assert!(
                (fit.residual - r).abs() <= e,
                "noise {noise}, dc {dc}: |{} − {r}| > {e}",
                fit.residual
            );
            assert!(e <= 1e-9 * energy, "bound {e} too loose for E = {energy}");
        }
        // A constant regressor makes the Gram singular: no certificate.
        assert!(WidelyLinearGram::new(&[C64::real(1.0); 8])
            .residual_certificate()
            .is_none());
    }

    #[test]
    fn widely_linear_apply_matches_model() {
        let fit = WidelyLinearFit {
            a: C64::new(0.0, 1.0),
            b: C64::default(),
            c: C64::real(1.0),
            residual: 0.0,
        };
        let out = fit.apply(C64::real(2.0));
        assert!(out.dist(C64::new(1.0, 2.0)) < 1e-12);
    }

    #[test]
    fn svd_reconstructs_matrix() {
        let a = Mat::from_vec(
            4,
            3,
            vec![
                1.0, 2.0, 3.0, //
                4.0, 5.0, 6.0, //
                7.0, 8.0, 10.0, //
                0.5, -1.0, 2.0,
            ],
        );
        let svd = jacobi_svd(&a);
        // Rebuild A = U Σ Vᵀ.
        let mut us = svd.u.clone();
        for j in 0..svd.sigma.len() {
            for i in 0..us.rows() {
                us[(i, j)] *= svd.sigma[j];
            }
        }
        let rec = us.matmul(&svd.v.t());
        let mut err = 0.0f64;
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                err = err.max((rec[(i, j)] - a[(i, j)]).abs());
            }
        }
        assert!(err < 1e-9, "reconstruction error {err}");
    }

    #[test]
    fn svd_singular_values_sorted_and_orthonormal_u() {
        let a = Mat::from_vec(5, 3, (0..15).map(|i| ((i * 7 % 13) as f64) - 6.0).collect());
        let svd = jacobi_svd(&a);
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        // Columns of U orthonormal.
        for p in 0..svd.u.cols() {
            for q in 0..svd.u.cols() {
                let d: f64 = (0..svd.u.rows())
                    .map(|i| svd.u[(i, p)] * svd.u[(i, q)])
                    .sum();
                let expect = if p == q { 1.0 } else { 0.0 };
                assert!(
                    close(d, expect, 1e-9),
                    "U not orthonormal at ({p},{q}): {d}"
                );
            }
        }
    }

    #[test]
    fn svd_rank_one() {
        // Outer product has exactly one non-negligible singular value.
        let u = [1.0, 2.0, 3.0];
        let v = [4.0, 5.0];
        let mut a = Mat::zeros(3, 2);
        for i in 0..3 {
            for j in 0..2 {
                a[(i, j)] = u[i] * v[j];
            }
        }
        let svd = jacobi_svd(&a);
        assert!(svd.sigma[0] > 1.0);
        assert!(svd.sigma[1] < 1e-10);
    }
}
