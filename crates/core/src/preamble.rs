//! Preamble detection and rotation correction (§4.3.1).
//!
//! The receiver slides a known reference waveform `Y` over the incoming
//! stream. At each candidate offset it solves the widely-linear regression
//!
//! ```text
//! X ≈ α·Y + β·Y* + γ
//! ```
//!
//! — received on *noiseless* reference, so the coefficient estimates carry
//! no errors-in-variables attenuation at low SNR. The detection statistic is
//! the unexplained-variance fraction `‖X − fit‖² / ‖X − X̄‖²` (scale-free:
//! ≈ 0 for a clean preamble, ≈ 1 for noise, and still separable at negative
//! per-sample SNR thanks to the preamble's length). The fitted map is then
//! *inverted exactly* to carry every subsequent sample into the reference
//! frame, simultaneously undoing the `e^{j2Δθ}` roll rotation, amplitude
//! scaling, DC offset and first-order I/Q imbalance (the conjugate term).
//!
//! A search does not run that fit at every offset. It scores the whole
//! offset range at once from the window moments — two FFT
//! cross-correlations with the reference, prefix sums for `ΣX` and `Σ|X|²`
//! — bounds each approximate score's distance to the exact fit's
//! floating-point result, and refits exactly only the offsets that bound
//! cannot rule out (DESIGN.md §8, "Certified preamble scan"). The result
//! is bit-identical to the per-offset oracle [`PreambleDetector::detect_in_reference`].

use crate::frame::Modulator;
use crate::params::PhyConfig;
use crate::synth::TagModel;
use retroturbo_dsp::fft::{gamma, Fft};
use retroturbo_dsp::linalg::{
    widely_linear_fit, ResidualCertificate, WidelyLinearFit, WidelyLinearGram,
};
use retroturbo_dsp::{Signal, C64};
use retroturbo_telemetry as telemetry;

/// The fitted channel map `X ≈ α·Y + β·Y* + γ` and its inverse, used to
/// correct received samples back into the reference frame.
#[derive(Debug, Clone, Copy)]
pub struct PreambleCorrection {
    /// Rotation/scale coefficient.
    pub alpha: C64,
    /// I/Q-imbalance (conjugate) coefficient.
    pub beta: C64,
    /// DC offset.
    pub gamma: C64,
}

impl PreambleCorrection {
    /// Map a received sample into the reference frame: the exact inverse of
    /// the widely-linear map, `y = (α*·z' − β·z'*) / (|α|² − |β|²)` with
    /// `z' = z − γ`.
    ///
    /// Degenerate fits (`|α| ≈ |β|`, a non-invertible map) return the input
    /// unchanged rather than amplifying noise.
    #[inline]
    pub fn apply(&self, z: C64) -> C64 {
        match self.determinant() {
            Some(d) => self.invert(self.alpha.conj(), 1.0 / d, z),
            None => z,
        }
    }

    /// The map's determinant `|α|² − |β|²`, or `None` when the map is
    /// degenerate: `|d|` below `1e-12` of `|α|² + |β|²`. The test is
    /// relative so that it does not depend on the capture's scale (an
    /// absolute cut would call every fit of a faint enough capture
    /// degenerate). The floor keeps the all-zero fit degenerate; a
    /// non-finite fit is not degenerate, and its inverse carries the NaNs.
    fn determinant(&self) -> Option<f64> {
        let a2 = self.alpha.norm_sqr();
        let b2 = self.beta.norm_sqr();
        let d = a2 - b2;
        if d.abs() < 1e-12 * (a2 + b2).max(f64::MIN_POSITIVE) {
            None
        } else {
            Some(d)
        }
    }

    /// The inverse map at one sample, given `conj(α)` and `1 / d`
    /// (`C64 / f64` scales by the reciprocal, so this is the division).
    #[inline]
    fn invert(&self, alpha_conj: C64, inv_d: f64, z: C64) -> C64 {
        let zp = z - self.gamma;
        (alpha_conj * zp - self.beta * zp.conj()).scale(inv_d)
    }
}

/// Result of a successful preamble search.
#[derive(Debug, Clone, Copy)]
pub struct PreambleMatch {
    /// Sample offset of the frame start within the searched signal.
    pub offset: usize,
    /// The fitted correction; apply to every subsequent sample.
    pub fit: PreambleCorrection,
    /// Detection score: unexplained-variance fraction at the match
    /// (0 = perfect, → 1 = noise).
    pub score: f64,
}

/// Preamble detector bound to a PHY configuration and a tag model.
#[derive(Debug, Clone)]
pub struct PreambleDetector {
    reference: Vec<C64>,
    /// Precomputed normal-equation factors of the widely-linear design built
    /// from `reference` — the reference is fixed per detector, so the search
    /// only computes the X-dependent moments per candidate offset.
    gram: WidelyLinearGram,
    /// Samples between the frame start and the reference window: the first
    /// L slots of the preamble are the cold-start ramp, whose slow envelope
    /// would dominate the match and smear/bias the timing estimate; the
    /// detector matches the stationary PN section instead.
    skip: usize,
    /// Matches with a score above this are rejected (noise scores
    /// concentrate near 1 − 3/k; clean preambles near the noise floor).
    pub threshold: f64,
    /// The certified moment scan; `None` when the Gram cannot be certified,
    /// and every offset of a search is then refit exactly.
    moments: Option<MomentScan>,
}

impl PreambleDetector {
    /// Build the detector, rendering the reference preamble waveform through
    /// the given (nominal) tag model — the "reference recorded offline under
    /// sufficiently high SNR" of §4.3.1.
    ///
    /// # Panics
    /// Panics unless the preamble is at least 2·L slots (one warm-up cycle
    /// plus a stationary match window).
    pub fn new(cfg: &PhyConfig, model: &TagModel) -> Self {
        assert!(
            cfg.preamble_slots >= 2 * cfg.l_order,
            "PreambleDetector: preamble must be at least 2·L slots"
        );
        let pre = Modulator::preamble_levels(cfg);
        let skip = cfg.l_order * cfg.samples_per_slot();
        let reference = model.render_levels(&pre)[skip..].to_vec();
        let gram = WidelyLinearGram::new(&reference);
        let moments = MomentScan::new(&reference, &gram);
        Self {
            reference,
            gram,
            skip,
            threshold: 0.92,
            moments,
        }
    }

    /// Reference length in samples.
    pub fn reference_len(&self) -> usize {
        self.reference.len()
    }

    /// The rendered reference waveform.
    pub fn reference(&self) -> &[C64] {
        &self.reference
    }

    /// Samples a fit at offset `off` reads: the settling skip plus the
    /// match window. `fit_at(rx, off)` succeeds iff `off + span() ≤ rx.len()`.
    pub fn span(&self) -> usize {
        self.skip + self.reference.len()
    }

    /// Fit the widely-linear map for a frame starting at `offset` (the
    /// match window itself sits `skip` samples later); returns the
    /// correction and the detection score. `None` if the window runs past
    /// the signal, is degenerate (zero variance) or yields a non-finite
    /// score (a NaN or infinite sample in the window).
    ///
    /// Uses the Gram precomputed in [`Self::new`]; on every host this is
    /// bit-identical to [`Self::fit_at_reference`] (differential-tested).
    pub fn fit_at(&self, rx: &Signal, offset: usize) -> Option<PreambleMatch> {
        self.fit_with(rx, offset, |x| self.gram.fit(x))
    }

    /// Oracle for [`Self::fit_at`]: re-solves the widely-linear fit from
    /// scratch at the given offset.
    pub fn fit_at_reference(&self, rx: &Signal, offset: usize) -> Option<PreambleMatch> {
        // Regress X on the reference (note argument order: model input is Y).
        self.fit_with(rx, offset, |x| widely_linear_fit(&self.reference, x))
    }

    fn fit_with(
        &self,
        rx: &Signal,
        offset: usize,
        fit_fn: impl Fn(&[C64]) -> WidelyLinearFit,
    ) -> Option<PreambleMatch> {
        let k = self.reference.len();
        if offset + self.skip + k > rx.len() {
            return None;
        }
        let x = &rx.samples()[offset + self.skip..offset + self.skip + k];
        let fit = fit_fn(x);
        let mean: C64 = x.iter().copied().sum::<C64>() / k as f64;
        let var: f64 = x.iter().map(|&z| (z - mean).norm_sqr()).sum();
        let score = fit.residual / var;
        if var < 1e-300 || !score.is_finite() {
            return None;
        }
        Some(PreambleMatch {
            offset,
            fit: PreambleCorrection {
                alpha: fit.a,
                beta: fit.b,
                gamma: fit.c,
            },
            score,
        })
    }

    /// Search `rx` for a *frame start* between sample offsets `[from, to)`.
    /// Returns the best match if its score clears the threshold.
    ///
    /// Bit-identical to [`Self::detect_in_reference`]: the certified scan
    /// refits with [`Self::fit_at`], in ascending offset order under the
    /// same first-minimum rule, every offset whose score bound does not
    /// rule it out.
    pub fn detect_in(&self, rx: &Signal, from: usize, to: usize) -> Option<PreambleMatch> {
        let (m, refits) = self.scan(rx, from, to);
        telemetry::counter_add("preamble.refits", refits as u64);
        match &m {
            Some(b) => {
                telemetry::counter_inc("preamble.detections");
                telemetry::observe("preamble.score", b.score);
                // Headroom between the winning score and the acceptance
                // threshold (scores are residual fractions: lower is better).
                telemetry::observe("preamble.margin", self.threshold - b.score);
            }
            None => telemetry::counter_inc("preamble.misses"),
        }
        m
    }

    /// Oracle for [`Self::detect_in`]: re-solve the fit from scratch at
    /// every offset and keep the first minimum.
    pub fn detect_in_reference(
        &self,
        rx: &Signal,
        from: usize,
        to: usize,
    ) -> Option<PreambleMatch> {
        let mut best: Option<PreambleMatch> = None;
        for off in self.offsets(rx, from, to) {
            if let Some(m) = self.fit_at_reference(rx, off) {
                if best.as_ref().is_none_or(|b| m.score < b.score) {
                    best = Some(m);
                }
            }
        }
        best.filter(|b| b.score <= self.threshold)
    }

    /// The offsets a search over `[from, to)` visits: those whose fit
    /// window lies inside `rx`.
    fn offsets(&self, rx: &Signal, from: usize, to: usize) -> std::ops::Range<usize> {
        let span = self.span();
        if rx.len() < span {
            return 0..0;
        }
        from..to.min(rx.len() - span + 1)
    }

    /// The certified scan behind [`Self::detect_in`]; also returns how many
    /// offsets it refit exactly.
    ///
    /// Every offset gets a bound `lb ≤ score ≤ ub` on what [`Self::fit_at`]
    /// would return (`lb = −∞` where the bound cannot decide: non-finite
    /// moments, or a variance not certifiably above the fit's `1e-300`
    /// cut). With `T* = min(threshold, min ub)`, an offset with `lb > T*`
    /// either scores above the threshold or strictly above an offset that
    /// is refit, so it can neither win nor tie; every other offset is refit
    /// exactly.
    fn scan(&self, rx: &Signal, from: usize, to: usize) -> (Option<PreambleMatch>, usize) {
        let offsets = self.offsets(rx, from, to);
        if offsets.is_empty() {
            return (None, 0);
        }
        let mut candidates: Vec<(usize, f64)> = Vec::new();
        let mut t_star = self.threshold;
        match &self.moments {
            None => candidates.extend(offsets.map(|o| (o, f64::NEG_INFINITY))),
            Some(ms) => {
                let k = self.reference.len();
                let x = &rx.samples()[offsets.start + self.skip..offsets.end - 1 + self.skip + k];
                ms.bounds(x, offsets.len(), |r, lb, ub| {
                    t_star = t_star.min(ub);
                    if lb <= t_star {
                        candidates.push((offsets.start + r, lb));
                    }
                });
            }
        }
        let mut best: Option<PreambleMatch> = None;
        let mut refits = 0;
        for (off, lb) in candidates {
            if lb > t_star {
                continue;
            }
            refits += 1;
            if let Some(m) = self.fit_at(rx, off) {
                if best.as_ref().is_none_or(|b| m.score < b.score) {
                    best = Some(m);
                }
            }
        }
        (best.filter(|b| b.score <= self.threshold), refits)
    }
}

/// The moment form of the per-offset score, certified against
/// [`PreambleDetector::fit_at`] (DESIGN.md §8).
///
/// For a window `X` of `k` samples, `b = [ΣȲX, ΣYX, ΣX]`, `E = Σ|X|²`:
/// the fit residual is `R = E − bᴴG⁻¹b` ([`ResidualCertificate`]) and the
/// variance `V = E − |ΣX|²/k`. The two correlations come from FFTs against
/// reference spectra precomputed here, `ΣX` and `E` from prefix sums that
/// restart at every chunk; each carries a proven error bound, and the
/// certificate adds the distance between the exact moments and the fit's
/// own floating-point result.
#[derive(Debug, Clone)]
struct MomentScan {
    cert: ResidualCertificate,
    fft: Fft,
    /// Reference spectra per transform length, ascending.
    spectra: Vec<Spectra>,
    /// `|V̂ − V| ≤ var_dev·E` for the variance [`PreambleDetector::fit_at`]
    /// computes (two-pass mean, then the squared deviations).
    var_dev: f64,
}

/// A complex vector split into real and imaginary parts, the layout the
/// FFT works in.
#[derive(Debug, Clone, Default)]
struct Split {
    re: Vec<f64>,
    im: Vec<f64>,
}

#[derive(Debug, Clone)]
struct Spectra {
    /// Transform length.
    n: usize,
    /// `conj(FFT(Y))`: correlating with it yields `ΣȲX` at every offset.
    y: Split,
    /// `conj(FFT(Ȳ))`: yields `ΣYX`.
    y_conj: Split,
    /// Correlation error per unit input norm: `|ĉ_r − c_r| ≤ corr_err·‖z‖₂`.
    corr_err: f64,
}

impl MomentScan {
    fn new(reference: &[C64], gram: &WidelyLinearGram) -> Option<Self> {
        let cert = gram.residual_certificate()?;
        let k = reference.len();
        let n_min = k.next_power_of_two().max(2);
        let fft = Fft::new(4 * n_min);
        let y_norm = reference.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        let spectrum = |n: usize, conj_ref: bool| {
            let mut sp = Split {
                re: vec![0.0; n],
                im: vec![0.0; n],
            };
            for (i, &y) in reference.iter().enumerate() {
                sp.re[i] = y.re;
                sp.im[i] = if conj_ref { -y.im } else { y.im };
            }
            fft.forward(&mut sp.re, &mut sp.im);
            sp.im.iter_mut().for_each(|v| *v = -*v);
            sp
        };
        let spectra = (0..3)
            .map(|i| {
                let n = n_min << i;
                let (y, y_conj) = (spectrum(n, false), spectrum(n, true));
                let p_max = [&y, &y_conj]
                    .iter()
                    .flat_map(|sp| sp.re.iter().zip(&sp.im))
                    .map(|(r, i)| r * r + i * i)
                    .fold(0.0, f64::max)
                    .sqrt();
                // Forward error of the data transform and of the stored
                // spectrum, the pointwise product, and the inverse
                // transform (DESIGN.md §8), doubled for second-order terms.
                let eps = Fft::error_bound(n);
                let corr_err =
                    2.0 * ((2.0 * eps + 2.0 * gamma(2)) * p_max + eps * (n as f64).sqrt() * y_norm);
                Spectra {
                    n,
                    y,
                    y_conj,
                    corr_err,
                }
            })
            .collect();
        Some(Self {
            cert,
            fft,
            spectra,
            var_dev: gamma(k + 3) + 2.0 * gamma(2 * k + 4).powi(2),
        })
    }

    /// Visit `(r, lb, ub)` for the `count` windows `x[r..r + k]`,
    /// `r < count`, in ascending order; `x.len() == count + k − 1`.
    fn bounds(&self, x: &[C64], count: usize, mut visit: impl FnMut(usize, f64, f64)) {
        let k = x.len() + 1 - count;
        let mut scratch = Scratch::default();
        let mut done = 0;
        while done < count {
            let left = count - done;
            let sp = self
                .spectra
                .iter()
                .find(|s| s.n + 1 - k >= left)
                .unwrap_or(&self.spectra[self.spectra.len() - 1]);
            let c = left.min(sp.n + 1 - k);
            self.chunk(
                &x[done..done + c + k - 1],
                c,
                k,
                sp,
                &mut scratch,
                |r, lb, ub| visit(done + r, lb, ub),
            );
            done += c;
        }
    }

    /// Bounds for one chunk of `c` windows, scored with one length-`n`
    /// forward transform and two inverse ones.
    fn chunk(
        &self,
        z: &[C64],
        c: usize,
        k: usize,
        sp: &Spectra,
        s: &mut Scratch,
        mut visit: impl FnMut(usize, f64, f64),
    ) {
        let n = sp.n;
        let j = z.len();
        // Transform input, prefix sums and a running count of non-finite
        // samples; those are zeroed so they cannot spread through the
        // transform, and every window holding one is refit.
        let (x, c2) = (&mut s.x, &mut s.corr);
        for v in [&mut x.re, &mut x.im, &mut c2.re, &mut c2.im] {
            v.clear();
            v.resize(n, 0.0);
        }
        s.sum.resize(j + 1, C64::default());
        s.energy.resize(j + 1, 0.0);
        s.bad.resize(j + 1, 0);
        let (mut sum, mut energy, mut l1, mut bad) = (C64::default(), 0.0, 0.0, 0u32);
        (s.sum[0], s.energy[0], s.bad[0]) = (sum, energy, bad);
        for (i, &v) in z.iter().enumerate() {
            let v = if v.is_finite() {
                v
            } else {
                bad += 1;
                C64::default()
            };
            (x.re[i], x.im[i]) = (v.re, v.im);
            sum += v;
            energy += v.norm_sqr();
            l1 += v.re.abs() + v.im.abs();
            (s.sum[i + 1], s.energy[i + 1], s.bad[i + 1]) = (sum, energy, bad);
        }
        // Outside this range a product could underflow or overflow and the
        // relative error model would not hold; refit everything instead.
        if !(1e-200..=1e200).contains(&energy) {
            (0..c).for_each(|r| visit(r, f64::NEG_INFINITY, f64::INFINITY));
            return;
        }
        self.fft.forward(&mut x.re, &mut x.im);
        // Pointwise products with the two reference spectra (the ΣYX one
        // first, since the ΣȲX one overwrites the transform in place).
        let (yr, yi) = (&sp.y.re[..n], &sp.y.im[..n]);
        let (cr, ci) = (&sp.y_conj.re[..n], &sp.y_conj.im[..n]);
        for m in 0..n {
            let (zr, zi) = (x.re[m], x.im[m]);
            c2.re[m] = zr * cr[m] - zi * ci[m];
            c2.im[m] = zr * ci[m] + zi * cr[m];
            x.re[m] = zr * yr[m] - zi * yi[m];
            x.im[m] = zr * yi[m] + zi * yr[m];
        }
        self.fft.inverse(&mut x.re, &mut x.im);
        self.fft.inverse(&mut c2.re, &mut c2.im);
        let inv_n = 1.0 / n as f64;
        let e_corr = sp.corr_err * energy.sqrt();
        let e_sum = 2.0 * gamma(j + 1) * l1;
        let e_energy = 2.0 * gamma(j + 3) * energy;
        let (g2, g4, g8) = (gamma(2), gamma(4), gamma(8));
        let kf = k as f64;
        for r in 0..c {
            if s.bad[r + k] != s.bad[r] {
                visit(r, f64::NEG_INFINITY, f64::INFINITY);
                continue;
            }
            let sx = s.sum[r + k] - s.sum[r];
            let ex = s.energy[r + k] - s.energy[r];
            let b = [
                C64::new(x.re[r] * inv_n, x.im[r] * inv_n),
                C64::new(c2.re[r] * inv_n, c2.im[r] * inv_n),
                sx,
            ];
            let sx_abs = sx.re.abs() + sx.im.abs();
            let e_sx = e_sum + g2 * sx_abs;
            let e_ex = e_energy + g2 * ex;
            let (rt, e_r) = self.cert.residual(ex, e_ex, &b, 2.0 * e_corr + e_sx);
            let sx2 = sx.norm_sqr();
            let vt = ex - sx2 / kf;
            let e_v = 2.0
                * (e_ex
                    + (2.0 * sx_abs * e_sx + e_sx * e_sx) / kf
                    + g4 * sx2 / kf
                    + g2 * vt.abs()
                    + self.var_dev * (ex + e_ex));
            let lo = vt - e_v;
            let lb = ((rt - e_r) / (vt + e_v)).max(0.0) * (1.0 - g8);
            let ub = (rt + e_r) / lo * (1.0 + g8);
            if lo >= 1e-300 && lb.is_finite() && ub.is_finite() {
                visit(r, lb, ub);
            } else {
                visit(r, f64::NEG_INFINITY, f64::INFINITY);
            }
        }
    }
}

/// Per-search buffers of [`MomentScan::bounds`].
#[derive(Default)]
struct Scratch {
    /// The transform input, then the `ΣȲX` correlation.
    x: Split,
    /// The `ΣYX` correlation.
    corr: Split,
    sum: Vec<C64>,
    energy: Vec<f64>,
    bad: Vec<u32>,
}

/// Apply a preamble correction to a sample slice, producing the corrected
/// waveform in the reference frame: [`PreambleCorrection::apply`] at every
/// sample, bit for bit, with the determinant, the degeneracy test and
/// `conj(α)` computed once.
pub fn correct(fit: &PreambleCorrection, x: &[C64]) -> Vec<C64> {
    match fit.determinant() {
        Some(d) => {
            let (alpha_conj, inv_d) = (fit.alpha.conj(), 1.0 / d);
            x.iter()
                .map(|&z| fit.invert(alpha_conj, inv_d, z))
                .collect()
        }
        None => x.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retroturbo_lcm::LcParams;

    fn cfg() -> PhyConfig {
        PhyConfig {
            l_order: 4,
            pqam_order: 16,
            t_slot: 0.5e-3,
            fs: 40_000.0,
            v_memory: 3,
            k_branches: 8,
            preamble_slots: 16,
            training_rounds: 4,
        }
    }

    fn model() -> TagModel {
        TagModel::nominal(&cfg(), &LcParams::default())
    }

    /// Render a frame-opening waveform, embed at `pad` samples, distorted by
    /// the forward map z = g·w + dc, plus noise.
    fn make_rx(pad: usize, rot: f64, gain: f64, dc: C64, noise_sigma: f64, seed: u64) -> Signal {
        let c = cfg();
        let m = model();
        let mut levels = Modulator::preamble_levels(&c);
        levels.extend(vec![(1usize, 2usize); 8]);
        let wave = m.render_levels(&levels);
        let g = C64::from_polar(gain, rot);
        let mut samples = vec![g * C64::new(-1.0, -1.0) + dc; pad];
        samples.extend(wave.iter().map(|&z| g * z + dc));
        let mut sig = Signal::new(samples, c.fs);
        if noise_sigma > 0.0 {
            let mut ns = retroturbo_dsp::noise::NoiseSource::new(seed);
            ns.add_awgn(sig.samples_mut(), noise_sigma);
        }
        sig
    }

    #[test]
    fn finds_exact_offset_clean() {
        let det = PreambleDetector::new(&cfg(), &model());
        let rx = make_rx(137, 0.0, 1.0, C64::default(), 0.0, 0);
        let m = det.detect_in(&rx, 0, rx.len()).expect("no match");
        assert_eq!(m.offset, 137);
        assert!(m.score < 1e-6);
    }

    #[test]
    fn finds_offset_under_rotation_and_scale() {
        // 35° roll ⇒ 70° constellation rotation, 0.3× amplitude, DC offset.
        let det = PreambleDetector::new(&cfg(), &model());
        let rot = 2.0 * 35f64.to_radians();
        let dc = C64::new(0.2, -0.1);
        let rx = make_rx(80, rot, 0.3, dc, 0.0, 0);
        let m = det.detect_in(&rx, 0, rx.len()).expect("no match");
        assert_eq!(m.offset, 80);
        // The inverse map must restore the transmitted preamble exactly.
        let y = model().render_levels(&Modulator::preamble_levels(&cfg()));
        let x = &rx.samples()[80..80 + y.len()];
        let corr = correct(&m.fit, x);
        let err: f64 = corr.iter().zip(&y).map(|(a, b)| (*a - *b).norm_sqr()).sum();
        assert!(err < 1e-9, "correction residual {err}");
    }

    #[test]
    fn correction_handles_iq_imbalance() {
        // Forward map with a conjugate term; inversion must still restore
        // the transmitted waveform.
        let c = cfg();
        let det = PreambleDetector::new(&c, &model());
        let alpha = C64::from_polar(0.7, 1.0);
        let beta = C64::new(0.08, -0.03);
        let gamma = C64::new(0.1, 0.2);
        let y = model().render_levels(&Modulator::preamble_levels(&c));
        let x: Vec<C64> = y
            .iter()
            .map(|&z| alpha * z + beta * z.conj() + gamma)
            .collect();
        let sig = Signal::new(x, c.fs);
        let m = det.fit_at(&sig, 0).unwrap();
        let corr = correct(&m.fit, sig.samples());
        let err: f64 = corr.iter().zip(&y).map(|(a, b)| (*a - *b).norm_sqr()).sum();
        assert!(err < 1e-9, "imbalance inversion residual {err}");
    }

    #[test]
    fn tolerates_noise() {
        let det = PreambleDetector::new(&cfg(), &model());
        let rx = make_rx(211, 1.1, 0.8, C64::new(0.1, 0.1), 0.05, 42);
        let m = det
            .detect_in(&rx, 0, rx.len())
            .expect("no match under noise");
        assert!(
            (m.offset as isize - 211).unsigned_abs() <= 1,
            "offset {} (expected ≈211)",
            m.offset
        );
    }

    #[test]
    fn detects_blind_at_ten_db() {
        // σ ≈ 0.32 (10 dB per sample): a blind full-stream search must lock
        // to the exact frame start. 10 dB is well below every payload
        // demodulation threshold, so detection never limits the link.
        let det = PreambleDetector::new(&cfg(), &model());
        let rx = make_rx(400, 0.3, 1.0, C64::default(), 0.316, 11);
        let m = det.detect_in(&rx, 0, rx.len()).expect("no match at 10 dB");
        assert!(
            (m.offset as isize - 400).unsigned_abs() <= 2,
            "offset {} (expected ≈400)",
            m.offset
        );
    }

    #[test]
    fn windowed_timing_within_a_slot_at_zero_db() {
        // At 0 dB per sample (robust low-rate regime) a TDMA poll window of
        // ±50 samples still bounds the timing error to about one slot.
        let det = PreambleDetector::new(&cfg(), &model());
        let rx = make_rx(400, 0.3, 1.0, C64::default(), 1.0, 11);
        let m = det.detect_in(&rx, 350, 450).expect("no match at 0 dB");
        assert!(
            (m.offset as isize - 400).unsigned_abs() <= 20,
            "offset {} (expected 400 ± one slot)",
            m.offset
        );
    }

    #[test]
    fn rejects_pure_noise() {
        let det = PreambleDetector::new(&cfg(), &model());
        let mut sig = Signal::zeros(4000, cfg().fs);
        let mut ns = retroturbo_dsp::noise::NoiseSource::new(9);
        ns.add_awgn(sig.samples_mut(), 1.0);
        assert!(
            det.detect_in(&sig, 0, sig.len()).is_none(),
            "matched pure noise"
        );
    }

    #[test]
    fn windowed_search_respects_bounds() {
        let det = PreambleDetector::new(&cfg(), &model());
        let rx = make_rx(400, 0.0, 1.0, C64::default(), 0.0, 0);
        // A window that never reaches the frame sees only the constant rest
        // level (zero variance) — no detection.
        assert!(det.detect_in(&rx, 0, 50).is_none());
        let m = det.detect_in(&rx, 350, 450).unwrap();
        assert_eq!(m.offset, 400);
    }

    #[test]
    fn gram_fit_bit_identical_to_reference_fit() {
        let det = PreambleDetector::new(&cfg(), &model());
        // Clean, rotated and noisy embeddings; every candidate offset must
        // agree bit-for-bit between the Gram path and the scratch re-solve.
        for (rot, sigma, seed) in [(0.0, 0.0, 0u64), (1.1, 0.05, 42), (0.3, 1.0, 11)] {
            let rx = make_rx(137, rot, 0.8, C64::new(0.1, -0.05), sigma, seed);
            for off in (0..200).step_by(7) {
                let slow = det.fit_at_reference(&rx, off);
                let fast = det.fit_at(&rx, off);
                match (slow, fast) {
                    (None, None) => {}
                    (Some(s), Some(f)) => {
                        assert_eq!(s.offset, f.offset);
                        assert_eq!(s.score.to_bits(), f.score.to_bits());
                        assert_eq!(s.fit.alpha.re.to_bits(), f.fit.alpha.re.to_bits());
                        assert_eq!(s.fit.alpha.im.to_bits(), f.fit.alpha.im.to_bits());
                        assert_eq!(s.fit.beta.re.to_bits(), f.fit.beta.re.to_bits());
                        assert_eq!(s.fit.beta.im.to_bits(), f.fit.beta.im.to_bits());
                        assert_eq!(s.fit.gamma.re.to_bits(), f.fit.gamma.re.to_bits());
                        assert_eq!(s.fit.gamma.im.to_bits(), f.fit.gamma.im.to_bits());
                    }
                    (s, f) => panic!("fit_at divergence at {off}: {s:?} vs {f:?}"),
                }
            }
        }
    }

    #[test]
    fn gram_search_bit_identical_to_reference_search() {
        let det = PreambleDetector::new(&cfg(), &model());
        let rx = make_rx(211, 1.1, 0.8, C64::new(0.1, 0.1), 0.05, 42);
        let slow = det.detect_in_reference(&rx, 0, rx.len());
        let fast = det.detect_in(&rx, 0, rx.len());
        let (s, f) = (slow.expect("reference missed"), fast.expect("gram missed"));
        assert_eq!(s.offset, f.offset);
        assert_eq!(s.score.to_bits(), f.score.to_bits());
        // And on pure noise both must reject.
        let mut sig = Signal::zeros(2000, cfg().fs);
        let mut ns = retroturbo_dsp::noise::NoiseSource::new(9);
        ns.add_awgn(sig.samples_mut(), 1.0);
        assert!(det.detect_in_reference(&sig, 0, sig.len()).is_none());
        assert!(det.detect_in(&sig, 0, sig.len()).is_none());
    }

    fn assert_same(s: Option<PreambleMatch>, f: Option<PreambleMatch>, what: &str) {
        match (s, f) {
            (None, None) => {}
            (Some(s), Some(f)) => {
                assert_eq!(s.offset, f.offset, "{what}: offset");
                assert_eq!(s.score.to_bits(), f.score.to_bits(), "{what}: score");
                for (a, b) in [
                    (s.fit.alpha, f.fit.alpha),
                    (s.fit.beta, f.fit.beta),
                    (s.fit.gamma, f.fit.gamma),
                ] {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "{what}: fit");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "{what}: fit");
                }
            }
            (s, f) => panic!("{what}: reference {s:?} vs certified {f:?}"),
        }
    }

    /// Noise of standard deviation `sigma` around a DC level.
    fn noise(n: usize, dc: C64, sigma: f64, seed: u64) -> Signal {
        let mut sig = Signal::new(vec![dc; n], cfg().fs);
        retroturbo_dsp::noise::NoiseSource::new(seed).add_awgn(sig.samples_mut(), sigma);
        sig
    }

    #[test]
    fn certified_bounds_contain_every_exact_score() {
        // The certificate's promise, offset by offset: wherever the bound
        // decides (finite lb/ub), the exact fit returns `Some` with a score
        // inside it.
        let det = PreambleDetector::new(&cfg(), &model());
        let ms = det.moments.as_ref().expect("nominal Gram certifies");
        let k = det.reference_len();
        let mut signals = vec![
            make_rx(137, 1.1, 0.8, C64::new(0.1, 0.1), 0.05, 42),
            make_rx(300, 0.3, 1.0, C64::default(), 1.0, 11),
            make_rx(50, 2.0, 0.01, C64::new(30.0, -40.0), 1e-4, 5),
            noise(1500, C64::new(3.0, 1.0), 0.5, 9),
        ];
        let mut big = make_rx(200, 0.7, 1e6, C64::default(), 0.0, 0);
        for (i, z) in big.samples_mut().iter_mut().enumerate() {
            *z += C64::new((i as f64 * 0.1).sin(), 0.0);
        }
        signals.push(big);
        for rx in &signals {
            let count = rx.len() - det.span() + 1;
            let x = &rx.samples()[det.skip..det.skip + count + k - 1];
            let mut certified = 0;
            ms.bounds(x, count, |r, lb, ub| {
                if lb == f64::NEG_INFINITY {
                    return;
                }
                certified += 1;
                let m = det.fit_at(rx, r).expect("certified offset must fit");
                assert!(
                    lb <= m.score && m.score <= ub,
                    "offset {r}: {lb} ≤ {} ≤ {ub} violated",
                    m.score
                );
            });
            assert!(
                certified > count / 2,
                "bound decided only {certified}/{count}"
            );
        }
    }

    #[test]
    fn noise_only_block_refits_nothing() {
        // The framer's shape: 512 offsets of noise. Every score sits near
        // 1 − 3/k, far above the threshold, so no offset is refit.
        let det = PreambleDetector::new(&cfg(), &model());
        let sig = noise(512 + det.span() - 1, C64::new(-0.5, 0.2), 0.3, 17);
        let (m, refits) = det.scan(&sig, 0, 512);
        assert!(m.is_none());
        assert_eq!(refits, 0);
        assert!(det.detect_in_reference(&sig, 0, 512).is_none());
    }

    #[test]
    fn clean_preamble_block_refits_about_one_offset() {
        let det = PreambleDetector::new(&cfg(), &model());
        let rx = make_rx(211, 1.1, 0.8, C64::new(0.1, 0.1), 0.01, 42);
        let (m, refits) = det.scan(&rx, 100, 612.min(rx.len()));
        assert_same(det.detect_in_reference(&rx, 100, 612), m, "block");
        assert!(m.is_some());
        assert!(refits <= 3, "{refits} refits");
    }

    #[test]
    fn non_finite_sample_does_not_hide_the_block() {
        // One NaN (or Inf) inside the *first* fit window used to become the
        // running best — `m.score < NaN` is never true — and hid a clean
        // preamble further on. Windows holding it now score `None`.
        let det = PreambleDetector::new(&cfg(), &model());
        for bad in [C64::new(f64::NAN, 0.0), C64::new(0.0, f64::INFINITY)] {
            let mut rx = make_rx(400, 0.3, 1.0, C64::default(), 0.01, 3);
            rx.samples_mut()[det.skip + 5] = bad;
            assert!(det.fit_at(&rx, 0).is_none());
            assert!(det.fit_at_reference(&rx, 0).is_none());
            let slow = det.detect_in_reference(&rx, 0, 600);
            let fast = det.detect_in(&rx, 0, 600);
            assert_eq!(slow.expect("reference lost the preamble").offset, 400);
            assert_same(slow, fast, "non-finite");
        }
    }

    #[test]
    fn uncertified_gram_refits_every_offset() {
        // Without a certificate the scan refits every offset and still
        // returns the oracle's answer.
        let det = PreambleDetector {
            moments: None,
            ..PreambleDetector::new(&cfg(), &model())
        };
        let rx = make_rx(137, 1.1, 0.8, C64::new(0.1, 0.1), 0.05, 42);
        let (m, refits) = det.scan(&rx, 100, 180);
        assert_eq!(refits, 80);
        assert_same(det.detect_in_reference(&rx, 100, 180), m, "uncertified");
    }

    #[test]
    fn certified_scan_matches_reference_on_edges() {
        // Constant stretches (the rest level: zero variance), ranges that
        // run past the signal, single offsets and empty ranges.
        let det = PreambleDetector::new(&cfg(), &model());
        let rx = make_rx(400, 0.0, 1.0, C64::default(), 0.0, 0);
        let len = rx.len();
        for (from, to) in [
            (0, 50),
            (350, 450),
            (0, len),
            (399, 400),
            (400, 401),
            (len - 1, len),
            (10, 5),
        ] {
            assert_same(
                det.detect_in_reference(&rx, from, to),
                det.detect_in(&rx, from, to),
                &format!("[{from}, {to})"),
            );
        }
        let short = Signal::new(vec![C64::real(1.0); 10], cfg().fs);
        assert!(det.detect_in(&short, 0, 10).is_none());
    }

    /// `correct` hoists the determinant, the degeneracy test and `conj(α)`
    /// out of the sample loop; it must still equal [`PreambleCorrection::apply`]
    /// at every sample bit for bit: for an ordinary fit, a degenerate one,
    /// the all-zero fit and non-finite fits, over finite, NaN and ±Inf
    /// samples.
    #[test]
    fn correct_matches_per_sample_apply_bit_for_bit() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let mut x: Vec<C64> = (0..64)
            .map(|i| C64::from_polar(0.1 + i as f64 * 0.37, i as f64 * 1.3))
            .collect();
        x.extend([
            C64::new(nan, 0.5),
            C64::new(0.5, nan),
            C64::new(inf, -1.0),
            C64::new(-inf, 2.0),
            C64::new(1.0, inf),
            C64::new(-inf, -inf),
            C64::new(0.0, -0.0),
            C64::new(1e-300, -1e300),
        ]);
        let fits = [
            (
                C64::new(0.8, -0.6),
                C64::new(0.05, 0.02),
                C64::new(0.1, -0.2),
            ),
            (C64::real(0.5), C64::real(0.5), C64::new(0.3, 0.1)),
            (C64::default(), C64::default(), C64::default()),
            (
                C64::new(3e-13, 1e-13),
                C64::new(1e-14, 0.0),
                C64::new(-1e-13, 0.0),
            ),
            (C64::new(inf, 0.0), C64::real(0.1), C64::default()),
            (C64::new(nan, 1.0), C64::real(0.1), C64::default()),
        ];
        let bits = |z: C64| (z.re.to_bits(), z.im.to_bits());
        for (alpha, beta, gamma) in fits {
            let fit = PreambleCorrection { alpha, beta, gamma };
            let got = correct(&fit, &x);
            assert_eq!(got.len(), x.len());
            for (i, (&z, &y)) in x.iter().zip(&got).enumerate() {
                assert_eq!(bits(y), bits(fit.apply(z)), "{fit:?}, sample {i} = {z:?}");
            }
        }
    }

    #[test]
    fn degenerate_correction_is_identity() {
        let c = PreambleCorrection {
            alpha: C64::real(0.5),
            beta: C64::real(0.5),
            gamma: C64::default(),
        };
        let z = C64::new(1.0, 2.0);
        assert_eq!(c.apply(z), z);
    }
}
