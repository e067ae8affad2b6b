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

use crate::frame::Modulator;
use crate::params::PhyConfig;
use crate::synth::TagModel;
use retroturbo_dsp::linalg::{widely_linear_fit, WidelyLinearFit, WidelyLinearGram};
use retroturbo_dsp::{Backend, Signal, C64};
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
        let d = self.alpha.norm_sqr() - self.beta.norm_sqr();
        if d.abs() < 1e-12 {
            return z;
        }
        let zp = z - self.gamma;
        (self.alpha.conj() * zp - self.beta * zp.conj()) / d
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
    /// Kernel backend. `Scalar`/`Simd` are bit-identical.
    backend: Backend,
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
        Self {
            reference,
            gram,
            skip,
            threshold: 0.92,
            backend: Backend::detect(),
        }
    }

    /// Replace the kernel backend (default: [`Backend::detect`]).
    pub fn with_backend(mut self, bk: Backend) -> Self {
        self.backend = bk;
        self
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
    /// the signal or is degenerate (zero variance).
    ///
    /// Uses the Gram precomputed in [`Self::new`]; on either tier this is
    /// bit-identical to [`Self::fit_at_reference`] (differential-tested).
    pub fn fit_at(&self, rx: &Signal, offset: usize) -> Option<PreambleMatch> {
        self.fit_with(rx, offset, |x| self.gram.fit_with(self.backend, x))
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
        if var < 1e-300 {
            return None;
        }
        Some(PreambleMatch {
            offset,
            fit: PreambleCorrection {
                alpha: fit.a,
                beta: fit.b,
                gamma: fit.c,
            },
            score: fit.residual / var,
        })
    }

    /// Search `rx` for a *frame start* between sample offsets `[from, to)`.
    /// Returns the best match if its score clears the threshold.
    pub fn detect_in(&self, rx: &Signal, from: usize, to: usize) -> Option<PreambleMatch> {
        let m = self.detect_with(rx, from, to, |rx, off| self.fit_at(rx, off));
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

    /// Oracle for [`Self::detect_in`]: the same scan, re-solving the fit
    /// from scratch at every offset.
    pub fn detect_in_reference(
        &self,
        rx: &Signal,
        from: usize,
        to: usize,
    ) -> Option<PreambleMatch> {
        self.detect_with(rx, from, to, |rx, off| self.fit_at_reference(rx, off))
    }

    fn detect_with(
        &self,
        rx: &Signal,
        from: usize,
        to: usize,
        fit_at: impl Fn(&Signal, usize) -> Option<PreambleMatch>,
    ) -> Option<PreambleMatch> {
        let k = self.reference.len() + self.skip;
        if rx.len() < k {
            return None;
        }
        let to = to.min(rx.len() - k + 1);
        let mut best: Option<PreambleMatch> = None;
        for off in from..to {
            if let Some(m) = fit_at(rx, off) {
                if best.as_ref().is_none_or(|b| m.score < b.score) {
                    best = Some(m);
                }
            }
        }
        best.filter(|b| b.score <= self.threshold)
    }
}

/// Apply a preamble correction to a sample slice, producing the corrected
/// waveform in the reference frame.
pub fn correct(fit: &PreambleCorrection, x: &[C64]) -> Vec<C64> {
    x.iter().map(|&z| fit.apply(z)).collect()
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
