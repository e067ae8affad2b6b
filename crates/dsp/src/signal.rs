//! Discrete-time signal containers.
//!
//! A [`Signal`] is a uniformly sampled complex waveform tagged with its sample
//! rate. The tag is load-bearing: the RetroTurbo pipeline mixes a 3.64 MHz
//! passband stage with a 40 kHz baseband stage, and carrying the rate with the
//! samples turns unit mistakes into loud assertion failures instead of silent
//! garbage.

use crate::complex::{dist_sqr, norm_sqr, C64};

/// A uniformly sampled complex signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    samples: Vec<C64>,
    sample_rate: f64,
}

impl Signal {
    /// Create a signal from raw samples at `sample_rate` Hz.
    ///
    /// # Panics
    /// Panics if `sample_rate` is not strictly positive and finite.
    pub fn new(samples: Vec<C64>, sample_rate: f64) -> Self {
        assert!(
            sample_rate.is_finite() && sample_rate > 0.0,
            "sample rate must be positive, got {sample_rate}"
        );
        Self {
            samples,
            sample_rate,
        }
    }

    /// An all-zero signal of `n` samples.
    pub fn zeros(n: usize, sample_rate: f64) -> Self {
        Self::new(vec![C64::default(); n], sample_rate)
    }

    /// Build a signal from real samples (imaginary part zero).
    pub fn from_real(samples: &[f64], sample_rate: f64) -> Self {
        Self::new(samples.iter().map(|&x| C64::real(x)).collect(), sample_rate)
    }

    /// Sample rate in Hz.
    #[inline]
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Sample period in seconds.
    #[inline]
    pub fn dt(&self) -> f64 {
        1.0 / self.sample_rate
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the signal holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total duration in seconds.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate
    }

    /// Immutable view of the samples.
    #[inline]
    pub fn samples(&self) -> &[C64] {
        &self.samples
    }

    /// Mutable view of the samples.
    #[inline]
    pub fn samples_mut(&mut self) -> &mut [C64] {
        &mut self.samples
    }

    /// Consume the signal, returning its sample buffer.
    pub fn into_samples(self) -> Vec<C64> {
        self.samples
    }

    /// Time of sample `i` in seconds.
    #[inline]
    pub fn time_of(&self, i: usize) -> f64 {
        i as f64 / self.sample_rate
    }

    /// Index of time `t` (floor). Times before zero clamp to 0.
    #[inline]
    pub fn index_of(&self, t: f64) -> usize {
        if t <= 0.0 {
            0
        } else {
            (t * self.sample_rate) as usize
        }
    }

    /// Real parts of all samples.
    pub fn re(&self) -> Vec<f64> {
        self.samples.iter().map(|z| z.re).collect()
    }

    /// Imaginary parts of all samples.
    pub fn im(&self) -> Vec<f64> {
        self.samples.iter().map(|z| z.im).collect()
    }

    /// Mean of the samples (DC component).
    pub fn mean(&self) -> C64 {
        if self.samples.is_empty() {
            return C64::default();
        }
        self.samples.iter().sum::<C64>() / self.samples.len() as f64
    }

    /// Average power `Σ|z|²/N`.
    pub fn power(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        norm_sqr(&self.samples) / self.samples.len() as f64
    }

    /// Root-mean-square amplitude.
    pub fn rms(&self) -> f64 {
        self.power().sqrt()
    }

    /// Subtract the DC component in place and return the removed mean.
    pub fn remove_dc(&mut self) -> C64 {
        let m = self.mean();
        for z in &mut self.samples {
            *z -= m;
        }
        m
    }

    /// A copy of samples `[start, start+len)`, zero-padded past the end.
    pub fn window(&self, start: usize, len: usize) -> Vec<C64> {
        (start..start + len)
            .map(|i| self.samples.get(i).copied().unwrap_or_default())
            .collect()
    }

    /// Scale every sample by a complex gain.
    pub fn scale(&mut self, g: C64) {
        for z in &mut self.samples {
            *z *= g;
        }
    }

    /// Add another signal in place, sample-by-sample from offset `at` (in
    /// samples), extending this signal if necessary. Sample rates must match.
    ///
    /// This is the linear-superposition primitive: each LCM pixel's pulse
    /// response is mixed into the received waveform with this call.
    ///
    /// # Panics
    /// Panics if sample rates differ by more than 1 ppm.
    pub fn mix_at(&mut self, at: usize, other: &[C64]) {
        let need = at + other.len();
        if need > self.samples.len() {
            self.samples.resize(need, C64::default());
        }
        for (i, &z) in other.iter().enumerate() {
            self.samples[at + i] += z;
        }
    }

    /// Add an entire signal starting at time zero. Sample rates must match.
    ///
    /// # Panics
    /// Panics if sample rates differ by more than 1 ppm.
    pub fn mix(&mut self, other: &Signal) {
        assert!(
            (self.sample_rate - other.sample_rate).abs() <= 1e-6 * self.sample_rate,
            "mix: sample rate mismatch ({} vs {})",
            self.sample_rate,
            other.sample_rate
        );
        self.mix_at(0, &other.samples);
    }

    /// Normalized mean-square error against a reference of equal length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn nmse(&self, reference: &Signal) -> f64 {
        let denom = norm_sqr(reference.samples()).max(f64::MIN_POSITIVE);
        dist_sqr(self.samples(), reference.samples()) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_timebase() {
        let s = Signal::zeros(40, 40_000.0);
        assert_eq!(s.len(), 40);
        assert!((s.duration() - 1e-3).abs() < 1e-15);
        assert!((s.dt() - 25e-6).abs() < 1e-18);
        assert_eq!(s.index_of(0.5e-3), 20);
        assert!((s.time_of(20) - 0.5e-3).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn rejects_bad_rate() {
        let _ = Signal::zeros(1, 0.0);
    }

    #[test]
    fn power_and_rms() {
        let s = Signal::from_real(&[1.0, -1.0, 1.0, -1.0], 100.0);
        assert!((s.power() - 1.0).abs() < 1e-12);
        assert!((s.rms() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dc_removal() {
        let mut s = Signal::from_real(&[2.0, 4.0], 10.0);
        let m = s.remove_dc();
        assert!((m.re - 3.0).abs() < 1e-12);
        assert!((s.samples()[0].re + 1.0).abs() < 1e-12);
        assert!(s.mean().abs() < 1e-12);
    }

    #[test]
    fn mix_extends_and_superimposes() {
        let mut s = Signal::from_real(&[1.0, 1.0], 10.0);
        s.mix_at(1, &[C64::real(2.0), C64::real(2.0)]);
        assert_eq!(s.len(), 3);
        assert!((s.samples()[0].re - 1.0).abs() < 1e-12);
        assert!((s.samples()[1].re - 3.0).abs() < 1e-12);
        assert!((s.samples()[2].re - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sample rate mismatch")]
    fn mix_rejects_rate_mismatch() {
        let mut a = Signal::zeros(4, 10.0);
        let b = Signal::zeros(4, 20.0);
        a.mix(&b);
    }

    #[test]
    fn window_zero_pads() {
        let s = Signal::from_real(&[1.0, 2.0], 10.0);
        let w = s.window(1, 3);
        assert_eq!(w.len(), 3);
        assert!((w[0].re - 2.0).abs() < 1e-12);
        assert_eq!(w[1], C64::default());
        assert_eq!(w[2], C64::default());
    }

    #[test]
    fn nmse_zero_for_identical() {
        let s = Signal::from_real(&[1.0, 2.0, 3.0], 10.0);
        assert!(s.nmse(&s) < 1e-15);
    }

    #[test]
    fn scale_rotates() {
        let mut s = Signal::from_real(&[1.0], 10.0);
        s.scale(crate::complex::J);
        assert!((s.samples()[0].im - 1.0).abs() < 1e-12);
        assert!(s.samples()[0].re.abs() < 1e-12);
    }
}
