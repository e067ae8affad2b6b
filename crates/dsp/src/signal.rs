//! Discrete-time signal containers.
//!
//! A [`Signal`] is a uniformly sampled complex waveform tagged with its sample
//! rate. The tag is load-bearing: the RetroTurbo pipeline mixes a 3.64 MHz
//! passband stage with a 40 kHz baseband stage, and carrying the rate with the
//! samples turns unit mistakes into loud assertion failures instead of silent
//! garbage.

use crate::complex::C64;

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

    /// Real parts of all samples.
    pub fn re(&self) -> Vec<f64> {
        self.samples.iter().map(|z| z.re).collect()
    }

    /// Imaginary parts of all samples.
    pub fn im(&self) -> Vec<f64> {
        self.samples.iter().map(|z| z.im).collect()
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
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn rejects_bad_rate() {
        let _ = Signal::zeros(1, 0.0);
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
    fn scale_rotates() {
        let mut s = Signal::from_real(&[1.0], 10.0);
        s.scale(crate::complex::J);
        assert!((s.samples()[0].im - 1.0).abs() < 1e-12);
        assert!(s.samples()[0].re.abs() < 1e-12);
    }
}
