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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn rejects_bad_rate() {
        let _ = Signal::zeros(1, 0.0);
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
