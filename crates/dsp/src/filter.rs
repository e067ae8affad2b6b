//! FIR and biquad IIR filters.
//!
//! The reader front end needs a band-pass around the 455 kHz switching
//! carrier (to reject ambient-light baseband components, §7.2.1) and a
//! low-pass after quadrature down-conversion. Both are built here from
//! windowed-sinc FIR prototypes; a direct-form-II biquad is also provided for
//! cheap streaming filters.

use crate::complex::C64;
use crate::window::hamming;

/// Finite impulse response filter with real taps, applied to complex samples.
#[derive(Debug, Clone)]
pub struct Fir {
    taps: Vec<f64>,
}

impl Fir {
    /// Build from explicit taps.
    ///
    /// # Panics
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "Fir: empty taps");
        Self { taps }
    }

    /// Windowed-sinc low-pass with cutoff `fc` Hz at sample rate `fs` Hz and
    /// `n` taps (forced odd for a symmetric, linear-phase filter).
    ///
    /// # Panics
    /// Panics unless `0 < fc < fs/2`.
    pub fn lowpass(fc: f64, fs: f64, n: usize) -> Self {
        assert!(fc > 0.0 && fc < fs / 2.0, "lowpass: fc out of (0, fs/2)");
        let n = if n.is_multiple_of(2) { n + 1 } else { n.max(3) };
        let w = hamming(n);
        let mid = (n / 2) as isize;
        let fcn = fc / fs; // normalized cutoff (cycles/sample)
        let mut taps: Vec<f64> = (0..n as isize)
            .map(|i| {
                let k = (i - mid) as f64;
                let sinc = if k == 0.0 {
                    2.0 * fcn
                } else {
                    (2.0 * std::f64::consts::PI * fcn * k).sin() / (std::f64::consts::PI * k)
                };
                sinc * w[i as usize]
            })
            .collect();
        // Normalize DC gain to 1.
        let s: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= s;
        }
        Self { taps }
    }

    /// Windowed-sinc band-pass centred on `f0` with two-sided bandwidth `bw`.
    ///
    /// # Panics
    /// Panics if the band does not fit in `(0, fs/2)`.
    pub fn bandpass(f0: f64, bw: f64, fs: f64, n: usize) -> Self {
        let lo = f0 - bw / 2.0;
        let hi = f0 + bw / 2.0;
        assert!(lo > 0.0 && hi < fs / 2.0, "bandpass: band out of range");
        let n = if n.is_multiple_of(2) { n + 1 } else { n.max(3) };
        // Modulate a low-pass prototype of cutoff bw/2 up to f0.
        let proto = Self::lowpass(bw / 2.0, fs, n);
        let mid = (n / 2) as f64;
        let taps: Vec<f64> = proto
            .taps
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                // Factor 2 restores unity passband gain after modulation.
                2.0 * t * (2.0 * std::f64::consts::PI * f0 / fs * (i as f64 - mid)).cos()
            })
            .collect();
        Self { taps }
    }

    /// The filter taps.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Group delay in samples (taps are symmetric ⇒ (n−1)/2).
    pub fn group_delay(&self) -> usize {
        (self.taps.len() - 1) / 2
    }

    /// Convolve, returning a signal of the same length as the input
    /// (zero-padded edges, group delay compensated).
    ///
    /// Runs the host's kernel body; the SIMD interior is bit-identical to
    /// the scalar loop, so the output does not depend on the host.
    pub fn filter(&self, x: &[C64]) -> Vec<C64> {
        let mut y = vec![C64::default(); x.len()];
        crate::backend::fir_filter_into(&self.taps, x, self.group_delay(), &mut y);
        y
    }

    /// Magnitude response at frequency `f` (Hz) for sample rate `fs`.
    pub fn response_at(&self, f: f64, fs: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * f / fs;
        let mut acc = C64::default();
        for (k, &t) in self.taps.iter().enumerate() {
            acc += C64::cis(-w * k as f64) * t;
        }
        acc.abs()
    }
}

/// Direct-form-II transposed biquad section with real coefficients,
/// processing complex samples in streaming fashion.
#[derive(Debug, Clone)]
pub struct Biquad {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
    z1: C64,
    z2: C64,
}

impl Biquad {
    /// Construct from normalized coefficients (a0 = 1).
    pub fn new(b0: f64, b1: f64, b2: f64, a1: f64, a2: f64) -> Self {
        Self {
            b0,
            b1,
            b2,
            a1,
            a2,
            z1: C64::default(),
            z2: C64::default(),
        }
    }

    /// RBJ-cookbook low-pass with cutoff `fc`, quality `q`.
    pub fn lowpass(fc: f64, q: f64, fs: f64) -> Self {
        let w0 = 2.0 * std::f64::consts::PI * fc / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Self::new(
            (1.0 - cw) / 2.0 / a0,
            (1.0 - cw) / a0,
            (1.0 - cw) / 2.0 / a0,
            -2.0 * cw / a0,
            (1.0 - alpha) / a0,
        )
    }

    /// RBJ-cookbook band-pass (constant peak gain) centred on `f0`.
    pub fn bandpass(f0: f64, q: f64, fs: f64) -> Self {
        let w0 = 2.0 * std::f64::consts::PI * f0 / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Self::new(
            alpha / a0,
            0.0,
            -alpha / a0,
            -2.0 * cw / a0,
            (1.0 - alpha) / a0,
        )
    }

    /// Process one sample.
    #[inline]
    pub fn step(&mut self, x: C64) -> C64 {
        let y = x * self.b0 + self.z1;
        self.z1 = x * self.b1 - y * self.a1 + self.z2;
        self.z2 = x * self.b2 - y * self.a2;
        y
    }

    /// Process a whole buffer, resetting state first.
    pub fn filter(&mut self, x: &[C64]) -> Vec<C64> {
        self.reset();
        x.iter().map(|&s| self.step(s)).collect()
    }

    /// Clear internal state.
    pub fn reset(&mut self) {
        self.z1 = C64::default();
        self.z2 = C64::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, fs: f64, n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| C64::real((2.0 * std::f64::consts::PI * f * i as f64 / fs).sin()))
            .collect()
    }

    fn rms(x: &[C64]) -> f64 {
        (x.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64).sqrt()
    }

    #[test]
    fn lowpass_passes_low_blocks_high() {
        let fs = 10_000.0;
        let f = Fir::lowpass(1_000.0, fs, 101);
        assert!(f.response_at(100.0, fs) > 0.95);
        assert!(f.response_at(3_000.0, fs) < 0.02);
    }

    #[test]
    fn lowpass_dc_gain_unity() {
        let f = Fir::lowpass(1_000.0, 10_000.0, 65);
        assert!((f.taps().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bandpass_selects_center() {
        let fs = 40_000.0;
        let f = Fir::bandpass(5_000.0, 2_000.0, fs, 201);
        assert!(f.response_at(5_000.0, fs) > 0.9, "center not passed");
        assert!(f.response_at(100.0, fs) < 0.02, "DC leaks");
        assert!(f.response_at(12_000.0, fs) < 0.02, "far band leaks");
    }

    #[test]
    fn fir_filter_attenuates_out_of_band_tone() {
        let fs = 10_000.0;
        let f = Fir::lowpass(500.0, fs, 101);
        let low = f.filter(&tone(100.0, fs, 2_000));
        let high = f.filter(&tone(4_000.0, fs, 2_000));
        // Inspect the steady-state middle to avoid edge transients.
        assert!(rms(&low[500..1500]) > 0.6);
        assert!(rms(&high[500..1500]) < 0.02);
    }

    #[test]
    fn fir_group_delay_compensated() {
        // An impulse should come out centred at its own index.
        let f = Fir::lowpass(1_000.0, 10_000.0, 31);
        let mut x = vec![C64::default(); 64];
        x[32] = C64::real(1.0);
        let y = f.filter(&x);
        let peak = y
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))
            .unwrap()
            .0;
        assert_eq!(peak, 32);
    }

    #[test]
    fn biquad_lowpass_blocks_high_tone() {
        let fs = 10_000.0;
        let mut f = Biquad::lowpass(500.0, 0.707, fs);
        let y_low = f.filter(&tone(50.0, fs, 4_000));
        let y_high = f.filter(&tone(4_500.0, fs, 4_000));
        assert!(rms(&y_low[1000..]) > 0.6);
        assert!(rms(&y_high[1000..]) < 0.02);
    }

    #[test]
    fn biquad_bandpass_rejects_dc() {
        let fs = 40_000.0;
        let mut f = Biquad::bandpass(5_000.0, 2.0, fs);
        let dc = vec![C64::real(1.0); 4_000];
        let y = f.filter(&dc);
        assert!(rms(&y[2000..]) < 1e-3);
    }

    #[test]
    #[should_panic(expected = "fc out of")]
    fn lowpass_rejects_bad_cutoff() {
        let _ = Fir::lowpass(6_000.0, 10_000.0, 11);
    }
}
