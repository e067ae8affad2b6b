//! FIR filters.
//!
//! The reader front end needs a band-pass around the 455 kHz switching
//! carrier (to reject ambient-light baseband components, §7.2.1) and a
//! low-pass after quadrature down-conversion. Both are built here from
//! windowed-sinc FIR prototypes.

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
    /// (zero-padded edges, group delay compensated): `y[i] = Σ_k x[i + d −
    /// k]·taps[k]` with `d` the group delay, out-of-range inputs skipped.
    pub fn filter(&self, x: &[C64]) -> Vec<C64> {
        let n = x.len() as isize;
        let d = self.group_delay() as isize;
        (0..n)
            .map(|i| {
                let mut acc = C64::default();
                for (k, &t) in self.taps.iter().enumerate() {
                    let idx = i + d - k as isize;
                    if idx >= 0 && idx < n {
                        acc += x[idx as usize] * t;
                    }
                }
                acc
            })
            .collect()
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

    /// Magnitude response of `f` at frequency `freq` (Hz) for sample rate
    /// `fs`.
    fn response_at(f: &Fir, freq: f64, fs: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * freq / fs;
        let mut acc = C64::default();
        for (k, &t) in f.taps().iter().enumerate() {
            acc += C64::cis(-w * k as f64) * t;
        }
        acc.abs()
    }

    fn rms(x: &[C64]) -> f64 {
        (x.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64).sqrt()
    }

    #[test]
    fn lowpass_passes_low_blocks_high() {
        let fs = 10_000.0;
        let f = Fir::lowpass(1_000.0, fs, 101);
        assert!(response_at(&f, 100.0, fs) > 0.95);
        assert!(response_at(&f, 3_000.0, fs) < 0.02);
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
        assert!(response_at(&f, 5_000.0, fs) > 0.9, "center not passed");
        assert!(response_at(&f, 100.0, fs) < 0.02, "DC leaks");
        assert!(response_at(&f, 12_000.0, fs) < 0.02, "far band leaks");
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
    #[should_panic(expected = "fc out of")]
    fn lowpass_rejects_bad_cutoff() {
        let _ = Fir::lowpass(6_000.0, 10_000.0, 11);
    }
}
