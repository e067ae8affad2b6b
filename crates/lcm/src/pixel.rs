//! Pixels and binary-weighted pixel banks.
//!
//! The prototype tag (§6) builds each LCM module from 4 pixel groups with
//! area ratio 8:4:2:1, so charging a subset of groups realizes 16 amplitude
//! (ASK) levels per module — the per-axis levels of PQAM. A [`PixelBank`]
//! models one such module: a set of binary-weighted [`LcPixel`]s sharing one
//! back-polarizer angle.

use crate::dynamics::{step, LcParams, LcState};
use retroturbo_optics::PolAngle;

/// One liquid-crystal pixel: dynamics state plus its optical weight.
#[derive(Debug, Clone)]
pub struct LcPixel {
    /// Switching dynamics constants (may vary pixel-to-pixel).
    pub params: LcParams,
    /// Current LC state.
    pub state: LcState,
    /// Optical weight: fraction of the module's area × illumination gain.
    pub weight: f64,
    /// Current drive field.
    pub driven: bool,
}

impl LcPixel {
    /// New pixel at rest with the given weight.
    pub fn new(params: LcParams, weight: f64) -> Self {
        Self {
            params,
            state: LcState::relaxed(),
            weight,
            driven: false,
        }
    }

    /// Advance by `dt` seconds.
    pub fn step(&mut self, dt: f64) {
        self.state = step(&self.params, self.state, self.driven, dt);
    }

    /// Weighted polarization contrast contribution.
    #[inline]
    pub fn output(&self) -> f64 {
        self.weight * self.state.contrast()
    }
}

/// A binary-weighted bank of pixels forming one LCM module (one PAM/ASK
/// transmitter at a fixed polarization angle).
#[derive(Debug, Clone)]
pub struct PixelBank {
    pixels: Vec<LcPixel>,
    /// Back-polarizer angle of this module.
    pub angle: PolAngle,
    /// Amplitude gain of the whole module (area × illumination ×
    /// manufacturing spread) relative to nominal.
    pub gain: f64,
}

impl PixelBank {
    /// Create a bank of `bits` binary-weighted pixels (areas 2^(bits−1):…:1,
    /// normalized to sum 1), supporting `2^bits` drive levels.
    ///
    /// # Panics
    /// Panics if `bits == 0` or `bits > 8`.
    pub fn new(bits: usize, angle: PolAngle, params: LcParams, gain: f64) -> Self {
        assert!((1..=8).contains(&bits), "PixelBank: bits must be 1..=8");
        let total = ((1usize << bits) - 1) as f64;
        let pixels = (0..bits)
            .map(|k| {
                let w = (1usize << (bits - 1 - k)) as f64 / total;
                LcPixel::new(params, w)
            })
            .collect();
        Self {
            pixels,
            angle,
            gain,
        }
    }

    /// Number of weighted pixels (drive bits).
    pub fn bits(&self) -> usize {
        self.pixels.len()
    }

    /// Number of addressable levels (`2^bits`).
    pub fn levels(&self) -> usize {
        1 << self.pixels.len()
    }

    /// Drive the bank to `level ∈ 0..levels()`: charge exactly the weighted
    /// pixels of the binary expansion, discharge the rest, so the steady-state
    /// charged fraction is `level / (levels − 1)`.
    ///
    /// # Panics
    /// Panics if `level >= levels()`.
    pub fn set_level(&mut self, level: usize) {
        assert!(level < self.levels(), "set_level: {level} out of range");
        let bits = self.pixels.len();
        for (k, p) in self.pixels.iter_mut().enumerate() {
            p.driven = (level >> (bits - 1 - k)) & 1 == 1;
        }
    }

    /// Advance all pixels by `dt` seconds.
    pub fn step(&mut self, dt: f64) {
        for p in &mut self.pixels {
            p.step(dt);
        }
    }

    /// Module contrast output in [−1, 1] (weighted sum of pixel contrasts),
    /// scaled by the module gain.
    pub fn output(&self) -> f64 {
        self.gain * self.pixels.iter().map(LcPixel::output).sum::<f64>()
    }

    /// Reset all pixels to the fully relaxed state.
    pub fn reset(&mut self) {
        for p in &mut self.pixels {
            p.state = LcState::relaxed();
            p.driven = false;
        }
    }

    /// Mutable access to an individual pixel (used to inject per-pixel
    /// heterogeneity).
    pub fn pixel_mut(&mut self, k: usize) -> &mut LcPixel {
        &mut self.pixels[k]
    }

    /// Immutable view of the weighted pixels (most-significant first).
    pub fn pixels(&self) -> &[LcPixel] {
        &self.pixels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(bank: &mut PixelBank, secs: f64) {
        let dt = 25e-6;
        let n = (secs / dt) as usize;
        for _ in 0..n {
            bank.step(dt);
        }
    }

    fn bank() -> PixelBank {
        PixelBank::new(4, PolAngle::from_degrees(0.0), LcParams::default(), 1.0)
    }

    #[test]
    fn weights_are_binary_and_normalized() {
        let b = bank();
        let w: Vec<f64> = b.pixels.iter().map(|p| p.weight).collect();
        assert!((w[0] - 8.0 / 15.0).abs() < 1e-12);
        assert!((w[3] - 1.0 / 15.0).abs() < 1e-12);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn steady_levels_are_equally_spaced() {
        // After settling, level ℓ of 16 must give contrast 2·ℓ/15 − 1.
        for level in [0usize, 5, 10, 15] {
            let mut b = bank();
            b.set_level(level);
            settle(&mut b, 20e-3);
            let expect = 2.0 * level as f64 / 15.0 - 1.0;
            assert!(
                (b.output() - expect).abs() < 0.01,
                "level {level}: {} vs {expect}",
                b.output()
            );
        }
    }

    #[test]
    fn gain_scales_output() {
        let mut b = PixelBank::new(2, PolAngle::from_degrees(45.0), LcParams::default(), 0.5);
        b.set_level(3);
        settle(&mut b, 10e-3);
        assert!((b.output() - 0.5).abs() < 0.01);
    }

    #[test]
    fn reset_restores_relaxed() {
        let mut b = bank();
        b.set_level(15);
        settle(&mut b, 3e-3);
        b.reset();
        assert!((b.output() + 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_level() {
        bank().set_level(16);
    }

    #[test]
    fn bank_levels_counts() {
        assert_eq!(bank().levels(), 16);
        assert_eq!(bank().bits(), 4);
    }
}
