//! Noise generation and SNR bookkeeping.
//!
//! SNR convention (used by every experiment in this repository, see
//! DESIGN.md §3): `SNR_dB = 10·log10(A² / σ²)` where `A` is the full-scale
//! amplitude of a *single fully-switched LCM panel* at the receiver after path
//! loss, and `σ²` is the per-component noise variance of the complex sample
//! (i.e. each of I and Q independently receives N(0, σ²) noise). This mirrors
//! the paper's trace-driven emulation, which superimposes AWGN directly on
//! recorded baseband waveforms (§7.3).

use crate::complex::C64;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Convert a linear power ratio to decibels.
#[inline]
pub fn to_db(x: f64) -> f64 {
    10.0 * x.log10()
}

/// Convert decibels to a linear power ratio.
#[inline]
pub fn from_db(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Per-component noise standard deviation for a given SNR (dB) and signal
/// amplitude `a` (see module docs for the convention).
#[inline]
pub fn sigma_for_snr(snr_db: f64, a: f64) -> f64 {
    (a * a / from_db(snr_db)).sqrt()
}

/// The shared SNR→noise convention for links that superimpose AWGN on a
/// rendered waveform (`EmulatedLink`, `ImpairedLink`, the field channel):
/// a target SNR in dB plus the full-scale signal amplitude `A` it is quoted
/// against. Centralizing the pair keeps every `set_snr_db` site on the one
/// module-level convention (`SNR_dB = 10·log10(A²/σ²)`, per-component σ²)
/// instead of each link re-deriving σ on its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnrAwgn {
    snr_db: f64,
    amplitude: f64,
}

impl SnrAwgn {
    /// Convention for a link whose clean render has full-scale amplitude `a`.
    pub fn new(snr_db: f64, amplitude: f64) -> Self {
        Self { snr_db, amplitude }
    }

    /// Current target SNR, dB.
    #[inline]
    pub fn snr_db(&self) -> f64 {
        self.snr_db
    }

    /// Full-scale amplitude the SNR is quoted against.
    #[inline]
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// Retune the target SNR (the shared body of every `set_snr_db`).
    pub fn set_snr_db(&mut self, snr_db: f64) {
        self.snr_db = snr_db;
    }

    /// Per-component noise deviation realizing the target SNR.
    #[inline]
    pub fn sigma(&self) -> f64 {
        sigma_for_snr(self.snr_db, self.amplitude)
    }
}

/// Deterministic Gaussian noise source.
///
/// Wraps a counter-based RNG seeded explicitly so every experiment run is
/// reproducible; uses the Box–Muller transform (no `rand_distr` in the offline
/// dependency set).
#[derive(Debug, Clone)]
pub struct NoiseSource {
    rng: StdRng,
    cached: Option<f64>,
}

impl NoiseSource {
    /// Create a noise source from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            cached: None,
        }
    }

    /// One standard normal sample.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        // Box–Muller: two uniforms → two normals.
        let u1: f64 = loop {
            let u = self.rng.gen::<f64>();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2: f64 = self.rng.gen::<f64>();
        let r = (-2.0 * u1.ln()).sqrt();
        let t = 2.0 * std::f64::consts::PI * u2;
        self.cached = Some(r * t.sin());
        r * t.cos()
    }

    /// One complex sample with independent N(0, σ²) components.
    pub fn complex_gaussian(&mut self, sigma: f64) -> C64 {
        C64::new(
            self.standard_normal() * sigma,
            self.standard_normal() * sigma,
        )
    }

    /// Add AWGN of per-component deviation `sigma` to a buffer in place.
    pub fn add_awgn(&mut self, x: &mut [C64], sigma: f64) {
        for z in x {
            *z += self.complex_gaussian(sigma);
        }
    }

    /// Add AWGN targeting `snr_db` for full-scale amplitude `a`.
    pub fn add_awgn_snr(&mut self, x: &mut [C64], snr_db: f64, a: f64) {
        self.add_awgn(x, sigma_for_snr(snr_db, a));
    }
}

/// Measure empirical SNR (dB) of a noisy buffer against its clean reference,
/// under the convention above with full-scale amplitude `a`.
pub fn measure_snr(noisy: &[C64], clean: &[C64], a: f64) -> f64 {
    assert_eq!(noisy.len(), clean.len(), "measure_snr: length mismatch");
    let var: f64 = noisy
        .iter()
        .zip(clean)
        .map(|(n, c)| (*n - *c).norm_sqr())
        .sum::<f64>()
        / (2.0 * noisy.len() as f64); // per-component variance
    to_db(a * a / var)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trip() {
        for &db in &[-20.0, 0.0, 13.0, 55.0] {
            assert!((to_db(from_db(db)) - db).abs() < 1e-12);
        }
    }

    #[test]
    fn sigma_formula() {
        // 0 dB with unit amplitude ⇒ σ = 1.
        assert!((sigma_for_snr(0.0, 1.0) - 1.0).abs() < 1e-12);
        // +20 dB ⇒ σ = 0.1.
        assert!((sigma_for_snr(20.0, 1.0) - 0.1).abs() < 1e-12);
    }

    /// Pin the dB→sigma mapping shared by every link's `set_snr_db`:
    /// [`SnrAwgn::sigma`] must stay bit-identical to the historical direct
    /// `sigma_for_snr` calls it replaced, and the mapping itself must stay
    /// on the documented convention.
    #[test]
    fn snr_awgn_pins_db_to_sigma_mapping() {
        for &(db, a) in &[
            (0.0, 1.0),
            (20.0, 1.0),
            (30.0, 1.0),
            (13.7, 0.5),
            (-6.0, 0.5),
            (55.6015, 0.5),
        ] {
            let mut h = SnrAwgn::new(f64::NAN, a);
            h.set_snr_db(db);
            assert_eq!(
                h.sigma().to_bits(),
                sigma_for_snr(db, a).to_bits(),
                "SnrAwgn({db} dB, A={a}) diverged from sigma_for_snr"
            );
        }
        // Anchor absolute values (not just self-consistency): σ = A/10^(dB/20).
        assert!((SnrAwgn::new(0.0, 1.0).sigma() - 1.0).abs() < 1e-15);
        assert!((SnrAwgn::new(20.0, 1.0).sigma() - 0.1).abs() < 1e-15);
        assert!((SnrAwgn::new(20.0, 0.5).sigma() - 0.05).abs() < 1e-15);
        assert!((SnrAwgn::new(-20.0, 1.0).sigma() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = NoiseSource::new(7);
        let mut b = NoiseSource::new(7);
        for _ in 0..100 {
            assert_eq!(a.standard_normal(), b.standard_normal());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseSource::new(1);
        let mut b = NoiseSource::new(2);
        let same = (0..32)
            .filter(|_| a.standard_normal() == b.standard_normal())
            .count();
        assert!(same < 4);
    }

    #[test]
    fn normal_moments() {
        let mut src = NoiseSource::new(42);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| src.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn awgn_hits_target_snr() {
        let clean = vec![C64::real(1.0); 50_000];
        let mut noisy = clean.clone();
        let mut src = NoiseSource::new(3);
        src.add_awgn_snr(&mut noisy, 20.0, 1.0);
        let snr = measure_snr(&noisy, &clean, 1.0);
        assert!((snr - 20.0).abs() < 0.2, "measured {snr} dB");
    }

    #[test]
    fn complex_components_independent() {
        let mut src = NoiseSource::new(9);
        let n = 100_000;
        let mut cross = 0.0;
        for _ in 0..n {
            let z = src.complex_gaussian(1.0);
            cross += z.re * z.im;
        }
        assert!((cross / n as f64).abs() < 0.02);
    }
}
