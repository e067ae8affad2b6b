//! Passband carrier chain: the reader's 455 kHz switching-carrier front end.
//!
//! The RetroTurbo reader does not detect the slow LCM intensity directly —
//! baseband would be swamped by ambient-light variation. Instead the
//! flashlight is switched at 455 kHz and the receiver is a passband chain
//! (§6): band-pass around the carrier, quadrature down-conversion, low-pass
//! and decimation. Ambient light lands at DC/flicker frequencies and is
//! rejected by the band-pass — the mechanism behind the flat ambient-light
//! curve of Fig. 16d.
//!
//! One [`PassbandChain`] models one photodiode channel (a real waveform); the
//! two polarization channels each run their own chain and are then combined
//! into complex baseband samples `z = I + jQ`.

use crate::complex::C64;
use crate::filter::Fir;
use crate::resample::decimate;
use crate::signal::Signal;

/// Parameters of the passband front end.
#[derive(Debug, Clone, Copy)]
pub struct PassbandConfig {
    /// Switching-carrier frequency in Hz (455 kHz in the prototype).
    pub carrier_hz: f64,
    /// Passband ADC sample rate in Hz.
    pub fs: f64,
    /// Integer decimation factor from `fs` down to the baseband rate.
    pub decimation: usize,
    /// Band-pass two-sided bandwidth around the carrier, Hz.
    pub bandwidth_hz: f64,
    /// If true, the carrier is a 0/1 square wave (a switched flashlight);
    /// otherwise a raised sinusoid.
    pub square_carrier: bool,
}

impl Default for PassbandConfig {
    fn default() -> Self {
        Self {
            carrier_hz: 455_000.0,
            fs: 3_640_000.0,
            decimation: 91, // 3.64 MHz / 91 = 40 kHz baseband
            bandwidth_hz: 60_000.0,
            square_carrier: true,
        }
    }
}

impl PassbandConfig {
    /// Baseband sample rate after decimation.
    pub fn baseband_rate(&self) -> f64 {
        self.fs / self.decimation as f64
    }

    /// Carrier value at passband sample `i` for unit drive. The square
    /// carrier is on for the first half of each period, decided from the
    /// sample's phase `i·fc/fs` rather than the sign of a float sine, so a
    /// sample on an exact zero crossing is not flipped by rounding (at the
    /// default 8 samples per period every period has exactly 4 on).
    fn carrier_at(&self, i: usize) -> f64 {
        if self.square_carrier {
            let cycles = i as f64 * (self.carrier_hz / self.fs);
            if cycles - cycles.floor() < 0.5 {
                1.0
            } else {
                0.0
            }
        } else {
            let t = i as f64 * (1.0 / self.fs);
            0.5 * (1.0 + (2.0 * std::f64::consts::PI * self.carrier_hz * t).sin())
        }
    }

    /// Fundamental-component amplitude of the sampled carrier for unit
    /// drive. The raised sinusoid has 1/2. For the square carrier it is the
    /// magnitude of the sampled waveform's Fourier coefficient at the
    /// carrier over 64 periods: `(2/N)/sin(π/N)` for `N` samples per period
    /// (≈ 0.653 at N = 8), not the continuous wave's 2/π.
    pub fn carrier_gain(&self) -> f64 {
        if !self.square_carrier {
            return 0.5;
        }
        let n = (64.0 * self.fs / self.carrier_hz).round() as usize;
        let w = 2.0 * std::f64::consts::PI * self.carrier_hz / self.fs;
        let acc: C64 = (0..n)
            .map(|i| C64::cis(-w * i as f64) * self.carrier_at(i))
            .sum();
        2.0 * acc.abs() / n as f64
    }
}

/// One photodiode channel's passband chain.
#[derive(Debug, Clone)]
pub struct PassbandChain {
    cfg: PassbandConfig,
    bandpass: Fir,
    lowpass: Fir,
}

impl PassbandChain {
    /// Build the chain (designs the two FIR filters).
    pub fn new(cfg: PassbandConfig) -> Self {
        let bandpass = Fir::bandpass(cfg.carrier_hz, cfg.bandwidth_hz, cfg.fs, 257);
        // Post-mix low-pass: keep the modulation bandwidth, reject 2·fc.
        let lowpass = Fir::lowpass(cfg.bandwidth_hz / 2.0, cfg.fs, 257);
        Self {
            cfg,
            bandpass,
            lowpass,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &PassbandConfig {
        &self.cfg
    }

    /// Modulate a non-negative baseband intensity onto the switching carrier,
    /// producing the real passband waveform a photodiode would see (before
    /// ambient light and noise are added).
    ///
    /// `intensity` must be sampled at the *passband* rate; use
    /// [`crate::resample::interpolate`] to get there from baseband.
    pub fn modulate(&self, intensity: &Signal) -> Signal {
        assert!(
            (intensity.sample_rate() - self.cfg.fs).abs() < 1e-3,
            "modulate: intensity must be at the passband rate"
        );
        let out: Vec<C64> = intensity
            .samples()
            .iter()
            .enumerate()
            .map(|(i, z)| C64::real(z.re * self.cfg.carrier_at(i)))
            .collect();
        Signal::new(out, self.cfg.fs)
    }

    /// Recover the baseband intensity from a real passband waveform:
    /// band-pass → coherent quadrature mix → low-pass → envelope → decimate.
    ///
    /// The output is a real-valued signal (in the real component) at
    /// [`PassbandConfig::baseband_rate`], scaled so that a unit input
    /// intensity recovers ≈ 1.0.
    pub fn demodulate(&self, passband: &Signal) -> Signal {
        assert!(
            (passband.sample_rate() - self.cfg.fs).abs() < 1e-3,
            "demodulate: input must be at the passband rate"
        );
        let banded = self.bandpass.filter(passband.samples());
        // Quadrature mix to DC: y[i] = x[i] · e^{-jω t}. Using the complex
        // mixer makes the recovery phase-insensitive (envelope detection).
        let dt = 1.0 / self.cfg.fs;
        let w = 2.0 * std::f64::consts::PI * self.cfg.carrier_hz;
        let mixed: Vec<C64> = banded
            .iter()
            .enumerate()
            .map(|(i, z)| *z * C64::cis(-w * i as f64 * dt))
            .collect();
        let low = self.lowpass.filter(&mixed);
        // |·| recovers the envelope; ×2 undoes the mixing loss, and dividing
        // by the carrier fundamental gain restores unit scale.
        let scale = 2.0 / self.cfg.carrier_gain();
        let env: Vec<C64> = low.iter().map(|z| C64::real(z.abs() * scale)).collect();
        decimate(&Signal::new(env, self.cfg.fs), self.cfg.decimation)
    }
}

/// Combine two recovered photodiode channels into complex baseband samples
/// `z = I + jQ`, truncating to the shorter channel.
pub fn combine_iq(i_ch: &Signal, q_ch: &Signal) -> Signal {
    assert!(
        (i_ch.sample_rate() - q_ch.sample_rate()).abs() < 1e-6,
        "combine_iq: rate mismatch"
    );
    let n = i_ch.len().min(q_ch.len());
    let out: Vec<C64> = (0..n)
        .map(|k| C64::new(i_ch.samples()[k].re, q_ch.samples()[k].re))
        .collect();
    Signal::new(out, i_ch.sample_rate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resample::interpolate;

    /// A small config keeps filter lengths and test time reasonable while
    /// preserving the fs / carrier / decimation ratios of the prototype.
    fn test_cfg() -> PassbandConfig {
        PassbandConfig {
            carrier_hz: 45_500.0,
            fs: 364_000.0,
            decimation: 91, // → 4 kHz baseband
            bandwidth_hz: 8_000.0,
            square_carrier: true,
        }
    }

    fn ramp_intensity(cfg: &PassbandConfig, n_bb: usize) -> Signal {
        // Slow staircase intensity at baseband rate, upsampled to passband.
        let bb: Vec<f64> = (0..n_bb)
            .map(|i| if (i / 32) % 2 == 0 { 1.0 } else { 0.3 })
            .collect();
        let bb_sig = Signal::from_real(&bb, cfg.baseband_rate());
        interpolate(&bb_sig, cfg.decimation)
    }

    #[test]
    fn round_trip_recovers_intensity() {
        let cfg = test_cfg();
        let chain = PassbandChain::new(cfg);
        let intensity = ramp_intensity(&cfg, 128);
        let pass = chain.modulate(&intensity);
        let rec = chain.demodulate(&pass);
        // Compare in the steady middle of each staircase level.
        let hi = rec.samples()[16].re;
        let lo = rec.samples()[48].re;
        assert!((hi - 1.0).abs() < 0.08, "high level {hi}");
        assert!((lo - 0.3).abs() < 0.08, "low level {lo}");
    }

    #[test]
    fn ambient_dc_and_flicker_rejected() {
        let cfg = test_cfg();
        let chain = PassbandChain::new(cfg);
        let intensity = ramp_intensity(&cfg, 128);
        let mut pass = chain.modulate(&intensity);
        // Strong ambient: DC plus 100 Hz flicker, 10× the signal scale.
        let fs = cfg.fs;
        for (i, z) in pass.samples_mut().iter_mut().enumerate() {
            let t = i as f64 / fs;
            z.re += 10.0 + 3.0 * (2.0 * std::f64::consts::PI * 100.0 * t).sin();
        }
        let rec = chain.demodulate(&pass);
        let hi = rec.samples()[16].re;
        let lo = rec.samples()[48].re;
        assert!((hi - 1.0).abs() < 0.1, "high level with ambient {hi}");
        assert!((lo - 0.3).abs() < 0.1, "low level with ambient {lo}");
    }

    #[test]
    fn recovery_is_phase_insensitive() {
        // Shift the carrier phase between modulator and demodulator by
        // delaying the passband signal; envelope detection should not care.
        let cfg = test_cfg();
        let chain = PassbandChain::new(cfg);
        let intensity = ramp_intensity(&cfg, 96);
        let pass = chain.modulate(&intensity);
        let shifted: Vec<C64> = pass.samples()[3..].to_vec();
        let rec = chain.demodulate(&Signal::new(shifted, cfg.fs));
        assert!((rec.samples()[16].re - 1.0).abs() < 0.1);
    }

    #[test]
    fn combine_iq_pairs_channels() {
        let i_ch = Signal::from_real(&[1.0, 2.0, 3.0], 10.0);
        let q_ch = Signal::from_real(&[4.0, 5.0], 10.0);
        let z = combine_iq(&i_ch, &q_ch);
        assert_eq!(z.len(), 2);
        assert_eq!(z.samples()[1], C64::new(2.0, 5.0));
    }

    #[test]
    fn default_config_rates() {
        let cfg = PassbandConfig::default();
        assert!((cfg.baseband_rate() - 40_000.0).abs() < 1e-9);
    }
}
