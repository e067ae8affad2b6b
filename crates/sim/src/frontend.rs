//! Reader front-end integration: the full passband path.
//!
//! The link simulator normally works at baseband (the paper's emulation does
//! too), justified by the front-end's job being exactly to deliver clean
//! baseband: the flashlight switches at 455 kHz, each photodiode pair sees
//! `carrier × intensity + ambient`, and the band-pass → quadrature mix →
//! decimate chain recovers the intensity envelope while ambient light (DC +
//! mains flicker) falls far out of band (§6, Fig. 16d).
//!
//! This module validates that reduction end-to-end: it takes a frame's
//! baseband polarization waveform, splits it into the two physical
//! photodiode-pair channels, runs each through its own passband chain with
//! injected ambient light, recombines `z = I + jQ`, and hands the result to
//! the standard receiver.

use retroturbo_dsp::carrier::{combine_iq, PassbandChain, PassbandConfig};
use retroturbo_dsp::noise::NoiseSource;
use retroturbo_dsp::resample::interpolate;
use retroturbo_dsp::{Signal, C64};
use retroturbo_runtime::derive_seed;

/// Ambient light injected at the passband: a DC level plus 100 Hz flicker
/// (twice the 50 Hz mains), in units of the signal's full scale.
#[derive(Debug, Clone, Copy)]
pub struct AmbientInjection {
    /// DC level.
    pub dc: f64,
    /// Flicker amplitude.
    pub flicker: f64,
    /// Flicker frequency, Hz.
    pub flicker_hz: f64,
}

impl AmbientInjection {
    /// A bright environment: ambient 20× the signal scale with 30% flicker.
    pub fn bright() -> Self {
        Self {
            dc: 20.0,
            flicker: 6.0,
            flicker_hz: 100.0,
        }
    }

    /// Darkness.
    pub fn none() -> Self {
        Self {
            dc: 0.0,
            flicker: 0.0,
            flicker_hz: 100.0,
        }
    }
}

/// The two-channel passband front end.
pub struct Frontend {
    chain: PassbandChain,
    cfg: PassbandConfig,
}

impl Frontend {
    /// Build with an explicit passband configuration. The decimated rate
    /// must equal the PHY's baseband rate.
    pub fn new(cfg: PassbandConfig) -> Self {
        Self {
            chain: PassbandChain::new(cfg),
            cfg,
        }
    }

    /// Baseband rate after decimation, Hz.
    pub fn baseband_rate(&self) -> f64 {
        self.cfg.baseband_rate()
    }

    /// Carry a baseband polarization waveform through the physical path:
    /// per-channel intensity → 455 kHz carrier → photodiode (+ ambient +
    /// passband noise) → band-pass → down-convert → decimate → recombine.
    ///
    /// The polarization measurement is differential (PDR), so each channel's
    /// value in `baseband` spans [−1, 1]; intensity on a photodiode must be
    /// non-negative and bounded by the fully-open panel, so each channel is
    /// mapped to `(1 + v)/2` **clamped to [0, 1]** before the carrier — an
    /// over-driven input saturates at the front end instead of producing
    /// negative (or super-unity) light — and mapped back after recovery.
    ///
    /// Each channel's receiver noise comes from its own seeded stream
    /// (derived from `seed` and the channel index), so the two physical
    /// photodiode pairs are statistically independent and neither channel's
    /// noise depends on how many draws the other consumed.
    pub fn through(
        &self,
        baseband: &Signal,
        ambient: AmbientInjection,
        passband_noise_sigma: f64,
        seed: u64,
    ) -> Signal {
        let decim = self.cfg.decimation;

        let mut channels = Vec::with_capacity(2);
        for ch in 0..2 {
            let mut noise = NoiseSource::new(derive_seed(seed, ch as u64));
            // Per-channel non-negative intensity at baseband.
            let intensity: Vec<f64> = baseband
                .samples()
                .iter()
                .map(|z| {
                    let v = if ch == 0 { z.re } else { z.im };
                    ((1.0 + v) / 2.0).clamp(0.0, 1.0)
                })
                .collect();
            let up = interpolate(
                &Signal::from_real(&intensity, baseband.sample_rate()),
                decim,
            );
            let mut pass = self.chain.modulate(&up);
            // Ambient + receiver noise live at the passband.
            let fs = self.cfg.fs;
            for (i, z) in pass.samples_mut().iter_mut().enumerate() {
                let t = i as f64 / fs;
                z.re += ambient.dc
                    + ambient.flicker * (2.0 * std::f64::consts::PI * ambient.flicker_hz * t).sin();
                if passband_noise_sigma > 0.0 {
                    z.re += noise.standard_normal() * passband_noise_sigma;
                }
            }
            let rec = self.chain.demodulate(&pass);
            // Back to the signed polarization value.
            let signed: Vec<C64> = rec
                .samples()
                .iter()
                .map(|z| C64::real(2.0 * z.re - 1.0))
                .collect();
            channels.push(Signal::new(signed, rec.sample_rate()));
        }
        combine_iq(&channels[0], &channels[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retroturbo_core::{Modulator, PhyConfig, Receiver, TagModel};
    use retroturbo_lcm::LcParams;

    /// A reduced-rate passband config keeping the prototype's ratios but at
    /// test-friendly sample counts (baseband 40 kHz retained by the PHY via
    /// matching decimation).
    fn test_cfg() -> PassbandConfig {
        PassbandConfig {
            carrier_hz: 120_000.0,
            fs: 960_000.0,
            decimation: 24, // → 40 kHz baseband
            bandwidth_hz: 40_000.0,
            square_carrier: true,
        }
    }

    fn phy() -> PhyConfig {
        PhyConfig {
            l_order: 4,
            pqam_order: 16,
            t_slot: 0.5e-3,
            fs: 40_000.0,
            v_memory: 3,
            k_branches: 8,
            preamble_slots: 12,
            training_rounds: 4,
        }
    }

    #[test]
    fn full_passband_path_decodes() {
        let cfg = phy();
        let fe = Frontend::new(test_cfg());
        assert!((fe.baseband_rate() - cfg.fs).abs() < 1e-6);

        let bits: Vec<bool> = (0..64).map(|i| (i * 7) % 3 == 0).collect();
        let model = TagModel::nominal(&cfg, &LcParams::default());
        let frame = Modulator::new(cfg).modulate(&bits);
        let bb = Signal::new(model.render_levels(&frame.levels), cfg.fs);

        let rx_bb = fe.through(&bb, AmbientInjection::none(), 0.0, 1);
        let mut receiver = Receiver::new(cfg, &LcParams::default(), 2);
        // The chain's filters leave small edge artefacts; relax detection.
        *receiver.detection_threshold_mut() = 0.95;
        let out = receiver
            .receive_window(&rx_bb, 0, 3 * cfg.samples_per_slot(), bits.len())
            .expect("frame lost in the passband chain");
        let errs = out.bits.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert_eq!(errs, 0, "{errs} bit errors through the passband path");
    }

    #[test]
    fn overdriven_input_saturates_instead_of_going_unphysical() {
        // A polarization value outside [−1, 1] (over-driven tag, fitting
        // overshoot) must clip at the photodiode: intensity is bounded by
        // the fully-open panel. Pre-clamp, v = 2.5 produced intensity 1.75
        // and the chain returned ≈ 2.5 — light the front end never saw.
        let fe = Frontend::new(test_cfg());
        let n = 2000;
        let over: Vec<C64> = (0..n).map(|_| C64::new(2.5, -3.0)).collect();
        let out = fe.through(
            &Signal::new(over, 40_000.0),
            AmbientInjection::none(),
            0.0,
            7,
        );
        // Ignore filter edge transients; the steady-state middle must sit at
        // the saturated rails, not beyond them.
        // Allow 1.2 for the filters' ripple — the unclamped defect returned
        // ≈ 2.5.
        let mid = &out.samples()[out.len() / 4..3 * out.len() / 4];
        for z in mid {
            assert!(
                z.re.abs() <= 1.2 && z.im.abs() <= 1.2,
                "unclamped front end leaked {z:?}"
            );
        }
        let mean_re = mid.iter().map(|z| z.re).sum::<f64>() / mid.len() as f64;
        let mean_im = mid.iter().map(|z| z.im).sum::<f64>() / mid.len() as f64;
        assert!((mean_re - 1.0).abs() < 0.15, "I rail at {mean_re}");
        assert!((mean_im + 1.0).abs() < 0.15, "Q rail at {mean_im}");
    }

    #[test]
    fn channel_noise_streams_are_independent_per_channel() {
        // The Q channel's noise must be a pure function of (seed, channel),
        // not a continuation of whatever the I channel consumed. Reproduce
        // the Q path by hand with its derived stream and compare exactly.
        use retroturbo_dsp::resample::interpolate;
        use retroturbo_runtime::derive_seed;
        let cfg = test_cfg();
        let fe = Frontend::new(cfg);
        let n = 800;
        let bb: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64 * 0.11).sin(), 0.4 * (i as f64 * 0.05).cos()))
            .collect();
        let bb = Signal::new(bb, 40_000.0);
        let sigma = 0.3;
        let out = fe.through(&bb, AmbientInjection::none(), sigma, 21);

        let chain = PassbandChain::new(cfg);
        let intensity: Vec<f64> = bb
            .samples()
            .iter()
            .map(|z| ((1.0 + z.im) / 2.0).clamp(0.0, 1.0))
            .collect();
        let up = interpolate(
            &Signal::from_real(&intensity, bb.sample_rate()),
            cfg.decimation,
        );
        let mut pass = chain.modulate(&up);
        let mut noise = NoiseSource::new(derive_seed(21, 1));
        for z in pass.samples_mut() {
            z.re += noise.standard_normal() * sigma;
        }
        let rec = chain.demodulate(&pass);
        for (a, b) in out.samples().iter().zip(rec.samples()) {
            assert!(
                (a.im - (2.0 * b.re - 1.0)).abs() < 1e-12,
                "Q channel noise is not an independent per-channel stream"
            );
        }
    }

    #[test]
    fn bright_ambient_is_rejected() {
        // Ambient 20× the signal with strong 100 Hz flicker: the Fig. 16d
        // mechanism — nothing survives the band-pass, decode stays clean.
        let cfg = phy();
        let fe = Frontend::new(test_cfg());
        let bits: Vec<bool> = (0..48).map(|i| i % 2 == 0).collect();
        let model = TagModel::nominal(&cfg, &LcParams::default());
        let frame = Modulator::new(cfg).modulate(&bits);
        let bb = Signal::new(model.render_levels(&frame.levels), cfg.fs);

        let rx_bb = fe.through(&bb, AmbientInjection::bright(), 0.0, 2);
        let mut receiver = Receiver::new(cfg, &LcParams::default(), 2);
        *receiver.detection_threshold_mut() = 0.95;
        let out = receiver
            .receive_window(&rx_bb, 0, 3 * cfg.samples_per_slot(), bits.len())
            .expect("frame lost under ambient");
        let errs = out.bits.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert_eq!(errs, 0, "{errs} bit errors under 20x ambient");
    }
}
