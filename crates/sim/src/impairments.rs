//! Deterministic channel-impairment injection.
//!
//! The trace-driven emulation of §7.3 adds only stationary AWGN, which makes
//! every non-ideality of a real deployment invisible: readers and tags run on
//! independent crystals (sampling-clock drift), the reader front end
//! quantizes and clips (ADC), people walk through the retroreflective beam
//! (burst blockage, the §7.6 mobility study), and ambient light changes
//! mid-frame (SNR ramp). This module composes those faults onto any rendered
//! waveform, seeded and reproducible, and reports *where* the waveform is
//! untrustworthy so the receiver can flag the covered slots as erasures for
//! the Reed–Solomon errors-and-erasures decoder instead of letting them burn
//! the error budget.
//!
//! Every impairment is exactly the identity at zero strength, and the whole
//! chain is a pure function of `(config, input, seed)` — the same properties
//! the deterministic sweep runtime relies on.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use retroturbo_core::{Modulator, PhyConfig, Receiver, TagModel};
use retroturbo_dsp::noise::{sigma_for_snr, NoiseSource, SnrAwgn};
use retroturbo_dsp::resample::sample_at;
use retroturbo_dsp::Signal;
use retroturbo_lcm::LcParams;
use retroturbo_mac::BitPipe;
use retroturbo_runtime::derive_seed;

/// Composable channel faults applied to a rendered waveform, in physical
/// order: sampling-clock error first (the ADC samples a skewed time base),
/// then the mid-frame SNR ramp (light-level change), then burst blockage
/// (something opaque crosses the beam), then ADC quantization + saturation
/// (the last thing that happens to the analog signal).
///
/// [`ImpairmentConfig::none`] is the exact identity: `apply` returns the
/// input bit-for-bit with an all-clear report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairmentConfig {
    /// Sampling-clock frequency error, parts per million. The receiver's
    /// sample `i` is taken at transmitter time `clock_offset + i·(1 + ppm·1e-6)`
    /// via fractional resampling (linear interpolation), not an integer
    /// shift — a 50 ppm error slides a whole sample every 20 000 samples.
    pub clock_ppm: f64,
    /// Static sampling-phase offset in (fractional) samples.
    pub clock_offset: f64,
    /// ADC resolution in bits (`None` = ideal front end, no quantization).
    pub adc_bits: Option<u32>,
    /// ADC full-scale amplitude: per-component values outside
    /// `±adc_full_scale` clip to the rail and are flagged unreliable.
    pub adc_full_scale: f64,
    /// Fraction of samples covered by blockage bursts (0 = no blockage).
    pub blockage_duty: f64,
    /// Length of one blockage burst, in samples.
    pub blockage_len: usize,
    /// Amplitude fraction surviving a blockage (0.0 = opaque).
    pub blockage_depth: f64,
    /// Mid-frame SNR ramp: extra noise whose per-component std grows
    /// linearly from 0 at the frame start to `sigma_for_snr(ramp_end_snr_db,
    /// ramp_amplitude)` at the last sample. `f64::INFINITY` disables it.
    pub ramp_end_snr_db: f64,
    /// Reference amplitude for the ramp's SNR convention (DESIGN.md §3).
    pub ramp_amplitude: f64,
}

impl ImpairmentConfig {
    /// The identity configuration: every fault at zero strength.
    pub fn none() -> Self {
        Self {
            clock_ppm: 0.0,
            clock_offset: 0.0,
            adc_bits: None,
            adc_full_scale: 1.0,
            blockage_duty: 0.0,
            blockage_len: 0,
            blockage_depth: 0.0,
            ramp_end_snr_db: f64::INFINITY,
            ramp_amplitude: 1.0,
        }
    }

    /// Panics if a field is outside its physical range.
    pub fn validate(&self) {
        assert!(
            self.clock_ppm.is_finite() && self.clock_ppm.abs() < 1e6,
            "clock_ppm must be finite and < 1e6"
        );
        assert!(self.clock_offset.is_finite(), "clock_offset must be finite");
        if let Some(b) = self.adc_bits {
            assert!((1..=24).contains(&b), "adc_bits must be in 1..=24");
            assert!(self.adc_full_scale > 0.0, "adc_full_scale must be positive");
        }
        assert!(
            (0.0..=1.0).contains(&self.blockage_duty),
            "blockage_duty must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.blockage_depth),
            "blockage_depth must be in [0, 1]"
        );
        assert!(
            self.blockage_duty == 0.0 || self.blockage_len > 0,
            "blockage_duty > 0 needs blockage_len > 0"
        );
        assert!(
            self.ramp_end_snr_db == f64::INFINITY || self.ramp_end_snr_db.is_finite(),
            "ramp_end_snr_db must be finite or +inf"
        );
        assert!(self.ramp_amplitude > 0.0, "ramp_amplitude must be positive");
    }

    /// True when every fault is at zero strength (apply is the identity).
    pub fn is_identity(&self) -> bool {
        self.clock_ppm == 0.0
            && self.clock_offset == 0.0
            && self.adc_bits.is_none()
            && self.blockage_duty == 0.0
            && self.ramp_end_snr_db == f64::INFINITY
    }

    /// Apply the configured impairments to `sig`. Returns the impaired
    /// waveform (same length and sample rate) and a report with the
    /// per-sample reliability mask. Deterministic in `(self, sig, seed)`.
    pub fn apply(&self, sig: &Signal, seed: u64) -> (Signal, ImpairmentReport) {
        self.validate();
        let n = sig.len();
        let mut report = ImpairmentReport {
            unreliable: vec![false; n],
            blocked_samples: 0,
            saturated_samples: 0,
            resampled: false,
        };
        if self.is_identity() {
            return (sig.clone(), report);
        }
        let mut samples = sig.samples().to_vec();

        // 1. Sampling-clock drift/offset: resample the transmitter's waveform
        //    on the receiver's (skewed) time base.
        if self.clock_ppm != 0.0 || self.clock_offset != 0.0 {
            let rate = 1.0 + self.clock_ppm * 1e-6;
            let src = samples;
            samples = (0..n)
                .map(|i| sample_at(&src, self.clock_offset + i as f64 * rate))
                .collect();
            report.resampled = true;
        }

        // 2. Mid-frame SNR ramp: noise std grows linearly across the frame.
        if self.ramp_end_snr_db.is_finite() && n > 0 {
            let sigma_end = sigma_for_snr(self.ramp_end_snr_db, self.ramp_amplitude);
            let mut noise = NoiseSource::new(derive_seed(seed, 1));
            let denom = (n - 1).max(1) as f64;
            for (i, z) in samples.iter_mut().enumerate() {
                let s = sigma_end * i as f64 / denom;
                z.re += s * noise.standard_normal();
                z.im += s * noise.standard_normal();
            }
        }

        // 3. Burst blockage: seeded opaque (or semi-opaque) windows. Burst
        //    starts are spaced so the expected covered fraction equals
        //    `blockage_duty`; every covered sample is flagged unreliable —
        //    the receiver cannot trust a slot something walked through.
        if self.blockage_duty > 0.0 && self.blockage_len > 0 && n > 0 {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 2));
            let mean_gap =
                self.blockage_len as f64 * (1.0 - self.blockage_duty) / self.blockage_duty;
            let mut i = (rng.gen::<f64>() * 2.0 * mean_gap) as usize;
            while i < n {
                let end = (i + self.blockage_len).min(n);
                for (z, flag) in samples[i..end]
                    .iter_mut()
                    .zip(&mut report.unreliable[i..end])
                {
                    *z *= self.blockage_depth;
                    *flag = true;
                }
                report.blocked_samples += end - i;
                i = end + (rng.gen::<f64>() * 2.0 * mean_gap) as usize + 1;
            }
        }

        // 4. ADC: clip to the rails, then quantize to `adc_bits` levels.
        //    Rail hits are flagged — the true value is unknowable there.
        if let Some(bits) = self.adc_bits {
            let fs = self.adc_full_scale;
            let step = 2.0 * fs / ((1u64 << bits) - 1) as f64;
            for (j, z) in samples.iter_mut().enumerate() {
                let clipped = z.re.abs() > fs || z.im.abs() > fs;
                // Grid anchored at −fs so both rails are code points.
                let q =
                    |v: f64| (-fs + ((v.clamp(-fs, fs) + fs) / step).round() * step).clamp(-fs, fs);
                z.re = q(z.re);
                z.im = q(z.im);
                if clipped {
                    report.saturated_samples += 1;
                    report.unreliable[j] = true;
                }
            }
        }

        (Signal::new(samples, sig.sample_rate()), report)
    }
}

/// What [`ImpairmentConfig::apply`] did to the waveform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImpairmentReport {
    /// Per-sample reliability mask: `true` marks samples whose value the
    /// receiver should not trust (blocked or rail-clipped). Feed this to
    /// `Receiver::receive_at` to turn covered slots into Reed–Solomon
    /// erasures.
    pub unreliable: Vec<bool>,
    /// Samples covered by blockage bursts.
    pub blocked_samples: usize,
    /// Samples that hit an ADC rail.
    pub saturated_samples: usize,
    /// Whether the clock stage actually resampled the waveform.
    pub resampled: bool,
}

/// An emulated PHY link with channel impairments: the AWGN emulation path
/// (§7.3) plus the fault chain above, reporting per-bit reliability so the
/// MAC's errors-and-erasures decode path gets real erasure information.
pub struct ImpairedLink {
    cfg: PhyConfig,
    snr: SnrAwgn,
    impairments: ImpairmentConfig,
    modulator: Modulator,
    receiver: Receiver,
    model: TagModel,
    noise: NoiseSource,
    seed: u64,
    frames_sent: u64,
}

impl ImpairedLink {
    /// Build an impaired link: base AWGN at `snr_db`, then `impairments`
    /// applied per frame with a seed derived from `seed` and the frame index.
    pub fn new(cfg: PhyConfig, snr_db: f64, impairments: ImpairmentConfig, seed: u64) -> Self {
        cfg.validate();
        impairments.validate();
        let params = LcParams::default();
        let mut receiver = Receiver::new(cfg, &params, 1);
        receiver.online_training = false;
        Self {
            cfg,
            snr: SnrAwgn::new(snr_db, 1.0),
            impairments,
            modulator: Modulator::new(cfg),
            receiver,
            model: TagModel::nominal(&cfg, &params),
            noise: NoiseSource::new(derive_seed(seed, 0)),
            seed,
            frames_sent: 0,
        }
    }

    /// The impairment configuration in force.
    pub fn impairments(&self) -> &ImpairmentConfig {
        &self.impairments
    }

    /// The base (pre-impairment) SNR.
    pub fn snr_db(&self) -> f64 {
        self.snr.snr_db()
    }

    /// Change the base SNR mid-exchange (models an ambient-light step; used
    /// by the robustness and graceful-degradation studies). Shares the
    /// dB→σ convention with [`crate::EmulatedLink`] via [`SnrAwgn`].
    pub fn set_snr_db(&mut self, snr_db: f64) {
        self.snr.set_snr_db(snr_db);
    }

    /// Transmit once, returning demodulated bits plus a per-bit reliability
    /// mask (`true` = the bit came from a slot the impairment chain
    /// flagged — treat as an erasure candidate).
    pub fn transmit_once(&mut self, bits: &[bool]) -> Option<(Vec<bool>, Vec<bool>)> {
        let frame = self.modulator.modulate(bits);
        let mut wave = self.model.render_levels(&frame.levels);
        self.snr.add_to(&mut self.noise, &mut wave);
        let sig = Signal::new(wave, self.cfg.fs);
        let frame_seed = derive_seed(self.seed, 1 + self.frames_sent);
        self.frames_sent += 1;
        let (impaired, report) = self.impairments.apply(&sig, frame_seed);
        let r = self
            .receiver
            .receive_at(&impaired, 0, bits.len(), &report.unreliable)
            .ok()?;
        let mask = r.bit_erasures(self.cfg.bits_per_symbol());
        Some((r.bits, mask))
    }
}

impl BitPipe for ImpairedLink {
    fn transmit(&mut self, bits: &[bool]) -> Option<Vec<bool>> {
        self.transmit_once(bits).map(|(b, _)| b)
    }

    fn transmit_with_quality(&mut self, bits: &[bool]) -> Option<(Vec<bool>, Vec<bool>)> {
        self.transmit_once(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retroturbo_dsp::complex::C64;

    fn ramp_signal(n: usize) -> Signal {
        let s: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64 * 0.1).sin(), (i as f64 * 0.07).cos()))
            .collect();
        Signal::new(s, 40_000.0)
    }

    fn small_cfg() -> PhyConfig {
        PhyConfig {
            l_order: 4,
            pqam_order: 16,
            t_slot: 0.5e-3,
            fs: 40_000.0,
            v_memory: 3,
            k_branches: 8,
            preamble_slots: 12,
            training_rounds: 2,
        }
    }

    #[test]
    fn zero_strength_is_exact_identity() {
        let sig = ramp_signal(512);
        let (out, rep) = ImpairmentConfig::none().apply(&sig, 99);
        assert_eq!(out, sig);
        assert!(rep.unreliable.iter().all(|&b| !b));
        assert_eq!(rep.blocked_samples, 0);
        assert_eq!(rep.saturated_samples, 0);
        assert!(!rep.resampled);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let sig = ramp_signal(2048);
        let cfg = ImpairmentConfig {
            clock_ppm: 80.0,
            adc_bits: Some(8),
            blockage_duty: 0.1,
            blockage_len: 64,
            ramp_end_snr_db: 20.0,
            ..ImpairmentConfig::none()
        };
        let a = cfg.apply(&sig, 7);
        let b = cfg.apply(&sig, 7);
        assert_eq!(a, b);
        let c = cfg.apply(&sig, 8);
        assert_ne!(a.0, c.0, "different seeds must draw different noise");
    }

    #[test]
    fn clock_skew_resamples_not_shifts() {
        let sig = ramp_signal(1000);
        let cfg = ImpairmentConfig {
            clock_ppm: 1000.0, // 1e-3: one full sample of slip by i = 1000
            ..ImpairmentConfig::none()
        };
        let (out, rep) = cfg.apply(&sig, 0);
        assert!(rep.resampled);
        // Early samples barely move, late samples approach their neighbour.
        let src = sig.samples();
        let d_early = (out.samples()[1] - src[1]).abs();
        let d_late = (out.samples()[900] - src[900]).abs();
        assert!(
            d_early < d_late,
            "skew must accumulate: {d_early} vs {d_late}"
        );
        // And it is interpolation, not an integer shift: sample 500 sits
        // half-way between src[500] and src[501].
        let expect = src[500] + (src[501] - src[500]) * 0.5;
        assert!((out.samples()[500] - expect).abs() < 1e-12);
    }

    #[test]
    fn adc_quantizes_and_flags_rail_hits() {
        let s: Vec<C64> = vec![C64::new(0.3, -0.2), C64::new(2.0, 0.1), C64::new(-1.7, 0.0)];
        let sig = Signal::new(s, 1.0);
        let cfg = ImpairmentConfig {
            adc_bits: Some(4),
            adc_full_scale: 1.0,
            ..ImpairmentConfig::none()
        };
        let (out, rep) = cfg.apply(&sig, 0);
        assert_eq!(rep.saturated_samples, 2);
        assert_eq!(rep.unreliable, vec![false, true, true]);
        let step = 2.0 / 15.0;
        for z in out.samples() {
            assert!(z.re.abs() <= 1.0 + 1e-12 && z.im.abs() <= 1.0 + 1e-12);
            let k = (z.re + 1.0) / step;
            assert!((k - k.round()).abs() < 1e-9, "off-grid value {}", z.re);
        }
        assert!((out.samples()[1].re - 1.0).abs() < 1e-12, "rail clamp");
    }

    #[test]
    fn blockage_covers_roughly_the_requested_duty() {
        let sig = ramp_signal(40_000);
        let cfg = ImpairmentConfig {
            blockage_duty: 0.2,
            blockage_len: 100,
            ..ImpairmentConfig::none()
        };
        let (out, rep) = cfg.apply(&sig, 42);
        let frac = rep.blocked_samples as f64 / sig.len() as f64;
        assert!(
            (0.1..=0.35).contains(&frac),
            "duty 0.2 produced covered fraction {frac}"
        );
        // Blocked samples are attenuated to depth (0 here) and flagged.
        let first = rep.unreliable.iter().position(|&b| b).unwrap();
        assert_eq!(out.samples()[first], C64::new(0.0, 0.0));
        assert_eq!(
            rep.unreliable.iter().filter(|&&b| b).count(),
            rep.blocked_samples
        );
    }

    #[test]
    fn ramp_noise_grows_toward_frame_end() {
        let sig = Signal::zeros(4000, 40_000.0);
        let cfg = ImpairmentConfig {
            ramp_end_snr_db: 10.0,
            ..ImpairmentConfig::none()
        };
        let (out, _) = cfg.apply(&sig, 5);
        let pow = |r: std::ops::Range<usize>| {
            out.samples()[r.clone()]
                .iter()
                .map(|z| z.norm_sqr())
                .sum::<f64>()
                / r.len() as f64
        };
        assert!(pow(3000..4000) > 10.0 * pow(0..1000));
        assert_eq!(out.samples()[0], C64::new(0.0, 0.0), "ramp starts at zero");
    }

    #[test]
    fn clean_impaired_link_matches_plain_emulation() {
        use crate::emulation::EmulatedLink;
        let payload: Vec<bool> = (0..128).map(|i| i % 3 == 0).collect();
        let mut plain = EmulatedLink::new(small_cfg(), 30.0, 11);
        let mut clean = ImpairedLink::new(small_cfg(), 30.0, ImpairmentConfig::none(), 999);
        let a = plain.transmit_once(&payload).unwrap();
        let (b, mask) = clean.transmit_once(&payload).unwrap();
        // Different noise seeds, but at 30 dB both decode perfectly.
        assert_eq!(a, payload);
        assert_eq!(b, payload);
        assert!(mask.iter().all(|&m| !m), "clean link must not flag bits");
    }

    #[test]
    fn blockage_produces_flagged_bits() {
        let imp = ImpairmentConfig {
            blockage_duty: 0.25,
            blockage_len: 150,
            ..ImpairmentConfig::none()
        };
        let mut link = ImpairedLink::new(small_cfg(), 35.0, imp, 3);
        let payload: Vec<bool> = (0..256).map(|i| i % 5 < 2).collect();
        // Burst placement is random per frame; aggregate a few frames so the
        // assertion does not hinge on one draw landing inside the payload.
        let mut flagged = 0usize;
        for _ in 0..6 {
            if let Some((_, mask)) = link.transmit_once(&payload) {
                flagged += mask.iter().filter(|&&m| m).count();
            }
        }
        assert!(
            flagged > 0,
            "25% blockage over 6 frames should flag at least one payload bit"
        );
    }

    #[test]
    fn arq_recovers_through_blockage_with_erasures() {
        use retroturbo_mac::{stop_and_wait, CodingChoice};
        let imp = ImpairmentConfig {
            blockage_duty: 0.08,
            blockage_len: 150,
            ..ImpairmentConfig::none()
        };
        let mut link = ImpairedLink::new(small_cfg(), 32.0, imp, 17);
        let payload: Vec<u8> = (0..32).map(|i| (i * 7) as u8).collect();
        let s = stop_and_wait(
            &mut link,
            &payload,
            Some(CodingChoice { n: 64, k: 32 }),
            0x5B,
            12,
        );
        assert!(s.delivered, "ARQ over blocked link failed: {s:?}");
        let flagged: usize = s.attempt_info.iter().map(|a| a.erasures_flagged).sum();
        assert!(flagged > 0, "blockage never reached the decoder as flags");
    }
}
