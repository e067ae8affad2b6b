//! Multiple-access extension (§8 "Efficient Multiple Access") and the
//! camera-receiver discussion point (§8 "Photodiode versus Camera").
//!
//! * **Two-tag SIC**: two tags transmit *concurrently* with staggered frame
//!   starts and unequal received power. The reader decodes the strong tag
//!   (the weak one's signal acts as structured interference), re-renders the
//!   decoded frame through the trained model, subtracts it, and decodes the
//!   weak tag from the residual — successive interference cancellation built
//!   entirely from the existing pipeline.
//! * **Camera receiver**: DSM needs sub-millisecond time resolution; a COTS
//!   camera integrates whole exposure windows (16.7 ms at 60 fps), wiping
//!   out the slot structure. The driver quantifies that.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use retroturbo_core::{Modulator, PhyConfig, Receiver, TagModel};
use retroturbo_dsp::noise::{sigma_for_snr, NoiseSource};
use retroturbo_dsp::{Signal, C64};
use retroturbo_lcm::LcParams;

/// Outcome of the two-tag SIC experiment.
#[derive(Debug, Clone, Copy)]
pub struct SicOutcome {
    /// Strong tag's BER decoded against the interference.
    pub strong_ber: f64,
    /// Weak tag's BER decoded from the residual after cancellation.
    pub weak_ber_sic: f64,
    /// Weak tag's BER without cancellation (for contrast).
    pub weak_ber_direct: f64,
}

/// Run concurrent two-tag reception: the strong tag at unit amplitude, the
/// weak at `weak_gain` (< 1), frames offset by `stagger_slots`, AWGN at
/// `snr_db` relative to the strong tag.
pub fn two_tag_sic(
    weak_gain: f64,
    stagger_slots: usize,
    snr_db: f64,
    payload_bytes: usize,
    seed: u64,
) -> SicOutcome {
    let cfg = PhyConfig {
        l_order: 4,
        pqam_order: 4,
        t_slot: 0.5e-3,
        fs: 40_000.0,
        v_memory: 3,
        k_branches: 16,
        preamble_slots: 12,
        training_rounds: 6,
    };
    let params = LcParams::default();
    let model = TagModel::nominal(&cfg, &params);
    let modulator = Modulator::new(cfg);
    let spt = cfg.samples_per_slot();

    let mut rng = StdRng::seed_from_u64(seed);
    let bits_a: Vec<bool> = (0..payload_bytes * 8).map(|_| rng.gen()).collect();
    let bits_b: Vec<bool> = (0..payload_bytes * 8).map(|_| rng.gen()).collect();
    let frame_a = modulator.modulate(&bits_a);
    let frame_b = modulator.modulate(&bits_b);

    // The weak tag sits at a different roll: its constellation is rotated,
    // which SIC handles through each decode's own preamble fit.
    let rot_b = C64::cis(2.0 * 25f64.to_radians()) * weak_gain;
    let wave_a = model.render_levels(&frame_a.levels);
    let wave_b = model.render_levels(&frame_b.levels);

    let total = (frame_a.total_slots() + stagger_slots + frame_b.total_slots()) * spt;
    // Outside its frame each tag still reflects at its rest state (−1−j in
    // its own frame) — dropping that would inject an unphysical DC step
    // into the other tag's packet.
    let rest = C64::new(-1.0, -1.0);
    let off = stagger_slots * spt;
    let mix: Vec<C64> = (0..total)
        .map(|i| {
            let a = if i < wave_a.len() { wave_a[i] } else { rest };
            let yb = if i >= off && i < off + wave_b.len() {
                wave_b[i - off]
            } else {
                rest
            };
            a + rot_b * yb
        })
        .collect();
    let mut noise = NoiseSource::new(seed ^ 0x51C);
    let mut mix_sig = Signal::new(mix, cfg.fs);
    noise.add_awgn(mix_sig.samples_mut(), sigma_for_snr(snr_db, 1.0));

    let receiver = Receiver::new(cfg, &params, 2);
    let ber_of = |bits: &[bool], truth: &[bool]| -> f64 {
        bits.iter().zip(truth).filter(|(a, b)| a != b).count() as f64 / truth.len() as f64
    };
    // Reconstruct a decoded frame's contribution to the mixture: re-render
    // the bits through the model and push the waveform through the frame's
    // *fitted forward channel map* αy + βy* (γ belongs to the other tag's
    // residual DC, so it stays out). Outside the frame the tag rests.
    let reconstruct = |bits: &[bool],
                       ch: &retroturbo_core::preamble::PreambleCorrection,
                       offset: usize,
                       total: usize|
     -> Vec<C64> {
        let frame = modulator.modulate(bits);
        let wave = model.render_levels(&frame.levels);
        let rest = C64::new(-1.0, -1.0);
        (0..total)
            .map(|i| {
                let y = if i >= offset && i < offset + wave.len() {
                    wave[i - offset]
                } else {
                    rest
                };
                ch.alpha * y + ch.beta * y.conj()
            })
            .collect()
    };
    let subtract = |sig: &Signal, contribution: &[C64]| -> Signal {
        let out: Vec<C64> = sig
            .samples()
            .iter()
            .zip(contribution)
            .map(|(s, c)| *s - *c)
            .collect();
        Signal::new(out, sig.sample_rate())
    };
    let n = mix_sig.len();
    let off_b = stagger_slots * spt;

    // Pass 1: strong tag decoded against the weak one's interference.
    let Ok(res_a1) = receiver.receive_at(&mix_sig, 0, bits_a.len(), &[]) else {
        return SicOutcome {
            strong_ber: 1.0,
            weak_ber_sic: 1.0,
            weak_ber_direct: 1.0,
        };
    };

    // Direct decode of the weak tag (no cancellation) for contrast.
    let weak_ber_direct = match receiver.receive_at(&mix_sig, off_b, bits_b.len(), &[]) {
        Ok(r) => ber_of(&r.bits, &bits_b),
        Err(_) => 1.0,
    };

    // Pass 2: subtract Â, decode the weak tag.
    let a_hat1 = reconstruct(&res_a1.bits, &res_a1.channel, 0, n);
    let resid_b = subtract(&mix_sig, &a_hat1);
    let Ok(res_b1) = receiver.receive_at(&resid_b, off_b, bits_b.len(), &[]) else {
        return SicOutcome {
            strong_ber: ber_of(&res_a1.bits, &bits_a),
            weak_ber_sic: 1.0,
            weak_ber_direct,
        };
    };

    // Pass 3 (iterative SIC): subtract B̂ from the original mixture and
    // re-decode the strong tag interference-free…
    let b_hat = reconstruct(&res_b1.bits, &res_b1.channel, off_b, n);
    let resid_a = subtract(&mix_sig, &b_hat);
    let res_a2 = receiver
        .receive_at(&resid_a, 0, bits_a.len(), &[])
        .unwrap_or(res_a1);

    // …then pass 4: subtract the refined Â and re-decode the weak tag.
    let a_hat2 = reconstruct(&res_a2.bits, &res_a2.channel, 0, n);
    let resid_b2 = subtract(&mix_sig, &a_hat2);
    let weak_ber_sic = match receiver.receive_at(&resid_b2, off_b, bits_b.len(), &[]) {
        Ok(r) => ber_of(&r.bits, &bits_b),
        Err(_) => 1.0,
    };

    SicOutcome {
        strong_ber: ber_of(&res_a2.bits, &bits_a),
        weak_ber_sic,
        weak_ber_direct,
    }
}

/// One camera-exposure measurement.
#[derive(Debug, Clone, Copy)]
pub struct CameraPoint {
    /// Camera frame rate, fps.
    pub fps: f64,
    /// Correlation between the true per-slot symbol sequence and the
    /// exposure-integrated samples (1 = information intact, 0 = destroyed).
    pub surviving_variance: f64,
}

/// Quantify §8's camera argument: integrate a DSM waveform over camera
/// exposure windows and measure how much slot-level signal variance
/// survives. Photodiodes sample at 25 µs; a camera at 30–240 fps averages
/// 4–33 ms — tens of slots — per reading.
pub fn camera_exposure_loss(fps_list: &[f64], seed: u64) -> Vec<CameraPoint> {
    let cfg = PhyConfig::default_8kbps();
    let params = LcParams::default();
    let model = TagModel::nominal(&cfg, &params);
    let modulator = Modulator::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let bits: Vec<bool> = (0..4096).map(|_| rng.gen()).collect();
    let frame = modulator.modulate(&bits);
    let wave = model.render_levels(&frame.levels);
    let spt = cfg.samples_per_slot();
    let pay = &wave[frame.payload_start() * spt..];

    // Reference: per-slot means carry the symbol information; their variance
    // is the signal the demodulator lives on.
    let slot_means: Vec<f64> = pay
        .chunks(spt)
        .map(|c| c.iter().map(|z| z.re).sum::<f64>() / c.len() as f64)
        .collect();
    let var = |xs: &[f64]| -> f64 {
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
    };
    let ref_var = var(&slot_means);

    fps_list
        .iter()
        .map(|&fps| {
            let exp_samples = ((cfg.fs / fps).round() as usize).max(1);
            let exposures: Vec<f64> = pay
                .chunks(exp_samples)
                .map(|c| c.iter().map(|z| z.re).sum::<f64>() / c.len() as f64)
                .collect();
            // Upsample exposures back onto the slot grid and measure how
            // much of the slot-level variance they retain.
            let per_slot: Vec<f64> = (0..slot_means.len())
                .map(|s| {
                    let sample = s * spt + spt / 2;
                    exposures[(sample / exp_samples).min(exposures.len() - 1)]
                })
                .collect();
            // Correlation between the true per-slot symbol sequence and what
            // the camera's exposure-integrated samples retain of it.
            let n = slot_means.len() as f64;
            let m1 = slot_means.iter().sum::<f64>() / n;
            let m2 = per_slot.iter().sum::<f64>() / n;
            let cov = slot_means
                .iter()
                .zip(&per_slot)
                .map(|(a, b)| (a - m1) * (b - m2))
                .sum::<f64>()
                / n;
            let corr = cov / (ref_var.sqrt() * var(&per_slot).sqrt()).max(1e-12);
            CameraPoint {
                fps,
                surviving_variance: corr.abs().min(1.0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sic_recovers_the_weak_tag() {
        let o = two_tag_sic(0.06, 40, 58.0, 16, 3);
        assert!(o.strong_ber < 0.02, "strong tag BER {}", o.strong_ber);
        assert!(
            o.weak_ber_direct > 0.05,
            "direct weak decode suspiciously good: {}",
            o.weak_ber_direct
        );
        assert!(
            o.weak_ber_sic < o.weak_ber_direct / 3.0,
            "SIC did not help: {} vs {}",
            o.weak_ber_sic,
            o.weak_ber_direct
        );
    }

    #[test]
    fn camera_integration_destroys_dsm() {
        // 2000 "fps" = one exposure per slot: a photodiode-class receiver.
        let pts = camera_exposure_loss(&[2000.0, 240.0, 60.0, 30.0], 1);
        assert!(
            pts[0].surviving_variance > 0.95,
            "slot-rate sampling should keep the signal: {}",
            pts[0].surviving_variance
        );
        // Real cameras integrate away much of the slot structure… (bound is
        // loose: the exact correlation depends on the random drive sequence)
        assert!(
            pts[1].surviving_variance < 0.85,
            "240fps: {}",
            pts[1].surviving_variance
        );
        assert!(
            pts[3].surviving_variance < 0.4,
            "30fps: {}",
            pts[3].surviving_variance
        );
        // …monotonically with exposure length.
        assert!(pts[0].surviving_variance > pts[1].surviving_variance);
        assert!(pts[1].surviving_variance > pts[3].surviving_variance);
    }
}
