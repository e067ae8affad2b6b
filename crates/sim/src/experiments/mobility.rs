//! Mobility extension (§8 "Mobility Support"): BER under in-packet roll
//! drift, with and without decision-directed channel tracking.
//!
//! The paper's preamble correction is one-shot; if the tag rotates *during*
//! a packet the constellation drifts off the corrected frame and long
//! packets fail. The paper sketches re-synchronization as future work; this
//! module implements it as decision-directed gain tracking in the DFE
//! (`Equalizer::with_tracking`) and measures when it starts to matter.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use retroturbo_core::{Modulator, PhyConfig, Receiver, TagModel};
use retroturbo_dsp::noise::{sigma_for_snr, NoiseSource};
use retroturbo_dsp::{Signal, C64};
use retroturbo_lcm::LcParams;
use retroturbo_runtime::par_map_seeded;

/// One drift measurement.
#[derive(Debug, Clone)]
pub struct DriftPoint {
    /// Roll rate, degrees per second.
    pub roll_rate_dps: f64,
    /// Receiver mode.
    pub mode: &'static str,
    /// Measured BER.
    pub ber: f64,
}

/// Sweep roll-drift rates: a tag spinning at `rate` °/s while transmitting
/// `n_packets` packets of `payload_bytes` at `snr_db`.
pub fn drift_sweep(
    rates_dps: &[f64],
    snr_db: f64,
    n_packets: usize,
    payload_bytes: usize,
    seed: u64,
) -> Vec<DriftPoint> {
    let cfg = PhyConfig::default_8kbps();
    let params = LcParams::default();
    let model = TagModel::nominal(&cfg, &params);
    let modulator = Modulator::new(cfg);
    let static_rx = Receiver::new(cfg, &params, 1);
    let tracked_rx = Receiver::new(cfg, &params, 1).with_tracking(3);

    let mut points = Vec::new();
    for &rate in rates_dps {
        for (mode, rx) in [("static", &static_rx), ("tracked", &tracked_rx)] {
            points.push((rate, mode, rx));
        }
    }
    let modulator = &modulator;
    let model = &model;
    par_map_seeded(seed, points, |_, _, (rate, mode, rx)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut noise = NoiseSource::new(seed ^ 0xD01F);
        let mut errs = 0usize;
        let mut total = 0usize;
        for _ in 0..n_packets {
            let bits: Vec<bool> = (0..payload_bytes * 8).map(|_| rng.gen()).collect();
            let frame = modulator.modulate(&bits);
            let wave = model.render_levels(&frame.levels);
            // Roll drift: constellation rotates at 2× the physical rate.
            let w = 2.0 * rate.to_radians();
            let mut rxw: Vec<C64> = wave
                .iter()
                .enumerate()
                .map(|(i, &z)| z * C64::cis(w * i as f64 / cfg.fs))
                .collect();
            noise.add_awgn(&mut rxw, sigma_for_snr(snr_db, 1.0));
            let sig = Signal::new(rxw, cfg.fs);
            match rx.receive_at(&sig, 0, bits.len(), &[]) {
                Ok(r) => errs += r.bits.iter().zip(&bits).filter(|(a, b)| a != b).count(),
                Err(_) => errs += bits.len(),
            }
            total += bits.len();
        }
        DriftPoint {
            roll_rate_dps: rate,
            mode,
            ber: errs as f64 / total.max(1) as f64,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracking_extends_mobility_envelope() {
        // At a drift rate that breaks the static receiver, tracking holds.
        let pts = drift_sweep(&[0.0, 150.0], 40.0, 2, 24, 1);
        let get = |rate: f64, mode: &str| {
            pts.iter()
                .find(|p| p.roll_rate_dps == rate && p.mode == mode)
                .unwrap()
                .ber
        };
        assert!(get(0.0, "static") < 0.01, "static baseline broken");
        assert!(get(150.0, "static") > 0.02, "drift should break static rx");
        assert!(
            get(150.0, "tracked") < get(150.0, "static") / 2.0,
            "tracking should at least halve drift BER ({} vs {})",
            get(150.0, "tracked"),
            get(150.0, "static")
        );
    }
}
