//! §7.2.2 microbenchmarks: latency decomposition and the tag power model.
//!
//! Latency splits into airtime components (fixed by the frame structure) and
//! processing components (preamble search, online training, DFE
//! demodulation), the latter measured as wall-clock on this machine. The
//! real-time criterion is the paper's: demodulation time below the payload
//! airtime so the pipeline never falls behind.

use crate::power::PowerModel;
use retroturbo_core::{Modulator, PhyConfig, Receiver, TagModel};
use retroturbo_dsp::Signal;
use retroturbo_lcm::LcParams;
use std::time::Instant;

/// Latency breakdown for one configuration.
#[derive(Debug, Clone)]
pub struct LatencyReport {
    /// Configuration label.
    pub label: String,
    /// Preamble airtime, seconds.
    pub preamble_air_s: f64,
    /// Online-training pilot airtime, seconds.
    pub training_air_s: f64,
    /// Payload airtime, seconds.
    pub payload_air_s: f64,
    /// Wall-clock of the preamble search over the poll window, seconds.
    pub detect_cpu_s: f64,
    /// Wall-clock of online training, seconds.
    pub train_cpu_s: f64,
    /// Wall-clock of DFE demodulation, seconds.
    pub demod_cpu_s: f64,
    /// Preamble-search throughput: polled slots per CPU second.
    pub detect_sym_per_s: f64,
    /// Training throughput: pilot slots fitted per CPU second.
    pub train_sym_per_s: f64,
    /// Demodulation throughput: payload symbols equalized per CPU second.
    pub demod_sym_per_s: f64,
    /// Real-time capable: demod wall-clock < payload airtime.
    pub real_time: bool,
}

/// Measure the latency breakdown of transmitting and receiving one
/// `payload_bytes` packet at `cfg`.
pub fn latency_report(
    label: &str,
    cfg: PhyConfig,
    payload_bytes: usize,
    seed: u64,
) -> LatencyReport {
    let params = LcParams::default();
    let modulator = Modulator::new(cfg);
    let model = TagModel::nominal(&cfg, &params);
    let receiver = Receiver::new(cfg, &params, 3);

    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let bits: Vec<bool> = (0..payload_bytes * 8).map(|_| rng.gen()).collect();
    let frame = modulator.modulate(&bits);
    let wave = model.render_levels(&frame.levels);
    let sig = Signal::new(wave, cfg.fs);

    // Detection over a realistic ±poll window.
    let t0 = Instant::now();
    let _ = receiver.receive_window(&sig, 0, 2 * cfg.samples_per_slot(), bits.len());
    let total = t0.elapsed().as_secs_f64();

    // Isolate training and demod by timing reduced pipelines.
    let t1 = Instant::now();
    let mut rx_no_train = Receiver::new(cfg, &params, 3);
    rx_no_train.online_training = false;
    let build = t1.elapsed();
    let _ = build;
    let t2 = Instant::now();
    let _ = rx_no_train.receive_at(&sig, 0, bits.len(), &[]);
    let no_train = t2.elapsed().as_secs_f64();

    // Demod-only estimate: equalizer run alone.
    let eq = retroturbo_core::Equalizer::new(cfg);
    let known = &frame.levels[..frame.payload_start()];
    let t3 = Instant::now();
    let _ = eq.equalize(
        &sig.samples()[..(frame.payload_start() + frame.payload_slots) * cfg.samples_per_slot()],
        &model,
        known,
        frame.payload_slots,
    );
    let demod = t3.elapsed().as_secs_f64();

    let train_cpu = (total - no_train).max(0.0);
    let detect_cpu = (no_train - demod).max(0.0);
    let payload_air = frame.payload_slots as f64 * cfg.t_slot;
    // Per-stage throughput in symbols (slots) processed per CPU second; the
    // receiver keeps real time when each stage's throughput exceeds the
    // on-air symbol rate 1/t_slot.
    let per_s = |n_slots: usize, cpu_s: f64| {
        if cpu_s > 0.0 {
            n_slots as f64 / cpu_s
        } else {
            f64::INFINITY // stage too fast to resolve against the timer
        }
    };
    let training_slots = cfg.training_rounds * cfg.l_order;
    LatencyReport {
        label: label.into(),
        preamble_air_s: cfg.preamble_slots as f64 * cfg.t_slot,
        training_air_s: training_slots as f64 * cfg.t_slot,
        payload_air_s: payload_air,
        detect_cpu_s: detect_cpu,
        train_cpu_s: train_cpu,
        demod_cpu_s: demod,
        detect_sym_per_s: per_s(cfg.preamble_slots, detect_cpu),
        train_sym_per_s: per_s(training_slots, train_cpu),
        demod_sym_per_s: per_s(frame.payload_slots, demod),
        real_time: demod < payload_air,
    }
}

/// Power rows for the §7.2.2 "Power" microbenchmark.
#[derive(Debug, Clone)]
pub struct PowerRow {
    /// Configuration label.
    pub label: String,
    /// Average tag power, watts.
    pub power_w: f64,
}

/// Tag power at the paper's two experimental rates (should match: same DSM
/// symbol structure ⇒ same switching energy).
pub fn power_table() -> Vec<PowerRow> {
    let model = PowerModel::default();
    [
        ("4kbps", PhyConfig::default_4kbps()),
        ("8kbps", PhyConfig::default_8kbps()),
        ("16kbps", PhyConfig::default_16kbps()),
    ]
    .iter()
    .map(|(label, cfg)| PowerRow {
        label: (*label).into(),
        power_w: model.average_power_w(cfg),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_components_positive_and_real_time() {
        let mut cfg = PhyConfig::default_8kbps();
        cfg.l_order = 4; // keep the test light
        cfg.preamble_slots = 12;
        cfg.training_rounds = 4;
        let r = latency_report("8kbps-lite", cfg, 16, 1);
        assert!(r.preamble_air_s > 0.0 && r.training_air_s > 0.0 && r.payload_air_s > 0.0);
        assert!(r.demod_cpu_s > 0.0);
        // Release-mode demod is comfortably real-time; in debug builds this
        // is not guaranteed, so only check the airtime arithmetic here.
        assert!((r.payload_air_s - 32.0 * 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn power_rate_independent() {
        let rows = power_table();
        assert!((rows[0].power_w - rows[1].power_w).abs() < 1e-9);
        assert!(rows[0].power_w < 1.0e-3, "not sub-mW: {}", rows[0].power_w);
    }
}
