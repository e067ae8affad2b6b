//! Deterministic stream synthesis for exercising the decode service.
//!
//! Reuses the loopback-matrix channel recipe (rotation, gain, ambient DC,
//! AWGN) to build per-frame scenes whose ground truth is known, so the
//! service's output can be bit-compared against direct `Receiver` calls
//! on the identical samples. Per-frame noise seeds come from
//! `retroturbo_runtime::derive_seed`, so a stream is a pure function of
//! `(config, run_seed)` regardless of how it is chunked into the ring.

use crate::pipeline::ServiceConfig;
use retroturbo_core::{Modulator, PhyConfig, TagModel};
use retroturbo_dsp::noise::{sigma_for_snr, NoiseSource};
use retroturbo_dsp::C64;
use retroturbo_lcm::LcParams;
use retroturbo_mac::{protect, CodingChoice};

/// One synthesized frame: idle guard, then the channel-distorted waveform,
/// with ground truth attached.
#[derive(Debug, Clone)]
pub struct FrameScene {
    /// `pad` idle samples followed by the frame, channel + noise applied.
    pub samples: Vec<C64>,
    /// The payload the MAC should recover.
    pub payload: Vec<u8>,
    /// The protected bits the PHY should demodulate.
    pub bits: Vec<bool>,
    /// Frame start within `samples` (always the configured pad).
    pub offset: usize,
}

/// Scene generator: PHY + MAC settings plus the loopback channel model.
#[derive(Debug, Clone)]
pub struct Testbed {
    cfg: PhyConfig,
    modulator: Modulator,
    model: TagModel,
    payload_len: usize,
    coding: Option<CodingChoice>,
    scramble_seed: u8,
    /// Channel gain magnitude.
    pub gain: f64,
    /// Polarisation rotation in degrees (doubled in the constellation).
    pub rot_deg: f64,
    /// Ambient-light complex DC offset.
    pub dc: C64,
    /// Idle samples before each frame.
    pub pad: usize,
    /// AWGN level; `f64::INFINITY` for a noiseless channel.
    pub snr_db: f64,
}

impl Testbed {
    /// A testbed over the loopback-matrix channel (0.8 gain, 2×25°
    /// rotation, ambient DC, 40 dB SNR, 177-sample pad).
    pub fn new(
        cfg: PhyConfig,
        payload_len: usize,
        coding: Option<CodingChoice>,
        scramble_seed: u8,
    ) -> Self {
        Self {
            cfg,
            modulator: Modulator::new(cfg),
            model: TagModel::nominal(&cfg, &LcParams::default()),
            payload_len,
            coding,
            scramble_seed,
            gain: 0.8,
            rot_deg: 25.0,
            dc: C64::new(0.12, -0.07),
            pad: 177,
            snr_db: 40.0,
        }
    }

    /// Set the AWGN level (builder style).
    pub fn with_snr(mut self, snr_db: f64) -> Self {
        self.snr_db = snr_db;
        self
    }

    /// The channel response applied to every transmitted sample.
    fn channel(&self, z: C64) -> C64 {
        C64::from_polar(self.gain, (2.0 * self.rot_deg).to_radians()) * z + self.dc
    }

    /// Deterministic per-frame payload: a byte pattern varying with the
    /// frame index so consecutive frames differ.
    pub fn payload_for(&self, frame_index: u64) -> Vec<u8> {
        (0..self.payload_len)
            .map(|i| (i as u64 * 29 + frame_index * 131 + 3) as u8)
            .collect()
    }

    /// Synthesize frame `frame_index` of run `run_seed`: protect, modulate,
    /// render through the tag model, apply the channel, add AWGN seeded by
    /// `derive_seed(run_seed, frame_index)`.
    pub fn frame(&self, frame_index: u64, run_seed: u64) -> FrameScene {
        let payload = self.payload_for(frame_index);
        let bits = protect(&payload, self.coding, self.scramble_seed);
        let frame = self.modulator.modulate(&bits);
        let wave = self.model.render_levels(&frame.levels);

        let mut samples = vec![self.channel(C64::new(-1.0, -1.0)); self.pad];
        samples.extend(wave.iter().map(|&z| self.channel(z)));
        if self.snr_db.is_finite() {
            let seed = retroturbo_runtime::derive_seed(run_seed, frame_index);
            NoiseSource::new(seed).add_awgn(&mut samples, sigma_for_snr(self.snr_db, self.gain));
        }
        FrameScene {
            samples,
            payload,
            bits,
            offset: self.pad,
        }
    }

    /// `n` idle (rest-level) channel samples with no noise — a quiet tail
    /// so the framer can finish scanning the final frame.
    pub fn idle(&self, n: usize) -> Vec<C64> {
        vec![self.channel(C64::new(-1.0, -1.0)); n]
    }

    /// A [`ServiceConfig`] matching this testbed's link parameters.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig::new(self.cfg, self.payload_len, self.coding, self.scramble_seed)
    }

    /// The PHY configuration in use.
    pub fn phy(&self) -> &PhyConfig {
        &self.cfg
    }
}

/// The loopback-matrix PHY configuration at DSM depth `l_order` and PQAM
/// order `pqam_order` (0.5 ms slots at 40 kS/s, 12 preamble slots, 2
/// training rounds).
pub fn loopback_phy(l_order: usize, pqam_order: usize) -> PhyConfig {
    PhyConfig {
        l_order,
        pqam_order,
        t_slot: 0.5e-3,
        fs: 40_000.0,
        v_memory: 3,
        k_branches: 8,
        preamble_slots: 12,
        training_rounds: 2,
    }
}
