//! Trace-driven emulation (§7.3).
//!
//! The paper's high-order results (Fig. 18) come from replaying reference
//! waveforms with additive white Gaussian noise rather than live hardware —
//! "we collected the reference waveform of symbols, and generated the
//! emulated waveform by superimposing different levels of AWGN". This module
//! is that evaluation path: frames are rendered through the [`TagModel`]
//! (fast, no per-packet ODE integration), AWGN is added at an exact SNR, and
//! the standard receive pipeline decodes them. It also adapts the emulated
//! link to the MAC's [`BitPipe`] for the coding-gain and rate-adaptation
//! studies.

use crate::sweep::CleanPacket;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use retroturbo_core::{params::fp_fold, Modulator, PhyConfig, Receiver, TagModel};
use retroturbo_dsp::noise::{NoiseSource, SnrAwgn};
use retroturbo_dsp::{Signal, C64};
use retroturbo_lcm::LcParams;
use retroturbo_mac::BitPipe;

/// An emulated PHY link at a fixed SNR.
pub struct EmulatedLink {
    cfg: PhyConfig,
    snr: SnrAwgn,
    modulator: Modulator,
    receiver: Receiver,
    model: TagModel,
    noise: NoiseSource,
    seed: u64,
}

impl EmulatedLink {
    /// Build an emulated link at `snr_db` (per the repository SNR
    /// convention, DESIGN.md §3; emulated renders are quoted against
    /// full-scale amplitude 1).
    pub fn new(cfg: PhyConfig, snr_db: f64, seed: u64) -> Self {
        cfg.validate();
        let params = LcParams::default();
        let mut receiver = Receiver::new_cached(cfg, &params, 1);
        // Emulation replays nominal reference waveforms, so per-packet
        // training would only fit noise; keep the pipeline but disable it.
        receiver.online_training = false;
        Self {
            cfg,
            snr: SnrAwgn::new(snr_db, 1.0),
            modulator: Modulator::new(cfg),
            receiver,
            model: TagModel::nominal(&cfg, &params),
            noise: NoiseSource::new(seed),
            seed,
        }
    }

    /// The configured SNR.
    pub fn snr_db(&self) -> f64 {
        self.snr.snr_db()
    }

    /// Change the SNR mid-exchange (models an ambient-light step or a deep
    /// fade while an ARQ exchange is in flight).
    pub fn set_snr_db(&mut self, snr_db: f64) {
        self.snr.set_snr_db(snr_db);
    }

    /// The PHY configuration.
    pub fn config(&self) -> &PhyConfig {
        &self.cfg
    }

    /// Transmit a payload bit vector once; returns the demodulated bits
    /// (None if the preamble was missed).
    pub fn transmit_once(&mut self, bits: &[bool]) -> Option<Vec<bool>> {
        let frame = self.modulator.modulate(bits);
        let mut wave = self.model.render_levels(&frame.levels);
        self.snr.add_to(&mut self.noise, &mut wave);
        let sig = Signal::new(wave, self.cfg.fs);
        self.receiver
            .receive_at(&sig, 0, bits.len(), &[])
            .ok()
            .map(|r| r.bits)
    }

    /// Fingerprint of everything shaping this link's clean renders and
    /// noise stream (payloads and unit normals), excluding the SNR — the
    /// sweep engine's cache key for emulated BER-vs-SNR curves, where every
    /// point of a rate's curve re-noises one cached render set.
    pub fn render_fingerprint(&self) -> u64 {
        fp_fold(&[self.cfg.render_fingerprint(), self.seed])
    }

    /// Render the exact packet sequence [`Self::run_ber`] would transmit —
    /// clean [`TagModel`] waves, payload bits, and the unit-variance noise
    /// stream (one persistent source across packets, as the live path
    /// consumes it) — without adding noise, so every SNR point can re-noise
    /// the one cached set via [`Self::run_ber_renoise`].
    pub fn render_packets(
        &self,
        n_packets: usize,
        payload_bytes: usize,
        data_seed: u64,
    ) -> Vec<CleanPacket> {
        let mut rng = StdRng::seed_from_u64(data_seed);
        let mut ns = NoiseSource::new(self.seed);
        (0..n_packets)
            .map(|_| {
                let bits: Vec<bool> = (0..payload_bytes * 8).map(|_| rng.gen()).collect();
                let frame = self.modulator.modulate(&bits);
                let wave = self.model.render_levels(&frame.levels);
                let unit_noise = (0..wave.len()).map(|_| ns.complex_gaussian(1.0)).collect();
                CleanPacket {
                    bits,
                    wave,
                    unit_noise,
                }
            })
            .collect()
    }

    /// [`Self::run_ber`] from a cached render set: superimpose this link's
    /// σ on the cached unit normals (§7.3 verbatim) and decode. Bit-identical
    /// to a fresh `run_ber` with the matching `(seed, data_seed, n, bytes)`.
    pub fn run_ber_renoise(&self, renders: &[CleanPacket]) -> f64 {
        let sigma = self.snr.sigma();
        let mut errs = 0usize;
        let mut total = 0usize;
        for cp in renders {
            let mut wave = cp.wave.clone();
            for (z, n) in wave.iter_mut().zip(&cp.unit_noise) {
                *z += C64::new(n.re * sigma, n.im * sigma);
            }
            let sig = Signal::new(wave, self.cfg.fs);
            match self.receiver.receive_at(&sig, 0, cp.bits.len(), &[]) {
                Ok(r) => errs += r.bits.iter().zip(&cp.bits).filter(|(a, b)| a != b).count(),
                Err(_) => errs += cp.bits.len(),
            }
            total += cp.bits.len();
        }
        errs as f64 / total.max(1) as f64
    }

    /// Emulated BER over `n_packets` random packets of `payload_bytes`.
    pub fn run_ber(&mut self, n_packets: usize, payload_bytes: usize, data_seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(data_seed);
        let mut errs = 0usize;
        let mut total = 0usize;
        for _ in 0..n_packets {
            let bits: Vec<bool> = (0..payload_bytes * 8).map(|_| rng.gen()).collect();
            match self.transmit_once(&bits) {
                Some(out) => {
                    errs += out.iter().zip(&bits).filter(|(a, b)| a != b).count();
                }
                None => errs += bits.len(),
            }
            total += bits.len();
        }
        errs as f64 / total.max(1) as f64
    }

    /// Airtime of one frame carrying `n_bits` payload, seconds (preamble +
    /// training + payload + tail at the slot rate).
    pub fn frame_airtime(&self, n_bits: usize) -> f64 {
        self.receiver.frame_slots(n_bits) as f64 * self.cfg.t_slot
    }
}

impl BitPipe for EmulatedLink {
    fn transmit(&mut self, bits: &[bool]) -> Option<Vec<bool>> {
        self.transmit_once(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn high_snr_error_free() {
        let mut link = EmulatedLink::new(small_cfg(), 50.0, 1);
        assert_eq!(link.run_ber(2, 16, 10), 0.0);
    }

    #[test]
    fn low_snr_fails() {
        let mut link = EmulatedLink::new(small_cfg(), 5.0, 2);
        assert!(link.run_ber(2, 16, 11) > 0.02);
    }

    #[test]
    fn ber_monotone_in_snr() {
        let bers: Vec<f64> = [12.0, 20.0, 32.0]
            .iter()
            .map(|&snr| EmulatedLink::new(small_cfg(), snr, 3).run_ber(3, 16, 12))
            .collect();
        assert!(
            bers[0] >= bers[1] && bers[1] >= bers[2],
            "BER not monotone: {bers:?}"
        );
    }

    /// The §7.3 re-noise path must reproduce the live emulated BER
    /// bit-for-bit at every SNR from one cached render set.
    #[test]
    fn renoise_ber_bit_identical_to_live_run() {
        let renders = EmulatedLink::new(small_cfg(), 0.0, 7).render_packets(3, 16, 42);
        for snr in [12.0, 20.0, 50.0] {
            let mut live = EmulatedLink::new(small_cfg(), snr, 7);
            let cached = EmulatedLink::new(small_cfg(), snr, 7);
            let a = live.run_ber(3, 16, 42);
            let b = cached.run_ber_renoise(&renders);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "snr {snr}: live {a} vs cached {b}"
            );
        }
    }

    #[test]
    fn bitpipe_integration_with_arq() {
        use retroturbo_mac::{stop_and_wait, CodingChoice};
        let mut link = EmulatedLink::new(small_cfg(), 28.0, 4);
        let payload: Vec<u8> = (0..32).map(|i| i as u8).collect();
        let s = stop_and_wait(
            &mut link,
            &payload,
            Some(CodingChoice { n: 64, k: 48 }),
            0x5B,
            10,
        );
        assert!(s.delivered, "ARQ failed over emulated link");
    }

    #[test]
    fn airtime_accounting() {
        let link = EmulatedLink::new(small_cfg(), 30.0, 5);
        // 12 pre + 8 train + 32 payload (128 bits / 4) + 4 tail = 56 slots.
        assert!((link.frame_airtime(128) - 56.0 * 0.5e-3).abs() < 1e-12);
    }
}
