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
        let sig = self.synth(bits);
        self.receiver
            .receive_at(&sig, 0, bits.len(), &[])
            .ok()
            .map(|r| r.bits)
    }

    /// The received signal of the next packet carrying `bits`: its clean
    /// render re-noised with the next unit normals of this link's own noise
    /// stream, so successive packets consume the stream exactly as
    /// [`Self::run_ber`] does.
    pub(crate) fn synth(&mut self, bits: &[bool]) -> Signal {
        let wave = self.render(bits);
        let unit_noise = unit_normals(&mut self.noise, wave.len());
        self.renoise(wave, &unit_noise)
    }

    /// The receiver every packet of this link is decoded by.
    pub(crate) fn receiver(&self) -> &Receiver {
        &self.receiver
    }

    /// Fingerprint of everything shaping this link's clean renders and
    /// noise stream (payloads and unit normals), excluding the SNR — the
    /// sweep engine's cache key for emulated BER-vs-SNR curves, where every
    /// point of a rate's curve re-noises one cached render set.
    pub fn render_fingerprint(&self) -> u64 {
        fp_fold(&[self.cfg.render_fingerprint(), self.seed])
    }

    /// Render the exact packet sequence [`Self::run_ber`] transmits on a
    /// fresh link — clean [`TagModel`] waves, payload bits, and the
    /// unit-variance noise stream (one persistent source across packets) —
    /// without adding noise, so every SNR point can re-noise the one cached
    /// set via [`Self::run_ber_renoise`].
    pub fn render_packets(
        &self,
        n_packets: usize,
        payload_bytes: usize,
        data_seed: u64,
    ) -> Vec<CleanPacket> {
        self.render_packets_from(
            &mut NoiseSource::new(self.seed),
            n_packets,
            payload_bytes,
            data_seed,
        )
    }

    /// [`Self::render_packets`] drawing the unit normals from `ns`.
    fn render_packets_from(
        &self,
        ns: &mut NoiseSource,
        n_packets: usize,
        payload_bytes: usize,
        data_seed: u64,
    ) -> Vec<CleanPacket> {
        let mut rng = StdRng::seed_from_u64(data_seed);
        (0..n_packets)
            .map(|_| {
                let bits: Vec<bool> = (0..payload_bytes * 8).map(|_| rng.gen()).collect();
                let wave = self.render(&bits);
                let unit_noise = unit_normals(ns, wave.len());
                CleanPacket {
                    bits,
                    wave,
                    unit_noise,
                }
            })
            .collect()
    }

    /// The clean reference waveform of the frame carrying `bits`.
    fn render(&self, bits: &[bool]) -> Vec<C64> {
        self.model
            .render_levels(&self.modulator.modulate(bits).levels)
    }

    /// Superimpose this link's σ on a clean render's unit normals (§7.3
    /// verbatim).
    fn renoise(&self, mut wave: Vec<C64>, unit_noise: &[C64]) -> Signal {
        let sigma = self.snr.sigma();
        for (z, n) in wave.iter_mut().zip(unit_noise) {
            *z += C64::new(n.re * sigma, n.im * sigma);
        }
        Signal::new(wave, self.cfg.fs)
    }

    /// BER of a rendered packet set at this link's SNR: re-noise each
    /// packet and decode it. Bit-identical to [`Self::run_ber`] on a fresh
    /// link with the matching `(seed, data_seed, n, bytes)`.
    pub fn run_ber_renoise(&self, renders: &[CleanPacket]) -> f64 {
        let mut errs = 0usize;
        let mut total = 0usize;
        for cp in renders {
            let sig = self.renoise(cp.wave.clone(), &cp.unit_noise);
            match self.receiver.receive_at(&sig, 0, cp.bits.len(), &[]) {
                Ok(r) => errs += r.bits.iter().zip(&cp.bits).filter(|(a, b)| a != b).count(),
                Err(_) => errs += cp.bits.len(),
            }
            total += cp.bits.len();
        }
        errs as f64 / total.max(1) as f64
    }

    /// Emulated BER over `n_packets` random packets of `payload_bytes`:
    /// the packets are rendered from this link's own noise stream, which
    /// they advance exactly as that many [`Self::transmit_once`] calls
    /// would, then re-noised and decoded by [`Self::run_ber_renoise`].
    pub fn run_ber(&mut self, n_packets: usize, payload_bytes: usize, data_seed: u64) -> f64 {
        let mut noise = self.noise.clone();
        let renders = self.render_packets_from(&mut noise, n_packets, payload_bytes, data_seed);
        self.noise = noise;
        self.run_ber_renoise(&renders)
    }

    /// Airtime of one frame carrying `n_bits` payload, seconds (preamble +
    /// training + payload + tail at the slot rate).
    pub fn frame_airtime(&self, n_bits: usize) -> f64 {
        self.receiver.frame_slots(n_bits) as f64 * self.cfg.t_slot
    }
}

/// The next `n` unit-variance complex normals of `ns`.
fn unit_normals(ns: &mut NoiseSource, n: usize) -> Vec<C64> {
    (0..n).map(|_| ns.complex_gaussian(1.0)).collect()
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

    /// BER of `n` packets sent one at a time through `transmit_once` (the
    /// ARQ figures' `BitPipe` path), payloads drawn as `run_ber` draws them.
    fn transmit_loop(link: &mut EmulatedLink, n: usize, bytes: usize, data_seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(data_seed);
        let (mut errs, mut total) = (0usize, 0usize);
        for _ in 0..n {
            let bits: Vec<bool> = (0..bytes * 8).map(|_| rng.gen()).collect();
            errs += match link.transmit_once(&bits) {
                Some(out) => out.iter().zip(&bits).filter(|(a, b)| a != b).count(),
                None => bits.len(),
            };
            total += bits.len();
        }
        errs as f64 / total.max(1) as f64
    }

    /// The §7.3 re-noise path (Fig. 18a) must reproduce the packet-by-packet
    /// `transmit_once` BER bit-for-bit at every SNR from one cached render
    /// set, and `run_ber` must advance the link's noise stream exactly as
    /// the same packets sent one at a time do.
    #[test]
    fn renoise_ber_bit_identical_to_transmit_once_loop() {
        let renders = EmulatedLink::new(small_cfg(), 0.0, 7).render_packets(3, 16, 42);
        for snr in [12.0, 20.0, 50.0] {
            let mut one_by_one = EmulatedLink::new(small_cfg(), snr, 7);
            let mut batched = EmulatedLink::new(small_cfg(), snr, 7);
            let a = transmit_loop(&mut one_by_one, 3, 16, 42);
            let b = EmulatedLink::new(small_cfg(), snr, 7).run_ber_renoise(&renders);
            let c = batched.run_ber(3, 16, 42);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "snr {snr}: sent {a} vs cached {b}"
            );
            assert_eq!(
                a.to_bits(),
                c.to_bits(),
                "snr {snr}: sent {a} vs run_ber {c}"
            );
            // Both links now sit at the same point of their noise stream.
            let a = transmit_loop(&mut one_by_one, 2, 16, 43);
            let c = batched.run_ber(2, 16, 43);
            assert_eq!(a.to_bits(), c.to_bits(), "snr {snr}: continued {a} vs {c}");
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
