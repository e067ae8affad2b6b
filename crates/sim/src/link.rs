//! The full end-to-end link simulator: tag panel (ODE) → channel → receiver.
//!
//! This is the "real world experiment" path (§7.2): every packet goes
//! through the physical LCM dynamics with per-module heterogeneity, the
//! scene's rotation/yaw/ambient/mobility distortions, the fitted link
//! budget's SNR, and the complete receive pipeline including preamble
//! search, online training and the K-branch DFE.

use crate::link_budget::LinkBudget;
use crate::scene::Scene;
use retroturbo_core::{Modulator, PhyConfig, Receiver, RxError, RxResult};
use retroturbo_dsp::noise::{sigma_for_snr, NoiseSource};
use retroturbo_dsp::{Signal, C64};
use retroturbo_lcm::{Heterogeneity, LcParams, Panel, PanelKernel};
use retroturbo_optics::retro::{yaw_pixel_skew, Retroreflector};

/// Leading rest-level samples before the frame (the reader's poll-response
/// guard interval).
const PAD: usize = 60;

/// Outcome of one simulated packet.
#[derive(Debug, Clone, Copy)]
pub struct PacketOutcome {
    /// Bit errors in the payload (payload length if undetected).
    pub bit_errors: usize,
    /// Payload bits sent.
    pub bits: usize,
    /// Whether the preamble was detected at all.
    pub detected: bool,
    /// The effective SNR the packet experienced, dB.
    pub snr_db: f64,
}

impl PacketOutcome {
    /// Packet BER: `bit_errors / bits`. An undetected packet has
    /// `bit_errors == bits` by construction ([`LinkSimulator::decode`]
    /// counts every payload bit as errored when the preamble is missed), so
    /// its BER is 1.0 without any special case here.
    pub fn ber(&self) -> f64 {
        self.bit_errors as f64 / self.bits.max(1) as f64
    }
}

/// Score one receive attempt against the sent payload: every payload bit
/// counts as errored when the preamble is missed or the frame truncated.
fn score_packet(rx: Result<RxResult, RxError>, bits: &[bool], snr_db: f64) -> PacketOutcome {
    match rx {
        Ok(r) => PacketOutcome {
            bit_errors: r.bits.iter().zip(bits).filter(|(a, b)| a != b).count(),
            bits: bits.len(),
            detected: true,
            snr_db,
        },
        Err(RxError::NoPreamble | RxError::Truncated) => PacketOutcome {
            bit_errors: bits.len(),
            bits: bits.len(),
            detected: false,
            snr_db,
        },
    }
}

/// Per-worker scratch for the packet pipeline: the struct-of-arrays panel
/// kernel (snapshot/restore replaces the per-packet panel clone) and the
/// reusable channel buffer each packet is re-noised into.
#[derive(Debug, Clone)]
pub struct PacketScratch {
    kernel: PanelKernel,
    rx: Vec<C64>,
}

impl PacketScratch {
    /// Return a buffer (taken by [`LinkSimulator::synth_rx_renoise`] into
    /// the produced [`Signal`]) so the next packet reuses its capacity.
    #[doc(hidden)]
    pub fn give_back(&mut self, buf: Vec<C64>) {
        self.rx = buf;
    }
}

/// End-to-end link simulator for one tag–reader pair.
pub struct LinkSimulator {
    cfg: PhyConfig,
    budget: LinkBudget,
    scene: Scene,
    retro: Retroreflector,
    modulator: Modulator,
    receiver: Receiver,
    pristine_panel: Panel,
    seed: u64,
}

impl LinkSimulator {
    /// Build the simulator. `seed` fixes both the tag's manufacturing
    /// heterogeneity and the noise streams.
    pub fn new(cfg: PhyConfig, budget: LinkBudget, scene: Scene, seed: u64) -> Self {
        cfg.validate();
        let params = LcParams::default();
        let mut panel = Panel::retroturbo(
            cfg.l_order,
            cfg.bits_per_module(),
            params,
            Heterogeneity::typical(),
            seed,
        );
        // Yaw skews per-module gains across the aperture (near edge brighter).
        let n = panel.module_count();
        for m in 0..n {
            let skew = yaw_pixel_skew(scene.orientation.yaw, m % cfg.l_order, cfg.l_order);
            panel.module_mut(m).gain *= skew;
        }
        Self {
            cfg,
            budget,
            scene,
            retro: Retroreflector::default(),
            modulator: Modulator::new(cfg),
            // S = 3 retained offline-training bases.
            receiver: Receiver::new_cached(cfg, &params, 3),
            pristine_panel: panel,
            seed,
        }
    }

    /// Override the DFE branch count.
    pub fn with_branches(mut self, k: usize) -> Self {
        self.receiver = self.receiver.with_branches(k);
        self
    }

    /// Disable per-packet online training.
    pub fn without_training(mut self) -> Self {
        self.receiver.online_training = false;
        self
    }

    /// The effective link SNR (dB): budget at distance, minus the yaw gain
    /// penalty. `-inf` beyond the retroreflector cutoff.
    pub fn effective_snr_db(&self) -> f64 {
        let yaw_gain = self.retro.yaw_gain(self.scene.orientation.yaw);
        if yaw_gain <= 0.0 {
            return f64::NEG_INFINITY;
        }
        self.budget.snr_db(self.scene.distance_m) + 10.0 * yaw_gain.log10()
    }

    /// The configuration in use.
    pub fn config(&self) -> &PhyConfig {
        &self.cfg
    }

    /// Fingerprint of everything that shapes this simulator's *clean*
    /// rendered waveforms (the sweep engine's §7.3 cache key): the
    /// waveform-shaping [`PhyConfig`] fields, the payload/noise seed, and
    /// the per-module panel gains (manufacturing heterogeneity × yaw pixel
    /// skew). Two simulators with equal fingerprints produce bit-identical
    /// [`Self::render_clean`] / [`Self::packet_bits`] /
    /// [`Self::packet_unit_noise`] output. Scene roll, distance, ambient
    /// light, mobility flutter and all receiver-side knobs are deliberately
    /// excluded: they act *after* the ODE and are re-applied per grid point
    /// on top of a cached render by [`Self::synth_rx_renoise`].
    pub fn render_fingerprint(&self) -> u64 {
        let mut words = Vec::with_capacity(2 + self.pristine_panel.module_count());
        words.push(self.cfg.render_fingerprint());
        words.push(self.seed);
        for m in 0..self.pristine_panel.module_count() {
            words.push(self.pristine_panel.module(m).gain.to_bits());
        }
        retroturbo_core::params::fp_fold(&words)
    }

    /// The payload bits packet `pkt_index` carries under this simulator's
    /// seed — the exact derivation [`Self::run_ber`] uses, factored out so
    /// cached-render sweeps draw identical payloads.
    pub fn packet_bits(&self, payload_bytes: usize, pkt_index: u64) -> Vec<bool> {
        use rand::rngs::StdRng;
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(retroturbo_runtime::derive_seed(
            self.seed.wrapping_add(1),
            pkt_index,
        ));
        (0..payload_bytes * 8).map(|_| rng.gen()).collect()
    }

    /// Build a per-worker scratch for [`Self::run_packet`] (the panel
    /// kernel snapshot plus the reusable channel buffer).
    pub fn make_scratch(&self) -> PacketScratch {
        PacketScratch {
            kernel: PanelKernel::from_panel(&self.pristine_panel),
            rx: Vec::new(),
        }
    }

    /// Simulate one packet of `bits` payload bits (tag ODE → channel →
    /// receiver); `pkt_seed` varies noise and data across packets. This is
    /// the §7.3 composition the sweep engine caches: [`Self::render_clean`]
    /// and [`Self::packet_unit_noise`], then the re-noise and decode body a
    /// sweep cache hit runs.
    pub fn run_packet(
        &self,
        scratch: &mut PacketScratch,
        bits: &[bool],
        pkt_seed: u64,
    ) -> PacketOutcome {
        let clean = self.render_clean(scratch, bits);
        let unit_noise = self.packet_unit_noise(clean.len(), pkt_seed);
        self.run_renoised(scratch, bits, &clean, &unit_noise, pkt_seed)
    }

    /// The per-packet body every field path shares, live or cached:
    /// re-noise a clean render at this simulator's channel
    /// ([`Self::synth_rx_renoise`]), decode it against `bits`, and hand the
    /// channel buffer back to the scratch for the next packet.
    pub(crate) fn run_renoised(
        &self,
        scratch: &mut PacketScratch,
        bits: &[bool],
        clean: &[C64],
        unit_noise: &[C64],
        pkt_seed: u64,
    ) -> PacketOutcome {
        let sig = self.synth_rx_renoise(scratch, clean, unit_noise, pkt_seed);
        let out = self.decode(&sig, bits);
        scratch.give_back(sig.into_samples());
        out
    }

    /// Oracle for [`Self::synth_rx_renoise`] over a fresh render: the
    /// original allocating formulation through `Panel::simulate_reference`,
    /// drawing its noise live from the packet's stream instead of scaling
    /// pre-drawn unit normals.
    #[doc(hidden)]
    pub fn synth_rx_reference(&self, bits: &[bool], pkt_seed: u64) -> Signal {
        let cfg = &self.cfg;
        let spt = cfg.samples_per_slot();

        // --- Tag side: physical panel simulation. ---
        let frame = self.modulator.modulate(bits);
        let mut panel = self.pristine_panel.clone();
        let cmds = frame.drive_commands(cfg);
        let wave = panel.simulate_reference(&cmds, frame.total_slots() * spt, cfg.fs);

        // --- Channel. ---
        let roll_rot = C64::cis(2.0 * self.scene.orientation.roll);
        let amp = 0.5;
        let rest = roll_rot * C64::new(-1.0, -1.0) * amp;
        let mut samples = vec![rest; PAD];
        let (flut_amp, flut_rate) = self.scene.mobility.flutter();
        for (i, &z) in wave.samples().iter().enumerate() {
            let t = i as f64 / cfg.fs;
            let flutter = 1.0
                + flut_amp
                    * (2.0 * std::f64::consts::PI * flut_rate * t + (pkt_seed % 17) as f64).sin();
            samples.push(roll_rot * z * (amp * flutter));
        }
        match self.noise_sigma() {
            Some(sigma) => self.noise_source(pkt_seed).add_awgn(&mut samples, sigma),
            None => cutoff_noise(&mut samples, pkt_seed),
        }
        Signal::new(samples, cfg.fs)
    }

    /// Per-component σ of the channel noise at the effective SNR, or `None`
    /// beyond the retro cutoff, where nothing comes back but noise.
    fn noise_sigma(&self) -> Option<f64> {
        let snr_db = self.effective_snr_db();
        snr_db
            .is_finite()
            .then(|| sigma_for_snr(snr_db, 0.5).hypot(self.scene.ambient.residual_noise_sigma()))
    }

    /// The packet's channel-noise stream.
    fn noise_source(&self, pkt_seed: u64) -> NoiseSource {
        NoiseSource::new(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(pkt_seed))
    }

    /// Render one packet's *clean* tag-side waveform (the ODE output before
    /// any channel effect). This is the §7.3 cacheable quantity — it
    /// depends only on [`Self::render_fingerprint`] and the payload, never
    /// on SNR, distance, roll, ambient light or mobility.
    pub fn render_clean(&self, scratch: &mut PacketScratch, bits: &[bool]) -> Vec<C64> {
        let frame = self.modulator.modulate(bits);
        let cmds = frame.drive_commands(&self.cfg);
        let mut wave = vec![C64::default(); frame.total_slots() * self.cfg.samples_per_slot()];
        scratch.kernel.restore();
        scratch.kernel.simulate_into(&cmds, self.cfg.fs, &mut wave);
        wave
    }

    /// The unit-variance complex noise stream packet `pkt_seed` sees over a
    /// signal of `PAD + n_wave` samples — the normals
    /// [`Self::synth_rx_reference`] draws live, pre-scaled by σ = 1 so a
    /// cached stream can be re-scaled to any per-point σ bit-identically
    /// (`n·1.0 == n` exactly, and `(n·1.0)·σ == n·σ`).
    pub fn packet_unit_noise(&self, n_wave: usize, pkt_seed: u64) -> Vec<C64> {
        let mut ns = self.noise_source(pkt_seed);
        (0..PAD + n_wave)
            .map(|_| ns.complex_gaussian(1.0))
            .collect()
    }

    /// The received signal of a packet from its clean render and unit-noise
    /// stream: the guard pad at the rest level, then the clean wave through
    /// the per-point channel (roll, flutter, gain), all in the scratch's
    /// reused buffer, plus the per-point σ on the unit normals.
    /// Bit-identical to [`Self::synth_rx_reference`] for a matching
    /// `(bits, pkt_seed)`: the same operand order, `roll_rot · z · (amp ·
    /// flutter)`.
    #[doc(hidden)]
    pub fn synth_rx_renoise(
        &self,
        scratch: &mut PacketScratch,
        clean: &[C64],
        unit_noise: &[C64],
        pkt_seed: u64,
    ) -> Signal {
        debug_assert_eq!(unit_noise.len(), PAD + clean.len(), "unit-noise length");
        let roll_rot = C64::cis(2.0 * self.scene.orientation.roll);
        // Normalized amplitude after path loss; absolute scale is arbitrary
        // post-AGC, but applying a gain exercises the scale correction.
        let amp = 0.5;
        let rx = &mut scratch.rx;
        rx.clear();
        rx.resize(PAD, roll_rot * C64::new(-1.0, -1.0) * amp);
        let (flut_amp, flut_rate) = self.scene.mobility.flutter();
        if flut_amp == 0.0 {
            // Static scene: `1.0 + 0.0·sin(·) == 1.0` and `amp·1.0 == amp`
            // exactly, so skipping the per-sample sine is bit-identical.
            rx.extend(clean.iter().map(|&z| roll_rot * z * amp));
        } else {
            rx.extend(clean.iter().enumerate().map(|(i, &z)| {
                let t = i as f64 / self.cfg.fs;
                let flutter = 1.0
                    + flut_amp
                        * (2.0 * std::f64::consts::PI * flut_rate * t + (pkt_seed % 17) as f64)
                            .sin();
                roll_rot * z * (amp * flutter)
            }));
        }
        match self.noise_sigma() {
            Some(sigma) => {
                for (z, n) in rx.iter_mut().zip(unit_noise) {
                    *z += C64::new(n.re * sigma, n.im * sigma);
                }
            }
            None => cutoff_noise(rx, pkt_seed),
        }
        Signal::new(std::mem::take(rx), self.cfg.fs)
    }

    /// One packet through the end-to-end *scalar* pipeline: the allocating
    /// reference ODE synthesis ([`Self::synth_rx_reference`]) decoded by the
    /// all-reference-kernel receiver path
    /// ([`Receiver::receive_window_reference`]). No cache, no fused loops,
    /// no precomputed Grams — the sweep engine's no-cache oracle, kept
    /// bit-identical in its decisions to the production path by the kernel
    /// pairs' own differential tests. This is the one packet oracle.
    pub fn run_packet_scalar_reference(&self, bits: &[bool], pkt_seed: u64) -> PacketOutcome {
        let sig = self.synth_rx_reference(bits, pkt_seed);
        let rx = self
            .receiver
            .receive_window_reference(&sig, 0, self.search_to(), bits.len());
        score_packet(rx, bits, self.effective_snr_db())
    }

    /// Reader side: search near the known poll time for the frame of
    /// `bits` in `sig` and score the decode against them.
    pub fn decode(&self, sig: &Signal, bits: &[bool]) -> PacketOutcome {
        let rx = self
            .receiver
            .receive_window(sig, 0, self.search_to(), bits.len());
        score_packet(rx, bits, self.effective_snr_db())
    }

    /// End of the preamble search window: the guard pad plus two slots.
    fn search_to(&self) -> usize {
        PAD + 2 * self.cfg.samples_per_slot()
    }

    /// Run `n_packets` packets of `payload_bytes` random payloads and return
    /// the aggregate BER (the paper's per-point protocol: 30 × 128-byte
    /// packets, §7.1).
    ///
    /// Packets run in parallel across `RETROTURBO_THREADS` workers, each
    /// with its own [`PacketScratch`]. Each packet's payload comes from
    /// [`Self::packet_bits`] and its noise stream from the packet index, so
    /// the aggregate BER is bit-for-bit identical at every thread count and
    /// to a sweep that re-noises cached renders of the same packets.
    pub fn run_ber(&mut self, n_packets: usize, payload_bytes: usize) -> f64 {
        let _t = retroturbo_telemetry::span("sweep.run_ber");
        let this = &*self;
        let outcomes = retroturbo_runtime::par_map_seeded_with(
            this.seed.wrapping_add(1),
            (0..n_packets as u64).collect(),
            || this.make_scratch(),
            |scratch, _, _bits_seed, p| {
                // `packet_bits` re-derives `_bits_seed` = derive_seed(seed+1, p);
                // routing through it keeps this loop and the cached-render
                // sweep path on one payload derivation.
                let bits = this.packet_bits(payload_bytes, p);
                this.run_packet(scratch, &bits, p)
            },
        );
        let errs: usize = outcomes.iter().map(|o| o.bit_errors).sum();
        let total: usize = outcomes.iter().map(|o| o.bits).sum();
        retroturbo_telemetry::counter_add("sweep.packets", n_packets as u64);
        retroturbo_telemetry::counter_add("sweep.payload_bits", total as u64);
        retroturbo_telemetry::counter_add("sweep.bit_errors", errs as u64);
        errs as f64 / total.max(1) as f64
    }
}

/// Beyond the retro cutoff the tag waveform contributes nothing: the
/// reader sees σ = 0.05 noise drawn from the packet seed alone.
fn cutoff_noise(samples: &mut [C64], pkt_seed: u64) {
    samples.fill(C64::default());
    NoiseSource::new(pkt_seed).add_awgn(samples, 0.05);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{AmbientLight, HumanMobility};

    fn small_cfg() -> PhyConfig {
        PhyConfig {
            l_order: 4,
            pqam_order: 16,
            t_slot: 0.5e-3,
            fs: 40_000.0,
            v_memory: 3,
            k_branches: 8,
            preamble_slots: 12,
            training_rounds: 6,
        }
    }

    /// The all-scalar pipeline (reference ODE + reference receiver kernels)
    /// reaches the same per-packet decisions as the production composition.
    #[test]
    fn scalar_reference_packet_matches_run_packet() {
        for dist in [4.0, 8.0] {
            let sim =
                LinkSimulator::new(small_cfg(), LinkBudget::fov10(), Scene::default_at(dist), 3);
            let mut scratch = sim.make_scratch();
            for p in 0..2u64 {
                let bits = sim.packet_bits(12, p);
                let prod = sim.run_packet(&mut scratch, &bits, p);
                let scalar = sim.run_packet_scalar_reference(&bits, p);
                assert_eq!(prod.bit_errors, scalar.bit_errors, "{dist} m pkt {p}");
                assert_eq!(prod.detected, scalar.detected, "{dist} m pkt {p}");
                assert_eq!(prod.snr_db.to_bits(), scalar.snr_db.to_bits());
            }
        }
    }

    #[test]
    fn close_range_is_error_free() {
        let mut sim =
            LinkSimulator::new(small_cfg(), LinkBudget::fov10(), Scene::default_at(2.0), 1);
        let ber = sim.run_ber(2, 16);
        assert_eq!(ber, 0.0, "BER {ber} at 2 m");
    }

    #[test]
    fn far_range_fails() {
        let mut sim =
            LinkSimulator::new(small_cfg(), LinkBudget::fov10(), Scene::default_at(30.0), 2);
        let ber = sim.run_ber(2, 16);
        assert!(ber > 0.05, "BER {ber} at 30 m should be high");
    }

    #[test]
    fn roll_does_not_hurt() {
        let mut straight =
            LinkSimulator::new(small_cfg(), LinkBudget::fov10(), Scene::default_at(3.0), 3);
        let mut rolled = LinkSimulator::new(
            small_cfg(),
            LinkBudget::fov10(),
            Scene::default_at(3.0).with_roll(67.0),
            3,
        );
        assert_eq!(straight.run_ber(2, 16), 0.0);
        assert_eq!(rolled.run_ber(2, 16), 0.0, "roll should be free (PQAM)");
    }

    #[test]
    fn extreme_yaw_kills_link() {
        let mut sim = LinkSimulator::new(
            small_cfg(),
            LinkBudget::fov10(),
            Scene::default_at(2.0).with_yaw(65.0),
            4,
        );
        assert_eq!(sim.effective_snr_db(), f64::NEG_INFINITY);
        let ber = sim.run_ber(1, 16);
        assert!(ber > 0.2, "yaw 65° should break the link, BER {ber}");
    }

    #[test]
    fn moderate_yaw_survives_with_training() {
        let mut sim = LinkSimulator::new(
            small_cfg(),
            LinkBudget::fov10(),
            Scene::default_at(2.0).with_yaw(30.0),
            5,
        );
        let ber = sim.run_ber(2, 16);
        assert!(ber < 0.01, "BER {ber} at 30° yaw");
    }

    #[test]
    fn ambient_and_mobility_tolerated() {
        // Ambient light and walking people must not add errors beyond the
        // tag's own (heterogeneity-limited) floor.
        let mut scene = Scene::default_at(3.0);
        scene.ambient = AmbientLight::Day;
        scene.mobility = HumanMobility::ThreeWalkers;
        let mut base =
            LinkSimulator::new(small_cfg(), LinkBudget::fov10(), Scene::default_at(3.0), 6);
        let mut pert = LinkSimulator::new(small_cfg(), LinkBudget::fov10(), scene, 6);
        let ber_base = base.run_ber(3, 16);
        let ber_pert = pert.run_ber(3, 16);
        assert!(
            ber_pert <= ber_base + 0.005,
            "day light + 3 walkers raised BER {ber_base} → {ber_pert}"
        );
    }
}
