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

/// Per-worker scratch for the allocation-free packet pipeline: the
/// struct-of-arrays panel kernel (snapshot/restore replaces the per-packet
/// panel clone) and the reusable channel buffer the waveform is rendered
/// straight into.
#[derive(Debug, Clone)]
pub struct PacketScratch {
    kernel: PanelKernel,
    rx: Vec<C64>,
}

impl PacketScratch {
    /// Return a buffer (taken by [`LinkSimulator::synth_rx`] into the
    /// produced [`Signal`]) so the next packet reuses its capacity.
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
    /// receiver); `pkt_seed` varies noise and data across packets. The
    /// caller-provided scratch makes this the fused, allocation-free
    /// pipeline [`Self::run_ber`] fans out across workers.
    pub fn run_packet(
        &self,
        scratch: &mut PacketScratch,
        bits: &[bool],
        pkt_seed: u64,
    ) -> PacketOutcome {
        let sig = self.synth_rx(scratch, bits, pkt_seed);
        let out = self.decode(&sig, bits);
        // Hand the channel buffer back to the scratch for the next packet.
        scratch.give_back(sig.into_samples());
        out
    }

    /// Synthesize one packet's received signal (tag ODE → channel → noise)
    /// with the fused pipeline: the kernel renders the waveform directly
    /// into the padded channel buffer, roll rotation and mobility flutter
    /// are applied in place, and noise is added on top — no allocation when
    /// `scratch.rx` is already frame-sized.
    #[doc(hidden)]
    pub fn synth_rx(&self, scratch: &mut PacketScratch, bits: &[bool], pkt_seed: u64) -> Signal {
        let frame = self.modulator.modulate(bits);
        let cmds = frame.drive_commands(&self.cfg);
        let n_wave = frame.total_slots() * self.cfg.samples_per_slot();
        // Tag side: snapshot/restore instead of cloning the pristine panel;
        // the waveform lands straight in the channel buffer.
        self.synth_into(scratch, n_wave, None, pkt_seed, |kernel, wave| {
            kernel.restore();
            kernel.simulate_into(&cmds, self.cfg.fs, wave);
        })
    }

    /// The body [`Self::synth_rx`] and [`Self::synth_rx_renoise`] share:
    /// size the channel buffer to `PAD + n_wave`, fill the guard pad with
    /// the rest level, let `fill` write the clean tag waveform past it,
    /// apply the channel in place and add the noise tail.
    fn synth_into(
        &self,
        scratch: &mut PacketScratch,
        n_wave: usize,
        unit_noise: Option<&[C64]>,
        pkt_seed: u64,
        fill: impl FnOnce(&mut PanelKernel, &mut [C64]),
    ) -> Signal {
        scratch.rx.resize(PAD + n_wave, C64::default());
        scratch.rx[..PAD].fill(self.rest_level());
        fill(&mut scratch.kernel, &mut scratch.rx[PAD..]);
        self.apply_channel(&mut scratch.rx[PAD..], pkt_seed);
        let mut sig = Signal::new(std::mem::take(&mut scratch.rx), self.cfg.fs);
        self.add_channel_noise(&mut sig, unit_noise, pkt_seed);
        sig
    }

    /// Rest-level sample filling the guard interval before the frame.
    #[inline]
    fn rest_level(&self) -> C64 {
        let roll_rot = C64::cis(2.0 * self.scene.orientation.roll);
        // Normalized amplitude after path loss; absolute scale is arbitrary
        // post-AGC, but applying a gain exercises the scale correction.
        roll_rot * C64::new(-1.0, -1.0) * 0.5
    }

    /// Deterministic channel distortion applied to the clean ODE waveform in
    /// place (identical operand order to the reference's push loop:
    /// roll_rot · z · (amp · flutter)). Shared by the fused synthesis and
    /// the cached-render re-noise path so they cannot drift apart.
    fn apply_channel(&self, wave: &mut [C64], pkt_seed: u64) {
        let roll_rot = C64::cis(2.0 * self.scene.orientation.roll);
        let amp = 0.5;
        let (flut_amp, flut_rate) = self.scene.mobility.flutter();
        if flut_amp == 0.0 {
            // Static scene: `1.0 + 0.0·sin(·) == 1.0` and `amp·1.0 == amp`
            // exactly, so skipping the per-sample sine is bit-identical.
            for z in wave.iter_mut() {
                *z = roll_rot * *z * amp;
            }
        } else {
            for (i, z) in wave.iter_mut().enumerate() {
                let t = i as f64 / self.cfg.fs;
                let flutter = 1.0
                    + flut_amp
                        * (2.0 * std::f64::consts::PI * flut_rate * t + (pkt_seed % 17) as f64)
                            .sin();
                *z = roll_rot * *z * (amp * flutter);
            }
        }
    }

    /// Oracle for [`Self::synth_rx`]: the original allocating formulation
    /// through `Panel::simulate_reference`.
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
        let mut sig = Signal::new(samples, cfg.fs);
        self.add_channel_noise(&mut sig, None, pkt_seed);
        sig
    }

    /// Noise tail of every synthesis path: AWGN at the effective SNR, drawn
    /// fresh from the packet's noise stream or, given `unit_noise` (that
    /// same stream pre-drawn at σ = 1 by [`Self::packet_unit_noise`]),
    /// scaled from it. Beyond the retro cutoff nothing comes back but noise.
    fn add_channel_noise(&self, sig: &mut Signal, unit_noise: Option<&[C64]>, pkt_seed: u64) {
        let snr_db = self.effective_snr_db();
        if !snr_db.is_finite() {
            // The tag waveform contributes nothing, cached or live.
            let mut ns = NoiseSource::new(pkt_seed);
            sig.samples_mut().fill(C64::default());
            ns.add_awgn(sig.samples_mut(), 0.05);
            return;
        }
        let sigma = sigma_for_snr(snr_db, 0.5).hypot(self.scene.ambient.residual_noise_sigma());
        match unit_noise {
            Some(unit) => {
                debug_assert_eq!(unit.len(), sig.len(), "unit-noise length mismatch");
                for (z, n) in sig.samples_mut().iter_mut().zip(unit) {
                    *z += C64::new(n.re * sigma, n.im * sigma);
                }
            }
            None => self
                .noise_source(pkt_seed)
                .add_awgn(sig.samples_mut(), sigma),
        }
    }

    /// The packet's channel-noise stream.
    fn noise_source(&self, pkt_seed: u64) -> NoiseSource {
        NoiseSource::new(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(pkt_seed))
    }

    /// Render one packet's *clean* tag-side waveform (the ODE output before
    /// any channel effect): exactly what [`Self::synth_rx`] writes into the
    /// channel buffer past the guard pad. This is the §7.3 cacheable
    /// quantity — it depends only on [`Self::render_fingerprint`] and the
    /// payload, never on SNR, distance, roll, ambient light or mobility.
    pub fn render_clean(&self, scratch: &mut PacketScratch, bits: &[bool]) -> Vec<C64> {
        let frame = self.modulator.modulate(bits);
        let cmds = frame.drive_commands(&self.cfg);
        let mut wave = vec![C64::default(); frame.total_slots() * self.cfg.samples_per_slot()];
        scratch.kernel.restore();
        scratch.kernel.simulate_into(&cmds, self.cfg.fs, &mut wave);
        wave
    }

    /// The unit-variance complex noise stream packet `pkt_seed` sees over a
    /// signal of `PAD + n_wave` samples — the same samples
    /// [`Self::add_channel_noise`] would draw, pre-scaled by σ = 1 so a
    /// cached stream can be re-scaled to any per-point σ bit-identically
    /// (`n·1.0 == n` exactly, and `(n·1.0)·σ == n·σ`).
    pub fn packet_unit_noise(&self, n_wave: usize, pkt_seed: u64) -> Vec<C64> {
        let mut ns = self.noise_source(pkt_seed);
        (0..PAD + n_wave)
            .map(|_| ns.complex_gaussian(1.0))
            .collect()
    }

    /// [`Self::synth_rx`] from a cached clean render and cached unit-noise
    /// stream: re-applies the per-point channel (pad, roll, flutter, gain)
    /// and superimposes the per-point σ on the cached normals instead of
    /// re-integrating the ODE and re-drawing the RNG. Bit-identical to
    /// [`Self::synth_rx`] for matching `(render, noise, pkt_seed)`.
    #[doc(hidden)]
    pub fn synth_rx_renoise(
        &self,
        scratch: &mut PacketScratch,
        clean: &[C64],
        unit_noise: &[C64],
        pkt_seed: u64,
    ) -> Signal {
        self.synth_into(
            scratch,
            clean.len(),
            Some(unit_noise),
            pkt_seed,
            |_, wave| wave.copy_from_slice(clean),
        )
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
    /// with its own [`PacketScratch`], so the steady-state packet loop
    /// performs no per-packet heap allocation. Each packet's payload RNG is
    /// seeded from `(self.seed + 1, packet index)` and its noise stream from
    /// the packet index, so the aggregate BER is bit-for-bit identical at
    /// every thread count.
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

    /// The re-noise fast path must reproduce the fused synthesis
    /// bit-for-bit in every channel regime: static finite-SNR, mobility
    /// flutter, and the beyond-cutoff noise-only branch.
    #[test]
    fn renoise_signal_bit_identical_to_fused_synthesis() {
        let mut flutter_scene = Scene::default_at(7.0);
        flutter_scene.mobility = HumanMobility::ThreeWalkers;
        let scenes = vec![
            Scene::default_at(7.0).with_roll(30.0),
            flutter_scene,
            Scene::default_at(2.0).with_yaw(65.0), // −inf SNR branch
        ];
        for (i, scene) in scenes.into_iter().enumerate() {
            let sim = LinkSimulator::new(small_cfg(), LinkBudget::fov10(), scene, 9 + i as u64);
            let mut scratch = sim.make_scratch();
            for p in 0..2u64 {
                let bits = sim.packet_bits(12, p);
                let clean = sim.render_clean(&mut scratch, &bits);
                let unit = sim.packet_unit_noise(clean.len(), p);
                let live = sim.synth_rx(&mut scratch, &bits, p);
                let mut scratch2 = sim.make_scratch();
                let cached = sim.synth_rx_renoise(&mut scratch2, &clean, &unit, p);
                assert_eq!(live.len(), cached.len(), "scene {i} pkt {p}");
                for (k, (a, b)) in live.samples().iter().zip(cached.samples()).enumerate() {
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits()),
                        "scene {i} pkt {p} sample {k} differs"
                    );
                }
                scratch.give_back(live.into_samples());
            }
        }
    }

    /// The all-scalar pipeline (reference ODE + reference receiver kernels)
    /// reaches the same per-packet decisions as the fused production path.
    #[test]
    fn scalar_reference_packet_matches_fused_outcome() {
        for dist in [4.0, 8.0] {
            let sim =
                LinkSimulator::new(small_cfg(), LinkBudget::fov10(), Scene::default_at(dist), 3);
            let mut scratch = sim.make_scratch();
            for p in 0..2u64 {
                let bits = sim.packet_bits(12, p);
                let fused = sim.run_packet(&mut scratch, &bits, p);
                let scalar = sim.run_packet_scalar_reference(&bits, p);
                assert_eq!(fused.bit_errors, scalar.bit_errors, "{dist} m pkt {p}");
                assert_eq!(fused.detected, scalar.detected, "{dist} m pkt {p}");
                assert_eq!(fused.snr_db.to_bits(), scalar.snr_db.to_bits());
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
