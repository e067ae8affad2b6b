//! The full receive pipeline: detect → correct → train → equalize → demap.
//!
//! Mirrors the reader architecture of Fig. 4: the preamble detector
//! time-aligns the frame and undoes rotation/scale/offset (§4.3.1), the
//! online trainer fits per-module reference banks (§4.3.3), and the K-branch
//! DFE decides the payload symbols (§4.3.2).

use crate::constellation::PqamSymbol;
use crate::dfe::Equalizer;
use crate::frame::Modulator;
use crate::params::PhyConfig;
use crate::preamble::{correct, PreambleCorrection, PreambleDetector, PreambleMatch};
use crate::synth::{SlotLevels, TagModel};
use crate::training::{OfflineTraining, OnlineTrainer};
use retroturbo_dsp::Signal;
use retroturbo_lcm::LcParams;
use retroturbo_telemetry as telemetry;

/// Receive-side failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxError {
    /// No preamble cleared the detection threshold.
    NoPreamble,
    /// The signal ends before the payload does.
    Truncated,
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::NoPreamble => write!(f, "preamble not detected"),
            RxError::Truncated => write!(f, "signal shorter than the frame"),
        }
    }
}

impl std::error::Error for RxError {}

/// A successfully received frame.
#[derive(Debug, Clone)]
pub struct RxResult {
    /// Decided payload symbols.
    pub symbols: Vec<PqamSymbol>,
    /// Demapped payload bits (truncated to the requested count).
    pub bits: Vec<bool>,
    /// Per-payload-symbol erasure flags: `true` marks a low-confidence slot
    /// (blocked or saturated span) whose decision should be treated as an
    /// erasure by the outer code rather than trusted as a hard bit. Empty
    /// confidence information decodes to all-`false`.
    pub erasures: Vec<bool>,
    /// Detected frame start (sample offset into the input signal).
    pub offset: usize,
    /// Preamble detection score at the match (unexplained-variance
    /// fraction; ~0 clean, → 1 noise).
    pub preamble_residual: f64,
    /// The fitted channel map (received ≈ α·reference + β·reference* + γ) —
    /// exposed so callers can reconstruct this frame's contribution to a
    /// multi-tag mixture (successive interference cancellation).
    pub channel: PreambleCorrection,
}

impl RxResult {
    /// [`Self::erasures`] expanded to one flag per demapped bit: bit `j`
    /// is an erasure iff its symbol `j / bits_per_symbol` is. This is the
    /// per-bit mask `recover_with_quality` takes.
    pub fn bit_erasures(&self, bits_per_symbol: usize) -> Vec<bool> {
        (0..self.bits.len())
            .map(|j| {
                self.erasures
                    .get(j / bits_per_symbol)
                    .copied()
                    .unwrap_or(false)
            })
            .collect()
    }
}

/// The RetroTurbo receiver.
#[derive(Debug, Clone)]
pub struct Receiver {
    cfg: PhyConfig,
    modulator: Modulator,
    detector: PreambleDetector,
    trainer: OnlineTrainer,
    nominal: TagModel,
    equalizer: Equalizer,
    /// The known prefix of every frame: preamble, then training levels.
    known: Vec<SlotLevels>,
    /// Run per-packet online training (disable to measure its value, as the
    /// yaw experiment of Fig. 16c does).
    pub online_training: bool,
}

impl Receiver {
    /// Build a receiver: collects the nominal model, offline-training bases
    /// (with `s` retained components) and the preamble reference.
    pub fn new(cfg: PhyConfig, nominal_params: &LcParams, s: usize) -> Self {
        cfg.validate();
        let nominal = TagModel::nominal(&cfg, nominal_params);
        let detector = PreambleDetector::new(&cfg, &nominal);
        let offline = OfflineTraining::collect(
            &cfg,
            nominal_params,
            &OfflineTraining::default_variants(nominal_params),
            s,
        );
        let trainer = OnlineTrainer::new(cfg, &offline);
        Self {
            cfg,
            modulator: Modulator::new(cfg),
            detector,
            trainer,
            nominal,
            equalizer: Equalizer::new(cfg),
            known: OnlineTrainer::known_levels(&cfg),
            online_training: true,
        }
    }

    /// Like [`Self::new`], but served from a process-wide cache keyed by
    /// the exact `(cfg, nominal_params, s)` bits. Receiver construction is
    /// deterministic and takes ~10 ms (offline-training collection plus the
    /// preamble Gram), so experiment sweeps that build one simulator per
    /// scene point pay it once per distinct configuration instead of once
    /// per point. A cache hit returns a clone, which is indistinguishable
    /// from fresh construction.
    pub fn new_cached(cfg: PhyConfig, nominal_params: &LcParams, s: usize) -> Self {
        use std::sync::{Mutex, OnceLock};
        type Key = [u64; 14];
        static CACHE: OnceLock<Mutex<Vec<(Key, Receiver)>>> = OnceLock::new();
        // Bound the cache so pathological callers (e.g. a parameter sweep
        // over t_slot) can't grow it without limit.
        const CAP: usize = 32;

        let key: Key = [
            cfg.l_order as u64,
            cfg.pqam_order as u64,
            cfg.t_slot.to_bits(),
            cfg.fs.to_bits(),
            cfg.v_memory as u64,
            cfg.k_branches as u64,
            cfg.preamble_slots as u64,
            cfg.training_rounds as u64,
            nominal_params.tau_charge.to_bits(),
            nominal_params.tau_relax.to_bits(),
            nominal_params.delta.to_bits(),
            nominal_params.tau_ready_up.to_bits(),
            nominal_params.tau_ready_down.to_bits(),
            s as u64,
        ];
        let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
        if let Some((_, rx)) = cache.lock().unwrap().iter().find(|(k, _)| *k == key) {
            return rx.clone();
        }
        // Build outside the lock: construction is slow and deterministic, so
        // a racing duplicate build is wasteful but harmless.
        let built = Self::new(cfg, nominal_params, s);
        let mut guard = cache.lock().unwrap();
        if guard.len() >= CAP {
            guard.remove(0);
        }
        guard.push((key, built.clone()));
        built
    }

    /// Override the DFE branch count (Fig. 17a sweep).
    pub fn with_branches(mut self, k: usize) -> Self {
        self.equalizer = self.equalizer.with_branches(k);
        self
    }

    /// Enable decision-directed channel tracking (the §8 mobility
    /// extension): the DFE re-estimates a residual complex gain from its
    /// own decisions with an exponential window of ≈ `block_slots`.
    pub fn with_tracking(mut self, block_slots: usize) -> Self {
        self.equalizer = self.equalizer.with_tracking(block_slots);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &PhyConfig {
        &self.cfg
    }

    /// Mutable access to the preamble detection threshold.
    pub fn detection_threshold_mut(&mut self) -> &mut f64 {
        &mut self.detector.threshold
    }

    /// Total frame length in slots for a payload of `n_bits`.
    pub fn frame_slots(&self, n_bits: usize) -> usize {
        let bps = self.cfg.bits_per_symbol();
        let pay = n_bits.div_ceil(bps);
        self.cfg.preamble_slots
            + self.cfg.training_rounds * self.cfg.l_order
            + pay
            + self.cfg.l_order
    }

    /// Run only the preamble-detection stage: search `[from, to)` for a
    /// frame start and return `(offset, residual score)` without decoding.
    /// This is the streaming service's framer hook — stage one of the
    /// staged pipeline scans the sample ring with exactly the detector the
    /// decode stages use, so a hit here is a hit for [`Self::receive_window`]
    /// over the same samples.
    pub fn detect_preamble(&self, rx: &Signal, from: usize, to: usize) -> Option<(usize, f64)> {
        let _t = telemetry::span("rx.detect");
        self.detector
            .detect_in(rx, from, to)
            .map(|m| (m.offset, m.score))
    }

    /// Samples the preamble fit needs at a candidate offset: a detection at
    /// `off` only reads `rx[off .. off + detect_span()]`. Streaming framers
    /// use this to know which offsets of a partially-filled buffer are
    /// fully scannable.
    pub fn detect_span(&self) -> usize {
        self.detector.span()
    }

    /// Receive with the preamble search restricted to sample offsets
    /// `[from, to)` — the reader knows roughly when a polled tag responds.
    /// Pass `(0, rx.len())` for a blind search over the whole signal.
    pub fn receive_window(
        &self,
        rx: &Signal,
        from: usize,
        to: usize,
        n_bits: usize,
    ) -> Result<RxResult, RxError> {
        let m = {
            let _t = telemetry::span("rx.detect");
            self.detector
                .detect_in(rx, from, to)
                .ok_or(RxError::NoPreamble)?
        };
        self.decode(rx, m, n_bits, &[], false)
    }

    /// Receive assuming the frame starts exactly at `offset`: the preamble
    /// fit runs there unconditionally (no detection threshold — the caller
    /// asserts the frame position, e.g. a TDMA slot or a framer hit from
    /// [`Self::detect_preamble`]).
    ///
    /// `unreliable[i]` flags input sample `i` as untrustworthy (ADC rail
    /// hit, blockage span, interference burst — conditions the front end
    /// can observe directly). Payload slots where at least a quarter of the
    /// samples are flagged are reported as erasures in
    /// [`RxResult::erasures`], so an outer errors-and-erasures code gets
    /// locations, not just wrong bits. The mask may be shorter than the
    /// signal; missing entries count as reliable, so `&[]` means "no
    /// erasures".
    pub fn receive_at(
        &self,
        rx: &Signal,
        offset: usize,
        n_bits: usize,
        unreliable: &[bool],
    ) -> Result<RxResult, RxError> {
        let m = self.detector.fit_at(rx, offset).ok_or(RxError::Truncated)?;
        self.decode(rx, m, n_bits, unreliable, false)
    }

    /// [`Self::receive_window`] composed entirely from the retained scalar
    /// reference kernels: reference preamble search
    /// (`PreambleDetector::detect_in_reference`), reference online training
    /// (`OnlineTrainer::train_reference`) and the scalar DFE
    /// (`Equalizer::equalize_reference`). Each kernel pair's own
    /// differential tests pin the optimized path to this one, so this is
    /// the end-to-end no-cache oracle the sweep engine's differential
    /// tests decode against — the slowest, most literal formulation of the
    /// receiver, kept bit-identical to the production path.
    pub fn receive_window_reference(
        &self,
        rx: &Signal,
        from: usize,
        to: usize,
        n_bits: usize,
    ) -> Result<RxResult, RxError> {
        let m = {
            let _t = telemetry::span("rx.detect");
            self.detector
                .detect_in_reference(rx, from, to)
                .ok_or(RxError::NoPreamble)?
        };
        self.decode(rx, m, n_bits, &[], true)
    }

    /// The one decode body behind every entry point: correct, train,
    /// equalize and demap the frame the preamble match `m` anchors.
    /// `reference` routes training and equalization through the scalar
    /// reference kernels (same decisions, no fast paths).
    fn decode(
        &self,
        rx: &Signal,
        m: PreambleMatch,
        n_bits: usize,
        unreliable: &[bool],
        reference: bool,
    ) -> Result<RxResult, RxError> {
        let offset = m.offset;
        let spt = self.cfg.samples_per_slot();
        let bps = self.cfg.bits_per_symbol();
        let n_payload = n_bits.div_ceil(bps);
        let prefix_slots = self.cfg.preamble_slots + self.cfg.training_rounds * self.cfg.l_order;
        let need = (prefix_slots + n_payload) * spt;
        if offset + need > rx.len() {
            return Err(RxError::Truncated);
        }
        let corrected = {
            let _t = telemetry::span("rx.correct");
            correct(&m.fit, &rx.samples()[offset..offset + need])
        };

        let model = if self.online_training {
            let _t = telemetry::span("rx.train");
            if reference {
                self.trainer.train_reference(&corrected)
            } else {
                self.trainer.train(&corrected)
            }
        } else {
            self.nominal.clone()
        };

        let symbols = {
            let _t = telemetry::span("rx.equalize");
            let (eq, known) = (&self.equalizer, &self.known);
            if reference {
                eq.equalize_reference(&corrected, &model, known, n_payload)
            } else {
                eq.equalize(&corrected, &model, known, n_payload)
            }
        };
        let bits = {
            let _t = telemetry::span("rx.demap");
            self.modulator.demap(&symbols, n_bits)
        };
        let erasures: Vec<bool> = (0..n_payload)
            .map(|s| {
                let start = offset + (prefix_slots + s) * spt;
                let flagged = (start..start + spt)
                    .filter(|&i| unreliable.get(i).copied().unwrap_or(false))
                    .count();
                // A quarter-slot outage is enough to corrupt the symbol
                // decision; flagging generously is cheap because an
                // erasure costs the outer code half of what an undetected
                // error does.
                4 * flagged >= spt
            })
            .collect();
        telemetry::counter_inc("rx.frames");
        telemetry::counter_add("rx.symbols", n_payload as u64);
        telemetry::counter_add(
            "rx.slot_erasures",
            erasures.iter().filter(|&&e| e).count() as u64,
        );
        Ok(RxResult {
            symbols,
            bits,
            erasures,
            offset,
            preamble_residual: m.score,
            channel: m.fit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Modulator;
    use retroturbo_dsp::noise::NoiseSource;
    use retroturbo_dsp::C64;
    use retroturbo_lcm::{Heterogeneity, Panel};

    fn cfg() -> PhyConfig {
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

    /// End-to-end: modulate → heterogeneous panel → channel distortion →
    /// receive.
    fn link(
        bits: &[bool],
        roll_deg: f64,
        gain: f64,
        noise_sigma: f64,
        het: Heterogeneity,
        seed: u64,
    ) -> Result<Vec<bool>, RxError> {
        let c = cfg();
        let m = Modulator::new(c);
        let frame = m.modulate(bits);
        let mut panel = Panel::retroturbo(
            c.l_order,
            c.bits_per_module(),
            LcParams::default(),
            het,
            seed,
        );
        let cmds = frame.drive_commands(&c);
        let wave = panel.simulate(&cmds, frame.total_slots() * c.samples_per_slot(), c.fs);

        // Channel: pad, rotate (2×roll), scale, DC, noise.
        let rot = C64::from_polar(gain, 2.0 * roll_deg.to_radians());
        let dc = C64::new(0.05, -0.03);
        let pad = 73usize;
        let rest = rot * C64::new(-1.0, -1.0) + dc;
        let mut samples = vec![rest; pad];
        samples.extend(wave.samples().iter().map(|&z| rot * z + dc));
        let mut sig = Signal::new(samples, c.fs);
        if noise_sigma > 0.0 {
            let mut ns = NoiseSource::new(seed);
            ns.add_awgn(sig.samples_mut(), noise_sigma * gain);
        }

        let rx = Receiver::new(c, &LcParams::default(), 3);
        rx.receive_window(&sig, 0, sig.len(), bits.len())
            .map(|r| r.bits)
    }

    #[test]
    fn clean_end_to_end() {
        let bits: Vec<bool> = (0..80).map(|i| (i * 7) % 5 < 2).collect();
        let out = link(&bits, 0.0, 1.0, 0.0, Heterogeneity::none(), 1).unwrap();
        assert_eq!(out, bits);
    }

    #[test]
    fn rotated_scaled_heterogeneous_end_to_end() {
        let bits: Vec<bool> = (0..80).map(|i| (i * 11) % 3 == 0).collect();
        let out = link(&bits, 37.0, 0.4, 0.005, Heterogeneity::typical(), 5).unwrap();
        let errs = out.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert_eq!(errs, 0, "{errs} bit errors under rotation+heterogeneity");
    }

    #[test]
    fn moderate_noise_end_to_end() {
        let bits: Vec<bool> = (0..80).map(|i| i % 3 != 1).collect();
        let out = link(&bits, 10.0, 0.8, 0.02, Heterogeneity::typical(), 8).unwrap();
        let errs = out.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert_eq!(errs, 0, "{errs} bit errors at ~34 dB");
    }

    #[test]
    fn no_signal_yields_no_preamble() {
        let c = cfg();
        let rx = Receiver::new(c, &LcParams::default(), 2);
        let mut sig = Signal::zeros(8000, c.fs);
        let mut ns = NoiseSource::new(3);
        ns.add_awgn(sig.samples_mut(), 0.5);
        assert_eq!(
            rx.receive_window(&sig, 0, sig.len(), 32).unwrap_err(),
            RxError::NoPreamble
        );
    }

    #[test]
    fn truncated_signal_reports_error() {
        let c = cfg();
        let m = Modulator::new(c);
        let bits = vec![true; 64];
        let frame = m.modulate(&bits);
        let model = TagModel::nominal(&c, &LcParams::default());
        let wave = model.render_levels(&frame.levels);
        // Keep the preamble but cut the payload off.
        let cut = (c.preamble_slots + 2) * c.samples_per_slot();
        let sig = Signal::new(wave[..cut].to_vec(), c.fs);
        let rx = Receiver::new(c, &LcParams::default(), 2);
        assert_eq!(
            rx.receive_window(&sig, 0, sig.len(), bits.len())
                .unwrap_err(),
            RxError::Truncated
        );
    }

    #[test]
    fn training_disabled_still_works_on_uniform_panel() {
        let c = cfg();
        let m = Modulator::new(c);
        let bits: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        let frame = m.modulate(&bits);
        let model = TagModel::nominal(&c, &LcParams::default());
        let wave = model.render_levels(&frame.levels);
        let sig = Signal::new(wave, c.fs);
        let mut rx = Receiver::new(c, &LcParams::default(), 2);
        rx.online_training = false;
        let out = rx.receive_window(&sig, 0, sig.len(), bits.len()).unwrap();
        assert_eq!(out.bits, bits);
        assert_eq!(out.offset, 0);
    }

    #[test]
    fn frame_slots_accounting() {
        let c = cfg();
        let rx = Receiver::new(c, &LcParams::default(), 1);
        // 80 bits at 4 b/sym = 20 payload slots + 12 pre + 24 train + 4 tail.
        assert_eq!(rx.frame_slots(80), 60);
    }

    #[test]
    fn quality_mask_flags_covered_slots_as_erasures() {
        let c = cfg();
        let m = Modulator::new(c);
        let rx = Receiver::new(c, &LcParams::default(), 2);
        let spt = c.samples_per_slot();
        let prefix = c.preamble_slots + c.training_rounds * c.l_order;
        let bps = c.bits_per_symbol();
        // 40 bits fill 10 symbols exactly; 42 bits leave the 11th partial.
        for n_bits in [40usize, 42] {
            let bits: Vec<bool> = (0..n_bits).map(|i| i % 3 == 0).collect();
            let frame = m.modulate(&bits);
            let model = TagModel::nominal(&c, &LcParams::default());
            let sig = Signal::new(model.render_levels(&frame.levels), c.fs);

            let mut mask = vec![false; sig.len()];
            // Fully cover payload slot 2, half-cover slot 5, an eighth of
            // slot 7, and fully cover the last slot.
            let n_syms = n_bits.div_ceil(bps);
            mask[(prefix + 2) * spt..(prefix + 3) * spt].fill(true);
            mask[(prefix + 5) * spt..(prefix + 5) * spt + spt / 2].fill(true);
            mask[(prefix + 7) * spt..(prefix + 7) * spt + spt / 8].fill(true);
            mask[(prefix + n_syms - 1) * spt..(prefix + n_syms) * spt].fill(true);
            let out = rx.receive_at(&sig, 0, bits.len(), &mask).unwrap();
            assert_eq!(out.erasures.len(), n_syms, "{n_bits} bits");
            assert!(out.erasures[2], "fully-blocked slot not flagged");
            assert!(out.erasures[5], "half-blocked slot not flagged");
            assert!(!out.erasures[7], "an eighth of a slot should not erase it");
            assert!(!out.erasures[0] && !out.erasures[8]);
            assert!(out.erasures[n_syms - 1], "last slot not flagged");

            let per_bit = out.bit_erasures(bps);
            assert_eq!(per_bit.len(), out.bits.len(), "{n_bits} bits");
            for (j, &e) in per_bit.iter().enumerate() {
                assert_eq!(e, out.erasures[j / bps], "{n_bits} bits: bit {j}");
            }
        }
    }

    #[test]
    fn empty_mask_means_no_erasures_and_matches_plain_receive() {
        let c = cfg();
        let m = Modulator::new(c);
        let bits: Vec<bool> = (0..40).map(|i| i % 2 == 1).collect();
        let frame = m.modulate(&bits);
        let model = TagModel::nominal(&c, &LcParams::default());
        // A rest-level guard before the frame, so the found offset is not 0.
        let mut samples = vec![C64::new(-1.0, -1.0); 37];
        samples.extend(model.render_levels(&frame.levels));
        let sig = Signal::new(samples, c.fs);
        let rx = Receiver::new(c, &LcParams::default(), 2);

        let window = rx.receive_window(&sig, 0, sig.len(), bits.len()).unwrap();
        let (found, score) = rx.detect_preamble(&sig, 0, sig.len()).unwrap();
        assert_eq!(window.offset, found);
        assert_eq!(window.preamble_residual.to_bits(), score.to_bits());

        let plain = rx.receive_at(&sig, found, bits.len(), &[]).unwrap();
        let all_false = rx
            .receive_at(&sig, found, bits.len(), &vec![false; sig.len()])
            .unwrap();
        let ch = |r: &RxResult| {
            [r.channel.alpha, r.channel.beta, r.channel.gamma]
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
        };
        // The two receive forms and both spellings of "no erasures" run one
        // decode body, so they agree bit for bit.
        for other in [&all_false, &window] {
            assert_eq!(plain.offset, other.offset);
            assert_eq!(plain.symbols, other.symbols);
            assert_eq!(plain.bits, other.bits);
            assert_eq!(plain.erasures, other.erasures);
            assert_eq!(
                plain.preamble_residual.to_bits(),
                other.preamble_residual.to_bits()
            );
            assert_eq!(ch(&plain), ch(other));
        }
        assert_eq!(plain.bits, bits);
        assert_eq!(plain.offset, 37);
        assert!(plain.erasures.iter().all(|&e| !e));
    }
}
