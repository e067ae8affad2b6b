//! The receive chain composed from outside, one public stage call at a
//! time, so the traced run can time each stage.
//!
//! `Receiver` runs detect → correct → train → equalize → demap inside one
//! call, and the decode service runs it on threads the benchmark cannot
//! wrap. [`Chain`] builds the same stage objects the receiver builds and
//! calls them in the receiver's order; the traced run checks its output
//! against the receiver's and the service's, bit for bit.

use crate::trace::Tracer;
use retroturbo_core::preamble::{correct, PreambleCorrection};
use retroturbo_core::synth::SlotLevels;
use retroturbo_core::{
    Equalizer, Modulator, OfflineTraining, OnlineTrainer, PhyConfig, PreambleDetector,
    PreambleMatch, TagModel,
};
use retroturbo_dsp::Signal;
use retroturbo_lcm::LcParams;

/// Stage objects for one PHY configuration.
pub struct Chain {
    cfg: PhyConfig,
    detector: PreambleDetector,
    trainer: OnlineTrainer,
    equalizer: Equalizer,
    modulator: Modulator,
    /// Known preamble + training levels the DFE starts from.
    known: Vec<SlotLevels>,
}

/// A demodulated frame.
pub struct Demod {
    /// Demapped payload bits.
    pub bits: Vec<bool>,
    /// Per-payload-symbol erasure flags.
    pub erasures: Vec<bool>,
}

impl Chain {
    /// The stages `Receiver::new(cfg, lc, s)` builds.
    pub fn new(cfg: PhyConfig, lc: &LcParams, s: usize) -> Self {
        let nominal = TagModel::nominal(&cfg, lc);
        let offline = OfflineTraining::collect(&cfg, lc, &OfflineTraining::default_variants(lc), s);
        let mut known = Modulator::preamble_levels(&cfg);
        known.extend(Modulator::training_levels(&cfg));
        Self {
            cfg,
            detector: PreambleDetector::new(&cfg, &nominal),
            trainer: OnlineTrainer::new(cfg, &offline),
            equalizer: Equalizer::new(cfg),
            modulator: Modulator::new(cfg),
            known,
        }
    }

    /// The preamble detector.
    pub fn detector(&self) -> &PreambleDetector {
        &self.detector
    }

    /// Demodulate the frame starting at `offset`, timing each stage under
    /// `parent`. `fit` is the preamble correction found by detection; with
    /// `None` the fit is redone at `offset` (`PreambleDetector::fit_at`), as
    /// the service's workers do. `mask` flags unreliable input samples.
    /// `None` when the signal ends before the payload does.
    #[allow(clippy::too_many_arguments)]
    pub fn demodulate(
        &self,
        tr: &Tracer,
        unit: u64,
        parent: usize,
        sig: &Signal,
        offset: usize,
        fit: Option<PreambleCorrection>,
        n_bits: usize,
        mask: Option<&[bool]>,
    ) -> Option<Demod> {
        let cfg = &self.cfg;
        let spt = cfg.samples_per_slot();
        let n_payload = n_bits.div_ceil(cfg.bits_per_symbol());
        let prefix_slots = cfg.preamble_slots + cfg.training_rounds * cfg.l_order;
        let need = (prefix_slots + n_payload) * spt;
        let (corrected, model) = tr.time("core.train", unit, Some(parent), || {
            let fit = match fit {
                Some(f) => f,
                None => self.detector.fit_at(sig, offset)?.fit,
            };
            if offset + need > sig.len() {
                return None;
            }
            let corrected = correct(&fit, &sig.samples()[offset..offset + need]);
            let model = self.trainer.train(&corrected);
            Some((corrected, model))
        })?;
        let symbols = tr.time("core.dfe", unit, Some(parent), || {
            self.equalizer
                .equalize(&corrected, &model, &self.known, n_payload)
        });
        Some(tr.time("core.demap", unit, Some(parent), || {
            let bits = self.modulator.demap(&symbols, n_bits);
            // The receiver's quarter-slot rule: a payload slot with at least
            // a quarter of its samples flagged is an erasure.
            let erasures = (0..n_payload)
                .map(|s| {
                    let start = offset + (prefix_slots + s) * spt;
                    let flagged = mask.map_or(0, |m| {
                        (start..start + spt)
                            .filter(|&i| m.get(i).copied().unwrap_or(false))
                            .count()
                    });
                    4 * flagged >= spt
                })
                .collect();
            Demod { bits, erasures }
        }))
    }

    /// Preamble search over `[from, to)`, timed as `core.detect`.
    pub fn detect(
        &self,
        tr: &Tracer,
        unit: u64,
        parent: usize,
        sig: &Signal,
        from: usize,
        to: usize,
    ) -> Option<PreambleMatch> {
        tr.time("core.detect", unit, Some(parent), || {
            self.detector.detect_in(sig, from, to)
        })
    }
}
