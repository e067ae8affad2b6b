//! Waveform synthesis from a tag model.
//!
//! A [`TagModel`] is the *receiver's* picture of the tag: one complex-valued
//! pulse-segment bank per module (2L modules), already scaled by the module's
//! amplitude gain and polarization axis. Rendering a slot-level sequence
//! through the model produces the exact waveform the receiver expects — the
//! primitive behind the preamble reference (§4.3.1), the DFE's interference
//! prediction (§4.3.2), the online trainer's design matrix (§4.3.3) and the
//! §5 modulation-scheme emulator.
//!
//! Timing convention: global slot `n` fires module `n mod L` of each channel
//! (I module `n mod L`, Q module `L + n mod L`) at a per-axis level; the
//! module holds for one slot and discharges for the remaining L−1 slots of
//! its cycle. Per-module *sub-pixel* firing histories select the reference
//! segment, which is how the tail effect enters predictions.

use crate::params::PhyConfig;
use crate::pulse::PulseBank;
use retroturbo_dsp::{C64, J};
use retroturbo_lcm::LcParams;

/// Per-slot drive levels: the (I, Q) levels given to the modules firing in
/// that slot. Levels range over `0..=max_level`.
pub type SlotLevels = (usize, usize);

/// τ (slots since the module's latest firing slot) for module `module` at
/// global slot `slot`; `None` before the module's first firing slot.
pub(crate) fn tau(cfg: &PhyConfig, module: usize, slot: usize) -> Option<usize> {
    let m_phase = module % cfg.l_order;
    if slot < m_phase {
        None
    } else {
        Some((slot - m_phase) % cfg.l_order)
    }
}

/// Sub-pixel firing history key for module `module` at global slot `slot`,
/// for bit-plane `b` (0 = most significant), given the per-slot level
/// history `levels[0..=slot]` (only this module's firing slots are
/// consulted): bit `age` is whether the plane fired at the `age`-th latest
/// firing slot, for the V most recent. Slots outside `levels` read as
/// level 0.
pub(crate) fn history_key(
    cfg: &PhyConfig,
    module: usize,
    b: usize,
    slot: usize,
    levels: &[SlotLevels],
) -> usize {
    let l = cfg.l_order;
    let m_phase = module % l;
    let is_q = module >= l;
    let shift = cfg.bits_per_module() - 1 - b;
    // Firing slots of this module at or before `slot`: largest
    // f ≡ m_phase (mod L), f ≤ slot; then f − L, f − 2L, …
    if slot < m_phase {
        return 0;
    }
    let latest = slot - ((slot - m_phase) % l);
    let mut key = 0usize;
    for age in 0..cfg.v_memory {
        let f = latest as isize - (age * l) as isize;
        if f < 0 {
            break;
        }
        let lev = match levels.get(f as usize) {
            Some(&(li, lq)) => {
                if is_q {
                    lq
                } else {
                    li
                }
            }
            None => 0,
        };
        let fired = (lev >> shift) & 1 == 1;
        key |= (fired as usize) << age;
    }
    key
}

/// One module's complex reference segments (gain and axis folded in).
#[derive(Debug, Clone)]
pub struct ModuleModel {
    /// `seg[key]` = complex cycle waveform (L·spt samples) for sub-pixel
    /// firing history `key` — for a *unit* sub-pixel; weights applied at
    /// render time.
    seg: Vec<Vec<C64>>,
    spt: usize,
    v: usize,
}

impl ModuleModel {
    /// Build from a real pulse bank scaled by a complex gain (amplitude ×
    /// polarization axis).
    pub fn from_bank(bank: &PulseBank, gain: C64) -> Self {
        let seg = (0..(1usize << bank.v()))
            .map(|k| bank.segment(k).iter().map(|&c| gain * c).collect())
            .collect();
        Self {
            seg,
            spt: bank.spt(),
            v: bank.v(),
        }
    }

    /// Build directly from complex segments (the online trainer's fitted
    /// banks).
    ///
    /// # Panics
    /// Panics if the segment table shape is inconsistent.
    pub fn from_segments(seg: Vec<Vec<C64>>, l: usize, spt: usize, v: usize) -> Self {
        assert_eq!(seg.len(), 1 << v, "ModuleModel: need 2^v segments");
        assert!(
            seg.iter().all(|s| s.len() == l * spt),
            "ModuleModel: bad segment length"
        );
        let _ = l;
        Self { seg, spt, v }
    }

    /// History depth V.
    pub fn v(&self) -> usize {
        self.v
    }

    /// One slot of a history's segment (`tau` slots past the firing slot).
    #[inline]
    pub fn slot(&self, key: usize, tau: usize) -> &[C64] {
        let s = &self.seg[key & ((1 << self.v) - 1)];
        &s[tau * self.spt..(tau + 1) * self.spt]
    }

    /// Scale every segment by a complex factor (training adjustment).
    pub fn scale(&mut self, g: C64) {
        for s in &mut self.seg {
            for z in s {
                *z *= g;
            }
        }
    }
}

/// The receiver's model of the whole tag: 2L module models plus the shared
/// binary sub-pixel weights.
#[derive(Debug, Clone)]
pub struct TagModel {
    /// Module models: indices `0..L` are the I channel, `L..2L` the Q channel.
    pub modules: Vec<ModuleModel>,
    /// Sub-pixel weights, one per bit-plane (binary, normalized to sum 1).
    pub weights: Vec<f64>,
    pub(crate) cfg: PhyConfig,
}

impl TagModel {
    /// The nominal model: every module shares one bank collected from
    /// `params`, with gain 1/L and axis 1 (I) or j (Q) — what the receiver
    /// assumes before online training.
    pub fn nominal(cfg: &PhyConfig, params: &LcParams) -> Self {
        cfg.validate();
        let bank = PulseBank::collect(
            params,
            cfg.l_order,
            cfg.samples_per_slot(),
            cfg.fs,
            cfg.v_memory,
        );
        Self::from_shared_bank(cfg, &bank)
    }

    /// Build the nominal model from an already-collected bank.
    ///
    /// # Panics
    /// Panics if the bank's history depth is not the configuration's V.
    pub fn from_shared_bank(cfg: &PhyConfig, bank: &PulseBank) -> Self {
        assert_eq!(bank.v(), cfg.v_memory, "TagModel: bank depth must be V");
        let l = cfg.l_order;
        let g = 1.0 / l as f64;
        let mut modules = Vec::with_capacity(2 * l);
        for _ in 0..l {
            modules.push(ModuleModel::from_bank(bank, C64::real(g)));
        }
        for _ in 0..l {
            modules.push(ModuleModel::from_bank(bank, J * g));
        }
        let bits = cfg.bits_per_module();
        let total = ((1usize << bits) - 1) as f64;
        let weights = (0..bits)
            .map(|b| (1usize << (bits - 1 - b)) as f64 / total)
            .collect();
        Self {
            modules,
            weights,
            cfg: *cfg,
        }
    }

    /// The PHY configuration this model was built for.
    pub fn config(&self) -> &PhyConfig {
        &self.cfg
    }

    /// Max drive level (2^bits − 1).
    pub fn max_level(&self) -> usize {
        (1 << self.weights.len()) - 1
    }

    /// Render the expected waveform for a per-slot level sequence starting at
    /// slot 0 (one complex sample per ADC tick, `levels.len() · spt` total).
    pub fn render_levels(&self, levels: &[SlotLevels]) -> Vec<C64> {
        let spt = self.cfg.samples_per_slot();
        let n = levels.len();
        let mut out = vec![C64::default(); n * spt];
        for slot in 0..n {
            let base = slot * spt;
            for (module, mm) in self.modules.iter().enumerate() {
                match tau(&self.cfg, module, slot) {
                    None => {
                        // Relaxed module: contrast −1 scaled by its gain =
                        // the key-0 segment value (constant), any τ.
                        let seg = mm.slot(0, 0);
                        for (k, w) in self.weights.iter().enumerate() {
                            let _ = k;
                            for t in 0..spt {
                                out[base + t] += seg[t] * *w;
                            }
                        }
                    }
                    Some(tau) => {
                        for (b, w) in self.weights.iter().enumerate() {
                            let key = history_key(&self.cfg, module, b, slot, levels);
                            let seg = mm.slot(key, tau);
                            for t in 0..spt {
                                out[base + t] += seg[t] * *w;
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PhyConfig;

    fn small_cfg() -> PhyConfig {
        PhyConfig {
            l_order: 4,
            pqam_order: 16,
            t_slot: 0.5e-3,
            fs: 40_000.0,
            v_memory: 2,
            k_branches: 8,
            preamble_slots: 8,
            training_rounds: 4,
        }
    }

    fn model() -> TagModel {
        TagModel::nominal(&small_cfg(), &LcParams::default())
    }

    #[test]
    fn rest_renders_to_minus_one_minus_j() {
        let m = model();
        let levels = vec![(0usize, 0usize); 8];
        let w = m.render_levels(&levels);
        // After a full cycle everything is provably at rest.
        let z = w[w.len() - 1];
        assert!((z.re + 1.0).abs() < 1e-6, "I rest: {}", z.re);
        assert!((z.im + 1.0).abs() < 1e-6, "Q rest: {}", z.im);
    }

    #[test]
    fn full_scale_i_firing_raises_real_part() {
        let m = model();
        // Fire the I channel at max every slot, Q idle.
        let levels = vec![(3usize, 0usize); 16];
        let w = m.render_levels(&levels);
        let spt = 20;
        // Steady state: every I module cycles; mean of the last cycle's I
        // must sit well above rest (−1).
        let tail = &w[12 * spt..];
        let mean_i: f64 = tail.iter().map(|z| z.re).sum::<f64>() / tail.len() as f64;
        let mean_q: f64 = tail.iter().map(|z| z.im).sum::<f64>() / tail.len() as f64;
        assert!(mean_i > -0.3, "I mean {mean_i}");
        assert!((mean_q + 1.0).abs() < 1e-6, "Q must stay at rest: {mean_q}");
    }

    #[test]
    fn q_firing_is_imaginary() {
        let m = model();
        let levels = vec![(0usize, 3usize); 16];
        let w = m.render_levels(&levels);
        for z in &w {
            assert!((z.re + 1.0).abs() < 1e-6, "I moved: {}", z.re);
        }
        assert!(w.iter().any(|z| z.im > -0.5), "Q never pulsed");
    }

    #[test]
    fn render_matches_panel_simulation() {
        // The receiver's nominal model must agree with the physical panel
        // simulation when the panel is homogeneous.
        use retroturbo_lcm::{DriveCommand, Heterogeneity, Panel};
        let cfg = small_cfg();
        let m = model();
        let levels: Vec<SlotLevels> = vec![
            (3, 0),
            (0, 3),
            (2, 1),
            (3, 3),
            (0, 0),
            (1, 2),
            (3, 0),
            (0, 0),
        ];
        let rendered = m.render_levels(&levels);

        let mut panel = Panel::retroturbo(
            cfg.l_order,
            cfg.bits_per_module(),
            LcParams::default(),
            Heterogeneity::none(),
            0,
        );
        let spt = cfg.samples_per_slot();
        let mut cmds = Vec::new();
        for (n, &(li, lq)) in levels.iter().enumerate() {
            let mphase = n % cfg.l_order;
            if n >= 1 {
                // Previous firing of these modules ends… handled by 1-slot hold below.
            }
            cmds.push(DriveCommand {
                sample: n * spt,
                module: mphase,
                level: li,
            });
            cmds.push(DriveCommand {
                sample: n * spt,
                module: cfg.l_order + mphase,
                level: lq,
            });
            cmds.push(DriveCommand {
                sample: (n + 1) * spt,
                module: mphase,
                level: 0,
            });
            cmds.push(DriveCommand {
                sample: (n + 1) * spt,
                module: cfg.l_order + mphase,
                level: 0,
            });
        }
        cmds.sort_by_key(|c| c.sample);
        let sim = panel.simulate(&cmds, levels.len() * spt, cfg.fs);

        let err: f64 = rendered
            .iter()
            .zip(sim.samples())
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            / rendered.len() as f64;
        assert!(err.sqrt() < 0.03, "model/panel mismatch RMS {}", err.sqrt());
    }

    #[test]
    fn history_affects_render() {
        // Two level sequences identical in the last cycle but different
        // before must render different final cycles (tail effect).
        let m = model();
        let a = vec![
            (3, 0),
            (0, 0),
            (0, 0),
            (0, 0),
            (3, 0),
            (0, 0),
            (0, 0),
            (0, 0),
        ];
        let b = vec![
            (0, 0),
            (0, 0),
            (0, 0),
            (0, 0),
            (3, 0),
            (0, 0),
            (0, 0),
            (0, 0),
        ];
        let wa = m.render_levels(&a);
        let wb = m.render_levels(&b);
        let spt = 20;
        let last = 4 * spt..8 * spt;
        let d: f64 = wa[last.clone()]
            .iter()
            .zip(&wb[last])
            .map(|(x, y)| (*x - *y).norm_sqr())
            .sum();
        assert!(d > 1e-4, "tail effect lost in rendering: {d}");
    }

    #[test]
    fn module_model_scale() {
        let bank = PulseBank::collect(&LcParams::default(), 4, 20, 40_000.0, 2);
        let mut mm = ModuleModel::from_bank(&bank, C64::real(1.0));
        mm.scale(C64::new(0.0, 2.0));
        let s = mm.slot(0, 0)[0];
        // Rest contrast −1 × 2j = −2j.
        assert!((s.im + 2.0).abs() < 1e-12 && s.re.abs() < 1e-12);
    }
}
