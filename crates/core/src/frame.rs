//! Frame construction: preamble + online-training pilots + payload.
//!
//! A RetroTurbo frame is a flat sequence of per-slot (I, Q) drive levels:
//!
//! ```text
//! | preamble (PN, full-scale) | training pilots | payload symbols | tail |
//! ```
//!
//! * The **preamble** is a fixed pseudo-noise pattern exciting both
//!   polarization axes at full scale, so the receiver can both time-align and
//!   fit the rotation/scale/offset correction (§4.3.1).
//! * The **training** section fires every module with a known, balanced
//!   binary pattern over `training_rounds` cycles, giving the online trainer
//!   independent observations of each module with multiple firing histories
//!   (§4.3.3).
//! * The **payload** carries the PQAM symbols.
//! * The **tail** is one silent cycle so the final pulses complete inside
//!   the frame.

use crate::constellation::{Constellation, PqamSymbol};
use crate::params::PhyConfig;
use crate::synth::SlotLevels;
use retroturbo_lcm::mls::mls;
use retroturbo_lcm::panel::DriveCommand;

/// A fully planned frame.
#[derive(Debug, Clone)]
pub struct FramePlan {
    /// Per-slot (I, Q) levels for the whole frame.
    pub levels: Vec<SlotLevels>,
    /// The payload symbols carried.
    pub payload_symbols: Vec<PqamSymbol>,
    /// Slots in each section.
    pub preamble_slots: usize,
    /// Training section length in slots.
    pub training_slots: usize,
    /// Payload section length in slots.
    pub payload_slots: usize,
    /// Tail (flush) length in slots.
    pub tail_slots: usize,
}

impl FramePlan {
    /// Slot index where the payload starts.
    pub fn payload_start(&self) -> usize {
        self.preamble_slots + self.training_slots
    }

    /// Total frame length in slots.
    pub fn total_slots(&self) -> usize {
        self.levels.len()
    }

    /// Expand the plan into sorted panel drive commands (fire at each slot
    /// start, release one slot later; for L = 1 the level is simply replaced
    /// each slot).
    pub fn drive_commands(&self, cfg: &PhyConfig) -> Vec<DriveCommand> {
        let spt = cfg.samples_per_slot();
        let l = cfg.l_order;
        let mut cmds = Vec::with_capacity(self.levels.len() * 4);
        for (n, &(li, lq)) in self.levels.iter().enumerate() {
            let m = n % l;
            if l > 1 {
                // Release the modules fired one slot ago first (same sample
                // index, emitted earlier so ordering is deterministic).
                if n >= 1 {
                    let pm = (n - 1) % l;
                    cmds.push(DriveCommand {
                        sample: n * spt,
                        module: pm,
                        level: 0,
                    });
                    cmds.push(DriveCommand {
                        sample: n * spt,
                        module: l + pm,
                        level: 0,
                    });
                }
            }
            cmds.push(DriveCommand {
                sample: n * spt,
                module: m,
                level: li,
            });
            cmds.push(DriveCommand {
                sample: n * spt,
                module: l + m,
                level: lq,
            });
        }
        // Final release.
        if l > 1 && !self.levels.is_empty() {
            let n = self.levels.len();
            let pm = (n - 1) % l;
            cmds.push(DriveCommand {
                sample: n * spt,
                module: pm,
                level: 0,
            });
            cmds.push(DriveCommand {
                sample: n * spt,
                module: l + pm,
                level: 0,
            });
        }
        cmds
    }
}

/// Bits → frames under a PHY configuration.
#[derive(Debug, Clone)]
pub struct Modulator {
    cfg: PhyConfig,
    constel: Constellation,
}

impl Modulator {
    /// Create a modulator (validates the config).
    pub fn new(cfg: PhyConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            constel: Constellation::new(cfg.pqam_order),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PhyConfig {
        &self.cfg
    }

    /// The constellation in use.
    pub fn constellation(&self) -> &Constellation {
        &self.constel
    }

    /// The fixed full-scale preamble pattern: per slot, fire I and/or Q at
    /// max level following two phases of an m-sequence, guaranteeing both
    /// axes are excited and the pattern has PN-like autocorrelation.
    pub fn preamble_levels(cfg: &PhyConfig) -> Vec<SlotLevels> {
        let pn = mls(5); // period 31
        let max = (1usize << cfg.bits_per_module()) - 1;
        (0..cfg.preamble_slots)
            .map(|k| {
                let fi = pn[k % 31];
                let fq = pn[(k + 13) % 31];
                (if fi { max } else { 0 }, if fq { max } else { 0 })
            })
            .collect()
    }

    /// Whether `module` (0..2L) fires in training round `r` — a balanced
    /// deterministic pattern from an m-sequence, so every module sees both
    /// fresh and repeated firings (multiple histories for the trainer).
    pub fn training_fired(cfg: &PhyConfig, module: usize, round: usize) -> bool {
        let pn = mls(6); // period 63
        pn[(module * cfg.training_rounds + round) % 63]
    }

    /// The training section levels: `training_rounds` cycles of L slots; in
    /// round r, the modules firing at slot offset m use full scale iff their
    /// training pattern says so.
    pub fn training_levels(cfg: &PhyConfig) -> Vec<SlotLevels> {
        let l = cfg.l_order;
        let max = (1usize << cfg.bits_per_module()) - 1;
        let mut out = Vec::with_capacity(cfg.training_rounds * l);
        for r in 0..cfg.training_rounds {
            for m in 0..l {
                let fi = Self::training_fired(cfg, m, r);
                let fq = Self::training_fired(cfg, l + m, r);
                out.push((if fi { max } else { 0 }, if fq { max } else { 0 }));
            }
        }
        out
    }

    /// Build the full frame plan for a payload bit sequence (padded with
    /// zeros to a whole number of symbols).
    pub fn modulate(&self, bits: &[bool]) -> FramePlan {
        let bps = self.constel.bits_per_symbol();
        let n_sym = bits.len().div_ceil(bps);
        let mut symbols = Vec::with_capacity(n_sym);
        for s in 0..n_sym {
            let chunk: Vec<bool> = (0..bps)
                .map(|k| bits.get(s * bps + k).copied().unwrap_or(false))
                .collect();
            symbols.push(self.constel.map(&chunk));
        }

        let pre = Self::preamble_levels(&self.cfg);
        let tr = Self::training_levels(&self.cfg);
        let max_axis = self.constel.levels_per_axis() - 1;
        let bank_max = (1usize << self.cfg.bits_per_module()) - 1;
        debug_assert_eq!(max_axis, bank_max, "constellation/bank level mismatch");
        let pay: Vec<SlotLevels> = symbols.iter().map(|s| (s.i, s.q)).collect();
        let tail = vec![(0usize, 0usize); self.cfg.l_order];

        let mut levels = Vec::with_capacity(pre.len() + tr.len() + pay.len() + tail.len());
        levels.extend_from_slice(&pre);
        levels.extend_from_slice(&tr);
        levels.extend_from_slice(&pay);
        levels.extend_from_slice(&tail);

        FramePlan {
            preamble_slots: pre.len(),
            training_slots: tr.len(),
            payload_slots: pay.len(),
            tail_slots: tail.len(),
            levels,
            payload_symbols: symbols,
        }
    }

    /// Recover payload bits from decided symbols (inverse of the mapping in
    /// [`Self::modulate`]), truncated to `n_bits`.
    pub fn demap(&self, symbols: &[PqamSymbol], n_bits: usize) -> Vec<bool> {
        let mut bits = Vec::with_capacity(symbols.len() * self.constel.bits_per_symbol());
        for &s in symbols {
            bits.extend(self.constel.unmap(s));
        }
        bits.truncate(n_bits);
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PhyConfig {
        PhyConfig {
            l_order: 4,
            pqam_order: 16,
            t_slot: 0.5e-3,
            fs: 40_000.0,
            v_memory: 2,
            k_branches: 8,
            preamble_slots: 12,
            training_rounds: 4,
        }
    }

    #[test]
    fn frame_sections_add_up() {
        let m = Modulator::new(cfg());
        let bits = vec![true; 64];
        let f = m.modulate(&bits);
        assert_eq!(f.preamble_slots, 12);
        assert_eq!(f.training_slots, 16); // 4 rounds × L=4
        assert_eq!(f.payload_slots, 16); // 64 bits / 4 per symbol
        assert_eq!(f.tail_slots, 4);
        assert_eq!(f.total_slots(), 48);
        assert_eq!(f.payload_start(), 28);
    }

    #[test]
    fn modulate_demap_round_trip() {
        let m = Modulator::new(cfg());
        let bits: Vec<bool> = (0..100).map(|i| (i * 7) % 3 == 0).collect();
        let f = m.modulate(&bits);
        let rec = m.demap(&f.payload_symbols, bits.len());
        assert_eq!(rec, bits);
    }

    #[test]
    fn preamble_excites_both_axes() {
        let pre = Modulator::preamble_levels(&cfg());
        assert!(pre.iter().any(|&(i, _)| i > 0), "I never fired");
        assert!(pre.iter().any(|&(_, q)| q > 0), "Q never fired");
        assert!(
            pre.iter().any(|&(i, q)| i > 0 && q == 0) && pre.iter().any(|&(i, q)| q > 0 && i == 0),
            "preamble must separate the axes to resolve rotation"
        );
    }

    #[test]
    fn preamble_is_deterministic() {
        assert_eq!(
            Modulator::preamble_levels(&cfg()),
            Modulator::preamble_levels(&cfg())
        );
    }

    #[test]
    fn training_pattern_balanced_per_module() {
        let c = cfg();
        for module in 0..8 {
            let fires = (0..c.training_rounds)
                .filter(|&r| Modulator::training_fired(&c, module, r))
                .count();
            assert!(
                fires >= 1 && fires < c.training_rounds,
                "module {module} fires {fires}/{} rounds — need both states",
                c.training_rounds
            );
        }
    }

    #[test]
    fn drive_commands_sorted_and_bounded() {
        let m = Modulator::new(cfg());
        let f = m.modulate(&[false; 32]);
        let cmds = f.drive_commands(&cfg());
        assert!(cmds.windows(2).all(|w| w[0].sample <= w[1].sample));
        let max_level = 3;
        assert!(cmds.iter().all(|c| c.level <= max_level && c.module < 8));
    }

    #[test]
    fn payload_pads_partial_symbol() {
        let m = Modulator::new(cfg());
        let f = m.modulate(&[true, false, true]); // 3 bits, 4 per symbol
        assert_eq!(f.payload_slots, 1);
        let rec = m.demap(&f.payload_symbols, 3);
        assert_eq!(rec, vec![true, false, true]);
    }
}
