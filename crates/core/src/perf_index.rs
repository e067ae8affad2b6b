//! Modulation-scheme analysis: the performance index D and the candidate
//! grid of §5's optimal-parameter search (Tab. 3's driver in
//! `retroturbo-sim` runs the search over it).
//!
//! A scheme's performance index is the minimum Euclidean distance between
//! the waveforms of any two distinct data sequences, computed through the
//! (nonlinear) LCM emulation. A larger D tolerates more noise; the relative
//! demodulation threshold between two schemes is `10·log10(D_ref/D)` dB
//! (the presentation of Tab. 3 / Fig. 13).
//!
//! Exhaustive pair enumeration is exponential, so the search probes the
//! dominant error events: random base sequences perturbed in one symbol, and
//! in two adjacent symbols (DFE error propagation events). Minima of
//! waveform distance occur at such few-symbol differences because distinct
//! far-apart symbols contribute additively.

use crate::constellation::Constellation;
use crate::frame::Modulator;
use crate::params::PhyConfig;
use crate::synth::{SlotLevels, TagModel};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Squared waveform distance between two level sequences, rendered through
/// the model, in units of (full-scale amplitude)²·slots.
pub fn waveform_distance_sqr(model: &TagModel, a: &[SlotLevels], b: &[SlotLevels]) -> f64 {
    assert_eq!(a.len(), b.len(), "waveform_distance_sqr: length mismatch");
    let wa = model.render_levels(a);
    waveform_distance_sqr_to(model, &wa, b)
}

/// [`waveform_distance_sqr`] against a pre-rendered waveform `base_wave` —
/// for probe loops that compare many perturbations of one base sequence and
/// shouldn't re-render the base each time.
pub fn waveform_distance_sqr_to(
    model: &TagModel,
    base_wave: &[retroturbo_dsp::C64],
    b: &[SlotLevels],
) -> f64 {
    let wb = model.render_levels(b);
    assert_eq!(
        base_wave.len(),
        wb.len(),
        "waveform_distance_sqr_to: length mismatch"
    );
    // True time integral ∫|ΔF|² dt (amplitude²·seconds, scaled to
    // milliseconds so typical D values are O(1)): longer slots really do
    // buy noise tolerance, which is what separates the rates in Tab. 3.
    let dt_ms = 1e3 / model.config().fs;
    base_wave
        .iter()
        .zip(&wb)
        .map(|(x, y)| (*x - *y).norm_sqr())
        .sum::<f64>()
        * dt_ms
}

/// Estimate the performance index D of a DSM×PQAM configuration: minimum
/// squared waveform distance per flipped *bit* over probed error events.
///
/// `n_probes` random base sequences of `n_slots` symbols are perturbed in
/// every position by every alternative symbol (single-symbol events) and by
/// correlated two-adjacent-symbol events.
pub fn min_distance(
    cfg: &PhyConfig,
    model: &TagModel,
    n_slots: usize,
    n_probes: usize,
    seed: u64,
) -> f64 {
    cfg.validate();
    let constel = Constellation::new(cfg.pqam_order);
    let symbols: Vec<_> = constel.symbols().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dmin = f64::INFINITY;
    // Prefix of known levels so the probe starts from realistic ISI state.
    let prefix = Modulator::training_levels(cfg);
    let pre_n = prefix.len().min(2 * cfg.l_order);
    let prefix = &prefix[..pre_n];

    for _ in 0..n_probes {
        let base_syms: Vec<_> = (0..n_slots)
            .map(|_| symbols[rng.gen_range(0..symbols.len())])
            .collect();
        let mut base: Vec<SlotLevels> = prefix.to_vec();
        base.extend(base_syms.iter().map(|s| (s.i, s.q)));
        // Pad so perturbations' full pulses are inside the window.
        base.extend(std::iter::repeat_n((0usize, 0usize), cfg.l_order));

        // The base waveform is shared by every perturbation of this probe:
        // render it once. The perturbed sequence reuses one buffer,
        // mutate-and-restore, instead of cloning per candidate.
        let base_wave = model.render_levels(&base);
        let mut pert = base.clone();

        // Single-symbol perturbations (every position, every alternative).
        for pos in 0..n_slots {
            let orig = base[pre_n + pos];
            for s in &symbols {
                let alt = (s.i, s.q);
                if alt == orig {
                    continue;
                }
                pert[pre_n + pos] = alt;
                let bits_a = constel.unmap(base_syms[pos]);
                let bits_b = constel.unmap(*s);
                let flipped = bits_a.iter().zip(&bits_b).filter(|(x, y)| x != y).count();
                let d = waveform_distance_sqr_to(model, &base_wave, &pert) / flipped as f64;
                dmin = dmin.min(d);
            }
            pert[pre_n + pos] = orig;
        }
        // Two-adjacent-symbol events (sampled — full cross product is P²).
        for pos in 0..n_slots.saturating_sub(1) {
            for _ in 0..4 {
                let s1 = symbols[rng.gen_range(0..symbols.len())];
                let s2 = symbols[rng.gen_range(0..symbols.len())];
                let a1 = (s1.i, s1.q);
                let a2 = (s2.i, s2.q);
                if a1 == base[pre_n + pos] && a2 == base[pre_n + pos + 1] {
                    continue;
                }
                pert[pre_n + pos] = a1;
                pert[pre_n + pos + 1] = a2;
                let f1 = constel
                    .unmap(base_syms[pos])
                    .iter()
                    .zip(&constel.unmap(s1))
                    .filter(|(x, y)| x != y)
                    .count();
                let f2 = constel
                    .unmap(base_syms[pos + 1])
                    .iter()
                    .zip(&constel.unmap(s2))
                    .filter(|(x, y)| x != y)
                    .count();
                let flipped = f1 + f2;
                if flipped == 0 {
                    pert[pre_n + pos] = base[pre_n + pos];
                    pert[pre_n + pos + 1] = base[pre_n + pos + 1];
                    continue;
                }
                let d = waveform_distance_sqr_to(model, &base_wave, &pert) / flipped as f64;
                dmin = dmin.min(d);
                pert[pre_n + pos] = base[pre_n + pos];
                pert[pre_n + pos + 1] = base[pre_n + pos + 1];
            }
        }
    }
    dmin
}

/// Relative demodulation threshold of a scheme against a reference:
/// `10·log10(d_ref / d)` dB. Positive = needs more SNR than the reference.
pub fn relative_threshold_db(d: f64, d_ref: f64) -> f64 {
    10.0 * (d_ref / d).log10()
}

/// Enumerate (L, P, T) combinations achieving `rate_bps`, returning those
/// whose slot duration is at least 2 samples and no longer than `t_max`.
/// The per-candidate sample rate is adjusted (near `fs`) so each slot is an
/// exact integer number of samples — the analysis is grid-free even when
/// `log2(P)/rate` does not divide the nominal sample period.
pub fn candidate_configs(rate_bps: f64, fs: f64, t_max: f64) -> Vec<PhyConfig> {
    let mut out = Vec::new();
    for &p in &[2usize, 4, 16, 64, 256] {
        let bits = (p as f64).log2();
        let t = bits / rate_bps;
        if t > t_max {
            continue;
        }
        let spt = (t * fs).round().max(2.0);
        let fs = spt / t; // exact integer samples per slot
        for &l in &[1usize, 2, 4, 8, 16] {
            // Keep the in-flight pulse span W = L·T within a practical range
            // (the discharge lasts ≈ 4 ms; much longer wastes rate headroom,
            // much shorter truncates pulses).
            let w = l as f64 * t;
            if !(1e-3..=16e-3).contains(&w) {
                continue;
            }
            let cfg = PhyConfig {
                l_order: l,
                pqam_order: p,
                t_slot: t,
                fs,
                v_memory: 3,
                k_branches: 16,
                preamble_slots: (3 * l).max(12),
                training_rounds: 8,
            };
            out.push(cfg);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use retroturbo_lcm::LcParams;

    fn model_for(cfg: &PhyConfig) -> TagModel {
        TagModel::nominal(cfg, &LcParams::default())
    }

    fn cfg(l: usize, p: usize, t: f64) -> PhyConfig {
        PhyConfig {
            l_order: l,
            pqam_order: p,
            t_slot: t,
            fs: 40_000.0,
            v_memory: 3,
            k_branches: 16,
            preamble_slots: 12,
            training_rounds: 4,
        }
    }

    #[test]
    fn distance_zero_for_identical() {
        let c = cfg(4, 16, 0.5e-3);
        let m = model_for(&c);
        let a = vec![(3usize, 1usize); 8];
        assert!(waveform_distance_sqr(&m, &a, &a) < 1e-15);
    }

    #[test]
    fn distance_positive_for_distinct() {
        let c = cfg(4, 16, 0.5e-3);
        let m = model_for(&c);
        let a = vec![(3usize, 1usize); 8];
        let mut b = a.clone();
        b[3] = (0, 1);
        assert!(waveform_distance_sqr(&m, &a, &b) > 1e-4);
    }

    #[test]
    fn prerendered_distance_matches_two_sided() {
        let c = cfg(4, 16, 0.5e-3);
        let m = model_for(&c);
        let a = vec![(3usize, 1usize), (0, 2), (1, 1), (2, 0), (3, 3), (0, 0)];
        let mut b = a.clone();
        b[2] = (0, 3);
        let wa = m.render_levels(&a);
        assert_eq!(
            waveform_distance_sqr(&m, &a, &b),
            waveform_distance_sqr_to(&m, &wa, &b),
        );
    }

    #[test]
    fn min_distance_deterministic() {
        let c = cfg(2, 4, 0.5e-3);
        let m = model_for(&c);
        let d1 = min_distance(&c, &m, 6, 2, 9);
        let d2 = min_distance(&c, &m, 6, 2, 9);
        assert_eq!(d1, d2);
    }

    #[test]
    fn higher_order_has_smaller_distance() {
        // The core SNR-for-rate tradeoff: denser constellations shrink D.
        let c4 = cfg(4, 4, 0.5e-3);
        let c16 = cfg(4, 16, 0.5e-3);
        let d4 = min_distance(&c4, &model_for(&c4), 6, 2, 1);
        let d16 = min_distance(&c16, &model_for(&c16), 6, 2, 1);
        assert!(
            d4 > 2.0 * d16,
            "4-PQAM D={d4:.5} should dominate 16-PQAM D={d16:.5}"
        );
    }

    #[test]
    fn shorter_slot_has_smaller_distance() {
        // Faster signalling leaves less pulse energy per slot.
        let slow = cfg(4, 16, 1.0e-3);
        let fast = cfg(4, 16, 0.25e-3);
        let ds = min_distance(&slow, &model_for(&slow), 6, 2, 2);
        let df = min_distance(&fast, &model_for(&fast), 6, 2, 2);
        assert!(ds > df, "slow {ds:.5} vs fast {df:.5}");
    }

    #[test]
    fn relative_threshold_sign() {
        assert!((relative_threshold_db(0.1, 1.0) - 10.0).abs() < 1e-9);
        assert!(relative_threshold_db(1.0, 1.0).abs() < 1e-12);
    }

    #[test]
    fn candidates_hit_paper_default() {
        // 8 kbps at 40 kHz must include the paper's 8-DSM/16-PQAM/0.5 ms.
        let cands = candidate_configs(8_000.0, 40_000.0, 4e-3);
        assert!(cands
            .iter()
            .any(|c| c.l_order == 8 && c.pqam_order == 16 && (c.t_slot - 0.5e-3).abs() < 1e-9));
    }

    #[test]
    fn candidates_respect_rate() {
        for c in candidate_configs(4_000.0, 40_000.0, 4e-3) {
            assert!((c.data_rate() - 4_000.0).abs() < 1.0, "{c:?}");
        }
    }
}
