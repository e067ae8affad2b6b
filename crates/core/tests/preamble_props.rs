//! Property test: the certified preamble scan (`detect_in`) returns exactly
//! what the per-offset oracle (`detect_in_reference`) returns — same
//! offset, same score bits, same α/β/γ bits, same `None`-ness — across
//! noise-only, clean, low-SNR, rotated, I/Q-imbalanced and DC-offset
//! signals, adjacent frames, block edges and constant stretches.

use proptest::prelude::*;
use retroturbo_core::{Modulator, PhyConfig, PreambleDetector, PreambleMatch, TagModel};
use retroturbo_dsp::noise::NoiseSource;
use retroturbo_dsp::{Signal, C64};
use retroturbo_lcm::LcParams;

/// The framer's scan block.
const BLOCK: usize = 512;

fn cfg(l: usize) -> PhyConfig {
    PhyConfig {
        l_order: l,
        pqam_order: 16,
        t_slot: 0.5e-3,
        fs: 40_000.0,
        v_memory: 3,
        k_branches: 8,
        preamble_slots: 4 * l,
        training_rounds: 2,
    }
}

fn same(a: &Option<PreambleMatch>, b: &Option<PreambleMatch>) -> bool {
    let bits = |z: C64| (z.re.to_bits(), z.im.to_bits());
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.offset == b.offset
                && a.score.to_bits() == b.score.to_bits()
                && bits(a.fit.alpha) == bits(b.fit.alpha)
                && bits(a.fit.beta) == bits(b.fit.beta)
                && bits(a.fit.gamma) == bits(b.fit.gamma)
        }
        _ => false,
    }
}

/// A stream of `frames` back-to-back preambles (no gap when `adjacent`,
/// otherwise a rest-level gap) after `pad` rest samples, through
/// `z = α·w + β·w* + γ`, plus noise `sigma` (0 leaves the rest level
/// exactly constant).
#[allow(clippy::too_many_arguments)]
fn stream(
    c: &PhyConfig,
    pad: usize,
    frames: usize,
    adjacent: bool,
    alpha: C64,
    beta: C64,
    gamma: C64,
    sigma: f64,
    seed: u64,
) -> Signal {
    let model = TagModel::nominal(c, &LcParams::default());
    let mut levels = vec![(0usize, 0usize); pad.div_ceil(c.samples_per_slot())];
    for f in 0..frames {
        levels.extend(Modulator::preamble_levels(c));
        levels.extend((0..c.l_order).map(|i| ((i + f) % 4, (3 * i + f) % 4)));
        if !adjacent {
            levels.extend(vec![(0, 0); 3 * c.l_order]);
        }
    }
    levels.extend(vec![(0, 0); 2 * c.preamble_slots]);
    let wave = model.render_levels(&levels);
    let mut samples: Vec<C64> = wave
        .iter()
        .map(|&w| alpha * w + beta * w.conj() + gamma)
        .collect();
    if sigma > 0.0 {
        NoiseSource::new(seed).add_awgn(&mut samples, sigma);
    }
    Signal::new(samples, c.fs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn certified_scan_is_bit_identical_to_reference(
        l in prop_oneof_l(),
        frames in 0usize..3,
        adjacent in any::<bool>(),
        pad in 0usize..700,
        gain in 0.05f64..3.0,
        rot in 0.0f64..6.3,
        imbalance in 0.0f64..0.3,
        dc in (-2.0f64..2.0, -2.0f64..2.0),
        snr_pick in 0usize..5,
        seed in any::<u64>(),
        from in 0usize..900,
        len_pick in 0usize..4,
    ) {
        let c = cfg(l);
        let det = PreambleDetector::new(&c, &TagModel::nominal(&c, &LcParams::default()));
        let alpha = C64::from_polar(gain, rot);
        let beta = alpha * C64::from_polar(imbalance, 1.7 * rot);
        // Noise-free (constant rest level), clean, moderate, low SNR, and
        // below 0 dB per sample.
        let sigma = [0.0, 0.003, 0.05, 0.3, 1.2][snr_pick] * gain;
        let rx = stream(&c, pad, frames, adjacent, alpha, beta, C64::new(dc.0, dc.1), sigma, seed);
        // A framer block, a refinement-sized window, a single offset, or
        // everything from `from` on (ranges may run past the signal).
        let len = [BLOCK, 2 * c.samples_per_slot() + 1, 1, rx.len()][len_pick];
        let to = from + len;
        let want = det.detect_in_reference(&rx, from, to);
        let got = det.detect_in(&rx, from, to);
        prop_assert!(same(&want, &got), "[{from}, {to}): reference {want:?} vs certified {got:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The streaming framer skips its one-slot refinement rescan when a
    /// block hit lies at least one slot inside the block. That is sound
    /// because the rescan's range is then a subset of the block containing
    /// the hit, so the block's first minimum is the subset's first minimum:
    /// the rescan returns the same offset with the same score bits.
    #[test]
    fn interior_hit_survives_its_one_slot_rescan(
        l in prop_oneof_l(),
        frames in 1usize..3,
        adjacent in any::<bool>(),
        pad in 0usize..700,
        gain in 0.05f64..3.0,
        rot in 0.0f64..6.3,
        snr_pick in 0usize..4,
        seed in any::<u64>(),
        back in 0usize..BLOCK,
    ) {
        let c = cfg(l);
        let spt = c.samples_per_slot();
        // Blocks opening `back` samples before the first frame start: the
        // hit sits inside the block, or within a slot of either edge.
        let from = (pad.div_ceil(spt) * spt).saturating_sub(back);
        let det = PreambleDetector::new(&c, &TagModel::nominal(&c, &LcParams::default()));
        let alpha = C64::from_polar(gain, rot);
        let sigma = [0.0, 0.003, 0.05, 0.3][snr_pick] * gain;
        let rx = stream(&c, pad, frames, adjacent, alpha, C64::default(), C64::new(0.3, -0.1), sigma, seed);
        let to = from + BLOCK;
        if let Some(hit) = det.detect_in(&rx, from, to) {
            let off = hit.offset;
            if from + spt <= off && off + spt < to {
                let again = det.detect_in(&rx, off - spt, off + spt + 1);
                prop_assert!(same(&Some(hit), &again), "[{from}, {to}): block {hit:?} vs rescan {again:?}");
            }
        }
    }
}

/// The L orders under test (two reference lengths and skips).
fn prop_oneof_l() -> impl Strategy<Value = usize> {
    (0usize..2).prop_map(|i| [2, 4][i])
}
