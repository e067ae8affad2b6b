//! Property tests for the factorized DFE beam: across DSM orders, memory
//! depths, constellation orders, beam widths, tracking modes and random
//! channel impairments, the Gram scoring path must produce decisions
//! identical to the reference oracle and costs within 1e-9 relative. The
//! production beam keys its predictions off per-module history registers
//! whose width, count and bit-planes follow V, L and P, so all three vary.

use proptest::prelude::*;
use retroturbo_core::{Equalizer, Modulator, PhyConfig, TagModel};
use retroturbo_dsp::noise::NoiseSource;
use retroturbo_dsp::C64;
use retroturbo_lcm::LcParams;

fn cfg(l: usize, p: usize, v: usize, k: usize) -> PhyConfig {
    PhyConfig {
        l_order: l,
        pqam_order: p,
        t_slot: 0.5e-3,
        fs: 40_000.0,
        v_memory: v,
        k_branches: k,
        preamble_slots: 2 * l.max(2),
        training_rounds: 2,
    }
}

/// Render a frame, impair it with a fixed rotation + DC offset (the residuals
/// the preamble correction leaves behind) and optional AWGN, then equalize
/// through both paths.
fn check(c: PhyConfig, rot: f64, dc: C64, sigma: f64, track: Option<usize>, seed: u64) {
    let model = TagModel::nominal(&c, &LcParams::default());
    let m = Modulator::new(c);
    let bits: Vec<bool> = (0..48)
        .map(|i| ((seed >> (i % 13)) ^ (i as u64 * 7)) & 1 == 1)
        .collect();
    let frame = m.modulate(&bits);
    let wave = model.render_levels(&frame.levels);
    let g = C64::cis(rot);
    let mut rx: Vec<C64> = wave.iter().map(|&z| g * z + dc).collect();
    if sigma > 0.0 {
        let mut ns = NoiseSource::new(seed);
        ns.add_awgn(&mut rx, sigma);
    }
    let known = &frame.levels[..frame.payload_start()];
    let mut eq = Equalizer::new(c);
    if let Some(b) = track {
        eq = eq.with_tracking(b);
    }
    let (fast, cf) = eq.equalize_with_cost(&rx, &model, known, frame.payload_slots);
    let (slow, cs) = eq.equalize_reference_with_cost(&rx, &model, known, frame.payload_slots);
    assert_eq!(
        fast, slow,
        "decision divergence: L={} P={} V={} K={} track={:?} rot={rot} dc={dc} sigma={sigma} seed={seed}",
        c.l_order, c.pqam_order, c.v_memory, c.k_branches, track
    );
    let denom = cs.abs().max(1e-12);
    assert!(
        (cf - cs).abs() / denom <= 1e-9,
        "cost drift {cf} vs {cs}: L={} P={} V={} K={} track={:?}",
        c.l_order,
        c.pqam_order,
        c.v_memory,
        c.k_branches,
        track
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Untracked beam: key-grouped prediction and factorized scoring stay
    /// decision-identical to the reference under random impairments.
    #[test]
    fn untracked_beam_matches_reference(
        li in 0usize..4,
        pi in 0usize..4,
        v in 1usize..4,
        ki in 0usize..3,
        rot in -0.6f64..0.6,
        dc_re in -0.2f64..0.2,
        dc_im in -0.2f64..0.2,
        sigma in 0.0f64..0.3,
        seed in 0u64..1_000_000,
    ) {
        let c = cfg([1, 2, 4, 8][li], [2, 4, 16, 256][pi], v, [1, 4, 16][ki]);
        check(c, rot, C64::new(dc_re, dc_im), sigma, None, seed);
    }

    /// Tracked beam (`track_block = Some(b)`): gain feedback forces the
    /// natural fold order and the winner-reuse path; still identical.
    #[test]
    fn tracked_beam_matches_reference(
        li in 0usize..4,
        pi in 0usize..4,
        v in 1usize..4,
        ki in 0usize..3,
        block in 1usize..5,
        rot in -0.6f64..0.6,
        dc_re in -0.2f64..0.2,
        dc_im in -0.2f64..0.2,
        sigma in 0.0f64..0.3,
        seed in 0u64..1_000_000,
    ) {
        let c = cfg([1, 2, 4, 8][li], [2, 4, 16, 256][pi], v, [1, 4, 16][ki]);
        check(c, rot, C64::new(dc_re, dc_im), sigma, Some(block), seed);
    }
}
