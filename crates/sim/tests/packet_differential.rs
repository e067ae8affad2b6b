//! Differential tests for the packet pipeline.
//!
//! Every field packet is the §7.3 composition: `render_clean` (snapshot/
//! restore SoA kernel) → `packet_unit_noise` → `synth_rx_renoise` (in-place
//! channel, σ-scaled cached normals, reused buffers) → `decode`. Its
//! received waveform must be bit-identical to `synth_rx_reference` (panel
//! clone, scalar ODE loop, live noise draws, fresh allocations) across
//! channel conditions, and whole packets (`run_packet`) must reach the
//! decisions of the one packet oracle, `run_packet_scalar_reference`
//! (reference synthesis and reference receiver kernels).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retroturbo_core::PhyConfig;
use retroturbo_sim::link::LinkSimulator;
use retroturbo_sim::scene::{AmbientLight, HumanMobility, Scene};
use retroturbo_sim::LinkBudget;

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

fn scenes() -> Vec<(&'static str, Scene)> {
    let mut busy = Scene::default_at(3.0);
    busy.ambient = AmbientLight::Day;
    busy.mobility = HumanMobility::ThreeWalkers;
    vec![
        ("near", Scene::default_at(2.0)),
        ("rolled", Scene::default_at(3.0).with_roll(67.0)),
        ("yawed", Scene::default_at(2.0).with_yaw(30.0)),
        ("busy", busy),
        // Yaw past the retro cutoff: infinite-loss branch (pure noise).
        ("cutoff", Scene::default_at(2.0).with_yaw(65.0)),
    ]
}

fn random_bits(seed: u64, n: usize) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

#[test]
fn renoised_render_bitwise_matches_reference_across_scenes() {
    for (name, scene) in scenes() {
        let sim = LinkSimulator::new(small_cfg(), LinkBudget::fov10(), scene, 11);
        let mut scratch = sim.make_scratch();
        for pkt_seed in 0..3u64 {
            let bits = random_bits(1000 + pkt_seed, 16 * 8);
            let clean = sim.render_clean(&mut scratch, &bits);
            let unit = sim.packet_unit_noise(clean.len(), pkt_seed);
            let composed = sim.synth_rx_renoise(&mut scratch, &clean, &unit, pkt_seed);
            let refr = sim.synth_rx_reference(&bits, pkt_seed);
            assert_eq!(composed.len(), refr.len(), "{name}: length");
            for (i, (a, b)) in composed.samples().iter().zip(refr.samples()).enumerate() {
                assert_eq!(
                    a.re.to_bits(),
                    b.re.to_bits(),
                    "{name}: pkt {pkt_seed} sample {i} re: {} vs {}",
                    a.re,
                    b.re
                );
                assert_eq!(
                    a.im.to_bits(),
                    b.im.to_bits(),
                    "{name}: pkt {pkt_seed} sample {i} im: {} vs {}",
                    a.im,
                    b.im
                );
            }
            // Hand the buffer back so later packets exercise the reuse path
            // (resize of an already-sized buffer, stale contents overwritten).
            scratch.give_back(composed.into_samples());
        }
    }
}

#[test]
fn packet_outcomes_match_reference_across_scenes() {
    for (name, scene) in scenes() {
        let sim = LinkSimulator::new(small_cfg(), LinkBudget::fov10(), scene, 23);
        let mut scratch = sim.make_scratch();
        for pkt_seed in 0..2u64 {
            let bits = random_bits(2000 + pkt_seed, 16 * 8);
            let prod = sim.run_packet(&mut scratch, &bits, pkt_seed);
            let refr = sim.run_packet_scalar_reference(&bits, pkt_seed);
            assert_eq!(prod.detected, refr.detected, "{name}: detected");
            assert_eq!(prod.bit_errors, refr.bit_errors, "{name}: bit_errors");
            assert_eq!(prod.bits, refr.bits, "{name}: bits");
            assert_eq!(
                prod.snr_db.to_bits(),
                refr.snr_db.to_bits(),
                "{name}: snr_db"
            );
        }
    }
}
