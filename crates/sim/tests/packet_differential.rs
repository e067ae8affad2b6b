//! Differential tests for the fused packet pipeline.
//!
//! `LinkSimulator::synth_rx` (snapshot/restore SoA kernel, in-place channel,
//! reused buffers) must produce a received waveform bit-identical to
//! `synth_rx_reference` (panel clone, scalar ODE loop, fresh allocations)
//! across channel conditions. Whole packets are checked against the one
//! packet oracle, `run_packet_scalar_reference` (reference synthesis and
//! reference receiver kernels), and the cached-render composition the sweep
//! engine uses (`synth_rx_renoise` + `decode`) against `run_packet`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retroturbo_core::PhyConfig;
use retroturbo_sim::link::{LinkSimulator, PacketScratch};
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
fn synth_rx_bitwise_matches_reference_across_scenes() {
    for (name, scene) in scenes() {
        let sim = LinkSimulator::new(small_cfg(), LinkBudget::fov10(), scene, 11);
        let mut scratch = sim.make_scratch();
        for pkt_seed in 0..3u64 {
            let bits = random_bits(1000 + pkt_seed, 16 * 8);
            let fused = sim.synth_rx(&mut scratch, &bits, pkt_seed);
            let refr = sim.synth_rx_reference(&bits, pkt_seed);
            assert_eq!(fused.len(), refr.len(), "{name}: length");
            for (i, (a, b)) in fused.samples().iter().zip(refr.samples()).enumerate() {
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
            // Hand the buffer back so packet 2 exercises the reuse path
            // (resize of an already-sized buffer, stale contents overwritten).
            scratch_restore(&mut scratch, fused);
        }
    }
}

/// Return the signal's buffer to the scratch the way `run_packet` does.
fn scratch_restore(scratch: &mut PacketScratch, sig: retroturbo_dsp::Signal) {
    scratch.give_back(sig.into_samples());
}

#[test]
fn packet_outcomes_match_reference_across_scenes() {
    for (name, scene) in scenes() {
        let sim = LinkSimulator::new(small_cfg(), LinkBudget::fov10(), scene, 23);
        let mut scratch = sim.make_scratch();
        for pkt_seed in 0..2u64 {
            let bits = random_bits(2000 + pkt_seed, 16 * 8);
            let fused = sim.run_packet(&mut scratch, &bits, pkt_seed);
            let refr = sim.run_packet_scalar_reference(&bits, pkt_seed);
            // The sweep engine's cache-hit composition: cached clean render
            // and unit noise, re-noised, then the reader half alone.
            let clean = sim.render_clean(&mut scratch, &bits);
            let unit = sim.packet_unit_noise(clean.len(), pkt_seed);
            let sig = sim.synth_rx_renoise(&mut scratch, &clean, &unit, pkt_seed);
            let cached = sim.decode(&sig, &bits);
            scratch_restore(&mut scratch, sig);
            for (path, o) in [("reference", refr), ("cached", cached)] {
                assert_eq!(fused.detected, o.detected, "{name}/{path}: detected");
                assert_eq!(fused.bit_errors, o.bit_errors, "{name}/{path}: bit_errors");
                assert_eq!(fused.bits, o.bits, "{name}/{path}: bits");
                assert_eq!(
                    fused.snr_db.to_bits(),
                    o.snr_db.to_bits(),
                    "{name}/{path}: snr_db"
                );
            }
        }
    }
}
