//! End-to-end contract of the backend tiers (DESIGN.md §13).
//!
//! The Simd tier must be bit-identical to Scalar through the whole link —
//! same received waveform bits, same decode outcomes — across the same
//! scene matrix the fused/reference differential uses. Because the tiers
//! render the same bits, the sweep engine's render cache shares one key
//! across them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retroturbo_core::PhyConfig;
use retroturbo_dsp::{backend, Backend};
use retroturbo_sim::link::LinkSimulator;
use retroturbo_sim::scene::{AmbientLight, HumanMobility, Scene};
use retroturbo_sim::sweep::workloads::{BerOut, FieldOracle, FieldSweep};
use retroturbo_sim::{GridPoint, LinkBudget, SweepWorkload};

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
        ("busy", busy),
    ]
}

fn random_bits(seed: u64, n: usize) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// Simd tier: waveform bits and decode outcomes must equal the Scalar
/// tier's exactly, scene by scene. On hosts without AVX2 the Simd tier
/// falls back to the scalar kernels, so the test degenerates to
/// scalar-vs-scalar (still a valid, if trivial, pass).
#[test]
fn simd_tier_bit_identical_across_scenes() {
    if !backend::simd_available() {
        eprintln!("simd unavailable on this host: comparing scalar fallback");
    }
    for (name, scene) in scenes() {
        let sim_s = LinkSimulator::new(small_cfg(), LinkBudget::fov10(), scene, 11)
            .with_backend(Backend::Scalar);
        let sim_v = LinkSimulator::new(small_cfg(), LinkBudget::fov10(), scene, 11)
            .with_backend(Backend::Simd);
        let mut scr_s = sim_s.make_scratch();
        let mut scr_v = sim_v.make_scratch();
        for pkt_seed in 0..2u64 {
            let bits = random_bits(4000 + pkt_seed, 16 * 8);
            let ws = sim_s.synth_rx(&mut scr_s, &bits, pkt_seed);
            let wv = sim_v.synth_rx(&mut scr_v, &bits, pkt_seed);
            assert_eq!(ws.len(), wv.len(), "{name}: length");
            for (i, (a, b)) in ws.samples().iter().zip(wv.samples()).enumerate() {
                assert_eq!(
                    a.re.to_bits(),
                    b.re.to_bits(),
                    "{name}: pkt {pkt_seed} sample {i} re"
                );
                assert_eq!(
                    a.im.to_bits(),
                    b.im.to_bits(),
                    "{name}: pkt {pkt_seed} sample {i} im"
                );
            }
            scr_s.give_back(ws.into_samples());
            scr_v.give_back(wv.into_samples());
            let os = sim_s.run_packet(&mut scr_s, &bits, pkt_seed);
            let ov = sim_v.run_packet(&mut scr_v, &bits, pkt_seed);
            assert_eq!(os.detected, ov.detected, "{name}: detected");
            assert_eq!(os.bit_errors, ov.bit_errors, "{name}: bit_errors");
            assert_eq!(os.bits, ov.bits, "{name}: bits");
            assert_eq!(os.snr_db.to_bits(), ov.snr_db.to_bits(), "{name}: snr_db");
        }
    }
}

fn tier_sweep(bk: Backend) -> FieldSweep<impl Fn(usize, f64) -> LinkSimulator + Sync> {
    FieldSweep {
        make: move |_, d| {
            LinkSimulator::new(small_cfg(), LinkBudget::fov10(), Scene::default_at(d), 7)
                .with_backend(bk)
        },
        n_packets: 3,
        payload_bytes: 16,
        oracle: FieldOracle::Fused,
    }
}

fn ber_bits(o: &BerOut) -> (u64, u64) {
    (o.ber.to_bits(), o.snr_db.to_bits())
}

/// One render key across tiers: a Scalar-backed and a Simd-backed field
/// sweep fingerprint the same render, and a render cached by either tier
/// measures to the same bits on both — as does the uncached path.
#[test]
fn field_sweep_render_key_shared_across_tiers() {
    let ws = tier_sweep(Backend::Scalar);
    let wv = tier_sweep(Backend::Simd);
    for (i, &d) in [2.0, 6.0, 9.0].iter().enumerate() {
        let p = GridPoint {
            curve: 0,
            x: d,
            seed: i as u64,
            round: 0,
        };
        assert_eq!(ws.render_key(&p), wv.render_key(&p), "d={d}: render key");
        let rs = ws.render(&p);
        let rv = wv.render(&p);
        let want = ber_bits(&ws.measure(&p, Some(&rs)));
        for (what, got) in [
            ("simd on scalar render", wv.measure(&p, Some(&rs))),
            ("scalar on simd render", ws.measure(&p, Some(&rv))),
            ("scalar uncached", ws.measure(&p, None)),
            ("simd uncached", wv.measure(&p, None)),
        ] {
            assert_eq!(ber_bits(&got), want, "d={d}: {what}");
        }
    }
}
