//! Cross-crate integration tests: full packets through the complete system.

use retroturbo::coding::{bits_to_bytes, bytes_to_bits};
use retroturbo::dsp::noise::{sigma_for_snr, NoiseSource};
use retroturbo::dsp::{Signal, C64};
use retroturbo::lcm::{Heterogeneity, LcParams, Panel};
use retroturbo::mac::{stop_and_wait, CodingChoice};
use retroturbo::phy::{Modulator, PhyConfig, Receiver};
use retroturbo::sim::{EmulatedLink, LinkBudget, LinkSimulator, Scene};

fn small_cfg() -> PhyConfig {
    PhyConfig {
        l_order: 4,
        pqam_order: 16,
        t_slot: 0.5e-3,
        fs: 40_000.0,
        v_memory: 3,
        k_branches: 8,
        preamble_slots: 12,
        training_rounds: 4,
    }
}

/// The full physical pipeline — panel ODE, rotated channel, AWGN, blind
/// preamble search, training, DFE — round-trips a byte payload.
#[test]
fn physical_link_round_trip() {
    let cfg = small_cfg();
    let payload = b"integration across all seven crates";
    let bits = bytes_to_bits(payload);

    let modulator = Modulator::new(cfg);
    let frame = modulator.modulate(&bits);
    let mut panel = Panel::retroturbo(
        cfg.l_order,
        cfg.bits_per_module(),
        LcParams::default(),
        Heterogeneity::typical(),
        3,
    );
    let wave = panel.simulate(
        &frame.drive_commands(&cfg),
        frame.total_slots() * cfg.samples_per_slot(),
        cfg.fs,
    );

    let rot = C64::cis(2.0 * 40f64.to_radians());
    let pad = 333;
    let mut samples = vec![rot * C64::new(-1.0, -1.0) * 0.7; pad];
    samples.extend(wave.samples().iter().map(|&z| rot * z * 0.7));
    let mut sig = Signal::new(samples, cfg.fs);
    NoiseSource::new(5).add_awgn(sig.samples_mut(), sigma_for_snr(33.0, 0.7));

    let rx = Receiver::new(cfg, &LcParams::default(), 3);
    let out = rx
        .receive_window(&sig, 0, sig.len(), bits.len())
        .expect("preamble not found");
    assert_eq!(out.offset, pad);
    // The paper's reliability criterion: BER below 1% (ECC + ARQ clean the
    // rest); this tag/roll/SNR combination sits near the residual floor.
    let errs = out.bits.iter().zip(&bits).filter(|(a, b)| a != b).count();
    assert!(
        errs * 100 < bits.len(),
        "BER {} above 1%",
        errs as f64 / bits.len() as f64
    );
    let _ = bits_to_bytes(&out.bits);
}

/// Higher-order configurations round-trip too (the 16 kbps tag maximum).
#[test]
fn high_order_256_pqam_round_trip() {
    let mut cfg = PhyConfig::default_16kbps();
    cfg.l_order = 4;
    cfg.preamble_slots = 12;
    cfg.training_rounds = 4;
    let bits: Vec<bool> = (0..160).map(|i| (i * 13) % 7 < 3).collect();
    let mut link = EmulatedLink::new(cfg, 50.0, 8);
    let out = link.transmit_once(&bits).expect("frame lost");
    assert_eq!(out, bits);
}

/// MAC + PHY: Reed–Solomon-coded ARQ delivers over a noisy emulated link
/// where raw packets fail.
#[test]
fn coded_arq_beats_raw_near_threshold() {
    let cfg = small_cfg();
    let snr = 25.0; // clearly below the ~28 dB raw threshold
    let payload: Vec<u8> = (0..48).map(|i| (i * 7) as u8).collect();

    let mut raw_fail = 0;
    let mut link = EmulatedLink::new(cfg, snr, 11);
    for _ in 0..6 {
        let s = stop_and_wait(&mut link, &payload, None, 0x5B, 1);
        if !s.delivered {
            raw_fail += 1;
        }
    }
    let mut link2 = EmulatedLink::new(cfg, snr, 11);
    let mut coded_ok = 0;
    for _ in 0..6 {
        let s = stop_and_wait(
            &mut link2,
            &payload,
            Some(CodingChoice { n: 100, k: 50 }),
            0x5B,
            4,
        );
        if s.delivered {
            coded_ok += 1;
        }
    }
    assert!(
        raw_fail >= 2,
        "raw link suspiciously clean: {raw_fail}/6 failed"
    );
    assert_eq!(coded_ok, 6, "coded ARQ should always get through");
}

/// The sim crate's working-range behaviour matches the link budget: below
/// the 8 kbps threshold distance the link is reliable, far beyond it fails.
#[test]
fn working_range_bracket() {
    let cfg = small_cfg();
    let mut near = LinkSimulator::new(cfg, LinkBudget::fov10(), Scene::default_at(4.0), 2);
    let mut far = LinkSimulator::new(cfg, LinkBudget::fov10(), Scene::default_at(16.0), 2);
    assert!(near.run_ber(3, 16) < 0.01);
    assert!(far.run_ber(3, 16) > 0.05);
}

/// OOK baseline sanity: works, but 32× slower than the 8 kbps DSM×PQAM link.
#[test]
fn ook_baseline_rate_gap() {
    use retroturbo::phy::baselines::OokPhy;
    let ook = OokPhy::default();
    assert!((PhyConfig::default_8kbps().data_rate() / ook.data_rate() - 32.0).abs() < 1e-9);

    let mut panel = Panel::retroturbo(1, 1, LcParams::default(), Heterogeneity::none(), 0);
    let bits: Vec<bool> = (0..24).map(|i| (i * 3) % 2 == 0).collect();
    let mut wave = panel.simulate(
        &ook.drive(&bits, 1, 1),
        bits.len() * ook.samples_per_bit(),
        ook.fs,
    );
    NoiseSource::new(1).add_awgn(wave.samples_mut(), 0.3);
    assert_eq!(ook.demodulate(&wave, bits.len()), bits);
}

/// Determinism: the same seeds reproduce the same BER, bit for bit.
#[test]
fn experiments_are_deterministic() {
    let cfg = small_cfg();
    let b1 = LinkSimulator::new(cfg, LinkBudget::fov10(), Scene::default_at(7.0), 9).run_ber(3, 16);
    let b2 = LinkSimulator::new(cfg, LinkBudget::fov10(), Scene::default_at(7.0), 9).run_ber(3, 16);
    assert_eq!(b1, b2);
}
