//! Quickstart: one DSM×PQAM packet through the full physical simulation.
//!
//! Builds the paper's default 8 kbps PHY (8-DSM, 16-PQAM, T = 0.5 ms),
//! drives a heterogeneous LCM panel with a 32-byte payload, distorts the
//! light through a rolled, noisy indoor channel, and runs the complete
//! receive pipeline: preamble detection + rotation correction, per-packet
//! channel training, and the 16-branch decision-feedback equalizer.
//!
//! Run with: `cargo run --release --example quickstart`

use retroturbo::dsp::noise::{sigma_for_snr, NoiseSource};
use retroturbo::dsp::{Signal, C64};
use retroturbo::lcm::{Heterogeneity, LcParams, Panel};
use retroturbo::phy::{Modulator, PhyConfig, Receiver};

fn main() {
    // --- Configuration: the paper's default 8 kbps operating point. ---
    let cfg = PhyConfig::default_8kbps();
    println!(
        "PHY: {}-DSM x {}-PQAM, T = {} ms  =>  {} kbit/s",
        cfg.l_order,
        cfg.pqam_order,
        cfg.t_slot * 1e3,
        cfg.data_rate() / 1e3
    );

    // --- Tag side: modulate a payload and drive the physical panel. ---
    let payload = b"RetroTurbo says hi over backscattered light!";
    let bits: Vec<bool> = retroturbo::coding::bytes_to_bits(payload);
    let modulator = Modulator::new(cfg);
    let frame = modulator.modulate(&bits);
    println!(
        "frame: {} preamble + {} training + {} payload slots ({:.0} ms airtime)",
        frame.preamble_slots,
        frame.training_slots,
        frame.payload_slots,
        frame.total_slots() as f64 * cfg.t_slot * 1e3
    );

    let mut panel = Panel::retroturbo(
        cfg.l_order,
        cfg.bits_per_module(),
        LcParams::default(),
        Heterogeneity::typical(), // manufacturing spread the trainer must absorb
        42,
    );
    let wave = panel.simulate(
        &frame.drive_commands(&cfg),
        frame.total_slots() * cfg.samples_per_slot(),
        cfg.fs,
    );

    // --- Channel: 25° roll (50° constellation rotation), 32 dB SNR. ---
    let roll_deg = 25.0f64;
    let snr_db = 32.0;
    let rot = C64::cis(2.0 * roll_deg.to_radians());
    let pad = 350usize;
    let mut samples = vec![rot * C64::new(-1.0, -1.0); pad];
    samples.extend(wave.samples().iter().map(|&z| rot * z));
    let mut sig = Signal::new(samples, cfg.fs);
    let mut noise = NoiseSource::new(7);
    noise.add_awgn(sig.samples_mut(), sigma_for_snr(snr_db, 1.0));
    println!("channel: roll {roll_deg} deg, SNR {snr_db} dB");

    // --- Reader side: detect, correct, train, equalize. ---
    let receiver = Receiver::new(cfg, &LcParams::default(), 3);
    let result = receiver
        .receive_window(&sig, 0, sig.len(), bits.len())
        .expect("no preamble found");
    println!(
        "detected frame at sample {} (score {:.4})",
        result.offset, result.preamble_residual
    );

    let recovered = retroturbo::coding::bits_to_bytes(&result.bits);
    let errors = result
        .bits
        .iter()
        .zip(&bits)
        .filter(|(a, b)| a != b)
        .count();
    println!("bit errors: {errors} / {}", bits.len());
    println!(
        "payload: {}",
        String::from_utf8_lossy(&recovered[..payload.len()])
    );
    assert_eq!(errors, 0, "expected a clean decode at 32 dB");
}
