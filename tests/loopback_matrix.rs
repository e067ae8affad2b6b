//! Loopback smoke matrix: every supported DSM depth × PQAM order crossed
//! with channel quality, through the complete stack — MAC protect (CRC +
//! scramble + RS), modulate, tag waveform synthesis, a rotated/attenuated
//! channel with a DC offset and AWGN, blind preamble search, receive, and
//! MAC recover.
//!
//! The contract per cell: at high SNR the raw demodulated bits are exactly
//! the transmitted bits (BER = 0 before any coding), and at moderate SNR
//! the coded frame still delivers. A regression anywhere in the chain —
//! constellation, pulse bank, preamble correction, DFE, or the byte layer —
//! shows up as a named failing cell.

use retroturbo::coding::RsCode;
use retroturbo::dsp::noise::{sigma_for_snr, NoiseSource};
use retroturbo::dsp::{Signal, C64};
use retroturbo::lcm::LcParams;
use retroturbo::mac::{protect, recover, recover_with_quality, CodingChoice};
use retroturbo::phy::{Modulator, PhyConfig, Receiver, TagModel};
use retroturbo::sim::fleet::{
    capture_decode, superpose, CaptureDecision, CaptureRule, TagDecode, TagWave,
};

/// The channel every cell goes through: a 2×25° polarisation rotation,
/// 0.8 gain, a complex DC offset (ambient light), and — when `snr_db` is
/// finite — AWGN at the stated SNR.
const GAIN: f64 = 0.8;
const ROT_DEG: f64 = 25.0;
const DC: (f64, f64) = (0.12, -0.07);

fn cfg_for(l_order: usize, pqam_order: usize) -> PhyConfig {
    PhyConfig {
        l_order,
        pqam_order,
        t_slot: 0.5e-3,
        fs: 40_000.0,
        v_memory: 3,
        k_branches: 8,
        // Keep the preamble ≥ 2·L for the widely-linear correction window.
        preamble_slots: 12,
        training_rounds: 2,
    }
}

/// Run one matrix cell; returns (raw bit errors, recovered payload).
fn run_cell(l_order: usize, pqam_order: usize, snr_db: f64, seed: u64) -> (usize, Option<Vec<u8>>) {
    let cfg = cfg_for(l_order, pqam_order);
    let params = LcParams::default();
    let payload: Vec<u8> = (0..20).map(|i| (i * 29 + 3) as u8).collect();
    let coding = CodingChoice { n: 44, k: 22 }; // payload + CRC16 = 22 bytes
    let bits = protect(&payload, Some(coding), 0x5B);

    let modulator = Modulator::new(cfg);
    let frame = modulator.modulate(&bits);
    let model = TagModel::nominal(&cfg, &params);
    let wave = model.render_levels(&frame.levels);

    let g = C64::from_polar(GAIN, (2.0 * ROT_DEG).to_radians());
    let dc = C64::new(DC.0, DC.1);
    let pad = 177;
    // Pre-frame idle: both axes at rest (−1 − j), through the same channel.
    let mut samples = vec![g * C64::new(-1.0, -1.0) + dc; pad];
    samples.extend(wave.iter().map(|&z| g * z + dc));
    let mut sig = Signal::new(samples, cfg.fs);
    if snr_db.is_finite() {
        NoiseSource::new(seed).add_awgn(sig.samples_mut(), sigma_for_snr(snr_db, GAIN));
    }

    let rx = Receiver::new_cached(cfg, &params, 1);
    let out = rx
        .receive_window(&sig, 0, sig.len(), bits.len())
        .unwrap_or_else(|e| panic!("L={l_order} P={pqam_order} snr={snr_db}: preamble: {e:?}"));
    assert_eq!(
        out.offset, pad,
        "L={l_order} P={pqam_order} snr={snr_db}: wrong frame offset"
    );
    let errs = out.bits.iter().zip(&bits).filter(|(a, b)| a != b).count();
    let rec = recover(&out.bits, payload.len(), Some(coding), 0x5B);
    (errs, rec)
}

fn expected_payload() -> Vec<u8> {
    (0..20).map(|i| (i * 29 + 3) as u8).collect()
}

/// Clean channel (rotation + gain + DC but no noise): zero raw bit errors
/// in every cell of the L × P matrix.
#[test]
fn clean_matrix_is_error_free() {
    for &l in &[2usize, 4] {
        for &p in &[2usize, 4, 16] {
            let (errs, rec) = run_cell(l, p, f64::INFINITY, 0);
            assert_eq!(errs, 0, "L={l} P={p} clean: raw bit errors");
            assert_eq!(
                rec.as_deref(),
                Some(&expected_payload()[..]),
                "L={l} P={p} clean: recover failed"
            );
        }
    }
}

/// High SNR (40 dB): still zero raw bit errors everywhere — the paper's
/// emulation regime where all orders decode cleanly.
#[test]
fn high_snr_matrix_is_error_free() {
    for &l in &[2usize, 4] {
        for &p in &[2usize, 4, 16] {
            let (errs, rec) = run_cell(l, p, 40.0, 11);
            assert_eq!(errs, 0, "L={l} P={p} 40dB: raw bit errors");
            assert_eq!(
                rec.as_deref(),
                Some(&expected_payload()[..]),
                "L={l} P={p} 40dB: recover failed"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2-tag collision column: capture-effect decoding on the shared photodiode
// ---------------------------------------------------------------------------

const CODING: CodingChoice = CodingChoice { n: 44, k: 22 };
const SCRAMBLE: u8 = 0x5B;

fn weak_payload() -> Vec<u8> {
    (0..20).map(|i| (i * 17 + 11) as u8).collect()
}

/// Collision cells use the interference-hardened receiver settings the
/// two-tag SIC experiment profiles (longer DFE training, wider branch
/// search): the capture winner decodes *through* the weaker tag's
/// interference, and the short 2-round training is not enough for that.
fn collision_cfg() -> PhyConfig {
    PhyConfig {
        training_rounds: 6,
        k_branches: 16,
        ..cfg_for(2, 4)
    }
}

/// One 2-tag collision cell at L=2/P=4: the weak (far) tag's frame starts
/// at the pad; the strong (near) tag arrives late and stomps the weak
/// frame's last `ov_slots` payload slots with a `pr_db` power advantage.
/// Both frames superimpose on the shared photodiode (rest-state reflections
/// included) through distinct polarisation channels, then the usual DC
/// offset and — when finite — AWGN at `snr_db` relative to the strong tag.
/// Returns the capture decision and both decodes (strong first).
fn run_collision_cell(
    snr_db: f64,
    pr_db: f64,
    ov_slots: usize,
    seed: u64,
) -> (CaptureDecision, Vec<TagDecode>, usize) {
    let cfg = collision_cfg();
    let params = LcParams::default();
    let bits_a = protect(&expected_payload(), Some(CODING), SCRAMBLE);
    let bits_b = protect(&weak_payload(), Some(CODING), SCRAMBLE);

    let modulator = Modulator::new(cfg);
    let model = TagModel::nominal(&cfg, &params);
    let frame_a = modulator.modulate(&bits_a);
    let frame_b = modulator.modulate(&bits_b);
    let wave_a = model.render_levels(&frame_a.levels);
    let wave_b = model.render_levels(&frame_b.levels);
    let spt = cfg.samples_per_slot();

    // The overlap runs backwards from the weak frame's end: small values
    // clip only its payload tail (preamble and training fit on clean
    // samples); `usize::MAX` clamps to a fully aligned frame-on-frame
    // collision.
    let ov_slots = ov_slots.min(frame_b.total_slots());

    let pad = 177;
    let b_off = pad;
    let a_off = b_off + wave_b.len() - ov_slots * spt;
    let total = a_off + wave_a.len() + pad;

    // Near tag through the usual loopback channel; far tag `pr_db` down
    // through its own polarisation rotation.
    let g_strong = C64::from_polar(GAIN, (2.0 * ROT_DEG).to_radians());
    let g_weak = C64::from_polar(
        GAIN * 10f64.powf(-pr_db / 20.0),
        (2.0 * -15f64).to_radians(),
    );
    let tags = vec![
        TagWave {
            wave: wave_a,
            gain: g_strong,
            offset: a_off,
        },
        TagWave {
            wave: wave_b,
            gain: g_weak,
            offset: b_off,
        },
    ];
    let dc = C64::new(DC.0, DC.1);
    let mut mix = superpose(&tags, total);
    for z in &mut mix {
        *z += dc;
    }
    let mut sig = Signal::new(mix, cfg.fs);
    if snr_db.is_finite() {
        NoiseSource::new(seed).add_awgn(sig.samples_mut(), sigma_for_snr(snr_db, GAIN));
    }

    let rx = Receiver::new_cached(cfg, &params, 1);
    let (decision, decodes) = capture_decode(
        &rx,
        &sig,
        &tags,
        &[bits_a.len(), bits_b.len()],
        &[0.0, -pr_db],
        CaptureRule::default_margin(),
    );
    (decision, decodes, a_off)
}

/// Shallow collision across the SNR column and near-far power ratios: the
/// strong (near) tag arrives late and clips the weak frame's payload tail,
/// out-powering it well past the 6 dB capture margin — backscatter path
/// loss is round-trip, so a 2–4× range gap alone is a 24–48 dB power gap.
/// The capture winner must decode its coded frame clean in every cell; the
/// weak tag's overlapped slots surface as erasures, and where its own SNR
/// permits, the errors-and-erasures path still delivers its payload. No
/// cell may panic.
#[test]
fn two_tag_collision_strong_captures_weak_degrades_through_erasures() {
    // Clip ~3 of the weak frame's 44 codeword bytes — well inside
    // RS(44,22)'s erasure budget, and small enough that the winner's own
    // head (which straddles the regime switch at the weak frame's end)
    // stays decodable.
    let ov_slots = 12;
    for &snr_db in &[f64::INFINITY, 40.0, 30.0] {
        for &pr_db in &[26.0, 34.0] {
            let (decision, decodes, a_off) = run_collision_cell(snr_db, pr_db, ov_slots, 31);
            assert_eq!(
                decision,
                CaptureDecision::Winner(0),
                "snr={snr_db} pr={pr_db}: strong tag should capture"
            );

            // The capture winner decodes clean at its known offset.
            let strong = decodes[0]
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("snr={snr_db} pr={pr_db}: strong decode: {e:?}"));
            assert_eq!(strong.offset, a_off);
            assert_eq!(
                recover(&strong.bits, 20, Some(CODING), SCRAMBLE).as_deref(),
                Some(&expected_payload()[..]),
                "snr={snr_db} pr={pr_db}: strong coded frame lost"
            );

            // The loser degrades through erasures — never a panic. Where
            // its own SNR is clean enough, the overlap must be flagged and
            // the errors-and-erasures decoder must still deliver.
            match &decodes[1].result {
                Ok(weak) => {
                    let rec = recover_with_quality(
                        &weak.bits,
                        &decodes[1].bit_mask,
                        20,
                        Some(CODING),
                        SCRAMBLE,
                    );
                    if snr_db.is_infinite() {
                        assert!(
                            decodes[1].bit_mask.iter().any(|&b| b),
                            "pr={pr_db}: overlap produced no erasure flags"
                        );
                        let rec = rec.unwrap_or_else(|| {
                            panic!("pr={pr_db}: clean-channel weak recovery failed")
                        });
                        assert_eq!(rec.payload, weak_payload());
                        assert!(
                            rec.erasures_filled > 0,
                            "pr={pr_db}: weak frame recovered without filling erasures"
                        );
                    } else if let Some(rec) = rec {
                        // Noisy cells may or may not clear the RS budget,
                        // but a delivered frame is never silently wrong.
                        assert_eq!(
                            rec.payload,
                            weak_payload(),
                            "snr={snr_db} pr={pr_db}: weak recovery delivered garbage"
                        );
                    }
                }
                // A failed weak decode is acceptable degradation at finite
                // SNR; at a clean channel the fit must at least run.
                Err(e) => assert!(
                    snr_db.is_finite(),
                    "pr={pr_db}: clean-channel weak decode failed: {e:?}"
                ),
            }
        }
    }
}

/// Deep collision: the strong tag transmits in the same slot a few dozen
/// symbols late, stomping ~40 of the weak frame's 44 codeword bytes — far
/// past RS(44,22)'s errors-and-erasures budget. The weak recovery must
/// fail *cleanly* (None, never a panic, never a wrong payload) while the
/// capture winner — decoding through near-constant structured
/// interference, the regime the SIC experiment profiles — still delivers
/// its coded frame. (A perfectly slot-aligned collision is deliberately
/// avoided: at identical offsets the weak tag's preamble fit locks onto
/// the 26 dB stronger signal and faithfully decodes the *winner's* frame —
/// real capture behaviour, but it needs MAC addressing, not the codec, to
/// reject.)
#[test]
fn two_tag_deep_collision_fails_cleanly_not_loudly() {
    let cfg = collision_cfg();
    let bits_b = protect(&weak_payload(), Some(CODING), SCRAMBLE);
    let full = Modulator::new(cfg).modulate(&bits_b).total_slots();
    let (decision, decodes, _) = run_collision_cell(f64::INFINITY, 26.0, full - 40, 37);
    assert_eq!(decision, CaptureDecision::Winner(0));
    let strong = decodes[0].result.as_ref().expect("strong decode");
    assert_eq!(
        recover(&strong.bits, 20, Some(CODING), SCRAMBLE).as_deref(),
        Some(&expected_payload()[..]),
        "deep collision: strong coded frame lost"
    );
    let weak = decodes[1].result.as_ref().expect("weak demod");
    let rec = recover_with_quality(&weak.bits, &decodes[1].bit_mask, 20, Some(CODING), SCRAMBLE);
    match rec {
        None => {} // the expected graceful failure
        Some(rec) => assert_eq!(
            rec.payload,
            weak_payload(),
            "deep collision: recovery delivered garbage instead of failing"
        ),
    }
}

/// Moderate SNR (30 dB): raw errors may appear at the dense orders, but the
/// RS(44,22) coded frame must still deliver in every cell, and the residual
/// raw BER must stay under the code's correction radius.
#[test]
fn moderate_snr_matrix_delivers_coded_frames() {
    let t = RsCode::new(44, 22).parity() / 2;
    for &l in &[2usize, 4] {
        for &p in &[2usize, 4, 16] {
            let (errs, rec) = run_cell(l, p, 30.0, 23);
            assert_eq!(
                rec.as_deref(),
                Some(&expected_payload()[..]),
                "L={l} P={p} 30dB: coded frame lost ({errs} raw bit errors, t={t})"
            );
        }
    }
}
