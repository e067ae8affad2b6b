//! Frame protection and stop-and-wait ARQ (§4.4).
//!
//! Uplink payloads are scrambled (DC-stress avoidance), CRC-16-protected,
//! optionally Reed–Solomon coded, and retransmitted on CRC failure. The MAC
//! is master–slave: the reader polls, the tag answers in its TDMA slot, and
//! a failed CRC triggers a retransmission request in the next downlink
//! message (modelled here as an immediate retry).

use std::cell::RefCell;
use std::rc::Rc;

use crate::rate_table::CodingChoice;
use retroturbo_coding::{check_crc16, frame_with_crc16, RsCode, Scrambler};
use retroturbo_telemetry as telemetry;

thread_local! {
    /// The RS codes this thread has used, each built once: construction
    /// precomputes the code's multiply table, which costs more than coding
    /// a frame.
    static CODES: RefCell<Vec<Rc<RsCode>>> = const { RefCell::new(Vec::new()) };
}

/// This thread's RS(n, k) for `c`, built on first use.
fn rs_code(c: CodingChoice) -> Rc<RsCode> {
    CODES.with(|codes| {
        let mut codes = codes.borrow_mut();
        if let Some(rs) = codes.iter().find(|rs| rs.n() == c.n && rs.k() == c.k) {
            return Rc::clone(rs);
        }
        let rs = Rc::new(RsCode::new(c.n, c.k));
        codes.push(Rc::clone(&rs));
        rs
    })
}

/// The abstract physical link the ARQ runs over: one shot of a bit vector
/// through the channel, returning what the receiver demodulated (always the
/// same length).
///
/// Links whose receiver can localize damage (blocked or saturated PHY slots)
/// should also implement [`Self::transmit_with_quality`]; the per-bit
/// reliability mask it returns feeds the Reed–Solomon errors-and-erasures
/// decoder in [`recover_with_quality`], doubling the correction budget for
/// flagged losses.
pub trait BitPipe {
    /// Transmit `bits`; returns the demodulated bits, or `None` when the
    /// receiver missed the frame entirely (preamble failure).
    fn transmit(&mut self, bits: &[bool]) -> Option<Vec<bool>>;

    /// Transmit `bits` and report per-bit confidence alongside: the second
    /// vector flags bits demodulated from low-confidence PHY slots
    /// (`true` = unreliable, candidate erasure). The default implementation
    /// marks everything reliable, so plain error-only links need not change.
    fn transmit_with_quality(&mut self, bits: &[bool]) -> Option<(Vec<bool>, Vec<bool>)> {
        self.transmit(bits).map(|rx| {
            let n = rx.len();
            (rx, vec![false; n])
        })
    }
}

/// Protect a payload for transmission: CRC16 → scramble → optional RS.
/// Returns the bit stream to hand to the PHY.
pub fn protect(payload: &[u8], coding: Option<CodingChoice>, scramble_seed: u8) -> Vec<bool> {
    let mut framed = frame_with_crc16(payload);
    // Scramble the whole frame (CRC included): a seed mismatch then fails
    // the CRC instead of silently delivering garbage.
    Scrambler::new(scramble_seed).scramble_bytes(&mut framed);
    let bytes = match coding {
        None => framed,
        Some(c) => {
            let rs = rs_code(c);
            let mut out = Vec::with_capacity(framed.len().div_ceil(c.k) * c.n);
            for chunk in framed.chunks(c.k) {
                let mut msg = chunk.to_vec();
                msg.resize(c.k, 0); // zero-pad the final block
                out.extend(rs.encode(&msg));
            }
            out
        }
    };
    retroturbo_coding::bytes_to_bits(&bytes)
}

/// What [`recover_with_quality`] observed while undoing the protection: the
/// decode margin the pass/fail interface of [`recover`] used to discard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverReport {
    /// The recovered payload.
    pub payload: Vec<u8>,
    /// Reed–Solomon symbol errors corrected across all blocks (0 uncoded).
    pub symbols_corrected: usize,
    /// Erased symbols the RS decoder actually had to restore.
    pub erasures_filled: usize,
    /// Codeword symbols the PHY flagged as unreliable (whether or not they
    /// turned out damaged).
    pub erasures_flagged: usize,
}

impl RecoverReport {
    /// Publish this report's decode-margin counters into the telemetry
    /// registry under `prefix` (e.g. `mac.recover` or
    /// `robustness.blockage_duty`). No-op without the `telemetry` feature.
    pub fn publish(&self, prefix: &str) {
        if !telemetry::enabled() {
            return;
        }
        telemetry::counter_add(
            &format!("{prefix}.symbols_corrected"),
            self.symbols_corrected as u64,
        );
        telemetry::counter_add(
            &format!("{prefix}.erasures_filled"),
            self.erasures_filled as u64,
        );
        telemetry::counter_add(
            &format!("{prefix}.erasures_flagged"),
            self.erasures_flagged as u64,
        );
    }
}

/// Invert [`protect`]: RS-decode (if coded), descramble, CRC-check.
/// `payload_len` is the expected payload size in bytes.
/// Returns `None` if decoding or the CRC fails.
pub fn recover(
    bits: &[bool],
    payload_len: usize,
    coding: Option<CodingChoice>,
    scramble_seed: u8,
) -> Option<Vec<u8>> {
    recover_with_quality(bits, &[], payload_len, coding, scramble_seed).map(|r| r.payload)
}

/// [`recover`] with per-bit reliability: bits flagged `true` in `unreliable`
/// came from low-confidence PHY slots. A codeword symbol containing any
/// flagged bit becomes an erasure for the Reed–Solomon decoder, which then
/// corrects `f` erasures plus `e` errors whenever `2e + f ≤ n − k`. When a
/// block's flag count exceeds the erasure budget, or the erasure decode
/// fails (over-flagging can exhaust the budget spurious flags included), the
/// block falls back to the errors-only decoder rather than giving up.
///
/// `unreliable` may be shorter than `bits`; missing entries count as
/// reliable.
pub fn recover_with_quality(
    bits: &[bool],
    unreliable: &[bool],
    payload_len: usize,
    coding: Option<CodingChoice>,
    scramble_seed: u8,
) -> Option<RecoverReport> {
    let r = recover_with_quality_impl(bits, unreliable, payload_len, coding, scramble_seed);
    match &r {
        Some(rep) => {
            telemetry::counter_inc("mac.recover.ok");
            rep.publish("mac.recover");
        }
        None => telemetry::counter_inc("mac.recover.fail"),
    }
    r
}

fn recover_with_quality_impl(
    bits: &[bool],
    unreliable: &[bool],
    payload_len: usize,
    coding: Option<CodingChoice>,
    scramble_seed: u8,
) -> Option<RecoverReport> {
    let bytes = retroturbo_coding::bits_to_bytes(bits);
    let byte_flagged = |i: usize| (8 * i..8 * i + 8).any(|j| unreliable.get(j) == Some(&true));
    let framed_len = payload_len + 2;
    let mut symbols_corrected = 0usize;
    let mut erasures_filled = 0usize;
    let mut erasures_flagged = 0usize;
    let framed: Vec<u8> = match coding {
        None => {
            if bytes.len() < framed_len {
                return None;
            }
            erasures_flagged = (0..framed_len).filter(|&i| byte_flagged(i)).count();
            bytes[..framed_len].to_vec()
        }
        Some(c) => {
            let rs = rs_code(c);
            let n_blocks = framed_len.div_ceil(c.k);
            if bytes.len() < n_blocks * c.n {
                return None;
            }
            let mut out = Vec::with_capacity(n_blocks * c.k);
            for b in 0..n_blocks {
                let block = &bytes[b * c.n..(b + 1) * c.n];
                let erasures: Vec<usize> =
                    (0..c.n).filter(|&i| byte_flagged(b * c.n + i)).collect();
                erasures_flagged += erasures.len();
                let attempt = if erasures.is_empty() || erasures.len() > c.n - c.k {
                    None
                } else {
                    rs.decode_with_erasures(block, &erasures).ok()
                };
                match attempt {
                    Some(d) => {
                        symbols_corrected += d.errors_corrected;
                        erasures_filled += d.erasures_filled;
                        out.extend(d.msg);
                    }
                    None => {
                        // Errors-only fallback: no flags, too many flags, or
                        // an erasure decode the flags talked out of budget.
                        let (msg, fixed) = rs.decode(block).ok()?;
                        symbols_corrected += fixed;
                        out.extend(msg);
                    }
                }
            }
            out.truncate(framed_len);
            out
        }
    };
    let mut descrambled = framed;
    Scrambler::new(scramble_seed).scramble_bytes(&mut descrambled);
    Some(RecoverReport {
        payload: check_crc16(&descrambled)?.to_vec(),
        symbols_corrected,
        erasures_filled,
        erasures_flagged,
    })
}

/// Number of PHY bits [`protect`] produces for a payload of `payload_len`
/// bytes under `coding`.
pub fn protected_bits(payload_len: usize, coding: Option<CodingChoice>) -> usize {
    let framed = payload_len + 2;
    let bytes = match coding {
        None => framed,
        Some(c) => framed.div_ceil(c.k) * c.n,
    };
    bytes * 8
}

/// Decode margin observed on one stop-and-wait attempt: how close the coded
/// link came to losing the frame, not just whether it did. Rate adaptation
/// can read a rising `symbols_corrected` as vanishing margin and back off
/// before the first outright loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttemptInfo {
    /// Whether the RS/descramble/CRC chain produced the correct payload.
    pub delivered: bool,
    /// RS symbol errors corrected on this attempt (0 uncoded or undecodable).
    pub symbols_corrected: usize,
    /// Erased symbols the RS decoder restored on this attempt.
    pub erasures_filled: usize,
    /// Codeword symbols the PHY flagged as unreliable on this attempt.
    pub erasures_flagged: usize,
}

/// Outcome of a stop-and-wait exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArqStats {
    /// Transmission attempts used (1 = first try succeeded).
    pub attempts: usize,
    /// Whether the payload was eventually delivered.
    pub delivered: bool,
    /// Total PHY bits sent across all attempts.
    pub phy_bits_sent: usize,
    /// Per-attempt decode margin, in attempt order (one entry per attempt).
    pub attempt_info: Vec<AttemptInfo>,
}

impl ArqStats {
    /// Total RS symbols corrected across all attempts.
    pub fn symbols_corrected(&self) -> usize {
        self.attempt_info.iter().map(|a| a.symbols_corrected).sum()
    }

    /// Total erased symbols restored across all attempts.
    pub fn erasures_filled(&self) -> usize {
        self.attempt_info.iter().map(|a| a.erasures_filled).sum()
    }

    /// Total codeword symbols the PHY flagged across all attempts.
    pub fn erasures_flagged(&self) -> usize {
        self.attempt_info.iter().map(|a| a.erasures_flagged).sum()
    }

    /// Publish this exchange's outcome into the telemetry registry under
    /// `prefix` (e.g. `arq` or `robustness.clock_ppm`): attempt/delivery
    /// counters, PHY bits sent, and the aggregated decode margin. No-op
    /// without the `telemetry` feature.
    pub fn publish(&self, prefix: &str) {
        if !telemetry::enabled() {
            return;
        }
        telemetry::counter_inc(&format!("{prefix}.exchanges"));
        telemetry::counter_add(&format!("{prefix}.attempts"), self.attempts as u64);
        telemetry::counter_add(&format!("{prefix}.delivered"), self.delivered as u64);
        telemetry::counter_add(
            &format!("{prefix}.phy_bits_sent"),
            self.phy_bits_sent as u64,
        );
        telemetry::counter_add(
            &format!("{prefix}.symbols_corrected"),
            self.symbols_corrected() as u64,
        );
        telemetry::counter_add(
            &format!("{prefix}.erasures_filled"),
            self.erasures_filled() as u64,
        );
        telemetry::counter_add(
            &format!("{prefix}.erasures_flagged"),
            self.erasures_flagged() as u64,
        );
        telemetry::observe(
            &format!("{prefix}.attempts_per_exchange"),
            self.attempts as f64,
        );
    }
}

/// Run stop-and-wait: retransmit until the CRC passes or `max_attempts` is
/// exhausted. Erasure information from the PHY (via
/// [`BitPipe::transmit_with_quality`]) flows into the Reed–Solomon decode of
/// every attempt, and each attempt's decode margin is recorded in
/// [`ArqStats::attempt_info`].
pub fn stop_and_wait<P: BitPipe>(
    pipe: &mut P,
    payload: &[u8],
    coding: Option<CodingChoice>,
    scramble_seed: u8,
    max_attempts: usize,
) -> ArqStats {
    let tx_bits = protect(payload, coding, scramble_seed);
    let mut stats = ArqStats {
        attempts: 0,
        delivered: false,
        phy_bits_sent: 0,
        attempt_info: Vec::new(),
    };
    for _ in 0..max_attempts.max(1) {
        stats.attempts += 1;
        stats.phy_bits_sent += tx_bits.len();
        let mut info = AttemptInfo::default();
        if let Some((rx_bits, unreliable)) = pipe.transmit_with_quality(&tx_bits) {
            if let Some(rep) =
                recover_with_quality(&rx_bits, &unreliable, payload.len(), coding, scramble_seed)
            {
                info.symbols_corrected = rep.symbols_corrected;
                info.erasures_filled = rep.erasures_filled;
                info.erasures_flagged = rep.erasures_flagged;
                if rep.payload == payload {
                    info.delivered = true;
                    stats.delivered = true;
                    stats.attempt_info.push(info);
                    stats.publish("arq");
                    return stats;
                }
                // CRC collision with wrong payload is ~2^-16; treat as
                // delivery of corrupt data = failure, keep retrying.
            }
        }
        stats.attempt_info.push(info);
    }
    stats.publish("arq");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    /// A pipe flipping each bit independently with probability `ber`.
    struct NoisyPipe {
        ber: f64,
        rng: StdRng,
    }

    impl NoisyPipe {
        fn new(ber: f64, seed: u64) -> Self {
            Self {
                ber,
                rng: StdRng::seed_from_u64(seed),
            }
        }
    }

    impl BitPipe for NoisyPipe {
        fn transmit(&mut self, bits: &[bool]) -> Option<Vec<bool>> {
            Some(
                bits.iter()
                    .map(|&b| b ^ (self.rng.gen::<f64>() < self.ber))
                    .collect(),
            )
        }
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn protect_recover_round_trip_uncoded() {
        let p = payload(128);
        let bits = protect(&p, None, 0x5B);
        assert_eq!(bits.len(), protected_bits(128, None));
        assert_eq!(recover(&bits, 128, None, 0x5B).unwrap(), p);
    }

    #[test]
    fn protect_recover_round_trip_coded() {
        let c = CodingChoice { n: 255, k: 223 };
        let p = payload(128);
        let bits = protect(&p, Some(c), 0x11);
        assert_eq!(bits.len(), protected_bits(128, Some(c)));
        assert_eq!(recover(&bits, 128, Some(c), 0x11).unwrap(), p);
    }

    #[test]
    fn coding_corrects_symbol_errors() {
        let c = CodingChoice { n: 255, k: 223 };
        let p = payload(128);
        let mut bits = protect(&p, Some(c), 0x11);
        // Corrupt 10 whole bytes (10 RS symbols < t = 16).
        for k in 0..10 {
            for b in 0..8 {
                bits[k * 160 + b] ^= true;
            }
        }
        assert_eq!(recover(&bits, 128, Some(c), 0x11).unwrap(), p);
    }

    #[test]
    fn uncoded_detects_errors() {
        let p = payload(64);
        let mut bits = protect(&p, None, 0x11);
        bits[100] ^= true;
        assert!(recover(&bits, 64, None, 0x11).is_none());
    }

    #[test]
    fn wrong_scramble_seed_fails_crc() {
        let p = payload(32);
        let bits = protect(&p, None, 0x11);
        assert!(recover(&bits, 32, None, 0x2F).is_none());
    }

    #[test]
    fn stop_and_wait_clean_first_try() {
        let mut pipe = NoisyPipe::new(0.0, 1);
        let s = stop_and_wait(&mut pipe, &payload(128), None, 0x5B, 5);
        assert!(s.delivered);
        assert_eq!(s.attempts, 1);
    }

    #[test]
    fn stop_and_wait_retries_through_errors() {
        // BER 5e-3 on ~550 bits: ≈ 2.7 errors per try uncoded ⇒ needs
        // retries. Any single seed has a few-percent chance of a clean first
        // try, so aggregate over seeds: every run must deliver, and the
        // channel must force retries somewhere in the batch.
        let mut total_attempts = 0usize;
        for seed in 0..4 {
            let mut pipe = NoisyPipe::new(5e-3, seed);
            let s = stop_and_wait(&mut pipe, &payload(64), None, 0x5B, 50);
            assert!(
                s.delivered,
                "seed {seed}: never delivered in {} attempts",
                s.attempts
            );
            total_attempts += s.attempts;
        }
        assert!(total_attempts > 4, "suspiciously clean channel");
    }

    #[test]
    fn coded_needs_fewer_attempts_than_uncoded() {
        let mut att_unc = 0usize;
        let mut att_cod = 0usize;
        let c = CodingChoice { n: 255, k: 223 };
        for seed in 0..8 {
            let mut p1 = NoisyPipe::new(1.5e-3, seed);
            att_unc += stop_and_wait(&mut p1, &payload(128), None, 0x5B, 200).attempts;
            let mut p2 = NoisyPipe::new(1.5e-3, seed);
            att_cod += stop_and_wait(&mut p2, &payload(128), Some(c), 0x5B, 200).attempts;
        }
        assert!(
            att_cod < att_unc,
            "coded {att_cod} attempts vs uncoded {att_unc}"
        );
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let mut pipe = NoisyPipe::new(0.25, 9);
        let s = stop_and_wait(&mut pipe, &payload(64), None, 0x5B, 4);
        assert!(!s.delivered);
        assert_eq!(s.attempts, 4);
        assert_eq!(s.attempt_info.len(), 4);
        assert!(s.attempt_info.iter().all(|a| !a.delivered));
    }

    /// A pipe that erases whole spans: bits inside the span are zeroed and
    /// flagged unreliable — the shape a blockage burst produces.
    struct ErasingPipe {
        spans: Vec<(usize, usize)>,
    }

    impl BitPipe for ErasingPipe {
        fn transmit(&mut self, bits: &[bool]) -> Option<Vec<bool>> {
            self.transmit_with_quality(bits).map(|(b, _)| b)
        }

        fn transmit_with_quality(&mut self, bits: &[bool]) -> Option<(Vec<bool>, Vec<bool>)> {
            let mut out = bits.to_vec();
            let mut bad = vec![false; bits.len()];
            for &(start, len) in &self.spans {
                for i in start..(start + len).min(bits.len()) {
                    out[i] = false;
                    bad[i] = true;
                }
            }
            Some((out, bad))
        }
    }

    #[test]
    fn erasure_flags_double_the_correction_budget() {
        // RS(255, 223): t = 16 unflagged errors, but up to 32 erasures.
        // Erase 24 whole codeword symbols — fatal for the errors-only
        // decoder, routine with flags.
        let c = CodingChoice { n: 255, k: 223 };
        let p = payload(128);
        let bits = protect(&p, Some(c), 0x5B);
        // All spans inside the 130 framed data bytes, so every erased symbol
        // is a real corruption (the zero-padding region would erase to
        // itself and flatter the errors-only decoder).
        let spans: Vec<(usize, usize)> = (0..24).map(|k| (k * 5 * 8, 8)).collect();
        let mut pipe = ErasingPipe {
            spans: spans.clone(),
        };
        let (rx, bad) = pipe.transmit_with_quality(&bits).unwrap();

        // Errors-only path fails (it sees up to 24 > t symbol errors)…
        assert!(recover(&rx, 128, Some(c), 0x5B).is_none());
        // …the erasure-aware path recovers and reports the margin.
        let rep = recover_with_quality(&rx, &bad, 128, Some(c), 0x5B).unwrap();
        assert_eq!(rep.payload, p);
        assert_eq!(rep.erasures_flagged, 24);
        assert!(
            rep.erasures_filled > 0 && rep.erasures_filled <= 24,
            "filled {}",
            rep.erasures_filled
        );
        assert_eq!(rep.symbols_corrected, 0);

        // End-to-end through stop_and_wait: first try, margin recorded.
        let s = stop_and_wait(&mut pipe, &p, Some(c), 0x5B, 3);
        assert!(s.delivered);
        assert_eq!(s.attempts, 1);
        assert_eq!(s.attempt_info[0].erasures_flagged, 24);
        assert_eq!(s.erasures_filled(), s.attempt_info[0].erasures_filled);
    }

    #[test]
    fn over_flagging_falls_back_to_errors_only() {
        // Flag 40 symbols (> n − k = 32) with only 2 actually damaged: the
        // erasure budget is blown, but the errors-only fallback still
        // recovers the frame.
        let c = CodingChoice { n: 255, k: 223 };
        let p = payload(64);
        let mut bits = protect(&p, Some(c), 0x11);
        for k in 0..2 {
            for b in 0..8 {
                bits[k * 40 * 8 + b] ^= true;
            }
        }
        let bad: Vec<bool> = (0..bits.len()).map(|i| (i / 8) % 6 == 0).collect();
        assert!(bad.chunks(8).filter(|ch| ch[0]).count() > 32);
        let rep = recover_with_quality(&bits, &bad, 64, Some(c), 0x11).unwrap();
        assert_eq!(rep.payload, p);
        assert_eq!(rep.symbols_corrected, 2);
        assert_eq!(rep.erasures_filled, 0);
    }

    #[test]
    fn corrected_symbol_margin_is_surfaced_per_attempt() {
        // Damage exactly 5 codeword symbols (unflagged): the delivered
        // attempt must report exactly that correction count.
        struct FlippingPipe;
        impl BitPipe for FlippingPipe {
            fn transmit(&mut self, bits: &[bool]) -> Option<Vec<bool>> {
                let mut out = bits.to_vec();
                for k in 0..5 {
                    out[k * 41 * 8] ^= true; // one bit in each of 5 distinct bytes
                }
                Some(out)
            }
        }
        let c = CodingChoice { n: 255, k: 223 };
        let s = stop_and_wait(&mut FlippingPipe, &payload(128), Some(c), 0x5B, 3);
        assert!(s.delivered);
        assert_eq!(s.attempts, 1);
        let first = &s.attempt_info[0];
        assert!(first.delivered);
        assert_eq!(first.symbols_corrected, 5);
        assert_eq!(first.erasures_flagged, 0);
        assert_eq!(s.symbols_corrected(), 5);
        assert_eq!(s.erasures_filled(), 0);
    }

    #[test]
    fn recover_with_quality_matches_recover_when_unflagged() {
        let c = CodingChoice { n: 255, k: 223 };
        let p = payload(96);
        let mut bits = protect(&p, Some(c), 0x2A);
        for k in 0..5 {
            bits[k * 320] ^= true;
        }
        let plain = recover(&bits, 96, Some(c), 0x2A).unwrap();
        let rep = recover_with_quality(&bits, &[], 96, Some(c), 0x2A).unwrap();
        assert_eq!(plain, rep.payload);
        assert_eq!(rep.erasures_flagged, 0);
        assert_eq!(rep.erasures_filled, 0);
    }
}
