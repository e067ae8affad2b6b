//! Decode-equivalence proof for the streaming service: the same samples
//! pushed through the staged pipeline must produce bit-identical frames to
//! direct `Receiver` + MAC calls, at every worker count, regardless of how
//! the producer chunks the stream — and the telemetry fingerprint must be
//! invariant across worker counts (the counters the service publishes are
//! all pure functions of the sample stream).

use retroturbo_core::{Receiver, RxResult};
use retroturbo_dsp::{Signal, C64};
use retroturbo_lcm::LcParams;
use retroturbo_mac::{recover_with_quality, CodingChoice};
use retroturbo_service::{
    loopback_phy, DecodeService, FrameScene, ServiceEvent, ServiceStats, Testbed,
};
use retroturbo_telemetry as telemetry;
use std::sync::Mutex;

/// The telemetry registry is process-global and every service run
/// publishes into it; the fingerprint tests reset and read it, so every
/// test in this binary serialises on this lock to keep concurrent runs
/// from interleaving their counters.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn registry_guard() -> std::sync::MutexGuard<'static, ()> {
    REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(seq, offset, payload)` triples plus the telemetry fingerprint of one
/// service run — the invariants the determinism tests compare across runs.
type RunDigest = (Vec<(u64, u64, Vec<u8>)>, String);

const CODING: CodingChoice = CodingChoice { n: 44, k: 22 };
const SCRAMBLE: u8 = 0x5B;
const PAYLOAD_LEN: usize = 20;
const RUN_SEED: u64 = 0xD5;

fn bed(l: usize, p: usize, snr_db: f64) -> Testbed {
    Testbed::new(loopback_phy(l, p), PAYLOAD_LEN, Some(CODING), SCRAMBLE).with_snr(snr_db)
}

/// Decode one scene the direct, non-streaming way the service's stages
/// compose it: whole-signal preamble search, quality-aware decode at the
/// found offset, MAC recovery.
fn direct_receive(rx: &Receiver, sig: &Signal, n_bits: usize, mask: &[bool]) -> RxResult {
    let (offset, _) = rx
        .detect_preamble(sig, 0, sig.len())
        .expect("direct detect failed");
    rx.receive_at(sig, offset, n_bits, mask)
        .expect("direct decode failed")
}

fn direct_decode(bed: &Testbed, scene: &FrameScene) -> (usize, Vec<bool>, Vec<u8>) {
    let cfg = *bed.phy();
    let rx = Receiver::new_cached(cfg, &LcParams::default(), 1);
    let sig = Signal::new(scene.samples.clone(), cfg.fs);
    let r = direct_receive(&rx, &sig, scene.bits.len(), &[]);
    let bit_mask = r.bit_erasures(cfg.bits_per_symbol());
    let rep = recover_with_quality(&r.bits, &bit_mask, PAYLOAD_LEN, Some(CODING), SCRAMBLE)
        .expect("direct recover failed");
    (r.offset, r.bits, rep.payload)
}

/// Drain `svc`'s events and shut it down, checking that its stats count
/// exactly those events: one detected frame per event, split by outcome
/// and drop reason.
fn drain_checked(svc: DecodeService) -> (Vec<ServiceEvent>, ServiceStats) {
    let events: Vec<ServiceEvent> = std::iter::from_fn(|| svc.recv()).collect();
    let stats = svc.shutdown();
    // [detected, decoded, degraded, dropped, overrun, demod, recover]:
    // the drop counts follow `DropReason`'s declaration order.
    let mut tally = [events.len() as u64, 0, 0, 0, 0, 0, 0];
    for ev in &events {
        match ev {
            ServiceEvent::Frame(f) => {
                tally[1] += 1;
                tally[2] += u64::from(f.degraded);
            }
            ServiceEvent::Dropped { reason, .. } => {
                tally[3] += 1;
                tally[4 + *reason as usize] += 1;
            }
        }
    }
    let s = &stats;
    let counts = [
        s.frames_detected,
        s.frames_decoded,
        s.frames_degraded,
        s.frames_dropped,
        s.dropped_overrun,
        s.dropped_demod,
        s.dropped_recover,
    ];
    assert_eq!(counts, tally, "ledger vs events: {events:?}");
    (events, stats)
}

/// A run's digest: its events, each a decoded frame, and the telemetry
/// fingerprint it left.
fn digest(events: Vec<ServiceEvent>, run: &str) -> RunDigest {
    let frames = events
        .into_iter()
        .map(|ev| match ev {
            ServiceEvent::Frame(f) => (f.seq, f.offset, f.payload),
            other => panic!("{run}: unexpected {other:?}"),
        })
        .collect();
    (frames, telemetry::snapshot().deterministic_fingerprint())
}

/// Push `frames` scenes through a service with `workers` workers, chunking
/// pushes at `chunk` samples; returns the in-order events.
fn run_service(bed: &Testbed, frames: u64, workers: usize, chunk: usize) -> Vec<ServiceEvent> {
    let mut cfg = bed.service_config();
    cfg.workers = workers;
    let svc = DecodeService::spawn(cfg);
    let input = svc.input();
    let feeder_bed = bed.clone();
    let tail = 2 * feeder_bed.frame(0, RUN_SEED).samples.len();
    let feeder = std::thread::spawn(move || {
        for i in 0..frames {
            let scene = feeder_bed.frame(i, RUN_SEED);
            for c in scene.samples.chunks(chunk) {
                input.push(c, None);
            }
        }
        input.push(&feeder_bed.idle(tail), None);
        input.close();
    });
    let (events, stats) = drain_checked(svc);
    feeder.join().unwrap();
    assert_eq!(stats.samples_lost, 0, "lossless run lost samples");
    events
}

/// Streamed frames are bit-identical to direct receiver calls on the same
/// samples, across the loopback matrix corners, clean and noisy.
#[test]
fn service_matches_direct_receiver_bit_for_bit() {
    let _registry = registry_guard();
    for &(l, p, snr) in &[(2usize, 4usize, f64::INFINITY), (2, 16, 40.0), (4, 4, 30.0)] {
        let bed = bed(l, p, snr);
        let frames = 4u64;
        let events = run_service(&bed, frames, 2, 512);
        assert_eq!(events.len(), frames as usize, "L={l} P={p}: event count");

        let mut stream_pos = 0u64;
        for (i, ev) in events.iter().enumerate() {
            let scene = bed.frame(i as u64, RUN_SEED);
            let (direct_off, direct_bits, direct_payload) = direct_decode(&bed, &scene);
            let f = match ev {
                ServiceEvent::Frame(f) => f,
                other => panic!("L={l} P={p} frame {i}: unexpected {other:?}"),
            };
            assert_eq!(f.seq, i as u64);
            assert_eq!(
                f.offset,
                stream_pos + direct_off as u64,
                "L={l} P={p} frame {i}: offset diverged from direct detection"
            );
            assert_eq!(
                f.bits, direct_bits,
                "L={l} P={p} frame {i}: raw bits diverged"
            );
            assert_eq!(
                f.payload, direct_payload,
                "L={l} P={p} frame {i}: payload diverged"
            );
            assert_eq!(
                f.payload, scene.payload,
                "L={l} P={p} frame {i}: ground truth"
            );
            stream_pos += scene.samples.len() as u64;
        }
    }
}

/// The same stream through 1, 2, and 8 workers yields identical events and
/// an identical telemetry fingerprint — the service's instrumentation is a
/// pure function of the samples, not of scheduling.
#[test]
fn worker_count_is_invisible_in_results_and_telemetry() {
    let _registry = registry_guard();
    let bed = bed(2, 4, 35.0);
    let frames = 6u64;
    let mut baseline: Option<RunDigest> = None;
    for &workers in &[1usize, 2, 8] {
        telemetry::reset();
        let events = run_service(&bed, frames, workers, 333);
        let (got, fp) = digest(events, &format!("workers={workers}"));
        match &baseline {
            None => baseline = Some((got, fp)),
            Some((events0, fp0)) => {
                assert_eq!(&got, events0, "workers={workers}: events diverged");
                assert_eq!(
                    &fp, fp0,
                    "workers={workers}: telemetry fingerprint diverged"
                );
            }
        }
    }
}

/// Producer chunking (tiny ADC buffers vs. one giant push) changes nothing:
/// same events, same fingerprint.
#[test]
fn producer_chunking_is_invisible() {
    let _registry = registry_guard();
    let bed = bed(2, 4, 35.0);
    let frames = 3u64;
    let mut baseline: Option<RunDigest> = None;
    for &chunk in &[64usize, 1021, 1 << 20] {
        telemetry::reset();
        let events = run_service(&bed, frames, 2, chunk);
        let (got, fp) = digest(events, &format!("chunk={chunk}"));
        match &baseline {
            None => baseline = Some((got, fp)),
            Some((events0, fp0)) => {
                assert_eq!(&got, events0, "chunk={chunk}: events diverged");
                assert_eq!(&fp, fp0, "chunk={chunk}: fingerprint diverged");
            }
        }
    }
}

/// A replay-shaped capture — sixteen scenes and the idle tail in one
/// `push`, into a ring sized to hold all of it — yields the same events
/// and fingerprint as the same stream fed 64 samples at a time. The
/// framer then holds the whole capture at once and compacts its consumed
/// prefix several times mid-scan.
#[test]
fn one_push_capture_matches_small_chunks() {
    let _registry = registry_guard();
    let bed = bed(2, 4, 35.0);
    let mut capture = Vec::new();
    for i in 0..16 {
        capture.extend(bed.frame(i, RUN_SEED).samples);
    }
    capture.extend(bed.idle(2 * bed.frame(0, RUN_SEED).samples.len()));
    let mut baseline: Option<RunDigest> = None;
    for chunk in [64usize, capture.len()] {
        telemetry::reset();
        let mut cfg = bed.service_config();
        cfg.workers = 2;
        cfg.ring_capacity = capture.len();
        let svc = DecodeService::spawn(cfg);
        let input = svc.input();
        let feed = capture.clone();
        let feeder = std::thread::spawn(move || {
            for c in feed.chunks(chunk) {
                input.push(c, None);
            }
            input.close();
        });
        let (events, stats) = drain_checked(svc);
        feeder.join().unwrap();
        assert_eq!(stats.samples_lost, 0, "chunk={chunk}: lost samples");
        let (got, fp) = digest(events, &format!("chunk={chunk}"));
        assert_eq!(got.len(), 16, "chunk={chunk}: event count");
        match &baseline {
            None => baseline = Some((got, fp)),
            Some((events0, fp0)) => {
                assert_eq!(&got, events0, "chunk={chunk}: events diverged");
                assert_eq!(&fp, fp0, "chunk={chunk}: fingerprint diverged");
            }
        }
    }
}

/// Front-end unreliability flags ride the ring into the decode: a saturated
/// span inside the payload becomes symbol erasures, the MAC's
/// errors-and-erasures path absorbs it, and the streamed result still
/// matches the direct quality-aware call on identical samples and mask.
#[test]
fn unreliable_spans_degrade_to_erasures_and_match_direct() {
    let _registry = registry_guard();
    let bed = bed(2, 4, f64::INFINITY);
    let cfg = *bed.phy();
    let spt = cfg.samples_per_slot();
    let mut scene = bed.frame(0, RUN_SEED);
    // Saturate 3 payload slots: zero the samples (rail) and flag them.
    let pay_start = scene.offset + (cfg.preamble_slots + cfg.training_rounds * cfg.l_order) * spt;
    let wipe = pay_start + 4 * spt..pay_start + 7 * spt;
    let mut mask = vec![false; scene.samples.len()];
    for i in wipe {
        scene.samples[i] = C64::new(0.0, 0.0);
        mask[i] = true;
    }

    // Direct quality-aware decode on the damaged samples.
    let rx = Receiver::new_cached(cfg, &LcParams::default(), 1);
    let sig = Signal::new(scene.samples.clone(), cfg.fs);
    let r = direct_receive(&rx, &sig, scene.bits.len(), &mask);
    let bit_mask = r.bit_erasures(cfg.bits_per_symbol());
    let direct = recover_with_quality(&r.bits, &bit_mask, PAYLOAD_LEN, Some(CODING), SCRAMBLE)
        .expect("direct recover");
    assert!(
        direct.erasures_flagged > 0,
        "damage produced no erasure flags"
    );

    // The same samples + mask through the service.
    let svc = DecodeService::spawn(bed.service_config());
    let input = svc.input();
    input.push(&scene.samples, Some(&mask));
    input.push(&bed.idle(2 * scene.samples.len()), None);
    input.close();
    let (events, stats) = drain_checked(svc);
    assert_eq!(stats.frames_degraded, 1);
    match &events[..] {
        [ServiceEvent::Frame(f)] => {
            assert_eq!(f.bits, r.bits, "bits diverged from direct call");
            assert_eq!(f.payload, direct.payload);
            assert_eq!(f.payload, scene.payload);
            assert_eq!(f.erasures_flagged, direct.erasures_flagged);
            assert!(f.erasures_filled > 0, "erasure path not exercised");
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// Overload: a ring far smaller than the backlog forces overruns. The
/// stream must keep absolute alignment (later frames still decode at their
/// true offsets) and the loss must surface as degraded frames or explicit
/// drops — never as silent corruption.
#[test]
fn ring_overrun_degrades_then_drops_but_never_skews() {
    let _registry = registry_guard();
    let bed = bed(2, 4, 40.0);
    let frames = 5u64;
    let scene_len = bed.frame(0, RUN_SEED).samples.len();
    let mut cfg = bed.service_config();
    cfg.workers = 1;
    // The ring holds exactly the last two scenes of the backlog below.
    cfg.ring_capacity = 2 * scene_len;
    let svc = DecodeService::spawn(cfg);
    let input = svc.input();
    // One atomic push of the whole backlog: the ring keeps only the newest
    // two scenes; the first three degrade to loss placeholders no matter
    // how the framer is scheduled.
    let mut stream = Vec::new();
    for i in 0..frames {
        stream.extend(bed.frame(i, RUN_SEED).samples);
    }
    let expected_len = stream.len();
    input.push(&stream, None);
    input.close();
    let (events, stats) = drain_checked(svc);
    let decoded_at: Vec<_> = events
        .iter()
        .filter_map(|ev| match ev {
            ServiceEvent::Frame(f) => Some((f.seq, f.offset, &f.payload, f.degraded)),
            _ => None,
        })
        .collect();
    assert_eq!(
        stats.samples_lost as usize,
        3 * scene_len,
        "overrun should cost exactly the three oldest scenes"
    );
    assert_eq!(stats.samples_pushed as usize, expected_len);
    // Every frame the pipeline still recovered must be the true payload at
    // a true frame offset — loss may cost frames, never correctness.
    for (seq, offset, payload, _degraded) in &decoded_at {
        let rel = offset % scene_len as u64;
        assert_eq!(rel, 177, "frame seq {seq}: decoded at a skewed offset");
        let index = offset / scene_len as u64;
        assert_eq!(
            *payload,
            &bed.payload_for(index),
            "frame seq {seq}: wrong payload for its position"
        );
    }
    // The tail of the stream survives in the ring, so the last frame always
    // comes through clean.
    assert!(
        decoded_at
            .iter()
            .any(|(_, off, _, _)| off / scene_len as u64 == frames - 1),
        "final frame did not survive the overload (events={}, stats={stats:?})",
        events.len()
    );
}
