//! Regression test for the framer's recovery re-scan (PR 8 known bug).
//!
//! A spurious detection inside an outage span used to make the framer skip
//! a whole frame body from the bogus hit, shadowing the next *real*
//! preamble that started inside the skipped range: the drop was reported,
//! but the following genuine frame silently vanished. The framer now
//! advances only past the contiguous unreliable run when the detection
//! itself sits on flagged samples, then resumes scanning.

use retroturbo_core::Receiver;
use retroturbo_lcm::LcParams;
use retroturbo_mac::CodingChoice;
use retroturbo_service::{
    loopback_phy, DecodeService, DropReason, ServiceEvent, ServiceStats, Testbed,
};

const CODING: CodingChoice = CodingChoice { n: 44, k: 22 };
const SCRAMBLE: u8 = 0x5B;
const PAYLOAD_LEN: usize = 20;
const RUN_SEED: u64 = 0xD5;

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

/// A flagged fragment containing a real-looking preamble (the outage junk)
/// is dropped as an overrun — and the genuine frame whose preamble starts
/// *inside* the range the framer used to skip is still decoded. A frame
/// cut short by the end of the stream is a demod drop.
#[test]
fn spurious_hit_in_outage_does_not_shadow_next_preamble() {
    let bed = Testbed::new(loopback_phy(2, 4), PAYLOAD_LEN, Some(CODING), SCRAMBLE)
        .with_snr(f64::INFINITY);
    let cfg = *bed.phy();
    let spt = cfg.samples_per_slot();
    let scene_a = bed.frame(0, RUN_SEED);
    let scene_b = bed.frame(1, RUN_SEED);
    let rx = Receiver::new_cached(cfg, &LcParams::default(), 1);
    let frame_len = rx.frame_slots(scene_a.bits.len()) * spt;
    let pad = scene_a.offset;

    // The outage junk: scene A's pad + preamble + 60 % of its frame body,
    // every sample flagged unreliable by the producer (front-end outage).
    // The preamble correlates like the real thing, and the flagged span
    // (60 % > the 50 % overrun threshold) forces an Overrun drop.
    let cut = frame_len * 6 / 10;
    let junk = &scene_a.samples[..pad + cut];

    // Place scene B so its preamble starts inside the frame body the old
    // framer skipped after the drop: at `junk_hit + frame_len − 2·spt`.
    let gap = frame_len
        .checked_sub(2 * spt + cut + pad)
        .expect("geometry: outage cut leaves no room before the next frame");

    let lead_in = 300usize;
    let svc = DecodeService::spawn(bed.service_config());
    let input = svc.input();
    input.push(&bed.idle(lead_in), None);
    input.push(junk, Some(&vec![true; junk.len()]));
    input.push(&bed.idle(gap), None);
    input.push(&scene_b.samples, None);
    input.push(&bed.idle(2 * (pad + frame_len)), None);
    // The stream ends halfway through a third frame's body.
    let scene_c = bed.frame(2, RUN_SEED);
    input.push(&scene_c.samples[..pad + frame_len / 2], None);
    input.close();

    let (events, stats) = drain_checked(svc);

    assert!(
        stats.dropped_overrun >= 1,
        "the flagged junk should surface as an overrun drop (events={events:?})"
    );
    assert!(
        matches!(
            events.last(),
            Some(ServiceEvent::Dropped {
                reason: DropReason::Demod,
                ..
            })
        ),
        "the truncated final frame should surface as a demod drop (events={events:?})"
    );

    let junk_hit = (lead_in + pad) as u64;
    let b_preamble = junk_hit + (frame_len - 2 * spt) as u64;
    let frames: Vec<_> = events
        .iter()
        .filter_map(|ev| match ev {
            ServiceEvent::Frame(f) => Some(f),
            _ => None,
        })
        .collect();
    assert_eq!(
        frames.len(),
        1,
        "exactly the genuine frame should decode (events={events:?})"
    );
    assert_eq!(
        frames[0].offset, b_preamble,
        "the genuine frame decoded at the wrong offset"
    );
    assert_eq!(
        frames[0].payload,
        bed.payload_for(1),
        "the genuine frame recovered the wrong payload"
    );
}

/// Back-to-back frames with no inter-frame gap: each preamble starts on
/// the sample where the previous frame body ends, so every cut window's
/// back-margin reaches into the consumed prefix and is clamped at the
/// framer's live head. Every frame must still decode at its exact offset,
/// bit for bit as the direct receiver decodes it there.
#[test]
fn adjacent_frames_decode_like_the_direct_receiver() {
    let bed = Testbed::new(loopback_phy(2, 4), PAYLOAD_LEN, Some(CODING), SCRAMBLE).with_snr(35.0);
    let cfg = *bed.phy();
    let spt = cfg.samples_per_slot();
    let rx = Receiver::new_cached(cfg, &LcParams::default(), 1);
    let frames = 5u64;
    let lead_in = 200usize;

    let mut stream = bed.idle(lead_in);
    let mut starts = Vec::new();
    let mut payloads = Vec::new();
    for i in 0..frames {
        let scene = bed.frame(i, RUN_SEED);
        starts.push(stream.len());
        stream.extend_from_slice(&scene.samples[scene.offset..]);
        payloads.push(scene.payload);
    }
    let n_bits = bed.frame(0, RUN_SEED).bits.len();
    let frame_len = rx.frame_slots(n_bits) * spt;
    // No gap: each body is exactly one framer frame long.
    for w in starts.windows(2) {
        assert_eq!(w[1] - w[0], frame_len, "geometry: frames are not adjacent");
    }
    stream.extend(bed.idle(2 * frame_len));

    let svc = DecodeService::spawn(bed.service_config());
    let input = svc.input();
    input.push(&stream, None);
    input.close();
    let (events, _) = drain_checked(svc);

    let direct = retroturbo_dsp::Signal::new(stream, cfg.fs);
    assert_eq!(events.len(), frames as usize, "events={events:?}");
    for (i, ev) in events.iter().enumerate() {
        let f = match ev {
            ServiceEvent::Frame(f) => f,
            other => panic!("frame {i}: unexpected {other:?}"),
        };
        assert_eq!(f.offset, starts[i] as u64, "frame {i}: offset");
        assert_eq!(f.payload, payloads[i], "frame {i}: payload");
        // The direct receiver, searching one slot around the frame start
        // and decoding there, sees exactly what the service saw.
        let (off, _) = rx
            .detect_preamble(&direct, starts[i] - spt, starts[i] + spt + 1)
            .expect("direct detect failed");
        assert_eq!(off, starts[i], "frame {i}: direct offset");
        let want = rx
            .receive_at(&direct, off, n_bits, &[])
            .expect("direct decode failed");
        assert_eq!(
            f.bits, want.bits,
            "frame {i}: bits diverge from the direct receiver"
        );
    }
}

/// Preambles that start within one slot of a scan block's edge: the block
/// argmin may land on a shoulder of a peak the edge splits, so the framer
/// re-searches one slot around such a hit (a hit further inside skips that
/// rescan). Each frame starts `pads[i]` samples into the first block
/// scanned after the previous frame's body: two samples past its end
/// (the block's argmin is its last offset, a shoulder only the rescan
/// moves to the true start), and on both sides of the one-slot margin at
/// either edge. Every frame must decode at its exact offset, bit for bit
/// as the direct receiver decodes it there.
#[test]
fn preambles_near_block_edges_decode_like_the_direct_receiver() {
    const BLOCK: usize = 512; // the framer's scan block
    let bed = Testbed::new(loopback_phy(2, 4), PAYLOAD_LEN, Some(CODING), SCRAMBLE).with_snr(35.0);
    let cfg = *bed.phy();
    let spt = cfg.samples_per_slot();
    let rx = Receiver::new_cached(cfg, &LcParams::default(), 1);
    let n_bits = bed.frame(0, RUN_SEED).bits.len();
    let frame_len = rx.frame_slots(n_bits) * spt;
    // Rescanned: BLOCK + 2, 3, 505, spt − 1 and BLOCK − spt; interior: spt
    // and BLOCK − spt − 1.
    let pads = [
        BLOCK + 2,
        3,
        BLOCK - 7,
        spt - 1,
        spt,
        BLOCK - spt,
        BLOCK - spt - 1,
    ];

    // Blocks tile the stream from 0 until a hit; after a hit at `start`
    // the next block opens at `start + frame_len`.
    let mut stream = Vec::new();
    let mut starts = Vec::new();
    let mut payloads = Vec::new();
    for (i, &pad) in pads.iter().enumerate() {
        let scene = bed.frame(i as u64, RUN_SEED);
        let block_start = starts.last().map_or(0, |&s| s + frame_len);
        stream.extend(bed.idle(block_start + pad - stream.len()));
        starts.push(stream.len());
        stream.extend_from_slice(&scene.samples[scene.offset..]);
        payloads.push(scene.payload);
    }
    stream.extend(bed.idle(2 * frame_len));

    let svc = DecodeService::spawn(bed.service_config());
    let input = svc.input();
    input.push(&stream, None);
    input.close();
    let (events, _) = drain_checked(svc);

    let direct = retroturbo_dsp::Signal::new(stream, cfg.fs);
    assert_eq!(events.len(), pads.len(), "events={events:?}");
    for (i, ev) in events.iter().enumerate() {
        let f = match ev {
            ServiceEvent::Frame(f) => f,
            other => panic!("frame {i}: unexpected {other:?}"),
        };
        assert_eq!(
            f.offset, starts[i] as u64,
            "frame {i} (pad {}): offset",
            pads[i]
        );
        assert_eq!(f.payload, payloads[i], "frame {i}: payload");
        let (off, _) = rx
            .detect_preamble(&direct, starts[i] - spt, starts[i] + spt + 1)
            .expect("direct detect failed");
        assert_eq!(off, starts[i], "frame {i}: direct offset");
        let want = rx
            .receive_at(&direct, off, n_bits, &[])
            .expect("direct decode failed");
        assert_eq!(
            f.bits, want.bits,
            "frame {i}: bits diverge from the direct receiver"
        );
    }
}

/// A NaN burst inside the first fit window of a scan block used to become
/// the block's running best (`score < NaN` is never true) and hide a real
/// preamble later in the same block. The burst's windows now score
/// nothing, and the frame is delivered.
#[test]
fn nan_burst_at_block_start_does_not_hide_the_frame() {
    let bed = Testbed::new(loopback_phy(2, 4), PAYLOAD_LEN, Some(CODING), SCRAMBLE).with_snr(35.0);
    let cfg = *bed.phy();
    let scene = bed.frame(0, RUN_SEED);
    // Scan blocks start at stream offset 0; the first fit window begins
    // after the L-slot settling skip.
    let skip = cfg.l_order * cfg.samples_per_slot();
    let lead_in = 300usize;
    let mut stream = bed.idle(lead_in);
    for z in &mut stream[skip..skip + 8] {
        *z = retroturbo_dsp::C64::new(f64::NAN, f64::NAN);
    }
    stream.extend_from_slice(&scene.samples);
    stream.extend(bed.idle(2 * scene.samples.len()));

    let svc = DecodeService::spawn(bed.service_config());
    let input = svc.input();
    input.push(&stream, None);
    input.close();
    let (events, _) = drain_checked(svc);

    assert_eq!(events.len(), 1, "events={events:?}");
    match &events[0] {
        ServiceEvent::Frame(f) => {
            assert_eq!(f.offset, (lead_in + scene.offset) as u64);
            assert_eq!(f.payload, scene.payload);
        }
        other => panic!("unexpected {other:?}"),
    }
}
