//! The staged streaming decode pipeline.
//!
//! ```text
//! producer ──▶ SampleRing ──▶ framer ──▶ Bounded<FrameTask> ──▶ workers ──▶ Bounded<ServiceEvent> ──▶ recv()
//!              (lossy)        (scan)     (backpressure)          (decode)    (backpressure)            (reorder)
//! ```
//!
//! One framer thread scans the sample stream for preambles with exactly the
//! production [`Receiver`] detector and cuts per-frame windows; a pool of
//! persistent workers decodes those windows (training → DFE → demap → MAC
//! recover) and emits one [`ServiceEvent`] per detected frame. Every queue
//! between stages is bounded, so a slow consumer propagates backpressure
//! upstream until the lossy ring starts overwriting: late samples come back
//! as zeroed placeholders flagged unreliable, the receiver's quarter-slot
//! rule turns them into symbol erasures, and the PR 3 errors-and-erasures
//! RS path absorbs short outages before any frame is dropped.
//!
//! Determinism: the framer scans in fixed [`SCAN_BLOCK`]-sized offset
//! blocks and only scans a block once the assembly buffer provably covers
//! every sample a hit in that block could need. The number and arguments of
//! detector calls are therefore a pure function of the sample stream — not
//! of producer chunking or worker timing — which keeps the telemetry
//! fingerprint invariant across worker counts. That includes the one-slot
//! refinement rescan, which runs only for a hit within one slot of its
//! block's edge.

use crate::queue::{Bounded, QueueDepth};
use crate::ring::SampleRing;
use retroturbo_core::{PhyConfig, Receiver};
use retroturbo_dsp::{Signal, C64};
use retroturbo_lcm::LcParams;
use retroturbo_mac::{recover_with_quality, CodingChoice};
use retroturbo_telemetry as telemetry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offsets scanned per detector call in the framer (see module docs).
const SCAN_BLOCK: usize = 512;
/// Retained offline-training bases S of the service receiver.
const TRAINING_BASES: usize = 1;
/// Framer → worker queue bound (frames).
const FRAME_QUEUE: usize = 8;
/// Worker → consumer queue bound (events).
const OUT_QUEUE: usize = 16;
/// Detected frames whose window lost more than this fraction of its
/// samples to ring overruns are dropped instead of decoded.
const MAX_LOST_FRACTION: f64 = 0.5;

/// Configuration for [`DecodeService::spawn`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// PHY parameters shared by transmitter and receiver.
    pub phy: PhyConfig,
    /// Protected frame length in bits (what the transmitter modulates).
    pub n_bits: usize,
    /// Payload bytes recovered per frame.
    pub payload_len: usize,
    /// Outer Reed–Solomon code, if any.
    pub coding: Option<CodingChoice>,
    /// Scrambler seed shared with the transmitter.
    pub scramble_seed: u8,
    /// Decode worker threads (≥ 1).
    pub workers: usize,
    /// Sample ring capacity; when full, oldest unread samples degrade to
    /// erasure placeholders.
    pub ring_capacity: usize,
}

impl ServiceConfig {
    /// A config for one link: frame length is derived from the MAC framing
    /// (`protect` of a `payload_len`-byte payload), one worker.
    pub fn new(
        phy: PhyConfig,
        payload_len: usize,
        coding: Option<CodingChoice>,
        scramble_seed: u8,
    ) -> Self {
        let n_bits = retroturbo_mac::protect(&vec![0u8; payload_len], coding, scramble_seed).len();
        Self {
            phy,
            n_bits,
            payload_len,
            coding,
            scramble_seed,
            workers: 1,
            ring_capacity: 1 << 16,
        }
    }
}

/// Why a detected frame produced no payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Ring overruns destroyed more than half of the frame window; the
    /// framer dropped it without spending decode work.
    Overrun,
    /// The PHY could not demodulate the window (truncated tail frame, or a
    /// fit failure at the detected offset).
    Demod,
    /// Demodulation produced bits but the MAC could not recover the
    /// payload (CRC/RS failure beyond the erasure budget).
    Recover,
}

/// A successfully recovered frame.
#[derive(Debug, Clone)]
pub struct ServiceFrame {
    /// Detection-order sequence number (0-based).
    pub seq: u64,
    /// Absolute sample offset of the frame start in the input stream.
    pub offset: u64,
    /// Recovered payload bytes.
    pub payload: Vec<u8>,
    /// Raw demodulated frame bits (before MAC recovery).
    pub bits: Vec<bool>,
    /// Reed–Solomon symbol errors corrected during recovery.
    pub symbols_corrected: usize,
    /// Erased symbols the RS decoder actually restored.
    pub erasures_filled: usize,
    /// Codeword symbols the PHY flagged as unreliable.
    pub erasures_flagged: usize,
    /// True when ring overruns overlapped this frame's window: the decode
    /// went through the degraded erasure path rather than clean samples.
    pub degraded: bool,
    /// Wall time from preamble detection to recovered payload.
    pub latency: Duration,
}

/// One pipeline outcome per detected frame, in detection order via
/// [`DecodeService::recv`].
#[derive(Debug, Clone)]
pub enum ServiceEvent {
    /// The frame decoded and the MAC recovered its payload.
    Frame(ServiceFrame),
    /// The frame was detected but produced no payload.
    Dropped {
        /// Detection-order sequence number.
        seq: u64,
        /// Absolute sample offset of the detected preamble.
        offset: u64,
        /// What killed it.
        reason: DropReason,
    },
}

impl ServiceEvent {
    /// The detection-order sequence number of this event.
    pub fn seq(&self) -> u64 {
        match self {
            ServiceEvent::Frame(f) => f.seq,
            ServiceEvent::Dropped { seq, .. } => *seq,
        }
    }
}

/// Aggregate pipeline accounting, returned by [`DecodeService::shutdown`].
///
/// The frame counts are a tally of the [`ServiceEvent`]s themselves, taken
/// as each one leaves the event queue (in [`DecodeService::recv`] or
/// `shutdown`'s drain), so every detected frame is counted exactly once
/// and by the same event the consumer sees.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Samples the producer pushed into the ring.
    pub samples_pushed: u64,
    /// Samples overwritten before the framer consumed them.
    pub samples_lost: u64,
    /// Preamble hits (frames entering the pipeline).
    pub frames_detected: u64,
    /// Frames whose payload was recovered.
    pub frames_decoded: u64,
    /// Recovered frames that overlapped ring loss (erasure-degraded path).
    pub frames_degraded: u64,
    /// Detected frames that produced no payload.
    pub frames_dropped: u64,
    /// Drops charged to ring overruns.
    pub dropped_overrun: u64,
    /// Drops charged to PHY demodulation failure.
    pub dropped_demod: u64,
    /// Drops charged to MAC recovery failure.
    pub dropped_recover: u64,
    /// Events still in flight when `shutdown` discarded them.
    pub discarded_at_shutdown: u64,
    /// Framer → worker queue occupancy histogram.
    pub frame_queue_depth: QueueDepth,
    /// Worker → consumer queue occupancy histogram.
    pub out_queue_depth: QueueDepth,
}

/// A cut frame window travelling from the framer to a worker.
struct FrameTask {
    seq: u64,
    /// Absolute offset of the detected preamble in the input stream.
    abs_offset: u64,
    /// Preamble offset relative to `samples[0]`.
    rel_off: usize,
    samples: Vec<C64>,
    /// Per-sample unreliability (front-end flags ∪ ring-loss placeholders).
    mask: Vec<bool>,
    degraded: bool,
    detected_at: Instant,
}

/// Producer handle for feeding samples into a running service; cheap to
/// clone, safe to use from any thread.
#[derive(Clone)]
pub struct ServiceInput {
    ring: Arc<SampleRing>,
}

impl ServiceInput {
    /// Push samples (never blocks). `unreliable`, when given, carries
    /// per-sample front-end confidence flags. Returns how many queued
    /// samples this push overwrote.
    pub fn push(&self, samples: &[C64], unreliable: Option<&[bool]>) -> u64 {
        let lost = self.ring.push(samples, unreliable);
        telemetry::counter_add("service.samples.in", samples.len() as u64);
        if lost > 0 {
            telemetry::counter_add("service.samples.lost", lost);
        }
        lost
    }

    /// Signal end of input: the pipeline drains and winds down.
    pub fn close(&self) {
        self.ring.close();
    }
}

/// A running streaming decode service. See the module docs for the stage
/// graph; [`DecodeService::recv`] yields events in detection order.
pub struct DecodeService {
    ring: Arc<SampleRing>,
    frame_q: Arc<Bounded<FrameTask>>,
    out: Arc<Bounded<ServiceEvent>>,
    reorder: Mutex<Reorder>,
    framer: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

#[derive(Default)]
struct Reorder {
    next: u64,
    held: BTreeMap<u64, ServiceEvent>,
    /// Every event popped from the out queue, counted by [`tally`].
    ledger: ServiceStats,
}

impl DecodeService {
    /// Start the pipeline: one framer thread plus `cfg.workers` decode
    /// workers, all persistent until [`Self::shutdown`].
    ///
    /// # Panics
    /// Panics if `cfg.workers` is 0 or `cfg.n_bits` is 0, and if the
    /// operating system refuses to start a thread. Threads started before a
    /// refused one keep running, so bound `cfg.workers` before calling
    /// (`retroturbo-serve` accepts at most 64).
    pub fn spawn(cfg: ServiceConfig) -> Self {
        assert!(cfg.workers >= 1, "DecodeService: need at least one worker");
        assert!(cfg.n_bits > 0, "DecodeService: n_bits must be positive");
        let ring = Arc::new(SampleRing::new(cfg.ring_capacity));
        let frame_q = Arc::new(Bounded::<FrameTask>::new(FRAME_QUEUE));
        let out = Arc::new(Bounded::<ServiceEvent>::new(OUT_QUEUE));

        let framer = {
            let (cfg, ring, frame_q, out) = (
                cfg.clone(),
                Arc::clone(&ring),
                Arc::clone(&frame_q),
                Arc::clone(&out),
            );
            std::thread::Builder::new()
                .name("rt-framer".into())
                .spawn(move || run_framer(&cfg, &ring, &frame_q, &out))
                .expect("spawn framer")
        };

        let live_workers = Arc::new(AtomicUsize::new(cfg.workers));
        let workers = (0..cfg.workers)
            .map(|i| {
                let (cfg, frame_q, out, live) = (
                    cfg.clone(),
                    Arc::clone(&frame_q),
                    Arc::clone(&out),
                    Arc::clone(&live_workers),
                );
                std::thread::Builder::new()
                    .name(format!("rt-worker-{i}"))
                    .spawn(move || {
                        run_worker(&cfg, &frame_q, &out);
                        // Last worker out closes the event queue so the
                        // consumer sees exhaustion.
                        if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                            out.close();
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();

        Self {
            ring,
            frame_q,
            out,
            reorder: Mutex::new(Reorder::default()),
            framer: Some(framer),
            workers,
        }
    }

    /// A producer handle for this service's sample ring.
    pub fn input(&self) -> ServiceInput {
        ServiceInput {
            ring: Arc::clone(&self.ring),
        }
    }

    /// Next pipeline event in detection order; blocks while the pipeline is
    /// live, `None` once the input is closed and every event delivered.
    pub fn recv(&self) -> Option<ServiceEvent> {
        let mut r = self.reorder.lock().unwrap();
        loop {
            let next = r.next;
            if let Some(ev) = r.held.remove(&next) {
                r.next += 1;
                return Some(ev);
            }
            match self.out.pop() {
                Some(ev) => {
                    tally(&mut r.ledger, &ev);
                    r.held.insert(ev.seq(), ev);
                }
                None => {
                    // Closed and drained: flush any stragglers in order.
                    return match r.held.pop_first() {
                        Some((seq, ev)) => {
                            r.next = seq + 1;
                            Some(ev)
                        }
                        None => None,
                    };
                }
            }
        }
    }

    /// Close the input, drain whatever is still in flight (counted as
    /// discarded), join every stage thread, and return the final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.ring.close();
        let r = self.reorder.get_mut().expect("recv panicked");
        let mut discarded = r.held.len() as u64;
        // Keep the out queue moving so blocked workers can finish; `pop`
        // returns `None` once the last worker closes it.
        while let Some(ev) = self.out.pop() {
            tally(&mut r.ledger, &ev);
            discarded += 1;
        }
        if let Some(h) = self.framer.take() {
            h.join().expect("framer panicked");
        }
        for h in self.workers.drain(..) {
            h.join().expect("worker panicked");
        }
        let ring = self.ring.stats();
        ServiceStats {
            samples_pushed: ring.pushed,
            samples_lost: ring.lost,
            discarded_at_shutdown: discarded,
            frame_queue_depth: self.frame_q.depth(),
            out_queue_depth: self.out.depth(),
            ..std::mem::take(&mut r.ledger)
        }
    }
}

/// Count one event popped from the out queue into `stats` and the
/// `service.frames.*` telemetry counters: the service's only frame ledger.
fn tally(stats: &mut ServiceStats, ev: &ServiceEvent) {
    stats.frames_detected += 1;
    telemetry::counter_inc("service.frames.detected");
    match ev {
        ServiceEvent::Frame(f) => {
            stats.frames_decoded += 1;
            telemetry::counter_inc("service.frames.decoded");
            if f.degraded {
                stats.frames_degraded += 1;
                telemetry::counter_inc("service.frames.degraded");
            }
        }
        ServiceEvent::Dropped { reason, .. } => {
            stats.frames_dropped += 1;
            let (count, name) = match reason {
                DropReason::Overrun => {
                    (&mut stats.dropped_overrun, "service.frames.dropped.overrun")
                }
                DropReason::Demod => (&mut stats.dropped_demod, "service.frames.dropped.demod"),
                DropReason::Recover => {
                    (&mut stats.dropped_recover, "service.frames.dropped.recover")
                }
            };
            *count += 1;
            telemetry::counter_inc(name);
        }
    }
}

/// Stage one: scan the sample stream for preambles and cut frame windows.
fn run_framer(
    cfg: &ServiceConfig,
    ring: &SampleRing,
    frame_q: &Bounded<FrameTask>,
    out: &Bounded<ServiceEvent>,
) {
    let rx = Receiver::new_cached(cfg.phy, &LcParams::default(), TRAINING_BASES);
    let spt = cfg.phy.samples_per_slot();
    let frame_len = rx.frame_slots(cfg.n_bits) * spt;
    let span = rx.detect_span();
    // Back-margin kept before every scan position (window lead + the
    // refinement scan's reach); forward slack cut beyond the frame end.
    let lead = spt;
    let slack = spt;
    // A block [pos, pos+B) is only scanned once the assembly covers every
    // sample a hit anywhere in it could touch: the detector fit at the last
    // offset, the refinement scan past it, and the full cut window.
    let reserve = frame_len + slack + span;

    // `assembly[head..]` holds the live stream from absolute position
    // `base` on; `assembly[..head]` is consumed prefix awaiting compaction.
    // Compacting only once that prefix is half the buffer moves every
    // sample O(1) times amortised, where draining it per frame would move
    // the whole rest of the capture each time.
    let mut assembly: Vec<C64> = Vec::new();
    let mut unreliable: Vec<bool> = Vec::new();
    let mut head: usize = 0;
    let mut base: u64 = 0; // absolute index of assembly[head]
    let mut pos: u64 = 0; // next candidate offset to scan (absolute)
    let mut seq: u64 = 0;
    let mut eof = false;

    'stream: loop {
        if !eof && ring.pull(&mut assembly, &mut unreliable) == 0 {
            eof = true;
        }
        let avail = base + (assembly.len() - head) as u64;

        // Scan every block the assembly fully covers.
        while pos + (SCAN_BLOCK + reserve) as u64 <= avail || (eof && pos + span as u64 <= avail) {
            let block_end = if pos + (SCAN_BLOCK + reserve) as u64 <= avail {
                pos + SCAN_BLOCK as u64
            } else {
                // Tail: scan what remains in one clamped block. Hits may
                // yield truncated windows; the worker reports those as
                // demod drops.
                avail - span as u64 + 1
            };
            // Buffer indices from here on; `head` stands in for `base`.
            // Back-margins need no clamp at `head`: a block hit sits at
            // least `lead` past it, or `head` is 0 at the stream start (the
            // retire step below never moves `base` past `pos - lead`), so
            // the refinement scan never reaches the consumed prefix. A window's back-margin may, but
            // `assembly[..head]` still holds those stream samples until
            // compaction, and the decode reads nothing before the hit.
            let from = head + (pos - base) as usize;
            let to = head + (block_end - base) as usize;
            let sig = Signal::new(std::mem::take(&mut assembly), cfg.phy.fs);
            let hit = rx.detect_preamble(&sig, from, to);
            let hit = match hit {
                // A hit at least one slot inside its block needs no
                // refinement: the rescan's range would be a subset of the
                // block containing `off`, and `off` is the block's first
                // minimum, so it is the subset's first minimum too.
                Some((off, _)) if from + lead <= off && off + lead < to => Some(off),
                // Refine: the block argmin can land on a shoulder when the
                // block boundary splits the correlation peak, so re-search
                // one slot around the hit and keep that argmin. This is
                // what pins the streaming offset to the whole-signal
                // detection the direct receiver path performs.
                Some((off, _)) => {
                    let lo = off.saturating_sub(lead);
                    let hi = (off + lead + 1).min(sig.len().saturating_sub(span) + 1);
                    rx.detect_preamble(&sig, lo, hi).map(|(o, _)| o)
                }
                None => None,
            };
            assembly = sig.into_samples();

            match hit {
                None => pos = block_end,
                Some(off) => {
                    let abs_offset = base + (off - head) as u64;

                    // Cut the window: `lead` samples of back-margin, the
                    // frame body, `slack` samples of forward margin —
                    // clamped at the stream tail.
                    let win_start = off.saturating_sub(lead);
                    let win_end = (off + frame_len + slack).min(assembly.len());
                    let mask: Vec<bool> = unreliable[win_start..win_end].to_vec();
                    let body_end = (off - win_start + frame_len).min(mask.len());
                    let frame_span = &mask[off - win_start..body_end];
                    let flagged = frame_span.iter().filter(|&&b| b).count();
                    let degraded = flagged > 0;

                    if (flagged as f64) > MAX_LOST_FRACTION * frame_len as f64 {
                        // `out` closes only after this thread closes
                        // `frame_q`, so this push cannot fail.
                        let _ = out.push(ServiceEvent::Dropped {
                            seq,
                            offset: abs_offset,
                            reason: DropReason::Overrun,
                        });
                        seq += 1;
                        // Recovery re-scan. When the detection itself sits on
                        // unreliable samples it is likely spurious — garbage
                        // inside an outage span that happened to correlate.
                        // Skipping a whole frame body from here would shadow
                        // a real preamble starting right after the outage, so
                        // advance only past the contiguous flagged run and
                        // resume scanning. A detection on clean samples (a
                        // real preamble whose body got clobbered) still skips
                        // the full frame. The `max` keeps progress strictly
                        // monotone: refinement can pull a hit back to
                        // `pos - lead`, and a bare `abs_offset + spt` could
                        // otherwise re-propose the same scan position forever.
                        let advance = if frame_span.first() == Some(&true) {
                            frame_span.iter().take_while(|&&b| b).count().max(spt)
                        } else {
                            frame_len
                        };
                        pos = (abs_offset + advance as u64).max(pos + spt as u64);
                    } else {
                        let task = FrameTask {
                            seq,
                            abs_offset,
                            rel_off: off - win_start,
                            samples: assembly[win_start..win_end].to_vec(),
                            mask,
                            degraded,
                            detected_at: Instant::now(),
                        };
                        if frame_q.push(task).is_err() {
                            break 'stream;
                        }
                        seq += 1;
                        // Skip the frame body: the next preamble cannot
                        // start inside it.
                        pos = abs_offset + frame_len as u64;
                    }
                }
            }

            // Retire consumed samples, keeping the back-margin. A tail hit
            // can leave `pos` past the end of the stream, so clamp to what
            // the assembly actually holds.
            let keep_from = pos.saturating_sub(lead as u64);
            if keep_from > base {
                let k = ((keep_from - base) as usize).min(assembly.len() - head);
                head += k;
                base += k as u64;
                if 2 * head >= assembly.len() {
                    assembly.drain(..head);
                    unreliable.drain(..head);
                    head = 0;
                }
            }
            if eof && pos + span as u64 > avail {
                break;
            }
        }

        if eof {
            break;
        }
    }
    frame_q.close();
}

/// Stage two: decode frame windows into events. Runs until the frame queue
/// is closed and drained.
fn run_worker(cfg: &ServiceConfig, frame_q: &Bounded<FrameTask>, out: &Bounded<ServiceEvent>) {
    // `new_cached` shares the expensive offline-training state process-wide,
    // so a pool of workers costs one receiver construction, not N.
    let rx = Receiver::new_cached(cfg.phy, &LcParams::default(), TRAINING_BASES);
    while let Some(task) = frame_q.pop() {
        let (seq, offset) = (task.seq, task.abs_offset);
        let ev = match decode(&rx, cfg, task) {
            Ok(frame) => ServiceEvent::Frame(frame),
            Err(reason) => ServiceEvent::Dropped {
                seq,
                offset,
                reason,
            },
        };
        if out.push(ev).is_err() {
            return;
        }
    }
}

/// Decode one frame window: the recovered frame, or why there is none.
fn decode(rx: &Receiver, cfg: &ServiceConfig, task: FrameTask) -> Result<ServiceFrame, DropReason> {
    let sig = Signal::new(task.samples, cfg.phy.fs);
    let r = rx
        .receive_at(&sig, task.rel_off, cfg.n_bits, &task.mask)
        .map_err(|_| DropReason::Demod)?;
    let bit_mask = r.bit_erasures(cfg.phy.bits_per_symbol());
    let rep = recover_with_quality(
        &r.bits,
        &bit_mask,
        cfg.payload_len,
        cfg.coding,
        cfg.scramble_seed,
    )
    .ok_or(DropReason::Recover)?;
    Ok(ServiceFrame {
        seq: task.seq,
        offset: task.abs_offset,
        payload: rep.payload,
        bits: r.bits,
        symbols_corrected: rep.symbols_corrected,
        erasures_filled: rep.erasures_filled,
        erasures_flagged: rep.erasures_flagged,
        degraded: task.degraded,
        latency: task.detected_at.elapsed(),
    })
}
