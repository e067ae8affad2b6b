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
//! fingerprint invariant across worker counts.

use crate::queue::Bounded;
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
/// Frames a worker dequeues per lock acquisition.
const BATCH: usize = 4;
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

/// Occupancy histogram for a bounded queue: `counts[d]` is how many pushes
/// left the queue at depth `d` (1 ≤ d ≤ capacity).
#[derive(Debug, Clone, Default)]
pub struct QueueDepth {
    /// Push counts indexed by post-push depth; `counts[0]` is unused.
    pub counts: Vec<u64>,
}

impl QueueDepth {
    fn new(cap: usize) -> Self {
        Self {
            counts: vec![0; cap + 1],
        }
    }

    fn record(&mut self, depth: usize) {
        if depth < self.counts.len() {
            self.counts[depth] += 1;
        }
    }

    /// Mean post-push depth (0 when nothing was pushed).
    pub fn mean(&self) -> f64 {
        let (mut n, mut sum) = (0u64, 0u64);
        for (d, &c) in self.counts.iter().enumerate() {
            n += c;
            sum += c * d as u64;
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }
}

/// Aggregate pipeline accounting, returned by [`DecodeService::shutdown`].
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

/// Mutable counters shared by the stage threads.
#[derive(Debug, Default)]
struct SharedStats {
    frames_detected: u64,
    frames_decoded: u64,
    frames_degraded: u64,
    dropped_overrun: u64,
    dropped_demod: u64,
    dropped_recover: u64,
    frame_queue_depth: QueueDepth,
    out_queue_depth: QueueDepth,
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
    cfg: ServiceConfig,
    ring: Arc<SampleRing>,
    out: Arc<Bounded<ServiceEvent>>,
    reorder: Mutex<Reorder>,
    stats: Arc<Mutex<SharedStats>>,
    framer: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

#[derive(Default)]
struct Reorder {
    next: u64,
    held: BTreeMap<u64, ServiceEvent>,
}

impl DecodeService {
    /// Start the pipeline: one framer thread plus `cfg.workers` decode
    /// workers, all persistent until [`Self::shutdown`].
    pub fn spawn(cfg: ServiceConfig) -> Self {
        assert!(cfg.workers >= 1, "DecodeService: need at least one worker");
        assert!(cfg.n_bits > 0, "DecodeService: n_bits must be positive");
        let ring = Arc::new(SampleRing::new(cfg.ring_capacity));
        let frame_q = Arc::new(Bounded::<FrameTask>::new(FRAME_QUEUE));
        let out = Arc::new(Bounded::<ServiceEvent>::new(OUT_QUEUE));
        let stats = Arc::new(Mutex::new(SharedStats {
            frame_queue_depth: QueueDepth::new(FRAME_QUEUE),
            out_queue_depth: QueueDepth::new(OUT_QUEUE),
            ..SharedStats::default()
        }));

        let framer = {
            let (cfg, ring, frame_q, out, stats) = (
                cfg.clone(),
                Arc::clone(&ring),
                Arc::clone(&frame_q),
                Arc::clone(&out),
                Arc::clone(&stats),
            );
            std::thread::Builder::new()
                .name("rt-framer".into())
                .spawn(move || run_framer(&cfg, &ring, &frame_q, &out, &stats))
                .expect("spawn framer")
        };

        let live_workers = Arc::new(AtomicUsize::new(cfg.workers));
        let workers = (0..cfg.workers)
            .map(|i| {
                let (cfg, frame_q, out, stats, live) = (
                    cfg.clone(),
                    Arc::clone(&frame_q),
                    Arc::clone(&out),
                    Arc::clone(&stats),
                    Arc::clone(&live_workers),
                );
                std::thread::Builder::new()
                    .name(format!("rt-worker-{i}"))
                    .spawn(move || {
                        run_worker(&cfg, &frame_q, &out, &stats);
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
            cfg,
            ring,
            out,
            reorder: Mutex::new(Reorder::default()),
            stats,
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
        let mut discarded = 0u64;
        {
            let mut r = self.reorder.lock().unwrap();
            discarded += r.held.len() as u64;
            r.held.clear();
        }
        // Keep the out queue moving so blocked workers can finish; `pop`
        // returns `None` once the last worker closes it.
        while self.out.pop().is_some() {
            discarded += 1;
        }
        if let Some(h) = self.framer.take() {
            h.join().expect("framer panicked");
        }
        for h in self.workers.drain(..) {
            h.join().expect("worker panicked");
        }
        let ring = self.ring.stats();
        let s = self.stats.lock().unwrap();
        ServiceStats {
            samples_pushed: ring.pushed,
            samples_lost: ring.lost,
            frames_detected: s.frames_detected,
            frames_decoded: s.frames_decoded,
            frames_degraded: s.frames_degraded,
            frames_dropped: s.dropped_overrun + s.dropped_demod + s.dropped_recover,
            dropped_overrun: s.dropped_overrun,
            dropped_demod: s.dropped_demod,
            dropped_recover: s.dropped_recover,
            discarded_at_shutdown: discarded,
            frame_queue_depth: s.frame_queue_depth.clone(),
            out_queue_depth: s.out_queue_depth.clone(),
        }
    }

    /// The configuration this service was spawned with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }
}

/// Emit a drop event (framer- or worker-side) and account it.
fn emit_drop(
    out: &Bounded<ServiceEvent>,
    stats: &Mutex<SharedStats>,
    seq: u64,
    offset: u64,
    reason: DropReason,
) {
    {
        let mut s = stats.lock().unwrap();
        match reason {
            DropReason::Overrun => s.dropped_overrun += 1,
            DropReason::Demod => s.dropped_demod += 1,
            DropReason::Recover => s.dropped_recover += 1,
        }
    }
    telemetry::counter_inc(match reason {
        DropReason::Overrun => "service.frames.dropped.overrun",
        DropReason::Demod => "service.frames.dropped.demod",
        DropReason::Recover => "service.frames.dropped.recover",
    });
    if let Ok(depth) = out.push(ServiceEvent::Dropped {
        seq,
        offset,
        reason,
    }) {
        stats.lock().unwrap().out_queue_depth.record(depth);
    }
}

/// Stage one: scan the sample stream for preambles and cut frame windows.
fn run_framer(
    cfg: &ServiceConfig,
    ring: &SampleRing,
    frame_q: &Bounded<FrameTask>,
    out: &Bounded<ServiceEvent>,
    stats: &Mutex<SharedStats>,
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
                    telemetry::counter_inc("service.frames.detected");
                    stats.lock().unwrap().frames_detected += 1;

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
                        emit_drop(out, stats, seq, abs_offset, DropReason::Overrun);
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
                        match frame_q.push(task) {
                            Ok(depth) => stats.lock().unwrap().frame_queue_depth.record(depth),
                            Err(_) => break 'stream,
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
fn run_worker(
    cfg: &ServiceConfig,
    frame_q: &Bounded<FrameTask>,
    out: &Bounded<ServiceEvent>,
    stats: &Mutex<SharedStats>,
) {
    // `new_cached` shares the expensive offline-training state process-wide,
    // so a pool of workers costs one receiver construction, not N.
    let rx = Receiver::new_cached(cfg.phy, &LcParams::default(), TRAINING_BASES);
    let bps = cfg.phy.bits_per_symbol();
    let mut batch: Vec<FrameTask> = Vec::with_capacity(BATCH);
    while frame_q.pop_batch(BATCH, &mut batch) > 0 {
        for task in batch.drain(..) {
            let sig = Signal::new(task.samples, cfg.phy.fs);
            let demod = rx.receive_at(&sig, task.rel_off, cfg.n_bits, &task.mask);
            let r = match demod {
                Ok(r) => r,
                Err(_) => {
                    emit_drop(out, stats, task.seq, task.abs_offset, DropReason::Demod);
                    continue;
                }
            };
            let bit_mask = r.bit_erasures(bps);
            let rec = recover_with_quality(
                &r.bits,
                &bit_mask,
                cfg.payload_len,
                cfg.coding,
                cfg.scramble_seed,
            );
            let rep = match rec {
                Some(rep) => rep,
                None => {
                    emit_drop(out, stats, task.seq, task.abs_offset, DropReason::Recover);
                    continue;
                }
            };
            telemetry::counter_inc("service.frames.decoded");
            if task.degraded {
                telemetry::counter_inc("service.frames.degraded");
            }
            {
                let mut s = stats.lock().unwrap();
                s.frames_decoded += 1;
                if task.degraded {
                    s.frames_degraded += 1;
                }
            }
            let ev = ServiceEvent::Frame(ServiceFrame {
                seq: task.seq,
                offset: task.abs_offset,
                payload: rep.payload,
                bits: r.bits,
                symbols_corrected: rep.symbols_corrected,
                erasures_filled: rep.erasures_filled,
                erasures_flagged: rep.erasures_flagged,
                degraded: task.degraded,
                latency: task.detected_at.elapsed(),
            });
            match out.push(ev) {
                Ok(depth) => stats.lock().unwrap().out_queue_depth.record(depth),
                Err(_) => return,
            }
        }
    }
}
