//! `stream` and `replay`: the decode service (`crates/service`) fed a
//! generated capture.
//!
//! Both workloads decode the same kind of frames: the service testbed's
//! loopback link (L = 2, 4-PQAM, 20-byte payloads under RS(44, 22), 35 dB
//! SNR), with every eighth frame carrying three zeroed payload slots
//! flagged unreliable, which the RS errors-and-erasures path must recover.
//! `stream` paces the samples in like a live capture; `replay` hands the
//! service a whole recorded capture at once.

use crate::stages::Chain;
use crate::stats::{mean, median, ms, percentile, EndToEnd, Report, SETUP_REPS};
use crate::trace::{self, Tracer};
use retroturbo_core::Receiver;
use retroturbo_dsp::{Signal, C64};
use retroturbo_lcm::LcParams;
use retroturbo_mac::{recover_with_quality, CodingChoice, RecoverReport};
use retroturbo_service::{
    loopback_phy, DecodeService, ServiceEvent, ServiceFrame, ServiceStats, Testbed,
};
use std::path::Path;
use std::time::{Duration, Instant};

const PAYLOAD_LEN: usize = 20;
const CODING: CodingChoice = CodingChoice { n: 44, k: 22 };
const SCRAMBLE: u8 = 0x5B;
const SNR_DB: f64 = 35.0;
/// Every eighth frame carries a flagged erasure span.
const ERASURE_EVERY: u64 = 8;
/// Distinct frames the paced stream cycles through.
const STREAM_POOL: usize = 256;
/// Frames in the replayed capture.
pub const REPLAY_FRAMES: usize = 500;
/// Stream arrival rate as a multiple of the PHY's 40 kS/s.
const STREAM_SPEEDUP: f64 = 20.0;
/// Samples per generator push.
const CHUNK: usize = 1024;
/// Decode workers in the measured configuration.
const WORKERS: usize = 2;
/// The service framer's preamble scan block (`SCAN_BLOCK` in
/// `crates/service/src/pipeline.rs`); the traced re-decode scans the same
/// offsets per frame.
const SCAN_BLOCK: usize = 512;
/// A stream run is invalid when any push ran later than this (about 50
/// frames): the arrival schedule was not kept, so the load may have eased.
/// Pushes never block, so only a starved generator thread runs late; the
/// host this was tuned on delays threads by up to about 50 ms at times.
const LATE_BOUND_MS: f64 = 250.0;
/// Alternating 2-worker/1-worker replay pairs behind the worker-scaling
/// figure.
const SCALING_PAIRS: usize = 3;
/// A stream run is invalid when the median latency of the last tenth of
/// its frames exceeds the first tenth's by this factor plus
/// [`BACKLOG_SLACK_MS`]: the backlog grew.
const BACKLOG_FACTOR: f64 = 2.0;
const BACKLOG_SLACK_MS: f64 = 2.0;

/// One generated frame scene and its ground truth.
struct Frame {
    samples: Vec<C64>,
    /// Per-sample unreliability flags (erasure frames only).
    mask: Option<Vec<bool>>,
    payload: Vec<u8>,
    /// Frame start within `samples`.
    offset: usize,
}

fn make_frame(bed: &Testbed, index: u64, seed: u64) -> Frame {
    let scene = bed.frame(index, seed);
    let mut f = Frame {
        samples: scene.samples,
        mask: None,
        payload: scene.payload,
        offset: scene.offset,
    };
    if index % ERASURE_EVERY == ERASURE_EVERY - 1 {
        // A rail hit over payload slots 4..7: zeroed samples, flagged by
        // the front end.
        let cfg = bed.phy();
        let spt = cfg.samples_per_slot();
        let pay = f.offset + (cfg.preamble_slots + cfg.training_rounds * cfg.l_order) * spt;
        let span = pay + 4 * spt..pay + 7 * spt;
        let mut mask = vec![false; f.samples.len()];
        f.samples[span.clone()].fill(C64::new(0.0, 0.0));
        mask[span].fill(true);
        f.mask = Some(mask);
    }
    f
}

/// The generated frames; every scene has the same length.
struct Inputs {
    bed: Testbed,
    frames: Vec<Frame>,
    scene_len: usize,
}

impl Inputs {
    /// A service with `workers` workers; `ring_scenes` sizes the ring in
    /// scenes (`None` keeps the service default).
    fn spawn(&self, workers: usize, ring_scenes: Option<usize>) -> DecodeService {
        let mut cfg = self.bed.service_config();
        cfg.workers = workers;
        if let Some(n) = ring_scenes {
            cfg.ring_capacity = n * self.scene_len;
        }
        DecodeService::spawn(cfg)
    }
}

/// Receiver construction and input generation.
fn generate(seed: u64, n_frames: usize) -> Inputs {
    let bed =
        Testbed::new(loopback_phy(2, 4), PAYLOAD_LEN, Some(CODING), SCRAMBLE).with_snr(SNR_DB);
    // Construction is what a cold `Receiver::new_cached` pays; the cached
    // call then makes sure the service's threads find it built.
    std::hint::black_box(Receiver::new(*bed.phy(), &LcParams::default(), 1));
    Receiver::new_cached(*bed.phy(), &LcParams::default(), 1);
    let frames: Vec<Frame> = (0..n_frames as u64)
        .map(|i| make_frame(&bed, i, seed))
        .collect();
    let scene_len = frames[0].samples.len();
    assert!(frames.iter().all(|f| f.samples.len() == scene_len));
    Inputs {
        bed,
        frames,
        scene_len,
    }
}

/// Set-up (receiver construction, input generation, service spawn)
/// repeated [`SETUP_REPS`] times; returns the last one and the median
/// set-up time.
fn set_up_timed(
    seed: u64,
    n_frames: usize,
    ring_scenes: Option<usize>,
) -> (Inputs, DecodeService, f64) {
    let mut times = Vec::new();
    let mut last: Option<(Inputs, DecodeService)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, svc)) = last.take() {
            svc.shutdown();
        }
        let t = Instant::now();
        let inputs = generate(seed, n_frames);
        let svc = inputs.spawn(WORKERS, ring_scenes);
        times.push(t.elapsed().as_secs_f64());
        last = Some((inputs, svc));
    }
    let (inputs, svc) = last.expect("SETUP_REPS > 0");
    (inputs, svc, median(&times))
}

/// A service event and when `recv()` returned it.
struct Received {
    event: ServiceEvent,
    at: Instant,
}

/// Per-frame ground-truth check: a frame is good when it arrives once, at
/// its true offset, with its true payload.
struct Checked {
    /// `(stream frame index, recv time, frame)` of every good frame, in
    /// stream order.
    good: Vec<(usize, Instant, ServiceFrame)>,
    /// Frames missing, dropped or wrong.
    failed: u64,
    /// Events that matched no frame.
    spurious: u64,
}

fn check(inputs: &Inputs, n: usize, events: Vec<Received>) -> Checked {
    let l = inputs.scene_len;
    let mut seen = vec![false; n];
    let mut good = Vec::new();
    let mut spurious = 0u64;
    for r in events {
        // Drops are counted through the frame they leave missing.
        let ServiceEvent::Frame(f) = r.event else {
            continue;
        };
        let i = (f.offset / l as u64) as usize;
        let truth = &inputs.frames[i % inputs.frames.len()];
        if i < n
            && !seen[i]
            && f.offset == (i * l + truth.offset) as u64
            && f.payload == truth.payload
        {
            seen[i] = true;
            good.push((i, r.at, f));
        } else {
            eprintln!("perfbench: wrong frame at offset {}", f.offset);
            spurious += 1;
        }
    }
    Checked {
        failed: seen.iter().filter(|&&s| !s).count() as u64,
        good,
        spurious,
    }
}

/// Drain every event, stamping when `recv()` returned it.
fn drain(svc: &DecodeService) -> Vec<Received> {
    let mut events = Vec::new();
    while let Some(event) = svc.recv() {
        events.push(Received {
            event,
            at: Instant::now(),
        });
    }
    events
}

/// What one paced stream produced.
struct StreamRun {
    checked: Checked,
    n_frames: usize,
    /// Per good frame: due time of the chunk that completed it.
    due: Vec<Instant>,
    late_ms: Vec<f64>,
    wall_s: f64,
    stats: ServiceStats,
}

/// Push `seconds` worth of frames (cycled from the inputs) at the paced
/// rate from a generator thread while this thread drains `recv()`.
/// With a tracer, every push is a `service.ring.push` span.
fn run_stream(inputs: &Inputs, svc: DecodeService, seconds: f64, tr: Option<&Tracer>) -> StreamRun {
    let l = inputs.scene_len;
    let rate = STREAM_SPEEDUP * inputs.bed.phy().fs;
    let n_frames = ((seconds * rate) / l as f64).ceil().max(1.0) as usize;
    // A quiet tail of two scenes lets the framer finish the last frame.
    let total = (n_frames + 2) * l;
    let n_chunks = total.div_ceil(CHUNK);
    let chunk_due =
        |t0: Instant, k: usize| t0 + Duration::from_secs_f64(((k + 1) * CHUNK) as f64 / rate);
    let idle = inputs.bed.idle(1)[0];
    let input = svc.input();
    let t0 = Instant::now() + Duration::from_millis(5);

    let (events, late_ms) = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut late_ms = Vec::with_capacity(n_chunks);
            let mut buf = Vec::with_capacity(CHUNK);
            let mut mask = Vec::with_capacity(CHUNK);
            for k in 0..n_chunks {
                buf.clear();
                mask.clear();
                for i in k * CHUNK..((k + 1) * CHUNK).min(total) {
                    let (f, w) = (i / l, i % l);
                    if f < n_frames {
                        let frame = &inputs.frames[f % inputs.frames.len()];
                        buf.push(frame.samples[w]);
                        mask.push(frame.mask.as_ref().is_some_and(|m| m[w]));
                    } else {
                        buf.push(idle);
                        mask.push(false);
                    }
                }
                let due = chunk_due(t0, k);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late_ms.push(ms(Instant::now().saturating_duration_since(due)));
                let flags = mask.iter().any(|&b| b).then_some(mask.as_slice());
                match tr {
                    Some(tr) => tr.time("service.ring.push", k as u64, None, || {
                        input.push(&buf, flags)
                    }),
                    None => input.push(&buf, flags),
                };
            }
            input.close();
            late_ms
        });
        let events = drain(&svc);
        (events, generator.join().expect("generator panicked"))
    });
    let wall_s = events
        .last()
        .map_or(0.0, |r| r.at.saturating_duration_since(t0).as_secs_f64());
    let stats = svc.shutdown();
    let checked = check(inputs, n_frames, events);
    let due = checked
        .good
        .iter()
        .map(|&(i, _, _)| chunk_due(t0, ((i + 1) * l - 1) / CHUNK))
        .collect();
    StreamRun {
        checked,
        n_frames,
        due,
        late_ms,
        wall_s,
        stats,
    }
}

impl StreamRun {
    /// Due → recv latency of every good frame, in stream order.
    fn latencies_ms(&self) -> Vec<f64> {
        self.checked
            .good
            .iter()
            .zip(&self.due)
            .map(|((_, at, _), due)| ms(at.saturating_duration_since(*due)))
            .collect()
    }

    /// Median latency of the first and the last tenth of the good frames.
    fn tenths_ms(&self) -> (f64, f64) {
        let lat = self.latencies_ms();
        let k = (lat.len() / 10).max(1);
        (median(&lat[..k]), median(&lat[lat.len() - k..]))
    }

    /// Work accounting plus the validity gates: wrong frames, generator
    /// lateness and backlog growth.
    fn report(&self) -> Report {
        let mut r = Report {
            attempted: self.n_frames as u64,
            failed: self.checked.failed,
            ..Report::default()
        };
        if self.checked.spurious > 0 {
            r.violate(format!("{} frames decoded wrong", self.checked.spurious));
        }
        let late_max = percentile(&self.late_ms, 1.0);
        eprintln!(
            "perfbench: stream generator lateness p50 {:.3} ms, p99 {:.3} ms, max {late_max:.3} ms",
            percentile(&self.late_ms, 0.5),
            percentile(&self.late_ms, 0.99),
        );
        if late_max > LATE_BOUND_MS {
            r.violate(format!(
                "generator ran late: {late_max:.3} ms > {LATE_BOUND_MS} ms"
            ));
        }
        if self.checked.good.is_empty() {
            return r;
        }
        let (first, last) = self.tenths_ms();
        eprintln!(
            "perfbench: stream p50 latency first tenth {first:.3} ms, last tenth {last:.3} ms"
        );
        if last > BACKLOG_FACTOR * first + BACKLOG_SLACK_MS {
            r.violate(format!(
                "backlog grew: last-tenth p50 latency {last:.3} ms vs first {first:.3} ms"
            ));
        }
        r
    }
}

/// The generated capture as one contiguous buffer plus a quiet tail.
struct Capture {
    samples: Vec<C64>,
    mask: Vec<bool>,
}

fn capture(inputs: &Inputs) -> Capture {
    let mut samples = Vec::with_capacity((inputs.frames.len() + 2) * inputs.scene_len);
    let mut mask = Vec::with_capacity(samples.capacity());
    for f in &inputs.frames {
        samples.extend_from_slice(&f.samples);
        match &f.mask {
            Some(m) => mask.extend_from_slice(m),
            None => mask.resize(mask.len() + f.samples.len(), false),
        }
    }
    samples.extend(inputs.bed.idle(2 * inputs.scene_len));
    mask.resize(samples.len(), false);
    Capture { samples, mask }
}

/// What one capture replay produced.
struct ReplayRun {
    checked: Checked,
    /// Push → recv latency of every good frame.
    latency_ms: Vec<f64>,
    frames_per_s: f64,
    stats: ServiceStats,
}

/// Push the whole capture in one call, close, drain every event.
fn run_replay(
    inputs: &Inputs,
    cap: &Capture,
    svc: DecodeService,
    tr: Option<&Tracer>,
) -> ReplayRun {
    let input = svc.input();
    let t0 = Instant::now();
    match tr {
        Some(tr) => tr.time("service.ring.push", 0, None, || {
            input.push(&cap.samples, Some(&cap.mask))
        }),
        None => input.push(&cap.samples, Some(&cap.mask)),
    };
    input.close();
    let events = drain(&svc);
    let wall = events
        .last()
        .map_or(Duration::ZERO, |r| r.at.duration_since(t0));
    let stats = svc.shutdown();
    let checked = check(inputs, inputs.frames.len(), events);
    ReplayRun {
        latency_ms: checked
            .good
            .iter()
            .map(|(_, at, _)| ms(at.duration_since(t0)))
            .collect(),
        frames_per_s: checked.good.len() as f64 / wall.as_secs_f64().max(1e-9),
        checked,
        stats,
    }
}

/// The `stream` workload, untraced.
pub fn stream(seed: u64, seconds: f64) -> Report {
    let (inputs, svc, setup_s) = set_up_timed(seed, STREAM_POOL, None);
    let run = run_stream(&inputs, svc, seconds, None);
    let mut r = run.report();
    let lat = run.latencies_ms();
    let fps = run.checked.good.len() as f64 / run.wall_s;
    eprintln!(
        "perfbench: stream {} frames, {} good, {:.2} s",
        run.n_frames,
        run.checked.good.len(),
        run.wall_s
    );
    if lat.is_empty() {
        return r;
    }
    // Each frame carries one MAC packet and answers one reader poll, so
    // frames, packets and sessions coincide on this workload.
    EndToEnd {
        setup_s,
        latency_p50_ms: percentile(&lat, 0.5),
        latency_p99_ms: percentile(&lat, 0.99),
        frames_per_s: fps,
        packets_per_s: fps,
        sessions_per_s: fps,
    }
    .append_to(&mut r);
    r
}

/// The `replay` workload, untraced: the capture is replayed into fresh
/// services until `seconds` of replay time have been measured.
pub fn replay(seed: u64, seconds: f64) -> Report {
    let (inputs, svc, setup_s) = set_up_timed(seed, REPLAY_FRAMES, Some(REPLAY_FRAMES + 2));
    let cap = capture(&inputs);
    let mut r = Report::default();
    let mut svc = Some(svc);
    let mut replay_checked = |r: &mut Report| {
        let svc = svc
            .take()
            .unwrap_or_else(|| inputs.spawn(WORKERS, Some(REPLAY_FRAMES + 2)));
        let t = Instant::now();
        let run = run_replay(&inputs, &cap, svc, None);
        let dt = t.elapsed().as_secs_f64();
        r.attempted += REPLAY_FRAMES as u64;
        r.failed += run.checked.failed;
        if run.checked.spurious > 0 {
            r.violate(format!("{} frames decoded wrong", run.checked.spurious));
        }
        (run, dt)
    };
    // One replay before timing lets the allocator and page tables settle;
    // its frames are checked like the rest.
    replay_checked(&mut r);
    let (mut fps, mut lat, mut spent) = (Vec::new(), Vec::new(), 0.0);
    while spent < seconds || fps.is_empty() {
        let (run, dt) = replay_checked(&mut r);
        spent += dt;
        fps.push(run.frames_per_s);
        lat.extend(run.latency_ms);
    }
    eprintln!(
        "perfbench: replay {} captures of {REPLAY_FRAMES} frames, frames/s {fps:?}",
        fps.len()
    );
    if lat.is_empty() {
        return r;
    }
    let f = median(&fps);
    // As on `stream`, frames, packets and sessions coincide.
    EndToEnd {
        setup_s,
        latency_p50_ms: percentile(&lat, 0.5),
        latency_p99_ms: percentile(&lat, 0.99),
        frames_per_s: f,
        packets_per_s: f,
        sessions_per_s: f,
    }
    .append_to(&mut r);
    r
}

/// One frame decoded again, serially, through [`Chain`].
struct Redecoded {
    offset: usize,
    bits: Vec<bool>,
    recovered: Option<RecoverReport>,
    /// Worker-side stages only (fit → recover), as the service's workers
    /// run them.
    decode_ms: f64,
}

/// Re-decode one frame scene with every stage in a span under a `frame`
/// root: the framer's detection (one scan block, then the ±1-slot
/// refinement), then the worker's fit, training, DFE, demap and MAC
/// recovery.
fn redecode(
    chain: &Chain,
    tr: &Tracer,
    unit: u64,
    frame: &Frame,
    bed: &Testbed,
) -> Option<Redecoded> {
    let cfg = bed.phy();
    let spt = cfg.samples_per_slot();
    let n_bits = bed.service_config().n_bits;
    let sig = Signal::new(frame.samples.clone(), cfg.fs);
    let root = tr.open("frame", unit, None);
    let hit = chain
        .detect(tr, unit, root, &sig, 0, SCAN_BLOCK)
        .and_then(|m| {
            let last = sig.len() - chain.detector().span() + 1;
            let (lo, hi) = (m.offset.saturating_sub(spt), (m.offset + spt + 1).min(last));
            chain.detect(tr, unit, root, &sig, lo, hi)
        });
    let t = Instant::now();
    let out = hit.and_then(|m| {
        let d = chain.demodulate(
            tr,
            unit,
            root,
            &sig,
            m.offset,
            None,
            n_bits,
            frame.mask.as_deref(),
        )?;
        let recovered = tr.time("mac.recover", unit, Some(root), || {
            let bps = cfg.bits_per_symbol();
            let bit_mask: Vec<bool> = (0..d.bits.len())
                .map(|j| d.erasures.get(j / bps).copied().unwrap_or(false))
                .collect();
            recover_with_quality(&d.bits, &bit_mask, PAYLOAD_LEN, Some(CODING), SCRAMBLE)
        });
        Some(Redecoded {
            offset: m.offset,
            bits: d.bits,
            recovered,
            decode_ms: ms(t.elapsed()),
        })
    });
    tr.close(root);
    out
}

/// Re-decode every good frame and compare with what the service returned.
struct Recheck {
    /// Serial worker-side decode time per good frame.
    decode_ms: Vec<f64>,
    mismatches: u64,
    erasures_filled: u64,
    recover_failed: u64,
}

fn recheck(inputs: &Inputs, chain: &Chain, tr: &Tracer, checked: &Checked) -> Recheck {
    let mut out = Recheck {
        decode_ms: Vec::new(),
        mismatches: 0,
        erasures_filled: 0,
        recover_failed: 0,
    };
    for (i, _, f) in &checked.good {
        let frame = &inputs.frames[i % inputs.frames.len()];
        let re = redecode(chain, tr, f.seq, frame, &inputs.bed);
        let same = re.as_ref().is_some_and(|re| {
            let rel = f.offset - (i * inputs.scene_len) as u64;
            re.offset as u64 == rel
                && re.bits == f.bits
                && re.recovered.as_ref().is_some_and(|rep| {
                    rep.payload == f.payload
                        && rep.symbols_corrected == f.symbols_corrected
                        && rep.erasures_filled == f.erasures_filled
                        && rep.erasures_flagged == f.erasures_flagged
                })
        });
        if !same {
            out.mismatches += 1;
        }
        match re {
            Some(re) => {
                match &re.recovered {
                    Some(rep) => out.erasures_filled += rep.erasures_filled as u64,
                    None => out.recover_failed += 1,
                }
                out.decode_ms.push(re.decode_ms);
            }
            None => out.recover_failed += 1,
        }
    }
    out
}

/// Stage busy times, recovery counts, composition and coverage gates for
/// a traced service workload.
fn stage_metrics(r: &mut Report, wl: &str, spans: &[trace::Span], re: &Recheck, bed: &Testbed) {
    let p = trace::profile(spans);
    let n = re.decode_ms.len().max(1) as f64;
    for stage in [
        "core.detect",
        "core.train",
        "core.dfe",
        "core.demap",
        "mac.recover",
    ] {
        r.push(format!("{wl}.{stage}.busy_ms"), p.self_ms(stage) / n, "ms");
    }
    r.push(
        format!("{wl}.mac.recover.erasures_filled"),
        re.erasures_filled as f64 / n,
        "1/frame",
    );
    r.push(
        format!("{wl}.mac.recover.failed"),
        re.recover_failed as f64,
        "count",
    );
    // The §7.2.2 real-time contract: demodulating a frame must take less
    // time than its payload's air time at the PHY's own sample rate.
    let cfg = bed.phy();
    let n_payload = bed.service_config().n_bits.div_ceil(cfg.bits_per_symbol());
    let airtime_ms = n_payload as f64 * cfg.t_slot * 1e3;
    r.push(
        format!("{wl}.realtime.decode_per_airtime"),
        mean(&re.decode_ms) / airtime_ms,
        "ratio",
    );
    let coverage = p.coverage();
    r.push(format!("{wl}.stages.coverage"), coverage, "ratio");
    if coverage < 0.95 {
        r.violate(format!("{wl}: stage coverage {coverage:.3} < 0.95"));
    }
    if re.mismatches > 0 {
        r.violate(format!(
            "{wl}: {} frames where the stage composition differs from the service",
            re.mismatches
        ));
    }
    eprintln!("perfbench: {wl} stage shares {:?}", p.shares());
}

/// Queue-depth means and loss counters from `ServiceStats`.
fn service_stats_metrics(r: &mut Report, wl: &str, s: &ServiceStats) {
    r.push(
        format!("{wl}.service.frame_queue.depth_mean"),
        s.frame_queue_depth.mean(),
        "frames",
    );
    r.push(
        format!("{wl}.service.out_queue.depth_mean"),
        s.out_queue_depth.mean(),
        "events",
    );
    r.push(
        format!("{wl}.service.frames.degraded"),
        s.frames_degraded as f64,
        "count",
    );
    r.push(
        format!("{wl}.service.frames.dropped"),
        s.frames_dropped as f64,
        "count",
    );
    r.push(
        format!("{wl}.service.samples.lost"),
        s.samples_lost as f64,
        "count",
    );
}

/// The traced `stream`: an untraced pass and a traced pass of a third of
/// `seconds` each, then every delivered frame re-decoded through the
/// timed stage composition.
pub fn stream_traced(seed: u64, seconds: f64, out_dir: &Path) -> Report {
    let pass = seconds / 3.0;
    let inputs = generate(seed, STREAM_POOL);
    let untraced = run_stream(&inputs, inputs.spawn(WORKERS, None), pass, None);
    let push_tr = Tracer::new();
    let run = run_stream(&inputs, inputs.spawn(WORKERS, None), pass, Some(&push_tr));
    let mut r = run.report();
    r.absorb(untraced.report());
    let lat = run.latencies_ms();
    let lat_u = untraced.latencies_ms();
    if lat.is_empty() || lat_u.is_empty() {
        return r;
    }

    let chain = Chain::new(*inputs.bed.phy(), &LcParams::default(), 1);
    let tr = Tracer::new();
    let re = recheck(&inputs, &chain, &tr, &run.checked);

    let push_spans = push_tr.into_spans();
    let push_us: Vec<f64> = push_spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    r.push("stream.service.ring.push_us", mean(&push_us), "us");
    // Detection time is when the worker's latency clock started: recv
    // time minus the frame's reported latency.
    let detected: Vec<Instant> = run
        .checked
        .good
        .iter()
        .map(|(_, at, f)| *at - f.latency)
        .collect();
    let wait: Vec<f64> = detected
        .iter()
        .zip(&run.due)
        .map(|(d, due)| ms(d.saturating_duration_since(*due)))
        .collect();
    r.push("stream.service.framer.wait_ms", median(&wait), "ms");
    let queue: Vec<f64> = run
        .checked
        .good
        .iter()
        .zip(&re.decode_ms)
        .map(|((_, _, f), d)| ms(f.latency) - d)
        .collect();
    r.push("stream.service.queue.wait_ms", median(&queue), "ms");
    service_stats_metrics(&mut r, "stream", &run.stats);
    let spans = tr.into_spans();
    stage_metrics(&mut r, "stream", &spans, &re, &inputs.bed);
    r.push("stream.latency_p50_ms", percentile(&lat, 0.5), "ms");
    r.push("stream.latency_p99_ms", percentile(&lat, 0.99), "ms");
    r.push(
        "stream.generator.late_p99_ms",
        percentile(&run.late_ms, 0.99),
        "ms",
    );
    let (first, last) = run.tenths_ms();
    r.push("stream.backlog.growth", last / first, "ratio");
    r.push(
        "stream.trace.overhead_ms",
        percentile(&lat, 0.5) - percentile(&lat_u, 0.5),
        "ms",
    );
    write_spans(out_dir, "stream", seed, &spans, &push_spans);
    r
}

/// The traced `replay`: untraced replays at 2 workers and at 1 worker
/// (the worker-scaling baseline), one traced replay, then every frame
/// re-decoded through the timed stage composition.
pub fn replay_traced(seed: u64, out_dir: &Path) -> Report {
    let inputs = generate(seed, REPLAY_FRAMES);
    let cap = capture(&inputs);
    let ring = Some(REPLAY_FRAMES + 2);
    let mut r = Report::default();
    let mut replay = |workers: usize, tr: Option<&Tracer>| {
        let run = run_replay(&inputs, &cap, inputs.spawn(workers, ring), tr);
        r.attempted += REPLAY_FRAMES as u64;
        r.failed += run.checked.failed;
        if run.checked.spurious > 0 {
            r.violate(format!(
                "replay: {} frames decoded wrong",
                run.checked.spurious
            ));
        }
        run
    };
    // The first replays of a process run slow, so two warm up, and the 2-
    // and 1-worker replays then alternate to share whatever drift is left.
    replay(WORKERS, None);
    replay(WORKERS, None);
    let (mut two, mut one) = (Vec::new(), Vec::new());
    for _ in 0..SCALING_PAIRS {
        two.push(replay(WORKERS, None).frames_per_s);
        one.push(replay(1, None).frames_per_s);
    }
    let push_tr = Tracer::new();
    let run = replay(WORKERS, Some(&push_tr));
    let (two, one) = (median(&two), median(&one));

    let chain = Chain::new(*inputs.bed.phy(), &LcParams::default(), 1);
    let tr = Tracer::new();
    let re = recheck(&inputs, &chain, &tr, &run.checked);

    let mut detected: Vec<Instant> = run
        .checked
        .good
        .iter()
        .map(|(_, at, f)| *at - f.latency)
        .collect();
    detected.sort();
    let gaps: Vec<f64> = detected
        .windows(2)
        .map(|w| ms(w[1].duration_since(w[0])))
        .collect();
    if !gaps.is_empty() {
        let k = (gaps.len() / 10).max(1);
        r.push("replay.service.framer.gap_ms", median(&gaps), "ms");
        r.push(
            "replay.service.framer.gap_first_tenth_ms",
            mean(&gaps[..k]),
            "ms",
        );
        r.push(
            "replay.service.framer.gap_last_tenth_ms",
            mean(&gaps[gaps.len() - k..]),
            "ms",
        );
    }
    service_stats_metrics(&mut r, "replay", &run.stats);
    let spans = tr.into_spans();
    stage_metrics(&mut r, "replay", &spans, &re, &inputs.bed);
    r.push("replay.service.worker_scaling", two / one, "ratio");
    r.push("replay.trace.overhead_fps", run.frames_per_s - two, "1/s");
    eprintln!(
        "perfbench: replay frames/s 2 workers {two:.1}, 1 worker {one:.1}, traced {:.1}",
        run.frames_per_s
    );
    write_spans(out_dir, "replay", seed, &spans, &push_tr.into_spans());
    r
}

fn write_spans(
    out_dir: &Path,
    wl: &str,
    seed: u64,
    stages: &[trace::Span],
    pushes: &[trace::Span],
) {
    for (what, spans) in [("stages", stages), ("push", pushes)] {
        let path = out_dir.join(format!("{wl}-{what}-seed{seed}.tsv"));
        if let Err(e) = trace::write_tsv(&path, spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
}
