//! `sweep`: the Fig. 16a BER-vs-distance grid (4 and 8 kbps × the paper's
//! 11 distances, 30 × 128-byte packets per point) through `SweepEngine`
//! with its render cache, on the default backend at 2 threads.

use crate::fingerprints;
use crate::stages::Chain;
use crate::stats::{median, percentile, EndToEnd, Report, SETUP_REPS};
use crate::trace::{self, Tracer};
use retroturbo_core::{PhyConfig, Receiver};
use retroturbo_lcm::LcParams;
use retroturbo_runtime::{par_map_seeded, with_threads};
use retroturbo_sim::sweep::workloads::{BerOut, FieldOracle, FieldSweep};
use retroturbo_sim::{
    CleanPacket, GridPoint, LinkBudget, LinkSimulator, Scene, SweepEngine, SweepWorkload,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The distances of the paper's Fig. 16a, metres.
const DISTANCES: [f64; 11] = [3.0, 5.0, 6.0, 7.0, 7.5, 8.0, 9.0, 10.0, 10.5, 11.0, 12.0];
const PACKETS: usize = 30;
const PAYLOAD_BYTES: usize = 128;
const THREADS: usize = 2;
/// Retained offline-training bases of `LinkSimulator::new`.
const S_BASES: usize = 3;
/// Rest-level guard before each simulated frame (`PAD` in
/// `crates/sim/src/link.rs`); the link's reader searches offsets
/// `[0, PAD + 2 slots)`.
const PAD: usize = 60;

fn phy(curve: usize) -> PhyConfig {
    if curve == 0 {
        PhyConfig::default_4kbps()
    } else {
        PhyConfig::default_8kbps()
    }
}

type Make = Box<dyn Fn(usize, f64) -> LinkSimulator + Sync>;

fn workload(seed: u64) -> FieldSweep<Make> {
    FieldSweep {
        make: Box::new(move |curve, d| {
            LinkSimulator::new(phy(curve), LinkBudget::fov10(), Scene::default_at(d), seed)
        }),
        n_packets: PACKETS,
        payload_bytes: PAYLOAD_BYTES,
        oracle: FieldOracle::Fused,
    }
}

/// Curve-major grid, as the Fig. 16a experiment builds it.
fn grid(seed: u64) -> Vec<GridPoint> {
    (0..2)
        .flat_map(|c| DISTANCES.iter().map(move |&d| GridPoint::new(c, d, seed)))
        .collect()
}

/// One sweep job at `threads` threads: rows and wall seconds.
fn run_job<W: SweepWorkload<Out = BerOut>>(
    w: &W,
    seed: u64,
    threads: usize,
) -> (Vec<(GridPoint, BerOut)>, f64) {
    let t = Instant::now();
    let rows = with_threads(threads, || SweepEngine::new(seed).run(w, grid(seed)));
    (rows, t.elapsed().as_secs_f64())
}

/// The BER bit patterns of a job's rows, in grid order.
fn row_bits(rows: &[(GridPoint, BerOut)]) -> Vec<u64> {
    rows.iter().map(|(_, o)| o.ber.to_bits()).collect()
}

/// Regenerate the stored rows for one input seed.
pub fn fingerprint(input_seed: u64) -> Vec<u64> {
    row_bits(&run_job(&workload(input_seed), input_seed, THREADS).0)
}

/// Count packets in rows whose BER bits differ from the stored ones.
fn failed_packets(rows: &[(GridPoint, BerOut)], want: &[u64]) -> u64 {
    let got = row_bits(rows);
    let bad = if got.len() == want.len() {
        got.iter().zip(want).filter(|(a, b)| a != b).count()
    } else {
        want.len().max(got.len())
    };
    (bad * PACKETS) as u64
}

/// Receiver construction for both curves, and the workload and its
/// stored rows.
fn set_up(seed: u64) -> (FieldSweep<Make>, Vec<u64>) {
    for c in 0..2 {
        std::hint::black_box(Receiver::new(phy(c), &LcParams::default(), S_BASES));
        Receiver::new_cached(phy(c), &LcParams::default(), S_BASES);
    }
    (workload(seed), fingerprints::sweep(seed))
}

/// The `sweep` workload, untraced: whole-grid jobs back to back until
/// `seconds` have been measured.
pub fn sweep(seed: u64, seconds: f64) -> Report {
    let input_seed = fingerprints::input_seed(seed);
    let mut setups = Vec::new();
    let mut set = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        set = Some(set_up(input_seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (w, want) = set.expect("SETUP_REPS > 0");
    let mut r = Report::default();
    let (mut times, mut spent) = (Vec::new(), 0.0);
    while spent < seconds || times.is_empty() {
        let (rows, dt) = run_job(&w, input_seed, THREADS);
        spent += dt;
        times.push(dt);
        r.attempted += (rows.len() * PACKETS) as u64;
        r.failed += failed_packets(&rows, &want);
    }
    eprintln!("perfbench: sweep jobs (s) {times:?}");
    let job = median(&times);
    let packets = (2 * DISTANCES.len() * PACKETS) as f64;
    // Every row arrives when the engine returns, so a point's latency is
    // its job's wall time. Each decoded packet is one waveform frame; a
    // grid point is one tag–reader session of 30 packets.
    EndToEnd {
        setup_s: median(&setups),
        latency_p50_ms: job * 1e3,
        latency_p99_ms: percentile(&times, 0.99) * 1e3,
        frames_per_s: packets / job,
        packets_per_s: packets / job,
        sessions_per_s: (2 * DISTANCES.len()) as f64 / job,
    }
    .append_to(&mut r);
    r
}

/// A packet decoded by the traced composition.
struct Decoded {
    point: GridPoint,
    packet: usize,
    bits: Option<Vec<bool>>,
}

/// `FieldSweep` re-composed from the public stage calls, each in a span
/// under the job's root span.
struct Traced<'a> {
    inner: &'a FieldSweep<Make>,
    chains: [Chain; 2],
    tr: &'a Tracer,
    root: usize,
    renders: Mutex<HashMap<u64, Arc<Vec<CleanPacket>>>>,
    decoded: Mutex<Vec<Decoded>>,
}

fn unit(p: &GridPoint, packet: usize) -> u64 {
    ((p.curve as u64) << 40) | (((p.x * 1e3) as u64) << 12) | packet as u64
}

impl SweepWorkload for Traced<'_> {
    type Render = Arc<Vec<CleanPacket>>;
    type Out = BerOut;

    fn render_key(&self, p: &GridPoint) -> Option<u64> {
        self.inner.render_key(p)
    }

    fn render(&self, p: &GridPoint) -> Self::Render {
        let (tr, root) = (self.tr, Some(self.root));
        let (sim, mut scratch) = tr.time("sim.link.new", unit(p, 0), root, || {
            let sim = (self.inner.make)(p.curve, p.x);
            let scratch = sim.make_scratch();
            (sim, scratch)
        });
        let packets: Vec<CleanPacket> = (0..PACKETS)
            .map(|pk| {
                let u = unit(p, pk);
                let bits = sim.packet_bits(PAYLOAD_BYTES, pk as u64);
                let wave = tr.time("lcm.render", u, root, || {
                    sim.render_clean(&mut scratch, &bits)
                });
                let unit_noise = tr.time("dsp.noise", u, root, || {
                    sim.packet_unit_noise(wave.len(), pk as u64)
                });
                CleanPacket {
                    bits,
                    wave,
                    unit_noise,
                }
            })
            .collect();
        let packets = Arc::new(packets);
        let key = self.inner.render_key(p).expect("field sweeps always cache");
        self.renders
            .lock()
            .expect("a sweep worker panicked")
            .insert(key, Arc::clone(&packets));
        packets
    }

    fn measure(&self, p: &GridPoint, cached: Option<&Self::Render>) -> BerOut {
        let (tr, root) = (self.tr, self.root);
        let renders = cached.expect("the traced sweep runs with the render cache");
        let (sim, mut scratch) = tr.time("sim.link.new", unit(p, 0), Some(root), || {
            let sim = (self.inner.make)(p.curve, p.x);
            let scratch = sim.make_scratch();
            (sim, scratch)
        });
        let chain = &self.chains[p.curve];
        let spt = phy(p.curve).samples_per_slot();
        let (mut errs, mut total) = (0usize, 0usize);
        let mut decoded = Vec::with_capacity(renders.len());
        for (pk, cp) in renders.iter().enumerate() {
            let u = unit(p, pk);
            let sig = tr.time("sim.channel", u, Some(root), || {
                sim.synth_rx_renoise(&mut scratch, &cp.wave, &cp.unit_noise, pk as u64)
            });
            let n = cp.bits.len();
            let bits = chain
                .detect(tr, u, root, &sig, 0, PAD + 2 * spt)
                .and_then(|m| chain.demodulate(tr, u, root, &sig, m.offset, Some(m.fit), n, None))
                .map(|d| d.bits);
            errs += match &bits {
                Some(b) => b.iter().zip(&cp.bits).filter(|(a, b)| a != b).count(),
                // An undetected or truncated packet counts every bit wrong.
                None => n,
            };
            total += n;
            decoded.push(Decoded {
                point: *p,
                packet: pk,
                bits,
            });
            scratch.give_back(sig.into_samples());
        }
        self.decoded
            .lock()
            .expect("a sweep worker panicked")
            .extend(decoded);
        BerOut {
            ber: errs as f64 / total.max(1) as f64,
            snr_db: sim.effective_snr_db(),
        }
    }

    fn ber(out: &BerOut) -> f64 {
        out.ber
    }
}

/// Decode every traced packet again with `Receiver::receive_window`, as
/// the link simulator does, and count packets whose bits differ from the
/// stage composition's.
fn verify(w: &FieldSweep<Make>, traced: &Traced, seed: u64) -> u64 {
    let decoded = std::mem::take(&mut *traced.decoded.lock().expect("a sweep worker panicked"));
    let renders = traced.renders.lock().expect("a sweep worker panicked");
    let mismatches = with_threads(THREADS, || {
        par_map_seeded(seed, decoded, |_, _, d| {
            let key = w.render_key(&d.point).expect("field sweeps always cache");
            let cp = &renders[&key][d.packet];
            let sim = (w.make)(d.point.curve, d.point.x);
            let mut scratch = sim.make_scratch();
            let sig = sim.synth_rx_renoise(&mut scratch, &cp.wave, &cp.unit_noise, d.packet as u64);
            let cfg = phy(d.point.curve);
            let rx = Receiver::new_cached(cfg, &LcParams::default(), S_BASES);
            let want = rx
                .receive_window(&sig, 0, PAD + 2 * cfg.samples_per_slot(), cp.bits.len())
                .ok()
                .map(|r| r.bits);
            u64::from(want != d.bits)
        })
    });
    mismatches.iter().sum()
}

/// The traced `sweep`: an untraced job at 2 threads and at 1 thread (the
/// scaling baseline), then a traced job at 2 threads through the stage
/// composition, whose packets are then re-decoded by the receiver.
pub fn sweep_traced(seed: u64, out_dir: &Path) -> Report {
    let input_seed = fingerprints::input_seed(seed);
    let (w, want) = set_up(input_seed);
    let mut r = Report::default();
    let (rows2, t2) = run_job(&w, input_seed, THREADS);
    let (rows1, t1) = run_job(&w, input_seed, 1);
    let tr = Tracer::new();
    let traced = Traced {
        inner: &w,
        chains: [0, 1].map(|c| Chain::new(phy(c), &LcParams::default(), S_BASES)),
        tr: &tr,
        root: tr.open("sweep.job", 0, None),
        renders: Mutex::new(HashMap::new()),
        decoded: Mutex::new(Vec::new()),
    };
    let (rows_t, tt) = run_job(&traced, input_seed, THREADS);
    tr.close(traced.root);
    for rows in [&rows2, &rows1, &rows_t] {
        r.attempted += (rows.len() * PACKETS) as u64;
        r.failed += failed_packets(rows, &want);
    }
    let mismatches = verify(&w, &traced, input_seed);
    if mismatches > 0 {
        r.violate(format!(
            "sweep: {mismatches} packets where the stage composition differs from the receiver"
        ));
    }
    drop(traced);

    let spans = tr.into_spans();
    let p = trace::profile(&spans);
    let packets = (2 * DISTANCES.len() * PACKETS) as f64;
    for stage in [
        "core.detect",
        "core.train",
        "core.dfe",
        "core.demap",
        "sim.channel",
    ] {
        r.push(
            format!("sweep.{stage}.busy_ms"),
            p.self_ms(stage) / packets,
            "ms",
        );
    }
    let renders = p.calls("lcm.render");
    r.push(
        "sweep.lcm.render.busy_ms",
        p.self_ms("lcm.render") / renders.max(1) as f64,
        "ms",
    );
    r.push("sweep.lcm.render.calls", renders as f64, "count");
    r.push(
        "sweep.dsp.noise.busy_ms",
        p.self_ms("dsp.noise") / p.calls("dsp.noise").max(1) as f64,
        "ms",
    );
    r.push(
        "sweep.sim.sweep.decodes_per_render",
        packets / renders.max(1) as f64,
        "ratio",
    );
    // §7.2.2: demodulation time against the payload's air time.
    let demod_ms: f64 = ["core.detect", "core.train", "core.dfe", "core.demap"]
        .iter()
        .map(|s| p.self_ms(s))
        .sum();
    let airtime_ms: f64 = (0..2)
        .map(|c| {
            let cfg = phy(c);
            let n_payload = (PAYLOAD_BYTES * 8).div_ceil(cfg.bits_per_symbol());
            (DISTANCES.len() * PACKETS) as f64 * n_payload as f64 * cfg.t_slot * 1e3
        })
        .sum();
    r.push(
        "sweep.realtime.decode_per_airtime",
        demod_ms / airtime_ms,
        "ratio",
    );
    r.push("sweep.runtime.scaling", t1 / t2, "ratio");
    let coverage = p.coverage();
    r.push("sweep.stages.coverage", coverage, "ratio");
    if coverage < 0.95 {
        r.violate(format!("sweep: stage coverage {coverage:.3} < 0.95"));
    }
    r.push(
        "sweep.trace.overhead_pps",
        packets / tt - packets / t2,
        "1/s",
    );
    eprintln!(
        "perfbench: sweep job s: 2 threads {t2:.3}, 1 thread {t1:.3}, traced {tt:.3}; stage shares {:?}",
        p.shares()
    );
    let path = out_dir.join(format!("sweep-stages-seed{seed}.tsv"));
    if let Err(e) = trace::write_tsv(&path, &spans) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    r
}
