//! `fleet`: `run_fleet` over 8-tag fleets at 2 threads — slotted-ALOHA
//! discovery, weighted TDMA and stop-and-wait sessions on the fleet
//! layer's BER model. No waveform work.

use crate::fingerprints;
use crate::stats::{median, percentile, EndToEnd, Report, SETUP_REPS};
use crate::trace::{self, Tracer};
use retroturbo_runtime::{par_map_seeded, with_threads};
use retroturbo_sim::fleet::{aggregate, draw_plan, run_fleet, run_session_with_plan};
use retroturbo_sim::{FleetConfig, FleetReport};
use std::path::Path;
use std::time::Instant;

const TAGS: usize = 8;
/// Sessions per `run_fleet` job.
pub const SESSIONS: usize = 2000;
const THREADS: usize = 2;
/// Alternating 2-thread/1-thread job pairs behind the scaling figure.
const SCALING_PAIRS: usize = 3;
/// Sessions in the set-up's warm-up job.
const WARMUP_SESSIONS: usize = 100;

fn job(cfg: &FleetConfig, seed: u64, threads: usize) -> (FleetReport, f64) {
    let t = Instant::now();
    let rep = with_threads(threads, || run_fleet(cfg, SESSIONS, seed));
    (rep, t.elapsed().as_secs_f64())
}

/// Regenerate the stored canonical report for one input seed.
pub fn fingerprint(input_seed: u64) -> String {
    job(&FleetConfig::new(TAGS), input_seed, THREADS).0.canon()
}

/// Frames offered per job: every session plays its super-frames in full.
fn offered(cfg: &FleetConfig) -> f64 {
    (SESSIONS * cfg.superframes * cfg.frames_per_superframe) as f64
}

/// The `fleet` workload, untraced: jobs back to back until `seconds` have
/// been measured.
pub fn fleet(seed: u64, seconds: f64) -> Report {
    let input_seed = fingerprints::input_seed(seed);
    let mut setups = Vec::new();
    let mut cfg = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let c = FleetConfig::new(TAGS);
        // The fleet has no receiver or inputs to build; a small job warms
        // the thread pool and allocator before the first measured job.
        let warm = with_threads(THREADS, || {
            run_fleet(&c, WARMUP_SESSIONS, !seed.wrapping_add(rep as u64))
        });
        std::hint::black_box(warm);
        setups.push(t.elapsed().as_secs_f64());
        cfg = Some(c);
    }
    let cfg = cfg.expect("SETUP_REPS > 0");
    let want = fingerprints::fleet(input_seed);
    let mut r = Report::default();
    let (mut times, mut spent, mut last) = (Vec::new(), 0.0, None);
    // The first job is a warm-up: checked, not timed.
    let mut warm_up = true;
    while spent < seconds || times.is_empty() {
        let (rep, dt) = job(&cfg, input_seed, THREADS);
        if !std::mem::take(&mut warm_up) {
            spent += dt;
            times.push(dt);
        }
        r.attempted += SESSIONS as u64;
        if rep.canon() != want {
            eprintln!(
                "perfbench: fleet report differs from the stored one:\n{}",
                rep.canon()
            );
            r.failed += SESSIONS as u64;
        }
        last = Some(rep);
    }
    let rep = last.expect("at least one job");
    eprintln!("perfbench: fleet jobs (s) {times:?}");
    let t = median(&times);
    // A session's outcome arrives when `run_fleet` returns, so its latency
    // is the job's wall time. Frames are uplink transmissions (attempts);
    // packets are delivered payloads.
    EndToEnd {
        setup_s: median(&setups),
        latency_p50_ms: t * 1e3,
        latency_p99_ms: percentile(&times, 0.99) * 1e3,
        frames_per_s: offered(&cfg) * rep.mean_attempts / t,
        packets_per_s: offered(&cfg) * rep.delivery_rate / t,
        sessions_per_s: SESSIONS as f64 / t,
    }
    .append_to(&mut r);
    r
}

/// The traced `fleet`: untraced jobs at 2 threads and at 1 thread (the
/// scaling baseline), then `run_fleet` re-composed from `draw_plan`,
/// `run_session_with_plan` and `aggregate` with each call in a span.
pub fn fleet_traced(seed: u64, out_dir: &Path) -> Report {
    let input_seed = fingerprints::input_seed(seed);
    let cfg = FleetConfig::new(TAGS);
    let want = fingerprints::fleet(input_seed);
    let mut r = Report::default();
    // Alternate 2- and 1-thread jobs so drift in the host's speed falls on
    // both sides of the scaling ratio; every job is checked.
    let (mut t2, mut t1, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..SCALING_PAIRS {
        for (threads, times) in [(THREADS, &mut t2), (1, &mut t1)] {
            let (rep, dt) = job(&cfg, input_seed, threads);
            times.push(dt);
            r.attempted += SESSIONS as u64;
            if rep.canon() != want {
                r.failed += SESSIONS as u64;
            }
            last = Some(rep);
        }
    }
    let untraced = last.expect("SCALING_PAIRS > 0");
    let (t2, t1) = (median(&t2), median(&t1));

    let tr = Tracer::new();
    let t = Instant::now();
    let root = tr.open("fleet.job", 0, None);
    let outcomes = with_threads(THREADS, || {
        par_map_seeded(input_seed, (0..SESSIONS).collect(), |_, session_seed, i| {
            let u = i as u64;
            let plan = tr.time("fleet.plan", u, Some(root), || {
                draw_plan(&cfg, session_seed)
            });
            tr.time("fleet.session", u, Some(root), || {
                run_session_with_plan(&cfg, &plan)
            })
        })
    });
    let rep_t = tr.time("fleet.aggregate", SESSIONS as u64, Some(root), || {
        aggregate(&cfg, &outcomes)
    });
    tr.close(root);
    let tt = t.elapsed().as_secs_f64();

    r.attempted += SESSIONS as u64;
    if rep_t.canon() != untraced.canon() {
        r.failed += SESSIONS as u64;
        r.violate("fleet: the stage composition's report differs from run_fleet's".into());
    }

    let spans = tr.into_spans();
    let p = trace::profile(&spans);
    let n = SESSIONS as f64;
    r.push(
        "fleet.plan.busy_us",
        p.self_ms("fleet.plan") * 1e3 / n,
        "us",
    );
    r.push(
        "fleet.session.busy_us",
        p.self_ms("fleet.session") * 1e3 / n,
        "us",
    );
    r.push(
        "fleet.aggregate.busy_ms",
        p.self_ms("fleet.aggregate"),
        "ms",
    );
    r.push(
        "fleet.mac.attempts_per_frame",
        untraced.mean_attempts,
        "ratio",
    );
    r.push("fleet.delivery_rate", untraced.delivery_rate, "ratio");
    r.push("fleet.runtime.scaling", t1 / t2, "ratio");
    let coverage = p.coverage();
    r.push("fleet.stages.coverage", coverage, "ratio");
    if coverage < 0.95 {
        r.violate(format!("fleet: stage coverage {coverage:.3} < 0.95"));
    }
    r.push("fleet.trace.overhead_sps", n / tt - n / t2, "1/s");
    eprintln!(
        "perfbench: fleet job s: 2 threads {t2:.3}, 1 thread {t1:.3}, traced {tt:.3}; stage shares {:?}",
        p.shares()
    );
    let path = out_dir.join(format!("fleet-stages-seed{seed}.tsv"));
    if let Err(e) = trace::write_tsv(&path, &spans) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    r
}
