//! Machine-readable sweep-engine benchmark: times whole figure sweeps in
//! three modes — the end-to-end scalar reference oracle, the fused
//! pipeline without the render cache (the pre-engine driver), and the
//! engine's cached re-noise path — and writes `BENCH_sweeps.json`: a
//! `meta` provenance block plus one record per `{sweep, mode, threads,
//! points, ms_total, ns_per_point, speedup}` measurement. `speedup` is each
//! sweep's baseline-mode time over the row's time (baseline = the sweep's
//! first listed mode), so the cached row's speedup is the headline engine
//! win. The schema contract is documented in `crates/bench/README.md`.
//!
//! Before timing, every mode's full result set is serialised bit-exactly
//! and compared; any divergence between the cached path and its oracles is
//! reported and the process exits nonzero — the same checksum-divergence
//! gate `bench_kernels` applies to its kernel pairs, applied to whole
//! sweeps. Set `RETRO_FULL=1` for the paper-scale protocol (larger grids,
//! 30 × 128-byte packets per point); quick mode is the CI smoke profile.

use std::time::Instant;

use retroturbo_bench::{banner, emit_bench_json};
use retroturbo_core::PhyConfig;
use retroturbo_sim::experiments::Effort;
use retroturbo_sim::sweep::workloads::{BerOut, EmuSweep, FieldOracle, FieldSweep};
use retroturbo_sim::{
    EmulatedLink, GridPoint, LinkBudget, LinkSimulator, Scene, SweepEngine, SweepWorkload,
};

struct Record {
    sweep: String,
    mode: &'static str,
    threads: usize,
    points: usize,
    ms_total: f64,
    ns_per_point: f64,
    speedup: f64,
}

/// Bit-exact serialisation of a sweep's rows: the cross-mode identity gate.
fn canon(rows: &[(GridPoint, BerOut)]) -> String {
    rows.iter()
        .map(|(p, o)| {
            format!(
                "{}|{}|{:016x}|{:016x}|{:016x}\n",
                p.curve,
                p.round,
                p.x.to_bits(),
                o.ber.to_bits(),
                o.snr_db.to_bits()
            )
        })
        .collect()
}

/// Run `sweep()` `reps` times and return (min wall ms, last result).
fn time_ms<F: FnMut() -> Vec<(GridPoint, BerOut)>>(
    reps: usize,
    mut sweep: F,
) -> (f64, Vec<(GridPoint, BerOut)>) {
    let mut best = f64::INFINITY;
    let mut last = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        last = sweep();
        best = best.min(t0.elapsed().as_nanos() as f64 / 1e6);
    }
    (best, last)
}

/// Measure one sweep across its modes; the first mode is the baseline.
/// Returns the records, the baseline's bit-exact serialisation, and any
/// cross-mode divergence message.
fn measure_sweep<W: SweepWorkload<Out = BerOut>>(
    name: &str,
    modes: &[(&'static str, SweepEngine)],
    workload: &W,
    grid: &[GridPoint],
    reps: usize,
) -> (Vec<Record>, String, Option<String>) {
    let mut records = Vec::new();
    let mut baseline_ms = f64::NAN;
    let mut baseline_canon = String::new();
    let mut diverged = None;
    for (i, (mode, engine)) in modes.iter().enumerate() {
        let (ms, rows) = time_ms(reps, || engine.run(workload, grid.to_vec()));
        let c = canon(&rows);
        if i == 0 {
            baseline_ms = ms;
            baseline_canon = c;
        } else if c != baseline_canon {
            diverged = Some(format!("{name}: {mode} diverged from {}", modes[0].0));
        }
        eprintln!("# {name}/{mode}: {ms:.1} ms over {} points", rows.len());
        records.push(Record {
            sweep: name.to_string(),
            mode,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            points: rows.len(),
            ms_total: ms,
            ns_per_point: ms * 1e6 / rows.len().max(1) as f64,
            speedup: baseline_ms / ms,
        });
    }
    (records, baseline_canon, diverged)
}

/// Measure every sweep at one effort profile, appending records and any
/// divergence messages.
fn run_profile(effort: Effort, records: &mut Vec<Record>, diverged: &mut Vec<String>) {
    let full = effort == Effort::Full;
    // Quick rows are milliseconds long: the minimum of 5 runs ranks the
    // modes the way the full rows do (2 did not).
    let reps = if full { 1 } else { 5 };
    let seed = 7;

    // --- fig16a field sweep: BER vs distance at 4/8 kbps ------------------
    // Quick profile matches the historical `sweep_fig16a_quick` workload
    // (2 distances × 2 curves); full uses the paper's distance grid.
    let distances: &[f64] = if full {
        &[3.0, 5.0, 6.0, 7.0, 7.5, 8.0, 9.0, 10.0, 10.5, 11.0, 12.0]
    } else {
        &[4.0, 9.0]
    };
    let field = |oracle: FieldOracle| FieldSweep {
        make: move |curve: usize, d: f64| {
            let cfg = if curve == 0 {
                PhyConfig::default_4kbps()
            } else {
                PhyConfig::default_8kbps()
            };
            LinkSimulator::new(cfg, LinkBudget::fov10(), Scene::default_at(d), seed)
        },
        n_packets: effort.packets(),
        payload_bytes: effort.payload_bytes(),
        oracle,
    };
    let mut grid = Vec::new();
    for curve in 0..2 {
        for &d in distances {
            grid.push(GridPoint::new(curve, d, seed));
        }
    }
    let name = if full { "fig16a_full" } else { "fig16a_quick" };
    // The scalar end-to-end oracle is the honest "before any kernel work"
    // baseline; the fused no-cache mode is the pre-engine driver. Both must
    // be bit-identical to the cached path.
    {
        let scalar = field(FieldOracle::Scalar);
        let (recs, scalar_canon, div) = measure_sweep(
            name,
            &[("scalar_oracle", SweepEngine::new(seed).no_cache())],
            &scalar,
            &grid,
            reps,
        );
        let scalar_ms = recs[0].ms_total;
        records.extend(recs);
        if let Some(d) = div {
            diverged.push(d);
        }

        let fused = field(FieldOracle::Fused);
        let (mut recs, fused_canon, div) = measure_sweep(
            name,
            &[
                ("no_cache_fused", SweepEngine::new(seed).no_cache()),
                ("engine_cached", SweepEngine::new(seed)),
            ],
            &fused,
            &grid,
            reps,
        );
        if let Some(d) = div {
            diverged.push(d);
        }
        // The scalar oracle must agree with the fused modes too; re-base the
        // fused rows' speedups so every row reports gain over it.
        if fused_canon != scalar_canon {
            diverged.push(format!(
                "{name}: fused pipeline diverged from scalar oracle"
            ));
        }
        for r in &mut recs {
            r.speedup = scalar_ms / r.ms_total;
        }
        records.extend(recs);
    }

    // --- fig18a emulated sweep: BER vs SNR per rate (§7.3) ----------------
    // Every point of a rate's curve shares one cached render set; the
    // no-cache mode re-renders and re-draws noise at every SNR, which is
    // what the pre-engine driver did.
    let emu_cfgs: Vec<(usize, fn() -> PhyConfig)> =
        vec![(0, PhyConfig::default_4kbps), (1, PhyConfig::default_8kbps)];
    let snrs: Vec<f64> = if full {
        (0..13).map(|i| 4.0 + 3.0 * i as f64).collect()
    } else {
        vec![12.0, 20.0, 28.0, 36.0]
    };
    let emu = EmuSweep {
        make: move |curve: usize, snr: f64| EmulatedLink::new((emu_cfgs[curve].1)(), snr, seed),
        n_packets: effort.packets(),
        payload_bytes: effort.payload_bytes(),
        data_seed: seed ^ 0x5A5A,
    };
    let mut emu_grid = Vec::new();
    for curve in 0..2 {
        for &s in &snrs {
            emu_grid.push(GridPoint::new(curve, s, seed));
        }
    }
    let emu_name = if full { "fig18a_full" } else { "fig18a_quick" };
    let (recs, _, div) = measure_sweep(
        emu_name,
        &[
            ("no_cache_fused", SweepEngine::new(seed).no_cache()),
            ("engine_cached", SweepEngine::new(seed)),
        ],
        &emu,
        &emu_grid,
        reps,
    );
    records.extend(recs);
    if let Some(d) = div {
        diverged.push(d);
    }
}

fn main() {
    banner(
        "bench-sweeps",
        "figure-sweep engine timings -> BENCH_sweeps.json",
    );
    let mut records: Vec<Record> = Vec::new();
    let mut diverged: Vec<String> = Vec::new();
    // The quick rows are the CI-smoke trajectory; a RETRO_FULL=1 run adds
    // the paper-scale rows after them, so the committed file carries both.
    run_profile(Effort::Quick, &mut records, &mut diverged);
    if Effort::from_env() == Effort::Full {
        run_profile(Effort::Full, &mut records, &mut diverged);
    }

    // --- Emit ------------------------------------------------------------
    // Same `{"meta": {...}, "sweeps": [...]}` provenance shape as
    // `BENCH_kernels.json`, so archived runs stay attributable to a host
    // feature set.
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"sweep\": \"{}\", \"mode\": \"{}\", \"threads\": {}, \"points\": {}, \"ms_total\": {:.1}, \"ns_per_point\": {:.0}, \"speedup\": {:.3}}}",
                r.sweep, r.mode, r.threads, r.points, r.ms_total, r.ns_per_point, r.speedup,
            )
        })
        .collect();
    emit_bench_json("BENCH_SWEEPS_OUT", "BENCH_sweeps.json", "sweeps", &rows);

    if !diverged.is_empty() {
        eprintln!("# FAIL: sweep-mode checksum divergence: {diverged:?}");
        std::process::exit(1);
    }
}
