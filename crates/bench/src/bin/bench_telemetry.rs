//! Telemetry snapshot bench: run one robustness sweep point through the
//! instrumented pipeline and export the registry as `BENCH_telemetry.json`
//! (override the path with `BENCH_TELEMETRY_OUT`) plus a TSV table on
//! stdout.
//!
//! Built with `--features telemetry` this self-validates: the snapshot must
//! contain the preamble-margin, DFE-residual, RS-correction, and per-stage
//! latency metric families, or the process exits nonzero — a CI tripwire
//! against instrumentation silently falling out of the pipeline. Built
//! without the feature it documents the no-op contract by emitting an
//! `"enabled": false` snapshot with zero metrics.

use std::io::Write as _;

use retroturbo_bench::banner;
use retroturbo_core::PhyConfig;
use retroturbo_sim::experiments::robustness::sweep_over;
use retroturbo_sim::{ImpairmentConfig, LinkBudget, LinkSimulator, Scene};
use retroturbo_telemetry as telemetry;

/// Metric families the acceptance contract requires from one robustness
/// sweep point: preamble margin, DFE iterations + residual, RS corrections,
/// and the per-stage receive latencies.
const REQUIRED: &[&str] = &[
    "preamble.margin",
    "dfe.slots",
    "dfe.residual",
    "dfe.predictions",
    "dfe.score.predict",
    "dfe.score.cross",
    "dfe.score.aggregate",
    "dfe.score.select",
    "rs.erasure_decodes",
    "rx.detect",
    "rx.train",
    "rx.equalize",
    "rx.demap",
    "arq.exchanges",
];

fn main() {
    banner(
        "telemetry",
        "instrumented robustness sweep point -> BENCH_telemetry.json",
    );
    telemetry::reset();

    // One blockage point exercises every instrumented layer: preamble
    // detection, training, DFE, erasure flagging, RS errors-and-erasures,
    // and the ARQ loop — the same workload shape as the robustness bench.
    let grid = vec![(
        "blockage_duty",
        0.1,
        ImpairmentConfig {
            blockage_duty: 0.1,
            blockage_len: 150,
            ..ImpairmentConfig::none()
        },
    )];
    let rows = sweep_over(grid, 30.0, 4, 24, 7);
    eprintln!(
        "# sweep point: blockage_duty=0.1 -> ber={:.4} fer={:.2} flagged={}",
        rows[0].ber, rows[0].fer, rows[0].erasures_flagged
    );

    // The impaired link pins the frame offset and trains offline, so a short
    // full-pipeline run covers the remaining families: preamble *search*
    // (detection margin) and per-packet online training.
    let cfg = PhyConfig {
        l_order: 4,
        pqam_order: 16,
        t_slot: 0.5e-3,
        fs: 40_000.0,
        v_memory: 3,
        k_branches: 8,
        preamble_slots: 12,
        training_rounds: 2,
    };
    let mut sim = LinkSimulator::new(cfg, LinkBudget::fov10(), Scene::default_at(4.0), 42);
    let ber = sim.run_ber(2, 16);
    eprintln!("# field point: 4 m -> ber={ber:.4}");

    let snap = telemetry::snapshot();
    print!("{}", snap.to_tsv());

    let path =
        std::env::var("BENCH_TELEMETRY_OUT").unwrap_or_else(|_| "BENCH_telemetry.json".into());
    let mut f = std::fs::File::create(&path).expect("create BENCH_telemetry.json");
    f.write_all(snap.to_json().as_bytes())
        .expect("write BENCH_telemetry.json");
    eprintln!("# wrote {path} ({} metrics)", snap.metrics.len());

    if telemetry::enabled() {
        let missing: Vec<&str> = REQUIRED
            .iter()
            .copied()
            .filter(|name| snap.get(name).is_none())
            .collect();
        if !missing.is_empty() {
            eprintln!("# MISSING required metric families: {missing:?}");
            std::process::exit(1);
        }
        eprintln!("# all {} required metric families present", REQUIRED.len());
    } else {
        assert!(
            snap.metrics.is_empty(),
            "no-op build produced a non-empty snapshot"
        );
        eprintln!("# telemetry feature off: empty snapshot (compile-out contract)");
    }
}
