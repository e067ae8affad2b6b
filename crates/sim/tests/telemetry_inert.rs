//! Telemetry-inertness differential suite: proves the `telemetry` feature
//! cannot change a single bit of experiment output.
//!
//! Features cannot be toggled within one test process, so the proof is
//! split: this file serialises two standard workloads bit-exactly (every
//! `f64` as its IEEE-754 bit pattern in hex) and compares them against
//! fixtures committed in `tests/fixtures/`. CI runs this same test once
//! with default features and once with `telemetry` enabled; both runs
//! diffing clean against the *same* committed bytes is the cross-feature
//! identity proof. A drift in either config names the exact line.
//!
//! To regenerate after an intentional workload change, run with
//! `TELEMETRY_INERT_REGEN=1` and commit the rewritten fixtures.
//!
//! The same two configs also gate the instrumentation itself: with the
//! feature on, one instrumented workload must emit every [`REQUIRED`]
//! metric family; with it off, the registry must stay empty.

use std::path::PathBuf;
use std::sync::Mutex;

use retroturbo_runtime::with_threads;
use retroturbo_sim::experiments::field::fig16a_ber_vs_distance;
use retroturbo_sim::experiments::robustness::sweep_over;
use retroturbo_sim::experiments::Effort;
use retroturbo_sim::ImpairmentConfig;
use retroturbo_telemetry as telemetry;

/// The telemetry registry is process-global; the fingerprint test resets
/// and reads it, so every test in this binary serialises on this lock to
/// keep concurrent workload runs from interleaving their events.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn registry_guard() -> std::sync::MutexGuard<'static, ()> {
    REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compare `got` against the committed fixture, or rewrite it when
/// `TELEMETRY_INERT_REGEN=1`.
fn assert_matches_fixture(got: &str, name: &str) {
    let path = fixture_path(name);
    if std::env::var_os("TELEMETRY_INERT_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with TELEMETRY_INERT_REGEN=1 to create it",
            path.display()
        )
    });
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(
                g, w,
                "{name} line {i} differs — experiment output changed \
                 (telemetry feature must be inert; if the workload itself \
                 changed intentionally, regenerate the fixture)"
            );
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "{name}: line count differs"
        );
        unreachable!("strings differ but no line did");
    }
}

/// The fig16a quick sweep, serialised bit-exactly.
fn fig16a_canonical() -> String {
    let pts = with_threads(2, || fig16a_ber_vs_distance(&[4.0, 9.0], Effort::Quick, 7));
    let mut out = String::new();
    for p in &pts {
        out.push_str(&format!(
            "fig16a|{}|x={:016x}|ber={:016x}|snr={:016x}\n",
            p.label,
            p.x.to_bits(),
            p.ber.to_bits(),
            p.snr_db.to_bits()
        ));
    }
    out
}

/// The reduced robustness grid (same shape as the determinism test),
/// serialised bit-exactly.
fn robustness_canonical() -> String {
    let grid = vec![
        (
            "clock_ppm",
            160.0,
            ImpairmentConfig {
                clock_ppm: 160.0,
                ..ImpairmentConfig::none()
            },
        ),
        (
            "adc_bits",
            5.0,
            ImpairmentConfig {
                adc_bits: Some(5),
                adc_full_scale: 1.5,
                ..ImpairmentConfig::none()
            },
        ),
        (
            "blockage_duty",
            0.1,
            ImpairmentConfig {
                blockage_duty: 0.1,
                blockage_len: 150,
                ..ImpairmentConfig::none()
            },
        ),
        (
            "ramp_snr_db",
            20.0,
            ImpairmentConfig {
                ramp_end_snr_db: 20.0,
                ..ImpairmentConfig::none()
            },
        ),
    ];
    let rows = with_threads(2, || sweep_over(grid, 30.0, 2, 24, 7));
    let mut out = String::new();
    for r in &rows {
        out.push_str(&format!(
            "robustness|{}|value={:016x}|ber={:016x}|fer={:016x}|goodput={:016x}|flagged={}|filled={}|corrected={}\n",
            r.axis,
            r.value.to_bits(),
            r.ber.to_bits(),
            r.fer.to_bits(),
            r.goodput.to_bits(),
            r.erasures_flagged,
            r.erasures_filled,
            r.symbols_corrected
        ));
    }
    out
}

/// A refined engine sweep — the workload whose hot path carries every
/// `sweep.*` counter and span (`sweep.cache_hits/misses/points/
/// refined_points`, `sweep.run/render/point/renoise`) — serialised
/// bit-exactly, including the refinement insertions and their rounds.
fn sweep_canonical() -> String {
    use retroturbo_sim::experiments::field::fig16a_ber_vs_distance_refined;
    use retroturbo_sim::RefineConfig;
    let pts = with_threads(2, || {
        fig16a_ber_vs_distance_refined(
            &[4.0, 14.0],
            Effort::Quick,
            7,
            RefineConfig::cliff_1pct(2.0, 4),
        )
    });
    let mut out = String::new();
    for p in &pts {
        out.push_str(&format!(
            "sweep|{}|x={:016x}|ber={:016x}|snr={:016x}\n",
            p.label,
            p.x.to_bits(),
            p.ber.to_bits(),
            p.snr_db.to_bits()
        ));
    }
    out
}

/// The instrumented DFE kernel (`dfe.slots` / `dfe.extensions_scored`
/// counters and the `dfe.score` span sit directly in the beam hot loop),
/// serialised bit-exactly: decided symbols and the winning branch's
/// accumulated cost, tracked and untracked, at K = 4 and 16.
fn dfe_canonical() -> String {
    use retroturbo_core::{Equalizer, Modulator, PhyConfig, TagModel};
    use retroturbo_dsp::noise::NoiseSource;
    use retroturbo_dsp::C64;
    use retroturbo_lcm::LcParams;

    let c = PhyConfig::default_8kbps();
    let model = TagModel::nominal(&c, &LcParams::default());
    let m = Modulator::new(c);
    let bits: Vec<bool> = (0..96).map(|i| (i * 13) % 5 < 2).collect();
    let frame = m.modulate(&bits);
    let wave = model.render_levels(&frame.levels);
    let g = C64::cis(0.21);
    let mut rx: Vec<C64> = wave
        .iter()
        .map(|&z| g * z + C64::new(0.05, -0.02))
        .collect();
    let mut ns = NoiseSource::new(13);
    ns.add_awgn(&mut rx, 0.05);
    let known = &frame.levels[..frame.payload_start()];

    let mut out = String::new();
    for k in [4usize, 16] {
        for track in [None, Some(3usize)] {
            let mut eq = Equalizer::new(c).with_branches(k);
            if let Some(b) = track {
                eq = eq.with_tracking(b);
            }
            let (syms, cost) = eq.equalize_with_cost(&rx, &model, known, frame.payload_slots);
            out.push_str(&format!(
                "dfe|k={k}|track={}|cost={:016x}|",
                track.is_some(),
                cost.to_bits()
            ));
            for s in &syms {
                out.push_str(&format!("{}{}", s.i, s.q));
            }
            out.push('\n');
        }
    }
    out
}

/// Field-sweep output must match the committed fixture byte-for-byte in
/// BOTH feature configurations (CI runs each).
#[test]
fn fig16a_output_matches_committed_fixture() {
    let _g = registry_guard();
    assert_matches_fixture(&fig16a_canonical(), "telemetry_inert_fig16a.txt");
}

/// Robustness-sweep output must match the committed fixture byte-for-byte
/// in BOTH feature configurations (CI runs each).
#[test]
fn robustness_output_matches_committed_fixture() {
    let _g = registry_guard();
    assert_matches_fixture(&robustness_canonical(), "telemetry_inert_robustness.txt");
}

/// Engine-sweep output (cache, refinement, streaming counters live on this
/// path) must match the committed fixture byte-for-byte in BOTH feature
/// configurations (CI runs each).
#[test]
fn sweep_engine_output_matches_committed_fixture() {
    let _g = registry_guard();
    assert_matches_fixture(&sweep_canonical(), "telemetry_inert_sweep.txt");
}

/// DFE beam output must match the committed fixture byte-for-byte in BOTH
/// feature configurations (CI runs each): the counters and span in the
/// scoring hot loop observe the beam without perturbing it.
#[test]
fn dfe_output_matches_committed_fixture() {
    let _g = registry_guard();
    assert_matches_fixture(&dfe_canonical(), "telemetry_inert_dfe.txt");
}

/// Two in-process runs of the same workload are identical: the telemetry
/// registry (when compiled in) is pure observation — it accumulates state
/// across runs but feeds nothing back into the pipeline.
#[test]
fn repeat_runs_are_bit_identical() {
    let _g = registry_guard();
    assert_eq!(fig16a_canonical(), fig16a_canonical());
    assert_eq!(robustness_canonical(), robustness_canonical());
}

/// With the feature compiled in, the deterministic fingerprint of the
/// telemetry registry itself must not depend on the thread count: the same
/// events happen (per-item seeding) and every fingerprinted aggregate is
/// commutative (counts, sums of integers, min/max, bucket tallies). In a
/// no-op build this degenerates to checking the snapshot stays empty.
#[test]
fn telemetry_fingerprint_is_thread_invariant() {
    let _g = registry_guard();
    // The `runtime.worker*` gauges intentionally describe the execution
    // environment (worker count, wall-clock throughput) and so *should*
    // differ across thread counts; every pipeline metric must not.
    let fingerprint_at = |threads: usize| {
        telemetry::reset();
        with_threads(threads, || {
            fig16a_ber_vs_distance(&[4.0], Effort::Quick, 7);
        });
        let fp = telemetry::snapshot().deterministic_fingerprint();
        fp.lines()
            .filter(|l| !l.starts_with("runtime.worker"))
            .map(|l| format!("{l}\n"))
            .collect::<String>()
    };
    let f1 = fingerprint_at(1);
    let f4 = fingerprint_at(4);
    if telemetry::enabled() {
        assert!(!f1.is_empty(), "telemetry build produced no metrics");
        assert!(
            f1.contains("sweep."),
            "engine-backed fig16a emitted no sweep.* metrics:\n{f1}"
        );
    } else {
        assert!(f1.is_empty(), "no-op build produced metrics");
    }
    assert_eq!(f1, f4, "registry fingerprint depends on thread count");
}

/// Metric families one robustness sweep point plus one field-link point
/// must emit: preamble margin, the DFE slot, residual, prediction and
/// score-stage probes, RS erasure decodes, the per-stage receive latencies
/// and the ARQ loop.
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

/// A tripwire against instrumentation silently falling out of the
/// pipeline: with the feature compiled in, every [`REQUIRED`] family is in
/// the snapshot; compiled out, the snapshot is empty.
#[test]
fn instrumented_point_emits_every_required_family() {
    use retroturbo_core::PhyConfig;
    use retroturbo_sim::{LinkBudget, LinkSimulator, Scene};

    let _g = registry_guard();
    telemetry::reset();
    // One blockage point exercises training, the DFE, erasure flagging, RS
    // errors-and-erasures and the ARQ loop.
    let grid = vec![(
        "blockage_duty",
        0.1,
        ImpairmentConfig {
            blockage_duty: 0.1,
            blockage_len: 150,
            ..ImpairmentConfig::none()
        },
    )];
    sweep_over(grid, 30.0, 4, 24, 7);
    // The impaired link pins the frame offset and trains offline, so a
    // short full-pipeline run covers the rest: the preamble search and
    // per-packet online training.
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
    LinkSimulator::new(cfg, LinkBudget::fov10(), Scene::default_at(4.0), 42).run_ber(2, 16);

    let snap = telemetry::snapshot();
    if telemetry::enabled() {
        let missing: Vec<&str> = REQUIRED
            .iter()
            .copied()
            .filter(|name| snap.get(name).is_none())
            .collect();
        assert!(missing.is_empty(), "missing metric families: {missing:?}");
    } else {
        assert!(snap.metrics.is_empty(), "no-op build produced metrics");
    }
}
