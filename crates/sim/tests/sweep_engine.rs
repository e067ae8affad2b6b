//! Sweep-engine conformance suite (oracle discipline, DESIGN.md §12):
//!
//! - **Differential**: the cached re-noise path must be bit-identical to the
//!   no-cache oracle at every grid point — both against the fused pipeline
//!   and against the end-to-end scalar reference.
//! - **Refinement**: refined runs are supersets of the coarse grid (coarse
//!   rows bitwise unchanged, insertions bounded by the budget and strictly
//!   inside straddling gaps).
//! - **Determinism**: identical output at 1/2/8 worker threads, including
//!   the refinement points.
//! - **Sub-grids**: a strict subset of a grid measures the same rows as
//!   the full grid, cached and uncached.
//! - **Fixture**: the cached and uncached refined sweeps both match ONE
//!   committed byte-exact fixture (`tests/fixtures/sweep_refined.txt`);
//!   regenerate with `SWEEP_ENGINE_REGEN=1` after intentional changes.

use std::path::Path;

use retroturbo_core::PhyConfig;
use retroturbo_runtime::with_threads;
use retroturbo_sim::sweep::workloads::{BerOut, EmuSweep, FieldOracle, FieldSweep};
use retroturbo_sim::{
    EmulatedLink, GridPoint, HumanMobility, LinkBudget, LinkSimulator, RefineConfig, Scene,
    SweepEngine, SweepWorkload,
};

/// The fig16a-shaped field workload: curve 0 = 4 kbps, curve 1 = 8 kbps,
/// x = distance, default scene. Curves 2–4 are 8 kbps variants that keep
/// curve 1's render key and differ only after the ODE: K = 1 DFE branches,
/// `v_memory` = 2, and three-walker mobility flutter.
fn field_workload(
    n_packets: usize,
    payload_bytes: usize,
    seed: u64,
    oracle: FieldOracle,
) -> FieldSweep<impl Fn(usize, f64) -> LinkSimulator + Sync> {
    FieldSweep {
        make: move |curve, d| {
            let cfg = if curve == 0 {
                PhyConfig::default_4kbps()
            } else {
                PhyConfig::default_8kbps()
            };
            let mut scene = Scene::default_at(d);
            let sim = |cfg, scene| LinkSimulator::new(cfg, LinkBudget::fov10(), scene, seed);
            match curve {
                2 => sim(cfg, scene).with_branches(1),
                3 => sim(PhyConfig { v_memory: 2, ..cfg }, scene),
                4 => {
                    scene.mobility = HumanMobility::ThreeWalkers;
                    sim(cfg, scene)
                }
                _ => sim(cfg, scene),
            }
        },
        n_packets,
        payload_bytes,
        oracle,
    }
}

fn field_grid(distances: &[f64], seed: u64) -> Vec<GridPoint> {
    let mut grid = Vec::new();
    for curve in 0..2 {
        for &d in distances {
            grid.push(GridPoint::new(curve, d, seed));
        }
    }
    grid
}

/// Bit-exact serialisation of engine rows (order-sensitive).
fn canon(rows: &[(GridPoint, BerOut)]) -> String {
    rows.iter()
        .map(|(p, o)| {
            format!(
                "curve={}|round={}|x={:016x}|ber={:016x}|snr={:016x}\n",
                p.curve,
                p.round,
                p.x.to_bits(),
                o.ber.to_bits(),
                o.snr_db.to_bits()
            )
        })
        .collect()
}

/// The tentpole guarantee: for the full-ODE field workload, re-noising the
/// cached clean renders is bit-identical at every grid point to BOTH
/// no-cache oracles — the fused production pipeline and the end-to-end
/// scalar reference. The post-ODE variant curves 2–4 re-noise curve 1's
/// render, which is what lets Fig. 17a/17b and Tab. 4 run on the engine.
#[test]
fn field_cache_matches_fused_and_scalar_oracles() {
    let distances = [4.0, 8.0];
    let seed = 11;
    let grid = || {
        let mut grid = field_grid(&distances, seed);
        for curve in 2..5 {
            for &d in &distances {
                grid.push(GridPoint::new(curve, d, seed));
            }
        }
        grid
    };
    let w = field_workload(2, 16, seed, FieldOracle::Fused);
    for p in grid().iter().filter(|p| p.curve >= 2) {
        let base = GridPoint::new(1, p.x, seed);
        assert_eq!(w.render_key(p), w.render_key(&base), "curve {}", p.curve);
    }
    let cached = SweepEngine::new(seed).run(&w, grid());
    let fused = SweepEngine::new(seed).no_cache().run(&w, grid());
    let scalar = SweepEngine::new(seed)
        .no_cache()
        .run(&field_workload(2, 16, seed, FieldOracle::Scalar), grid());
    assert_eq!(canon(&cached), canon(&fused), "renoise vs fused oracle");
    assert_eq!(canon(&cached), canon(&scalar), "renoise vs scalar oracle");
}

/// Same guarantee for the emulated (§7.3) workload: every SNR point of a
/// curve re-noises one cached render set, bit-identical to live synthesis.
/// Runs a reduced config on both curves, then Fig. 18a's 4 and 8 kbps
/// defaults.
#[test]
fn emulated_cache_matches_no_cache_oracle() {
    let reduced = PhyConfig {
        l_order: 4,
        pqam_order: 16,
        t_slot: 0.5e-3,
        fs: 40_000.0,
        v_memory: 3,
        k_branches: 8,
        preamble_slots: 12,
        training_rounds: 2,
    };
    let defaults = [PhyConfig::default_4kbps(), PhyConfig::default_8kbps()];
    for cfgs in [[reduced, reduced], defaults] {
        let workload = EmuSweep {
            make: move |curve: usize, snr: f64| {
                EmulatedLink::new(cfgs[curve], snr, 7 + curve as u64)
            },
            n_packets: 2,
            payload_bytes: 16,
            data_seed: 42,
        };
        let mut grid = Vec::new();
        for curve in 0..2 {
            for snr in [12.0, 20.0, 50.0] {
                grid.push(GridPoint::new(curve, snr, 7));
            }
        }
        let cached = SweepEngine::new(7).run(&workload, grid.clone());
        let live = SweepEngine::new(7).no_cache().run(&workload, grid);
        assert_eq!(canon(&cached), canon(&live), "{cfgs:?}");
    }
}

/// Refined runs are supersets of the coarse grid: the coarse rows come
/// first and are bitwise unchanged, and every insertion is bounded by the
/// budget, tagged with its round, and strictly inside a coarse gap.
#[test]
fn refinement_is_a_bounded_superset_of_the_coarse_grid() {
    let distances = [4.0, 14.0];
    let seed = 7;
    let w = field_workload(2, 16, seed, FieldOracle::Fused);
    let coarse = SweepEngine::new(seed).run(&w, field_grid(&distances, seed));
    let max_points = 3;
    let refined = SweepEngine::new(seed)
        .with_refinement(RefineConfig::cliff_1pct(1.0, max_points))
        .run(&w, field_grid(&distances, seed));

    assert!(refined.len() > coarse.len(), "no refinement happened");
    assert_eq!(
        canon(&refined[..coarse.len()]),
        canon(&coarse),
        "coarse prefix changed under refinement"
    );
    let inserted = &refined[coarse.len()..];
    assert!(inserted.len() <= max_points, "budget exceeded");
    for (p, _) in inserted {
        assert!(p.round >= 1, "insertion not tagged with its round");
        assert!(p.curve < 2);
        assert!(
            p.x > distances[0] && p.x < distances[1],
            "refined x {} outside the coarse span",
            p.x
        );
    }
}

/// The full engine output — including refinement points and their order —
/// is invariant across 1, 2 and 8 worker threads.
#[test]
fn engine_output_thread_invariant_with_refinement() {
    let run = || {
        let seed = 7;
        let w = field_workload(2, 16, seed, FieldOracle::Fused);
        canon(
            &SweepEngine::new(seed)
                .with_refinement(RefineConfig::cliff_1pct(1.0, 3))
                .run(&w, field_grid(&[4.0, 14.0], seed)),
        )
    };
    let t1 = with_threads(1, run);
    let t2 = with_threads(2, run);
    let t8 = with_threads(8, run);
    assert_eq!(t1, t2, "1 vs 2 threads");
    assert_eq!(t1, t8, "1 vs 8 threads");
}

/// A sub-grid measures exactly the rows the full grid does: every row of
/// a strict subset run, cached and uncached, equals its full-grid row bit
/// for bit. A point's output depends only on the point, never on which
/// other points share its run (or which of them first rendered its key).
#[test]
fn subgrid_rows_match_their_full_grid_rows() {
    let seed = 11;
    let w = field_workload(2, 16, seed, FieldOracle::Fused);
    let grid = field_grid(&[4.0, 8.0], seed);
    // Drop each curve's first point: a curve's points share one render
    // key, so the cached subset run renders it on a different point.
    let subset: Vec<GridPoint> = grid.iter().skip(1).step_by(2).copied().collect();
    assert!(!subset.is_empty() && subset.len() < grid.len());
    for engine in [SweepEngine::new(seed), SweepEngine::new(seed).no_cache()] {
        let full = engine.run(&w, grid.clone());
        let part = engine.run(&w, subset.clone());
        assert_eq!(part.len(), subset.len());
        for row in &part {
            let twin = full
                .iter()
                .find(|(p, _)| p.curve == row.0.curve && p.x.to_bits() == row.0.x.to_bits())
                .expect("subset row missing from the full grid");
            assert_eq!(
                canon(std::slice::from_ref(row)),
                canon(std::slice::from_ref(twin)),
                "sub-grid row diverged from its full-grid row"
            );
        }
    }
}

/// Committed-fixture pin: the refined sweep, cached AND uncached, matches
/// `tests/fixtures/sweep_refined.txt` byte-for-byte.
#[test]
fn refined_sweep_matches_committed_fixture_in_both_cache_modes() {
    let seed = 7;
    let w = field_workload(2, 16, seed, FieldOracle::Fused);
    let refine = RefineConfig::cliff_1pct(1.0, 3);
    let grid = || field_grid(&[4.0, 14.0], seed);
    let cached = canon(
        &SweepEngine::new(seed)
            .with_refinement(refine)
            .run(&w, grid()),
    );
    let uncached = canon(
        &SweepEngine::new(seed)
            .no_cache()
            .with_refinement(refine)
            .run(&w, grid()),
    );
    assert_eq!(cached, uncached, "cache-on vs cache-off diverged");

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sweep_refined.txt");
    if std::env::var_os("SWEEP_ENGINE_REGEN").is_some() {
        std::fs::write(&path, &cached).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with SWEEP_ENGINE_REGEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(cached, want, "refined sweep drifted from committed fixture");
}
