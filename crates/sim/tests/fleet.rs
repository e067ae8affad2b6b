//! Fleet-layer conformance suite (oracle discipline, DESIGN.md §15):
//!
//! - **Superposition differential**: the production multi-tag superposition
//!   is bit-identical to the literal samples-outer/tags-inner scalar
//!   reference at every sample, across random fleets.
//! - **Capture KATs + differential**: the capture decision at the exact
//!   margin boundary (± one ULP-scale nudge), degenerate inputs, and
//!   random-vector agreement with the literal two-scan reference.
//! - **Harness determinism**: `run_fleet` aggregate fingerprints are
//!   byte-identical at 1/2/8 threads, and sessions are pure functions of
//!   their seed.
//! - **Rate-region sweep**: cached (plan-replay) vs no-cache oracle
//!   bit-identity, 1/2/8-thread byte-identity, and a committed fixture
//!   (`tests/fixtures/fleet_rate_region.txt`).
//! - **Session fixture**: the `run_fleet` aggregate of 500 eight-tag
//!   sessions at three seeds (`tests/fixtures/fleet_sessions.txt`), which
//!   pins every MAC decision of the sessions — RS coding included.
//!
//! Regenerate either fixture with `FLEET_REGEN=1` after an intentional
//! change.

use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retroturbo_dsp::C64;
use retroturbo_runtime::with_threads;
use retroturbo_sim::fleet::rate_region::FleetOut;
use retroturbo_sim::fleet::{
    draw_plan, jain_fairness, run_fleet, run_session, superpose, CaptureDecision, CaptureRule,
    FleetConfig, FleetSweep, TagWave,
};
use retroturbo_sim::{GridPoint, SweepEngine};

fn bits_eq(a: C64, b: C64) -> bool {
    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
}

/// Literal serial reference for `superpose`: one pass over samples, inner
/// loop over tags, accumulating each tag's term in index order (outside its
/// frame a tag reflects at its rest state, −1 − j).
fn superpose_reference(tags: &[TagWave], total_len: usize) -> Vec<C64> {
    (0..total_len)
        .map(|i| {
            let mut acc = C64::new(0.0, 0.0);
            for t in tags {
                let (lo, hi) = t.span();
                let y = if i >= lo && i < hi.min(total_len) {
                    t.wave[i - lo]
                } else {
                    C64::new(-1.0, -1.0)
                };
                acc += t.gain * y;
            }
            acc
        })
        .collect()
}

/// Random fleets of 1–6 tags with arbitrary overlaps, gains, and spans
/// (including frames running past the stream end): the fast superposition
/// matches the scalar reference bit-for-bit at every sample.
#[test]
fn superposition_matches_scalar_reference_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xF1EE7);
    for case in 0..40 {
        let total_len = rng.gen_range(16usize..400);
        let n_tags = rng.gen_range(1usize..=6);
        let tags: Vec<TagWave> = (0..n_tags)
            .map(|_| {
                let len = rng.gen_range(1usize..200);
                let wave = (0..len)
                    .map(|_| C64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)))
                    .collect();
                TagWave {
                    wave,
                    gain: C64::from_polar(
                        rng.gen_range(0.01..1.5),
                        rng.gen_range(0.0..std::f64::consts::TAU),
                    ),
                    offset: rng.gen_range(0..total_len + 50),
                }
            })
            .collect();
        let fast = superpose(&tags, total_len);
        let reference = superpose_reference(&tags, total_len);
        assert_eq!(fast.len(), reference.len());
        for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
            assert!(
                bits_eq(*f, *r),
                "case {case}: sample {i} diverged: {f:?} vs {r:?}"
            );
        }
    }
}

/// Capture known-answer tests at the exact power-ratio boundary and the
/// degenerate corners.
#[test]
fn capture_decision_kats_at_the_margin_boundary() {
    let rule = CaptureRule { margin_db: 6.0 };
    // Exactly at the margin: capture (the rule is >=).
    assert_eq!(rule.decide(&[10.0, 4.0]), CaptureDecision::Winner(0));
    // A hair under the margin: collision.
    assert_eq!(rule.decide(&[10.0, 4.0 + 1e-9]), CaptureDecision::Collision);
    // A hair over: capture, and at a non-zero index.
    assert_eq!(rule.decide(&[4.0 - 1e-9, 10.0]), CaptureDecision::Winner(1));
    // Equal powers never capture (margin > 0).
    assert_eq!(rule.decide(&[5.0, 5.0]), CaptureDecision::Collision);
    assert_eq!(rule.decide(&[5.0, 5.0, -40.0]), CaptureDecision::Collision);
    // A single tag always captures (the runner-up is -inf).
    assert_eq!(rule.decide(&[-100.0]), CaptureDecision::Winner(0));
    // Empty is a degenerate collision.
    assert_eq!(rule.decide(&[]), CaptureDecision::Collision);
    // Zero margin: the rule is `gap >= margin`, so any maximum captures —
    // even an exact tie (the lower index wins the argmax).
    let zero = CaptureRule { margin_db: 0.0 };
    assert_eq!(zero.decide(&[1.0, 0.0]), CaptureDecision::Winner(0));
    assert_eq!(zero.decide(&[1.0, 1.0]), CaptureDecision::Winner(0));
}

/// Literal reference for `CaptureRule::decide`: find the argmax by a strict
/// greater-than scan (ties keep the lower index), compute the runner-up by a
/// second full scan over everyone else, compare against the margin.
fn decide_reference(rule: &CaptureRule, powers_db: &[f64]) -> CaptureDecision {
    if powers_db.is_empty() {
        return CaptureDecision::Collision;
    }
    let mut best = 0usize;
    for (i, &p) in powers_db.iter().enumerate() {
        if p > powers_db[best] {
            best = i;
        }
    }
    let mut second = f64::NEG_INFINITY;
    for (i, &p) in powers_db.iter().enumerate() {
        if i != best && p > second {
            second = p;
        }
    }
    if powers_db[best] - second >= rule.margin_db {
        CaptureDecision::Winner(best)
    } else {
        CaptureDecision::Collision
    }
}

/// The single-pass capture decision agrees with the literal two-scan
/// reference on random power vectors, including duplicated maxima and
/// boundary-straddling gaps.
#[test]
fn capture_decision_matches_reference_on_random_vectors() {
    let mut rng = StdRng::seed_from_u64(0xCA97);
    for case in 0..3000 {
        let n = rng.gen_range(1usize..8);
        let margin = [0.0, 3.0, 6.0, 10.0][rng.gen_range(0usize..4)];
        let mut powers: Vec<f64> = (0..n).map(|_| rng.gen_range(-30.0..30.0)).collect();
        // Half the cases: quantize so exact ties and exact-margin gaps occur.
        if rng.gen::<bool>() {
            for p in &mut powers {
                *p = (*p / 3.0).round() * 3.0;
            }
        }
        let rule = CaptureRule { margin_db: margin };
        assert_eq!(
            rule.decide(&powers),
            decide_reference(&rule, &powers),
            "case {case}: margin {margin} powers {powers:?}"
        );
    }
}

/// Jain's index sanity: equal shares → 1, single claimant of n → 1/n,
/// all-zero → 0.
#[test]
fn jain_fairness_reference_points() {
    assert!((jain_fairness(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
    assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
    assert_eq!(jain_fairness(&[0.0, 0.0]), 0.0);
    assert_eq!(jain_fairness(&[]), 0.0);
}

/// Sessions are pure functions of `(config, seed)`: same seed → identical
/// outcome, different seed → different placement.
#[test]
fn sessions_are_pure_functions_of_their_seed() {
    let cfg = FleetConfig::new(3);
    let a = run_session(&cfg, 42);
    let b = run_session(&cfg, 42);
    assert_eq!(a, b, "same seed must reproduce the session exactly");
    let c = run_session(&cfg, 43);
    assert_ne!(
        a.goodput_bps, c.goodput_bps,
        "different seeds should place tags differently"
    );
    // The plan really is weight-independent: it never consumes
    // weight-dependent randomness.
    let mut weighted = cfg.clone();
    weighted.weights = vec![5.0, 1.0, 1.0];
    assert_eq!(draw_plan(&cfg, 42), draw_plan(&weighted, 42));
}

/// The fleet aggregate fingerprint is byte-identical at 1, 2 and 8 worker
/// threads, for every fleet size `ext_fleet` reports (48 sessions each).
#[test]
fn fleet_report_thread_invariant() {
    for tags in [2, 4, 8] {
        let cfg = FleetConfig::new(tags);
        let run = || run_fleet(&cfg, 48, 0xF1EE).canon();
        let t1 = with_threads(1, run);
        let t2 = with_threads(2, run);
        let t8 = with_threads(8, run);
        assert_eq!(t1, t2, "{tags} tags: 1 vs 2 threads");
        assert_eq!(t1, t8, "{tags} tags: 1 vs 8 threads");
    }
}

fn sweep_workload() -> FleetSweep {
    FleetSweep {
        base: FleetConfig::new(2),
        tag_counts: vec![2, 4],
        sessions: 6,
        seed: 0xFEE7,
    }
}

fn sweep_grid() -> Vec<GridPoint> {
    let mut grid = Vec::new();
    for curve in 0..2 {
        for x in [0.2, 0.5, 0.8] {
            grid.push(GridPoint::new(curve, x, 0xFEE7));
        }
    }
    grid
}

/// Bit-exact serialisation of rate-region rows (order-sensitive).
fn canon(rows: &[(GridPoint, FleetOut)]) -> String {
    rows.iter()
        .map(|(p, o)| {
            format!(
                "curve={}|round={}|x={:016x}|sum={:016x}|primary={:016x}|fair={:016x}|outage={:016x}\n",
                p.curve,
                p.round,
                p.x.to_bits(),
                o.sum_goodput_bps.to_bits(),
                o.primary_goodput_bps.to_bits(),
                o.fairness.to_bits(),
                o.outage.to_bits(),
            )
        })
        .collect()
}

/// Replaying cached session plans is bit-identical to the no-cache oracle
/// (which redraws them), the result is thread-invariant, and both modes
/// match the committed fixture byte-for-byte.
#[test]
fn rate_region_cache_modes_and_threads_match_committed_fixture() {
    let w = sweep_workload();
    let cached = canon(&SweepEngine::new(w.seed).run(&w, sweep_grid()));
    let uncached = canon(&SweepEngine::new(w.seed).no_cache().run(&w, sweep_grid()));
    assert_eq!(cached, uncached, "plan cache vs redraw oracle diverged");

    let t1 = with_threads(1, || canon(&SweepEngine::new(w.seed).run(&w, sweep_grid())));
    let t8 = with_threads(8, || canon(&SweepEngine::new(w.seed).run(&w, sweep_grid())));
    assert_eq!(t1, cached, "1-thread run diverged");
    assert_eq!(t8, cached, "8-thread run diverged");

    assert_fixture("fleet_rate_region.txt", &cached);
}

/// Compare `got` with the committed fixture `name` byte-for-byte, or
/// rewrite the fixture under `FLEET_REGEN=1`.
fn assert_fixture(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    if std::env::var_os("FLEET_REGEN").is_some() {
        std::fs::write(&path, got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with FLEET_REGEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(got, want, "{name}: output drifted from fixture");
}

/// The aggregate of 500 eight-tag sessions (the `fleet` benchmark's
/// configuration) at three seeds matches the committed fixture: any change
/// to a MAC decision — discovery, TDMA, stop-and-wait, CRC or the RS codec
/// — moves a percentile, the delivery rate or the attempt count.
#[test]
fn fleet_sessions_match_committed_fixture() {
    let cfg = FleetConfig::new(8);
    let got: String = [0u64, 0x5EED, 0xF1EE7]
        .iter()
        .map(|&seed| run_fleet(&cfg, 500, seed).canon())
        .collect();
    assert_fixture("fleet_sessions.txt", &got);
}

/// Rate-region shape sanity: handing the primary tag more priority weight
/// must not shrink its goodput share of the super-frame.
#[test]
fn primary_weight_buys_primary_goodput() {
    let w = sweep_workload();
    let rows = SweepEngine::new(w.seed).run(&w, sweep_grid());
    for curve in 0..2 {
        let at = |x: f64| {
            rows.iter()
                .find(|(p, _)| p.curve == curve && p.x == x)
                .map(|(_, o)| *o)
                .unwrap()
        };
        let lo = at(0.2);
        let hi = at(0.8);
        assert!(
            hi.primary_goodput_bps > lo.primary_goodput_bps,
            "curve {curve}: primary goodput did not grow with weight \
             ({} vs {})",
            lo.primary_goodput_bps,
            hi.primary_goodput_bps
        );
        // Delivery keeps working across the weight range.
        assert!(lo.outage < 0.5 && hi.outage < 0.5, "curve {curve}: outage");
    }
}
