//! The Monte Carlo sweep engine: cached-waveform re-noising and
//! cliff-adaptive grid refinement.
//!
//! Every figure sweep in this repository has the same shape — a grid of
//! `(curve, x)` points, each measuring a BER-like statistic over a batch of
//! packets — and almost all of its cost used to be re-integrating the LCM
//! ODE at every point even though the *clean* tag waveform is identical
//! along an SNR/geometry axis. The paper itself evaluates its high-order
//! modes by recording one clean reference waveform and "superimposing
//! different levels of AWGN" (§7.3); this engine generalizes that trick to
//! every sweep:
//!
//! 1. **Rendered-waveform cache** — each grid point exposes a
//!    [`SweepWorkload::render_key`] fingerprinting everything that shapes
//!    its clean renders (PhyConfig waveform fields, payload/noise seeds,
//!    panel heterogeneity). Points sharing a key share one cached render
//!    set (clean waves + unit-variance noise normals) and re-noise it at
//!    their own σ, which is bit-identical to live synthesis because the
//!    normals are scaled by σ exactly as the live RNG path scales them.
//! 2. **Sharded execution** — render and measure phases fan out over
//!    [`retroturbo_runtime::par_map_seeded`], so results are bit-identical
//!    at any thread count; cache population happens in a dedicated phase
//!    (unique keys only, first-point representative) so hit/miss counters
//!    are thread-invariant too.
//! 3. **Cliff-adaptive refinement** — after each round, adjacent same-curve
//!    points straddling a BER threshold get a midpoint refinement point,
//!    bounded by a point budget, a minimum spacing, and a round cap.
//!
//! The no-cache path ([`CacheMode::NoCache`]) is retained as the oracle;
//! differential tests in `crates/sim/tests/sweep_engine.rs` pin cache-on
//! output to it bit-for-bit.

pub mod workloads;

use retroturbo_dsp::C64;
use retroturbo_telemetry as telemetry;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One grid point: a `(curve, x)` cell plus the seed its measurement may
/// use (workloads with internal seeding ignore it) and the refinement round
/// that created it (0 = the coarse grid).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Curve index (one curve per label/config in the figure).
    pub curve: usize,
    /// The sweep abscissa (distance, SNR, roll angle, …).
    pub x: f64,
    /// Per-point seed for workloads that randomize per point.
    pub seed: u64,
    /// Refinement round that inserted the point (0 = coarse grid).
    pub round: usize,
}

impl GridPoint {
    /// A coarse-grid point with an explicit seed.
    pub fn new(curve: usize, x: f64, seed: u64) -> Self {
        Self {
            curve,
            x,
            seed,
            round: 0,
        }
    }
}

/// One packet's cached clean render: payload bits, the clean (pre-noise)
/// waveform, and the unit-variance complex noise stream the packet will
/// see — ready to be σ-scaled per grid point (§7.3).
#[derive(Debug, Clone)]
pub struct CleanPacket {
    /// Payload bits the packet carries.
    pub bits: Vec<bool>,
    /// Clean rendered waveform (no channel noise).
    pub wave: Vec<C64>,
    /// Unit-variance complex normals, one per eventual signal sample.
    pub unit_noise: Vec<C64>,
}

/// A sweep measurement task: how to render a point's cacheable waveforms,
/// how to measure it (with or without a cached render), and how to read the
/// BER that drives cliff refinement.
pub trait SweepWorkload: Sync {
    /// Cached render set shared by all points with equal render keys.
    type Render: Send + Sync;
    /// Per-point measurement output.
    type Out: Send + Clone;

    /// Cache key for the point's clean renders, or `None` to bypass the
    /// cache (workloads whose payloads/noise differ at every point, e.g.
    /// the robustness matrix, measure live regardless of [`CacheMode`]).
    fn render_key(&self, p: &GridPoint) -> Option<u64>;

    /// Produce the cacheable render set for a point (called once per
    /// distinct render key, on the round's first point with that key).
    fn render(&self, p: &GridPoint) -> Self::Render;

    /// Measure one point. `cached` is `Some` when a render set for the
    /// point's key is available and the engine runs with
    /// [`CacheMode::Renoise`]; the no-cache path must be bit-identical.
    fn measure(&self, p: &GridPoint, cached: Option<&Self::Render>) -> Self::Out;

    /// The BER (or equivalent error statistic) of a measurement, consumed
    /// by cliff refinement.
    fn ber(out: &Self::Out) -> f64;
}

/// Cliff-adaptive refinement policy: where the curve crosses
/// `ber_threshold` between adjacent points, insert midpoints (halving the
/// gap each round) until the spacing, the point budget, or the round cap is
/// exhausted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineConfig {
    /// The BER level whose crossing ("cliff") is worth resolving.
    pub ber_threshold: f64,
    /// Do not split gaps at or below this abscissa spacing.
    pub min_dx: f64,
    /// Total refinement points the sweep may insert.
    pub max_points: usize,
    /// Maximum refinement rounds after the coarse grid.
    pub max_rounds: usize,
}

impl RefineConfig {
    /// Refinement disabled: measure the coarse grid only.
    pub fn off() -> Self {
        Self {
            ber_threshold: 0.01,
            min_dx: 0.0,
            max_points: 0,
            max_rounds: 0,
        }
    }

    /// Resolve the 1 % BER cliff (the paper's operating-threshold level)
    /// down to `min_dx` spacing with at most `max_points` extra points.
    pub fn cliff_1pct(min_dx: f64, max_points: usize) -> Self {
        Self {
            ber_threshold: 0.01,
            min_dx,
            max_points,
            max_rounds: 8,
        }
    }

    fn enabled(&self) -> bool {
        self.max_points > 0 && self.max_rounds > 0
    }
}

/// Whether measurements may consume cached renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Re-noise cached clean renders (the fast path).
    Renoise,
    /// Measure every point live — the reference/oracle path.
    NoCache,
}

/// The engine: owns the run seed, cache mode, and refinement policy.
#[derive(Debug, Clone)]
pub struct SweepEngine {
    seed: u64,
    cache: CacheMode,
    refine: RefineConfig,
}

impl SweepEngine {
    /// An engine with the re-noise cache on and refinement off.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            cache: CacheMode::Renoise,
            refine: RefineConfig::off(),
        }
    }

    /// Disable the render cache (oracle mode).
    pub fn no_cache(mut self) -> Self {
        self.cache = CacheMode::NoCache;
        self
    }

    /// Enable cliff-adaptive refinement.
    pub fn with_refinement(mut self, refine: RefineConfig) -> Self {
        self.refine = refine;
        self
    }

    /// Run the sweep over `grid`, returning `(point, out)` rows in
    /// deterministic order: the coarse grid in input order, then each
    /// refinement round's insertions in (curve, x) order.
    pub fn run<W: SweepWorkload>(
        &self,
        workload: &W,
        grid: Vec<GridPoint>,
    ) -> Vec<(GridPoint, W::Out)> {
        let _t = telemetry::span("sweep.run");
        let mut cache: HashMap<u64, W::Render> = HashMap::new();
        let mut rows: Vec<(GridPoint, W::Out)> = Vec::new();
        let mut frontier = grid;
        let mut budget = if self.refine.enabled() {
            self.refine.max_points
        } else {
            0
        };
        let mut round = 0usize;
        while !frontier.is_empty() {
            // Phase A (cache mode only): render each *new* key once, in a
            // dedicated parallel phase keyed off the round's first point
            // carrying it. Doing this up front — instead of racing renders
            // inside the measure phase — keeps `sweep.cache_hits/misses`
            // and the render work itself thread-count-invariant.
            if self.cache == CacheMode::Renoise {
                let mut new_keys: Vec<(u64, GridPoint)> = Vec::new();
                let mut seen: HashSet<u64> = HashSet::new();
                let mut hits = 0u64;
                for p in &frontier {
                    if let Some(k) = workload.render_key(p) {
                        if cache.contains_key(&k) || seen.contains(&k) {
                            hits += 1;
                        } else {
                            seen.insert(k);
                            new_keys.push((k, *p));
                        }
                    }
                }
                telemetry::counter_add("sweep.cache_hits", hits);
                telemetry::counter_add("sweep.cache_misses", new_keys.len() as u64);
                if !new_keys.is_empty() {
                    let rendered =
                        retroturbo_runtime::par_map_seeded(self.seed, new_keys, |_, _, (k, p)| {
                            let _t = telemetry::span("sweep.render");
                            (k, workload.render(&p))
                        });
                    cache.extend(rendered);
                }
            }

            // Phase B: measure every frontier point in parallel.
            let cache_ref = &cache;
            let use_cache = self.cache == CacheMode::Renoise;
            let outs = retroturbo_runtime::par_map_seeded(self.seed, frontier, |_, _, p| {
                let _t = telemetry::span("sweep.point");
                let cached = if use_cache {
                    workload.render_key(&p).and_then(|k| cache_ref.get(&k))
                } else {
                    None
                };
                (p, workload.measure(&p, cached))
            });
            telemetry::counter_add("sweep.points", outs.len() as u64);
            rows.extend(outs);

            // Phase C: propose refinement points at threshold cliffs.
            if budget == 0 || round >= self.refine.max_rounds {
                break;
            }
            round += 1;
            frontier = self.propose_refinements::<W>(&rows, round, &mut budget);
            if !frontier.is_empty() {
                telemetry::counter_add("sweep.refined_points", frontier.len() as u64);
            }
        }
        rows
    }

    /// Midpoints of same-curve gaps whose endpoints straddle the BER
    /// threshold, widest gaps first, bounded by `budget` and `min_dx`.
    /// Deterministic: candidates are ordered by (curve, x), never by
    /// measurement completion order.
    fn propose_refinements<W: SweepWorkload>(
        &self,
        rows: &[(GridPoint, W::Out)],
        round: usize,
        budget: &mut usize,
    ) -> Vec<GridPoint> {
        let thr = self.refine.ber_threshold;
        let mut by_curve: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
        for (p, o) in rows {
            by_curve.entry(p.curve).or_default().push((p.x, W::ber(o)));
        }
        let mut out = Vec::new();
        for (curve, pts) in &mut by_curve {
            pts.sort_by(|a, b| a.0.total_cmp(&b.0));
            let existing: HashSet<u64> = pts.iter().map(|(x, _)| x.to_bits()).collect();
            for w in pts.windows(2) {
                let ((x0, b0), (x1, b1)) = (w[0], w[1]);
                let straddles = (b0 > thr) != (b1 > thr);
                if !straddles || (x1 - x0) <= self.refine.min_dx {
                    continue;
                }
                let mid = 0.5 * (x0 + x1);
                if mid <= x0 || mid >= x1 || existing.contains(&mid.to_bits()) || *budget == 0 {
                    continue;
                }
                *budget -= 1;
                out.push(GridPoint {
                    curve: *curve,
                    x: mid,
                    // Insertion-order-free seed: a pure function of the run
                    // seed and the point's identity, so refinement results
                    // are thread-count- and round-history-invariant.
                    seed: retroturbo_runtime::derive_seed(
                        self.seed,
                        ((*curve as u64) << 1)
                            .wrapping_add(1)
                            .wrapping_mul(0x9E37_79B9)
                            ^ mid.to_bits(),
                    ),
                    round,
                });
            }
        }
        out
    }
}
