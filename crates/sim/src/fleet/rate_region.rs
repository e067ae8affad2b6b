//! The fleet rate-region sweep (RIScatter-style): tag count × priority
//! weight on the [`SweepWorkload`] engine.
//!
//! Each curve is a fleet size; the abscissa `x ∈ [0, 1]` is the priority
//! weight handed to tag 0 (the "primary"), with the remaining `1 − x`
//! shared equally by the others. Sweeping `x` traces the achievable
//! rate region boundary between the primary's goodput and the rest of the
//! fleet's, exactly like RIScatter's weight sweeps trace the
//! primary/backscatter rate region.
//!
//! The cacheable render is the *weight-independent* session prefix
//! ([`SessionPlan`]: tag placement + discovery), shared by every `x` on a
//! curve. Re-playing cached plans is bit-identical to the no-cache path
//! because [`draw_plan`] is a pure function of `(config, seed)` and
//! consumes no weight-dependent randomness — the differential test in
//! `crates/sim/tests/fleet.rs` pins the two modes to each other.

use super::harness::{
    aggregate, draw_plan, percentile, run_session_with_plan, FleetConfig, SessionPlan,
};
use crate::sweep::{GridPoint, SweepWorkload};
use retroturbo_core::params::fp_fold;
use retroturbo_runtime::derive_seed;

/// The rate-region workload: curves = fleet sizes, x = primary weight.
pub struct FleetSweep {
    /// Scenario template; `n_tags` and `weights` are overridden per point.
    pub base: FleetConfig,
    /// Fleet size per curve.
    pub tag_counts: Vec<usize>,
    /// Sessions measured per grid point.
    pub sessions: usize,
    /// Sweep seed; session seeds derive from it per (curve, session).
    pub seed: u64,
}

impl FleetSweep {
    /// The concrete config for a grid cell: curve's fleet size, primary
    /// weight `w` to tag 0, `(1 − w)/(n − 1)` to each of the rest.
    fn cfg_for(&self, curve: usize, w: f64) -> FleetConfig {
        let n = self.tag_counts[curve];
        let mut cfg = self.base.clone();
        cfg.n_tags = n;
        cfg.frames_per_superframe = 2 * n;
        cfg.weights = if n == 1 {
            vec![1.0]
        } else {
            let rest = (1.0 - w) / (n - 1) as f64;
            let mut ws = vec![rest; n];
            ws[0] = w;
            ws
        };
        cfg
    }

    /// Draw the curve's session plans — the weight-independent render set.
    fn plans_for(&self, curve: usize) -> Vec<SessionPlan> {
        // Weights don't affect the plan; use a neutral mid-region config.
        let cfg = self.cfg_for(curve, 0.5);
        let base_seed = derive_seed(self.seed, curve as u64);
        (0..self.sessions)
            .map(|i| draw_plan(&cfg, derive_seed(base_seed, i as u64)))
            .collect()
    }
}

/// Per-point rate-region output (medians over the point's sessions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetOut {
    /// Median aggregate fleet goodput, bit/s.
    pub sum_goodput_bps: f64,
    /// Median goodput of the weighted primary tag, bit/s.
    pub primary_goodput_bps: f64,
    /// Median Jain fairness.
    pub fairness: f64,
    /// Undelivered-frame fraction across all sessions — the error statistic
    /// that drives cliff refinement.
    pub outage: f64,
}

impl SweepWorkload for FleetSweep {
    type Render = Vec<SessionPlan>;
    type Out = FleetOut;

    fn render_key(&self, p: &GridPoint) -> Option<u64> {
        // Everything weight-independent that shapes the plans; x is
        // deliberately excluded so all points on a curve share one render.
        Some(fp_fold(&[
            0xF1EE_7001,
            p.curve as u64,
            self.tag_counts[p.curve] as u64,
            self.sessions as u64,
            self.seed,
            self.base.budget.snr_at_1m_db.to_bits(),
            self.base.budget.exponent.to_bits(),
            self.base.min_distance_m.to_bits(),
            self.base.max_distance_m.to_bits(),
            self.base.discovery_window as u64,
        ]))
    }

    fn render(&self, p: &GridPoint) -> Self::Render {
        self.plans_for(p.curve)
    }

    fn measure(&self, p: &GridPoint, cached: Option<&Self::Render>) -> Self::Out {
        let cfg = self.cfg_for(p.curve, p.x);
        let fresh;
        let plans = match cached {
            Some(plans) => plans,
            None => {
                fresh = self.plans_for(p.curve);
                &fresh
            }
        };
        let outcomes: Vec<_> = plans
            .iter()
            .map(|plan| run_session_with_plan(&cfg, plan))
            .collect();
        let report = aggregate(&cfg, &outcomes);
        let primary: Vec<f64> = outcomes.iter().map(|o| o.goodput_bps[0]).collect();
        let offered: u64 = outcomes.iter().map(|o| o.offered).sum();
        let delivered: u64 = outcomes.iter().map(|o| o.delivered).sum();
        FleetOut {
            sum_goodput_bps: report.sum_goodput_p50_bps,
            primary_goodput_bps: percentile(&primary, 0.50),
            fairness: report.fairness_p50,
            outage: if offered == 0 {
                0.0
            } else {
                1.0 - delivered as f64 / offered as f64
            },
        }
    }

    fn ber(out: &Self::Out) -> f64 {
        out.outage
    }
}
