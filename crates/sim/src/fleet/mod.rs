//! Multi-tag fleet layer: N tags sharing one reader FoV.
//!
//! Three tiers, each with its own oracle discipline:
//!
//! * [`collision`] — waveform tier: shared-photodiode superposition of
//!   per-tag channel-scaled frames (rest-state reflection included), the
//!   capture rule for collided slots, and capture-effect decoding that
//!   routes losers through the errors-and-erasures path. Its serial
//!   references live in `crates/sim/tests/fleet.rs`.
//! * [`harness`] — MAC tier: thousands of deterministic tag↔reader
//!   sessions (discovery → weighted TDMA → stop-and-wait over an
//!   SNR/interference bit pipe with per-tag rate adaptation), fanned out
//!   over `par_map_seeded` and aggregated into byte-exact
//!   goodput/fairness/latency percentiles.
//! * [`rate_region`] — experiment tier: the tag-count × priority-weight
//!   rate-region sweep on the `SweepWorkload` engine, inheriting render
//!   caching and cliff refinement.

pub mod collision;
pub mod harness;
pub mod rate_region;

pub use collision::{
    capture_decode, interference_mask, superpose, CaptureDecision, CaptureRule, TagDecode, TagWave,
};
pub use harness::{
    aggregate, draw_plan, jain_fairness, percentile, run_fleet, run_session, run_session_with_plan,
    FleetConfig, FleetReport, SessionOutcome, SessionPlan,
};
pub use rate_region::{FleetOut, FleetSweep};
