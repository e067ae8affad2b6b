//! The fleet harness: thousands of deterministic tag↔reader sessions.
//!
//! One *session* is a pure function of `(FleetConfig, seed)`: N tags are
//! placed in the reader's FoV (distance → SNR via the [`LinkBudget`]),
//! discovered by framed slotted ALOHA, then served over priority-weighted
//! TDMA super-frames. Every uplink frame runs the real MAC — `protect` →
//! a deterministic SNR/interference bit pipe → `stop_and_wait` with
//! errors-and-erasures recovery — with per-frame collision events resolved
//! by the capture rule of [`super::collision`]: the dominant tag decodes at
//! its interference-degraded SINR with the overlap flagged unreliable,
//! while a non-captured collision garbles the overlap outright. Per-tag
//! rate adaptation reads the `ArqStats` decode margin: retries or losses
//! push the tag's SNR margin up (rate backs off), sustained clean
//! first-attempt deliveries relax it.
//!
//! [`run_fleet`] fans sessions out over `par_map_seeded`, so the aggregate
//! report is bit-identical at every thread count; `FleetReport::canon()` is
//! the byte-exact fingerprint the 1/2/8-thread determinism tests compare.

use super::collision::{CaptureDecision, CaptureRule};
use crate::link_budget::LinkBudget;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use retroturbo_mac::{
    build_weighted_superframe, discover, stop_and_wait, BitPipe, DiscoveryOutcome, RateTable,
    TagAssignment,
};
use retroturbo_runtime::{derive_seed, par_map_seeded};
use retroturbo_telemetry as telemetry;

/// Fleet scenario parameters. A session is a pure function of this config
/// plus a seed.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Tags sharing the reader's FoV.
    pub n_tags: usize,
    /// Link budget mapping tag distance to uplink SNR.
    pub budget: LinkBudget,
    /// Tag placement range, metres (uniform draw).
    pub min_distance_m: f64,
    /// Far edge of the placement range, metres.
    pub max_distance_m: f64,
    /// Payload bytes per uplink frame.
    pub payload_bytes: usize,
    /// TDMA super-frames per session.
    pub superframes: usize,
    /// Uplink frames apportioned per super-frame.
    pub frames_per_superframe: usize,
    /// Per-tag priority weights (empty = equal shares). Length must match
    /// `n_tags` when non-empty.
    pub weights: Vec<f64>,
    /// Probability an uplink frame suffers a co-channel collision (a
    /// neighbouring reader's tag, or a mis-synchronised guard overrun).
    pub collision_prob: f64,
    /// Interferer power relative to the tag of interest, dB (uniform draw).
    pub interferer_db: (f64, f64),
    /// Capture rule applied to collided frames.
    pub capture: CaptureRule,
    /// Stop-and-wait attempt cap per frame.
    pub max_attempts: usize,
    /// Guard time between TDMA slots, seconds.
    pub guard_s: f64,
    /// Initial framed-slotted-ALOHA window for discovery.
    pub discovery_window: usize,
    /// Airtime cost of one discovery response slot, seconds.
    pub discovery_slot_s: f64,
}

impl FleetConfig {
    /// A default fleet: `n_tags` on the wide-beam (FoV 50°) budget, placed
    /// 1–4.3 m out (the paper's Fig. 18c study range), 24-byte payloads,
    /// 4 super-frames of `2·n_tags` frames, 10 % collision probability with
    /// interferers drawn ±12 dB around parity, 6 dB capture margin.
    pub fn new(n_tags: usize) -> Self {
        assert!(n_tags >= 1, "FleetConfig: need at least one tag");
        Self {
            n_tags,
            budget: LinkBudget::fov50(),
            min_distance_m: 1.0,
            max_distance_m: 4.3,
            payload_bytes: 24,
            superframes: 4,
            frames_per_superframe: 2 * n_tags,
            weights: Vec::new(),
            collision_prob: 0.1,
            interferer_db: (-12.0, 12.0),
            capture: CaptureRule::default_margin(),
            max_attempts: 4,
            guard_s: 1e-3,
            discovery_window: 8,
            discovery_slot_s: 1e-3,
        }
    }

    /// The effective weight vector: the configured one, or equal shares.
    pub fn effective_weights(&self) -> Vec<f64> {
        if self.weights.is_empty() {
            vec![1.0; self.n_tags]
        } else {
            assert_eq!(
                self.weights.len(),
                self.n_tags,
                "FleetConfig: weights length must match n_tags"
            );
            self.weights.clone()
        }
    }
}

/// The weight-independent prefix of a session: tag placement (SNRs) and the
/// discovery exchange. The rate-region sweep caches these per curve and
/// replays them at every priority weight, which is bit-identical to
/// regenerating them because [`draw_plan`] is a pure function of
/// `(config, seed)` and never consumes weight-dependent randomness.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    /// The session seed every downstream draw derives from.
    pub seed: u64,
    /// Per-tag uplink SNR, dB.
    pub snr_db: Vec<f64>,
    /// The discovery exchange (airtime overhead + join order).
    pub discovery: DiscoveryOutcome,
}

/// Draw the weight-independent session prefix for `seed`: place each tag
/// uniformly in the configured range, map distance → SNR, run discovery.
pub fn draw_plan(cfg: &FleetConfig, seed: u64) -> SessionPlan {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0));
    let snr_db: Vec<f64> = (0..cfg.n_tags)
        .map(|_| {
            let d = rng.gen_range(cfg.min_distance_m..cfg.max_distance_m);
            cfg.budget.snr_db(d)
        })
        .collect();
    let ids: Vec<u32> = (0..cfg.n_tags as u32).collect();
    let discovery = discover(&ids, cfg.discovery_window, 10_000, derive_seed(seed, 1));
    SessionPlan {
        seed,
        snr_db,
        discovery,
    }
}

/// BER of a rate option operating `snr_db` against its `min_snr_db`
/// threshold: 1 % at threshold (the table's calibration point), one decade
/// per 3 dB of headroom, saturating at coin-flip.
fn ber_for(snr_db: f64, min_snr_db: f64) -> f64 {
    (0.01 * 10f64.powf(-(snr_db - min_snr_db) / 3.0)).min(0.5)
}

/// The deterministic per-frame link: flips bits at the rate option's
/// operating BER, and on a collision event applies the capture rule to the
/// overlapped tail — the captured tag demodulates it at the SINR (flagged
/// unreliable, so the RS decoder gets erasure locations), a lost capture
/// garbles it outright. One RNG draw per bit plus a fixed prelude per
/// attempt keeps the pipe a pure function of its seed.
struct FleetPipe {
    rng: StdRng,
    snr_db: f64,
    rate_min_snr_db: f64,
    collision_prob: f64,
    interferer_db: (f64, f64),
    capture: CaptureRule,
}

impl FleetPipe {
    fn new(seed: u64, snr_db: f64, rate_min_snr_db: f64, cfg: &FleetConfig) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            snr_db,
            rate_min_snr_db,
            collision_prob: cfg.collision_prob,
            interferer_db: cfg.interferer_db,
            capture: cfg.capture,
        }
    }
}

impl BitPipe for FleetPipe {
    fn transmit(&mut self, bits: &[bool]) -> Option<Vec<bool>> {
        self.transmit_with_quality(bits).map(|(b, _)| b)
    }

    fn transmit_with_quality(&mut self, bits: &[bool]) -> Option<(Vec<bool>, Vec<bool>)> {
        let n = bits.len();
        let base_ber = ber_for(self.snr_db, self.rate_min_snr_db);
        // Collision prelude: always three draws when collided, one when not,
        // so the stream position is a function of the event sequence only.
        let overlap = if self.rng.gen::<f64>() < self.collision_prob {
            let rel_db = self
                .rng
                .gen_range(self.interferer_db.0..self.interferer_db.1);
            let frac = self.rng.gen_range(0.2..0.9);
            let ov = ((n as f64 * frac) as usize).min(n);
            // The interferer arrived late: the overlap sits on our tail.
            let lo = n - ov;
            let ov_ber = match self.capture.decide(&[0.0, rel_db]) {
                CaptureDecision::Winner(0) => {
                    // We capture: the overlap demodulates at the SINR.
                    let lin = 10f64.powf(-self.snr_db / 10.0) + 10f64.powf(rel_db / 10.0);
                    let sinr_db = -10.0 * lin.log10();
                    ber_for(sinr_db, self.rate_min_snr_db)
                }
                // We lose the capture (or nobody does): the overlap is gone.
                _ => 0.5,
            };
            Some((lo, ov_ber))
        } else {
            None
        };
        let mut out = Vec::with_capacity(n);
        let mut bad = vec![false; n];
        for (i, &b) in bits.iter().enumerate() {
            let ber = match overlap {
                Some((lo, ov_ber)) if i >= lo => {
                    bad[i] = true;
                    ov_ber
                }
                _ => base_ber,
            };
            out.push(b ^ (self.rng.gen::<f64>() < ber));
        }
        Some((out, bad))
    }
}

/// Per-session results: what one reader extracted from its fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Delivered payload bits per second of session airtime, per tag.
    pub goodput_bps: Vec<f64>,
    /// Jain fairness index over the per-tag goodput.
    pub fairness: f64,
    /// Frames offered across all tags.
    pub offered: u64,
    /// Frames delivered across all tags.
    pub delivered: u64,
    /// Transmission attempts summed over all frames.
    pub attempts: u64,
    /// Time to the first delivered frame (any tag), seconds; equals
    /// `elapsed_s` when nothing was delivered.
    pub first_delivery_s: f64,
    /// Total session airtime: discovery plus every super-frame including
    /// retransmissions.
    pub elapsed_s: f64,
}

impl SessionOutcome {
    /// Aggregate goodput across all tags, bit/s.
    pub fn sum_goodput_bps(&self) -> f64 {
        self.goodput_bps.iter().sum()
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1 when all shares are equal,
/// → 1/n under starvation. Defined as 0 for an all-zero (or empty) vector.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    let s: f64 = xs.iter().sum();
    let q: f64 = xs.iter().map(|x| x * x).sum();
    if q == 0.0 {
        0.0
    } else {
        s * s / (xs.len() as f64 * q)
    }
}

/// Run one session from a pre-drawn plan. Pure: identical
/// `(cfg, plan)` → identical outcome, bit for bit.
pub fn run_session_with_plan(cfg: &FleetConfig, plan: &SessionPlan) -> SessionOutcome {
    assert_eq!(plan.snr_db.len(), cfg.n_tags, "plan/config tag mismatch");
    let weights = cfg.effective_weights();
    let table = RateTable::profiled_default();
    let payload_bits = cfg.payload_bytes * 8;
    let mut margins = vec![0.0f64; cfg.n_tags];
    let mut delivered_bits = vec![0.0f64; cfg.n_tags];
    let mut out = SessionOutcome {
        goodput_bps: Vec::new(),
        fairness: 0.0,
        offered: 0,
        delivered: 0,
        attempts: 0,
        first_delivery_s: f64::INFINITY,
        elapsed_s: plan.discovery.slots_used as f64 * cfg.discovery_slot_s,
    };
    for r in 0..cfg.superframes {
        let rates: Vec<_> = (0..cfg.n_tags)
            .map(|i| table.select(plan.snr_db[i], margins[i]))
            .collect();
        let tags: Vec<TagAssignment> = (0..cfg.n_tags)
            .map(|i| TagAssignment {
                id: i as u32,
                snr_db: plan.snr_db[i],
                rate: rates[i],
            })
            .collect();
        let (slots, sf_dur) = build_weighted_superframe(
            &tags,
            payload_bits,
            cfg.guard_s,
            &weights,
            cfg.frames_per_superframe,
        );
        let mut retry_time = 0.0f64;
        let mut round_failed = vec![false; cfg.n_tags];
        let mut round_clean = vec![true; cfg.n_tags];
        let mut round_saw = vec![false; cfg.n_tags];
        for (k, slot) in slots.iter().enumerate() {
            let i = slot.tag_id as usize;
            let frame_index = (r * cfg.frames_per_superframe + k) as u64;
            let mut pipe = FleetPipe::new(
                derive_seed(plan.seed, 0x1_0000 + frame_index),
                plan.snr_db[i],
                rates[i].min_snr_db,
                cfg,
            );
            let payload: Vec<u8> = (0..cfg.payload_bytes)
                .map(|b| (b as u64 * 29 + frame_index * 131 + i as u64 * 47 + 3) as u8)
                .collect();
            let stats = stop_and_wait(&mut pipe, &payload, rates[i].coding, 0x5B, cfg.max_attempts);
            out.offered += 1;
            out.attempts += stats.attempts as u64;
            retry_time += slot.duration * (stats.attempts - 1) as f64;
            round_saw[i] = true;
            if stats.delivered {
                out.delivered += 1;
                delivered_bits[i] += payload_bits as f64;
                let done_at = out.elapsed_s + slot.start + slot.duration * stats.attempts as f64;
                if done_at < out.first_delivery_s {
                    out.first_delivery_s = done_at;
                }
            }
            if !stats.delivered || stats.attempts > 1 {
                round_failed[i] = true;
            }
            if !(stats.delivered
                && stats.attempts == 1
                && stats.symbols_corrected() == 0
                && stats.erasures_filled() == 0)
            {
                round_clean[i] = false;
            }
        }
        out.elapsed_s += sf_dur + retry_time;
        // Rate adaptation from the ArqStats decode margin: losses/retries
        // push the margin up (the table backs off), a fully clean round
        // with zero corrections relaxes it one dB.
        for i in 0..cfg.n_tags {
            if round_failed[i] {
                margins[i] = (margins[i] + 3.0).min(6.0);
            } else if round_saw[i] && round_clean[i] {
                margins[i] = (margins[i] - 1.0).max(0.0);
            }
        }
    }
    out.goodput_bps = delivered_bits.iter().map(|&b| b / out.elapsed_s).collect();
    out.fairness = jain_fairness(&out.goodput_bps);
    if !out.first_delivery_s.is_finite() {
        out.first_delivery_s = out.elapsed_s;
    }
    out
}

/// Run one session from scratch: draw the plan for `seed`, then play it.
pub fn run_session(cfg: &FleetConfig, seed: u64) -> SessionOutcome {
    run_session_with_plan(cfg, &draw_plan(cfg, seed))
}

/// Aggregate fleet statistics over many sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Sessions aggregated.
    pub sessions: usize,
    /// Tags per session.
    pub tags: usize,
    /// Median aggregate goodput across sessions, bit/s.
    pub sum_goodput_p50_bps: f64,
    /// 90th-percentile aggregate goodput, bit/s.
    pub sum_goodput_p90_bps: f64,
    /// 99th-percentile aggregate goodput, bit/s.
    pub sum_goodput_p99_bps: f64,
    /// 10th-percentile Jain fairness (the unfair tail).
    pub fairness_p10: f64,
    /// Median Jain fairness.
    pub fairness_p50: f64,
    /// Median first-delivery latency, seconds.
    pub latency_p50_s: f64,
    /// 99th-percentile first-delivery latency, seconds.
    pub latency_p99_s: f64,
    /// Delivered / offered frames across every session.
    pub delivery_rate: f64,
    /// Mean stop-and-wait attempts per offered frame.
    pub mean_attempts: f64,
}

/// Nearest-rank percentile over an unsorted slice (`q` in `[0, 1]`):
/// sorts a copy with `total_cmp` and indexes at `round(q·(n−1))`, so the
/// result is deterministic for any input order. Empty input → 0.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let idx = ((s.len() - 1) as f64 * q).round() as usize;
    s[idx.min(s.len() - 1)]
}

/// Aggregate session outcomes (in session order) into a [`FleetReport`].
pub fn aggregate(cfg: &FleetConfig, outcomes: &[SessionOutcome]) -> FleetReport {
    let sums: Vec<f64> = outcomes.iter().map(|o| o.sum_goodput_bps()).collect();
    let fair: Vec<f64> = outcomes.iter().map(|o| o.fairness).collect();
    let lat: Vec<f64> = outcomes.iter().map(|o| o.first_delivery_s).collect();
    let offered: u64 = outcomes.iter().map(|o| o.offered).sum();
    let delivered: u64 = outcomes.iter().map(|o| o.delivered).sum();
    let attempts: u64 = outcomes.iter().map(|o| o.attempts).sum();
    FleetReport {
        sessions: outcomes.len(),
        tags: cfg.n_tags,
        sum_goodput_p50_bps: percentile(&sums, 0.50),
        sum_goodput_p90_bps: percentile(&sums, 0.90),
        sum_goodput_p99_bps: percentile(&sums, 0.99),
        fairness_p10: percentile(&fair, 0.10),
        fairness_p50: percentile(&fair, 0.50),
        latency_p50_s: percentile(&lat, 0.50),
        latency_p99_s: percentile(&lat, 0.99),
        delivery_rate: if offered == 0 {
            0.0
        } else {
            delivered as f64 / offered as f64
        },
        mean_attempts: if offered == 0 {
            0.0
        } else {
            attempts as f64 / offered as f64
        },
    }
}

impl FleetReport {
    /// Byte-exact fingerprint of the aggregate (hex IEEE-754 bit patterns):
    /// what the 1/2/8-thread determinism tests compare.
    pub fn canon(&self) -> String {
        format!(
            "sessions={}|tags={}|sum50={:016x}|sum90={:016x}|sum99={:016x}|fair10={:016x}|fair50={:016x}|lat50={:016x}|lat99={:016x}|delivery={:016x}|attempts={:016x}\n",
            self.sessions,
            self.tags,
            self.sum_goodput_p50_bps.to_bits(),
            self.sum_goodput_p90_bps.to_bits(),
            self.sum_goodput_p99_bps.to_bits(),
            self.fairness_p10.to_bits(),
            self.fairness_p50.to_bits(),
            self.latency_p50_s.to_bits(),
            self.latency_p99_s.to_bits(),
            self.delivery_rate.to_bits(),
            self.mean_attempts.to_bits(),
        )
    }

    /// Publish the aggregate into the telemetry registry under `fleet.*`.
    /// No-op without the `telemetry` feature.
    pub fn publish(&self) {
        if !telemetry::enabled() {
            return;
        }
        telemetry::counter_add("fleet.sessions", self.sessions as u64);
        telemetry::gauge_set("fleet.tags", self.tags as f64);
        telemetry::gauge_set("fleet.sum_goodput_p50_bps", self.sum_goodput_p50_bps);
        telemetry::gauge_set("fleet.sum_goodput_p99_bps", self.sum_goodput_p99_bps);
        telemetry::gauge_set("fleet.fairness_p50", self.fairness_p50);
        telemetry::gauge_set("fleet.latency_p50_s", self.latency_p50_s);
        telemetry::gauge_set("fleet.delivery_rate", self.delivery_rate);
        telemetry::gauge_set("fleet.mean_attempts", self.mean_attempts);
    }
}

/// Run `sessions` independent fleet sessions in parallel (bit-identical at
/// every thread count) and aggregate them. Publishes the report under
/// `fleet.*` when telemetry is enabled.
pub fn run_fleet(cfg: &FleetConfig, sessions: usize, run_seed: u64) -> FleetReport {
    let items: Vec<usize> = (0..sessions).collect();
    let outcomes = par_map_seeded(run_seed, items, |_, session_seed, _| {
        run_session(cfg, session_seed)
    });
    let report = aggregate(cfg, &outcomes);
    report.publish();
    report
}
