//! Multi-branch decision-feedback equalization (§4.3.2).
//!
//! DSM deliberately creates an ISI channel: every slot's waveform is the
//! superposition of up to L in-flight pulses (plus V cycles of tail memory).
//! The equalizer walks the slot sequence keeping the K best symbol-history
//! hypotheses (an M-algorithm beam). For each branch and each candidate
//! PQAM symbol it *predicts* the slot waveform through the [`TagModel`] —
//! every module's contribution under that branch's decided levels — and
//! scores the candidate by squared error against the received slot. K = 1 is
//! the classic hard-decision DFE; K = P^L recovers the Viterbi detector the
//! paper cites as optimal-but-impractical; K = 16 is the paper's sweet spot
//! (Fig. 17a).
//!
//! The production path scores candidates through a Gram factorization
//! (DESIGN.md §11): the squared error expands into a per-branch residual
//! energy plus cross/energy terms over a small precomputed delta basis, so
//! each candidate symbol costs O(1) after `2·bits` residual inner products
//! per branch. [`Equalizer::equalize_reference`] keeps the direct
//! per-sample formulation as the differential-testing oracle.

use crate::constellation::{Constellation, PqamSymbol};
use crate::params::PhyConfig;
use crate::synth::{SlotLevels, TagModel};
use retroturbo_dsp::backend;
use retroturbo_dsp::C64;
use retroturbo_telemetry as telemetry;
use std::rc::Rc;

/// Decision trace node (persistent list; branches share prefixes). Used only
/// by [`Equalizer::equalize_reference`]; the production path keeps traceback
/// in a flat arena instead.
struct TraceNode {
    sym: PqamSymbol,
    prev: Option<Rc<TraceNode>>,
}

/// One beam hypothesis (reference implementation).
struct Branch {
    cost: f64,
    /// Ring buffer of the last `history` slots' decided levels, indexed by
    /// `slot % history`.
    ring: Vec<SlotLevels>,
    trace: Option<Rc<TraceNode>>,
}

impl Branch {
    fn level_at(&self, slot: isize, history: usize) -> SlotLevels {
        if slot < 0 {
            (0, 0)
        } else {
            self.ring[slot as usize % history]
        }
    }
}

/// Decided level of `slot` in a flat decision ring (pre-frame slots are all
/// off). The production path sizes its rings to a power of two so the
/// capacity mask replaces a `%` — a hardware divide that was the single
/// hottest scalar op in the old prediction loop (~100 executions per
/// branch-slot).
#[inline]
fn ring_level_at_masked(ring: &[SlotLevels], slot: isize, mask: usize) -> SlotLevels {
    if slot < 0 {
        (0, 0)
    } else {
        ring[slot as usize & mask]
    }
}

/// Sentinel for "no traceback parent" in the arena.
const TRACE_NONE: u32 = u32::MAX;

/// Does sub-pixel bit-plane `b` fire for per-axis level `lev`?
#[inline]
fn level_fires(lev: usize, b: usize, bits: usize) -> bool {
    (lev >> (bits - 1 - b)) & 1 == 1
}

/// Per-call tables for Gram-factorized candidate scoring (DESIGN.md §11).
///
/// At slot `g` only the two modules at phase `g % l` (one per axis) carry
/// the candidate symbol; their per-bit-plane candidate deltas are drawn
/// from a small basis indexed by `(phase, axis, bit-plane, h)` where `h`
/// is the firing module's history key with the candidate bit removed
/// (`H = 2^(v-1)` variants). Candidate scoring then needs only `2·bits`
/// residual inner products per branch plus O(1) Gram lookups per symbol,
/// instead of a full `spt`-sample loop per (branch, symbol) pair.
struct ScoreBasis {
    spt: usize,
    bits: usize,
    hist: usize,
    /// Basis size per phase: `2 · bits · hist`.
    nb: usize,
    /// `[l][nb][spt]` delta waveforms `(slot(h<<1|1, 0) − slot(h<<1, 0)) · w_b`.
    deltas: Vec<C64>,
    /// `[l][nb][nb]` real parts of pairwise delta inner products; skipped
    /// (computed per branch instead) when the basis is large.
    gram: Option<Vec<f64>>,
}

impl ScoreBasis {
    fn build(model: &TagModel, l: usize, v: usize, spt: usize, bits: usize) -> Self {
        let hist = 1usize << (v - 1);
        let nb = 2 * bits * hist;
        let mut deltas = vec![C64::default(); l * nb * spt];
        for phase in 0..l {
            for axis in 0..2usize {
                let module = axis * l + phase;
                for (b, w) in model.weights.iter().enumerate() {
                    for h in 0..hist {
                        let key = h << 1; // candidate bit (age 0) held at 0
                        let off = model.modules[module].slot(key, 0);
                        let on = model.modules[module].slot(key | 1, 0);
                        let at = (phase * nb + (axis * bits + b) * hist + h) * spt;
                        for t in 0..spt {
                            deltas[at + t] = (on[t] - off[t]) * *w;
                        }
                    }
                }
            }
        }
        // Precompute the full Gram only while it stays cache-friendly; for
        // deep memories (large v) the active pairs are dotted per branch.
        let gram = (nb <= 64).then(|| {
            let mut gram = vec![0.0f64; l * nb * nb];
            for phase in 0..l {
                for u in 0..nb {
                    for w2 in u..nb {
                        let du = &deltas[(phase * nb + u) * spt..][..spt];
                        let dw = &deltas[(phase * nb + w2) * spt..][..spt];
                        let mut acc = 0.0;
                        for (a, b) in du.iter().zip(dw) {
                            acc += a.re * b.re + a.im * b.im;
                        }
                        gram[(phase * nb + u) * nb + w2] = acc;
                        gram[(phase * nb + w2) * nb + u] = acc;
                    }
                }
            }
            gram
        });
        Self {
            spt,
            bits,
            hist,
            nb,
            deltas,
            gram,
        }
    }

    /// Flat basis index of `(axis, bit-plane, history-variant)`.
    #[inline]
    fn vec_index(&self, axis: usize, b: usize, h: usize) -> usize {
        (axis * self.bits + b) * self.hist + h
    }

    /// Delta waveform for one active basis vector.
    #[inline]
    fn delta(&self, phase: usize, axis: usize, b: usize, h: usize) -> &[C64] {
        let u = self.vec_index(axis, b, h);
        &self.deltas[(phase * self.nb + u) * self.spt..][..self.spt]
    }

    /// Fill `gb` (row-major `2·bits × 2·bits`) with `Re⟨δ_u, δ_u2⟩` over the
    /// branch's active vectors (`fire_h[u]` = history variant of active
    /// vector `u`, I-axis bit-planes first).
    fn active_gram(&self, phase: usize, fire_h: &[usize], gb: &mut [f64]) {
        let na = 2 * self.bits;
        // Active basis indices, built by walking (axis, bit-plane) instead of
        // dividing `u` back apart (integer division in the per-branch hot
        // path).
        debug_assert!(na <= 32);
        let mut gidx = [0usize; 32];
        let mut u = 0;
        for axis in 0..2 {
            for b in 0..self.bits {
                gidx[u] = self.vec_index(axis, b, fire_h[u]);
                u += 1;
            }
        }
        match &self.gram {
            Some(g) => {
                for u in 0..na {
                    let row = &g[(phase * self.nb + gidx[u]) * self.nb..][..self.nb];
                    for u2 in 0..na {
                        gb[u * na + u2] = row[gidx[u2]];
                    }
                }
            }
            None => {
                for u in 0..na {
                    for u2 in u..na {
                        let du = &self.deltas[(phase * self.nb + gidx[u]) * self.spt..][..self.spt];
                        let dv =
                            &self.deltas[(phase * self.nb + gidx[u2]) * self.spt..][..self.spt];
                        let mut acc = 0.0;
                        for (a, b) in du.iter().zip(dv) {
                            acc += a.re * b.re + a.im * b.im;
                        }
                        gb[u * na + u2] = acc;
                        gb[u2 * na + u] = acc;
                    }
                }
            }
        }
    }
}

/// Compute one branch's assumed-all-off slot prediction into `pred_off`,
/// recording the two firing modules' candidate-excluded history variants in
/// `fire_h` (I-axis bit-planes first, then Q). With `skip_phase = None` the
/// arithmetic, term order and accumulation order match the closure in
/// [`Equalizer::equalize_reference`] exactly, so the prediction — and with
/// it the tracking-gain trajectory — is bit-identical to the reference;
/// only candidate *scoring* is factorized differently.
///
/// `skip_phase = Some(p)` omits the two modules at phase `p` (the parent-
/// group optimization: sibling branches share everything except slot `g−1`,
/// which only the `tau == 1` modules read, so the other `2l−2` modules'
/// sum is computed once per parent and the skipped pair re-added per branch
/// via [`add_phase_into`]).
#[allow(clippy::too_many_arguments)]
fn predict_off_into(
    model: &TagModel,
    ring: &[SlotLevels],
    g: usize,
    l: usize,
    v: usize,
    bits: usize,
    mask: usize,
    pred_off: &mut [C64],
    fire_h: &mut [usize],
    skip_phase: Option<usize>,
) {
    pred_off.fill(C64::default());
    let mut levs = [0usize; 8]; // v_memory ≤ 8 (PhyConfig::validate)
    let phase0 = g % l;
    // `phase` and `tau = (g − phase) % l` walked incrementally (one divide
    // per call instead of one per module — these were the hottest scalar ops
    // in the loop).
    let mut phase = 0usize;
    let mut tau = phase0;
    for module in 0..2 * l {
        if module == l {
            phase = 0;
            tau = phase0;
        }
        let (mphase, mtau) = (phase, tau);
        phase += 1;
        tau = if tau == 0 { l - 1 } else { tau - 1 };
        if skip_phase == Some(mphase) {
            continue;
        }
        if g < mphase {
            // Not yet fired: relaxed contribution (key 0). `s · 1.0` is
            // exact for every f64, so the weighted kernel stays
            // bit-identical to the original plain add.
            backend::axpy_wr(pred_off, model.modules[module].slot(0, 0), 1.0);
            continue;
        }
        let tau = mtau;
        let f_latest = g - tau; // most recent firing slot ≤ g
        let is_q = module >= l;
        // Gather the decided per-axis levels once per module; every
        // bit-plane keys off the same slots.
        let mut n_ages = 0;
        for (age, lev) in levs.iter_mut().enumerate().take(v) {
            let fs = f_latest as isize - (age * l) as isize;
            if fs < 0 {
                break;
            }
            let (li, lq) = ring_level_at_masked(ring, fs, mask);
            *lev = if is_q { lq } else { li };
            n_ages = age + 1;
        }
        for (b, w) in model.weights.iter().enumerate() {
            // Build the history key from branch decisions; for a
            // currently-firing module (tau == 0) age 0 is the candidate
            // bit, assumed 0 here.
            let mut key = 0usize;
            for (age, &lev) in levs[..n_ages].iter().enumerate() {
                if tau == 0 && age == 0 {
                    continue; // candidate bit, stays 0
                }
                key |= (level_fires(lev, b, bits) as usize) << age;
            }
            backend::axpy_wr(pred_off, model.modules[module].slot(key, tau), *w);
            if tau == 0 {
                fire_h[(is_q as usize) * bits + b] = key >> 1;
            }
        }
    }
}

/// Add the two modules at `phase` (skipped by a grouped
/// [`predict_off_into`]) to a branch's prediction. Callers guarantee
/// `g ≥ phase + 1` (the phase is `(g−1) % l`), so these modules have
/// `tau ≥ 1` and never touch `fire_h`.
#[allow(clippy::too_many_arguments)]
fn add_phase_into(
    model: &TagModel,
    ring: &[SlotLevels],
    g: usize,
    l: usize,
    v: usize,
    bits: usize,
    mask: usize,
    pred: &mut [C64],
    phase: usize,
) {
    let mut levs = [0usize; 8]; // v_memory ≤ 8 (PhyConfig::validate)
    let tau = (g - phase) % l;
    let f_latest = g - tau;
    for module in [phase, l + phase] {
        let is_q = module >= l;
        let mut n_ages = 0;
        for (age, lev) in levs.iter_mut().enumerate().take(v) {
            let fs = f_latest as isize - (age * l) as isize;
            if fs < 0 {
                break;
            }
            let (li, lq) = ring_level_at_masked(ring, fs, mask);
            *lev = if is_q { lq } else { li };
            n_ages = age + 1;
        }
        for (b, w) in model.weights.iter().enumerate() {
            let mut key = 0usize;
            for (age, &lev) in levs[..n_ages].iter().enumerate() {
                key |= (level_fires(lev, b, bits) as usize) << age;
            }
            backend::axpy_wr(pred, model.modules[module].slot(key, tau), *w);
        }
    }
}

/// The K-branch DFE.
#[derive(Debug, Clone)]
pub struct Equalizer {
    cfg: PhyConfig,
    constel: Constellation,
    k: usize,
    /// Decision-directed channel tracking: re-estimate a residual complex
    /// gain from the best branch's predictions every this many slots
    /// (`None` = static channel). This is the §8 "mobility support"
    /// extension: a tag rolling *during* a packet drifts the constellation
    /// after the one-shot preamble correction; tracking follows it.
    track_block: Option<usize>,
}

impl Equalizer {
    /// Build an equalizer with the configuration's branch count.
    pub fn new(cfg: PhyConfig) -> Self {
        cfg.validate();
        Self {
            constel: Constellation::new(cfg.pqam_order),
            k: cfg.k_branches.max(1),
            cfg,
            track_block: None,
        }
    }

    /// Enable decision-directed channel tracking with the given block length
    /// (slots per gain update); see the `track_block` field docs.
    ///
    /// # Panics
    /// Panics if `block_slots` is zero.
    pub fn with_tracking(mut self, block_slots: usize) -> Self {
        assert!(block_slots > 0, "with_tracking: block must be positive");
        self.track_block = Some(block_slots);
        self
    }

    /// Override the branch count (Fig. 17a sweeps this).
    pub fn with_branches(mut self, k: usize) -> Self {
        self.k = k.max(1);
        self
    }

    /// A (beam-capped) Viterbi-equivalent: K = min(P^L, 4096). Exact for
    /// small P and L; for larger configurations it is a near-exhaustive beam
    /// that upper-bounds achievable DFE performance.
    ///
    /// P^L is computed with saturating integer arithmetic: at P = 256,
    /// L = 8 the product overflows both `usize` and the contiguous-integer
    /// range of `f64`, so a float `powi` could round before the cap is
    /// applied.
    pub fn viterbi(cfg: PhyConfig) -> Self {
        let k = (0..cfg.l_order)
            .try_fold(1usize, |acc, _| acc.checked_mul(cfg.pqam_order))
            .unwrap_or(usize::MAX)
            .min(4096);
        Self::new(cfg).with_branches(k)
    }

    /// Branch count K.
    pub fn branches(&self) -> usize {
        self.k
    }

    /// Equalize one frame.
    ///
    /// * `rx` — corrected complex waveform aligned so sample 0 is slot 0 of
    ///   the frame (preamble start). Must cover the payload slots.
    /// * `model` — the (ideally trained) tag model used for prediction.
    /// * `known_prefix` — the known levels of the preamble + training slots.
    /// * `n_payload` — number of payload slots to decide.
    ///
    /// Returns the decided payload symbols.
    ///
    /// This is the production path: candidate scoring is Gram-factorized
    /// (DESIGN.md §11) — `Σ|res − g·(dᵢ+d_q)|²` expands into a per-branch
    /// residual energy plus cross/energy terms built from `2·bits` residual
    /// inner products and precomputed delta Gram entries, so each of the P
    /// candidate symbols costs O(1) instead of a full `spt`-sample loop.
    /// Beam state lives in flat double-buffered rings, traceback in an
    /// index arena, top-K selection is a partial `select_nth_unstable_by`
    /// with a deterministic `(cost, branch, symbol)` tie-break, and the
    /// winning branch's prediction is reused for the tracking update. It
    /// produces decisions identical to [`Equalizer::equalize_reference`]
    /// (costs agree to ≤ 1e-9 relative; summation order differs).
    ///
    /// # Panics
    /// Panics if `rx` is too short for the requested slots.
    pub fn equalize(
        &self,
        rx: &[C64],
        model: &TagModel,
        known_prefix: &[SlotLevels],
        n_payload: usize,
    ) -> Vec<PqamSymbol> {
        self.equalize_with_cost(rx, model, known_prefix, n_payload)
            .0
    }

    /// [`Equalizer::equalize`], additionally returning the winning branch's
    /// accumulated squared prediction error (the beam cost differential
    /// tests compare against the reference oracle).
    pub fn equalize_with_cost(
        &self,
        rx: &[C64],
        model: &TagModel,
        known_prefix: &[SlotLevels],
        n_payload: usize,
    ) -> (Vec<PqamSymbol>, f64) {
        let l = self.cfg.l_order;
        let spt = self.cfg.samples_per_slot();
        let v = self.cfg.v_memory;
        // Power-of-two ring so every ring read is a mask, not a divide (the
        // reference keeps the exact `(v·l).max(l+1)` capacity; a larger ring
        // only changes which stale entries get overwritten, never the reads,
        // which reach back at most `(v−1)·l ≤ history−1` slots).
        let history = (v * l).max(l + 1).next_power_of_two();
        let mask = history - 1;
        let total_slots = known_prefix.len() + n_payload;
        assert!(
            rx.len() >= total_slots * spt,
            "equalize: rx has {} samples, need {}",
            rx.len(),
            total_slots * spt
        );
        if n_payload == 0 {
            return (Vec::new(), 0.0);
        }

        let bits = model.weights.len();
        let a_levels = self.constel.levels_per_axis();
        let symbols: Vec<PqamSymbol> = self.constel.symbols().collect();
        let p_count = symbols.len();
        let q_count = if self.cfg.pqam_order == 2 {
            1
        } else {
            a_levels
        };
        let na = 2 * bits; // active basis vectors per branch
        let tracked = self.track_block.is_some();

        let basis = ScoreBasis::build(model, l, v, spt, bits);

        // Beam state, flat: branch `bi` owns `rings[bi*history..][..history]`,
        // its accumulated cost in `costs[bi]` and its traceback head (arena
        // index) in `heads[bi]`.
        let mut rings = vec![(0usize, 0usize); history];
        for (s, &lv) in known_prefix.iter().enumerate() {
            rings[s & mask] = lv;
        }
        let mut next_rings: Vec<SlotLevels> = Vec::with_capacity(self.k * history);
        let mut costs = vec![0.0f64];
        let mut next_costs: Vec<f64> = Vec::with_capacity(self.k);
        let mut heads = vec![TRACE_NONE];
        let mut next_heads: Vec<u32> = Vec::with_capacity(self.k);
        // Traceback arena: (parent index, decided symbol). Branches share
        // prefixes by pointing at the same parent; nothing is ever cloned.
        let mut arena: Vec<(u32, PqamSymbol)> = Vec::with_capacity(self.k * n_payload);

        // Per-slot scratch, allocated once. Untracked beams predict into a
        // single per-branch buffer; sibling branches (same parent) differ
        // only in slot g−1, which only the two `tau == 1` modules read, so
        // the other 2l−2 modules' sum is computed once per parent into
        // `pred_common` and the dependent pair re-added per sibling. Tracked
        // beams keep every branch's prediction (`pred_flat[bi*spt..]`) so
        // the winner's can be reused for the gain update; grouping is
        // disabled there to preserve the reference's fold order bit-for-bit.
        let tracked_k = if tracked { self.k } else { 0 };
        let mut pred_flat = vec![C64::default(); tracked_k * spt];
        let mut fire_h_flat = vec![0usize; tracked_k * na];
        let mut pred_buf = vec![C64::default(); spt];
        let mut pred_common = vec![C64::default(); spt];
        let mut fire_buf = vec![0usize; na];
        let mut order: Vec<usize> = Vec::with_capacity(self.k);
        let mut parents: Vec<u32> = vec![0];
        let mut next_parents: Vec<u32> = Vec::with_capacity(self.k);
        let mut res = vec![C64::default(); spt];
        let mut cross = vec![C64::default(); na];
        let mut gb = vec![0.0f64; na * na];
        let mut agg_c_i = vec![C64::default(); a_levels];
        let mut agg_e_i = vec![0.0f64; a_levels];
        let mut agg_c_q = vec![C64::default(); q_count];
        let mut agg_e_q = vec![0.0f64; q_count];
        let mut agg_e_iq = vec![0.0f64; a_levels * q_count];
        let mut d_i_buf = vec![C64::default(); if tracked { spt } else { 0 }];
        let mut d_q_buf = vec![C64::default(); if tracked { spt } else { 0 }];
        // Extensions as (cost, bi·P + symbol index): the index doubles as
        // the deterministic tie-break reproducing the reference's stable
        // sort (insertion order is branch-major, symbol-minor there too).
        let mut extensions: Vec<(f64, u32)> = Vec::with_capacity(self.k * p_count);
        let cmp = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));

        // Decision-directed channel tracking state: exponentially-weighted
        // ⟨rx, pred⟩ / ⟨pred, pred⟩ with a window of ≈ `block` slots.
        let mut gain = C64::real(1.0);
        let mut acc_num = C64::default();
        let mut acc_den = 0.0f64;
        let mut scored = 0u64;

        let score_span = telemetry::span("dfe.score");
        for j in 0..n_payload {
            let g = known_prefix.len() + j; // global slot
            let phase = g % l;
            let rx_slot = &rx[g * spt..(g + 1) * spt];

            extensions.clear();
            let n_branches = costs.len();
            // Exact until the first tracking update (always, if untracked):
            // skips the per-sample complex gain multiply.
            let unit_gain = gain.re == 1.0 && gain.im == 0.0;
            let g2 = gain.norm_sqr();

            // Visit siblings (same parent) consecutively so their shared
            // module sum is computed once. Iteration order cannot change the
            // survivor set: extensions are keyed by (cost, bi·P + si), not
            // push order.
            let grouped = !tracked && l >= 2 && g >= 1 && n_branches > 1;
            let dep_phase = if g >= 1 { (g - 1) % l } else { 0 };
            order.clear();
            order.extend(0..n_branches);
            if grouped {
                order.sort_unstable_by_key(|&bi| (parents[bi], bi));
            }
            let mut last_parent = u32::MAX;
            for &bi in order.iter() {
                let ring = &rings[bi * history..(bi + 1) * history];
                let (pred, fire_h): (&[C64], &[usize]) = if tracked {
                    predict_off_into(
                        model,
                        ring,
                        g,
                        l,
                        v,
                        bits,
                        mask,
                        &mut pred_flat[bi * spt..(bi + 1) * spt],
                        &mut fire_h_flat[bi * na..(bi + 1) * na],
                        None,
                    );
                    (
                        &pred_flat[bi * spt..(bi + 1) * spt],
                        &fire_h_flat[bi * na..(bi + 1) * na],
                    )
                } else if grouped {
                    if parents[bi] != last_parent {
                        predict_off_into(
                            model,
                            ring,
                            g,
                            l,
                            v,
                            bits,
                            mask,
                            &mut pred_common,
                            &mut fire_buf,
                            Some(dep_phase),
                        );
                        last_parent = parents[bi];
                    }
                    pred_buf.copy_from_slice(&pred_common);
                    add_phase_into(model, ring, g, l, v, bits, mask, &mut pred_buf, dep_phase);
                    (&pred_buf, &fire_buf)
                } else {
                    predict_off_into(
                        model,
                        ring,
                        g,
                        l,
                        v,
                        bits,
                        mask,
                        &mut pred_buf,
                        &mut fire_buf,
                        None,
                    );
                    (&pred_buf, &fire_buf)
                };

                // Residual after removing the assumed-off prediction
                // (tracking gain applied to the model side), and its
                // energy R = Σ|res|².
                let r_energy = if unit_gain {
                    backend::sub_energy(&mut res, rx_slot, pred)
                } else {
                    let mut e = 0.0f64;
                    for ((r, x), p) in res.iter_mut().zip(rx_slot).zip(pred.iter()) {
                        let z = *x - gain * *p;
                        e += z.norm_sqr();
                        *r = z;
                    }
                    e
                };

                // Cross inner products ⟨res, δ⟩ over the active basis, two
                // independent accumulator chains per kernel call (the
                // active deltas come in `bits`-sized groups per axis;
                // `bits` is even for every supported PQAM order except the
                // degenerate P=2 bit, handled by the scalar tail).
                let mut u = 0;
                for axis in 0..2 {
                    let mut b = 0;
                    while b + 2 <= bits {
                        let d0 = basis.delta(phase, axis, b, fire_h[u]);
                        let d1 = basis.delta(phase, axis, b + 1, fire_h[u + 1]);
                        let (c0, c1) = backend::dot_conj2(&res, d0, d1);
                        cross[u] = c0;
                        cross[u + 1] = c1;
                        u += 2;
                        b += 2;
                    }
                    if b < bits {
                        let d = basis.delta(phase, axis, b, fire_h[u]);
                        let mut acc = C64::default();
                        for (r, dv) in res.iter().zip(d) {
                            acc += *r * dv.conj();
                        }
                        cross[u] = acc;
                        u += 1;
                    }
                }
                basis.active_gram(phase, fire_h, &mut gb);

                // Per-axis-level aggregates: C_I[x] = Σ_{b∈F(x)} ⟨res,δ_I,b⟩,
                // E_I[x] = Σ_{b,b'∈F(x)} Re⟨δ_I,b, δ_I,b'⟩ (same for Q), and
                // the I–Q coupling E_IQ[x][y].
                for x in 0..a_levels {
                    let mut c = C64::default();
                    let mut e = 0.0;
                    for b in 0..bits {
                        if !level_fires(x, b, bits) {
                            continue;
                        }
                        c += cross[b];
                        for b2 in 0..bits {
                            if level_fires(x, b2, bits) {
                                e += gb[b * na + b2];
                            }
                        }
                    }
                    agg_c_i[x] = c;
                    agg_e_i[x] = e;
                }
                for y in 0..q_count {
                    let mut c = C64::default();
                    let mut e = 0.0;
                    for b in 0..bits {
                        if !level_fires(y, b, bits) {
                            continue;
                        }
                        c += cross[bits + b];
                        for b2 in 0..bits {
                            if level_fires(y, b2, bits) {
                                e += gb[(bits + b) * na + bits + b2];
                            }
                        }
                    }
                    agg_c_q[y] = c;
                    agg_e_q[y] = e;
                }
                for x in 0..a_levels {
                    for y in 0..q_count {
                        let mut e = 0.0;
                        for b in 0..bits {
                            if level_fires(x, b, bits) {
                                for b2 in 0..bits {
                                    if level_fires(y, b2, bits) {
                                        e += gb[b * na + bits + b2];
                                    }
                                }
                            }
                        }
                        agg_e_iq[x * q_count + y] = e;
                    }
                }

                // Score every candidate in O(1): cost = R + |g|²·E(x,y)
                //   − 2·Re(conj(g)·(C_I[x] + C_Q[y])).
                let base = costs[bi] + r_energy;
                let idx0 = (bi * p_count) as u32;
                if unit_gain {
                    for (si, s) in symbols.iter().enumerate() {
                        let e = agg_e_i[s.i] + agg_e_q[s.q] + 2.0 * agg_e_iq[s.i * q_count + s.q];
                        let cr = agg_c_i[s.i] + agg_c_q[s.q];
                        extensions.push((base + e - 2.0 * cr.re, idx0 + si as u32));
                    }
                } else {
                    for (si, s) in symbols.iter().enumerate() {
                        let e = agg_e_i[s.i] + agg_e_q[s.q] + 2.0 * agg_e_iq[s.i * q_count + s.q];
                        let cr = agg_c_i[s.i] + agg_c_q[s.q];
                        extensions.push((
                            base + g2 * e - 2.0 * (gain.re * cr.re + gain.im * cr.im),
                            idx0 + si as u32,
                        ));
                    }
                }
            }
            scored += (n_branches * p_count) as u64;

            // Keep the K best extensions: a partial selection instead of a
            // full sort; the (cost, index) total order keeps survivors (and
            // their ordering) identical to the reference's stable sort.
            if extensions.len() > self.k {
                extensions.select_nth_unstable_by(self.k - 1, cmp);
                extensions.truncate(self.k);
            }
            extensions.sort_unstable_by(cmp);

            // Tracking: fold the winning branch's full prediction into the
            // exponentially-weighted gain estimate every slot, reusing the
            // prediction already computed for scoring. The candidate deltas
            // are materialized from the basis in ascending bit-plane order,
            // matching the reference's d_i/d_q accumulation bit-for-bit.
            if let Some(block) = self.track_block {
                let lambda = 1.0 - 1.0 / block as f64;
                let (_, idx) = extensions[0];
                let bi0 = idx as usize / p_count;
                let s0 = symbols[idx as usize % p_count];
                let pred0 = &pred_flat[bi0 * spt..(bi0 + 1) * spt];
                let h0 = &fire_h_flat[bi0 * na..(bi0 + 1) * na];
                d_i_buf.fill(C64::default());
                d_q_buf.fill(C64::default());
                for b in 0..bits {
                    if level_fires(s0.i, b, bits) {
                        let dlt = basis.delta(phase, 0, b, h0[b]);
                        for (d, x) in d_i_buf.iter_mut().zip(dlt) {
                            *d += *x;
                        }
                    }
                    if level_fires(s0.q, b, bits) {
                        let dlt = basis.delta(phase, 1, b, h0[bits + b]);
                        for (d, x) in d_q_buf.iter_mut().zip(dlt) {
                            *d += *x;
                        }
                    }
                }
                acc_num *= lambda;
                acc_den *= lambda;
                for t in 0..spt {
                    let p = pred0[t] + d_i_buf[t] + d_q_buf[t];
                    acc_num += rx_slot[t] * p.conj();
                    acc_den += p.norm_sqr();
                }
                if acc_den > 1e-12 {
                    gain = acc_num / acc_den;
                }
            }

            // Materialize the surviving branches into the back buffers.
            next_rings.clear();
            next_costs.clear();
            next_heads.clear();
            next_parents.clear();
            for &(cost, idx) in &extensions {
                let bi = idx as usize / p_count;
                let s = symbols[idx as usize % p_count];
                next_rings.extend_from_slice(&rings[bi * history..(bi + 1) * history]);
                let last = next_rings.len() - history;
                next_rings[last + (g & mask)] = (s.i, s.q);
                arena.push((heads[bi], s));
                next_heads.push((arena.len() - 1) as u32);
                next_costs.push(cost);
                next_parents.push(bi as u32);
            }
            std::mem::swap(&mut rings, &mut next_rings);
            std::mem::swap(&mut costs, &mut next_costs);
            std::mem::swap(&mut heads, &mut next_heads);
            std::mem::swap(&mut parents, &mut next_parents);
        }
        drop(score_span);

        // Read back the best branch's decisions (first minimal cost, matching
        // `Iterator::min_by` in the reference).
        let mut best = 0usize;
        for (bi, &c) in costs.iter().enumerate() {
            if c < costs[best] {
                best = bi;
            }
        }
        telemetry::counter_inc("dfe.equalize_calls");
        telemetry::counter_add("dfe.slots", n_payload as u64);
        telemetry::counter_add("dfe.extensions_scored", scored);
        // Accumulated squared prediction error of the winning branch: the
        // residual the beam could not explain (rate adaptation's raw input).
        telemetry::observe("dfe.residual", costs[best]);
        telemetry::observe("dfe.residual_per_slot", costs[best] / n_payload as f64);
        let mut out = Vec::with_capacity(n_payload);
        let mut node = heads[best];
        while node != TRACE_NONE {
            let (prev, sym) = arena[node as usize];
            out.push(sym);
            node = prev;
        }
        out.reverse();
        (out, costs[best])
    }

    /// The original allocation-heavy formulation of [`Equalizer::equalize`]:
    /// per-extension ring clones and `Rc`-linked-list traceback, with fresh
    /// prediction buffers on every call. Retained as the differential-testing
    /// oracle and the "before" side of the DFE benchmarks.
    pub fn equalize_reference(
        &self,
        rx: &[C64],
        model: &TagModel,
        known_prefix: &[SlotLevels],
        n_payload: usize,
    ) -> Vec<PqamSymbol> {
        self.equalize_reference_with_cost(rx, model, known_prefix, n_payload)
            .0
    }

    /// [`Equalizer::equalize_reference`], additionally returning the winning
    /// branch's accumulated cost (the oracle side of the beam-cost
    /// differential tests).
    pub fn equalize_reference_with_cost(
        &self,
        rx: &[C64],
        model: &TagModel,
        known_prefix: &[SlotLevels],
        n_payload: usize,
    ) -> (Vec<PqamSymbol>, f64) {
        let l = self.cfg.l_order;
        let spt = self.cfg.samples_per_slot();
        let v = self.cfg.v_memory;
        let history = (v * l).max(l + 1);
        let total_slots = known_prefix.len() + n_payload;
        assert!(
            rx.len() >= total_slots * spt,
            "equalize: rx has {} samples, need {}",
            rx.len(),
            total_slots * spt
        );

        // Seed the beam with the known prefix.
        let mut ring = vec![(0usize, 0usize); history];
        for (s, &lv) in known_prefix.iter().enumerate() {
            ring[s % history] = lv;
        }
        let mut beam = vec![Branch {
            cost: 0.0,
            ring,
            trace: None,
        }];

        let bits = model.weights.len();
        let a_levels = self.constel.levels_per_axis();
        let symbols: Vec<PqamSymbol> = self.constel.symbols().collect();
        let q_count = if self.cfg.pqam_order == 2 {
            1
        } else {
            a_levels
        };

        // Compute one branch's slot prediction: the assumed-all-off
        // waveform plus, for the two firing modules, per-level deltas.
        let predict = |br: &Branch, g: usize| -> (Vec<C64>, Vec<Vec<C64>>, Vec<Vec<C64>>) {
            let mut pred_off = vec![C64::default(); spt];
            let mut d_i = vec![vec![C64::default(); spt]; a_levels];
            let mut d_q = vec![vec![C64::default(); spt]; q_count];
            for module in 0..2 * l {
                let phase = module % l;
                if g < phase {
                    // Not yet fired: relaxed contribution (key 0).
                    let seg = model.modules[module].slot(0, 0);
                    for t in 0..spt {
                        pred_off[t] += seg[t];
                    }
                    continue;
                }
                let tau = (g - phase) % l;
                let f_latest = g - tau; // most recent firing slot ≤ g
                let is_q = module >= l;
                for (b, w) in model.weights.iter().enumerate() {
                    // Build the history key from branch decisions; for a
                    // currently-firing module (tau == 0) age 0 is the
                    // candidate bit, assumed 0 here.
                    let mut key = 0usize;
                    for age in 0..v {
                        let fs = f_latest as isize - (age * l) as isize;
                        if fs < 0 {
                            break;
                        }
                        if tau == 0 && age == 0 {
                            continue; // candidate bit, stays 0
                        }
                        let (li, lq) = br.level_at(fs, history);
                        let lev = if is_q { lq } else { li };
                        let fired = (lev >> (bits - 1 - b)) & 1 == 1;
                        key |= (fired as usize) << age;
                    }
                    let seg = model.modules[module].slot(key, tau);
                    for t in 0..spt {
                        pred_off[t] += seg[t] * *w;
                    }
                    // Candidate deltas for the firing modules.
                    if tau == 0 {
                        let seg_on = model.modules[module].slot(key | 1, 0);
                        let target = if is_q { &mut d_q } else { &mut d_i };
                        for (lev_idx, row) in target.iter_mut().enumerate() {
                            let fired = (lev_idx >> (bits - 1 - b)) & 1 == 1;
                            if fired {
                                for t in 0..spt {
                                    row[t] += (seg_on[t] - seg[t]) * *w;
                                }
                            }
                        }
                    }
                }
            }
            (pred_off, d_i, d_q)
        };

        // Decision-directed channel tracking state: exponentially-weighted
        // ⟨rx, pred⟩ / ⟨pred, pred⟩ with a window of ≈ `block` slots.
        let mut gain = C64::real(1.0);
        let mut acc_num = C64::default();
        let mut acc_den = 0.0f64;

        for j in 0..n_payload {
            let g = known_prefix.len() + j; // global slot
            let rx_slot = &rx[g * spt..(g + 1) * spt];

            let mut extensions: Vec<(f64, usize, PqamSymbol)> =
                Vec::with_capacity(beam.len() * symbols.len());

            for (bi, br) in beam.iter().enumerate() {
                let (pred_off, d_i, d_q) = predict(br, g);

                // Residual after removing all assumed-off predictions
                // (tracking gain applied to the model side).
                let res: Vec<C64> = (0..spt).map(|t| rx_slot[t] - gain * pred_off[t]).collect();

                // Score every candidate symbol.
                for &s in &symbols {
                    let di = &d_i[s.i];
                    let dq = &d_q[if self.cfg.pqam_order == 2 { 0 } else { s.q }];
                    let mut c = 0.0;
                    for t in 0..spt {
                        c += (res[t] - gain * (di[t] + dq[t])).norm_sqr();
                    }
                    extensions.push((br.cost + c, bi, s));
                }
            }

            // Keep the K best extensions.
            extensions.sort_by(|a, b| a.0.total_cmp(&b.0));
            extensions.truncate(self.k);

            // Tracking: fold the winning branch's full prediction into the
            // exponentially-weighted gain estimate every slot.
            if let Some(block) = self.track_block {
                let lambda = 1.0 - 1.0 / block as f64;
                let (_, bi0, s0) = extensions[0];
                let (pred_off, d_i, d_q) = predict(&beam[bi0], g);
                acc_num *= lambda;
                acc_den *= lambda;
                for t in 0..spt {
                    let p = pred_off[t]
                        + d_i[s0.i][t]
                        + d_q[if self.cfg.pqam_order == 2 { 0 } else { s0.q }][t];
                    acc_num += rx_slot[t] * p.conj();
                    acc_den += p.norm_sqr();
                }
                if acc_den > 1e-12 {
                    gain = acc_num / acc_den;
                }
            }

            let mut next = Vec::with_capacity(extensions.len());
            for (cost, bi, s) in extensions {
                let parent = &beam[bi];
                let mut ring = parent.ring.clone();
                ring[g % history] = (s.i, s.q);
                next.push(Branch {
                    cost,
                    ring,
                    trace: Some(Rc::new(TraceNode {
                        sym: s,
                        prev: parent.trace.clone(),
                    })),
                });
            }
            beam = next;
        }

        // Read back the best branch's decisions.
        let best = beam
            .into_iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .expect("beam never empty");
        let mut out = Vec::with_capacity(n_payload);
        let mut node = best.trace;
        while let Some(n) = node {
            out.push(n.sym);
            node = n.prev.clone();
        }
        out.reverse();
        (out, best.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Modulator;
    use retroturbo_dsp::noise::NoiseSource;
    use retroturbo_lcm::LcParams;

    fn cfg(k: usize) -> PhyConfig {
        PhyConfig {
            l_order: 4,
            pqam_order: 16,
            t_slot: 0.5e-3,
            fs: 40_000.0,
            v_memory: 2,
            k_branches: k,
            preamble_slots: 12,
            training_rounds: 4,
        }
    }

    /// Render a full frame through the nominal model (a perfect channel) and
    /// equalize it back.
    fn round_trip(k: usize, noise_sigma: f64, seed: u64) -> (Vec<PqamSymbol>, Vec<PqamSymbol>) {
        let c = cfg(k);
        let model = TagModel::nominal(&c, &LcParams::default());
        let m = Modulator::new(c);
        let bits: Vec<bool> = (0..96)
            .map(|i| !(i * 13 + seed as usize).is_multiple_of(3))
            .collect();
        let frame = m.modulate(&bits);
        let mut wave = model.render_levels(&frame.levels);
        if noise_sigma > 0.0 {
            let mut ns = NoiseSource::new(seed);
            ns.add_awgn(&mut wave, noise_sigma);
        }
        let eq = Equalizer::new(c);
        let known = &frame.levels[..frame.payload_start()];
        let dec = eq.equalize(&wave, &model, known, frame.payload_slots);
        (dec, frame.payload_symbols)
    }

    #[test]
    fn clean_channel_decodes_exactly() {
        let (dec, sent) = round_trip(8, 0.0, 1);
        assert_eq!(dec, sent);
    }

    #[test]
    fn single_branch_clean_channel_also_exact() {
        let (dec, sent) = round_trip(1, 0.0, 2);
        assert_eq!(dec, sent);
    }

    #[test]
    fn moderate_noise_decodes_exactly_with_beam() {
        // σ = 0.02 on unit swing ≈ 34 dB: comfortably above the 8 kbps
        // threshold; the beam DFE must be error-free.
        let (dec, sent) = round_trip(16, 0.02, 3);
        assert_eq!(dec, sent);
    }

    #[test]
    fn beam_no_worse_than_single_branch() {
        // At a noise level where K = 1 starts breaking, K = 16 must make no
        // more symbol errors (averaged over seeds).
        let mut err1 = 0usize;
        let mut err16 = 0usize;
        for seed in 10..16 {
            let (d1, s) = round_trip(1, 0.12, seed);
            err1 += d1.iter().zip(&s).filter(|(a, b)| a != b).count();
            let (d16, s) = round_trip(16, 0.12, seed);
            err16 += d16.iter().zip(&s).filter(|(a, b)| a != b).count();
        }
        assert!(
            err16 <= err1,
            "beam ({err16} errors) should not lose to single branch ({err1})"
        );
    }

    #[test]
    fn high_noise_produces_errors() {
        // Sanity: the equalizer is not cheating — at terrible SNR it fails.
        let (dec, sent) = round_trip(16, 0.8, 5);
        let errs = dec.iter().zip(&sent).filter(|(a, b)| a != b).count();
        assert!(errs > 0, "0 errors at σ=0.8 is implausible");
    }

    #[test]
    fn p2_constellation_works() {
        let c = PhyConfig {
            pqam_order: 2,
            ..cfg(4)
        };
        let model = TagModel::nominal(&c, &LcParams::default());
        let m = Modulator::new(c);
        let bits: Vec<bool> = (0..24).map(|i| i % 2 == 0).collect();
        let frame = m.modulate(&bits);
        let wave = model.render_levels(&frame.levels);
        let eq = Equalizer::new(c);
        let dec = eq.equalize(
            &wave,
            &model,
            &frame.levels[..frame.payload_start()],
            frame.payload_slots,
        );
        assert_eq!(dec, frame.payload_symbols);
    }

    #[test]
    fn tracking_follows_rotation_drift() {
        // A tag rolling during the packet: the constellation rotates
        // linearly, reaching 30° beyond the preamble-corrected frame by the
        // last symbol. Static DFE breaks; decision-directed tracking
        // follows (the §8 mobility extension).
        let c = cfg(16);
        let model = TagModel::nominal(&c, &LcParams::default());
        let m = Modulator::new(c);
        let bits: Vec<bool> = (0..160).map(|i| (i * 7) % 3 != 0).collect();
        let frame = m.modulate(&bits);
        let wave = model.render_levels(&frame.levels);
        let spt = c.samples_per_slot();
        let pay_start = frame.payload_start() * spt;
        let n = wave.len();
        let drift_total = 30f64.to_radians();
        let rx: Vec<C64> = wave
            .iter()
            .enumerate()
            .map(|(i, &z)| {
                // No drift through preamble+training (correction is exact
                // there), then linear drift across the payload.
                let p = (i.saturating_sub(pay_start)) as f64 / (n - pay_start) as f64;
                z * C64::cis(drift_total * p)
            })
            .collect();
        let known = &frame.levels[..frame.payload_start()];

        let static_eq = Equalizer::new(c);
        let tracked_eq = Equalizer::new(c).with_tracking(3);
        let errs = |dec: &Vec<PqamSymbol>| {
            dec.iter()
                .zip(&frame.payload_symbols)
                .filter(|(a, b)| a != b)
                .count()
        };
        let e_static = errs(&static_eq.equalize(&rx, &model, known, frame.payload_slots));
        let e_tracked = errs(&tracked_eq.equalize(&rx, &model, known, frame.payload_slots));
        assert!(e_static > 0, "static DFE should break under 30° drift");
        assert_eq!(e_tracked, 0, "tracked DFE should follow the drift");
    }

    #[test]
    fn tracking_harmless_on_static_channel() {
        let (dec, sent) = round_trip(16, 0.02, 3);
        // Re-run the same channel with tracking enabled.
        let c = cfg(16);
        let model = TagModel::nominal(&c, &LcParams::default());
        let m = Modulator::new(c);
        let bits: Vec<bool> = (0..96).map(|i| (i * 13 + 3) % 3 != 0).collect();
        let frame = m.modulate(&bits);
        let mut wave = model.render_levels(&frame.levels);
        let mut ns = NoiseSource::new(3);
        ns.add_awgn(&mut wave, 0.02);
        let eq = Equalizer::new(c).with_tracking(8);
        let dec2 = eq.equalize(
            &wave,
            &model,
            &frame.levels[..frame.payload_start()],
            frame.payload_slots,
        );
        assert_eq!(
            dec2, frame.payload_symbols,
            "tracking must not hurt a static link"
        );
        assert_eq!(dec, sent);
    }

    #[test]
    fn viterbi_branch_count() {
        let eq = Equalizer::viterbi(cfg(16));
        assert_eq!(eq.branches(), 4096); // min(16^4, 4096)
    }

    /// P^L must saturate instead of overflowing: 256^8 = 2^64 wraps `usize`
    /// to 0 (and a float `powi` rounds), either of which would defeat the
    /// 4096 cap. Also checks an exact small case below the cap.
    #[test]
    fn viterbi_branch_count_saturates() {
        let big = PhyConfig {
            l_order: 8,
            pqam_order: 256,
            v_memory: 1,
            ..cfg(16)
        };
        assert_eq!(Equalizer::viterbi(big).branches(), 4096);
        let small = PhyConfig {
            l_order: 2,
            pqam_order: 4,
            ..cfg(16)
        };
        assert_eq!(Equalizer::viterbi(small).branches(), 16); // 4^2, exact
    }

    /// Relative-with-floor cost comparison: the factorized expansion sums in
    /// a different order than the reference's per-sample loop, so accumulated
    /// beam costs agree to rounding (≤ 1e-9 relative, with an absolute floor
    /// for clean-channel costs that are ~0).
    fn assert_cost_close(fast: f64, slow: f64, ctx: &str) {
        let tol = 1e-9 * slow.abs().max(1.0);
        assert!(
            (fast - slow).abs() <= tol,
            "{ctx}: cost {fast} vs reference {slow} (diff {})",
            (fast - slow).abs()
        );
    }

    /// The Gram-factorized path must reproduce the reference
    /// (`Rc`-traceback, per-sample scoring) implementation
    /// decision-for-decision — same symbols, same traceback — with beam
    /// costs within 1e-9 relative, across branch counts, noise levels and
    /// seeds.
    #[test]
    fn gram_path_matches_reference() {
        for k in [1usize, 4, 16] {
            for (sigma, seed) in [(0.0, 1u64), (0.05, 7), (0.15, 11), (0.5, 23)] {
                let c = cfg(k);
                let model = TagModel::nominal(&c, &LcParams::default());
                let m = Modulator::new(c);
                let bits: Vec<bool> = (0..96)
                    .map(|i| !(i * 13 + seed as usize).is_multiple_of(3))
                    .collect();
                let frame = m.modulate(&bits);
                let mut wave = model.render_levels(&frame.levels);
                if sigma > 0.0 {
                    let mut ns = NoiseSource::new(seed);
                    ns.add_awgn(&mut wave, sigma);
                }
                let eq = Equalizer::new(c);
                let known = &frame.levels[..frame.payload_start()];
                let (fast, cf) = eq.equalize_with_cost(&wave, &model, known, frame.payload_slots);
                let (slow, cs) =
                    eq.equalize_reference_with_cost(&wave, &model, known, frame.payload_slots);
                assert_eq!(fast, slow, "k={k} sigma={sigma} seed={seed}");
                assert_cost_close(cf, cs, &format!("k={k} sigma={sigma} seed={seed}"));
            }
        }
    }

    /// Same equivalence with decision-directed tracking enabled (the gain
    /// update feeds back into scoring, so it exercises the winner-prediction
    /// reuse and the basis-materialized tracking deltas).
    #[test]
    fn gram_path_matches_reference_with_tracking() {
        let c = cfg(16);
        let model = TagModel::nominal(&c, &LcParams::default());
        let m = Modulator::new(c);
        let bits: Vec<bool> = (0..160).map(|i| (i * 7) % 3 != 0).collect();
        let frame = m.modulate(&bits);
        let wave = model.render_levels(&frame.levels);
        let spt = c.samples_per_slot();
        let pay_start = frame.payload_start() * spt;
        let n = wave.len();
        let rx: Vec<C64> = wave
            .iter()
            .enumerate()
            .map(|(i, &z)| {
                let p = (i.saturating_sub(pay_start)) as f64 / (n - pay_start) as f64;
                z * C64::cis(30f64.to_radians() * p)
            })
            .collect();
        let known = &frame.levels[..frame.payload_start()];
        let eq = Equalizer::new(c).with_tracking(3);
        let (fast, cf) = eq.equalize_with_cost(&rx, &model, known, frame.payload_slots);
        let (slow, cs) = eq.equalize_reference_with_cost(&rx, &model, known, frame.payload_slots);
        assert_eq!(fast, slow);
        assert_cost_close(cf, cs, "tracked");
    }

    /// P = 2 exercises the degenerate single-axis constellation in both
    /// paths.
    #[test]
    fn gram_path_matches_reference_p2() {
        let c = PhyConfig {
            pqam_order: 2,
            ..cfg(4)
        };
        let model = TagModel::nominal(&c, &LcParams::default());
        let m = Modulator::new(c);
        let bits: Vec<bool> = (0..24).map(|i| i % 2 == 0).collect();
        let frame = m.modulate(&bits);
        let mut wave = model.render_levels(&frame.levels);
        let mut ns = NoiseSource::new(9);
        ns.add_awgn(&mut wave, 0.1);
        let eq = Equalizer::new(c);
        let known = &frame.levels[..frame.payload_start()];
        let (fast, cf) = eq.equalize_with_cost(&wave, &model, known, frame.payload_slots);
        let (slow, cs) = eq.equalize_reference_with_cost(&wave, &model, known, frame.payload_slots);
        assert_eq!(fast, slow);
        assert_cost_close(cf, cs, "p2");
    }

    /// The deep-memory configuration (v > 7 would make the per-phase basis
    /// Gram large) must fall back to per-branch active-pair dots and still
    /// match the reference.
    #[test]
    fn gram_path_matches_reference_deep_memory() {
        let c = PhyConfig {
            v_memory: 8,
            ..cfg(4)
        };
        let model = TagModel::nominal(&c, &LcParams::default());
        let m = Modulator::new(c);
        let bits: Vec<bool> = (0..64).map(|i| (i * 11) % 5 < 3).collect();
        let frame = m.modulate(&bits);
        let mut wave = model.render_levels(&frame.levels);
        let mut ns = NoiseSource::new(17);
        ns.add_awgn(&mut wave, 0.08);
        let eq = Equalizer::new(c);
        let known = &frame.levels[..frame.payload_start()];
        let (fast, cf) = eq.equalize_with_cost(&wave, &model, known, frame.payload_slots);
        let (slow, cs) = eq.equalize_reference_with_cost(&wave, &model, known, frame.payload_slots);
        assert_eq!(fast, slow);
        assert_cost_close(cf, cs, "deep memory");
    }
}
