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
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
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

/// Shift one slot's decided levels into the history registers of the two
/// modules at `phase` (I then Q). A branch's register file holds one byte
/// per (module, bit-plane), at `module · bits + b`; bit `age` of a byte is
/// whether that plane fired at the module's age-th latest firing, masked to
/// the `v` ages any history key can read (`vmask`). A byte holds every age
/// because `PhyConfig::validate` bounds `v` to 1..=8.
fn shift_in(regs: &mut [u8], phase: usize, l: usize, bits: usize, vmask: usize, lv: SlotLevels) {
    for (module, lev) in [(phase, lv.0), (l + phase, lv.1)] {
        for (b, r) in regs[module * bits..][..bits].iter_mut().enumerate() {
            *r = (((*r as usize) << 1 | level_fires(lev, b, bits) as usize) & vmask) as u8;
        }
    }
}

/// One prediction term of a slot, read from a branch's register file:
/// the term is `(segs[base + key], w)` with `key = (regs[reg] << shift) &
/// mask`. A module that has not fired yet contributes its relaxed key-0
/// segment (`mask = 0`, weight 1); a fired one contributes one term per
/// bit-plane, `slot(key, tau)` at weight `w_b`, where the key is the
/// register itself when `tau ≥ 1` and, for a firing module (`tau == 0`),
/// the register shifted up one age, leaving the candidate bit at 0. These
/// are exactly the terms and order of the reference prediction.
/// `segs[((module·L + tau) << v) | key]` is `slot(key, tau)` of `module`.
#[derive(Clone, Copy)]
struct Term {
    reg: usize,
    base: usize,
    shift: u32,
    mask: usize,
    w: f64,
}

/// Append a slot's terms for `module` (slots since its latest firing:
/// `tau`, `None` before its first) to `plan`.
fn plan_module(
    plan: &mut Vec<Term>,
    weights: &[f64],
    module: usize,
    tau: Option<usize>,
    l: usize,
    v: usize,
) {
    let bits = weights.len();
    match tau {
        None => plan.push(Term {
            reg: 0,
            base: (module * l) << v,
            shift: 0,
            mask: 0,
            w: 1.0,
        }),
        Some(tau) => plan.extend(weights.iter().enumerate().map(|(b, &w)| Term {
            reg: module * bits + b,
            base: (module * l + tau) << v,
            shift: (tau == 0) as u32,
            mask: (1 << v) - 1,
            w,
        })),
    }
}

/// A slot's fold order, group-key mask and prediction terms (DESIGN.md
/// §11), a pure function of the global slot `g`, whether the slot is
/// grouped, and the call's model weights. Once every module has fired
/// (`g ≥ l`) it depends on `g` only through the phase `g % l`, so the
/// steady state of an untracked beam reuses one plan per phase.
struct SlotPlan {
    /// Modules in fold order. Grouped: every module except the pair at
    /// phase (g−1) % l in natural order, then that dependent pair (I, Q):
    /// the only modules whose key reads slot g−1, where sibling branches
    /// differ. Otherwise the natural module order, whole.
    fold: Vec<usize>,
    /// Length of the group-key prefix of `fold`.
    n_prefix: usize,
    /// The group-key mask, one little-endian word per 8 registers: a byte
    /// per register keeping exactly the key bits the prefix reads (none
    /// for the dependent pair or unfired modules).
    kmask: Vec<u64>,
    /// The slot's prediction terms in fold order; the prefix's come first.
    terms: Vec<Term>,
    /// Length of the prefix's share of `terms`.
    n_prefix_terms: usize,
}

impl SlotPlan {
    fn with_capacity(l: usize, bits: usize) -> Self {
        Self {
            fold: Vec::with_capacity(2 * l),
            n_prefix: 0,
            kmask: Vec::with_capacity((2 * l * bits).div_ceil(8)),
            terms: Vec::with_capacity(2 * l * bits),
            n_prefix_terms: 0,
        }
    }

    /// Rebuild the plan for global slot `g` of an `l`-phase, `v`-memory
    /// model with `weights.len()` bit-planes.
    fn build(&mut self, g: usize, grouped: bool, l: usize, v: usize, weights: &[f64]) {
        let bits = weights.len();
        let vmask = (1usize << v) - 1;
        let phase = g % l;
        let dep = (g + l - 1) % l;
        // `module % l` without a division: modules are `0..2l`.
        let phase_of = |m: usize| if m < l { m } else { m - l };
        // Slots since a module's latest firing (`None` before its first).
        let tau_of = |m: usize| {
            let p = phase_of(m);
            (g >= p).then(|| if phase >= p { phase - p } else { phase + l - p })
        };
        self.fold.clear();
        self.fold
            .extend((0..2 * l).filter(|&m| !grouped || phase_of(m) != dep));
        self.n_prefix = self.fold.len();
        if grouped {
            self.fold.extend([dep, l + dep]);
        }
        self.kmask.clear();
        self.kmask.resize((2 * l * bits).div_ceil(8), 0);
        for m in 0..2 * l {
            let keep = match tau_of(m) {
                _ if grouped && phase_of(m) == dep => 0,
                None => 0,
                Some(0) => (vmask >> 1) as u64,
                Some(_) => vmask as u64,
            };
            for r in m * bits..(m + 1) * bits {
                self.kmask[r / 8] |= keep << (8 * (r % 8));
            }
        }
        self.terms.clear();
        for &m in &self.fold[..self.n_prefix] {
            plan_module(&mut self.terms, weights, m, tau_of(m), l, v);
        }
        self.n_prefix_terms = self.terms.len();
        for &m in &self.fold[self.n_prefix..] {
            plan_module(&mut self.terms, weights, m, tau_of(m), l, v);
        }
    }
}

/// Fill `ops` with `terms` read from one branch's register file. A plain
/// loop: an iterator adaptor here is a generic instance the optimiser may
/// place in another codegen unit and then call, once per group and class.
#[inline]
fn fill_ops<'m>(ops: &mut Vec<(&'m [C64], f64)>, segs: &[&'m [C64]], terms: &[Term], regs: &[u8]) {
    ops.clear();
    for t in terms {
        ops.push((
            segs[t.base + ((regs[t.reg] as usize) << t.shift & t.mask)],
            t.w,
        ));
    }
}

/// Order-preserving image of [`f64::total_cmp`] in `u64`: a negative
/// value's bits are all flipped, a positive one's sign bit is set, so
/// unsigned comparison of the images is exactly `total_cmp` (−NaN < −Inf <
/// … < −0 < +0 < … < +Inf < +NaN). A bijection, undone by [`from_ord_key`].
#[inline]
fn ord_key(x: f64) -> u64 {
    let b = x.to_bits();
    b ^ (((b as i64 >> 63) as u64) | 1 << 63)
}

/// The exact inverse of [`ord_key`].
#[inline]
fn from_ord_key(k: u64) -> f64 {
    f64::from_bits(k ^ (!((k as i64 >> 63) as u64) | 1 << 63))
}

/// Little-endian word `w` of a register file (8 registers per word).
#[inline]
fn reg_word(regs: &[u8], w: usize) -> u64 {
    u64::from_le_bytes(regs[w * 8..][..8].try_into().expect("8-byte chunk"))
}

/// Hasher of the energy-table memo. Its keys are `u128`s the call packs
/// itself from `(phase, fire_h)`, so SipHash's flooding resistance buys
/// nothing; a multiply per word and a fold of the high half into the low
/// (the table indexes buckets by the low bits) is enough, and
/// deterministic.
#[derive(Default)]
struct MemoHasher(u64);

impl Hasher for MemoHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0.rotate_left(26) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ h >> 32;
    }

    fn write_u128(&mut self, x: u128) {
        self.write_u64(x as u64);
        self.write_u64((x >> 64) as u64);
    }
}

/// The four stages of `dfe.score`, timed per call.
const SCORE_STAGES: [&str; 4] = [
    "dfe.score.predict",
    "dfe.score.cross",
    "dfe.score.aggregate",
    "dfe.score.select",
];

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
    /// Beam state is one history register per (module, bit-plane) per
    /// branch, read directly as prediction keys; branches whose keys agree
    /// share one fused prediction, and energy tables are memoised per call
    /// (DESIGN.md §11). Traceback lives in an index arena, top-K selection
    /// is a partial `select_nth_unstable` over integer keys ordered as
    /// `(cost, branch, symbol)`, and the winning branch's prediction is
    /// reused for the tracking update. It produces decisions identical to
    /// [`Equalizer::equalize_reference`] (costs agree to ≤ 1e-9 relative;
    /// summation order differs).
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
        // Fired bit-planes of each per-axis level, ascending: the aggregate
        // loops below walk these instead of testing every plane.
        let fired: Vec<Vec<usize>> = (0..a_levels)
            .map(|x| (0..bits).filter(|&b| level_fires(x, b, bits)).collect())
            .collect();

        let basis = ScoreBasis::build(model, l, v, spt, bits);

        // Beam state, flat: branch `bi` owns the register file
        // `regs[bi*stride..][..stride]` (see `shift_in`; padded to whole
        // u64 words for the group-key compare), its accumulated cost in
        // `costs[bi]` and its traceback head (arena index) in `heads[bi]`.
        let vmask = (1usize << v) - 1;
        // Every prediction segment, indexed `((module·L + tau) << v) | key`.
        let segs: Vec<&[C64]> = (0..(2 * l * l) << v)
            .map(|i| model.modules[(i >> v) / l].slot(i & vmask, (i >> v) % l))
            .collect();
        let n_words = (2 * l * bits).div_ceil(8);
        let stride = 8 * n_words;
        let mut regs = vec![0u8; stride];
        for (s, &lv) in known_prefix.iter().enumerate() {
            shift_in(&mut regs, s % l, l, bits, vmask, lv);
        }
        let mut next_regs: Vec<u8> = Vec::with_capacity(self.k * stride);
        let mut costs = vec![0.0f64];
        let mut next_costs: Vec<f64> = Vec::with_capacity(self.k);
        let mut heads = vec![TRACE_NONE];
        let mut next_heads: Vec<u32> = Vec::with_capacity(self.k);
        // Traceback arena: (parent index, decided symbol). Branches share
        // prefixes by pointing at the same parent; nothing is ever cloned.
        let mut arena: Vec<(u32, PqamSymbol)> = Vec::with_capacity(self.k * n_payload);

        // Per-slot scratch, allocated once. Branches whose prediction keys
        // agree outside the slot's dependent modules form a key group: the
        // group's shared sum is predicted once (`pred_common`), with its
        // firing-module variants (`group_fire`, `group_deltas`) and energy
        // tables (`group_e`). Members whose dependent keys agree too are
        // twins, a class with one prediction (`pred_flat[c*spt..]`),
        // residual energy, cross dots and level sums (`class_c`); only the
        // accumulated cost stays per branch.
        //
        // A slot's plan (fold order, key mask, terms) is rebuilt per slot
        // only where it still varies: the first `l` slots, a single-branch
        // beam, L = 1 and tracked calls. An untracked beam's steady state
        // (grouped, every module fired) reads one prebuilt plan per phase;
        // like the memo below, they hold this call's weights.
        let mut slot_plan = SlotPlan::with_capacity(l, bits);
        let phase_plans: Vec<SlotPlan> = if !tracked && l >= 2 && self.k > 1 {
            (0..l)
                .map(|p| {
                    let mut plan = SlotPlan::with_capacity(l, bits);
                    plan.build(l + p, true, l, v, &model.weights);
                    plan
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut gkeys: Vec<u64> = Vec::with_capacity(self.k * n_words);
        let mut order: Vec<(u64, u64, usize)> = Vec::with_capacity(self.k);
        let mut class_of: Vec<usize> = Vec::with_capacity(self.k);
        let mut class_group: Vec<usize> = Vec::with_capacity(self.k);
        let mut group_fire: Vec<usize> = Vec::with_capacity(self.k * na);
        let mut group_deltas: Vec<&[C64]> = Vec::with_capacity(self.k * na);
        let mut ops: Vec<(&[C64], f64)> = Vec::with_capacity(2 * l * bits);
        let mut pred_common = vec![C64::default(); spt];
        let mut pred_flat = vec![C64::default(); self.k * spt];
        let mut pred_gain = vec![C64::default(); if tracked { spt } else { 0 }];
        let mut r_energy = vec![0.0f64; self.k];
        let mut cross = vec![C64::default(); self.k * na];
        let n_c = a_levels + q_count;
        let mut class_c = vec![C64::default(); self.k * n_c];
        let mut gb = vec![0.0f64; na * na];
        let mut agg_e_i = vec![0.0f64; a_levels];
        let mut agg_e_q = vec![0.0f64; q_count];
        let mut agg_e_iq = vec![0.0f64; a_levels * q_count];
        // Energy tables, memoised for the call by `(phase, fire_h)`: the
        // table is a pure function of that key under this call's basis.
        // `group_tab[gi]` is group `gi`'s table in `tables` (P entries each).
        let mut memo: HashMap<u128, usize, BuildHasherDefault<MemoHasher>> = HashMap::default();
        let mut tables: Vec<f64> = Vec::new();
        let mut group_tab: Vec<usize> = Vec::with_capacity(self.k);
        let mut cand = vec![0.0f64; p_count];
        let mut d_i_buf = vec![C64::default(); if tracked { spt } else { 0 }];
        let mut d_q_buf = vec![C64::default(); if tracked { spt } else { 0 }];
        // A slot's extensions as integer keys `ord_key(cost) << 32 | bi·P +
        // symbol index`: plain integer order is the total order `(cost
        // under total_cmp, index)`, and the index doubles as the
        // deterministic tie-break that reproduces the reference's stable
        // sort (branch-major, symbol-minor).
        let mut extensions: Vec<u128> = Vec::with_capacity(self.k * p_count);

        // Decision-directed channel tracking state: exponentially-weighted
        // ⟨rx, pred⟩ / ⟨pred, pred⟩ with a window of ≈ `block` slots.
        let mut gain = C64::real(1.0);
        let mut acc_num = C64::default();
        let mut acc_den = 0.0f64;
        let mut scored = 0u64;
        let mut predictions = 0u64;
        let mut energy_tables = 0u64;

        let score_span = telemetry::span("dfe.score");
        let mut split = telemetry::Laps::start(SCORE_STAGES);
        for j in 0..n_payload {
            let g = known_prefix.len() + j; // global slot
            let phase = g % l;
            let rx_slot = &rx[g * spt..(g + 1) * spt];
            let n_branches = costs.len();
            // Exact until the first tracking update (always, if untracked):
            // skips the per-sample complex gain multiply.
            let unit_gain = gain.re == 1.0 && gain.im == 0.0;
            let g2 = gain.norm_sqr();

            // Grouped slots split the dependent pair off the fold (see
            // `SlotPlan::fold`); tracked calls, L = 1, the first slot and a
            // single branch fold whole.
            let grouped = !tracked && l >= 2 && g >= 1 && n_branches > 1;
            let plan = if grouped && g >= l {
                &phase_plans[phase]
            } else {
                slot_plan.build(g, grouped, l, v, &model.weights);
                &slot_plan
            };
            let (prefix_terms, dep_terms) = plan.terms.split_at(plan.n_prefix_terms);
            // Sort branches by a hash of their group key, then their
            // dependent pair's registers (at most 8 bytes, exact), so equal
            // keys sit together; a group or class is a run of *equal* keys
            // (a hash collision only splits a run, never merges).
            gkeys.clear();
            order.clear();
            for bi in 0..n_branches {
                let r = &regs[bi * stride..][..stride];
                let mut h = 0u64;
                for (w, k) in plan.kmask.iter().enumerate() {
                    let word = reg_word(r, w) & k;
                    gkeys.push(word);
                    h = (h ^ word)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .rotate_left(29);
                }
                let dep_key = plan.fold[plan.n_prefix..].iter().fold(0u64, |acc, &m| {
                    r[m * bits..][..bits]
                        .iter()
                        .fold(acc, |a, &x| a << 8 | x as u64)
                });
                order.push((h, dep_key, bi));
            }
            order.sort_unstable();
            // Word by word: a slice `==` here calls out to `bcmp`.
            let same_gkey = |a: usize, b: usize| {
                for w in 0..n_words {
                    if gkeys[a * n_words + w] != gkeys[b * n_words + w] {
                        return false;
                    }
                }
                true
            };

            // Predict: one fused kernel per key group for the shared sum,
            // one per grouped twin class for its dependent pair.
            class_of.resize(n_branches, 0);
            class_group.clear();
            group_fire.clear();
            group_deltas.clear();
            let mut n_groups = 0;
            let mut start = 0;
            while start < n_branches {
                let rep = order[start].2;
                let mut end = start + 1;
                while end < n_branches && same_gkey(order[end].2, rep) {
                    end += 1;
                }
                let r = &regs[rep * stride..][..stride];
                fill_ops(&mut ops, &segs, prefix_terms, r);
                pred_common.fill(C64::default());
                backend::axpy_wr_many(&mut pred_common, &ops);
                predictions += 1;
                for (axis, m) in [phase, l + phase].into_iter().enumerate() {
                    for (b, &x) in r[m * bits..][..bits].iter().enumerate() {
                        let h = x as usize & (vmask >> 1);
                        group_fire.push(h);
                        group_deltas.push(basis.delta(phase, axis, b, h));
                    }
                }
                let mut t = start;
                while t < end {
                    let (_, dep_key, rep_t) = order[t];
                    let c = class_group.len();
                    class_group.push(n_groups);
                    let pred = &mut pred_flat[c * spt..][..spt];
                    pred.copy_from_slice(&pred_common);
                    if grouped {
                        let rt = &regs[rep_t * stride..][..stride];
                        fill_ops(&mut ops, &segs, dep_terms, rt);
                        backend::axpy_wr_many(pred, &ops);
                        predictions += 1;
                    }
                    while t < end && order[t].1 == dep_key {
                        class_of[order[t].2] = c;
                        t += 1;
                    }
                }
                n_groups += 1;
                start = end;
            }
            let n_classes = class_group.len();
            split.lap(0);

            // Residual after removing the assumed-off prediction (tracking
            // gain applied to the model side), its energy R = Σ|res|², and
            // the cross inner products ⟨res, δ⟩ over the branch's active
            // basis, I-axis bit-planes first.
            for c in 0..n_classes {
                let pred = &pred_flat[c * spt..][..spt];
                let pred = if unit_gain {
                    pred
                } else {
                    for (gp, p) in pred_gain.iter_mut().zip(pred) {
                        *gp = gain * *p;
                    }
                    &pred_gain
                };
                r_energy[c] = backend::residual_cross(
                    rx_slot,
                    pred,
                    &group_deltas[class_group[c] * na..][..na],
                    &mut cross[c * na..][..na],
                );
            }
            split.lap(1);

            // Per-group energy tables, a pure function of (phase, fire_h):
            // E_I[x] = Σ_{b,b'∈F(x)} Re⟨δ_I,b, δ_I,b'⟩ (same for Q) and the
            // I–Q coupling E_IQ[x][y], folded per symbol into
            // E(x,y) = E_I[x] + E_Q[y] + 2·E_IQ[x][y]. Computed once per
            // distinct key in the call; each fire_h is below 2^(v−1).
            group_tab.clear();
            for gi in 0..n_groups {
                let fire_h = &group_fire[gi * na..][..na];
                let key = fire_h
                    .iter()
                    .fold(phase as u128, |k, &h| k << (v - 1) | h as u128);
                if let Some(&t) = memo.get(&key) {
                    group_tab.push(t);
                    continue;
                }
                let t = tables.len() / p_count;
                memo.insert(key, t);
                group_tab.push(t);
                energy_tables += 1;
                basis.active_gram(phase, fire_h, &mut gb);
                for (x, fx) in fired.iter().enumerate() {
                    let mut e = 0.0;
                    for &b in fx {
                        for &b2 in fx {
                            e += gb[b * na + b2];
                        }
                    }
                    agg_e_i[x] = e;
                }
                for (y, fy) in fired[..q_count].iter().enumerate() {
                    let mut e = 0.0;
                    for &b in fy {
                        for &b2 in fy {
                            e += gb[(bits + b) * na + bits + b2];
                        }
                    }
                    agg_e_q[y] = e;
                }
                for (x, fx) in fired.iter().enumerate() {
                    for (y, fy) in fired[..q_count].iter().enumerate() {
                        let mut e = 0.0;
                        for &b in fx {
                            for &b2 in fy {
                                e += gb[b * na + bits + b2];
                            }
                        }
                        agg_e_iq[x * q_count + y] = e;
                    }
                }
                tables.extend(
                    symbols
                        .iter()
                        .map(|s| agg_e_i[s.i] + agg_e_q[s.q] + 2.0 * agg_e_iq[s.i * q_count + s.q]),
                );
            }

            // Per class: C_I[x] = Σ_{b∈F(x)} ⟨res,δ_I,b⟩, then C_Q[y].
            for c in 0..n_classes {
                let cross = &cross[c * na..][..na];
                let (c_i, c_q) = class_c[c * n_c..][..n_c].split_at_mut(a_levels);
                for (axis, sums) in [(0, c_i), (bits, c_q)] {
                    for (sum, fx) in sums.iter_mut().zip(&fired) {
                        let mut acc = C64::default();
                        for &b in fx {
                            acc += cross[axis + b];
                        }
                        *sum = acc;
                    }
                }
            }

            // Per branch, every candidate in O(1): cost = R + |g|²·E(x,y)
            //   − 2·Re(conj(g)·(C_I[x] + C_Q[y])).
            extensions.clear();
            for bi in 0..n_branches {
                let cls = class_of[bi];
                let (c_i, c_q) = class_c[cls * n_c..][..n_c].split_at(a_levels);
                let e_sym = &tables[group_tab[class_group[cls]] * p_count..][..p_count];
                let base = costs[bi] + r_energy[cls];
                // Symbols are I-major (`si = x·q_count + y`); only the real
                // part of C_I[x] + C_Q[y] enters an untracked cost.
                let rows = cand
                    .chunks_exact_mut(q_count)
                    .zip(e_sym.chunks_exact(q_count));
                for ((c_row, e_row), ci) in rows.zip(c_i) {
                    for ((c, &e), cq) in c_row.iter_mut().zip(e_row).zip(c_q) {
                        *c = if unit_gain {
                            base + e - 2.0 * (ci.re + cq.re)
                        } else {
                            let cr = *ci + *cq;
                            base + g2 * e - 2.0 * (gain.re * cr.re + gain.im * cr.im)
                        };
                    }
                }
                let idx0 = bi * p_count;
                for (si, &c) in cand.iter().enumerate() {
                    extensions.push((ord_key(c) as u128) << 32 | (idx0 + si) as u128);
                }
            }
            scored += (n_branches * p_count) as u64;
            split.lap(2);

            // Keep the K best extensions: a partial selection instead of a
            // full sort; the (cost, index) total order keeps survivors (and
            // their ordering) identical to the reference's stable sort.
            if extensions.len() > self.k {
                extensions.select_nth_unstable(self.k - 1);
                extensions.truncate(self.k);
            }
            extensions.sort_unstable();

            // Tracking: fold the winning branch's full prediction into the
            // exponentially-weighted gain estimate every slot, reusing the
            // prediction already computed for scoring. The candidate deltas
            // are materialized from the basis in ascending bit-plane order,
            // matching the reference's d_i/d_q accumulation bit-for-bit.
            if let Some(block) = self.track_block {
                let lambda = 1.0 - 1.0 / block as f64;
                let idx = extensions[0] as u32 as usize;
                let bi0 = idx / p_count;
                let s0 = symbols[idx % p_count];
                let c0 = class_of[bi0];
                let pred0 = &pred_flat[c0 * spt..][..spt];
                let h0 = &group_fire[class_group[c0] * na..][..na];
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

            // Materialize the surviving branches into the back buffers:
            // the parent's registers with this slot's levels shifted into
            // the two firing modules.
            next_regs.clear();
            next_costs.clear();
            next_heads.clear();
            for &ext in &extensions {
                let idx = ext as u32 as usize;
                let bi = idx / p_count;
                let s = symbols[idx % p_count];
                next_regs.extend_from_slice(&regs[bi * stride..][..stride]);
                let at = next_regs.len() - stride;
                shift_in(&mut next_regs[at..], phase, l, bits, vmask, (s.i, s.q));
                arena.push((heads[bi], s));
                next_heads.push((arena.len() - 1) as u32);
                next_costs.push(from_ord_key((ext >> 32) as u64));
            }
            std::mem::swap(&mut regs, &mut next_regs);
            std::mem::swap(&mut costs, &mut next_costs);
            std::mem::swap(&mut heads, &mut next_heads);
            split.lap(3);
        }
        drop(score_span);
        split.record();

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
        telemetry::counter_add("dfe.predictions", predictions);
        telemetry::counter_add("dfe.energy_tables", energy_tables);
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

    /// `ord_key` orders exactly like `f64::total_cmp` and `from_ord_key`
    /// undoes it bit for bit, over signed zeros, infinities, NaNs of either
    /// sign and payload, subnormals and neighbouring floats.
    #[test]
    fn ord_key_is_total_cmp() {
        let one = 1.0f64;
        let vals = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::from_bits(0x7fff_ffff_ffff_ffff),
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE - f64::from_bits(1),
            one,
            f64::from_bits(one.to_bits() + 1),
            f64::from_bits(one.to_bits() - 1),
            -one,
            f64::from_bits((-one).to_bits() + 1),
            f64::MAX,
            f64::MIN,
            1e-300,
            -1e300,
        ];
        for &a in &vals {
            assert_eq!(from_ord_key(ord_key(a)).to_bits(), a.to_bits(), "{a:e}");
            for &b in &vals {
                assert_eq!(
                    ord_key(a).cmp(&ord_key(b)),
                    a.total_cmp(&b),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }

    /// The L = 2, 4-PQAM loopback PHY of the streaming service's testbed.
    fn loopback_phy() -> PhyConfig {
        PhyConfig {
            l_order: 2,
            pqam_order: 4,
            t_slot: 0.5e-3,
            fs: 40_000.0,
            v_memory: 3,
            k_branches: 8,
            preamble_slots: 12,
            training_rounds: 2,
        }
    }

    /// The slots that still build their plan per slot must match the
    /// reference too: an empty known prefix (no module has fired when the
    /// payload starts), a known prefix shorter than L (some have not), a
    /// single branch (never grouped) and tracking (natural fold order), on
    /// the 8 kbps and loopback shapes, under a model trained on the frame.
    /// Their decisions and winning-cost bits are also pinned to values
    /// captured before the steady state got its per-call phase plans: an
    /// unfired module's relaxed term and a fired one's all-zero history
    /// are close, so only the bits tell the two plans apart.
    #[test]
    fn gram_path_matches_reference_on_per_slot_plans() {
        const PINNED: [(u64, u64); 10] = [
            (0x4359c4cc1729252e, 0x4037d4eab4811d93),
            (0x0993e0b6b7e73c90, 0x4014bd77389ed2b6),
            (0x593f0add9f5a6916, 0x4015167ab10502ff),
            (0xd9c1edf14159e126, 0x40146107c716c298),
            (0xc2e0314d932fd2f4, 0x4015c2556b1eb7da),
            (0xe19dd82d3d6c3ebf, 0x4044f6f3d25b1e4c),
            (0xe19dd82d3d6c3ebf, 0x404573d22c08dcaa),
            (0xa94b126ac22da604, 0x402883aa50a49154),
            (0xa94b126ac22da604, 0x4028967dd6feff78),
            (0xf610355cdda0e774, 0x407420a840231399),
        ];
        let mut got = Vec::new();
        use crate::training::{OfflineTraining, OnlineTrainer};
        let nominal = LcParams::default();
        for c in [PhyConfig::default_8kbps(), loopback_phy()] {
            let bits: Vec<bool> = (0..192).map(|i| (i * 7) % 5 < 2).collect();
            let frame = Modulator::new(c).modulate(&bits);
            let mut wave = TagModel::nominal(&c, &nominal).render_levels(&frame.levels);
            NoiseSource::new(31).add_awgn(&mut wave, 0.05);
            // A trained model: its never-fired segments differ per `tau`,
            // unlike the nominal model's rest level.
            let variants = OfflineTraining::default_variants(&nominal);
            let off = OfflineTraining::collect(&c, &nominal, &variants, 2);
            let model = OnlineTrainer::new(c, &off).train(&wave);
            let (spt, l, start) = (c.samples_per_slot(), c.l_order, frame.payload_start());
            // (prefix slots kept, branches, tracking block)
            let cases = [
                (0, c.k_branches, None),
                (l - 1, c.k_branches, None),
                (start, 1, None),
                (start, c.k_branches, Some(4)),
                (l - 1, c.k_branches, Some(4)),
            ];
            for (kept, k, track) in cases {
                let first = start - kept;
                let rx = &wave[first * spt..];
                let known = &frame.levels[first..start];
                let mut eq = Equalizer::new(c).with_branches(k);
                if let Some(b) = track {
                    eq = eq.with_tracking(b);
                }
                let ctx = format!(
                    "L={l} P={} prefix={kept} k={k} track={track:?}",
                    c.pqam_order
                );
                let (fast, cf) = eq.equalize_with_cost(rx, &model, known, frame.payload_slots);
                let (slow, cs) =
                    eq.equalize_reference_with_cost(rx, &model, known, frame.payload_slots);
                assert_eq!(fast, slow, "{ctx}");
                assert_cost_close(cf, cs, &ctx);
                got.push((decision_sum(&fast), cf.to_bits()));
            }
        }
        assert_eq!(got, PINNED, "decisions or winning-cost bits moved");
    }

    /// FNV-1a over decided `(i, q)` levels.
    fn decision_sum(syms: &[PqamSymbol]) -> u64 {
        syms.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, s| {
            [s.i, s.q]
                .iter()
                .fold(h, |h, &x| (h ^ x as u64).wrapping_mul(0x100_0000_01b3))
        })
    }

    /// `(decision checksum, winning-cost bits)` of one frame: `n_bits`
    /// payload bits rendered through the nominal model, rotated and scaled,
    /// with AWGN of `sigma`, then trained on and equalized at the config's K.
    fn pinned_frame(c: PhyConfig, n_bits: usize, sigma: f64, seed: u64) -> (u64, u64) {
        use crate::training::{OfflineTraining, OnlineTrainer};
        let nominal = LcParams::default();
        let model = TagModel::nominal(&c, &nominal);
        let m = Modulator::new(c);
        let bits: Vec<bool> = (0..n_bits)
            .map(|i| (i * 7 + seed as usize) % 5 < 2)
            .collect();
        let frame = m.modulate(&bits);
        let g = C64::cis(0.4).scale(0.9);
        let mut rx: Vec<C64> = model
            .render_levels(&frame.levels)
            .iter()
            .map(|&z| g * z)
            .collect();
        NoiseSource::new(seed).add_awgn(&mut rx, sigma);
        let off = OfflineTraining::collect(
            &c,
            &nominal,
            &OfflineTraining::default_variants(&nominal),
            3,
        );
        let trained = OnlineTrainer::new(c, &off).train(&rx);
        let known = &frame.levels[..frame.payload_start()];
        let (syms, cost) =
            Equalizer::new(c).equalize_with_cost(&rx, &trained, known, frame.payload_slots);
        (decision_sum(&syms), cost.to_bits())
    }

    /// The winning cost is pinned bit for bit, not only to 1e-9 of the
    /// reference: any reordering of the scoring sums fails here. Two frames
    /// each at the sweep's 8 and 4 kbps defaults (K = 16) and on the L = 2
    /// loopback PHY.
    #[test]
    fn winning_cost_bits_are_pinned() {
        const PINNED: [(u64, u64); 6] = [
            (0xa83405f510be0e83, 0x402437a338a4d8a5),
            (0x9f19a171088dba6e, 0x40627f87e243870c),
            (0xa47783f296ade1ea, 0x404fa3fc8fd97f5b),
            (0x0780f56dc4a298f0, 0x4094fa6568e01ab1),
            (0x25680ac8b95641bc, 0x404968b79c0a556c),
            (0xf37967970a18ec23, 0x4084eabdee6f6367),
        ];
        let frames = [
            (PhyConfig::default_8kbps(), 1024, 0.03, 1u64),
            (PhyConfig::default_8kbps(), 1024, 0.12, 2),
            (PhyConfig::default_4kbps(), 1024, 0.05, 3),
            (PhyConfig::default_4kbps(), 1024, 0.25, 4),
            (loopback_phy(), 256, 0.05, 5),
            (loopback_phy(), 256, 0.3, 6),
        ];
        let got: Vec<(u64, u64)> = frames
            .iter()
            .map(|&(c, n, sigma, seed)| pinned_frame(c, n, sigma, seed))
            .collect();
        assert_eq!(got, PINNED, "decisions or winning-cost bits moved");
    }
}
