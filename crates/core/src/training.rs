//! Channel training: combating LCM heterogeneity (§4.3.3).
//!
//! The DFE's predictions are only as good as its per-module reference
//! pulses, and real modules differ — gain spread, polarizer-attachment error,
//! uneven illumination, per-cell timing variation — and deform further under
//! yaw. The paper's two-fold trainer:
//!
//! * **Offline** (once, at high SNR): collect complete behaviour models
//!   `r(x)` — all 2^V history segments concatenated — at several
//!   "orientations" x, stack them as columns of E, and extract the top-S
//!   left singular vectors. This is the truncated Karhunen–Loève expansion:
//!   the best S-dimensional linear subspace for representing any module's
//!   behaviour.
//! * **Online** (per packet): every module fires a known pilot pattern; a
//!   single complex least-squares solve fits 2L·S coefficients — each
//!   module's behaviour as a complex mixture of the S bases (the complex
//!   part absorbs the module's amplitude and polarization axis).
//!
//! In this reproduction "orientations" are perturbations of the LC dynamics
//! constants (the observable effect of orientation/illumination diversity on
//! the recorded pulses — see DESIGN.md §1).

use crate::frame::Modulator;
use crate::params::PhyConfig;
use crate::pulse::PulseBank;
use crate::synth::{self, ModuleModel, SlotLevels, TagModel};
use retroturbo_dsp::backend;
use retroturbo_dsp::linalg::{
    add_ridge, chol_solve_c, chol_solve_c_scalar, gauss_solve_c, jacobi_svd, lstsq_c, CMat,
    GaussFactor, Mat,
};
use retroturbo_dsp::C64;
use retroturbo_lcm::LcParams;
use retroturbo_telemetry as telemetry;

/// The four stages of [`OnlineTrainer::train`], timed per call.
const TRAIN_STAGES: [&str; 4] = [
    "train.project",
    "train.solve",
    "train.materialize",
    "train.refine",
];

/// The offline-training product: S orthonormal behaviour bases.
#[derive(Debug, Clone)]
pub struct OfflineTraining {
    /// Each basis is a flattened bank (2^V · L · spt real samples).
    pub bases: Vec<Vec<f64>>,
    l: usize,
    spt: usize,
    v: usize,
}

impl OfflineTraining {
    /// Collect banks for the nominal parameters plus each perturbation,
    /// stack and SVD, keep the top `s` bases.
    ///
    /// # Panics
    /// Panics if `s` is 0 or exceeds the number of collected banks.
    pub fn collect(cfg: &PhyConfig, nominal: &LcParams, variants: &[LcParams], s: usize) -> Self {
        assert!(s >= 1 && s <= variants.len() + 1, "OfflineTraining: bad S");
        let spt = cfg.samples_per_slot();
        let mut cols: Vec<Vec<f64>> = Vec::with_capacity(variants.len() + 1);
        cols.push(PulseBank::collect(nominal, cfg.l_order, spt, cfg.fs, cfg.v_memory).flatten());
        for p in variants {
            cols.push(PulseBank::collect(p, cfg.l_order, spt, cfg.fs, cfg.v_memory).flatten());
        }
        let rows = cols[0].len();
        let mut e = Mat::zeros(rows, cols.len());
        for (j, c) in cols.iter().enumerate() {
            for (i, &x) in c.iter().enumerate() {
                e[(i, j)] = x;
            }
        }
        let svd = jacobi_svd(&e);
        let bases = (0..s).map(|j| svd.u.col(j)).collect();
        Self {
            bases,
            l: cfg.l_order,
            spt,
            v: cfg.v_memory,
        }
    }

    /// The default orientation set: independent ±8% / ±16% perturbations of
    /// the charge and relax time constants — spanning the per-module timing
    /// spread the heterogeneity model injects.
    pub fn default_variants(nominal: &LcParams) -> Vec<LcParams> {
        let mut out = Vec::new();
        for &dc in &[-0.16f64, -0.08, 0.08, 0.16] {
            let mut p = *nominal;
            p.tau_charge *= 1.0 + dc;
            out.push(p);
        }
        for &dr in &[-0.16f64, -0.08, 0.08, 0.16] {
            let mut p = *nominal;
            p.tau_relax *= 1.0 + dr;
            out.push(p);
        }
        for &(dc, dr) in &[(-0.12f64, 0.12f64), (0.12, -0.12)] {
            let mut p = *nominal;
            p.tau_charge *= 1.0 + dc;
            p.tau_relax *= 1.0 + dr;
            out.push(p);
        }
        out
    }

    /// Number of bases S.
    pub fn s(&self) -> usize {
        self.bases.len()
    }

    /// View basis `s` as a bank for history-segment lookup.
    fn basis_bank(&self, s: usize) -> PulseBank {
        PulseBank::from_flat(self.l, self.spt, self.v, &self.bases[s])
    }
}

/// Online trainer bound to a configuration and offline bases.
///
/// Everything the per-packet least-squares solve needs that does *not*
/// depend on the received samples is built once here: the real pilot design
/// matrix `A`, the Gaussian elimination of the ridge-regularized normal
/// matrix `AᴴA + λI`, and the refinement stage's (module, history-key) class
/// tables. Per packet, [`OnlineTrainer::train`] projects `Aᴴ·rx`, replays
/// the recorded elimination on it, materializes the segments and runs the
/// refinement (DESIGN.md §8, "Online training per packet").
#[derive(Debug, Clone)]
pub struct OnlineTrainer {
    cfg: PhyConfig,
    /// Basis banks materialized for fast slot lookup.
    basis_banks: Vec<PulseBank>,
    /// Run the per-(module, key) refinement stage (on by default; the
    /// ablation study switches it off).
    pub refine: bool,
    /// First training-window slot (one cold-start cycle skipped).
    start: usize,
    /// One past the last training-window slot.
    end: usize,
    /// The pilot design matrix `A` (real), sample-major: row `t` holds
    /// every column's value at window sample `t`.
    design: Vec<f64>,
    /// Gaussian elimination of AᴴA + ridge·I (`linalg::add_ridge`, as in
    /// `lstsq_c`); `None` if singular.
    normal: Option<GaussFactor>,
    /// Observed (module, history-key) classes of the refinement stage.
    classes: Vec<(usize, usize)>,
    /// `slot_class[g - start][module]` = class index active in that slot.
    slot_class: Vec<Vec<usize>>,
}

impl OnlineTrainer {
    /// Prepare the trainer, precomputing the rx-independent solve state.
    pub fn new(cfg: PhyConfig, offline: &OfflineTraining) -> Self {
        assert!(
            cfg.preamble_slots >= cfg.l_order,
            "OnlineTrainer: preamble must cover one full cycle"
        );
        let basis_banks: Vec<PulseBank> = (0..offline.s()).map(|s| offline.basis_bank(s)).collect();
        let start = cfg.l_order;
        let end = cfg.preamble_slots + cfg.training_rounds * cfg.l_order;
        let known = Self::known_levels(&cfg);
        let a = Self::build_design(&cfg, &known, &basis_banks, start, end);
        let mut aha_ridged = a.h().matmul(&a);
        add_ridge(&mut aha_ridged);
        let (classes, slot_class) = Self::enumerate_classes(&cfg, &known, start, end);
        let design = (0..a.rows())
            .flat_map(|t| (0..a.cols()).map(move |c| (t, c)))
            .map(|(t, c)| a[(t, c)].re)
            .collect();
        Self {
            cfg,
            basis_banks,
            refine: true,
            start,
            end,
            design,
            normal: GaussFactor::new(&aha_ridged),
            classes,
            slot_class,
        }
    }

    /// The known prefix of every frame: the preamble, then the training
    /// rounds, as the modulator lays them out. Every level is 0 or full
    /// scale, so all bit-planes of a module share one history key.
    fn known_levels(cfg: &PhyConfig) -> Vec<SlotLevels> {
        let mut levels = Modulator::preamble_levels(cfg);
        levels.extend(Modulator::training_levels(cfg));
        levels
    }

    /// The pilot design matrix: column (module, s) = that module's expected
    /// waveform over the window if its bank were basis s with unit gain.
    /// Depends only on the configuration and bases, never on the packet.
    fn build_design(
        cfg: &PhyConfig,
        known: &[SlotLevels],
        basis_banks: &[PulseBank],
        start: usize,
        end: usize,
    ) -> CMat {
        let l = cfg.l_order;
        let spt = cfg.samples_per_slot();
        let s_count = basis_banks.len();
        let n_rows = (end - start) * spt;
        let n_cols = 2 * l * s_count;
        let mut a = CMat::zeros(n_rows, n_cols);
        for module in 0..2 * l {
            for g in start..end {
                let tau = synth::tau(cfg, module, g).expect("window starts after slot L");
                let key = synth::history_key(cfg, module, 0, g, known);
                let row0 = (g - start) * spt;
                for (s, bank) in basis_banks.iter().enumerate() {
                    let col = module * s_count + s;
                    let seg = bank.slot(key, tau);
                    for t in 0..spt {
                        a[(row0 + t, col)] = C64::real(seg[t]);
                    }
                }
            }
        }
        a
    }

    /// Enumerate the refinement stage's observed (module, key) classes and
    /// the per-slot class map. Pilot-pattern-derived, rx-independent.
    fn enumerate_classes(
        cfg: &PhyConfig,
        known: &[SlotLevels],
        start: usize,
        end: usize,
    ) -> (Vec<(usize, usize)>, Vec<Vec<usize>>) {
        let l = cfg.l_order;
        let v = cfg.v_memory;
        let n_modules = 2 * l;
        let mut class_of = vec![vec![usize::MAX; 1 << v]; n_modules];
        let mut classes: Vec<(usize, usize)> = Vec::new();
        let mut slot_class = vec![vec![0usize; n_modules]; end - start];
        for g in start..end {
            for module in 0..n_modules {
                let key = synth::history_key(cfg, module, 0, g, known);
                if class_of[module][key] == usize::MAX {
                    class_of[module][key] = classes.len();
                    classes.push((module, key));
                }
                slot_class[g - start][module] = class_of[module][key];
            }
        }
        (classes, slot_class)
    }

    /// Fit the per-module complex basis coefficients from the corrected
    /// received frame (`rx` aligned so sample 0 = slot 0) and materialize the
    /// trained [`TagModel`].
    ///
    /// The design matrix and the elimination of its normal equations were
    /// precomputed in [`OnlineTrainer::new`]; per packet this computes
    /// `Aᴴ·rx`, replays the elimination on it, and materializes and refines
    /// the segments, each stage timed as a `train.*` timer. Bit-identical to
    /// [`OnlineTrainer::train_reference`], which rebuilds everything per
    /// call.
    ///
    /// Falls back to coefficient vectors of zero (a dead module) only if the
    /// least-squares system is singular, which the pilot design prevents.
    pub fn train(&self, rx: &[C64]) -> TagModel {
        let cfg = &self.cfg;
        let spt = cfg.samples_per_slot();
        let (start, end) = (self.start, self.end);
        assert!(
            rx.len() >= end * spt,
            "train: rx too short for the training window"
        );
        let mut laps = telemetry::Laps::start(TRAIN_STAGES);

        let ahb = self.project(&rx[start * spt..end * spt]);
        laps.lap(0);
        let coef = match &self.normal {
            Some(f) => f.solve(&ahb),
            None => {
                telemetry::counter_inc("train.singular_fallbacks");
                vec![C64::default(); ahb.len()]
            }
        };
        laps.lap(1);

        telemetry::counter_inc("train.fits");
        telemetry::counter_add("train.pilot_slots", (end - start) as u64);
        let mut segments = self.materialize_segments(&coef);
        laps.lap(2);
        if self.refine {
            telemetry::counter_add("train.refine_classes", self.classes.len() as u64);
            Self::refine_core(
                cfg,
                rx,
                start,
                end,
                &mut segments,
                &self.classes,
                &self.slot_class,
            );
        }
        laps.lap(3);
        laps.record();
        self.finish_model(segments)
    }

    /// `Aᴴ·b` over the training window, bit-identical to the complex
    /// `matvec` of the conjugated design (each entry `conj(C64::real(a))`,
    /// that is `(a, −0.0)`).
    ///
    /// For finite samples the real design multiplies `b`'s parts directly:
    /// every output's re and im sums take the same nonzero addends in the
    /// same ascending sample order, and the dropped `−0.0·x` terms are
    /// signed zeros, which never change an accumulator that is `+0.0` (the
    /// start, and every exact cancellation) or nonzero. The loop runs across
    /// outputs, so it vectorizes. A non-finite sample breaks that, since
    /// `−0.0·Inf` and `−0.0·NaN` are NaN and poison the other component, so
    /// such a window keeps the complex product, rebuilt from the real
    /// design.
    fn project(&self, b: &[C64]) -> Vec<C64> {
        let n = 2 * self.cfg.l_order * self.basis_banks.len();
        let rows = self.design.chunks_exact(n).zip(b);
        if b.iter().all(|z| z.re.is_finite() && z.im.is_finite()) {
            let (mut re, mut im) = (vec![0.0f64; n], vec![0.0f64; n]);
            for (row, x) in rows {
                for ((r, i), &a) in re.iter_mut().zip(&mut im).zip(row) {
                    *r += a * x.re;
                    *i += a * x.im;
                }
            }
            re.into_iter()
                .zip(im)
                .map(|(r, i)| C64::new(r, i))
                .collect()
        } else {
            let mut acc = vec![C64::default(); n];
            for (row, &x) in rows {
                for (s, &a) in acc.iter_mut().zip(row) {
                    *s += C64::new(a, -0.0) * x;
                }
            }
            acc
        }
    }

    /// The original per-packet formulation: rebuild the pilot design matrix,
    /// run the full `lstsq_c` (normal equations included), and re-enumerate
    /// the refinement classes on every call. Retained as the
    /// differential-testing oracle and the "before" side of the training
    /// benchmarks.
    pub fn train_reference(&self, rx: &[C64]) -> TagModel {
        let cfg = &self.cfg;
        let l = cfg.l_order;
        let spt = cfg.samples_per_slot();
        let s_count = self.basis_banks.len();
        // Fit over the preamble too (skipping the cold-start cycle): its
        // firings are just as known as the pilot rounds and roughly double
        // the observed history keys per module.
        let start = l;
        let end = cfg.preamble_slots + cfg.training_rounds * l;
        assert!(
            rx.len() >= end * spt,
            "train: rx too short for the training window"
        );
        let n_cols = 2 * l * s_count;

        let known = Self::known_levels(cfg);
        let a = Self::build_design(cfg, &known, &self.basis_banks, start, end);
        let b = &rx[start * spt..end * spt];
        let coef = lstsq_c(&a, b).unwrap_or_else(|| vec![C64::default(); n_cols]);

        let mut segments = self.materialize_segments(&coef);
        // Second stage: per-(module, history-key) complex gain refinement —
        // the fingerprint-per-class references of §4.3.3 ("use different
        // reference pulse for each LCM sub-channel … classify them according
        // to V previous bits"). Each observed (module, key) class gets a
        // multiplicative correction δ, ridge-shrunk toward 1 so that
        // weakly-observed classes stay at the basis-mixture estimate.
        if self.refine {
            let (classes, slot_class) = Self::enumerate_classes(cfg, &known, start, end);
            Self::refine_core_reference(cfg, rx, start, end, &mut segments, &classes, &slot_class);
        }
        self.finish_model(segments)
    }

    /// Materialize per-module complex banks from the fitted coefficients.
    fn materialize_segments(&self, coef: &[C64]) -> Vec<Vec<Vec<C64>>> {
        let cfg = &self.cfg;
        let l = cfg.l_order;
        let spt = cfg.samples_per_slot();
        let v = cfg.v_memory;
        let s_count = self.basis_banks.len();
        let cycle = l * spt;
        let mut segments: Vec<Vec<Vec<C64>>> = Vec::with_capacity(2 * l);
        for module in 0..2 * l {
            let mut segs: Vec<Vec<C64>> = vec![vec![C64::default(); cycle]; 1 << v];
            for (s, bank) in self.basis_banks.iter().enumerate() {
                let c = coef[module * s_count + s];
                for (key, dst) in segs.iter_mut().enumerate() {
                    let src = bank.segment(key);
                    for (d, &x) in dst.iter_mut().zip(src) {
                        *d += c * x;
                    }
                }
            }
            segments.push(segs);
        }
        segments
    }

    /// Wrap refined segments into the trained [`TagModel`].
    fn finish_model(&self, segments: Vec<Vec<Vec<C64>>>) -> TagModel {
        let cfg = &self.cfg;
        let l = cfg.l_order;
        let spt = cfg.samples_per_slot();
        let v = cfg.v_memory;
        let mut modules = Vec::with_capacity(2 * l);
        for segs in segments {
            modules.push(ModuleModel::from_segments(segs, l, spt, v));
        }
        let bits = cfg.bits_per_module();
        let total = ((1usize << bits) - 1) as f64;
        let weights = (0..bits)
            .map(|b| (1usize << (bits - 1 - b)) as f64 / total)
            .collect();
        TagModel {
            modules,
            weights,
            cfg: *cfg,
        }
    }

    /// Per-(module, key) multiplicative refinement: solve the ridge system
    /// `min ‖rx − Σ δ_{m,κ}·seg_{m,κ}‖² + λ‖δ − 1‖²` over the training
    /// window and scale the segments by the fitted δ. The class tables are
    /// rx-independent and supplied by the caller (precomputed in `new`, or
    /// re-enumerated by `train_reference`).
    ///
    /// The design matrix is extremely sparse — each window row has exactly
    /// one active class per module — so the normal equations are accumulated
    /// directly from the per-slot active classes, never materializing the
    /// `n_rows × n_classes` matrix the reference builds. Bit-identity with
    /// [`Self::refine_core_reference`] holds because (a) every accumulator
    /// receives at most one product per row, and rows are walked in the same
    /// ascending order as the dense matmul/matvec, and (b) the only terms
    /// skipped or added relative to the dense path are products with an
    /// exactly-zero factor, which can never flip an accumulator that is
    /// `+0.0` or nonzero (and exact cancellation yields `+0.0`, so no
    /// accumulator is ever `−0.0` when such a term lands).
    #[allow(clippy::too_many_arguments)]
    fn refine_core(
        cfg: &PhyConfig,
        rx: &[C64],
        start: usize,
        end: usize,
        segments: &mut [Vec<Vec<C64>>],
        classes: &[(usize, usize)],
        slot_class: &[Vec<usize>],
    ) {
        let l = cfg.l_order;
        let spt = cfg.samples_per_slot();
        let n_modules = 2 * l;
        let nc = classes.len();
        let b = &rx[start * spt..end * spt];

        let mut aha = CMat::zeros(nc, nc);
        let mut ahb = vec![C64::default(); nc];
        let mut active: Vec<(usize, &[C64])> = Vec::with_capacity(n_modules);
        // Right-hand-side chains of one `i` row: the ahb chain (destination
        // sentinel usize::MAX) followed by the active `j ≥ i` Gram cells.
        let mut chain_dst: Vec<usize> = Vec::with_capacity(n_modules + 1);
        let mut chain_seg: Vec<&[C64]> = Vec::with_capacity(n_modules + 1);
        for g in start..end {
            let row0 = (g - start) * spt;
            let sc = &slot_class[g - start];
            // Gather each module's active class and segment slice once per
            // slot; drive bits are constant within it.
            active.clear();
            active.extend((0..n_modules).map(|module| {
                let phase = module % l;
                let tau = (g - phase) % l;
                let cidx = sc[module];
                let (_, key) = classes[cidx];
                (cidx, &segments[module][key][tau * spt..(tau + 1) * spt])
            }));
            // Per-pair dot chains with the accumulator hoisted into a
            // register. Each (i, j) cell is touched by exactly one module
            // pair per slot (a class belongs to one module, one class per
            // module per slot), so regrouping the t-walk per pair keeps
            // every accumulator's addend sequence — rows ascending —
            // identical to the dense matmul. All of row i's chains share
            // the conjugated left factor `seg_i`, so they run two at a time
            // through the paired kernel, each lane seeded with its carried
            // accumulator (bit-identical on every host; see
            // [`retroturbo_dsp::backend`]).
            let bw = &b[row0..row0 + spt];
            for &(i, seg_i) in &active {
                chain_dst.clear();
                chain_seg.clear();
                chain_dst.push(usize::MAX); // ahb[i]
                chain_seg.push(bw);
                for &(j, seg_j) in &active {
                    // A^H·A is Hermitian; accumulate the upper triangle only
                    // and mirror below after the window (see proof below).
                    if j >= i {
                        chain_dst.push(j);
                        chain_seg.push(seg_j);
                    }
                }
                let get = |aha: &CMat, ahb: &[C64], c: usize| {
                    if chain_dst[c] == usize::MAX {
                        ahb[i]
                    } else {
                        aha[(i, chain_dst[c])]
                    }
                };
                let set = |aha: &mut CMat, ahb: &mut [C64], c: usize, v: C64| {
                    if chain_dst[c] == usize::MAX {
                        ahb[i] = v;
                    } else {
                        aha[(i, chain_dst[c])] = v;
                    }
                };
                let mut c = 0;
                while c + 2 <= chain_seg.len() {
                    let (r0, r1) = backend::dotc2(
                        seg_i,
                        chain_seg[c],
                        chain_seg[c + 1],
                        get(&aha, &ahb, c),
                        get(&aha, &ahb, c + 1),
                    );
                    set(&mut aha, &mut ahb, c, r0);
                    set(&mut aha, &mut ahb, c + 1, r1);
                    c += 2;
                }
                if c < chain_seg.len() {
                    let mut acc = get(&aha, &ahb, c);
                    for (&si, &sj) in seg_i.iter().zip(chain_seg[c]) {
                        acc += si.conj() * sj;
                    }
                    set(&mut aha, &mut ahb, c, acc);
                }
            }
        }
        // Mirror: every (j, i) addend is the elementwise conjugate of the
        // (i, j) addend (real parts share the same products and add order;
        // imaginary parts are `p ⊖ q` vs `q ⊖ p`, exact negatives under
        // round-to-nearest except both round to `+0.0` on exact ties), and
        // negation distributes bit-exactly over the running sum away from
        // zero crossings, which themselves resolve to `+0.0` on both sides.
        // So the direct lower-triangle accumulation equals `conj(upper)` in
        // every bit — except that a final imaginary part of exactly `+0.0`
        // (never `−0.0`: the accumulator starts at `+0.0` and cancellation
        // rounds to `+0.0`) must stay `+0.0` rather than flip to `−0.0`.
        for i in 1..nc {
            for j in 0..i {
                let c = aha[(j, i)];
                let im = if c.im == 0.0 { 0.0 } else { -c.im };
                aha[(i, j)] = C64::new(c.re, im);
            }
        }

        Self::solve_and_apply(chol_solve_c, aha, ahb, segments, classes);
    }

    /// The original dense formulation of the refinement stage: materialize
    /// the full window × classes design matrix and run the dense normal
    /// equations. Retained as the differential-testing oracle for the sparse
    /// [`Self::refine_core`] (exercised through
    /// [`OnlineTrainer::train_reference`]).
    fn refine_core_reference(
        cfg: &PhyConfig,
        rx: &[C64],
        start: usize,
        end: usize,
        segments: &mut [Vec<Vec<C64>>],
        classes: &[(usize, usize)],
        slot_class: &[Vec<usize>],
    ) {
        let l = cfg.l_order;
        let spt = cfg.samples_per_slot();
        let n_modules = 2 * l;

        // Design matrix: column per class, rows over the window; entry =
        // that class's current segment slice wherever it is active.
        let n_rows = (end - start) * spt;
        let mut a = CMat::zeros(n_rows, classes.len());
        for g in start..end {
            let row0 = (g - start) * spt;
            for module in 0..n_modules {
                let phase = module % l;
                let tau = (g - phase) % l;
                let cidx = slot_class[g - start][module];
                let (_, key) = classes[cidx];
                let seg = &segments[module][key];
                for t in 0..spt {
                    a[(row0 + t, cidx)] += seg[tau * spt + t];
                }
            }
        }

        let ah = a.h();
        let aha = ah.matmul(&a);
        let b = &rx[start * spt..end * spt];
        let ahb = ah.matvec(b);
        // The oracle path runs no vector kernel, the solve included.
        Self::solve_and_apply(chol_solve_c_scalar, aha, ahb, segments, classes);
    }

    /// Shared tail of both refinement paths: ridge toward δ = 1 — solve
    /// `(AᴴA + λI)δ = Aᴴrx + λ·1` with `chol` — and scale the segments by
    /// the fitted δ.
    fn solve_and_apply(
        chol: fn(&CMat, &[C64]) -> Option<Vec<C64>>,
        mut aha: CMat,
        mut ahb: Vec<C64>,
        segments: &mut [Vec<Vec<C64>>],
        classes: &[(usize, usize)],
    ) {
        let diag_mean: f64 =
            (0..aha.rows()).map(|i| aha[(i, i)].re).sum::<f64>() / aha.rows() as f64;
        let lambda = 0.3 * diag_mean.max(1e-12);
        for i in 0..aha.rows() {
            aha[(i, i)] += C64::real(lambda);
            ahb[i] += C64::real(lambda);
        }
        // AᴴA + 0.3·diag-mean·I is Hermitian positive-definite by
        // construction, so the Cholesky solve (half the arithmetic of
        // Gaussian elimination) applies; fall back to the pivoted solver on
        // numerical non-definiteness rather than discarding the refinement.
        let Some(delta) = chol(&aha, &ahb).or_else(|| gauss_solve_c(&aha, &ahb)) else {
            return; // singular: keep the mixture estimate
        };

        for (cidx, &(module, key)) in classes.iter().enumerate() {
            let d = delta[cidx];
            // Guard against wild corrections on barely-observed classes.
            if (d - C64::real(1.0)).abs() > 0.5 {
                continue;
            }
            for z in &mut segments[module][key] {
                *z *= d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retroturbo_dsp::Signal;
    use retroturbo_lcm::{Heterogeneity, LcParams, Panel};

    fn cfg() -> PhyConfig {
        PhyConfig {
            l_order: 4,
            pqam_order: 16,
            t_slot: 0.5e-3,
            fs: 40_000.0,
            v_memory: 3,
            k_branches: 8,
            preamble_slots: 12,
            training_rounds: 6,
        }
    }

    fn render_heterogeneous_frame(levels: &[crate::synth::SlotLevels], seed: u64) -> Vec<C64> {
        let c = cfg();
        let mut panel = Panel::retroturbo(
            c.l_order,
            c.bits_per_module(),
            LcParams::default(),
            Heterogeneity::typical(),
            seed,
        );
        let plan = crate::frame::FramePlan {
            levels: levels.to_vec(),
            payload_symbols: vec![],
            preamble_slots: c.preamble_slots,
            training_slots: c.training_rounds * c.l_order,
            payload_slots: 0,
            tail_slots: 0,
        };
        let cmds = plan.drive_commands(&c);
        let sig: Signal = panel.simulate(&cmds, levels.len() * c.samples_per_slot(), c.fs);
        sig.into_samples()
    }

    /// Each design column is, by definition, a unit-gain render of one
    /// module on one basis over the training window, every other module
    /// silent. Rendering one bit-plane at a time (one-hot sub-pixel
    /// weights) checks that every plane's history key is the design's key.
    #[test]
    fn design_columns_are_single_module_renders() {
        let c = cfg();
        let nominal = LcParams::default();
        let off = OfflineTraining::collect(
            &c,
            &nominal,
            &OfflineTraining::default_variants(&nominal),
            3,
        );
        let trainer = OnlineTrainer::new(c, &off);
        let levels = OnlineTrainer::known_levels(&c);
        let spt = c.samples_per_slot();
        let (start, end) = (trainer.start, trainer.end);
        let n_cols = 2 * c.l_order * off.s();
        assert_eq!(trainer.design.len(), (end - start) * spt * n_cols);
        let silent = ModuleModel::from_bank(&off.basis_bank(0), C64::default());
        for module in 0..2 * c.l_order {
            for s in 0..off.s() {
                let col = module * off.s() + s;
                for b in 0..c.bits_per_module() {
                    let mut modules = vec![silent.clone(); 2 * c.l_order];
                    modules[module] = ModuleModel::from_bank(&off.basis_bank(s), C64::real(1.0));
                    let mut weights = vec![0.0; c.bits_per_module()];
                    weights[b] = 1.0;
                    let wave = TagModel {
                        modules,
                        weights,
                        cfg: c,
                    }
                    .render_levels(&levels);
                    for (t, row) in trainer.design.chunks_exact(n_cols).enumerate() {
                        let z = wave[start * spt + t];
                        assert!(
                            row[col] == z.re && z.im == 0.0,
                            "module {module} basis {s} plane {b} sample {t}: {} vs {z:?}",
                            row[col]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn offline_bases_orthonormal() {
        let c = cfg();
        let nominal = LcParams::default();
        let off = OfflineTraining::collect(
            &c,
            &nominal,
            &OfflineTraining::default_variants(&nominal),
            3,
        );
        for i in 0..3 {
            for j in 0..3 {
                let dot: f64 = off.bases[i]
                    .iter()
                    .zip(&off.bases[j])
                    .map(|(a, b)| a * b)
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-8, "⟨{i},{j}⟩ = {dot}");
            }
        }
    }

    #[test]
    fn first_basis_captures_nominal_shape() {
        // The leading KL basis must represent the nominal bank almost
        // perfectly (variants are small perturbations).
        let c = cfg();
        let nominal = LcParams::default();
        let off = OfflineTraining::collect(
            &c,
            &nominal,
            &OfflineTraining::default_variants(&nominal),
            1,
        );
        let flat = PulseBank::collect(&nominal, c.l_order, c.samples_per_slot(), c.fs, c.v_memory)
            .flatten();
        let proj: f64 = off.bases[0].iter().zip(&flat).map(|(a, b)| a * b).sum();
        let norm: f64 = flat.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(
            proj.abs() / norm > 0.995,
            "nominal bank poorly captured: {}",
            proj.abs() / norm
        );
    }

    #[test]
    fn online_training_recovers_module_gains() {
        // Render preamble+training through a heterogeneous panel and check
        // the trained model predicts a later waveform better than nominal.
        let c = cfg();
        let nominal = LcParams::default();
        let off = OfflineTraining::collect(
            &c,
            &nominal,
            &OfflineTraining::default_variants(&nominal),
            3,
        );
        let trainer = OnlineTrainer::new(c, &off);

        let mut levels = OnlineTrainer::known_levels(&c);
        // Follow with a probe section the trainer does not see.
        let probe: Vec<crate::synth::SlotLevels> = vec![
            (3, 0),
            (0, 3),
            (2, 1),
            (3, 3),
            (1, 2),
            (0, 0),
            (3, 1),
            (2, 2),
        ];
        levels.extend_from_slice(&probe);

        let rx = render_heterogeneous_frame(&levels, 77);
        let trained = trainer.train(&rx);
        let nominal_model = TagModel::nominal(&c, &nominal);

        let spt = c.samples_per_slot();
        let probe_start = (c.preamble_slots + c.training_rounds * c.l_order) * spt;
        let pred_t = trained.render_levels(&levels);
        let pred_n = nominal_model.render_levels(&levels);
        let err = |pred: &[C64]| -> f64 {
            rx[probe_start..]
                .iter()
                .zip(&pred[probe_start..rx.len()])
                .map(|(a, b)| (*a - *b).norm_sqr())
                .sum()
        };
        let e_t = err(&pred_t);
        let e_n = err(&pred_n);
        assert!(
            e_t < e_n / 3.0,
            "training should cut prediction error at least 3x: trained {e_t:.4} vs nominal {e_n:.4}"
        );
    }

    #[test]
    fn precomputed_train_matches_reference() {
        // The precomputed-normal-equations path must be bit-identical to the
        // original per-call formulation on a real heterogeneous-panel frame.
        let c = cfg();
        let nominal = LcParams::default();
        let off = OfflineTraining::collect(
            &c,
            &nominal,
            &OfflineTraining::default_variants(&nominal),
            3,
        );
        let trainer = OnlineTrainer::new(c, &off);

        let mut levels = OnlineTrainer::known_levels(&c);
        levels.extend_from_slice(&[(3, 0), (0, 3), (2, 1), (3, 3), (1, 2), (0, 0)]);

        for seed in [77u64, 5, 901] {
            let rx = render_heterogeneous_frame(&levels, seed);
            let fast = trainer.train(&rx).render_levels(&levels);
            let slow = trainer.train_reference(&rx).render_levels(&levels);
            assert_eq!(fast.len(), slow.len());
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "seed {seed}: sample {i} diverged: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn training_handles_rotated_channel() {
        // A 30° roll rotates the constellation; the complex coefficients
        // must absorb it (per-module gains become complex).
        let c = cfg();
        let nominal = LcParams::default();
        let off = OfflineTraining::collect(&c, &nominal, &[], 1);
        let trainer = OnlineTrainer::new(c, &off);

        let levels = OnlineTrainer::known_levels(&c);
        let model = TagModel::nominal(&c, &nominal);
        let rot = C64::cis(2.0 * 30f64.to_radians());
        let rx: Vec<C64> = model
            .render_levels(&levels)
            .iter()
            .map(|&z| rot * z)
            .collect();

        let trained = trainer.train(&rx);
        let pred = trained.render_levels(&levels);
        let err: f64 = rx
            .iter()
            .zip(&pred)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            / rx.len() as f64;
        assert!(err < 1e-4, "rotated channel not absorbed: {err}");
    }

    /// Every trained segment of `m`, flattened (modules, keys, samples).
    fn segment_bits(m: &TagModel) -> Vec<u64> {
        let c = m.cfg;
        let bits = |x: f64| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        };
        let mut out = Vec::new();
        for module in &m.modules {
            for key in 0..1 << c.v_memory {
                for tau in 0..c.l_order {
                    out.extend(
                        module
                            .slot(key, tau)
                            .iter()
                            .flat_map(|z| [bits(z.re), bits(z.im)]),
                    );
                }
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// `train` ≡ `train_reference` bit for bit (NaNs aside, whose bits
        /// Rust leaves unspecified) across DSM depth, the refinement switch,
        /// channel gain and rotation, noise, and NaN/±Inf bursts inside the
        /// training window, which take the projection's complex fallback.
        #[test]
        fn train_matches_reference_bit_for_bit(
            deep in proptest::prelude::any::<bool>(),
            refine in proptest::prelude::any::<bool>(),
            gain in 0.2f64..3.0,
            rot in -3.2f64..3.2,
            sigma in 0.0f64..0.2,
            burst in 0usize..4,
            at in 0usize..1_000_000,
            seed in 0u64..1_000,
        ) {
            let c = if deep {
                PhyConfig::default_8kbps()
            } else {
                PhyConfig {
                    l_order: 2,
                    pqam_order: 4,
                    v_memory: 3,
                    k_branches: 8,
                    preamble_slots: 12,
                    training_rounds: 2,
                    ..cfg()
                }
            };
            let nominal = LcParams::default();
            let off = OfflineTraining::collect(
                &c,
                &nominal,
                &OfflineTraining::default_variants(&nominal),
                3,
            );
            let mut trainer = OnlineTrainer::new(c, &off);
            trainer.refine = refine;
            let mut levels = OnlineTrainer::known_levels(&c);
            let g = C64::cis(rot).scale(gain);
            let mut rx: Vec<C64> = TagModel::nominal(&c, &nominal)
                .render_levels(&levels)
                .iter()
                .map(|&z| g * z)
                .collect();
            retroturbo_dsp::noise::NoiseSource::new(seed).add_awgn(&mut rx, sigma);
            if burst > 0 {
                let spt = c.samples_per_slot();
                let (lo, hi) = (trainer.start * spt, trainer.end * spt);
                let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][burst - 1];
                let first = lo + at % (hi - lo - 6);
                for (i, z) in rx[first..first + 6].iter_mut().enumerate() {
                    if i % 2 == 0 { z.re = bad } else { z.im = bad }
                }
            }
            let fast = segment_bits(&trainer.train(&rx));
            let slow = segment_bits(&trainer.train_reference(&rx));
            proptest::prop_assert!(fast == slow, "train diverged from train_reference");
        }
    }
}
