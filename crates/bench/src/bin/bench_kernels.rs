//! Machine-readable kernel benchmark: times the optimized hot kernels (DFE
//! branch extension, fingerprint emulation error, the online-training
//! solve, the SoA panel ODE, the certified preamble scan, the packet
//! pipeline) against their retained reference implementations, and each
//! vector kernel's scalar body against its dispatched entry, and writes
//! `BENCH_kernels.json` — a `meta` provenance block (SIMD detection, CPU
//! features) plus one record per measurement with `{kernel, ns_per_iter,
//! ns_per_symbol, ns_per_point, threads, speedup}` — to seed the perf
//! trajectory. Every row runs the kernels the host dispatches to; the
//! `*_scalar` / `*_dispatch` pairs isolate what the vector bodies buy.
//! `ns_per_symbol` normalizes frame-scaling kernels (DFE, packet pipeline)
//! by their payload symbol count, so trajectories stay comparable if a PR
//! changes the benchmark workload size; it is `null` where it does not
//! apply. The full schema contract is documented in
//! `crates/bench/README.md`.
//!
//! Speedup is reference-ns / optimized-ns (scalar-ns / dispatch-ns) for
//! kernel pairs. Whole-sweep timing and thread scaling are perfbench's
//! `sweep` workload.
//!
//! Before timing, each reference/optimized pair is run once and its outputs
//! are checksummed; any divergence is reported and the process exits
//! nonzero, so CI can use this binary as a cheap bit-identity smoke test.
//! Repetitions follow the shared profile: reduced by default (the CI smoke),
//! full under `RETRO_FULL=1`, which is how the committed
//! `BENCH_kernels.json` is regenerated. `BENCH_KERNELS_OUT` overrides the
//! output path.

use std::time::Instant;

use retroturbo_bench::{banner, emit_bench_json};
use retroturbo_coding::RsCode;
use retroturbo_core::training::{OfflineTraining, OnlineTrainer};
use retroturbo_core::{Equalizer, Modulator, PhyConfig, PreambleDetector, PreambleMatch, TagModel};
use retroturbo_dsp::backend;
use retroturbo_dsp::noise::{sigma_for_snr, NoiseSource};
use retroturbo_dsp::{Signal, C64};
use retroturbo_lcm::fingerprint::{relative_error, relative_error_with_energy};
use retroturbo_lcm::{FingerprintSet, Heterogeneity, LcParams, LcPixel, Panel, PanelKernel};
use retroturbo_sim::experiments::Effort;
use retroturbo_sim::{ImpairmentConfig, LinkBudget, LinkSimulator, Scene};

/// Minimum wall time per call, in nanoseconds, over `reps` timed batches of
/// `iters` calls each. The minimum is the noise floor: scheduler preemption
/// and frequency scaling only ever add time, so the fastest batch is the
/// best estimate of the kernel's true cost on a shared core.
fn time_ns<F: FnMut()>(iters: usize, reps: usize, mut f: F) -> f64 {
    // Warm-up.
    f();
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Time two variants of the same kernel with interleaved batches (A, B, A,
/// B, …) so slow drift in machine load hits both sides equally. Returns
/// `(ns_a, ns_b)` minima.
fn time_pair_ns<A: FnMut(), B: FnMut()>(
    iters: usize,
    reps: usize,
    mut a: A,
    mut b: B,
) -> (f64, f64) {
    a();
    b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            a();
        }
        best_a = best_a.min(t0.elapsed().as_nanos() as f64 / iters as f64);
        let t1 = Instant::now();
        for _ in 0..iters {
            b();
        }
        best_b = best_b.min(t1.elapsed().as_nanos() as f64 / iters as f64);
    }
    (best_a, best_b)
}

/// One `BENCH_kernels.json` row; see `crates/bench/README.md` for the
/// schema contract.
struct Record {
    kernel: String,
    ns_per_iter: f64,
    /// Per-payload-symbol normalization (`ns_per_iter / symbols`) for
    /// kernels whose work scales with a frame's payload; `None` (emitted as
    /// JSON `null`) for fixed-size kernels.
    ns_per_symbol: Option<f64>,
    speedup: f64,
}

/// FNV-1a over a word stream — the cross-variant checksum CI compares to
/// catch reference/optimized divergence.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b).wrapping_mul(0x0100_0000_01b3)
    })
}

/// [`fnv`] over the bit patterns of a complex slice.
fn checksum_c64(xs: &[C64]) -> u64 {
    fnv(xs.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]))
}

/// [`fnv`] over the bit patterns of a real slice.
fn checksum_f64(xs: &[f64]) -> u64 {
    fnv(xs.iter().map(|x| x.to_bits()))
}

/// [`fnv`] over decided PQAM symbols — the DFE pairs must agree on every
/// decision (costs may differ in the last bits; decisions may not).
fn checksum_symbols(xs: &[retroturbo_core::PqamSymbol]) -> u64 {
    fnv(xs.iter().flat_map(|s| [s.i as u64, s.q as u64]))
}

/// Gate and time one vector kernel: its `backend::scalar` body against the
/// dispatched `backend` entry. `run(dispatched, state)` calls one of the
/// two on `state`; each side starts from its own clone of `init`, and after
/// one call `sum` must checksum both states equally (the divergence gate).
/// Emits `{name}_scalar` (speedup 1) and `{name}_dispatch` (scalar ns /
/// dispatch ns, interleaved batches of `iters` calls).
#[allow(clippy::too_many_arguments)]
fn tier_pair<S: Clone>(
    records: &mut Vec<Record>,
    diverged: &mut Vec<String>,
    name: &str,
    iters: usize,
    reps: usize,
    init: S,
    run: impl Fn(bool, &mut S),
    sum: impl Fn(&S) -> u64,
) {
    let (mut a, mut b) = (init.clone(), init);
    run(false, &mut a);
    run(true, &mut b);
    if sum(&a) != sum(&b) {
        diverged.push(format!("{name}_dispatch"));
    }
    let (ns_s, ns_d) = time_pair_ns(
        iters,
        reps,
        || {
            run(false, &mut a);
            std::hint::black_box(&a);
        },
        || {
            run(true, &mut b);
            std::hint::black_box(&b);
        },
    );
    for (suffix, ns) in [("scalar", ns_s), ("dispatch", ns_d)] {
        records.push(Record {
            kernel: format!("{name}_{suffix}"),
            ns_per_iter: ns,
            ns_per_symbol: None,
            speedup: ns_s / ns,
        });
    }
}

fn main() {
    banner(
        "bench-kernels",
        "hot-kernel before/after timings -> BENCH_kernels.json",
    );
    if !backend::simd_available() {
        eprintln!("# no SIMD support on this host: every row runs the scalar bodies");
    }
    // Quick profile (the CI smoke): fewer repetitions, same pairs and
    // checksums.
    let quick = Effort::from_env() == Effort::Quick;
    let reps = if quick { 3 } else { 9 };
    let mut records: Vec<Record> = Vec::new();
    let mut diverged: Vec<String> = Vec::new();

    // --- DFE: Gram-factorized scoring vs per-sample Rc-clone reference ----
    let cfg = {
        let mut c = PhyConfig::default_8kbps();
        c.preamble_slots = 24;
        c.training_rounds = 8;
        c
    };
    let params = LcParams::default();
    let model = TagModel::nominal(&cfg, &params);
    let m = Modulator::new(cfg);
    let bits: Vec<bool> = (0..512).map(|i| (i * 11) % 3 == 0).collect();
    let frame = m.modulate(&bits);
    let mut wave = model.render_levels(&frame.levels);
    NoiseSource::new(2).add_awgn(&mut wave, 0.01);
    let known = frame.levels[..frame.payload_start()].to_vec();
    // The sweep's other curve: 4 kbps (4-PQAM) beams one bit-plane per
    // module, so its DFE profile differs from 8 kbps.
    let cfg_4k = PhyConfig {
        pqam_order: 4,
        ..cfg
    };
    let model_4k = TagModel::nominal(&cfg_4k, &params);
    let frame_4k = Modulator::new(cfg_4k).modulate(&bits);
    let mut wave_4k = model_4k.render_levels(&frame_4k.levels);
    NoiseSource::new(2).add_awgn(&mut wave_4k, 0.01);
    let known_4k = frame_4k.levels[..frame_4k.payload_start()].to_vec();
    // The replay workload's shape: the streaming service's L = 2, 4-PQAM
    // loopback PHY at K = 8, one RS(44, 22) codeword (352 bits, 176
    // payload slots) at 35 dB, equalized under the model trained on the
    // frame itself, as the service's workers decode it.
    let cfg_lb = PhyConfig {
        l_order: 2,
        pqam_order: 4,
        t_slot: 0.5e-3,
        fs: 40_000.0,
        v_memory: 3,
        k_branches: 8,
        preamble_slots: 12,
        training_rounds: 2,
    };
    // Scrambled-looking payload bits (a Weyl sequence's top bit), as an
    // RS codeword under the service's scrambler is.
    let bits_lb: Vec<bool> = (1..=352u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 1)
        .collect();
    let frame_lb = Modulator::new(cfg_lb).modulate(&bits_lb);
    let mut wave_lb = TagModel::nominal(&cfg_lb, &params).render_levels(&frame_lb.levels);
    NoiseSource::new(3).add_awgn(&mut wave_lb, sigma_for_snr(35.0, 1.0));
    let offline_lb = OfflineTraining::collect(
        &cfg_lb,
        &params,
        &OfflineTraining::default_variants(&params),
        1,
    );
    let model_lb = OnlineTrainer::new(cfg_lb, &offline_lb).train(&wave_lb);
    let known_lb = frame_lb.levels[..frame_lb.payload_start()].to_vec();

    for (c, (mdl, wv, kn, n_pay), k, kernel_ref, kernel_opt, check) in [
        (
            cfg,
            (&model, &wave, &known, frame.payload_slots),
            16usize,
            "dfe_equalize_k16_reference",
            "dfe_equalize_k16_gram",
            "dfe_decisions_k16",
        ),
        (
            cfg,
            (&model, &wave, &known, frame.payload_slots),
            4,
            "dfe_equalize_k4_reference",
            "dfe_equalize_k4_gram",
            "dfe_decisions_k4",
        ),
        (
            cfg_4k,
            (&model_4k, &wave_4k, &known_4k, frame_4k.payload_slots),
            16,
            "dfe_equalize_4kbps_k16_reference",
            "dfe_equalize_4kbps_k16_gram",
            "dfe_decisions_4kbps_k16",
        ),
        (
            cfg_lb,
            (&model_lb, &wave_lb, &known_lb, frame_lb.payload_slots),
            8,
            "dfe_equalize_loopback_k8_reference",
            "dfe_equalize_loopback_k8_gram",
            "dfe_decisions_loopback_k8",
        ),
    ] {
        let eq = Equalizer::new(c).with_branches(k);
        let payload_syms = n_pay as f64;
        // Decision-identity gate: the factorized path must decide every
        // payload symbol exactly as the oracle does.
        let fast = eq.equalize(wv, mdl, kn, n_pay);
        let slow = eq.equalize_reference(wv, mdl, kn, n_pay);
        if checksum_symbols(&fast) != checksum_symbols(&slow) {
            diverged.push(check.into());
        }
        let (dfe_ref, dfe_new) = time_pair_ns(
            3,
            reps,
            || {
                std::hint::black_box(eq.equalize_reference(wv, mdl, kn, n_pay));
            },
            || {
                std::hint::black_box(eq.equalize(wv, mdl, kn, n_pay));
            },
        );
        records.push(Record {
            kernel: kernel_ref.into(),
            ns_per_iter: dfe_ref,
            ns_per_symbol: Some(dfe_ref / payload_syms),
            speedup: 1.0,
        });
        records.push(Record {
            kernel: kernel_opt.into(),
            ns_per_iter: dfe_new,
            ns_per_symbol: Some(dfe_new / payload_syms),
            speedup: dfe_ref / dfe_new,
        });
    }

    // --- Fingerprint emulation error: precomputed vs per-call energy -----
    let set = FingerprintSet::collect(&params, 8, 0.5e-3, 40_000.0);
    let drive: Vec<bool> = (0..2000).map(|i| (i * 7) % 3 == 0).collect();
    let reference_wave = set.emulate_pixel(&drive);
    let ref_energy: f64 = reference_wave.iter().map(|y| y * y).sum();
    let probe = set.emulate_pixel(&drive);
    let (fp_ref, fp_new) = time_pair_ns(
        200,
        reps,
        || {
            std::hint::black_box(relative_error(&probe, &reference_wave));
        },
        || {
            std::hint::black_box(relative_error_with_energy(
                &probe,
                &reference_wave,
                ref_energy,
            ));
        },
    );
    records.push(Record {
        kernel: "fingerprint_relative_error_reference".into(),
        ns_per_iter: fp_ref,
        ns_per_symbol: None,
        speedup: 1.0,
    });
    records.push(Record {
        kernel: "fingerprint_relative_error_precomputed".into(),
        ns_per_iter: fp_new,
        ns_per_symbol: None,
        speedup: fp_ref / fp_new,
    });

    // --- Online training: precomputed normal equations vs full lstsq -----
    let offline = OfflineTraining::collect(
        &cfg,
        &params,
        &OfflineTraining::default_variants(&params),
        3,
    );
    let trainer = OnlineTrainer::new(cfg, &offline);
    let mut levels = Modulator::preamble_levels(&cfg);
    levels.extend(Modulator::training_levels(&cfg));
    let rx = model.render_levels(&levels);
    let (tr_ref, tr_new) = time_pair_ns(
        3,
        reps,
        || {
            std::hint::black_box(trainer.train_reference(&rx));
        },
        || {
            std::hint::black_box(trainer.train(&rx));
        },
    );
    records.push(Record {
        kernel: "online_training_reference".into(),
        ns_per_iter: tr_ref,
        ns_per_symbol: None,
        speedup: 1.0,
    });
    records.push(Record {
        kernel: "online_training_precomputed".into(),
        ns_per_iter: tr_new,
        ns_per_symbol: None,
        speedup: tr_ref / tr_new,
    });

    // --- Panel ODE: SoA kernel vs scalar reference loop -------------------
    // The pipeline's usage pattern on each side: the reference path clones
    // the pristine panel per packet; the SoA path restores a snapshot and
    // renders into a caller-provided buffer.
    let pristine = Panel::retroturbo(
        cfg.l_order,
        cfg.bits_per_module(),
        params,
        Heterogeneity::typical(),
        5,
    );
    let cmds = frame.drive_commands(&cfg);
    let n_wave = frame.total_slots() * cfg.samples_per_slot();
    let mut kernel = PanelKernel::from_panel(&pristine);
    let mut soa_out = vec![C64::default(); n_wave];

    let ref_wave = pristine
        .clone()
        .simulate_reference(&cmds, n_wave, cfg.fs)
        .into_samples();
    kernel.restore();
    kernel.simulate_into(&cmds, cfg.fs, &mut soa_out);
    if checksum_c64(&ref_wave) != checksum_c64(&soa_out) {
        diverged.push("panel_simulate".into());
    }

    let (panel_ref, panel_soa) = time_pair_ns(
        if quick { 1 } else { 3 },
        reps,
        || {
            let mut p = pristine.clone();
            std::hint::black_box(p.simulate_reference(&cmds, n_wave, cfg.fs));
        },
        || {
            kernel.restore();
            kernel.simulate_into(&cmds, cfg.fs, &mut soa_out);
            std::hint::black_box(&soa_out);
        },
    );
    records.push(Record {
        kernel: "panel_simulate_reference".into(),
        ns_per_iter: panel_ref,
        ns_per_symbol: None,
        speedup: 1.0,
    });
    records.push(Record {
        kernel: "panel_simulate_soa".into(),
        ns_per_iter: panel_soa,
        ns_per_symbol: None,
        speedup: panel_ref / panel_soa,
    });

    // --- Preamble search: certified moment scan vs per-offset lstsq -------
    // Two shapes: the sweep's short window at the frame start, and the
    // streaming framer's 512-offset block over noise with one preamble in
    // it. Each is gated bit for bit against the per-offset oracle.
    let detector = PreambleDetector::new(&cfg, &model);
    let spt = cfg.samples_per_slot();
    let rx_sig = Signal::new(wave.clone(), cfg.fs);
    let block = {
        let rest = wave[0];
        let mut s = vec![rest; 300];
        s.extend_from_slice(&wave[..512 + detector.span()]);
        NoiseSource::new(5).add_awgn(&mut s, 0.02);
        Signal::new(s, cfg.fs)
    };
    let same_match = |a: Option<PreambleMatch>, b: Option<PreambleMatch>| match (a, b) {
        (Some(x), Some(y)) => x.offset == y.offset && x.score.to_bits() == y.score.to_bits(),
        (None, None) => true,
        _ => false,
    };
    for (sig, to, kernel_ref, kernel_opt) in [
        (
            &rx_sig,
            2 * spt,
            "preamble_search_reference",
            "preamble_search_certified",
        ),
        (
            &block,
            512,
            "preamble_search_block_reference",
            "preamble_search_block",
        ),
    ] {
        if !same_match(
            detector.detect_in_reference(sig, 0, to),
            detector.detect_in(sig, 0, to),
        ) {
            diverged.push(kernel_opt.into());
        }
        let (ns_ref, ns_opt) = time_pair_ns(
            if quick { 1 } else { 3 },
            reps,
            || {
                std::hint::black_box(detector.detect_in_reference(sig, 0, to));
            },
            || {
                std::hint::black_box(detector.detect_in(sig, 0, to));
            },
        );
        records.push(Record {
            kernel: kernel_ref.into(),
            ns_per_iter: ns_ref,
            ns_per_symbol: None,
            speedup: 1.0,
        });
        records.push(Record {
            kernel: kernel_opt.into(),
            ns_per_iter: ns_opt,
            ns_per_symbol: None,
            speedup: ns_ref / ns_opt,
        });
    }

    // --- Vector kernels: scalar body vs dispatched entry -------------------
    // One pair per kernel in `retroturbo_dsp::backend`: its `scalar::` body
    // against the public entry, which runs the host's vector body when
    // `simd_available()` (recorded in `meta`) and the scalar body otherwise.
    // Inputs are sized like the production call sites: one DFE/training slot
    // for the slot kernels, a mid-factorization column of a refinement-sized
    // Cholesky and every pixel of the panel for the ODE step.
    {
        /// `kernel!(d, name(args))`: the dispatched `backend::name` when
        /// `d`, else the `backend::scalar::name` body (both direct calls).
        macro_rules! kernel {
            ($d:expr, $k:ident($($arg:expr),*)) => {
                if $d {
                    backend::$k($($arg),*)
                } else {
                    backend::scalar::$k($($arg),*)
                }
            };
        }
        let mut r = NoiseSource::new(13);
        let mut cvec = |n: usize| -> Vec<C64> {
            let mut v = vec![C64::default(); n];
            r.add_awgn(&mut v, 1.0);
            v
        };
        let (slot, slot_a, slot_b) = (cvec(spt), cvec(spt), cvec(spt));
        let (i0, i1) = (C64::new(0.5, -1.0), C64::new(-0.25, 2.0));
        let (chol_n, chol_j) = (64usize, 32usize);
        let below = cvec((chol_n - chol_j - 1) * chol_n);
        let prefix = cvec(chol_j);
        let (s_iters, f_iters) = if quick { (500, 50) } else { (2000, 200) };
        let (rec, div) = (&mut records, &mut diverged);

        // One key group's shared prediction at 8 kbps: 14 modules × 2
        // bit-planes of slot segments, the binary sub-pixel weights.
        let segs: Vec<Vec<C64>> = (0..28).map(|_| cvec(spt)).collect();
        let ops: Vec<(&[C64], f64)> = segs
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_slice(), [2.0 / 3.0, 1.0 / 3.0][i % 2]))
            .collect();
        tier_pair(
            rec,
            div,
            "axpy_wr_many",
            s_iters,
            reps,
            slot_a.clone(),
            |d, o: &mut Vec<C64>| kernel!(d, axpy_wr_many(o, &ops)),
            |o| checksum_c64(o),
        );
        // One 8 kbps branch's residual and its four active-basis cross
        // dots.
        let basis: Vec<Vec<C64>> = (0..4).map(|_| cvec(spt)).collect();
        let deltas: Vec<&[C64]> = basis.iter().map(|d| d.as_slice()).collect();
        tier_pair(
            rec,
            div,
            "residual_cross",
            s_iters,
            reps,
            (vec![C64::default(); 4], 0.0),
            |d, (c, e): &mut (Vec<C64>, f64)| {
                *e = kernel!(d, residual_cross(&slot, &slot_a, &deltas, c))
            },
            |(c, e)| checksum_c64(c) ^ e.to_bits(),
        );
        tier_pair(
            rec,
            div,
            "dotc2",
            s_iters,
            reps,
            (C64::default(), C64::default()),
            |d, o: &mut (C64, C64)| *o = kernel!(d, dotc2(&slot, &slot_a, &slot_b, i0, i1)),
            |o| checksum_c64(&[o.0, o.1]),
        );
        // `inv_ljj = 1` keeps the repeated in-place update from growing.
        tier_pair(
            rec,
            div,
            "chol_col_update",
            f_iters,
            reps,
            below,
            |d, o: &mut Vec<C64>| kernel!(d, chol_col_update(o, chol_n, chol_j, &prefix, 1.0)),
            |o| checksum_c64(o),
        );

        // Panel ODE step over every pixel of the tag, half of them driven.
        let pixels: Vec<_> = (0..pristine.module_count())
            .flat_map(|m| pristine.module(m).pixels())
            .collect();
        let mask: Vec<u64> = (0..pixels.len())
            .map(|i| if i % 2 == 0 { u64::MAX } else { 0 })
            .collect();
        let per_pixel = |f: fn(&LcPixel) -> f64| pixels.iter().map(|p| f(p)).collect::<Vec<f64>>();
        let w = per_pixel(|p| p.weight);
        let ic = per_pixel(|p| 1.0 / p.params.tau_charge);
        let iu = per_pixel(|p| 1.0 / p.params.tau_ready_up);
        let ir = per_pixel(|p| 1.0 / p.params.tau_relax);
        let id = per_pixel(|p| 1.0 / p.params.tau_ready_down);
        let de = per_pixel(|p| p.params.delta);
        let lc_state = (
            per_pixel(|p| p.state.x),
            per_pixel(|p| p.state.u),
            vec![0.0; pixels.len()],
        );
        let dt = 1.0 / cfg.fs;
        tier_pair(
            rec,
            div,
            "lc_rk2_contrib",
            s_iters,
            reps,
            lc_state,
            |d, (x, u, c): &mut (Vec<f64>, Vec<f64>, Vec<f64>)| {
                kernel!(
                    d,
                    lc_rk2_contrib(x, u, &mask, &w, &ic, &iu, &ir, &id, &de, dt, c)
                )
            },
            |(x, u, c)| fnv([checksum_f64(x), checksum_f64(u), checksum_f64(c)]),
        );
    }

    // --- Packet pipeline: the production composition vs reference synthesis ---
    let sim = LinkSimulator::new(cfg, LinkBudget::fov10(), Scene::default_at(3.0), 9);
    let mut scratch = sim.make_scratch();
    let pkt_bytes = if quick { 8 } else { 32 };
    let pkt_bits: Vec<bool> = (0..pkt_bytes * 8).map(|i| (i * 13) % 5 < 2).collect();
    {
        let op = sim.run_packet(&mut scratch, &pkt_bits, 2);
        let or = sim.decode(&sim.synth_rx_reference(&pkt_bits, 2), &pkt_bits);
        if (op.bit_errors, op.bits, op.detected) != (or.bit_errors, or.bits, or.detected) {
            diverged.push("packet_outcome".into());
        }
    }
    let pkt_syms = (pkt_bits.len() / cfg.bits_per_symbol()) as f64;
    let (pkt_ref, pkt_prod) = time_pair_ns(
        1,
        reps,
        || {
            // Reference synthesis through the production decode.
            std::hint::black_box(sim.decode(&sim.synth_rx_reference(&pkt_bits, 3), &pkt_bits));
        },
        || {
            std::hint::black_box(sim.run_packet(&mut scratch, &pkt_bits, 3));
        },
    );
    records.push(Record {
        kernel: "run_packet_reference".into(),
        ns_per_iter: pkt_ref,
        ns_per_symbol: Some(pkt_ref / pkt_syms),
        speedup: 1.0,
    });
    records.push(Record {
        kernel: "run_packet_renoised".into(),
        ns_per_iter: pkt_prod,
        ns_per_symbol: Some(pkt_prod / pkt_syms),
        speedup: pkt_ref / pkt_prod,
    });

    // --- Waveform synthesis: reference render vs cached re-noise (§7.3) ---
    // The sweep engine's core trade: a cache hit replaces the whole
    // per-packet synthesis (panel ODE + channel + fresh AWGN) with a copy of
    // the cached clean wave, re-applied channel, and σ-scaled cached unit
    // normals — bit-identical by construction, and gated here by checksum.
    {
        let clean = sim.render_clean(&mut scratch, &pkt_bits);
        let unit_noise = sim.packet_unit_noise(clean.len(), 5);
        let ref_sig = sim.synth_rx_reference(&pkt_bits, 5);
        let renoise_sig = sim.synth_rx_renoise(&mut scratch, &clean, &unit_noise, 5);
        if checksum_c64(ref_sig.samples()) != checksum_c64(renoise_sig.samples()) {
            diverged.push("waveform_renoise".into());
        }
        scratch.give_back(renoise_sig.into_samples());
        let (render_ns, renoise_ns) = time_pair_ns(
            if quick { 2 } else { 5 },
            reps,
            || {
                std::hint::black_box(sim.synth_rx_reference(&pkt_bits, 5));
            },
            || {
                let s = sim.synth_rx_renoise(&mut scratch, &clean, &unit_noise, 5);
                std::hint::black_box(&s);
                scratch.give_back(s.into_samples());
            },
        );
        records.push(Record {
            kernel: "waveform_render_reference".into(),
            ns_per_iter: render_ns,
            ns_per_symbol: Some(render_ns / pkt_syms),
            speedup: 1.0,
        });
        records.push(Record {
            kernel: "waveform_renoise_cached".into(),
            ns_per_iter: renoise_ns,
            ns_per_symbol: Some(renoise_ns / pkt_syms),
            speedup: render_ns / renoise_ns,
        });
    }

    // --- RS encode: one RS(255, 223) block ------------------------------
    let rs = RsCode::new(255, 223);
    let msg: Vec<u8> = (0..223).map(|i| (i as u8).wrapping_mul(31)).collect();
    let rs_encode_ns = time_ns(if quick { 200 } else { 1000 }, reps, || {
        std::hint::black_box(rs.encode(std::hint::black_box(&msg)));
    });
    records.push(Record {
        kernel: "rs_encode".into(),
        ns_per_iter: rs_encode_ns,
        ns_per_symbol: None,
        speedup: 1.0,
    });

    // --- RS decode: errors-only vs errors-and-erasures (same damage) ------
    // Ten damaged symbols, all flagged: both decoders must recover the same
    // message (a cheap cross-check of the errata path), and the timing pair
    // shows what the erasure machinery costs per block.
    let mut damaged = rs.encode(&msg);
    let flagged: Vec<usize> = (0..10).map(|k| k * 19).collect();
    for &p in &flagged {
        damaged[p] ^= 0xA5;
    }
    {
        let plain = rs.decode(&damaged).expect("errors-only decode");
        let errata = rs
            .decode_with_erasures(&damaged, &flagged)
            .expect("errata decode");
        if plain.0 != errata.msg || plain.1 + errata.errors_corrected + errata.erasures_filled != 20
        {
            diverged.push("rs_errata_decode".into());
        }
    }
    let (rs_plain, rs_errata) = time_pair_ns(
        if quick { 20 } else { 100 },
        reps,
        || {
            std::hint::black_box(rs.decode(&damaged).unwrap());
        },
        || {
            std::hint::black_box(rs.decode_with_erasures(&damaged, &flagged).unwrap());
        },
    );
    records.push(Record {
        kernel: "rs_decode_errors_only".into(),
        ns_per_iter: rs_plain,
        ns_per_symbol: None,
        speedup: 1.0,
    });
    records.push(Record {
        kernel: "rs_decode_errata".into(),
        ns_per_iter: rs_errata,
        ns_per_symbol: None,
        speedup: rs_plain / rs_errata,
    });

    // --- Impairment chain: full fault stack over one rendered frame -------
    let imp = ImpairmentConfig {
        clock_ppm: 80.0,
        adc_bits: Some(8),
        adc_full_scale: 1.5,
        blockage_duty: 0.05,
        blockage_len: 150,
        ramp_end_snr_db: 25.0,
        ..ImpairmentConfig::none()
    };
    let imp_sig = Signal::new(model.render_levels(&frame.levels), cfg.fs);
    {
        // Determinism check doubles as the identity check.
        let (a, _) = imp.apply(&imp_sig, 11);
        let (b, _) = imp.apply(&imp_sig, 11);
        let (id, _) = ImpairmentConfig::none().apply(&imp_sig, 11);
        if checksum_c64(a.samples()) != checksum_c64(b.samples())
            || checksum_c64(id.samples()) != checksum_c64(imp_sig.samples())
        {
            diverged.push("impairment_chain".into());
        }
    }
    let imp_ns = time_ns(if quick { 5 } else { 20 }, reps, || {
        std::hint::black_box(imp.apply(&imp_sig, 11));
    });
    records.push(Record {
        kernel: "impairment_chain_full".into(),
        ns_per_iter: imp_ns,
        ns_per_symbol: None,
        speedup: 1.0,
    });

    // --- Emit ------------------------------------------------------------
    // `{"meta": {...}, "kernels": [...]}`: the meta block records whether
    // the host dispatched to the vector bodies and what its CPU offered, so
    // archived baselines from different hosts stay attributable. Every row
    // is single-threaded and per-kernel, so `ns_per_point` (once the sweep
    // rows' per-grid-point cost) and `threads` are fixed, kept so archived
    // files and new runs share one schema.
    let opt = |v: Option<f64>| v.map_or_else(|| "null".into(), |v| format!("{v:.1}"));
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"kernel\": \"{}\", \"ns_per_iter\": {:.1}, \"ns_per_symbol\": {}, \"ns_per_point\": null, \"threads\": 1, \"speedup\": {:.3}}}",
                r.kernel,
                r.ns_per_iter,
                opt(r.ns_per_symbol),
                r.speedup,
            )
        })
        .collect();
    emit_bench_json("BENCH_KERNELS_OUT", "BENCH_kernels.json", "kernels", &rows);

    if !diverged.is_empty() {
        eprintln!("# FAIL: reference/optimized checksum divergence: {diverged:?}");
        std::process::exit(1);
    }
}
