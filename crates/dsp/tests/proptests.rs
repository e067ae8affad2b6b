//! Property tests for the DSP substrate.

use proptest::prelude::*;
use retroturbo_dsp::complex::{dist_sqr, dot, norm_sqr};
use retroturbo_dsp::linalg::{jacobi_svd, Mat};
use retroturbo_dsp::resample::{decimate, interpolate, sample_at};
use retroturbo_dsp::signal::Signal;
use retroturbo_dsp::C64;

fn c64() -> impl Strategy<Value = C64> {
    (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(r, i)| C64::new(r, i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn complex_field_axioms(a in c64(), b in c64(), c in c64()) {
        let assoc = (a * b) * c;
        let assoc2 = a * (b * c);
        prop_assert!(assoc.dist(assoc2) < 1e-9);
        let dist = a * (b + c);
        let dist2 = a * b + a * c;
        prop_assert!(dist.dist(dist2) < 1e-9);
        prop_assume!(a.norm_sqr() > 1e-6);
        let inv = a * a.inv();
        prop_assert!(inv.dist(C64::real(1.0)) < 1e-9);
    }

    #[test]
    fn polar_round_trip(r in 0.01f64..50.0, th in -3.0f64..3.0) {
        let z = C64::from_polar(r, th);
        prop_assert!((z.abs() - r).abs() < 1e-9);
        prop_assert!((z.arg() - th).abs() < 1e-9);
    }

    #[test]
    fn norm_triangle_inequality(xs in proptest::collection::vec(c64(), 1..32),
                                ys in proptest::collection::vec(c64(), 1..32)) {
        let n = xs.len().min(ys.len());
        let x = &xs[..n];
        let y = &ys[..n];
        // |⟨x,y⟩| ≤ ‖x‖·‖y‖ (Cauchy–Schwarz).
        let lhs = dot(x, y).abs();
        let rhs = (norm_sqr(x) * norm_sqr(y)).sqrt();
        prop_assert!(lhs <= rhs + 1e-9);
        // dist² ≥ 0 and symmetric.
        prop_assert!((dist_sqr(x, y) - dist_sqr(y, x)).abs() < 1e-9);
    }

    #[test]
    fn signal_mix_is_commutative(a in proptest::collection::vec(c64(), 1..64),
                                 b in proptest::collection::vec(c64(), 1..64)) {
        let mut s1 = Signal::new(a.clone(), 1000.0);
        s1.mix_at(0, &b);
        let mut s2 = Signal::new(b.clone(), 1000.0);
        s2.mix_at(0, &a);
        prop_assert_eq!(s1.len(), s2.len());
        for (x, y) in s1.samples().iter().zip(s2.samples()) {
            prop_assert!(x.dist(*y) < 1e-9);
        }
    }

    #[test]
    fn dc_removal_zeroes_mean(xs in proptest::collection::vec(c64(), 1..64)) {
        let mut s = Signal::new(xs, 1000.0);
        s.remove_dc();
        prop_assert!(s.mean().abs() < 1e-9);
    }

    #[test]
    fn decimate_preserves_mean(xs in proptest::collection::vec(-5.0f64..5.0, 8..64),
                               m in 1usize..4) {
        let n = xs.len() - xs.len() % m; // whole blocks only
        let s = Signal::from_real(&xs[..n], 1000.0);
        let d = decimate(&s, m);
        let mean_in: f64 = s.samples().iter().map(|z| z.re).sum::<f64>() / n as f64;
        let mean_out: f64 =
            d.samples().iter().map(|z| z.re).sum::<f64>() / d.len() as f64;
        prop_assert!((mean_in - mean_out).abs() < 1e-9);
    }

    #[test]
    fn interpolate_passes_through_knots(xs in proptest::collection::vec(-5.0f64..5.0, 2..32),
                                        m in 1usize..5) {
        let s = Signal::from_real(&xs, 100.0);
        let u = interpolate(&s, m);
        for (i, &x) in xs.iter().enumerate() {
            prop_assert!((u.samples()[i * m].re - x).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_at_between_neighbours(xs in proptest::collection::vec(-5.0f64..5.0, 2..16),
                                    t in 0.0f64..1.0) {
        let zs: Vec<C64> = xs.iter().map(|&x| C64::real(x)).collect();
        let idx = t * (zs.len() - 1) as f64;
        let v = sample_at(&zs, idx).re;
        let lo = xs[idx.floor() as usize];
        let hi = xs[(idx.ceil() as usize).min(xs.len() - 1)];
        prop_assert!(v >= lo.min(hi) - 1e-12 && v <= lo.max(hi) + 1e-12);
    }

    #[test]
    fn svd_reconstructs_random(m in 2usize..6, n in 2usize..5,
                               vals in proptest::collection::vec(-2.0f64..2.0, 30)) {
        let data: Vec<f64> = (0..m * n).map(|i| vals[i % vals.len()]).collect();
        let a = Mat::from_vec(m, n, data);
        let svd = jacobi_svd(&a);
        let mut us = svd.u.clone();
        for j in 0..svd.sigma.len() {
            for i in 0..us.rows() {
                us[(i, j)] *= svd.sigma[j];
            }
        }
        let rec = us.matmul(&svd.v.t());
        for i in 0..m {
            for j in 0..n {
                prop_assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-8);
            }
        }
        // Singular values non-negative, sorted.
        for w in svd.sigma.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        prop_assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }
}

// --- Backend differential suite: filter chain, dispatch vs scalar ----------
//
// The dispatched kernels' contract is bit-identity with their `scalar`
// bodies over ANY input, not just the committed fixtures — including
// denormal-magnitude samples (where a flush-to-zero vector unit would
// diverge) and huge magnitudes near the overflow edge. Each case calls the
// public dispatched entry, so on a SIMD host the dispatch itself is what
// gets proven.

use retroturbo_dsp::backend::{self, scalar};
use retroturbo_dsp::filter::Fir;

/// A sample component spanning normal, denormal, zero, and huge magnitudes
/// (the compat proptest has no `prop_oneof`, so edge values are picked by
/// index with a 10/16 weight on the normal range).
fn edge_component() -> impl Strategy<Value = f64> {
    (0usize..16, -10.0f64..10.0).prop_map(|(k, v)| match k {
        0 => 1e-320,
        1 => -1e-320,
        2 => 5e-324,
        3 => 0.0,
        4 => 1e100,
        5 => -1e100,
        _ => v,
    })
}

/// Complex samples spanning normal, denormal, and near-overflow magnitudes.
fn c64_edges() -> impl Strategy<Value = C64> {
    (edge_component(), edge_component()).prop_map(|(r, i)| C64::new(r, i))
}

fn bits(xs: &[C64]) -> Vec<(u64, u64)> {
    xs.iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FIR: the dispatched kernel must match the scalar body bit-for-bit on
    /// random taps and edge-magnitude signals, and so must the `Fir`
    /// wrapper.
    #[test]
    fn fir_simd_bit_identical_to_scalar(
        taps in proptest::collection::vec(-2.0f64..2.0, 1..24),
        xs in proptest::collection::vec(c64_edges(), 1..96),
    ) {
        let fir = Fir::new(taps);
        let d = fir.group_delay();
        let mut y_s = vec![C64::default(); xs.len()];
        let mut y_v = vec![C64::default(); xs.len()];
        scalar::fir_filter_into(fir.taps(), &xs, d, &mut y_s);
        backend::fir_filter_into(fir.taps(), &xs, d, &mut y_v);
        prop_assert_eq!(bits(&y_s), bits(&y_v));
        prop_assert_eq!(bits(&fir.filter(&xs)), bits(&y_s));
    }

    /// Boxcar decimator: dispatch vs scalar bit-identity, anchored to the
    /// `resample::decimate` reference.
    #[test]
    fn decimate_simd_bit_identical_to_scalar(
        m in 1usize..8,
        xs in proptest::collection::vec(c64_edges(), 8..96),
    ) {
        prop_assume!(xs.len() / m >= 1);
        let mut y_s = vec![C64::default(); xs.len() / m];
        let mut y_v = vec![C64::default(); xs.len() / m];
        scalar::decimate_into(&xs, m, &mut y_s);
        backend::decimate_into(&xs, m, &mut y_v);
        prop_assert_eq!(bits(&y_s), bits(&y_v));
        let r = decimate(&Signal::new(xs.clone(), 40_000.0), m);
        prop_assert_eq!(bits(r.samples()), bits(&y_s));
    }
}
