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
