//! Property tests for the polarization optics.

use proptest::prelude::*;
use retroturbo_optics::basis::ReceiverPair;
use retroturbo_optics::retro::{yaw_pixel_skew, Retroreflector};
use retroturbo_optics::{malus, PixelMixture, PolAngle};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn malus_in_unit_range_and_periodic(a in -720.0f64..720.0, b in -720.0f64..720.0) {
        let m = malus(PolAngle::from_degrees(a), PolAngle::from_degrees(b));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&m));
        let m2 = malus(PolAngle::from_degrees(a + 180.0), PolAngle::from_degrees(b));
        prop_assert!((m - m2).abs() < 1e-9);
    }

    #[test]
    fn measurement_magnitude_rotation_invariant(theta in 0.0f64..180.0,
                                                rho in 0.0f64..1.0,
                                                rx_ref in 0.0f64..180.0) {
        let rx = ReceiverPair::new(PolAngle::from_degrees(rx_ref));
        let z0 = rx.measure(&PixelMixture::new(PolAngle::from_degrees(0.0), rho));
        let zt = rx.measure(&PixelMixture::new(PolAngle::from_degrees(theta), rho));
        prop_assert!((z0.abs() - zt.abs()).abs() < 1e-9);
    }

    #[test]
    fn pdr_equals_contrast_times_cos2(theta_t in 0.0f64..180.0, rho in 0.0f64..1.0,
                                      analyzer in 0.0f64..180.0) {
        // Each branch of the pair is differential reception: two photodiodes
        // behind orthogonal analyzers, so the Malus-law pedestal cancels and
        // the I/Q measurement is g·cos 2Δ / g·sin 2Δ.
        let pix = PixelMixture::new(PolAngle::from_degrees(theta_t), rho);
        let pdr = |a: PolAngle| pix.received_intensity(a) - pix.received_intensity(a.orthogonal());
        let rx = ReceiverPair::new(PolAngle::from_degrees(analyzer));
        let z = rx.measure(&pix);
        let delta = PolAngle::from_degrees(theta_t).diff(rx.reference);
        prop_assert!((pdr(rx.reference) - pix.contrast() * (2.0 * delta).cos()).abs() < 1e-9);
        prop_assert!((z.re - pdr(rx.reference)).abs() < 1e-9);
        prop_assert!((z.im - pdr(rx.q_axis())).abs() < 1e-9);
    }

    #[test]
    fn yaw_gain_bounded_and_even(yaw in -1.4f64..1.4) {
        let r = Retroreflector::default();
        let g = r.yaw_gain(yaw);
        prop_assert!((0.0..=1.0).contains(&g));
        prop_assert!((g - r.yaw_gain(-yaw)).abs() < 1e-12);
    }

    #[test]
    fn pixel_skew_mean_preserving(yaw in -1.0f64..1.0, count in 2usize..12) {
        // The skew redistributes light across the aperture without creating
        // any: mean over pixels stays 1.
        let mean: f64 = (0..count).map(|i| yaw_pixel_skew(yaw, i, count)).sum::<f64>()
            / count as f64;
        prop_assert!((mean - 1.0).abs() < 1e-9);
    }
}
