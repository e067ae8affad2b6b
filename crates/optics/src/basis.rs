//! The polarization constellation space and PQAM orthogonal bases (§4.2.1).
//!
//! The receiver carries two analyzer pairs at θ_r and θ_r + 45°. Writing the
//! two differential measurements as one complex number `z = I + jQ`, a pixel
//! with back polarizer at θ_t and polarization contrast `g ∈ [−1, 1]`
//! contributes
//!
//! ```text
//! z = g · e^{j·2(θ_t − θ_r)}
//! ```
//!
//! because `cos 2(Δ)` lands on the I measurement and
//! `cos 2(Δ − 45°) = sin 2(Δ)` on the Q measurement. Consequences, all
//! encoded and tested here:
//!
//! * transmitter pixels at θ_t and θ_t + 45° map to *orthogonal* axes
//!   (the I/Q basis of PQAM);
//! * a physical roll of Δθ multiplies every contribution by `e^{j·2Δθ}` —
//!   a pure rotation of the constellation, correctable at the receiver
//!   (PQAM's rotation tolerance);
//! * a pixel and its 90°-rotated twin map to opposite points (`e^{jπ} = −1`),
//!   which is how a discharging pixel swings from +axis to −axis.

use crate::angle::PolAngle;
use crate::polarizer::PixelMixture;
use retroturbo_dsp::C64;

/// The complex constellation axis of a transmitter polarizer at `theta_t`
/// seen by a receiver pair referenced at `theta_r`: `e^{j·2(θ_t − θ_r)}`.
pub fn axis(theta_t: PolAngle, theta_r: PolAngle) -> C64 {
    C64::cis(2.0 * (theta_t.radians() - theta_r.radians()))
}

/// Constellation rotation induced by a physical roll of `delta` radians
/// between tag and reader: `e^{j·2Δ}` (angle doubling).
pub fn roll_rotation(delta: f64) -> C64 {
    C64::cis(2.0 * delta)
}

/// A reader analyzer pair: an I branch at `reference` and a Q branch at
/// `reference + 45°`, each implemented as a polarization-based differential
/// reception (PDR) pair in the prototype.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverPair {
    /// The I-branch analyzer angle.
    pub reference: PolAngle,
}

impl ReceiverPair {
    /// Receiver pair referenced at `reference`.
    pub fn new(reference: PolAngle) -> Self {
        Self { reference }
    }

    /// The Q-branch analyzer angle (reference + 45°).
    pub fn q_axis(&self) -> PolAngle {
        self.reference.rotated(std::f64::consts::FRAC_PI_4)
    }

    /// Complex measurement of one pixel mixture (per unit pixel intensity),
    /// using differential reception on each branch so the unpolarized/DC
    /// pedestal cancels exactly:
    /// `z = g·cos2Δ + j·g·sin2Δ = g·e^{j2Δ}`.
    pub fn measure(&self, pixel: &PixelMixture) -> C64 {
        let g = pixel.contrast();
        g * axis(pixel.theta_t, self.reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::PolAngle as A;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn i_and_q_pixels_land_on_i_and_q_axes() {
        let rx = ReceiverPair::new(A::from_degrees(0.0));
        let i_pix = PixelMixture::new(A::from_degrees(0.0), 1.0);
        let q_pix = PixelMixture::new(A::from_degrees(45.0), 1.0);
        let zi = rx.measure(&i_pix);
        let zq = rx.measure(&q_pix);
        assert!(close(zi.re, 1.0) && close(zi.im, 0.0));
        assert!(close(zq.re, 0.0) && close(zq.im, 1.0));
    }

    #[test]
    fn discharged_pixel_is_opposite_point() {
        let rx = ReceiverPair::new(A::from_degrees(0.0));
        let charged = rx.measure(&PixelMixture::new(A::from_degrees(0.0), 1.0));
        let relaxed = rx.measure(&PixelMixture::new(A::from_degrees(0.0), 0.0));
        assert!(close(charged.re, -relaxed.re));
        assert!(close(relaxed.re, -1.0));
    }

    #[test]
    fn roll_rotates_constellation_by_double() {
        // Physically roll the *transmitter* by 30°: every axis rotates by 60°.
        let rx = ReceiverPair::new(A::from_degrees(0.0));
        let delta = crate::angle::deg2rad(30.0);
        let pix = PixelMixture::new(A::from_degrees(0.0).rotated(delta), 1.0);
        let z = rx.measure(&pix);
        let expect = roll_rotation(delta); // e^{j60°}
        assert!(z.dist(expect) < 1e-12);
    }

    #[test]
    fn rotation_preserves_magnitude_full_rate() {
        // PQAM's key property vs PDM: arbitrary misalignment never attenuates
        // the constellation, it only rotates it.
        let rx = ReceiverPair::new(A::from_degrees(0.0));
        for deg in [0.0, 7.0, 22.5, 45.0, 61.0, 89.0] {
            let delta = crate::angle::deg2rad(deg);
            let zi = rx.measure(&PixelMixture::new(A::from_degrees(0.0).rotated(delta), 1.0));
            let zq = rx.measure(&PixelMixture::new(
                A::from_degrees(45.0).rotated(delta),
                1.0,
            ));
            assert!(close(zi.abs(), 1.0), "roll {deg}: |zI| = {}", zi.abs());
            assert!(close(zq.abs(), 1.0));
            // The two axes stay mutually orthogonal under rotation.
            assert!((zi * zq.conj()).re.abs() < 1e-12);
        }
    }

    #[test]
    fn pdm_strawman_loses_signal_where_pqam_does_not() {
        // A naive PDM receiver reads only its own fixed analyzer; at 45°
        // misalignment its channel coefficient collapses to zero, while the
        // PQAM complex measurement keeps full magnitude.
        let pix = PixelMixture::new(A::from_degrees(45.0), 1.0); // rolled by 45°
        let analyzer = A::from_degrees(0.0);
        let pdm = pix.received_intensity(analyzer) - pix.received_intensity(analyzer.orthogonal());
        assert!(pdm.abs() < 1e-12, "PDM should be blind here");
        let rx = ReceiverPair::new(A::from_degrees(0.0));
        assert!(close(rx.measure(&pix).abs(), 1.0));
    }
}
