//! Polarizers, Malus's law, and partially-switched pixel mixtures.
//!
//! This module implements exactly the optical algebra of §4.2.1 of the paper:
//! a pixel whose liquid-crystal layer has charged fraction ρ re-emits a
//! mixture of light polarized at θ_t (charged part) and θ_t + 90°
//! (uncharged part, rotated by the relaxed LC); a receiving polarizer at θ_r
//! sees, by Malus's law,
//!
//! ```text
//! I/I₀ = ρ·cos²(θ_t − θ_r) + (1−ρ)·cos²(θ_t + 90° − θ_r)
//!      = ρ·cos 2(θ_t − θ_r) + sin²(θ_t − θ_r)
//! ```
//!
//! The information-carrying part is `ρ·cos 2(θ_t − θ_r)`; the rest is a
//! DC pedestal that the receiver removes.

use crate::angle::PolAngle;

/// Malus's law: fraction of intensity passed when linearly polarized light at
/// `incident` meets a polarizer at `axis`.
pub fn malus(incident: PolAngle, axis: PolAngle) -> f64 {
    let d = incident.diff(axis);
    let c = d.cos();
    c * c
}

/// State of one LCM pixel as an incoherent polarization mixture: fraction
/// `rho` of its light polarized at the back-polarizer angle `theta_t`
/// (charged) and `1 − rho` at the orthogonal angle (relaxed LC rotates 90°).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelMixture {
    /// Back-polarizer (transmitter) angle.
    pub theta_t: PolAngle,
    /// Charged fraction ρ ∈ [0, 1].
    pub rho: f64,
}

impl PixelMixture {
    /// Construct, clamping ρ to [0, 1].
    pub fn new(theta_t: PolAngle, rho: f64) -> Self {
        Self {
            theta_t,
            rho: rho.clamp(0.0, 1.0),
        }
    }

    /// Received intensity fraction through a receiver polarizer at `theta_r`
    /// (per unit emitted intensity). Paper §4.2.1:
    /// `ρ·cos2Δ + sin²Δ` with Δ = θ_t − θ_r.
    pub fn received_intensity(&self, theta_r: PolAngle) -> f64 {
        let d = self.theta_t.diff(theta_r);
        let s = d.sin();
        self.rho * (2.0 * d).cos() + s * s
    }

    /// The information-carrying component only (DC pedestal removed):
    /// `ρ·cos 2(θ_t − θ_r)`.
    pub fn signal_component(&self, theta_r: PolAngle) -> f64 {
        let d = self.theta_t.diff(theta_r);
        self.rho * (2.0 * d).cos()
    }

    /// Signed polarization contrast `2ρ − 1 ∈ [−1, 1]`: the pixel's position
    /// along its own constellation axis (+1 fully charged, −1 fully relaxed).
    pub fn contrast(&self) -> f64 {
        2.0 * self.rho - 1.0
    }
}

/// Channel coefficient `h = cos 2(θ_t − θ_r)` between a transmitter
/// polarizer and a receiver polarizer (paper §4.2.1).
pub fn channel_coefficient(theta_t: PolAngle, theta_r: PolAngle) -> f64 {
    (2.0 * theta_t.diff(theta_r)).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::PolAngle as A;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn malus_basics() {
        assert!(close(
            malus(A::from_degrees(0.0), A::from_degrees(0.0)),
            1.0
        ));
        assert!(close(
            malus(A::from_degrees(0.0), A::from_degrees(90.0)),
            0.0
        ));
        assert!(close(
            malus(A::from_degrees(0.0), A::from_degrees(45.0)),
            0.5
        ));
        assert!(close(
            malus(A::from_degrees(0.0), A::from_degrees(60.0)),
            0.25
        ));
    }

    #[test]
    fn mixture_matches_paper_formula() {
        // ρ·cos2Δ + sin²Δ must equal ρcos²Δ + (1−ρ)cos²(Δ+90°) for all Δ, ρ.
        for rho_i in 0..=4 {
            let rho = rho_i as f64 / 4.0;
            for deg in [0.0, 15.0, 30.0, 45.0, 77.0] {
                let tt = A::from_degrees(deg);
                let tr = A::from_degrees(0.0);
                let m = PixelMixture::new(tt, rho);
                let lhs = m.received_intensity(tr);
                let d = tt.diff(tr);
                let rhs = rho * d.cos() * d.cos()
                    + (1.0 - rho) * (d + std::f64::consts::FRAC_PI_2).cos().powi(2);
                assert!(close(lhs, rhs), "rho={rho} deg={deg}: {lhs} vs {rhs}");
            }
        }
    }

    #[test]
    fn charged_pixel_on_aligned_receiver() {
        // Fully charged (ρ=1), aligned (Δ=0): all signal, h = +1.
        let m = PixelMixture::new(A::from_degrees(0.0), 1.0);
        assert!(close(m.received_intensity(A::from_degrees(0.0)), 1.0));
        assert!(close(m.signal_component(A::from_degrees(0.0)), 1.0));
        // Fully relaxed (ρ=0): orthogonal light, nothing passes.
        let m0 = PixelMixture::new(A::from_degrees(0.0), 0.0);
        assert!(close(m0.received_intensity(A::from_degrees(0.0)), 0.0));
    }

    #[test]
    fn rho_clamped() {
        assert!(close(PixelMixture::new(A::from_degrees(0.0), 2.0).rho, 1.0));
        assert!(close(
            PixelMixture::new(A::from_degrees(0.0), -1.0).rho,
            0.0
        ));
    }

    #[test]
    fn contrast_spans_minus_one_to_one() {
        assert!(close(
            PixelMixture::new(A::from_degrees(0.0), 1.0).contrast(),
            1.0
        ));
        assert!(close(
            PixelMixture::new(A::from_degrees(0.0), 0.5).contrast(),
            0.0
        ));
        assert!(close(
            PixelMixture::new(A::from_degrees(0.0), 0.0).contrast(),
            -1.0
        ));
    }

    #[test]
    fn channel_coefficient_signs() {
        let h0 = channel_coefficient(A::from_degrees(0.0), A::from_degrees(0.0));
        let h90 = channel_coefficient(A::from_degrees(90.0), A::from_degrees(0.0));
        let h45 = channel_coefficient(A::from_degrees(45.0), A::from_degrees(0.0));
        assert!(close(h0, 1.0));
        assert!(close(h90, -1.0)); // orthogonal pixel modulates with flipped sign
        assert!(close(h45, 0.0)); // 45° pixel invisible to a 0° receiver
    }
}
