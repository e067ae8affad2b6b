//! Retroreflector and tag-orientation geometry.
//!
//! The tag's optical antenna is retroreflective fabric behind the LCM array:
//! incident light returns toward its source regardless of (moderate) tag
//! orientation, which is what confines the uplink to the reader direction and
//! makes VLBC immune to ambient reflections (§7.2.1, Tab. 4).
//!
//! Two orientation effects matter to the link:
//!
//! * **roll** (rotation about the line of sight) leaves intensity untouched
//!   and only rotates polarization — handled in [`crate::basis`];
//! * **yaw/pitch** (tag surface not perpendicular to the beam) shrinks the
//!   projected aperture and degrades retroreflective efficiency, reducing
//!   SNR, and skews the effective pixel mix seen by the receiver, deforming
//!   the received symbols until channel training recalibrates them
//!   (Fig. 16c).

use crate::angle::deg2rad;

/// Orientation of the tag relative to the reader line of sight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Orientation {
    /// Roll about the line of sight, radians. Affects polarization only.
    pub roll: f64,
    /// Yaw away from face-on, radians. Affects gain and symbol fidelity.
    pub yaw: f64,
}

impl Orientation {
    /// Face-on, unrotated.
    pub fn face_on() -> Self {
        Self {
            roll: 0.0,
            yaw: 0.0,
        }
    }

    /// Construct from degrees.
    pub fn from_degrees(roll_deg: f64, yaw_deg: f64) -> Self {
        Self {
            roll: deg2rad(roll_deg),
            yaw: deg2rad(yaw_deg),
        }
    }
}

/// Retroreflective sheet model (e.g. 3M 8912 fabric).
#[derive(Debug, Clone, Copy)]
pub struct Retroreflector {
    /// Total optically active area behind the LCM array, m².
    pub area_m2: f64,
    /// Peak retroreflection coefficient (fraction of incident flux returned
    /// into the reader's acceptance cone at face-on incidence).
    pub peak_reflectivity: f64,
    /// Entrance-angle falloff exponent: efficiency ∝ cos^k(yaw) beyond the
    /// pure projected-area cos(yaw). Micro-prismatic/bead fabrics fall off
    /// faster than a Lambertian surface; k ≈ 2 matches published 8912-class
    /// entrance-angularity tables to within a few percent out to ~50°.
    pub falloff_exponent: f64,
    /// Yaw beyond which the retroreflector returns essentially nothing
    /// (total internal reflection breaks down), radians.
    pub cutoff: f64,
}

impl Default for Retroreflector {
    fn default() -> Self {
        Self {
            area_m2: 66e-4, // 66 cm², the prototype tag (§6)
            peak_reflectivity: 0.6,
            falloff_exponent: 2.0,
            cutoff: deg2rad(60.0),
        }
    }
}

impl Retroreflector {
    /// Relative gain (0..1) at a given yaw: projected area × entrance-angle
    /// efficiency, hard zero past cutoff.
    pub fn yaw_gain(&self, yaw: f64) -> f64 {
        let y = yaw.abs();
        if y >= self.cutoff || y >= std::f64::consts::FRAC_PI_2 {
            return 0.0;
        }
        y.cos() * y.cos().powf(self.falloff_exponent)
    }
}

/// Deformation of the received symbol geometry under yaw, before channel
/// training corrects it: pixels at different positions on the tag see
/// slightly different incidence, so per-pixel gains skew multiplicatively.
///
/// Returns a per-pixel relative gain for pixel `index` of `count` laid out
/// across the tag width: the near edge brightens and the far edge dims
/// proportionally to `sin(yaw)`. At zero yaw every pixel returns 1.0.
pub fn yaw_pixel_skew(yaw: f64, index: usize, count: usize) -> f64 {
    if count <= 1 {
        return 1.0;
    }
    // Position in [−1, 1] across the aperture.
    let pos = 2.0 * index as f64 / (count - 1) as f64 - 1.0;
    // Empirical skew strength: ±20% across the aperture at 45° yaw.
    (1.0 + 0.283 * yaw.sin() * pos).max(0.05)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn face_on_full_gain() {
        let r = Retroreflector::default();
        assert!((r.yaw_gain(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gain_monotone_in_yaw() {
        let r = Retroreflector::default();
        let mut prev = r.yaw_gain(0.0);
        for deg in 1..60 {
            let g = r.yaw_gain(deg2rad(deg as f64));
            assert!(g <= prev + 1e-12, "gain rose at {deg}°");
            prev = g;
        }
    }

    #[test]
    fn cutoff_kills_return() {
        let r = Retroreflector::default();
        assert_eq!(r.yaw_gain(deg2rad(60.0)), 0.0);
        assert_eq!(r.yaw_gain(deg2rad(-75.0)), 0.0);
    }

    #[test]
    fn forty_degrees_still_usable() {
        // Fig. 16c: the link works to at least ±40° yaw — the optics must
        // retain an appreciable fraction of the face-on return there.
        let r = Retroreflector::default();
        let g = r.yaw_gain(deg2rad(40.0));
        assert!(g > 0.3, "gain at 40° = {g}");
    }

    #[test]
    fn skew_symmetric_and_unit_at_zero() {
        for i in 0..8 {
            assert!((yaw_pixel_skew(0.0, i, 8) - 1.0).abs() < 1e-12);
        }
        let s_near = yaw_pixel_skew(deg2rad(45.0), 7, 8);
        let s_far = yaw_pixel_skew(deg2rad(45.0), 0, 8);
        assert!(s_near > 1.0 && s_far < 1.0);
        assert!((s_near - 1.0 + (s_far - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn skew_single_pixel_is_unity() {
        assert_eq!(yaw_pixel_skew(1.0, 0, 1), 1.0);
    }

    #[test]
    fn orientation_from_degrees() {
        let o = Orientation::from_degrees(90.0, 45.0);
        assert!((o.roll - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((o.yaw - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }
}
