//! Angles for polarization work.
//!
//! Linear polarization is direction-less: a polarizer at θ and at θ + 180° are
//! the same device, so polarization angles live on a half-circle and all of
//! the physics depends on them through `cos 2θ` / `sin 2θ`. [`PolAngle`]
//! encodes that: it normalizes to [0°, 180°) and exposes the doubled-angle
//! phasor that the constellation-space math uses.

use std::f64::consts::PI;

/// Degrees → radians.
#[inline]
pub fn deg2rad(d: f64) -> f64 {
    d * PI / 180.0
}

/// Radians → degrees.
#[inline]
pub fn rad2deg(r: f64) -> f64 {
    r * 180.0 / PI
}

/// A linear-polarization angle, normalized to [0, π) radians.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolAngle {
    radians: f64,
}

impl PolAngle {
    /// From radians (any value; normalized modulo π).
    pub fn from_radians(r: f64) -> Self {
        let mut x = r % PI;
        if x < 0.0 {
            x += PI;
        }
        Self { radians: x }
    }

    /// From degrees (any value; normalized modulo 180°).
    pub fn from_degrees(d: f64) -> Self {
        Self::from_radians(deg2rad(d))
    }

    /// Angle in radians, in [0, π).
    #[inline]
    pub fn radians(self) -> f64 {
        self.radians
    }

    /// Angle in degrees, in [0, 180).
    #[inline]
    pub fn degrees(self) -> f64 {
        rad2deg(self.radians)
    }

    /// The orthogonal polarization (rotated by 90°).
    pub fn orthogonal(self) -> Self {
        Self::from_radians(self.radians + PI / 2.0)
    }

    /// Rotate by `delta` radians.
    pub fn rotated(self, delta: f64) -> Self {
        Self::from_radians(self.radians + delta)
    }

    /// Signed smallest difference to another polarization angle, in
    /// (−π/2, π/2] radians.
    pub fn diff(self, other: Self) -> f64 {
        let mut d = (self.radians - other.radians) % PI;
        if d > PI / 2.0 {
            d -= PI;
        } else if d <= -PI / 2.0 {
            d += PI;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn normalizes_to_half_circle() {
        assert!(close(PolAngle::from_degrees(190.0).degrees(), 10.0));
        assert!(close(PolAngle::from_degrees(-30.0).degrees(), 150.0));
        assert!(close(PolAngle::from_degrees(180.0).degrees(), 0.0));
    }

    #[test]
    fn orthogonal_of_zero_is_ninety() {
        assert!(close(
            PolAngle::from_degrees(0.0).orthogonal().degrees(),
            90.0
        ));
        // Orthogonal twice is identity (mod 180°).
        let a = PolAngle::from_degrees(30.0);
        assert!(close(a.orthogonal().orthogonal().degrees(), 30.0));
    }

    #[test]
    fn diff_wraps_to_smallest() {
        let a = PolAngle::from_degrees(170.0);
        let b = PolAngle::from_degrees(10.0);
        // 170° vs 10° differ by 20° on the half-circle, not 160°.
        assert!(close(a.diff(b).abs(), deg2rad(20.0)));
    }

    #[test]
    fn conversion_round_trip() {
        for d in [0.0, 10.0, 45.0, 90.0, 135.0] {
            assert!(close(rad2deg(deg2rad(d)), d));
        }
    }
}
