//! Small statistics helpers shared by the experiments: error counting,
//! summary statistics, percentiles.

/// Count differing bits between two equal-length bit slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn bit_errors(a: &[bool], b: &[bool]) -> usize {
    assert_eq!(a.len(), b.len(), "bit_errors: length mismatch");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Bit error rate between two equal-length bit slices (0 for empty input).
pub fn ber(a: &[bool], b: &[bool]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    bit_errors(a, b) as f64 / a.len() as f64
}

/// Running mean/variance accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Minimum observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// p-th percentile (0 ≤ p ≤ 100) by linear interpolation on sorted data.
/// Returns NaN for empty input.
pub fn percentile(data: &[f64], p: f64) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    let mut v = data.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let t = rank - lo as f64;
        v[lo] * (1.0 - t) + v[hi] * t
    }
}

/// Mean of a slice (0 for empty).
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        0.0
    } else {
        data.iter().sum::<f64>() / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_bit_errors() {
        let a = [true, false, true, true];
        let b = [true, true, true, false];
        assert_eq!(bit_errors(&a, &b), 2);
        assert!((ber(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ber_empty_is_zero() {
        assert_eq!(ber(&[], &[]), 0.0);
    }

    #[test]
    fn welford_matches_direct() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut acc = Accumulator::new();
        for &x in &xs {
            acc.push(x);
        }
        assert!((acc.mean() - 3.0).abs() < 1e-12);
        assert!((acc.variance() - 2.0).abs() < 1e-12);
        assert_eq!(acc.min(), 1.0);
        assert_eq!(acc.max(), 5.0);
        assert_eq!(acc.count(), 5);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert!((percentile(&xs, 0.0) - 10.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 40.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [3.0, 1.0, 2.0];
        assert!((percentile(&xs, 50.0) - 2.0).abs() < 1e-12);
    }
}
