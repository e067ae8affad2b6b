//! Window functions for FIR filter design.

/// Hamming window of length `n`.
pub fn hamming(n: usize) -> Vec<f64> {
    if n <= 1 {
        return vec![1.0; n];
    }
    (0..n)
        .map(|i| {
            let x = i as f64 / (n - 1) as f64;
            0.54 - 0.46 * (2.0 * std::f64::consts::PI * x).cos()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_endpoints_nonzero() {
        let w = hamming(9);
        assert!((w[0] - 0.08).abs() < 1e-12);
        assert!((w[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_lengths() {
        assert_eq!(hamming(0).len(), 0);
        assert_eq!(hamming(1), vec![1.0]);
    }
}
