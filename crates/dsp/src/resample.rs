//! Rate conversion: decimation and interpolation.
//!
//! The reader's MCU decimates the 3.64 MHz ADC stream down to the 40 kHz
//! baseband rate the demodulator runs at ("down-conversion and decimation
//! before streaming to host", §6). We provide an integrate-and-dump (boxcar)
//! decimator — which is what a CIC stage reduces to at these ratios — plus
//! linear interpolation for timing alignment.

use crate::complex::C64;
use crate::signal::Signal;

/// Decimate by integer factor `m` with boxcar pre-averaging (anti-alias).
///
/// Each output sample is the mean of `m` consecutive input samples; a final
/// partial block is dropped.
///
/// # Panics
/// Panics if `m == 0`.
pub fn decimate(x: &Signal, m: usize) -> Signal {
    assert!(m > 0, "decimate: factor must be >= 1");
    let inv = 1.0 / m as f64;
    let out = x
        .samples()
        .chunks_exact(m)
        .map(|c| c.iter().copied().sum::<C64>().scale(inv))
        .collect();
    Signal::new(out, x.sample_rate() / m as f64)
}

/// Upsample by integer factor `m` with linear interpolation.
///
/// # Panics
/// Panics if `m == 0`.
pub fn interpolate(x: &Signal, m: usize) -> Signal {
    assert!(m > 0, "interpolate: factor must be >= 1");
    let s = x.samples();
    if s.is_empty() || m == 1 {
        return Signal::new(s.to_vec(), x.sample_rate() * m as f64);
    }
    let mut out = Vec::with_capacity(s.len() * m);
    for i in 0..s.len() {
        let a = s[i];
        let b = if i + 1 < s.len() { s[i + 1] } else { s[i] };
        for k in 0..m {
            let t = k as f64 / m as f64;
            out.push(a + (b - a) * t);
        }
    }
    Signal::new(out, x.sample_rate() * m as f64)
}

/// Sample a waveform at an arbitrary fractional index by linear interpolation,
/// clamping at the edges.
pub fn sample_at(x: &[C64], idx: f64) -> C64 {
    if x.is_empty() {
        return C64::default();
    }
    if idx <= 0.0 {
        return x[0];
    }
    let last = (x.len() - 1) as f64;
    if idx >= last {
        return x[x.len() - 1];
    }
    let i = idx.floor() as usize;
    let t = idx - i as f64;
    x[i] + (x[i + 1] - x[i]) * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimate_averages_blocks() {
        let s = Signal::from_real(&[1.0, 3.0, 5.0, 7.0, 9.0], 100.0);
        let d = decimate(&s, 2);
        assert_eq!(d.len(), 2);
        assert!((d.samples()[0].re - 2.0).abs() < 1e-12);
        assert!((d.samples()[1].re - 6.0).abs() < 1e-12);
        assert!((d.sample_rate() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn decimate_by_one_is_identity() {
        let s = Signal::from_real(&[1.0, 2.0], 10.0);
        assert_eq!(decimate(&s, 1), s);
    }

    #[test]
    fn interpolate_hits_midpoints() {
        let s = Signal::from_real(&[0.0, 2.0], 10.0);
        let u = interpolate(&s, 2);
        assert_eq!(u.len(), 4);
        assert!((u.samples()[1].re - 1.0).abs() < 1e-12);
        assert!((u.sample_rate() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn round_trip_preserves_constant() {
        let s = Signal::from_real(&[4.0; 10], 10.0);
        let d = decimate(&interpolate(&s, 4), 4);
        for z in d.samples() {
            assert!((z.re - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_at_interpolates_and_clamps() {
        let x = [C64::real(0.0), C64::real(10.0)];
        assert!((sample_at(&x, 0.25).re - 2.5).abs() < 1e-12);
        assert!((sample_at(&x, -1.0).re - 0.0).abs() < 1e-12);
        assert!((sample_at(&x, 5.0).re - 10.0).abs() < 1e-12);
    }
}
