//! Fingerprint-based LCM emulation with finite bit-history memory (§5.2).
//!
//! The LC response is nonlinear with effectively infinite memory, but can be
//! approximated by classifying each slot's waveform by the `V` most recent
//! drive bits (the current bit plus `V−1` previous ones). A [`FingerprintSet`]
//! holds one reference slot-waveform per `V`-bit history, collected by
//! exciting a simulated pixel with a `V`-th order m-sequence — every nonzero
//! history appears exactly once per MLS period, and the all-zero history is
//! the fully relaxed pixel.
//!
//! The emulator is the engine behind the modulation-scheme analysis of §5:
//! the performance-index search (Tab. 3 / Fig. 13) and the trace-driven
//! emulation sweeps (Fig. 18) replay millions of candidate waveforms through
//! the table instead of re-integrating the ODE model.

use crate::dynamics::{simulate, LcParams, LcState};
use crate::mls::mls;

/// A table of per-history reference slot waveforms for one pixel.
#[derive(Debug, Clone)]
pub struct FingerprintSet {
    v: usize,
    slot_secs: f64,
    fs: f64,
    slot_len: usize,
    /// `table[h]` = contrast waveform over one slot for history `h`
    /// (bit k of `h` is the drive bit k slots ago; bit 0 = current slot).
    table: Vec<Vec<f64>>,
}

impl FingerprintSet {
    /// Collect fingerprints for a pixel with `params`, history depth `v`
    /// (2..=17), slot duration `slot_secs` and sample rate `fs`.
    ///
    /// Runs the ODE model through one warm-up MLS period plus one recorded
    /// period, then labels every recorded slot by its trailing `v`-bit drive
    /// history.
    ///
    /// # Panics
    /// Panics if `v` is outside 2..=17 or the slot is shorter than 2 samples.
    pub fn collect(params: &LcParams, v: usize, slot_secs: f64, fs: f64) -> Self {
        assert!((2..=17).contains(&v), "FingerprintSet: v must be 2..=17");
        let slot_len = (slot_secs * fs).round() as usize;
        assert!(slot_len >= 2, "FingerprintSet: slot too short for fs");

        let seq = mls(v);
        let period = seq.len();
        let dt = 1.0 / fs;

        // Drive = warm-up period + recorded period, expanded to samples.
        let mut drive = Vec::with_capacity(2 * period * slot_len);
        for rep in 0..2 {
            let _ = rep;
            for &b in &seq {
                drive.extend(std::iter::repeat_n(b, slot_len));
            }
        }
        let out = simulate(params, LcState::relaxed(), &drive, dt);

        let mut table = vec![Vec::new(); 1 << v];
        // All-zero history: the fully relaxed pixel, contrast −1.
        table[0] = vec![-1.0; slot_len];
        for j in 0..period {
            // History of the slot at position `period + j` (recorded period),
            // wrapping into the warm-up period for j < v−1.
            let mut h = 0usize;
            for k in 0..v {
                let idx = (period + j - k) % period;
                h |= (seq[idx] as usize) << k;
            }
            let start = (period + j) * slot_len;
            table[h] = out[start..start + slot_len].to_vec();
        }
        Self {
            v,
            slot_secs,
            fs,
            slot_len,
            table,
        }
    }

    /// History depth V.
    pub fn v(&self) -> usize {
        self.v
    }

    /// Slot duration in seconds.
    pub fn slot_secs(&self) -> f64 {
        self.slot_secs
    }

    /// Sample rate in Hz.
    pub fn fs(&self) -> f64 {
        self.fs
    }

    /// Samples per slot.
    pub fn slot_len(&self) -> usize {
        self.slot_len
    }

    /// Reference waveform for an explicit history word (bit 0 = current).
    pub fn reference(&self, history: usize) -> &[f64] {
        &self.table[history & ((1 << self.v) - 1)]
    }

    /// Emulate a single pixel's contrast waveform for a per-slot drive bit
    /// sequence, starting from the relaxed state (history zero-padded).
    pub fn emulate_pixel(&self, bits: &[bool]) -> Vec<f64> {
        let mut out = Vec::with_capacity(bits.len() * self.slot_len);
        let mut h = 0usize;
        let mask = (1usize << self.v) - 1;
        for &b in bits {
            h = ((h << 1) | b as usize) & mask;
            out.extend_from_slice(&self.table[h]);
        }
        out
    }
}

/// Relative L2 error `‖a − b‖ / ‖b‖` between two real waveforms of equal
/// length (the Tab. 2 metric).
///
/// # Panics
/// Panics if lengths differ.
pub fn relative_error(a: &[f64], b: &[f64]) -> f64 {
    let den: f64 = b.iter().map(|y| y * y).sum();
    relative_error_with_energy(a, b, den)
}

/// [`relative_error`] with the reference energy `‖b‖²` supplied by the
/// caller — for sweeps that compare many waveforms against the same
/// reference and shouldn't re-integrate it each time.
///
/// # Panics
/// Panics if lengths differ.
pub fn relative_error_with_energy(a: &[f64], b: &[f64], b_energy: f64) -> f64 {
    assert_eq!(a.len(), b.len(), "relative_error: length mismatch");
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (num / b_energy.max(f64::MIN_POSITIVE)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 40_000.0;
    const SLOT: f64 = 0.5e-3;

    fn set(v: usize) -> FingerprintSet {
        FingerprintSet::collect(&LcParams::default(), v, SLOT, FS)
    }

    #[test]
    fn table_complete() {
        let f = set(4);
        for h in 0..16 {
            assert_eq!(f.reference(h).len(), f.slot_len(), "history {h} missing");
        }
        assert_eq!(f.slot_len(), 20);
    }

    #[test]
    fn all_zero_history_is_relaxed() {
        let f = set(4);
        for &c in f.reference(0) {
            assert_eq!(c, -1.0);
        }
    }

    #[test]
    fn sustained_charge_saturates() {
        let f = set(6);
        let bits = vec![true; 8];
        let w = f.emulate_pixel(&bits);
        let tail = &w[w.len() - f.slot_len()..];
        for &c in tail {
            assert!(c > 0.97, "sustained charge should saturate, got {c}");
        }
    }

    #[test]
    fn emulation_tracks_direct_simulation() {
        // With deep history the emulator must closely match the ODE.
        let f = set(10);
        let bits: Vec<bool> = (0..40).map(|i| (i * 7 % 5) < 2).collect();
        let emu = f.emulate_pixel(&bits);
        // Direct ODE on the same drive.
        let mut drive = Vec::new();
        for &b in &bits {
            drive.extend(std::iter::repeat_n(b, f.slot_len()));
        }
        let direct = simulate(&LcParams::default(), LcState::relaxed(), &drive, 1.0 / FS);
        let err = relative_error(&emu, &direct);
        assert!(err < 0.05, "V=10 emulation error {err}");
    }

    #[test]
    fn error_decreases_with_v() {
        // The Tab. 2 trend: deeper history ⇒ better emulation.
        let bits: Vec<bool> = (0..60).map(|i| (i * 11 % 7) < 3).collect();
        let mut drive = Vec::new();
        let slot_len = (SLOT * FS) as usize;
        for &b in &bits {
            drive.extend(std::iter::repeat_n(b, slot_len));
        }
        let direct = simulate(&LcParams::default(), LcState::relaxed(), &drive, 1.0 / FS);
        let errs: Vec<f64> = [3usize, 6, 10]
            .iter()
            .map(|&v| relative_error(&set(v).emulate_pixel(&bits), &direct))
            .collect();
        assert!(
            errs[0] > errs[1] && errs[1] > errs[2],
            "errors not decreasing: {errs:?}"
        );
    }

    #[test]
    fn relative_error_basics() {
        let a = [1.0, 0.0];
        let b = [1.0, 0.0];
        assert_eq!(relative_error(&a, &b), 0.0);
        let c = [2.0, 0.0];
        assert!((relative_error(&c, &a) - 1.0).abs() < 1e-12);
    }
}
