//! PHY configuration: the DSM/PQAM parameter set of Tab. 1.

/// Full parameter set of a RetroTurbo PHY instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhyConfig {
    /// DSM order L: modules per polarization channel; ISI spans L symbols.
    pub l_order: usize,
    /// PQAM order P (a perfect square up to 256): symbols carry log2(P) bits.
    pub pqam_order: usize,
    /// DSM interleaving time T, seconds (one symbol slot).
    pub t_slot: f64,
    /// Baseband sample rate, Hz.
    pub fs: f64,
    /// Training/equalizer memory V: firing-history bits per module
    /// (current + V−1 previous cycles).
    pub v_memory: usize,
    /// DFE branch count K (1 = hard-decision DFE; P^L = Viterbi).
    pub k_branches: usize,
    /// Preamble length in slots.
    pub preamble_slots: usize,
    /// Online-training pilot length in module-firing rounds (each round is
    /// one W = L·T window in which every module fires a known bit).
    pub training_rounds: usize,
}

impl PhyConfig {
    /// The paper's default 8 kbps configuration: 8-DSM, 16-PQAM, T = 0.5 ms
    /// (Tab. 1), V = 2, K = 16.
    pub fn default_8kbps() -> Self {
        Self {
            l_order: 8,
            pqam_order: 16,
            t_slot: 0.5e-3,
            fs: 40_000.0,
            v_memory: 3,
            k_branches: 16,
            preamble_slots: 24,
            training_rounds: 8,
        }
    }

    /// 4 kbps: halve the per-symbol bits (4-PQAM).
    pub fn default_4kbps() -> Self {
        Self {
            pqam_order: 4,
            ..Self::default_8kbps()
        }
    }

    /// 16 kbps: 8-DSM, 256-PQAM (the prototype tag's maximum, §7.3).
    pub fn default_16kbps() -> Self {
        Self {
            pqam_order: 256,
            ..Self::default_8kbps()
        }
    }

    /// 32 kbps emulation configuration: 16-DSM at T = 0.25 ms with 256-PQAM.
    pub fn emulation_32kbps() -> Self {
        Self {
            l_order: 16,
            pqam_order: 256,
            t_slot: 0.25e-3,
            fs: 40_000.0,
            v_memory: 3,
            k_branches: 16,
            preamble_slots: 48,
            training_rounds: 8,
        }
    }

    /// 1 kbps low-rate configuration (robust, lowest threshold): 2-DSM,
    /// 4-PQAM at T = 2 ms — the optimum the §5.3 parameter search finds at
    /// this rate (full-swing pulses, maximum energy per bit).
    pub fn default_1kbps() -> Self {
        Self {
            l_order: 2,
            pqam_order: 4,
            t_slot: 2.0e-3,
            fs: 40_000.0,
            v_memory: 3,
            k_branches: 16,
            preamble_slots: 8,
            training_rounds: 4,
        }
    }

    /// Validate invariants; call after hand-constructing a config.
    ///
    /// # Panics
    /// Panics on an invalid combination.
    pub fn validate(&self) {
        assert!(self.l_order >= 1, "L must be >= 1");
        let p = self.pqam_order;
        assert!((2..=256).contains(&p), "P must be in 2..=256");
        if p > 2 {
            let sq = (p as f64).sqrt().round() as usize;
            assert_eq!(sq * sq, p, "P must be a perfect square (or 2)");
            assert!(sq.is_power_of_two(), "√P must be a power of two");
        }
        assert!(self.t_slot > 0.0 && self.fs > 0.0);
        let spt = self.t_slot * self.fs;
        assert!(
            (spt - spt.round()).abs() < 1e-9 && spt >= 2.0,
            "T must be an integer number (>= 2) of samples, got {spt}"
        );
        assert!(self.v_memory >= 1 && self.v_memory <= 8, "V must be 1..=8");
        assert!(self.k_branches >= 1);
    }

    /// Samples per slot.
    pub fn samples_per_slot(&self) -> usize {
        (self.t_slot * self.fs).round() as usize
    }

    /// Levels per PQAM axis: √P (P = 2 degenerates to BPSK-like 2 levels on
    /// the I axis only).
    pub fn levels_per_axis(&self) -> usize {
        if self.pqam_order == 2 {
            2
        } else {
            (self.pqam_order as f64).sqrt().round() as usize
        }
    }

    /// Drive bits per module needed to express the per-axis levels.
    pub fn bits_per_module(&self) -> usize {
        (self.levels_per_axis() as f64).log2().round() as usize
    }

    /// Bits carried per slot (= per PQAM symbol).
    pub fn bits_per_symbol(&self) -> usize {
        (self.pqam_order as f64).log2().round() as usize
    }

    /// Raw data rate in bit/s: log2(P) / T.
    pub fn data_rate(&self) -> f64 {
        self.bits_per_symbol() as f64 / self.t_slot
    }

    /// Stable fingerprint over every field (configs with equal fingerprints
    /// are equal up to f64 bit patterns). Used as a cache-key component by
    /// the sweep engine and the process-wide receiver cache.
    pub fn fingerprint(&self) -> u64 {
        fp_fold(&[
            self.render_fingerprint(),
            self.v_memory as u64,
            self.k_branches as u64,
        ])
    }

    /// Fingerprint over the *waveform-shaping* fields only: everything that
    /// determines a tag's clean rendered waveform for a given payload —
    /// modulation geometry (L, P), timing (T, fs) and frame structure
    /// (preamble, training rounds). Receiver-side knobs (`v_memory`,
    /// `k_branches`) are deliberately excluded so e.g. a DFE branch-count
    /// sweep re-noises one cached render instead of re-rendering per K.
    pub fn render_fingerprint(&self) -> u64 {
        fp_fold(&[
            self.l_order as u64,
            self.pqam_order as u64,
            self.t_slot.to_bits(),
            self.fs.to_bits(),
            self.preamble_slots as u64,
            self.training_rounds as u64,
        ])
    }
}

/// Order-sensitive 64-bit hash fold (splitmix64 finalizer per word). Not
/// cryptographic — only has to separate distinct configs in a cache map.
/// Public so downstream cache keys (e.g. the sweep engine's render
/// fingerprints) compose with [`PhyConfig::render_fingerprint`] using the
/// same mixer.
#[inline]
pub fn fp_fold(words: &[u64]) -> u64 {
    let mut h: u64 = 0x243F_6A88_85A3_08D3; // pi digits: fixed non-zero init
    for &w in words {
        let mut z = h ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rates_match_paper() {
        assert!((PhyConfig::default_8kbps().data_rate() - 8_000.0).abs() < 1e-9);
        assert!((PhyConfig::default_4kbps().data_rate() - 4_000.0).abs() < 1e-9);
        assert!((PhyConfig::default_16kbps().data_rate() - 16_000.0).abs() < 1e-9);
        assert!((PhyConfig::emulation_32kbps().data_rate() - 32_000.0).abs() < 1e-9);
        assert!((PhyConfig::default_1kbps().data_rate() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn all_presets_validate() {
        PhyConfig::default_8kbps().validate();
        PhyConfig::default_4kbps().validate();
        PhyConfig::default_16kbps().validate();
        PhyConfig::emulation_32kbps().validate();
        PhyConfig::default_1kbps().validate();
    }

    #[test]
    fn derived_quantities() {
        let c = PhyConfig::default_8kbps();
        assert_eq!(c.samples_per_slot(), 20);
        assert_eq!(c.levels_per_axis(), 4);
        assert_eq!(c.bits_per_module(), 2);
        assert_eq!(c.bits_per_symbol(), 4);
    }

    #[test]
    fn p2_special_case() {
        let mut c = PhyConfig::default_1kbps();
        c.pqam_order = 2;
        c.validate();
        assert_eq!(c.levels_per_axis(), 2);
        assert_eq!(c.bits_per_module(), 1);
        assert_eq!(c.bits_per_symbol(), 1);
    }

    #[test]
    fn one_kbps_preset_is_search_optimum() {
        // The 1 kbps preset matches the §5.3 search result: 2-DSM, 4-PQAM,
        // T = 2 ms (see tab3_optimal_params).
        let c = PhyConfig::default_1kbps();
        assert_eq!((c.l_order, c.pqam_order), (2, 4));
        assert!((c.t_slot - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn fingerprints_separate_configs() {
        let base = PhyConfig::default_8kbps();
        assert_eq!(base.fingerprint(), base.fingerprint());
        assert_ne!(base.fingerprint(), PhyConfig::default_4kbps().fingerprint());
        assert_ne!(
            base.render_fingerprint(),
            PhyConfig::default_4kbps().render_fingerprint()
        );
        // Receiver-side knobs change the full fingerprint but NOT the render
        // fingerprint — that is what lets K/V sweeps share cached renders.
        let k4 = PhyConfig {
            k_branches: 4,
            ..base
        };
        let v1 = PhyConfig {
            v_memory: 1,
            ..base
        };
        assert_ne!(base.fingerprint(), k4.fingerprint());
        assert_ne!(base.fingerprint(), v1.fingerprint());
        assert_eq!(base.render_fingerprint(), k4.render_fingerprint());
        assert_eq!(base.render_fingerprint(), v1.render_fingerprint());
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn rejects_non_square_p() {
        let mut c = PhyConfig::default_8kbps();
        c.pqam_order = 8;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "integer number")]
    fn rejects_fractional_slot() {
        let mut c = PhyConfig::default_8kbps();
        c.t_slot = 0.33e-3;
        c.validate();
    }
}
