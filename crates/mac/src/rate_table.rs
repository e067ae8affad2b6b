//! SNR → (bit rate, coding rate) adaptation table (§4.4).
//!
//! The reader piggybacks a suggested bit rate and coding rate on the
//! downlink, chosen from a table profiled against measured goodput-vs-SNR
//! curves ("a database profiled with real world experimental data"). The
//! default table below is profiled from this repository's own Fig. 18a/18b
//! sweeps; `retroturbo-sim` regenerates it.

use retroturbo_telemetry as telemetry;

/// Reed–Solomon coding choice for a rate option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodingChoice {
    /// Codeword length n (symbols).
    pub n: usize,
    /// Message length k (symbols).
    pub k: usize,
}

impl CodingChoice {
    /// Code rate k/n.
    pub fn rate(&self) -> f64 {
        self.k as f64 / self.n as f64
    }
}

/// One selectable PHY operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateOption {
    /// Human-readable label (e.g. "8kbps").
    pub name: &'static str,
    /// Raw PHY bit rate, bit/s.
    pub bit_rate: f64,
    /// Minimum SNR (dB) at which this option achieves ≤1% BER.
    pub min_snr_db: f64,
    /// Optional RS coding (None = uncoded).
    pub coding: Option<CodingChoice>,
}

impl RateOption {
    /// Effective goodput at the option's operating point (bit rate × code
    /// rate), ignoring retransmissions.
    pub fn goodput(&self) -> f64 {
        self.bit_rate * self.coding.map_or(1.0, |c| c.rate())
    }
}

/// An ordered set of operating points (descending goodput).
#[derive(Debug, Clone)]
pub struct RateTable {
    options: Vec<RateOption>,
}

impl RateTable {
    /// Build from options; they are sorted by descending goodput.
    ///
    /// # Panics
    /// Panics if empty.
    pub fn new(mut options: Vec<RateOption>) -> Self {
        assert!(!options.is_empty(), "RateTable: need at least one option");
        options.sort_by(|a, b| b.goodput().total_cmp(&a.goodput()));
        Self { options }
    }

    /// The default table: thresholds profiled with the repository's Fig. 18a
    /// emulation sweep (see EXPERIMENTS.md), shaped like the paper's Tab. 3.
    pub fn profiled_default() -> Self {
        // Mirrors the paper's option set: error-correction variants on the
        // top rate (its Fig. 18b study), plain rates below. Thresholds from
        // this repository's Fig. 18a sweep.
        Self::new(vec![
            RateOption {
                name: "32kbps",
                bit_rate: 32_000.0,
                min_snr_db: 48.5,
                coding: None,
            },
            RateOption {
                name: "32kbps+rs251",
                bit_rate: 32_000.0,
                min_snr_db: 46.5,
                coding: Some(CodingChoice { n: 255, k: 251 }),
            },
            RateOption {
                name: "32kbps+rs223",
                bit_rate: 32_000.0,
                min_snr_db: 44.0,
                coding: Some(CodingChoice { n: 255, k: 223 }),
            },
            RateOption {
                name: "16kbps",
                bit_rate: 16_000.0,
                min_snr_db: 38.0,
                coding: None,
            },
            RateOption {
                name: "8kbps",
                bit_rate: 8_000.0,
                min_snr_db: 23.5,
                coding: None,
            },
            RateOption {
                name: "4kbps",
                bit_rate: 4_000.0,
                min_snr_db: 16.0,
                coding: None,
            },
            RateOption {
                name: "1kbps",
                bit_rate: 1_000.0,
                min_snr_db: -1.5,
                coding: None,
            },
            RateOption {
                name: "1kbps+rs127",
                bit_rate: 1_000.0,
                min_snr_db: -6.0,
                coding: Some(CodingChoice { n: 255, k: 127 }),
            },
        ])
    }

    /// All options, descending goodput.
    pub fn options(&self) -> &[RateOption] {
        &self.options
    }

    /// Highest-goodput option usable at `snr_db` (with `margin_db` backoff),
    /// falling back to the most robust option.
    pub fn select(&self, snr_db: f64, margin_db: f64) -> RateOption {
        let choice = self
            .options
            .iter()
            .find(|o| snr_db - margin_db >= o.min_snr_db)
            .copied()
            .unwrap_or_else(|| *self.options.last().unwrap());
        telemetry::counter_inc("mac.rate_decisions");
        if telemetry::enabled() {
            telemetry::counter_inc(&format!("mac.rate.{}", choice.name));
            telemetry::observe("mac.rate_goodput", choice.goodput());
            // Margin the decision leaves against the option's threshold.
            telemetry::observe(
                "mac.rate_snr_headroom_db",
                snr_db - margin_db - choice.min_snr_db,
            );
        }
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_by_snr() {
        let t = RateTable::profiled_default();
        assert_eq!(t.select(60.0, 0.0).name, "32kbps");
        assert_eq!(t.select(30.0, 0.0).name, "8kbps");
        assert_eq!(t.select(10.0, 0.0).name, "1kbps");
    }

    #[test]
    fn margin_backs_off() {
        let t = RateTable::profiled_default();
        let no_margin = t.select(29.0, 0.0);
        let with_margin = t.select(29.0, 3.0);
        assert!(with_margin.goodput() <= no_margin.goodput());
    }

    #[test]
    fn hopeless_snr_falls_back_to_most_robust() {
        let t = RateTable::profiled_default();
        // The last option is the lowest-threshold one.
        assert_eq!(t.select(-30.0, 0.0).name, "1kbps+rs127");
    }

    #[test]
    fn options_sorted_by_goodput() {
        let t = RateTable::profiled_default();
        for w in t.options().windows(2) {
            assert!(w[0].goodput() >= w[1].goodput());
        }
    }

    #[test]
    fn coded_goodput_discounted() {
        let o = RateOption {
            name: "x",
            bit_rate: 32_000.0,
            min_snr_db: 0.0,
            coding: Some(CodingChoice { n: 255, k: 251 }),
        };
        // 1/64 of max throughput sacrificed (paper, Fig. 18b).
        assert!((o.goodput() - 32_000.0 * 251.0 / 255.0).abs() < 1e-9);
    }

    #[test]
    fn monotone_selection_in_snr() {
        let t = RateTable::profiled_default();
        let mut prev = 0.0;
        for snr in (-10..70).step_by(2) {
            let g = t.select(snr as f64, 0.0).goodput();
            assert!(g >= prev, "goodput dropped at {snr} dB");
            prev = g;
        }
    }
}
