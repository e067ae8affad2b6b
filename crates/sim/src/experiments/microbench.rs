//! §7.2.2 "Power" microbenchmark: the tag power model at the paper's rates.
//!
//! The latency half of §7.2.2 is measured end to end by perfbench's traced
//! `replay` run (EXPERIMENTS.md), and the per-symbol DFE cost by the
//! `dfe_equalize_*` rows of `BENCH_kernels.json`.

use crate::power::PowerModel;
use retroturbo_core::PhyConfig;

/// Power rows for the §7.2.2 "Power" microbenchmark.
#[derive(Debug, Clone)]
pub struct PowerRow {
    /// Configuration label.
    pub label: String,
    /// Average tag power, watts.
    pub power_w: f64,
}

/// Tag power at the paper's two experimental rates (should match: same DSM
/// symbol structure ⇒ same switching energy).
pub fn power_table() -> Vec<PowerRow> {
    let model = PowerModel::default();
    [
        ("4kbps", PhyConfig::default_4kbps()),
        ("8kbps", PhyConfig::default_8kbps()),
        ("16kbps", PhyConfig::default_16kbps()),
    ]
    .iter()
    .map(|(label, cfg)| PowerRow {
        label: (*label).into(),
        power_w: model.average_power_w(cfg),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_rate_independent() {
        let rows = power_table();
        assert!((rows[0].power_w - rows[1].power_w).abs() < 1e-9);
        assert!(rows[0].power_w < 1.0e-3, "not sub-mW: {}", rows[0].power_w);
    }
}
