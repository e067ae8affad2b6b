//! Order statistics and the result record every run prints.

use std::time::Duration;

/// Set-up repetitions per run; the median is reported, so one stall of
/// the host does not set the figure.
pub const SETUP_REPS: usize = 5;

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample.
/// Panics on an empty sample: every caller measures at least one unit.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The six end-to-end metrics every untraced run reports, in
/// `BENCHMARK.json` order.
pub struct EndToEnd {
    pub setup_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub frames_per_s: f64,
    pub packets_per_s: f64,
    pub sessions_per_s: f64,
}

impl EndToEnd {
    /// Append the six metrics to a report.
    pub fn append_to(self, r: &mut Report) {
        r.push("setup_s", self.setup_s, "s");
        r.push("latency_p50_ms", self.latency_p50_ms, "ms");
        r.push("latency_p99_ms", self.latency_p99_ms, "ms");
        r.push("frames_per_s", self.frames_per_s, "1/s");
        r.push("packets_per_s", self.packets_per_s, "1/s");
        r.push("sessions_per_s", self.sessions_per_s, "1/s");
    }
}

/// One run's outcome: work attempted and failed, extra correctness gates,
/// and the named metrics in output order.
#[derive(Debug, Default)]
pub struct Report {
    /// Units of work attempted (frames, packets or sessions).
    pub attempted: u64,
    /// Attempted units whose output was missing or wrong.
    pub failed: u64,
    /// Gates other than per-unit output checks that did not hold (generator
    /// lateness, backlog growth, stage composition, coverage); any entry
    /// marks the run incorrect.
    pub violations: Vec<String>,
    /// `(name, value, unit)` triples.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Append a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Record a failed gate.
    pub fn violate(&mut self, why: String) {
        eprintln!("perfbench: gate failed: {why}");
        self.violations.push(why);
    }

    /// Fold another report's work and gates into this one.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        self.metrics.extend(other.metrics);
    }

    /// The single-line JSON result object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // `{:?}` prints the shortest string that reads back as the
                // same f64, so no measured digit is lost.
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.violations.is_empty() && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
