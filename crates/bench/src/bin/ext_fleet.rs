//! Extension (§8 "Efficient Multiple Access"): the multi-tag fleet layer's
//! aggregate per fleet size — 1000 deterministic tag↔reader sessions
//! (discovery → weighted TDMA → capture-resolved collisions) each.

use retroturbo_bench::{banner, fmt, header};
use retroturbo_sim::fleet::{run_fleet, FleetConfig};

fn main() {
    banner(
        "ext-fleet",
        "multi-tag fleet goodput/fairness/latency percentiles per fleet size",
    );
    header(&[
        "tags",
        "sessions",
        "goodput_p50_bps",
        "goodput_p90_bps",
        "goodput_p99_bps",
        "fairness_p10",
        "fairness_p50",
        "latency_p50_s",
        "latency_p99_s",
        "delivery_rate",
        "mean_attempts",
    ]);
    for tags in [2, 4, 8] {
        let r = run_fleet(&FleetConfig::new(tags), 1000, 0xF1EE);
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.tags,
            r.sessions,
            fmt(r.sum_goodput_p50_bps),
            fmt(r.sum_goodput_p90_bps),
            fmt(r.sum_goodput_p99_bps),
            fmt(r.fairness_p10),
            fmt(r.fairness_p50),
            fmt(r.latency_p50_s),
            fmt(r.latency_p99_s),
            fmt(r.delivery_rate),
            fmt(r.mean_attempts)
        );
    }
    eprintln!("# session throughput: perfbench --workload fleet");
}
