//! Robustness sweep: BER / FER / goodput and the errors-and-erasures decode
//! margin along each impairment axis (clock ppm, ADC bits, blockage duty,
//! mid-frame SNR ramp), TSV to stdout.

use retroturbo_bench::{banner, fmt, header};
use retroturbo_sim::experiments::robustness::robustness_sweep;
use retroturbo_sim::experiments::Effort;

fn main() {
    banner("robustness", "graceful degradation under impairments");
    let rows = robustness_sweep(30.0, Effort::from_env(), 5);
    header(&[
        "axis",
        "value",
        "ber",
        "fer",
        "goodput",
        "erasures_flagged",
        "erasures_filled",
        "symbols_corrected",
    ]);
    for r in &rows {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.axis,
            fmt(r.value),
            fmt(r.ber),
            fmt(r.fer),
            fmt(r.goodput),
            r.erasures_flagged,
            r.erasures_filled,
            r.symbols_corrected
        );
    }
}
