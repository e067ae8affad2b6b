//! # retroturbo-bench
//!
//! The benchmark harness: one binary per table/figure of the paper
//! (`src/bin/…`, printing the same rows/series the paper reports, TSV to
//! stdout), plus the `bench_kernels` microbenchmark, which writes
//! `BENCH_kernels.json` through [`emit_bench_json`] and exits nonzero when a
//! reference/optimized checksum pair diverges.
//!
//! Binaries default to a quick profile; set `RETRO_FULL=1` for the
//! paper-scale protocol (30 × 128-byte packets per point, §7.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use retroturbo_dsp::backend;
use retroturbo_sim::experiments::Effort;

/// Print a TSV header line.
pub fn header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Format a float compactly for TSV output.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 0.01 && x.abs() < 1e6 {
        format!("{x:.4}")
    } else {
        format!("{x:.3e}")
    }
}

/// Print one experiment banner with the paper artifact it regenerates.
pub fn banner(id: &str, what: &str) {
    eprintln!("# {id}: {what}");
    eprintln!(
        "# profile: {} (set RETRO_FULL=1 for the paper-scale protocol)",
        match Effort::from_env() {
            Effort::Full => "FULL",
            Effort::Quick => "quick",
        }
    );
}

/// Render a `BENCH_*.json` document: the shared `meta` provenance block
/// (runtime SIMD detection, which decides the kernel body every dispatched
/// row ran; the host's CPU features; the effort profile) followed by `key`
/// holding one pre-formatted JSON object per row.
fn bench_json(quick: bool, key: &str, rows: &[String]) -> String {
    let feats = backend::cpu_features()
        .iter()
        .map(|(name, on)| format!("\"{name}\": {on}"))
        .collect::<Vec<_>>()
        .join(", ");
    let mut json = format!(
        "{{\n  \"meta\": {{\n    \"simd_available\": {},\n    \"cpu_features\": {{{feats}}},\n    \"quick\": {quick}\n  }},\n  \"{key}\": [\n",
        backend::simd_available(),
    );
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!("    {row}{sep}\n"));
    }
    json.push_str("  ]\n}\n");
    json
}

/// Write a `BENCH_*.json` document — the shared `meta` block for this run's
/// profile, then `key` holding one pre-formatted JSON object per row — to
/// the path in env var `out_var` (else `default_path`), and echo it to
/// stdout.
pub fn emit_bench_json(out_var: &str, default_path: &str, key: &str, rows: &[String]) {
    let quick = Effort::from_env() == Effort::Quick;
    let json = bench_json(quick, key, rows);
    let path = std::env::var(out_var).unwrap_or_else(|_| default_path.into());
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("# wrote {path}");
    print!("{json}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.1234), "0.1234");
        assert!(fmt(1e-7).contains('e'));
        assert!(fmt(1e9).contains('e'));
    }

    #[test]
    fn bench_json_shape() {
        let rows = ["{\"a\": 1}".to_string(), "{\"a\": 2}".to_string()];
        let json = bench_json(true, "kernels", &rows);
        let head = format!(
            "{{\n  \"meta\": {{\n    \"simd_available\": {},\n    \"cpu_features\": {{",
            backend::simd_available()
        );
        assert!(json.starts_with(&head), "{json}");
        assert!(
            json.ends_with("},\n    \"quick\": true\n  },\n  \"kernels\": [\n    {\"a\": 1},\n    {\"a\": 2}\n  ]\n}\n"),
            "{json}"
        );
        assert!(bench_json(false, "sweeps", &[]).ends_with("\"sweeps\": [\n  ]\n}\n"));
    }
}
