//! `retroturbo` — command-line driver for ad-hoc link studies.
//!
//! ```text
//! retroturbo info
//! retroturbo link    --distance 5 [--rate 8k] [--roll 30] [--yaw 20] [--packets 10] [--bytes 32] [--seed 1]
//! retroturbo emulate --snr 30 [--rate 8k] [--packets 10] [--bytes 32] [--seed 1]
//! retroturbo range   [--rate 8k]
//! ```

use retroturbo::mac::RateTable;
use retroturbo::phy::PhyConfig;
use retroturbo::sim::{EmulatedLink, LinkBudget, LinkSimulator, Scene};
use std::collections::HashMap;
use std::process::ExitCode;

fn parse_rate(s: &str) -> Option<PhyConfig> {
    match s {
        "1k" | "1kbps" => Some(PhyConfig::default_1kbps()),
        "4k" | "4kbps" => Some(PhyConfig::default_4kbps()),
        "8k" | "8kbps" => Some(PhyConfig::default_8kbps()),
        "16k" | "16kbps" => Some(PhyConfig::default_16kbps()),
        "32k" | "32kbps" => Some(PhyConfig::emulation_32kbps()),
        _ => None,
    }
}

/// The 1 %-BER threshold of `cfg`'s bit rate, uncoded, from the rate
/// table the MAC adapts with.
fn rate_table_threshold_db(cfg: &PhyConfig) -> f64 {
    RateTable::profiled_default()
        .options()
        .iter()
        .find(|o| o.coding.is_none() && (o.bit_rate - cfg.data_rate()).abs() < 0.5)
        .expect("every preset's bit rate has an uncoded rate-table option")
        .min_snr_db
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let k = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
        let v = args
            .get(i + 1)
            .ok_or_else(|| format!("--{k} needs a value"))?;
        map.insert(k.to_string(), v.clone());
        i += 2;
    }
    Ok(map)
}

fn get_f64(m: &HashMap<String, String>, k: &str, default: f64) -> Result<f64, String> {
    match m.get(k) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{k}: bad number '{v}'")),
    }
}

fn get_usize(m: &HashMap<String, String>, k: &str, default: usize) -> Result<usize, String> {
    match m.get(k) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{k}: bad integer '{v}'")),
    }
}

fn usage() {
    eprintln!("usage:");
    eprintln!("  retroturbo info");
    eprintln!("  retroturbo link    --distance <m> [--rate 8k] [--roll <deg>] [--yaw <deg>] [--packets <n>] [--bytes <n>] [--seed <s>]");
    eprintln!(
        "  retroturbo emulate --snr <dB> [--rate 8k] [--packets <n>] [--bytes <n>] [--seed <s>]"
    );
    eprintln!("  retroturbo range   [--rate 8k]");
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return Err("no command".into());
    };
    let flags = parse_flags(&args[1..])?;
    let rate_name = flags.get("rate").cloned().unwrap_or_else(|| "8k".into());
    let cfg = parse_rate(&rate_name).ok_or_else(|| format!("unknown rate '{rate_name}'"))?;

    match cmd.as_str() {
        "info" => {
            println!("preset\tL\tP\tT_ms\trate_kbps\tthreshold_dB(1% BER, rate table)");
            for name in ["1k", "4k", "8k", "16k", "32k"] {
                let c = parse_rate(name).unwrap();
                println!(
                    "{name}\t{}\t{}\t{}\t{}\t{}",
                    c.l_order,
                    c.pqam_order,
                    c.t_slot * 1e3,
                    c.data_rate() / 1e3,
                    rate_table_threshold_db(&c)
                );
            }
            Ok(())
        }
        "link" => {
            let d = get_f64(&flags, "distance", f64::NAN)?;
            if d.is_nan() {
                return Err("link: --distance is required".into());
            }
            let scene = Scene::default_at(d)
                .with_roll(get_f64(&flags, "roll", 0.0)?)
                .with_yaw(get_f64(&flags, "yaw", 0.0)?);
            let seed = get_usize(&flags, "seed", 1)? as u64;
            let mut sim = LinkSimulator::new(cfg, LinkBudget::fov10(), scene, seed);
            eprintln!(
                "running {} packets of {} bytes at {d} m ({} kbit/s)…",
                get_usize(&flags, "packets", 10)?,
                get_usize(&flags, "bytes", 32)?,
                cfg.data_rate() / 1e3
            );
            let snr = sim.effective_snr_db();
            let ber = sim.run_ber(
                get_usize(&flags, "packets", 10)?,
                get_usize(&flags, "bytes", 32)?,
            );
            println!("snr_dB\t{snr:.1}");
            println!("ber\t{ber:.6}");
            println!("reliable\t{}", ber < 0.01);
            Ok(())
        }
        "emulate" => {
            let snr = get_f64(&flags, "snr", f64::NAN)?;
            if snr.is_nan() {
                return Err("emulate: --snr is required".into());
            }
            let seed = get_usize(&flags, "seed", 1)? as u64;
            let mut link = EmulatedLink::new(cfg, snr, seed);
            let ber = link.run_ber(
                get_usize(&flags, "packets", 10)?,
                get_usize(&flags, "bytes", 32)?,
                seed ^ 0xE11,
            );
            println!("ber\t{ber:.6}");
            println!("reliable\t{}", ber < 0.01);
            Ok(())
        }
        "range" => {
            let b = LinkBudget::fov10();
            let th = rate_table_threshold_db(&cfg);
            println!(
                "{} needs {th} dB -> working range ≈ {:.1} m (FoV ±10°, 4 W)",
                rate_name,
                b.range_for_snr(th)
            );
            Ok(())
        }
        other => {
            usage();
            Err(format!("unknown command '{other}'"))
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
