//! Stored outputs of the `sweep` and `fleet` workloads.
//!
//! Both workloads draw their inputs from one of [`SEEDS`] input seeds
//! (`--seed` modulo [`SEEDS`]). For each, `fingerprints/sweep.tsv` holds the
//! IEEE-754 bit pattern of every BER row and `fingerprints/fleet.tsv` the
//! `FleetReport::canon()` string, recorded from the program with
//! `--regen-fingerprints`. A run whose output differs counts the affected
//! packets or sessions as failed.

use std::io::Write as _;
use std::path::Path;

/// Input seeds with stored outputs.
pub const SEEDS: u64 = 64;

const SWEEP: &str = include_str!("../fingerprints/sweep.tsv");
const FLEET: &str = include_str!("../fingerprints/fleet.tsv");

/// The input seed a benchmark seed selects.
pub fn input_seed(seed: u64) -> u64 {
    seed % SEEDS
}

/// The stored value for `input_seed` in a `seed<TAB>value` table (empty
/// when absent, which fails every comparison).
fn lookup(table: &str, input_seed: u64) -> &str {
    table
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once('\t'))
        .find(|(s, _)| s.parse() == Ok(input_seed))
        .map_or("", |(_, v)| v)
}

/// Stored BER bit patterns of the sweep rows, in grid order.
pub fn sweep(input_seed: u64) -> Vec<u64> {
    lookup(SWEEP, input_seed)
        .split(',')
        .filter_map(|h| u64::from_str_radix(h, 16).ok())
        .collect()
}

/// Stored canonical fleet report (`FleetReport::canon()`).
pub fn fleet(input_seed: u64) -> String {
    format!("{}\n", lookup(FLEET, input_seed))
}

/// Record both tables from the current program into `dir`.
pub fn regen(dir: &Path) -> std::io::Result<()> {
    let mut sweep = std::fs::File::create(dir.join("sweep.tsv"))?;
    let mut fleet = std::fs::File::create(dir.join("fleet.tsv"))?;
    writeln!(sweep, "seed\tber_bits")?;
    writeln!(fleet, "seed\tcanon")?;
    for s in 0..SEEDS {
        let rows: Vec<String> = crate::sweep::fingerprint(s)
            .iter()
            .map(|b| format!("{b:016x}"))
            .collect();
        writeln!(sweep, "{s}\t{}", rows.join(","))?;
        writeln!(fleet, "{s}\t{}", crate::fleet::fingerprint(s).trim_end())?;
        eprintln!("perfbench: recorded input seed {s}");
    }
    sweep.flush()?;
    fleet.flush()
}
