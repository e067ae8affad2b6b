//! The repository benchmark: four workloads over the RetroTurbo stack,
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! traced run. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream|replay|sweep|fleet> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --list
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod fingerprints;
mod fleet;
mod service;
mod stages;
mod stats;
mod sweep;
mod trace;

use stats::Report;
use std::path::Path;

const WORKLOADS: [&str; 4] = ["stream", "replay", "sweep", "fleet"];

/// `(name, unit)` of the end-to-end metrics, in output order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("frames_per_s", "1/s"),
    ("packets_per_s", "1/s"),
    ("sessions_per_s", "1/s"),
];

/// `(name, unit, better, what it should move)` of the per-layer metrics,
/// in output order.
const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    (
        "stream.service.ring.push_us",
        "us",
        "lower",
        "stream.latency_p50_ms",
    ),
    (
        "stream.service.framer.wait_ms",
        "ms",
        "lower",
        "stream.latency_p50_ms",
    ),
    (
        "stream.service.queue.wait_ms",
        "ms",
        "lower",
        "stream.latency_p99_ms",
    ),
    (
        "stream.service.frame_queue.depth_mean",
        "frames",
        "lower",
        "stream.latency_p99_ms",
    ),
    (
        "stream.service.out_queue.depth_mean",
        "events",
        "lower",
        "stream.latency_p99_ms",
    ),
    (
        "stream.service.frames.degraded",
        "count",
        "lower",
        "failed share of stream",
    ),
    (
        "stream.service.frames.dropped",
        "count",
        "lower",
        "failed share of stream",
    ),
    (
        "stream.service.samples.lost",
        "count",
        "lower",
        "failed share of stream",
    ),
    (
        "stream.core.detect.busy_ms",
        "ms",
        "lower",
        "stream.latency_p50_ms",
    ),
    (
        "stream.core.train.busy_ms",
        "ms",
        "lower",
        "stream.latency_p50_ms",
    ),
    (
        "stream.core.dfe.busy_ms",
        "ms",
        "lower",
        "stream.latency_p50_ms",
    ),
    (
        "stream.core.demap.busy_ms",
        "ms",
        "lower",
        "stream.latency_p50_ms",
    ),
    (
        "stream.mac.recover.busy_ms",
        "ms",
        "lower",
        "stream.latency_p50_ms",
    ),
    (
        "stream.mac.recover.erasures_filled",
        "1/frame",
        "lower",
        "stream.latency_p50_ms",
    ),
    (
        "stream.mac.recover.failed",
        "count",
        "lower",
        "failed share of stream",
    ),
    (
        "stream.realtime.decode_per_airtime",
        "ratio",
        "lower",
        "stream.latency_p50_ms",
    ),
    ("stream.stages.coverage", "ratio", "higher", "all of stream"),
    (
        "stream.latency_p50_ms",
        "ms",
        "lower",
        "latency_p50_ms, stream traced only",
    ),
    (
        "stream.latency_p99_ms",
        "ms",
        "lower",
        "latency_p99_ms, stream traced only",
    ),
    (
        "stream.generator.late_p99_ms",
        "ms",
        "lower",
        "validity of stream",
    ),
    (
        "stream.backlog.growth",
        "ratio",
        "lower",
        "stream.latency_p99_ms",
    ),
    (
        "stream.trace.overhead_ms",
        "ms",
        "lower",
        "stream.latency_p50_ms",
    ),
    (
        "replay.service.framer.gap_ms",
        "ms",
        "lower",
        "frames_per_s on replay",
    ),
    (
        "replay.service.framer.gap_first_tenth_ms",
        "ms",
        "lower",
        "frames_per_s on replay",
    ),
    (
        "replay.service.framer.gap_last_tenth_ms",
        "ms",
        "lower",
        "frames_per_s on replay",
    ),
    (
        "replay.service.frame_queue.depth_mean",
        "frames",
        "lower",
        "frames_per_s on replay",
    ),
    (
        "replay.service.out_queue.depth_mean",
        "events",
        "lower",
        "frames_per_s on replay",
    ),
    (
        "replay.service.frames.degraded",
        "count",
        "lower",
        "failed share on replay",
    ),
    (
        "replay.service.frames.dropped",
        "count",
        "lower",
        "failed share on replay",
    ),
    (
        "replay.service.samples.lost",
        "count",
        "lower",
        "failed share on replay",
    ),
    (
        "replay.core.detect.busy_ms",
        "ms",
        "lower",
        "frames_per_s on replay",
    ),
    (
        "replay.core.train.busy_ms",
        "ms",
        "lower",
        "frames_per_s on replay",
    ),
    (
        "replay.core.dfe.busy_ms",
        "ms",
        "lower",
        "frames_per_s on replay",
    ),
    (
        "replay.core.demap.busy_ms",
        "ms",
        "lower",
        "frames_per_s on replay",
    ),
    (
        "replay.mac.recover.busy_ms",
        "ms",
        "lower",
        "frames_per_s on replay",
    ),
    (
        "replay.mac.recover.erasures_filled",
        "1/frame",
        "lower",
        "frames_per_s on replay",
    ),
    (
        "replay.mac.recover.failed",
        "count",
        "lower",
        "failed share on replay",
    ),
    (
        "replay.realtime.decode_per_airtime",
        "ratio",
        "lower",
        "frames_per_s on replay",
    ),
    ("replay.stages.coverage", "ratio", "higher", "all on replay"),
    (
        "replay.service.worker_scaling",
        "ratio",
        "higher",
        "frames_per_s on replay",
    ),
    (
        "replay.trace.overhead_fps",
        "1/s",
        "higher",
        "frames_per_s on replay",
    ),
    (
        "sweep.core.detect.busy_ms",
        "ms",
        "lower",
        "packets_per_s on sweep (little)",
    ),
    (
        "sweep.core.train.busy_ms",
        "ms",
        "lower",
        "packets_per_s on sweep",
    ),
    (
        "sweep.core.dfe.busy_ms",
        "ms",
        "lower",
        "packets_per_s on sweep",
    ),
    (
        "sweep.core.demap.busy_ms",
        "ms",
        "lower",
        "packets_per_s on sweep",
    ),
    (
        "sweep.sim.channel.busy_ms",
        "ms",
        "lower",
        "packets_per_s on sweep",
    ),
    (
        "sweep.lcm.render.busy_ms",
        "ms",
        "lower",
        "packets_per_s on sweep",
    ),
    (
        "sweep.lcm.render.calls",
        "count",
        "lower",
        "packets_per_s on sweep",
    ),
    (
        "sweep.dsp.noise.busy_ms",
        "ms",
        "lower",
        "packets_per_s on sweep",
    ),
    (
        "sweep.sim.sweep.decodes_per_render",
        "ratio",
        "higher",
        "packets_per_s on sweep",
    ),
    (
        "sweep.realtime.decode_per_airtime",
        "ratio",
        "lower",
        "packets_per_s on sweep",
    ),
    (
        "sweep.runtime.scaling",
        "ratio",
        "higher",
        "packets_per_s on sweep",
    ),
    ("sweep.stages.coverage", "ratio", "higher", "all on sweep"),
    (
        "sweep.trace.overhead_pps",
        "1/s",
        "higher",
        "packets_per_s on sweep",
    ),
    (
        "fleet.plan.busy_us",
        "us",
        "lower",
        "sessions_per_s on fleet",
    ),
    (
        "fleet.session.busy_us",
        "us",
        "lower",
        "sessions_per_s on fleet",
    ),
    (
        "fleet.aggregate.busy_ms",
        "ms",
        "lower",
        "sessions_per_s on fleet",
    ),
    (
        "fleet.mac.attempts_per_frame",
        "ratio",
        "lower",
        "sessions_per_s on fleet",
    ),
    (
        "fleet.delivery_rate",
        "ratio",
        "higher",
        "sessions_per_s on fleet",
    ),
    (
        "fleet.runtime.scaling",
        "ratio",
        "higher",
        "sessions_per_s on fleet",
    ),
    ("fleet.stages.coverage", "ratio", "higher", "all on fleet"),
    (
        "fleet.trace.overhead_sps",
        "1/s",
        "higher",
        "sessions_per_s on fleet",
    ),
];

/// Where the traced run writes its spans (relative to the working
/// directory, the repository root).
const TRACE_DIR: &str = ".bench_out";

const USAGE: &str =
    "usage: perfbench --workload <stream|replay|sweep|fleet> --seed <n> --seconds <s> --trace <0|1>
       perfbench --list
       perfbench --regen-fingerprints";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    List,
    Regen,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--list" => return Ok(Command::List),
            "--regen-fingerprints" => return Ok(Command::Regen),
            _ => {}
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Command::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    }))
}

/// Every per-layer metric: all four workloads traced, the named workload
/// included, since each traced run reports the whole per-layer set.
fn traced(args: &Args) -> Report {
    let out = Path::new(TRACE_DIR);
    let mut r = service::stream_traced(args.seed, args.seconds, out);
    r.absorb(service::replay_traced(args.seed, out));
    r.absorb(sweep::sweep_traced(args.seed, out));
    r.absorb(fleet::fleet_traced(args.seed, out));
    r
}

fn untraced(args: &Args) -> Report {
    match args.workload.as_str() {
        "stream" => service::stream(args.seed, args.seconds),
        "replay" => service::replay(args.seed, args.seconds),
        "sweep" => sweep::sweep(args.seed, args.seconds),
        "fleet" => fleet::fleet(args.seed, args.seconds),
        w => unreachable!("workload {w} passed validation"),
    }
}

fn main() {
    let cmd = match parse(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let args = match cmd {
        Command::List => {
            println!("kind\tname\tunit\tbetter\tmoves");
            for (name, unit) in END_TO_END {
                let better = if name.ends_with("_per_s") {
                    "higher"
                } else {
                    "lower"
                };
                println!("end_to_end\t{name}\t{unit}\t{better}\t-");
            }
            for (name, unit, better, moves) in PER_LAYER {
                println!("per_layer\t{name}\t{unit}\t{better}\t{moves}");
            }
            return;
        }
        Command::Regen => {
            let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fingerprints");
            if let Err(e) = fingerprints::regen(&dir) {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
            return;
        }
        Command::Run(a) => a,
    };
    let mut report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    // The metric set is part of the benchmark's contract: a run that
    // reports another set is not a valid run.
    let got: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|(n, _, u)| (n.as_str(), *u))
        .collect();
    let want: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u, _, _)| (n, u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    if got != want {
        report.violate(format!("metric set differs from the declared one: {got:?}"));
    }
    if let Some((name, value, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        report.violate(format!("{name} is not finite: {value}"));
    }
    println!("{}", report.to_json());
}
