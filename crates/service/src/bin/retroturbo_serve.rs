//! `retroturbo-serve` — run the streaming decode service against a
//! synthesized sample stream and print what it recovers.
//!
//! ```text
//! retroturbo-serve [frames] [workers] [snr_db]
//! ```
//!
//! Defaults: 24 frames, 2 workers, 35 dB. An unparsable argument, a
//! worker count outside 1..=64, a non-finite `snr_db` or an extra argument
//! prints the usage line and exits with code 2 before anything is spawned. A feeder thread
//! synthesizes frames with the loopback channel recipe and pushes them into
//! the service's sample ring in small chunks, like a front end delivering
//! ADC buffers; the main thread consumes in-order decode events and prints
//! a per-frame line plus the final pipeline stats.

use retroturbo_mac::CodingChoice;
use retroturbo_service::{loopback_phy, DecodeService, ServiceEvent, Testbed};

/// Most decode workers the demo starts: each is an OS thread.
const MAX_WORKERS: usize = 64;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, default: &str| args.get(i).map_or(default.to_string(), String::clone);
    let (Ok(frames), Ok(workers @ 1..=MAX_WORKERS), Some(snr_db), None) = (
        arg(0, "24").parse::<u64>(),
        arg(1, "2").parse::<usize>(),
        arg(2, "35").parse::<f64>().ok().filter(|x| x.is_finite()),
        args.get(3),
    ) else {
        eprintln!("usage: retroturbo-serve [frames] [workers 1..={MAX_WORKERS}] [snr_db (finite)]");
        std::process::exit(2);
    };

    let bed = Testbed::new(
        loopback_phy(2, 4),
        20,
        Some(CodingChoice { n: 44, k: 22 }),
        0x5B,
    )
    .with_snr(snr_db);
    let mut cfg = bed.service_config();
    cfg.workers = workers;

    let frame_samples = bed.frame(0, 1).samples.len();
    println!(
        "retroturbo-serve: {frames} frames x {frame_samples} samples, {workers} workers, {snr_db} dB"
    );

    let svc = DecodeService::spawn(cfg);
    let input = svc.input();
    let feeder_bed = bed.clone();
    let feeder = std::thread::spawn(move || {
        const CHUNK: usize = 256; // an ADC buffer's worth per push
        for i in 0..frames {
            let scene = feeder_bed.frame(i, 42);
            for chunk in scene.samples.chunks(CHUNK) {
                input.push(chunk, None);
            }
        }
        input.push(&feeder_bed.idle(2 * frame_samples), None);
        input.close();
    });

    let mut ok = 0u64;
    while let Some(ev) = svc.recv() {
        match ev {
            ServiceEvent::Frame(f) => {
                let expect = bed.payload_for(f.seq);
                let verdict = if f.payload == expect {
                    "ok"
                } else {
                    "MISMATCH"
                };
                if f.payload == expect {
                    ok += 1;
                }
                println!(
                    "frame {:>3} @ {:>8}: {} ({} B, {} sym corrected, {} erasures filled, {:.2} ms)",
                    f.seq,
                    f.offset,
                    verdict,
                    f.payload.len(),
                    f.symbols_corrected,
                    f.erasures_filled,
                    f.latency.as_secs_f64() * 1e3,
                );
            }
            ServiceEvent::Dropped {
                seq,
                offset,
                reason,
            } => {
                println!("frame {seq:>3} @ {offset:>8}: dropped ({reason:?})");
            }
        }
    }
    feeder.join().expect("feeder panicked");
    let stats = svc.shutdown();

    println!(
        "\n{ok}/{frames} payloads recovered; detected {} decoded {} degraded {} dropped {}",
        stats.frames_detected, stats.frames_decoded, stats.frames_degraded, stats.frames_dropped
    );
    println!(
        "samples: {} in, {} lost; mean queue depth frame {:.2} out {:.2}",
        stats.samples_pushed,
        stats.samples_lost,
        stats.frame_queue_depth.mean(),
        stats.out_queue_depth.mean()
    );
    if ok != frames {
        std::process::exit(1);
    }
}
