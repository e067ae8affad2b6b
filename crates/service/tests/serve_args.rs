//! `retroturbo-serve` rejects bad arguments before it spawns a service.

use std::process::Command;

/// Zero workers, one worker past the bound of 64, an unparsable argument,
/// a non-finite SNR and an extra argument all print the usage line and exit
/// with code 2 instead of panicking, falling back to a default or running.
/// The bound is probed only just above it: a broken check must not be
/// able to start a large number of threads.
#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["1", "0"][..],
        &["x"][..],
        &["1", "65", "35"][..],
        &["1", "1", "nan"][..],
        &["1", "1", "inf"][..],
        &["1", "1", "35", "extra"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_retroturbo-serve"))
            .args(args)
            .output()
            .expect("run retroturbo-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr={stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: stderr={stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: stderr={stderr}");
    }
}
