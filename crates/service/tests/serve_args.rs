//! `retroturbo-serve` rejects bad arguments before it spawns a service.

use std::process::Command;

/// Zero workers and an unparsable argument both print the usage line and
/// exit with code 2 instead of panicking or falling back to a default.
#[test]
fn bad_arguments_exit_with_usage() {
    for args in [&["1", "0"][..], &["x"][..]] {
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
