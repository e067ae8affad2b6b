//! Experiment drivers: one function per table/figure of the paper's
//! evaluation (§7) plus the design-analysis artifacts of §2/§4/§5.
//!
//! Every driver is deterministic given its parameters, returns plain data
//! rows, and is wrapped by a binary in `retroturbo-bench` that prints the
//! same rows/series the paper reports (see DESIGN.md §4 for the index and
//! EXPERIMENTS.md for recorded paper-vs-measured results).

pub mod ablation;
pub mod emu_error;
pub mod field;
pub mod microbench;
pub mod mobility;
pub mod multiaccess;
pub mod network;
pub mod robustness;
pub mod thresholds;
pub mod waveforms;

/// Effort profile for the heavier experiments: `quick` for CI-sized runs,
/// `full` for paper-scale statistics (30 × 128-byte packets per point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Reduced packet counts/sizes; minutes of runtime.
    Quick,
    /// Paper-scale protocol (§7.1: 30 packets × 128 bytes per point).
    Full,
}

impl Effort {
    /// Read from the `RETRO_FULL` environment variable: any non-empty value
    /// other than `0` selects [`Effort::Full`]; unset, empty or `0` selects
    /// [`Effort::Quick`].
    pub fn from_env() -> Self {
        match std::env::var("RETRO_FULL") {
            Ok(v) if !v.is_empty() && v != "0" => Effort::Full,
            _ => Effort::Quick,
        }
    }

    /// Packets per BER point.
    pub fn packets(&self) -> usize {
        match self {
            Effort::Quick => 6,
            Effort::Full => 30,
        }
    }

    /// Payload bytes per packet.
    pub fn payload_bytes(&self) -> usize {
        match self {
            Effort::Quick => 32,
            Effort::Full => 128,
        }
    }
}
