//! # retroturbo-core
//!
//! The RetroTurbo physical layer — the paper's primary contribution:
//!
//! * **DSM** (delayed superimposition modulation, §4.1): L interleaved LCM
//!   modules per polarization channel launch overlapping pulses every
//!   T seconds, converting the LC's slow discharge from a rate ceiling into
//!   controlled, equalizable ISI.
//! * **PQAM** (polarization-based QAM, §4.2): two module groups 45° apart
//!   form an orthogonal basis in the doubled-angle polarization plane —
//!   a full QAM constellation that survives arbitrary roll misalignment as
//!   a pure rotation.
//! * **Receiver** (§4.3): widely-linear preamble correction, per-packet
//!   channel training against module heterogeneity (truncated KL bases +
//!   complex least squares), and a K-branch decision-feedback equalizer.
//! * **Analysis** (§5): waveform-distance performance index and the optimal
//!   (L, P, T) search.
//!
//! ## Quick start
//!
//! ```
//! use retroturbo_core::{params::PhyConfig, frame::Modulator, receiver::Receiver,
//!                       synth::TagModel};
//! use retroturbo_lcm::LcParams;
//! use retroturbo_dsp::Signal;
//!
//! let mut cfg = PhyConfig::default_8kbps();
//! cfg.l_order = 4; cfg.preamble_slots = 12; cfg.training_rounds = 4; // small demo
//! let bits: Vec<bool> = (0..40).map(|i| i % 3 == 0).collect();
//!
//! let tx = Modulator::new(cfg);
//! let frame = tx.modulate(&bits);
//! // Ideal channel: render the expected waveform directly.
//! let wave = TagModel::nominal(&cfg, &LcParams::default()).render_levels(&frame.levels);
//!
//! let rx = Receiver::new(cfg, &LcParams::default(), 2);
//! let sig = Signal::new(wave, cfg.fs);
//! let out = rx.receive_window(&sig, 0, sig.len(), bits.len()).unwrap();
//! assert_eq!(out.bits, bits);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod basic_dsm;
pub mod constellation;
pub mod dfe;
pub mod frame;
pub mod params;
pub mod perf_index;
pub mod preamble;
pub mod pulse;
pub mod receiver;
pub mod synth;
pub mod training;

pub use constellation::{Constellation, PqamSymbol};
pub use dfe::Equalizer;
pub use frame::{FramePlan, Modulator};
pub use params::PhyConfig;
pub use preamble::{PreambleDetector, PreambleMatch};
pub use receiver::{Receiver, RxError, RxResult};
pub use synth::TagModel;
pub use training::{OfflineTraining, OnlineTrainer};
