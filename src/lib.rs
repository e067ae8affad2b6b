//! # RetroTurbo
//!
//! A full-system Rust reproduction of **"Turboboosting Visible Light
//! Backscatter Communication"** (SIGCOMM 2020): the DSM + PQAM physical
//! layer, its demodulation pipeline, and every substrate it runs on —
//! liquid-crystal modulator physics, polarization optics, DSP front end,
//! Reed–Solomon coding, and a rate-adaptive MAC — plus an end-to-end
//! simulator and a benchmark harness regenerating every table and figure of
//! the paper's evaluation.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! paths. Start with [`phy`] (the paper's contribution) and [`sim`] (the
//! end-to-end experiments); DESIGN.md maps every subsystem and experiment.
//!
//! ```
//! use retroturbo::phy::{Modulator, PhyConfig, Receiver, TagModel};
//! use retroturbo::lcm::LcParams;
//! use retroturbo::dsp::Signal;
//!
//! // A small DSM×PQAM link over an ideal channel.
//! let mut cfg = PhyConfig::default_8kbps();
//! cfg.l_order = 4; cfg.preamble_slots = 12; cfg.training_rounds = 4;
//! let bits: Vec<bool> = (0..40).map(|i| i % 3 == 0).collect();
//! let frame = Modulator::new(cfg).modulate(&bits);
//! let wave = TagModel::nominal(&cfg, &LcParams::default()).render_levels(&frame.levels);
//! let rx = Receiver::new(cfg, &LcParams::default(), 2);
//! let sig = Signal::new(wave, cfg.fs);
//! let out = rx.receive_window(&sig, 0, sig.len(), bits.len()).unwrap();
//! assert_eq!(out.bits, bits);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Channel coding: GF(256), Reed–Solomon, CRC, scrambler, Gray code,
/// interleaver.
pub use retroturbo_coding as coding;
/// The core PHY: DSM + PQAM modulation, preamble correction, channel
/// training, the K-branch DFE, performance-index analysis.
pub use retroturbo_core as phy;
/// DSP substrate: complex signals, filters, noise, linear algebra, the
/// 455 kHz passband chain.
pub use retroturbo_dsp as dsp;
/// Liquid-crystal modulator model: nonlinear dynamics, pixel banks, panel,
/// fingerprint emulator.
pub use retroturbo_lcm as lcm;
/// MAC: rate adaptation, ARQ, discovery, TDMA.
pub use retroturbo_mac as mac;
/// Polarization optics: Malus's law, the doubled-angle constellation space,
/// retroreflector geometry.
pub use retroturbo_optics as optics;
/// Streaming decode service: staged pipeline from a sample ring to
/// recovered frames, with bounded queues, a persistent worker pool, and
/// overload degradation (see DESIGN.md §14).
pub use retroturbo_service as service;
/// End-to-end simulation and the per-figure experiment drivers.
pub use retroturbo_sim as sim;
