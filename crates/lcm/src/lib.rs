//! # retroturbo-lcm
//!
//! Liquid-crystal modulator substrate: the nonlinear, asymmetric switching
//! dynamics that motivate the whole RetroTurbo design, binary-weighted pixel
//! banks, the full 2L-module tag panel with manufacturing heterogeneity,
//! m-sequence excitation, and the V-bit fingerprint emulator of §5.2.
//!
//! The ODE model in [`dynamics`] substitutes for the paper's physical LCM
//! (see DESIGN.md §1); its constants are unit-tested against the paper's
//! published timings (charge ≲ 0.5 ms, ~1 ms discharge plateau, ≈ 4 ms full
//! discharge).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamics;
pub mod fingerprint;
pub mod kernel;
pub mod mls;
pub mod panel;
pub mod pixel;

pub use dynamics::{LcParams, LcRates, LcState};
pub use fingerprint::FingerprintSet;
pub use kernel::PanelKernel;
pub use panel::{DriveCommand, Heterogeneity, Panel};
pub use pixel::{LcPixel, PixelBank};
