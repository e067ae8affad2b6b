//! # retroturbo-dsp
//!
//! Signal-processing substrate for the RetroTurbo reproduction: complex
//! arithmetic, sampled signals, FIR filters, rate conversion, AWGN
//! with a fixed SNR convention, small dense linear algebra (least squares,
//! widely-linear fits, Jacobi SVD), a radix-2 FFT with a proven error
//! bound, and the 455 kHz passband carrier chain of
//! the reader front end.
//!
//! Everything here is deterministic given explicit seeds and carries explicit
//! sample rates; see DESIGN.md §3 for the signal model and SNR convention.

// `unsafe` is denied crate-wide and re-allowed only inside `backend`, the
// SIMD kernel layer: every unsafe block there is an explicit-intrinsics path
// behind runtime feature detection, pinned to its scalar oracle by
// differential tests.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod carrier;
pub mod complex;
pub mod fft;
pub mod filter;
pub mod linalg;
pub mod noise;
pub mod resample;
pub mod signal;
pub mod window;

pub use complex::{C64, J};
pub use signal::Signal;
