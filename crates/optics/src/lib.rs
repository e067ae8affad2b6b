//! # retroturbo-optics
//!
//! Polarization optics substrate for the RetroTurbo reproduction: linear
//! polarization angles and Malus's law, the doubled-angle constellation space
//! that PQAM modulates in, differential (PDR) reception, and retroreflector
//! orientation geometry.
//!
//! The central fact, proved in `basis` and exploited throughout the PHY: a
//! transmitter pixel at polarization angle θ contributes along the complex
//! axis `e^{j2θ}`, so pixels 45° apart are orthogonal and a physical roll of
//! Δθ is a pure constellation rotation of 2Δθ.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod angle;
pub mod basis;
pub mod polarizer;
pub mod retro;

pub use angle::PolAngle;
pub use basis::{axis, roll_rotation, ReceiverPair};
pub use polarizer::{channel_coefficient, malus, PixelMixture};
pub use retro::{Orientation, Retroreflector};
