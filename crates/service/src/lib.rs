//! Streaming decode service: a staged receive pipeline from a raw sample
//! ring to recovered frames.
//!
//! Everything below `crates/service` turns the one-shot
//! `retroturbo_core::Receiver` into a long-running ingestion service:
//!
//! * [`SampleRing`] — a lossy bounded ring the producer can always push
//!   into; overruns surface as erasure placeholders, never as skew.
//! * [`Bounded`] — the blocking MPMC queues between stages; their capacity
//!   is the backpressure mechanism.
//! * [`DecodeService`] — the pipeline itself: framer thread → worker pool →
//!   in-order event stream, spawned from a [`ServiceConfig`].
//! * [`Testbed`] — deterministic stream synthesis for tests and benches.
//!
//! Overload policy, stage graph, and the determinism argument are in
//! DESIGN.md §14. The `retroturbo-serve` binary is a runnable demo.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pipeline;
mod queue;
mod ring;
mod testbed;

pub use pipeline::{
    DecodeService, DropReason, ServiceConfig, ServiceEvent, ServiceFrame, ServiceInput,
    ServiceStats,
};
pub use queue::{Bounded, QueueDepth};
pub use ring::{RingStats, SampleRing};
pub use testbed::{loopback_phy, FrameScene, Testbed};
