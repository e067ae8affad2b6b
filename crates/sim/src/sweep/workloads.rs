//! Standard [`SweepWorkload`] implementations: the field (full-ODE) link
//! sweeps of Fig. 16 and the emulated BER-vs-SNR sweeps of Fig. 18a.

use super::{CleanPacket, GridPoint, SweepWorkload};
use crate::link::LinkSimulator;
use crate::EmulatedLink;
use retroturbo_core::params::fp_fold;
use retroturbo_telemetry as telemetry;

/// The standard per-point output: BER plus the point's effective SNR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerOut {
    /// Measured bit error rate.
    pub ber: f64,
    /// Effective SNR at the point, dB.
    pub snr_db: f64,
}

/// Which no-cache measurement path a field sweep uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldOracle {
    /// The production pipeline (`LinkSimulator::run_ber`): each packet
    /// rendered afresh, then the same re-noise and decode as a cache hit.
    Fused,
    /// The end-to-end scalar reference pipeline
    /// (`LinkSimulator::run_packet_scalar_reference`) — the slowest, most
    /// literal oracle, for differential tests and benchmark baselines.
    Scalar,
}

/// Field sweep over full-ODE [`LinkSimulator`] points: `make(curve, x)`
/// builds the simulator for a grid cell (closing over configs, scenes and
/// the experiment seed). Cache hits re-noise the clean per-packet renders;
/// misses (or [`super::CacheMode::NoCache`]) run the `oracle` path.
pub struct FieldSweep<F: Fn(usize, f64) -> LinkSimulator + Sync> {
    /// Simulator factory for a grid cell.
    pub make: F,
    /// Packets per point.
    pub n_packets: usize,
    /// Payload bytes per packet.
    pub payload_bytes: usize,
    /// No-cache measurement path.
    pub oracle: FieldOracle,
}

impl<F: Fn(usize, f64) -> LinkSimulator + Sync> SweepWorkload for FieldSweep<F> {
    type Render = Vec<CleanPacket>;
    type Out = BerOut;

    fn render_key(&self, p: &GridPoint) -> Option<u64> {
        let sim = (self.make)(p.curve, p.x);
        Some(fp_fold(&[
            sim.render_fingerprint(),
            self.n_packets as u64,
            self.payload_bytes as u64,
        ]))
    }

    fn render(&self, p: &GridPoint) -> Vec<CleanPacket> {
        let sim = (self.make)(p.curve, p.x);
        let mut scratch = sim.make_scratch();
        (0..self.n_packets as u64)
            .map(|pk| {
                let bits = sim.packet_bits(self.payload_bytes, pk);
                let wave = sim.render_clean(&mut scratch, &bits);
                let unit_noise = sim.packet_unit_noise(wave.len(), pk);
                CleanPacket {
                    bits,
                    wave,
                    unit_noise,
                }
            })
            .collect()
    }

    fn measure(&self, p: &GridPoint, cached: Option<&Vec<CleanPacket>>) -> BerOut {
        let mut sim = (self.make)(p.curve, p.x);
        let snr_db = sim.effective_snr_db();
        let ber = match cached {
            Some(renders) => {
                // Same packet order, same integer error/total sums as
                // `run_ber`, so the final division is bit-identical.
                let _t = telemetry::span("sweep.run_ber");
                let mut scratch = sim.make_scratch();
                let (mut errs, mut total) = (0usize, 0usize);
                for (pk, cp) in renders.iter().enumerate() {
                    let _s = telemetry::span("sweep.renoise");
                    let o = sim.run_renoised(
                        &mut scratch,
                        &cp.bits,
                        &cp.wave,
                        &cp.unit_noise,
                        pk as u64,
                    );
                    errs += o.bit_errors;
                    total += o.bits;
                }
                telemetry::counter_add("sweep.packets", renders.len() as u64);
                telemetry::counter_add("sweep.payload_bits", total as u64);
                telemetry::counter_add("sweep.bit_errors", errs as u64);
                errs as f64 / total.max(1) as f64
            }
            None => match self.oracle {
                FieldOracle::Fused => sim.run_ber(self.n_packets, self.payload_bytes),
                FieldOracle::Scalar => {
                    let (mut errs, mut total) = (0usize, 0usize);
                    for pk in 0..self.n_packets as u64 {
                        let bits = sim.packet_bits(self.payload_bytes, pk);
                        let o = sim.run_packet_scalar_reference(&bits, pk);
                        errs += o.bit_errors;
                        total += o.bits;
                    }
                    errs as f64 / total.max(1) as f64
                }
            },
        };
        BerOut { ber, snr_db }
    }

    fn ber(out: &BerOut) -> f64 {
        out.ber
    }
}

/// Emulated sweep over [`EmulatedLink`] points (Fig. 18a shape): the curve
/// index picks a rate/config, `x` is the SNR in dB. All points of a curve
/// share one render key (the clean renders and noise normals do not depend
/// on SNR), so an N-point curve renders once and re-noises N times — the
/// paper's §7.3 evaluation protocol, literally.
pub struct EmuSweep<F: Fn(usize, f64) -> EmulatedLink + Sync> {
    /// Link factory for a grid cell (`curve`, `x` = SNR dB).
    pub make: F,
    /// Packets per point.
    pub n_packets: usize,
    /// Payload bytes per packet.
    pub payload_bytes: usize,
    /// Payload RNG seed (shared by every point, as `fig18a` does).
    pub data_seed: u64,
}

impl<F: Fn(usize, f64) -> EmulatedLink + Sync> SweepWorkload for EmuSweep<F> {
    type Render = Vec<CleanPacket>;
    type Out = BerOut;

    fn render_key(&self, p: &GridPoint) -> Option<u64> {
        let link = (self.make)(p.curve, p.x);
        Some(fp_fold(&[
            link.render_fingerprint(),
            self.data_seed,
            self.n_packets as u64,
            self.payload_bytes as u64,
        ]))
    }

    fn render(&self, p: &GridPoint) -> Vec<CleanPacket> {
        (self.make)(p.curve, p.x).render_packets(self.n_packets, self.payload_bytes, self.data_seed)
    }

    fn measure(&self, p: &GridPoint, cached: Option<&Vec<CleanPacket>>) -> BerOut {
        let mut link = (self.make)(p.curve, p.x);
        let snr_db = link.snr_db();
        let ber = match cached {
            Some(renders) => {
                let _t = telemetry::span("sweep.run_ber");
                let ber = link.run_ber_renoise(renders);
                telemetry::counter_add("sweep.packets", renders.len() as u64);
                ber
            }
            None => link.run_ber(self.n_packets, self.payload_bytes, self.data_seed),
        };
        BerOut { ber, snr_db }
    }

    fn ber(out: &BerOut) -> f64 {
        out.ber
    }
}
