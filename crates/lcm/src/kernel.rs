//! Struct-of-arrays fast kernel for [`Panel`] simulation.
//!
//! [`Panel::simulate_reference`] walks `Vec<PixelBank>` → `Vec<LcPixel>`
//! every sample and recomputes the per-module `axis(θ, 0°)` phasor (two trig
//! calls) for every module at every output sample. [`PanelKernel`] flattens
//! the same computation:
//!
//! * all pixel state lives in flat arrays (`x[]`, `u[]`, `driven[]`,
//!   `weight[]`, per-pixel [`LcParams`](crate::LcParams)), grouped by module;
//! * the per-module complex axis coefficient and gain are precomputed once at
//!   construction;
//! * the sample loop is segmented by drive command: between commands every
//!   pixel's drive bit is constant, so the RK2 step and the weighted
//!   accumulation run branch-free over contiguous runs;
//! * within a segment the loop stays *sample-major* (all pixels advance one
//!   step, then the output sample is folded). Pixel-major would amortize the
//!   state loads but serializes each pixel's RK2 dependency chain; sample-
//!   major keeps ~2L·bits independent chains in flight per sample, which
//!   measures ~2× faster on out-of-order cores;
//! * output is written into a caller-provided buffer, so a steady-state
//!   packet loop performs no allocation.
//!
//! **Bit-identity contract**: for any drive plan the kernel produces exactly
//! the same output bits and end state as [`Panel::simulate_reference`]. The
//! accumulation order is preserved operand-for-operand: each sample's module
//! sum folds from `0.0` over pixels most-significant-first, each module
//! contribution is `coeff · (gain · Σ)` and the complex sum folds from zero
//! in module order — the same sequence the reference's `sum::<f64>()` /
//! `sum::<C64>()` perform. Differential tests (unit + proptest) enforce this.

use crate::dynamics::{LcRates, LcState};
use crate::panel::{DriveCommand, Panel};
use retroturbo_dsp::{backend, C64};
use retroturbo_optics::PolAngle;

/// Flat struct-of-arrays panel state with precomputed optics coefficients.
///
/// Build once per worker with [`PanelKernel::from_panel`], then alternate
/// [`PanelKernel::restore`] / [`PanelKernel::simulate_into`] per packet —
/// no per-packet allocation, no panel clone.
#[derive(Debug, Clone)]
pub struct PanelKernel {
    // --- per-pixel state (grouped by module, most-significant bit first) ---
    x: Vec<f64>,
    u: Vec<f64>,
    driven: Vec<bool>,
    /// `driven` as full-width lane masks (`u64::MAX` / `0`) for the
    /// branch-free vector RK2 (`blendv` selects by sign bit); kept in sync
    /// with `driven` by [`Self::set_level`] / [`Self::restore`].
    drive_mask: Vec<u64>,
    weight: Vec<f64>,
    /// Per-pixel reciprocal time constants (`LcRates::new` of the pixel's
    /// [`LcParams`]) stored struct-of-arrays so the vector kernel loads each
    /// constant as a contiguous lane; cached once so the per-sample RK2
    /// never divides.
    inv_charge: Vec<f64>,
    inv_ready_up: Vec<f64>,
    inv_relax: Vec<f64>,
    inv_ready_down: Vec<f64>,
    delta: Vec<f64>,
    /// Per-pixel weighted contrast `w·(2x−1)` of the current sample. Staging
    /// the per-pixel values here (instead of accumulating inline) keeps the
    /// RK2 branch-free and vector-wide; the module fold afterwards replays
    /// the reference's exact `acc += contrib[p]` order, so nothing changes
    /// bit-wise.
    contrib: Vec<f64>,
    // --- construction-time snapshot for restore() ---
    snap_x: Vec<f64>,
    snap_u: Vec<f64>,
    snap_driven: Vec<bool>,
    // --- per-module constants ---
    /// `axis(θ_m, 0°)` phasor, precomputed once (the reference recomputes
    /// this per module per sample).
    coeff: Vec<C64>,
    gain: Vec<f64>,
    /// Pixel range of module `m` is `pixel_start[m]..pixel_start[m + 1]`.
    pixel_start: Vec<usize>,
}

impl PanelKernel {
    /// Capture a panel's full state (pixel dynamics, drive bits, gains,
    /// polarizer axes) into flat arrays. The captured state also becomes the
    /// [`Self::restore`] snapshot.
    pub fn from_panel(panel: &Panel) -> Self {
        let n_modules = panel.module_count();
        let zero_axis = PolAngle::from_degrees(0.0);
        let mut k = Self {
            x: Vec::new(),
            u: Vec::new(),
            driven: Vec::new(),
            drive_mask: Vec::new(),
            weight: Vec::new(),
            inv_charge: Vec::new(),
            inv_ready_up: Vec::new(),
            inv_relax: Vec::new(),
            inv_ready_down: Vec::new(),
            delta: Vec::new(),
            contrib: Vec::new(),
            snap_x: Vec::new(),
            snap_u: Vec::new(),
            snap_driven: Vec::new(),
            coeff: Vec::with_capacity(n_modules),
            gain: Vec::with_capacity(n_modules),
            pixel_start: Vec::with_capacity(n_modules + 1),
        };
        for m in 0..n_modules {
            let bank = panel.module(m);
            k.pixel_start.push(k.x.len());
            let c = retroturbo_optics::axis(bank.angle, zero_axis);
            k.coeff.push(c);
            k.gain.push(bank.gain);
            for p in bank.pixels() {
                k.x.push(p.state.x);
                k.u.push(p.state.u);
                k.driven.push(p.driven);
                k.drive_mask.push(if p.driven { u64::MAX } else { 0 });
                k.weight.push(p.weight);
                let r = LcRates::new(&p.params);
                k.inv_charge.push(r.inv_charge);
                k.inv_ready_up.push(r.inv_ready_up);
                k.inv_relax.push(r.inv_relax);
                k.inv_ready_down.push(r.inv_ready_down);
                k.delta.push(r.delta);
            }
        }
        k.pixel_start.push(k.x.len());
        k.contrib = vec![0.0; k.x.len()];
        k.snap_x = k.x.clone();
        k.snap_u = k.u.clone();
        k.snap_driven = k.driven.clone();
        k
    }

    /// Restore the pixel state captured at construction (the snapshot/restore
    /// replacement for cloning a pristine panel per packet).
    pub fn restore(&mut self) {
        self.x.copy_from_slice(&self.snap_x);
        self.u.copy_from_slice(&self.snap_u);
        self.driven.copy_from_slice(&self.snap_driven);
        for p in 0..self.driven.len() {
            self.drive_mask[p] = if self.driven[p] { u64::MAX } else { 0 };
        }
    }

    /// Number of modules.
    pub fn module_count(&self) -> usize {
        self.coeff.len()
    }

    /// Apply a drive level to module `m` (same binary expansion as
    /// [`crate::pixel::PixelBank::set_level`]).
    ///
    /// # Panics
    /// Panics if `level` is out of range for the module.
    fn set_level(&mut self, m: usize, level: usize) {
        let lo = self.pixel_start[m];
        let hi = self.pixel_start[m + 1];
        let bits = hi - lo;
        assert!(level < (1usize << bits), "set_level: {level} out of range");
        for k in 0..bits {
            let on = (level >> (bits - 1 - k)) & 1 == 1;
            self.driven[lo + k] = on;
            self.drive_mask[lo + k] = if on { u64::MAX } else { 0 };
        }
    }

    /// Simulate `out.len()` samples at `fs` Hz under `commands`, writing the
    /// post-step panel output into `out` (every element is overwritten, so
    /// stale buffer contents are fine).
    ///
    /// Command semantics match [`Panel::simulate_reference`]: the queue is
    /// consumed in order; every command at the head with `sample <= s` is
    /// applied at sample `s` (late commands apply at the next simulated
    /// sample instead of stalling the queue).
    pub fn simulate_into(&mut self, commands: &[DriveCommand], fs: f64, out: &mut [C64]) {
        let n_samples = out.len();
        let dt = 1.0 / fs;
        let mut ci = 0;
        let mut s = 0;
        while s < n_samples {
            while ci < commands.len() && commands[ci].sample <= s {
                let c = commands[ci];
                self.set_level(c.module, c.level);
                ci += 1;
            }
            // Drive bits are now constant until the next command (the head of
            // the remaining queue has sample > s).
            let seg_end = if ci < commands.len() {
                commands[ci].sample.min(n_samples)
            } else {
                n_samples
            };
            self.run_segment(s, seg_end, dt, out);
            s = seg_end;
        }
    }

    /// Branch-free run over `[s0, s1)` with the reference's exact
    /// accumulation order (see module docs): per sample, each module's sum
    /// folds from `0.0` over its pixels most-significant-first, the complex
    /// output folds from zero in module order, and the sample is *assigned*
    /// (the reference pushes it) — never accumulated into, so a `−0.0`
    /// component survives bit-exactly.
    fn run_segment(&mut self, s0: usize, s1: usize, dt: f64, out: &mut [C64]) {
        let n_modules = self.coeff.len();
        for o in &mut out[s0..s1] {
            // All pixels advance one RK2 step, staging `w·(2x−1)` per pixel.
            // The vector path is bit-identical to the scalar one (see
            // `retroturbo_dsp::backend`), and staging does not reorder any
            // addition: the fold below replays the reference's exact
            // `acc += w·(2x−1)` sequence, pixels most-significant-first.
            backend::lc_rk2_contrib(
                &mut self.x,
                &mut self.u,
                &self.drive_mask,
                &self.weight,
                &self.inv_charge,
                &self.inv_ready_up,
                &self.inv_relax,
                &self.inv_ready_down,
                &self.delta,
                dt,
                &mut self.contrib,
            );
            let mut z = C64::new(0.0, 0.0);
            for m in 0..n_modules {
                let mut acc = 0.0;
                for p in self.pixel_start[m]..self.pixel_start[m + 1] {
                    acc += self.contrib[p];
                }
                // Same operand order as the reference's
                // `axis(...) * bank.output()`: C64 · (gain · Σ).
                z += self.coeff[m] * (self.gain[m] * acc);
            }
            *o = z;
        }
    }

    /// Write the kernel's pixel state back into `panel` (which must have the
    /// same geometry it was built from).
    ///
    /// # Panics
    /// Panics if the panel's module/pixel layout differs from construction.
    pub fn write_back(&self, panel: &mut Panel) {
        assert_eq!(
            panel.module_count(),
            self.coeff.len(),
            "write_back: module count mismatch"
        );
        for m in 0..panel.module_count() {
            let lo = self.pixel_start[m];
            let hi = self.pixel_start[m + 1];
            let bank = panel.module_mut(m);
            assert_eq!(bank.bits(), hi - lo, "write_back: pixel count mismatch");
            for (k, p) in (lo..hi).enumerate() {
                let px = bank.pixel_mut(k);
                px.state = LcState {
                    x: self.x[p],
                    u: self.u[p],
                };
                px.driven = self.driven[p];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::LcParams;
    use crate::panel::Heterogeneity;

    const FS: f64 = 40_000.0;

    fn bits_of(sig: &[C64]) -> Vec<(u64, u64)> {
        sig.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    fn panel_state_bits(p: &Panel) -> Vec<(u64, u64, bool)> {
        (0..p.module_count())
            .flat_map(|m| {
                p.module(m)
                    .pixels()
                    .iter()
                    .map(|px| (px.state.x.to_bits(), px.state.u.to_bits(), px.driven))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn demo_commands() -> Vec<DriveCommand> {
        vec![
            DriveCommand {
                sample: 0,
                module: 0,
                level: 15,
            },
            DriveCommand {
                sample: 0,
                module: 3,
                level: 7,
            },
            DriveCommand {
                sample: 17,
                module: 1,
                level: 9,
            },
            DriveCommand {
                sample: 17,
                module: 0,
                level: 0,
            },
            DriveCommand {
                sample: 300,
                module: 2,
                level: 12,
            },
            DriveCommand {
                sample: 301,
                module: 3,
                level: 1,
            },
            DriveCommand {
                sample: 555,
                module: 1,
                level: 15,
            },
        ]
    }

    #[test]
    fn kernel_matches_reference_bitwise() {
        let mk = || Panel::retroturbo(2, 4, LcParams::default(), Heterogeneity::typical(), 11);
        let mut p_ref = mk();
        let mut p_soa = mk();
        let cmds = demo_commands();
        let ref_sig = p_ref.simulate_reference(&cmds, 900, FS);
        let soa_sig = p_soa.simulate(&cmds, 900, FS);
        assert_eq!(bits_of(ref_sig.samples()), bits_of(soa_sig.samples()));
        assert_eq!(panel_state_bits(&p_ref), panel_state_bits(&p_soa));
    }

    #[test]
    fn restore_resets_to_construction_state() {
        let mut p = Panel::retroturbo(2, 4, LcParams::default(), Heterogeneity::none(), 1);
        let mut k = PanelKernel::from_panel(&p);
        let cmds = demo_commands();
        let mut out1 = vec![C64::new(0.0, 0.0); 400];
        k.simulate_into(&cmds, FS, &mut out1);
        k.restore();
        let mut out2 = vec![C64::new(0.0, 0.0); 400];
        k.simulate_into(&cmds, FS, &mut out2);
        assert_eq!(bits_of(&out1), bits_of(&out2));
        // And both match a fresh panel run.
        let sig = p.simulate(&cmds, 400, FS);
        assert_eq!(bits_of(sig.samples()), bits_of(&out1));
    }

    #[test]
    fn late_commands_apply_instead_of_stalling() {
        // Regression for the silent-drop bug: an out-of-order command used to
        // stall the queue (`== s` never matched once `sample < s`), silently
        // dropping every later command. Both paths must now apply the late
        // command at the next sample and keep consuming the queue.
        let mk = || Panel::retroturbo(1, 4, LcParams::default(), Heterogeneity::none(), 1);
        let unsorted = vec![
            DriveCommand {
                sample: 50,
                module: 0,
                level: 15,
            },
            DriveCommand {
                sample: 10,
                module: 1,
                level: 15,
            }, // late: applies at s=50
            DriveCommand {
                sample: 120,
                module: 0,
                level: 0,
            },
        ];
        let mut p_ref = mk();
        let mut p_soa = mk();
        let ref_sig = p_ref.simulate_reference(&unsorted, 400, FS);
        let soa_sig = p_soa.simulate(&unsorted, 400, FS);
        assert_eq!(bits_of(ref_sig.samples()), bits_of(soa_sig.samples()));
        // The Q module (1) was driven by the late command, so Q must move off
        // rest; the final release (the *later* command) must also have fired.
        let z = *ref_sig.samples().last().unwrap();
        assert!(z.im > -0.5, "late command was dropped: Q = {}", z.im);
        let early = ref_sig.samples()[200];
        assert!(
            z.re < early.re,
            "command after a late one was dropped: re {} !< {}",
            z.re,
            early.re
        );
    }

    #[test]
    fn segment_boundaries_back_to_back() {
        // Commands on adjacent samples (one-sample segments) must not
        // disturb identity.
        let mk = || Panel::retroturbo(2, 4, LcParams::default(), Heterogeneity::typical(), 3);
        let cmds = vec![
            DriveCommand {
                sample: 0,
                module: 0,
                level: 15,
            },
            DriveCommand {
                sample: 255,
                module: 1,
                level: 8,
            },
            DriveCommand {
                sample: 256,
                module: 2,
                level: 4,
            },
            DriveCommand {
                sample: 257,
                module: 3,
                level: 2,
            },
            DriveCommand {
                sample: 512,
                module: 0,
                level: 0,
            },
        ];
        let n = 512 + 64;
        let mut p_ref = mk();
        let mut p_soa = mk();
        let ref_sig = p_ref.simulate_reference(&cmds, n, FS);
        let soa_sig = p_soa.simulate(&cmds, n, FS);
        assert_eq!(bits_of(ref_sig.samples()), bits_of(soa_sig.samples()));
    }

    #[test]
    fn commands_beyond_range_ignored() {
        let mk = || Panel::retroturbo(1, 4, LcParams::default(), Heterogeneity::none(), 1);
        let cmds = vec![
            DriveCommand {
                sample: 0,
                module: 0,
                level: 15,
            },
            DriveCommand {
                sample: 1000,
                module: 1,
                level: 15,
            },
        ];
        let mut p_ref = mk();
        let mut p_soa = mk();
        let a = p_ref.simulate_reference(&cmds, 100, FS);
        let b = p_soa.simulate(&cmds, 100, FS);
        assert_eq!(bits_of(a.samples()), bits_of(b.samples()));
    }
}
