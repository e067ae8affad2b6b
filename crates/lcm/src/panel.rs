//! The tag's full LCM panel: 2L modules (L per polarization channel) over a
//! retroreflector, with optional manufacturing heterogeneity.
//!
//! The panel turns a *drive plan* (timed per-module level commands, produced
//! by the PHY modulator) into the complex baseband waveform the reader's
//! photodiode pairs observe in the tag's own frame:
//!
//! ```text
//! z(t) = Σ_m  gain_m · e^{j2θ_m} · c_m(t)
//! ```
//!
//! where `c_m` is module m's weighted pixel contrast. I-modules (θ = 0°) sum
//! onto the real axis and Q-modules (θ = 45°) onto the imaginary axis; roll,
//! path loss, ambient and noise are applied later by the channel model.

use crate::dynamics::LcParams;
use crate::pixel::PixelBank;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use retroturbo_dsp::{Signal, C64};
use retroturbo_optics::PolAngle;

/// Per-module manufacturing/illumination heterogeneity (§4.3.3 lists gain
/// spread, uneven illumination and polarizer-attachment error as the causes).
#[derive(Debug, Clone, Copy)]
pub struct Heterogeneity {
    /// Relative std-dev of module gain (amplitude) spread.
    pub gain_sigma: f64,
    /// Relative std-dev applied to each module's LC time constants.
    pub tau_sigma: f64,
    /// Std-dev of polarizer attachment angle error, radians.
    pub angle_sigma: f64,
}

impl Heterogeneity {
    /// A perfectly uniform panel.
    pub fn none() -> Self {
        Self {
            gain_sigma: 0.0,
            tau_sigma: 0.0,
            angle_sigma: 0.0,
        }
    }

    /// Spread representative of the prototype (≈5% gain, ≈8% timing, ≈1.5°
    /// polarizer error — enough to visibly scale constellation points as in
    /// Fig. 11b).
    pub fn typical() -> Self {
        Self {
            gain_sigma: 0.05,
            tau_sigma: 0.08,
            angle_sigma: 1.5f64.to_radians(),
        }
    }
}

/// A timed drive command: at `sample`, set `module` to `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveCommand {
    /// Sample index at which the command takes effect.
    pub sample: usize,
    /// Target module index.
    pub module: usize,
    /// Target level (0 ⇒ all pixels discharging; max ⇒ all charging).
    pub level: usize,
}

/// The tag's LCM panel.
#[derive(Debug, Clone)]
pub struct Panel {
    modules: Vec<PixelBank>,
    l_order: usize,
}

impl Panel {
    /// Build a RetroTurbo panel with `l_order` modules per polarization
    /// channel (2·L total), each a `bits`-bit binary-weighted bank. Module
    /// gains are 1/L so each channel's total swing is ±1 (the SNR reference
    /// amplitude). `het` perturbs gains/taus/angles deterministically from
    /// `seed`.
    pub fn retroturbo(
        l_order: usize,
        bits: usize,
        params: LcParams,
        het: Heterogeneity,
        seed: u64,
    ) -> Self {
        assert!(l_order >= 1, "Panel: need at least one module per channel");
        let mut rng = StdRng::seed_from_u64(seed);
        let gauss = move |rng: &mut StdRng| -> f64 {
            // Sum of 12 uniforms − 6: cheap unit normal, fine for spreads.
            (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0
        };
        let mut modules = Vec::with_capacity(2 * l_order);
        for ch in 0..2 {
            let base_angle = if ch == 0 { 0.0 } else { 45.0 };
            for _ in 0..l_order {
                let gain = (1.0 / l_order as f64) * (1.0 + het.gain_sigma * gauss(&mut rng));
                let mut p = params;
                let tf = 1.0 + het.tau_sigma * gauss(&mut rng);
                p.tau_charge *= tf.max(0.3);
                p.tau_relax *= (1.0 + het.tau_sigma * gauss(&mut rng)).max(0.3);
                let angle =
                    PolAngle::from_degrees(base_angle).rotated(het.angle_sigma * gauss(&mut rng));
                modules.push(PixelBank::new(bits, angle, p, gain.max(0.05)));
            }
        }
        Self { modules, l_order }
    }

    /// DSM order L (modules per polarization channel).
    pub fn l_order(&self) -> usize {
        self.l_order
    }

    /// Total number of modules (2·L).
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Levels supported per module.
    pub fn levels(&self) -> usize {
        self.modules[0].levels()
    }

    /// Immutable module access.
    pub fn module(&self, m: usize) -> &PixelBank {
        &self.modules[m]
    }

    /// Mutable module access (tests / fault injection).
    pub fn module_mut(&mut self, m: usize) -> &mut PixelBank {
        &mut self.modules[m]
    }

    /// Reset every module to the relaxed state.
    pub fn reset(&mut self) {
        for m in &mut self.modules {
            m.reset();
        }
    }

    /// Instantaneous complex output in the tag frame.
    pub fn output(&self) -> C64 {
        self.modules
            .iter()
            .map(|m| retroturbo_optics::axis(m.angle, PolAngle::from_degrees(0.0)) * m.output())
            .sum()
    }

    /// Simulate the panel for `n_samples` at `fs` Hz under a drive plan.
    /// Commands should be sorted by sample index; a command whose sample
    /// index has already passed is applied at the current sample rather than
    /// silently dropped (see [`Self::simulate_reference`]). Commands beyond
    /// the simulated range are ignored.
    ///
    /// The returned signal holds the panel output *after* each step.
    ///
    /// Internally this runs the struct-of-arrays fast kernel
    /// ([`crate::kernel::PanelKernel`]) and writes the final LC states back
    /// into the panel; the output and end state are bit-identical to
    /// [`Self::simulate_reference`] (enforced by differential tests).
    pub fn simulate(&mut self, commands: &[DriveCommand], n_samples: usize, fs: f64) -> Signal {
        let mut kernel = crate::kernel::PanelKernel::from_panel(self);
        let mut out = vec![C64::default(); n_samples];
        kernel.simulate_into(commands, fs, &mut out);
        kernel.write_back(self);
        Signal::new(out, fs)
    }

    /// The original per-sample scalar simulation loop, retained as the
    /// differential-testing oracle for the fast kernel.
    ///
    /// Commands whose sample index is `<= s` are applied at sample `s`: an
    /// out-of-order command takes effect (late) at the next simulated sample
    /// instead of stalling the queue and silently dropping every later
    /// command, which is what the original `== s` match did for unsorted
    /// input in release builds.
    pub fn simulate_reference(
        &mut self,
        commands: &[DriveCommand],
        n_samples: usize,
        fs: f64,
    ) -> Signal {
        let dt = 1.0 / fs;
        let mut out = Vec::with_capacity(n_samples);
        let mut ci = 0;
        for s in 0..n_samples {
            while ci < commands.len() && commands[ci].sample <= s {
                let c = commands[ci];
                self.modules[c.module].set_level(c.level);
                ci += 1;
            }
            for m in &mut self.modules {
                m.step(dt);
            }
            out.push(self.output());
        }
        Signal::new(out, fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 40_000.0;

    fn panel(l: usize) -> Panel {
        Panel::retroturbo(l, 4, LcParams::default(), Heterogeneity::none(), 1)
    }

    #[test]
    fn geometry_of_modules() {
        let p = panel(4);
        assert_eq!(p.module_count(), 8);
        assert_eq!(p.levels(), 16);
        // I modules come first, then Q: module k and l_order + k.
        assert!((p.module(0).angle.degrees() - 0.0).abs() < 1e-9);
        assert!((p.module(p.l_order()).angle.degrees() - 45.0).abs() < 1e-9);
    }

    #[test]
    fn rest_output_is_minus_one_minus_j() {
        // All modules relaxed: each channel sits at −1 (sum of gains = 1).
        let p = panel(4);
        let z = p.output();
        assert!((z.re + 1.0).abs() < 1e-9, "I at rest: {}", z.re);
        assert!((z.im + 1.0).abs() < 1e-9, "Q at rest: {}", z.im);
    }

    #[test]
    fn charging_i_channel_moves_real_axis_only() {
        let mut p = panel(2);
        let cmds = vec![
            DriveCommand {
                sample: 0,
                module: 0,
                level: 15,
            },
            DriveCommand {
                sample: 0,
                module: 1,
                level: 15,
            },
        ];
        let sig = p.simulate(&cmds, 200, FS); // 5 ms
        let z = *sig.samples().last().unwrap();
        assert!((z.re - 1.0).abs() < 0.02, "I should saturate: {}", z.re);
        assert!((z.im + 1.0).abs() < 0.02, "Q should stay at rest: {}", z.im);
    }

    #[test]
    fn q_channel_is_imaginary_axis() {
        let mut p = panel(1);
        let cmds = vec![DriveCommand {
            sample: 0,
            module: 1,
            level: 15,
        }];
        let sig = p.simulate(&cmds, 200, FS);
        let z = *sig.samples().last().unwrap();
        assert!((z.im - 1.0).abs() < 0.02);
        assert!((z.re + 1.0).abs() < 0.02);
    }

    #[test]
    fn superposition_of_two_modules() {
        // Charging one of two I-modules lands the I channel at 0 (= ½·(+1) + ½·(−1)).
        let mut p = panel(2);
        let cmds = vec![DriveCommand {
            sample: 0,
            module: 0,
            level: 15,
        }];
        let sig = p.simulate(&cmds, 400, FS);
        let z = *sig.samples().last().unwrap();
        assert!(z.re.abs() < 0.02, "I should sit at 0: {}", z.re);
    }

    #[test]
    fn intermediate_level_scales_channel() {
        // Level 5 of 15 on the single I module ⇒ contrast 2·5/15−1 = −1/3.
        let mut p = panel(1);
        let cmds = vec![DriveCommand {
            sample: 0,
            module: 0,
            level: 5,
        }];
        let sig = p.simulate(&cmds, 800, FS);
        let z = *sig.samples().last().unwrap();
        assert!((z.re + 1.0 / 3.0).abs() < 0.02, "I: {}", z.re);
    }

    #[test]
    fn heterogeneity_changes_gains_deterministically() {
        let a = Panel::retroturbo(4, 4, LcParams::default(), Heterogeneity::typical(), 7);
        let b = Panel::retroturbo(4, 4, LcParams::default(), Heterogeneity::typical(), 7);
        let c = Panel::retroturbo(4, 4, LcParams::default(), Heterogeneity::typical(), 8);
        for m in 0..8 {
            assert_eq!(a.module(m).gain, b.module(m).gain, "same seed must match");
        }
        assert!(
            (0..8).any(|m| (a.module(m).gain - c.module(m).gain).abs() > 1e-12),
            "different seeds should differ"
        );
        // Gains hover around 1/L.
        let mean: f64 = (0..8).map(|m| a.module(m).gain).sum::<f64>() / 8.0;
        assert!((mean - 0.25).abs() < 0.05, "mean gain {mean}");
    }

    #[test]
    fn reset_returns_to_rest() {
        let mut p = panel(2);
        let cmds = vec![DriveCommand {
            sample: 0,
            module: 0,
            level: 15,
        }];
        let _ = p.simulate(&cmds, 100, FS);
        p.reset();
        let z = p.output();
        assert!((z.re + 1.0).abs() < 1e-9 && (z.im + 1.0).abs() < 1e-9);
    }
}
