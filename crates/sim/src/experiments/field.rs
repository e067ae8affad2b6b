//! "Real-world" experiment drivers (full ODE link): Fig. 16a–d, Tab. 4 and
//! the microbenchmark sweeps Fig. 17a/17b. All seven run through one body,
//! `run_field`, on the [`SweepEngine`], whose cached re-noise path is
//! bit-identical to `LinkSimulator::run_ber` (DESIGN.md §12).

use super::Effort;
use crate::link::LinkSimulator;
use crate::link_budget::LinkBudget;
use crate::scene::{AmbientLight, HumanMobility, Scene};
use crate::sweep::workloads::{FieldOracle, FieldSweep};
use crate::sweep::{GridPoint, RefineConfig, SweepEngine};
use retroturbo_core::PhyConfig;

/// A labelled BER measurement.
#[derive(Debug, Clone)]
pub struct BerPoint {
    /// X-axis value (distance in m, angle in degrees, …).
    pub x: f64,
    /// Curve label.
    pub label: String,
    /// Measured bit error rate.
    pub ber: f64,
    /// Effective SNR of the point, dB.
    pub snr_db: f64,
}

/// One figure curve: its label and the abscissae it is measured at.
type Curve = (String, Vec<f64>);

/// Curves that all share the abscissae `xs`.
fn shared_xs(labels: impl IntoIterator<Item = String>, xs: &[f64]) -> Vec<Curve> {
    labels.into_iter().map(|l| (l, xs.to_vec())).collect()
}

/// The one body of every field figure: measures `curves` curve-major (each
/// curve's abscissae in order, every cell at the experiment seed) on
/// `engine`, with `make(curve, x)` building each cell's simulator, and
/// labels the rows by curve.
fn run_field(
    engine: &SweepEngine,
    curves: &[Curve],
    effort: Effort,
    seed: u64,
    make: impl Fn(usize, f64) -> LinkSimulator + Sync,
) -> Vec<BerPoint> {
    let grid = curves
        .iter()
        .enumerate()
        .flat_map(|(curve, (_, xs))| xs.iter().map(move |&x| GridPoint::new(curve, x, seed)))
        .collect();
    let workload = FieldSweep {
        make,
        n_packets: effort.packets(),
        payload_bytes: effort.payload_bytes(),
        oracle: FieldOracle::Fused,
    };
    engine
        .run(&workload, grid)
        .into_iter()
        .map(|(p, o)| BerPoint {
            x: p.x,
            label: curves[p.curve].0.clone(),
            ber: o.ber,
            snr_db: o.snr_db,
        })
        .collect()
}

/// Fig. 16a: BER versus line-of-sight distance at 4 and 8 kbps. Each rate
/// renders once and is re-noised at every distance (path-loss SNR and
/// ambient σ act after the ODE).
pub fn fig16a_ber_vs_distance(distances_m: &[f64], effort: Effort, seed: u64) -> Vec<BerPoint> {
    fig16a_ber_vs_distance_refined(distances_m, effort, seed, RefineConfig::off())
}

/// [`fig16a_ber_vs_distance`] with cliff-adaptive refinement: extra points
/// are inserted where each curve crosses the 1 % BER threshold (bounded by
/// `refine`), appended after the coarse grid in (curve, x) order.
pub fn fig16a_ber_vs_distance_refined(
    distances_m: &[f64],
    effort: Effort,
    seed: u64,
    refine: RefineConfig,
) -> Vec<BerPoint> {
    let rates = [PhyConfig::default_4kbps(), PhyConfig::default_8kbps()];
    run_field(
        &SweepEngine::new(seed).with_refinement(refine),
        &shared_xs(["4kbps".into(), "8kbps".into()], distances_m),
        effort,
        seed,
        move |curve, d| {
            LinkSimulator::new(
                rates[curve],
                LinkBudget::fov10(),
                Scene::default_at(d),
                seed,
            )
        },
    )
}

/// Fig. 16b: BER versus roll misalignment at two distances (inside and
/// outside the 7.5 m working range, as the paper frames it). Roll, like
/// path loss, acts after the ODE, so the whole figure re-noises one render.
pub fn fig16b_ber_vs_roll(
    rolls_deg: &[f64],
    distances_m: &[f64],
    effort: Effort,
    seed: u64,
) -> Vec<BerPoint> {
    let cfg = PhyConfig::default_8kbps();
    let ds = distances_m.to_vec();
    run_field(
        &SweepEngine::new(seed),
        &shared_xs(distances_m.iter().map(|d| format!("{d} m")), rolls_deg),
        effort,
        seed,
        move |curve, r| {
            let scene = Scene::default_at(ds[curve]).with_roll(r);
            LinkSimulator::new(cfg, LinkBudget::fov10(), scene, seed)
        },
    )
}

/// Fig. 16c: BER versus yaw misalignment, with and without channel training
/// (the training is what calibrates out the yaw-induced symbol deviation).
/// Yaw skews the panel, so the engine renders per yaw; training is
/// receiver-side, so both curves share each yaw's render.
pub fn fig16c_ber_vs_yaw(yaws_deg: &[f64], effort: Effort, seed: u64) -> Vec<BerPoint> {
    let cfg = PhyConfig::default_8kbps();
    run_field(
        &SweepEngine::new(seed),
        &shared_xs(["trained".into(), "no training".into()], yaws_deg),
        effort,
        seed,
        move |curve, y| {
            let scene = Scene::default_at(2.5).with_yaw(y);
            let sim = LinkSimulator::new(cfg, LinkBudget::fov10(), scene, seed);
            if curve == 1 {
                sim.without_training()
            } else {
                sim
            }
        },
    )
}

/// Fig. 16d: BER under the three ambient light presets, one curve each at
/// x = the preset's lux. Ambient light only raises the residual noise σ, so
/// all three re-noise one render.
pub fn fig16d_ber_vs_ambient(effort: Effort, seed: u64) -> Vec<BerPoint> {
    let cfg = PhyConfig::default_8kbps();
    let ambients = [AmbientLight::Dark, AmbientLight::Night, AmbientLight::Day];
    let curves: Vec<Curve> = ambients
        .iter()
        .map(|a| (format!("{a:?}"), vec![a.lux()]))
        .collect();
    run_field(
        &SweepEngine::new(seed),
        &curves,
        effort,
        seed,
        move |curve, _| {
            let mut scene = Scene::default_at(5.0);
            scene.ambient = ambients[curve];
            LinkSimulator::new(cfg, LinkBudget::fov10(), scene, seed)
        },
    )
}

/// Tab. 4: BER under the five human-mobility cases (x = 0). Mobility
/// flutter is a post-ODE gain, so all five re-noise one render.
pub fn tab4_human_mobility(effort: Effort, seed: u64) -> Vec<BerPoint> {
    let cfg = PhyConfig::default_8kbps();
    let mobs = HumanMobility::all();
    run_field(
        &SweepEngine::new(seed),
        &shared_xs(mobs.iter().map(|m| m.label().into()), &[0.0]),
        effort,
        seed,
        move |curve, _| {
            let mut scene = Scene::default_at(5.0);
            scene.mobility = mobs[curve];
            LinkSimulator::new(cfg, LinkBudget::fov10(), scene, seed)
        },
    )
}

/// Fig. 17a: DFE branch count versus distance — K = 1 (hard DFE), K = 16
/// (the paper's default) and the beam-capped Viterbi reference. K is a
/// receiver knob, so the three curves share each distance's render.
pub fn fig17a_dfe_branches(distances_m: &[f64], effort: Effort, seed: u64) -> Vec<BerPoint> {
    let cfg = PhyConfig::default_8kbps();
    let viterbi_k = retroturbo_core::Equalizer::viterbi(cfg).branches();
    let ks = [1usize, 16, viterbi_k];
    let labels = [
        "K=1".into(),
        "K=16".into(),
        format!("Viterbi (K={viterbi_k})"),
    ];
    run_field(
        &SweepEngine::new(seed),
        &shared_xs(labels, distances_m),
        effort,
        seed,
        move |curve, d| {
            LinkSimulator::new(cfg, LinkBudget::fov10(), Scene::default_at(d), seed)
                .with_branches(ks[curve])
        },
    )
}

/// Fig. 17b: channel-training memory depth (paper's V = our `v_memory` − 1)
/// versus distance. `v_memory` is outside the render key, so the four
/// curves share each distance's render.
pub fn fig17b_training_depth(distances_m: &[f64], effort: Effort, seed: u64) -> Vec<BerPoint> {
    let v_mems = [1usize, 2, 3, 4];
    run_field(
        &SweepEngine::new(seed),
        &shared_xs(v_mems.iter().map(|v| format!("V={}", v - 1)), distances_m),
        effort,
        seed,
        move |curve, d| {
            let cfg = PhyConfig {
                v_memory: v_mems[curve],
                ..PhyConfig::default_8kbps()
            };
            LinkSimulator::new(cfg, LinkBudget::fov10(), Scene::default_at(d), seed)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny effort profile so these integration-style tests stay fast.
    fn tiny() -> Effort {
        Effort::Quick
    }

    #[test]
    fn fig16a_shape_inside_vs_outside_range() {
        // Just two distances: well inside and far outside the working range.
        let pts = fig16a_ber_vs_distance(&[4.0, 14.0], tiny(), 1);
        let near_8k = pts
            .iter()
            .find(|p| p.label == "8kbps" && p.x == 4.0)
            .unwrap();
        let far_8k = pts
            .iter()
            .find(|p| p.label == "8kbps" && p.x == 14.0)
            .unwrap();
        assert!(near_8k.ber < 0.01, "near BER {}", near_8k.ber);
        assert!(far_8k.ber > 0.05, "far BER {}", far_8k.ber);
    }

    #[test]
    fn fig16b_roll_flat() {
        let pts = fig16b_ber_vs_roll(&[0.0, 45.0, 90.0], &[4.0], tiny(), 2);
        for p in &pts {
            assert!(p.ber < 0.01, "roll {}°: BER {}", p.x, p.ber);
        }
    }

    #[test]
    fn tab4_all_below_one_percent() {
        let rows = tab4_human_mobility(tiny(), 1);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.ber < 0.01, "{}: BER {}", r.label, r.ber);
        }
    }
}
