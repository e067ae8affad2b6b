//! Property-based tests (proptest) on the system's core invariants.

use proptest::prelude::*;
use retroturbo::coding::interleave::{deinterleave, interleave};
use retroturbo::coding::{
    bits_to_bytes, bytes_to_bits, check_crc16, crc32_ieee, frame_with_crc16, from_gray, to_gray,
    RsCode, Scrambler,
};
use retroturbo::dsp::carrier::{PassbandChain, PassbandConfig};
use retroturbo::dsp::linalg::widely_linear_fit;
use retroturbo::dsp::noise::{measure_snr, NoiseSource};
use retroturbo::dsp::{Signal, C64};
use retroturbo::lcm::dynamics::{step, LcParams, LcState};
use retroturbo::mac::{protect, protected_bits, CodingChoice};
use retroturbo::optics::{PixelMixture, PolAngle};
use retroturbo::phy::{Constellation, Modulator, PhyConfig, PqamSymbol, Receiver, TagModel};

/// A small frame configuration: `L`-DSM × `P`-PQAM at 8 kHz slots.
fn small_cfg(l_order: usize, pqam_order: usize) -> PhyConfig {
    PhyConfig {
        l_order,
        pqam_order,
        t_slot: 0.5e-3,
        fs: 40_000.0,
        v_memory: 3,
        k_branches: 8,
        preamble_slots: 12,
        training_rounds: 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- coding ----------------

    #[test]
    fn rs_corrects_any_t_errors(
        msg in proptest::collection::vec(any::<u8>(), 48),
        positions in proptest::collection::hash_set(0usize..64, 0..=8),
        flips in proptest::collection::vec(1u8..=255, 8),
    ) {
        let rs = RsCode::new(64, 48); // t = 8
        let mut cw = rs.encode(&msg);
        for (k, &pos) in positions.iter().enumerate() {
            cw[pos] ^= flips[k % flips.len()];
        }
        let (dec, fixed) = rs.decode(&cw).expect("within t must decode");
        prop_assert_eq!(dec, msg);
        prop_assert_eq!(fixed, positions.len());
    }

    #[test]
    fn crc_round_trip_and_tamper(payload in proptest::collection::vec(any::<u8>(), 1..200),
                                 byte in any::<usize>(), bit in 0u8..8) {
        let framed = frame_with_crc16(&payload);
        prop_assert_eq!(check_crc16(&framed).unwrap(), &payload[..]);
        let mut bad = framed.clone();
        let idx = byte % bad.len();
        bad[idx] ^= 1 << bit;
        prop_assert!(check_crc16(&bad).is_none());
    }

    #[test]
    fn scrambler_involution(data in proptest::collection::vec(any::<u8>(), 0..300),
                            seed in 1u8..=0x7F) {
        let mut x = data.clone();
        Scrambler::new(seed).scramble_bytes(&mut x);
        Scrambler::new(seed).scramble_bytes(&mut x);
        prop_assert_eq!(x, data);
    }

    #[test]
    fn gray_bijective_and_adjacent(v in 0u32..100_000) {
        prop_assert_eq!(from_gray(to_gray(v)), v);
        prop_assert_eq!((to_gray(v) ^ to_gray(v + 1)).count_ones(), 1);
    }

    #[test]
    fn bit_packing_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
    }

    #[test]
    fn crc32_detects_any_single_bit_flip(payload in proptest::collection::vec(any::<u8>(), 1..200),
                                         byte in any::<usize>(), bit in 0u8..8) {
        let mut bad = payload.clone();
        let idx = byte % bad.len();
        bad[idx] ^= 1 << bit;
        prop_assert_ne!(crc32_ieee(&bad), crc32_ieee(&payload));
    }

    #[test]
    fn interleave_round_trip_pads_with_zeros(data in proptest::collection::vec(any::<u8>(), 0..144),
                                             rows in 1usize..13, cols in 1usize..13) {
        let n = data.len().min(rows * cols);
        let il = interleave(&data[..n], rows, cols);
        prop_assert_eq!(il.len(), rows * cols);
        let de = deinterleave(&il, rows, cols);
        prop_assert_eq!(&de[..n], &data[..n]);
        prop_assert!(de[n..].iter().all(|&b| b == 0));
    }

    #[test]
    fn interleaved_rs_survives_any_burst_within_budget(
        msgs in proptest::collection::vec(any::<u8>(), 6 * 24),
        rows in 2usize..7,
        burst in any::<usize>(),
        start in any::<usize>(),
        flip in 1u8..=255,
    ) {
        // `rows` RS(32, 24) codewords (t = 4) interleaved column-wise: a
        // burst of up to rows·t consecutive symbols puts at most t errors
        // into each codeword, so every one of them still decodes.
        let rs = RsCode::new(32, 24);
        let mut grid = Vec::with_capacity(rows * 32);
        for r in 0..rows {
            grid.extend(rs.encode(&msgs[r * 24..(r + 1) * 24]));
        }
        let mut il = interleave(&grid, rows, 32);
        let len = 1 + burst % (rows * rs.t());
        let at = start % (il.len() - len + 1);
        for b in &mut il[at..at + len] {
            *b ^= flip;
        }
        let de = deinterleave(&il, rows, 32);
        for r in 0..rows {
            let (dec, _) = rs.decode(&de[r * 32..(r + 1) * 32]).expect("burst within rows·t");
            prop_assert_eq!(&dec[..], &msgs[r * 24..(r + 1) * 24]);
        }
    }

    #[test]
    fn rs_fills_any_erasures_within_parity(
        msg in proptest::collection::vec(any::<u8>(), 20),
        positions in proptest::collection::hash_set(0usize..32, 0..=12),
        values in proptest::collection::vec(any::<u8>(), 12),
    ) {
        let rs = RsCode::new(32, 20); // n − k = 12 erasures
        let clean = rs.encode(&msg);
        let mut cw = clean.clone();
        let flagged: Vec<usize> = positions.into_iter().collect();
        for (k, &pos) in flagged.iter().enumerate() {
            cw[pos] = values[k];
        }
        let changed = flagged.iter().filter(|&&pos| cw[pos] != clean[pos]).count();
        let d = rs.decode_with_erasures(&cw, &flagged).expect("f <= n - k must decode");
        prop_assert_eq!(d.msg, msg);
        prop_assert_eq!(d.errors_corrected, 0);
        prop_assert_eq!(d.erasures_filled, changed);
        prop_assert_eq!(d.erasures_validated, flagged.len());
    }

    #[test]
    fn protect_emits_protected_bits(payload in proptest::collection::vec(any::<u8>(), 0..120),
                                    code in 0usize..4, seed in 1u8..=0x7F) {
        let coding = [
            None,
            Some(CodingChoice { n: 32, k: 24 }),
            Some(CodingChoice { n: 44, k: 22 }),
            Some(CodingChoice { n: 255, k: 223 }),
        ][code];
        let bits = protect(&payload, coding, seed);
        prop_assert_eq!(bits.len(), protected_bits(payload.len(), coding));
    }

    // ---------------- constellation ----------------

    #[test]
    fn constellation_round_trip(p_idx in 0usize..4, i in 0usize..16, q in 0usize..16) {
        let p = [4usize, 16, 64, 256][p_idx];
        let c = Constellation::new(p);
        let a = c.levels_per_axis();
        let s = PqamSymbol { i: i % a, q: q % a };
        prop_assert_eq!(c.map(&c.unmap(s)), s);
        prop_assert_eq!(c.slice(c.point(s)), s);
    }

    #[test]
    fn slicing_is_nearest_neighbour(p_idx in 0usize..3, re in -0.3f64..1.3, im in -0.3f64..1.3) {
        let p = [4usize, 16, 256][p_idx];
        let c = Constellation::new(p);
        let z = C64::new(re, im);
        let s = c.slice(z);
        let d_best = c.point(s).dist(z);
        for other in c.symbols() {
            prop_assert!(c.point(other).dist(z) >= d_best - 1e-12);
        }
    }

    #[test]
    fn gray_neighbours_differ_in_one_bit(p_idx in 0usize..5, level in 0usize..15,
                                         other in 0usize..16) {
        // Adjacent-level confusions on either axis cost exactly one bit.
        let p = [2usize, 4, 16, 64, 256][p_idx];
        let c = Constellation::new(p);
        let a = c.levels_per_axis();
        let l = level % (a - 1);
        let o = other % a;
        let diff = |s: PqamSymbol, t: PqamSymbol| {
            c.unmap(s).iter().zip(c.unmap(t)).filter(|(x, y)| **x != *y).count()
        };
        let q = if p == 2 { 0 } else { o };
        prop_assert_eq!(diff(PqamSymbol { i: l, q }, PqamSymbol { i: l + 1, q }), 1);
        if p != 2 {
            prop_assert_eq!(diff(PqamSymbol { i: o, q: l }, PqamSymbol { i: o, q: l + 1 }), 1);
        }
    }

    #[test]
    fn min_distance_is_the_closest_pair(p_idx in 0usize..5) {
        let c = Constellation::new([2usize, 4, 16, 64, 256][p_idx]);
        let pts: Vec<C64> = c.symbols().map(|s| c.point(s)).collect();
        prop_assert_eq!(pts.len(), c.order());
        let mut closest = f64::INFINITY;
        for (k, a) in pts.iter().enumerate() {
            for b in &pts[k + 1..] {
                closest = closest.min(a.dist(*b));
            }
        }
        prop_assert!((closest - c.min_distance()).abs() < 1e-12);
    }

    // ---------------- frame construction ----------------

    #[test]
    fn modulate_demap_round_trip_and_frame_layout(
        l_idx in 0usize..4, p_idx in 0usize..5,
        bits in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let cfg = small_cfg([1usize, 2, 4, 8][l_idx], [2usize, 4, 16, 64, 256][p_idx]);
        let m = Modulator::new(cfg);
        let plan = m.modulate(&bits);
        prop_assert_eq!(m.demap(&plan.payload_symbols, bits.len()), bits.clone());
        prop_assert_eq!(plan.preamble_slots, cfg.preamble_slots);
        prop_assert_eq!(plan.training_slots, cfg.training_rounds * cfg.l_order);
        prop_assert_eq!(plan.payload_slots, bits.len().div_ceil(cfg.bits_per_symbol()));
        prop_assert_eq!(plan.tail_slots, cfg.l_order);
        let sections =
            plan.preamble_slots + plan.training_slots + plan.payload_slots + plan.tail_slots;
        prop_assert_eq!(plan.total_slots(), sections);
        let start = plan.payload_start();
        for (k, s) in plan.payload_symbols.iter().enumerate() {
            prop_assert_eq!(plan.levels[start + k], (s.i, s.q));
        }
        prop_assert!(plan.levels[start + plan.payload_slots..].iter().all(|&lv| lv == (0, 0)));
        let top = cfg.levels_per_axis() - 1;
        prop_assert!(plan.levels.iter().all(|&(i, q)| i <= top && q <= top));
    }

    #[test]
    fn drive_commands_charge_one_module_pair_per_slot(
        l_idx in 0usize..4, p_idx in 0usize..3,
        bits in proptest::collection::vec(any::<bool>(), 0..120),
    ) {
        // Replaying the drive commands slot by slot leaves exactly the
        // module pair fired in that slot at the frame's levels and every
        // other module released (DSM fires one I and one Q module per slot).
        let l = [1usize, 2, 4, 8][l_idx];
        let cfg = small_cfg(l, [4usize, 16, 256][p_idx]);
        let plan = Modulator::new(cfg).modulate(&bits);
        let cmds = plan.drive_commands(&cfg);
        let spt = cfg.samples_per_slot();
        prop_assert!(cmds.windows(2).all(|w| w[0].sample <= w[1].sample));
        prop_assert!(cmds.iter().all(|c| c.module < 2 * l && c.sample <= plan.total_slots() * spt));
        let mut state = vec![0usize; 2 * l];
        let mut next = 0;
        for (n, &(li, lq)) in plan.levels.iter().enumerate() {
            while next < cmds.len() && cmds[next].sample <= n * spt {
                state[cmds[next].module] = cmds[next].level;
                next += 1;
            }
            let m = n % l;
            for (module, &level) in state.iter().enumerate() {
                let want = if module == m { li } else if module == l + m { lq } else { 0 };
                prop_assert_eq!(level, want, "slot {} module {}", n, module);
            }
        }
        while next < cmds.len() {
            state[cmds[next].module] = cmds[next].level;
            next += 1;
        }
        prop_assert!(l == 1 || state.iter().all(|&level| level == 0));
    }

    // ---------------- optics ----------------

    #[test]
    fn malus_bounds_and_pedestal(theta_t in 0.0f64..180.0, theta_r in 0.0f64..180.0,
                                 rho in 0.0f64..1.0) {
        let m = PixelMixture::new(PolAngle::from_degrees(theta_t), rho);
        let i = m.received_intensity(PolAngle::from_degrees(theta_r));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&i), "intensity {i}");
        // Signal + pedestal decomposition holds.
        let d = PolAngle::from_degrees(theta_t).diff(PolAngle::from_degrees(theta_r));
        let pedestal = d.sin() * d.sin();
        prop_assert!((i - (m.signal_component(PolAngle::from_degrees(theta_r)) + pedestal)).abs() < 1e-12);
    }

    #[test]
    fn rotation_preserves_measurement_magnitude(theta in 0.0f64..180.0, rho in 0.0f64..1.0) {
        use retroturbo::optics::ReceiverPair;
        let rx = ReceiverPair::new(PolAngle::from_degrees(0.0));
        let base = rx.measure(&PixelMixture::new(PolAngle::from_degrees(0.0), rho));
        let rotated = rx.measure(&PixelMixture::new(PolAngle::from_degrees(theta), rho));
        prop_assert!((base.abs() - rotated.abs()).abs() < 1e-9);
    }

    // ---------------- LCM dynamics ----------------

    #[test]
    fn lc_state_invariant_box(x0 in 0.0f64..1.0, u0 in 0.0f64..1.0,
                              pattern in any::<u64>()) {
        let p = LcParams::default();
        let mut s = LcState { x: x0, u: u0 };
        for k in 0..512 {
            s = step(&p, s, (pattern >> (k % 64)) & 1 == 1, 25e-6);
            prop_assert!((0.0..=1.0).contains(&s.x));
            prop_assert!((0.0..=1.0).contains(&s.u));
        }
    }

    #[test]
    fn lc_charging_monotone(x0 in 0.0f64..0.99) {
        // With the field on from a ready state, x never decreases.
        let p = LcParams::default();
        let mut s = LcState { x: x0, u: 1.0 };
        for _ in 0..200 {
            let next = step(&p, s, true, 25e-6);
            prop_assert!(next.x >= s.x - 1e-12);
            s = next;
        }
    }

    // ---------------- widely-linear fit ----------------

    #[test]
    fn widely_linear_exact_recovery(ar in -2.0f64..2.0, ai in -2.0f64..2.0,
                                    br in -0.3f64..0.3, bi in -0.3f64..0.3,
                                    cr in -1.0f64..1.0, ci in -1.0f64..1.0) {
        let a = C64::new(ar, ai);
        let b = C64::new(br, bi);
        let c = C64::new(cr, ci);
        prop_assume!(a.abs() > 0.3 + b.abs()); // well-conditioned, invertible
        let x: Vec<C64> = (0..24)
            .map(|i| C64::new((i as f64 * 0.71).sin(), (i as f64 * 1.13).cos()))
            .collect();
        let y: Vec<C64> = x.iter().map(|&z| a * z + b * z.conj() + c).collect();
        let fit = widely_linear_fit(&x, &y);
        prop_assert!(fit.a.dist(a) < 1e-6);
        prop_assert!(fit.b.dist(b) < 1e-6);
        prop_assert!(fit.c.dist(c) < 1e-6);
    }

    // ---------------- noise and front end ----------------

    #[test]
    fn awgn_realizes_the_requested_snr(snr_db in -5.0f64..40.0, a in 0.1f64..2.0,
                                       seed in any::<u64>()) {
        let clean: Vec<C64> = (0..4096).map(|i| C64::cis(i as f64 * 0.37) * a).collect();
        let mut noisy = clean.clone();
        NoiseSource::new(seed).add_awgn_snr(&mut noisy, snr_db, a);
        let got = measure_snr(&noisy, &clean, a);
        prop_assert!((got - snr_db).abs() < 0.5, "asked {snr_db} dB, measured {got} dB");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn passband_chain_recovers_intensity(level in 0.05f64..1.0, square in any::<bool>()) {
        // The chain is linear in the drive intensity for either carrier, and
        // the raised-sinusoid carrier recovers it at unit scale. (The 0/1
        // square carrier, sampled at 8 points per period, recovers about
        // 0.95 of the level, so only its linearity is held here.)
        let cfg = PassbandConfig { square_carrier: square, ..PassbandConfig::default() };
        let chain = PassbandChain::new(cfg);
        let run = |a: f64| {
            let intensity = Signal::from_real(&vec![a; cfg.decimation * 48], cfg.fs);
            chain.demodulate(&chain.modulate(&intensity))
        };
        let (unit, base) = (run(1.0), run(level));
        prop_assert_eq!(base.len(), 48);
        for (u, z) in unit.samples().iter().zip(base.samples()) {
            prop_assert!((z.re - level * u.re).abs() < 1e-9);
        }
        // Past the two 257-tap filters' fill-in (≈ 6 baseband samples).
        for (k, z) in base.samples().iter().enumerate().take(42).skip(8) {
            prop_assert!(square || (z.re - level).abs() < 0.01 * level,
                         "sample {k}: {} vs {level}", z.re);
        }
    }

    #[test]
    fn noiseless_link_round_trip(l_idx in 0usize..3, p_idx in 0usize..3,
                                 bits in proptest::collection::vec(any::<bool>(), 1..160)) {
        // Modulator → nominal tag render → blind receiver, no channel:
        // every payload bit comes back and the frame is found at offset 0.
        let cfg = small_cfg([1usize, 2, 4][l_idx], [2usize, 4, 16][p_idx]);
        let params = LcParams::default();
        let frame = Modulator::new(cfg).modulate(&bits);
        let wave = TagModel::nominal(&cfg, &params).render_levels(&frame.levels);
        let sig = Signal::new(wave, cfg.fs);
        let rx = Receiver::new(cfg, &params, 1);
        prop_assert_eq!(rx.frame_slots(bits.len()), frame.total_slots());
        let out = rx.receive_window(&sig, 0, sig.len(), bits.len()).expect("preamble");
        prop_assert_eq!(out.offset, 0);
        prop_assert_eq!(out.bits, bits);
    }
}
