//! Schoolbook Reed–Solomon oracle and the differential tests that hold the
//! production codec to it.
//!
//! The oracle shares no code or table with [`RsCode`]: GF(2⁸) products are
//! bitwise shift-and-add reductions by the primitive polynomial, encoding
//! is synthetic division of `msg·x^{n−k}` by g(x), syndromes are Horner
//! evaluations of the whole received word, the Chien search evaluates Ψ
//! afresh at every position, and the final check recomputes every syndrome
//! of the corrected word. Berlekamp–Massey, the Forney syndromes and the
//! Forney magnitudes follow the same textbook steps as the production
//! decoder, so every decision — message, counts and `Err` variant — must
//! agree exactly.

use super::{ErasureDecode, RsCode, RsError};
use crate::gf256::PRIMITIVE_POLY;
use proptest::prelude::*;

fn mul(a: u8, b: u8) -> u8 {
    let (mut a, mut b, mut p) = (a as u16, b, 0u16);
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= PRIMITIVE_POLY;
        }
        b >>= 1;
    }
    p as u8
}

fn pow(a: u8, e: usize) -> u8 {
    (0..e).fold(1, |acc, _| mul(acc, a))
}

/// α^e for any integer e (α has order 255).
fn alpha(e: i64) -> u8 {
    pow(2, e.rem_euclid(255) as usize)
}

fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "oracle: division by zero");
    mul(a, pow(b, 254))
}

/// Product of two polynomials (either coefficient order).
fn poly_mul(a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] ^= mul(ai, bj);
        }
    }
    out
}

/// Evaluate a highest-degree-first polynomial by Horner's rule.
fn eval_high_first(poly: &[u8], x: u8) -> u8 {
    poly.iter().fold(0, |acc, &c| mul(acc, x) ^ c)
}

/// Evaluate a lowest-degree-first polynomial term by term.
fn eval_low_first(poly: &[u8], x: u8) -> u8 {
    poly.iter()
        .enumerate()
        .fold(0, |acc, (j, &c)| acc ^ mul(c, pow(x, j)))
}

/// g(x) = Π_{i=0}^{n−k−1} (x − α^i), highest-degree-first.
fn generator(n: usize, k: usize) -> Vec<u8> {
    (0..(n - k) as i64).fold(vec![1u8], |g, i| poly_mul(&g, &[1, alpha(i)]))
}

/// Systematic codeword: the message, then the remainder of msg·x^{n−k}
/// divided by g(x) (synthetic division).
pub(super) fn encode(n: usize, k: usize, msg: &[u8]) -> Vec<u8> {
    let gen = generator(n, k);
    let mut buf = msg.to_vec();
    buf.resize(n, 0);
    for i in 0..k {
        let c = buf[i];
        for (j, &g) in gen.iter().enumerate().skip(1) {
            buf[i + j] ^= mul(g, c);
        }
    }
    let mut out = msg.to_vec();
    out.extend_from_slice(&buf[k..]);
    out
}

/// S_i = recv(α^i) for i = 0..n−k, by Horner over all n symbols.
pub(super) fn syndromes(n: usize, k: usize, recv: &[u8]) -> Vec<u8> {
    (0..(n - k) as i64)
        .map(|i| eval_high_first(recv, alpha(i)))
        .collect()
}

/// Massey's algorithm: the minimal connection polynomial of `s`,
/// lowest-degree-first, trailing zeros trimmed.
fn berlekamp_massey(s: &[u8]) -> Vec<u8> {
    let mut c = vec![1u8];
    let mut b = vec![1u8];
    let (mut l, mut m, mut bb) = (0usize, 1usize, 1u8);
    for r in 0..s.len() {
        let delta = (0..c.len().min(r + 1)).fold(0, |acc, i| acc ^ mul(c[i], s[r - i]));
        if delta == 0 {
            m += 1;
            continue;
        }
        let prev = c.clone();
        let scale = div(delta, bb);
        if c.len() < b.len() + m {
            c.resize(b.len() + m, 0);
        }
        for (i, &bi) in b.iter().enumerate() {
            c[i + m] ^= mul(scale, bi);
        }
        if 2 * l <= r {
            l = r + 1 - l;
            b = prev;
            bb = delta;
            m = 1;
        } else {
            m += 1;
        }
    }
    while c.last() == Some(&0) {
        c.pop();
    }
    c
}

/// Errors-and-erasures decode with the production decoder's contract.
pub(super) fn decode_with_erasures(
    n: usize,
    k: usize,
    recv: &[u8],
    erasures: &[usize],
) -> Result<ErasureDecode, RsError> {
    if recv.len() != n {
        return Err(RsError::WrongLength {
            got: recv.len(),
            want: n,
        });
    }
    let two_t = n - k;
    let mut erase = erasures.to_vec();
    erase.sort_unstable();
    erase.dedup();
    erase.retain(|&idx| idx < n);
    let f = erase.len();
    if f > two_t {
        return Err(RsError::TooManyErrors);
    }
    let synd = syndromes(n, k, recv);
    if synd.iter().all(|&s| s == 0) {
        return Ok(ErasureDecode {
            msg: recv[..k].to_vec(),
            errors_corrected: 0,
            erasures_filled: 0,
            erasures_validated: f,
        });
    }
    let root_of = |idx: usize| alpha((n - 1 - idx) as i64);
    let mut fsynd = synd.clone();
    for &idx in &erase {
        let x = root_of(idx);
        for j in 0..fsynd.len() - 1 {
            fsynd[j] = mul(fsynd[j], x) ^ fsynd[j + 1];
        }
    }
    let lambda = berlekamp_massey(&fsynd[..two_t - f]);
    let e = lambda.len() - 1;
    if 2 * e + f > two_t || (e == 0 && f == 0) {
        return Err(RsError::TooManyErrors);
    }
    let psi = erase
        .iter()
        .fold(lambda, |psi, &idx| poly_mul(&psi, &[1, root_of(idx)]));
    let errata_pos: Vec<usize> = (0..n)
        .filter(|&idx| eval_low_first(&psi, alpha(-((n - 1 - idx) as i64))) == 0)
        .collect();
    if errata_pos.len() != psi.len() - 1 {
        return Err(RsError::TooManyErrors);
    }
    let mut omega = poly_mul(&psi, &synd);
    omega.truncate(two_t);
    let psi_deriv: Vec<u8> = (1..psi.len())
        .map(|j| if j % 2 == 1 { psi[j] } else { 0 })
        .collect();
    let mut out = recv.to_vec();
    let (mut errors_corrected, mut erasures_filled) = (0, 0);
    for &idx in &errata_pos {
        let p = (n - 1 - idx) as i64;
        let x_inv = alpha(-p);
        let ld = eval_low_first(&psi_deriv, x_inv);
        if ld == 0 {
            return Err(RsError::DecodeFailure);
        }
        let mag = mul(alpha(p), div(eval_low_first(&omega, x_inv), ld));
        out[idx] ^= mag;
        if erase.contains(&idx) {
            erasures_filled += usize::from(mag != 0);
        } else {
            errors_corrected += 1;
        }
    }
    if syndromes(n, k, &out).iter().any(|&s| s != 0) {
        return Err(RsError::DecodeFailure);
    }
    Ok(ErasureDecode {
        msg: out[..k].to_vec(),
        errors_corrected,
        erasures_filled,
        erasures_validated: f,
    })
}

/// The codes the differential covers: the Fig. 18b family, the service's
/// RS(44, 22), a shortened 128-byte-payload code and a tiny one.
const CODES: [(usize, usize); 6] = [
    (255, 251),
    (255, 223),
    (255, 127),
    (44, 22),
    (160, 128),
    (15, 11),
];

/// One differential case: a code, a message, the received word and the
/// erasure flags handed to the decoder.
struct Case {
    n: usize,
    k: usize,
    msg: Vec<u8>,
    recv: Vec<u8>,
    flags: Vec<usize>,
}

/// Draws cases across the capability region: half within t symbol errors,
/// half from t up to n − k + 2; each damaged symbol flagged with
/// probability ½; extra flags on clean symbols, duplicates, out-of-range
/// indices, an occasional flag flood past the erasure budget, and an
/// occasional word of the wrong length.
struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let (n, k) = CODES[rng.below(CODES.len())];
        let np = n - k;
        let msg: Vec<u8> = (0..k).map(|_| rng.next_u64() as u8).collect();
        let mut recv = encode(n, k, &msg);
        let errors = if rng.below(2) == 0 {
            rng.below(np / 2 + 1)
        } else {
            np / 2 + rng.below(np / 2 + 3)
        };
        // Distinct positions by a partial Fisher–Yates shuffle.
        let mut order: Vec<usize> = (0..n).collect();
        let mut flags = Vec::new();
        for i in 0..errors {
            order.swap(i, i + rng.below(n - i));
            recv[order[i]] ^= 1 + rng.below(255) as u8;
            if rng.below(2) == 0 {
                flags.push(order[i]);
            }
        }
        for _ in 0..rng.below(4) {
            flags.push(rng.below(n));
        }
        for _ in 0..rng.below(3) {
            if !flags.is_empty() {
                flags.push(flags[rng.below(flags.len())]);
            }
        }
        for _ in 0..rng.below(3) {
            flags.push(if rng.below(2) == 0 {
                n + rng.below(10)
            } else {
                usize::MAX
            });
        }
        if rng.below(8) == 0 {
            flags.extend((0..np + 1).map(|_| rng.below(n)));
        }
        if rng.below(16) == 0 {
            let len = if rng.below(2) == 0 {
                n - 1 - rng.below(3)
            } else {
                n + 1 + rng.below(3)
            };
            recv.resize(len, 0x5A);
        }
        Case {
            n,
            k,
            msg,
            recv,
            flags,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Encoding, syndromes, errors-only and errors-and-erasures decoding all
    /// agree with the oracle, result for result.
    #[test]
    fn codec_matches_schoolbook_oracle(case in Cases) {
        let Case { n, k, msg, recv, flags } = case;
        let rs = RsCode::new(n, k);
        prop_assert_eq!(rs.encode(&msg), encode(n, k, &msg), "encode RS({}, {})", n, k);
        if recv.len() == n {
            prop_assert_eq!(rs.syndromes(&recv), syndromes(n, k, &recv), "syndromes RS({}, {})", n, k);
        }
        let want = decode_with_erasures(n, k, &recv, &[]).map(|d| (d.msg, d.errors_corrected));
        prop_assert_eq!(rs.decode(&recv), want, "decode RS({}, {})", n, k);
        prop_assert_eq!(
            rs.decode_with_erasures(&recv, &flags),
            decode_with_erasures(n, k, &recv, &flags),
            "decode_with_erasures RS({}, {}) flags {:?}",
            n,
            k,
            flags
        );
    }
}
