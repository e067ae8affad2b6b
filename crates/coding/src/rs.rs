//! Reed–Solomon codes over GF(2⁸).
//!
//! Systematic RS(n, k) with n ≤ 255, correcting up to t = (n−k)/2 symbol
//! errors: a table-driven LFSR encoder, and a Berlekamp–Massey +
//! Chien-search + Forney decoder. Shortened codes (n < 255) are supported
//! directly — the Fig. 18b coding-gain sweep uses RS(255, 251)-, (255, 223)-
//! and (255, 127)-class codes on 128-byte packets.
//!
//! When the receiver can flag unreliable symbols (blocked or saturated PHY
//! slots), [`RsCode::decode_with_erasures`] exploits them: `f` erasures plus
//! `e` unknown errors are corrected whenever `2e + f ≤ n − k`, doubling the
//! budget for losses the PHY can point at.

use crate::gf256::{Gf256, TABLES};
use retroturbo_telemetry as telemetry;

/// Errors returned by the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsError {
    /// More errors than the code can correct.
    TooManyErrors,
    /// Internal inconsistency while locating/correcting (treated as failure).
    DecodeFailure,
    /// The received word is not exactly n symbols long. A streaming service
    /// feeds the decoder whatever framing produced, so a malformed frame
    /// must surface as an `Err`, never a panic.
    WrongLength {
        /// Length of the word actually received.
        got: usize,
        /// The code's block length n.
        want: usize,
    },
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::TooManyErrors => write!(f, "too many symbol errors to correct"),
            RsError::DecodeFailure => write!(f, "decoder inconsistency"),
            RsError::WrongLength { got, want } => {
                write!(f, "received word is {got} symbols, code needs {want}")
            }
        }
    }
}

impl std::error::Error for RsError {}

/// A systematic Reed–Solomon code RS(n, k) over GF(2⁸).
///
/// Construction precomputes a 256 × (n−k) table of generator-row products,
/// so build a code once and reuse it for every block.
#[derive(Debug, Clone)]
pub struct RsCode {
    gf: Gf256,
    n: usize,
    k: usize,
    /// `rows[c·(n−k) + j] = c · g_{j+1}`: the generator's n−k non-leading
    /// coefficients (g is monic, highest-degree-first) scaled by every
    /// feedback symbol c, so one LFSR step XORs one row.
    rows: Vec<u8>,
}

impl RsCode {
    /// Construct RS(n, k).
    ///
    /// # Panics
    /// Panics unless `0 < k < n ≤ 255` and `n − k` is even.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k > 0 && k < n && n <= 255, "RsCode: need 0 < k < n <= 255");
        assert!((n - k).is_multiple_of(2), "RsCode: n − k must be even");
        let gf = Gf256::new();
        // g(x) = Π_{i=0}^{n−k−1} (x − α^i)
        let mut gen = vec![1u8];
        for i in 0..(n - k) as i32 {
            gen = gf.poly_mul(&gen, &[1, gf.alpha_pow(i)]);
        }
        let rows = (0..=255u8)
            .flat_map(|c| gen[1..].iter().map(move |&g| gf.mul(c, g)))
            .collect();
        Self { gf, n, k, rows }
    }

    /// Codeword length n (symbols).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Message length k (symbols).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity symbols.
    pub fn parity(&self) -> usize {
        self.n - self.k
    }

    /// Maximum correctable symbol errors t.
    pub fn t(&self) -> usize {
        (self.n - self.k) / 2
    }

    /// Code rate k/n.
    pub fn rate(&self) -> f64 {
        self.k as f64 / self.n as f64
    }

    /// Systematically encode a k-symbol message into an n-symbol codeword
    /// (message first, then parity).
    ///
    /// # Panics
    /// Panics if `msg.len() != k`.
    pub fn encode(&self, msg: &[u8]) -> Vec<u8> {
        assert_eq!(msg.len(), self.k, "encode: message must be k symbols");
        let mut out = Vec::with_capacity(self.n);
        out.extend_from_slice(msg);
        out.resize(self.n, 0);
        self.lfsr(msg, &mut out[self.k..]);
        out
    }

    /// Long division of `data(x)·x^{n−k}` by g(x): XOR the remainder into
    /// `rem` (n−k symbols, highest-degree-first, zero on entry). Each step
    /// shifts the register and XORs the row of its feedback symbol.
    fn lfsr(&self, data: &[u8], rem: &mut [u8]) {
        let np = rem.len();
        for &d in data {
            let row = &self.rows[(d ^ rem[0]) as usize * np..][..np];
            for j in 0..np - 1 {
                rem[j] = rem[j + 1] ^ row[j];
            }
            rem[np - 1] = row[np - 1];
        }
    }

    /// `recv(x) mod g(x)`, n−k symbols highest-degree-first: the LFSR
    /// remainder of the message part XOR the received parity. It is zero
    /// exactly when `recv` is a codeword.
    fn word_remainder(&self, recv: &[u8]) -> Vec<u8> {
        let mut rem = vec![0u8; self.parity()];
        self.lfsr(&recv[..self.k], &mut rem);
        for (r, &p) in rem.iter_mut().zip(&recv[self.k..]) {
            *r ^= p;
        }
        rem
    }

    /// The 2t syndromes S_i = r(α^i), i = 0..n−k, of a word with remainder
    /// `rem` = r: g(α^i) = 0, so S_i equals the received word evaluated at
    /// α^i, from (n−k)² log-domain products instead of n·(n−k).
    fn remainder_syndromes(rem: &[u8]) -> Vec<u8> {
        let np = rem.len();
        let mut synd = vec![0u8; np];
        for (j, &c) in rem.iter().enumerate() {
            if c != 0 {
                // c·x^{np−1−j} at x = α^i is α^{log c + i·(np−1−j)}.
                add_power_series(&mut synd, c, np - 1 - j);
            }
        }
        synd
    }

    /// Compute the 2t syndromes of a received word.
    #[cfg(test)]
    fn syndromes(&self, recv: &[u8]) -> Vec<u8> {
        Self::remainder_syndromes(&self.word_remainder(recv))
    }

    /// Berlekamp–Massey over a syndrome sequence: returns the minimal
    /// error-locator polynomial Λ, lowest-degree-first (Λ[0] = 1), with
    /// trailing zero coefficients trimmed.
    fn berlekamp_massey(&self, synd: &[u8]) -> Vec<u8> {
        let gf = &self.gf;
        let mut lambda = vec![1u8];
        let mut b = vec![1u8];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut bb = 1u8;
        for r in 0..synd.len() {
            // Discrepancy δ = Σ Λ_i · S_{r−i}.
            let mut delta = 0u8;
            for (i, &li) in lambda.iter().enumerate() {
                if i <= r {
                    delta ^= gf.mul(li, synd[r - i]);
                }
            }
            if delta == 0 {
                m += 1;
            } else if 2 * l <= r {
                let t_poly = lambda.clone();
                let scale = gf.div(delta, bb);
                // Λ = Λ − δ/b · x^m · B
                let shift = m;
                if lambda.len() < b.len() + shift {
                    lambda.resize(b.len() + shift, 0);
                }
                for (i, &bi) in b.iter().enumerate() {
                    lambda[i + shift] ^= gf.mul(scale, bi);
                }
                l = r + 1 - l;
                b = t_poly;
                bb = delta;
                m = 1;
            } else {
                let scale = gf.div(delta, bb);
                let shift = m;
                if lambda.len() < b.len() + shift {
                    lambda.resize(b.len() + shift, 0);
                }
                for (i, &bi) in b.iter().enumerate() {
                    lambda[i + shift] ^= gf.mul(scale, bi);
                }
                m += 1;
            }
        }
        while lambda.last() == Some(&0) {
            lambda.pop();
        }
        lambda
    }

    /// Evaluate a lowest-degree-first polynomial at `x`.
    fn eval_lowest_first(&self, poly: &[u8], x: u8) -> u8 {
        let gf = &self.gf;
        let mut v = 0u8;
        let mut xp = 1u8;
        for &c in poly {
            v ^= gf.mul(c, xp);
            xp = gf.mul(xp, x);
        }
        v
    }

    /// Decode an n-symbol received word in place, returning the corrected
    /// k-symbol message and the number of symbol errors fixed.
    ///
    /// A word that is not exactly n symbols returns
    /// [`RsError::WrongLength`] — malformed input never panics.
    pub fn decode(&self, recv: &[u8]) -> Result<(Vec<u8>, usize), RsError> {
        let r = self
            .decode_with_erasures_impl(recv, &[])
            .map(|d| (d.msg, d.errors_corrected));
        telemetry::counter_inc("rs.decodes");
        match &r {
            Ok((_, fixed)) => {
                telemetry::counter_add("rs.symbols_corrected", *fixed as u64);
                // Margin: correction budget left after this word.
                telemetry::observe("rs.decode_margin", (self.t() - fixed) as f64);
            }
            Err(_) => telemetry::counter_inc("rs.decode_failures"),
        }
        r
    }

    /// Errors-and-erasures decode: correct a received word given `erasures`,
    /// the indices into `recv` the demodulator flagged as unreliable.
    ///
    /// With `f` erasures and `e` additional (unflagged) errors the decode
    /// succeeds whenever `2e + f ≤ n − k` — twice the budget of
    /// [`Self::decode`] for losses the PHY can localize. [`Self::decode`] is
    /// this body with an empty erasure list.
    ///
    /// A word that is not exactly n symbols returns
    /// [`RsError::WrongLength`]. Erasure indices are validated first:
    /// duplicates collapse and out-of-range indices (which cannot name any
    /// received symbol) are dropped, so a garbage flag list degrades
    /// gracefully instead of panicking. The validated flag count is
    /// reported in [`ErasureDecode::erasures_validated`].
    pub fn decode_with_erasures(
        &self,
        recv: &[u8],
        erasures: &[usize],
    ) -> Result<ErasureDecode, RsError> {
        let r = self.decode_with_erasures_impl(recv, erasures);
        telemetry::counter_inc("rs.erasure_decodes");
        match &r {
            Ok(d) => {
                telemetry::counter_add("rs.errors_corrected", d.errors_corrected as u64);
                telemetry::counter_add("rs.erasures_filled", d.erasures_filled as u64);
                if telemetry::enabled() {
                    // Errata margin: parity budget left over 2e + f, with f
                    // the flag count the impl actually charged against the
                    // budget (deduplicated, in-range) — flags consume budget
                    // even when the symbol turns out correct, but duplicate
                    // or out-of-range flags never did and must not skew the
                    // published margin.
                    let spent = 2 * d.errors_corrected + d.erasures_validated;
                    telemetry::observe(
                        "rs.errata_margin",
                        self.parity().saturating_sub(spent) as f64,
                    );
                }
            }
            Err(_) => telemetry::counter_inc("rs.erasure_decode_failures"),
        }
        r
    }

    fn decode_with_erasures_impl(
        &self,
        recv: &[u8],
        erasures: &[usize],
    ) -> Result<ErasureDecode, RsError> {
        if recv.len() != self.n {
            return Err(RsError::WrongLength {
                got: recv.len(),
                want: self.n,
            });
        }
        let gf = &self.gf;
        let two_t = self.parity();

        // Validate the erasure set: deduplicate, and drop out-of-range
        // indices — they name no received symbol, so they carry no location
        // information and must not spend budget (or abort the decode).
        let mut erase: Vec<usize> = erasures.to_vec();
        erase.sort_unstable();
        erase.dedup();
        erase.retain(|&idx| idx < self.n);
        let f = erase.len();
        if f > two_t {
            return Err(RsError::TooManyErrors);
        }

        let rem = self.word_remainder(recv);
        if rem.iter().all(|&r| r == 0) {
            // Already a codeword: any flagged symbols happened to be correct.
            return Ok(ErasureDecode {
                msg: recv[..self.k].to_vec(),
                errors_corrected: 0,
                erasures_filled: 0,
                erasures_validated: f,
            });
        }
        let synd = Self::remainder_syndromes(&rem);

        // Locator root for received index idx: codeword position p = n−1−idx,
        // X = α^p.
        let root_of = |idx: usize| gf.alpha_pow((self.n - 1 - idx) as i32);

        // Forney syndromes: fold each erasure root into the syndrome
        // sequence (T ← T·X + shift), leaving a length-(2t−f) sequence that
        // depends only on the unflagged errors.
        let mut fsynd = synd.clone();
        for &idx in &erase {
            let x = root_of(idx);
            for j in 0..fsynd.len() - 1 {
                fsynd[j] = gf.mul(fsynd[j], x) ^ fsynd[j + 1];
            }
        }

        // Berlekamp–Massey on the Forney syndromes finds the locator of the
        // unflagged errors alone.
        let lambda = self.berlekamp_massey(&fsynd[..two_t - f]);
        let e = lambda.len() - 1;
        if 2 * e + f > two_t {
            return Err(RsError::TooManyErrors);
        }
        if e == 0 && f == 0 {
            // Nonzero syndromes but nothing located: inconsistent word.
            return Err(RsError::TooManyErrors);
        }

        // Errata locator Ψ = Λ·Γ with Γ(x) = Π (1 + X_i·x) over the erasure
        // roots (convolution is order-agnostic, so `poly_mul` applies to the
        // lowest-first representation too).
        let mut psi = lambda;
        for &idx in &erase {
            psi = gf.poly_mul(&psi, &[1, root_of(idx)]);
        }

        // Chien search for all errata positions: roots of Ψ(X⁻¹). The f
        // erasure positions are roots by construction; the search must find
        // exactly deg Ψ = e + f of them or the locator is inconsistent.
        // In the log domain the term Ψ_j·X⁻ʲ at index idx is
        // α^{log Ψ_j − j·(n−1−idx)}, so each step adds j to its exponent.
        let mut terms: Vec<(usize, usize)> = psi
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(j, &c)| {
                let lead = j * (self.n - 1) % 255;
                ((TABLES.log[c as usize] as usize + 255 - lead) % 255, j)
            })
            .collect();
        let mut errata_pos = Vec::with_capacity(e + f);
        for idx in 0..self.n {
            let mut v = 0u8;
            for (exp, step) in terms.iter_mut() {
                v ^= TABLES.exp[*exp];
                *exp += *step;
                if *exp >= 255 {
                    *exp -= 255;
                }
            }
            if v == 0 {
                errata_pos.push(idx);
            }
        }
        if errata_pos.len() != psi.len() - 1 {
            return Err(RsError::TooManyErrors);
        }

        // Forney magnitudes from Ω = [S·Ψ] mod x^{2t} and the formal
        // derivative Ψ' (GF(2): odd-degree terms shifted down one degree).
        let mut omega = vec![0u8; two_t];
        for (i, &pi) in psi.iter().enumerate() {
            if pi == 0 {
                continue;
            }
            for (j, &sj) in synd.iter().enumerate() {
                if i + j < two_t {
                    omega[i + j] ^= gf.mul(pi, sj);
                }
            }
        }
        let psi_deriv: Vec<u8> = (0..psi.len().saturating_sub(1))
            .map(|j| if j % 2 == 0 { psi[j + 1] } else { 0 })
            .collect();

        let mut out = recv.to_vec();
        // Syndromes of the corrected word: S ⊕ the syndromes of each
        // correction (mag at position p adds mag·α^{i·p} to S_i).
        let mut residual = synd;
        let mut errors_corrected = 0usize;
        let mut erasures_filled = 0usize;
        for &idx in &errata_pos {
            let p = (self.n - 1 - idx) as i32;
            let x_inv = gf.alpha_pow(-p);
            let om = self.eval_lowest_first(&omega, x_inv);
            let ld = self.eval_lowest_first(&psi_deriv, x_inv);
            if ld == 0 {
                return Err(RsError::DecodeFailure);
            }
            // e = X^{1−fcr} · Ω(X⁻¹) / Ψ'(X⁻¹); with fcr = 0: e = X·Ω/Ψ'.
            let mag = gf.mul(gf.alpha_pow(p), gf.div(om, ld));
            out[idx] ^= mag;
            if mag != 0 {
                add_power_series(&mut residual, mag, p as usize);
            }
            if erase.binary_search(&idx).is_ok() {
                if mag != 0 {
                    erasures_filled += 1;
                }
            } else {
                errors_corrected += 1;
            }
        }

        // Verify: corrected word must have zero syndromes.
        if residual.iter().any(|&s| s != 0) {
            return Err(RsError::DecodeFailure);
        }
        Ok(ErasureDecode {
            msg: out[..self.k].to_vec(),
            errors_corrected,
            erasures_filled,
            erasures_validated: f,
        })
    }
}

/// `out[i] ^= c·α^{i·step}` for every i: the term c·x^step evaluated at
/// the roots α^0, α^1, …, stepping its exponent in the log domain.
fn add_power_series(out: &mut [u8], c: u8, step: usize) {
    let step = step % 255;
    let mut e = TABLES.log[c as usize] as usize;
    for o in out {
        *o ^= TABLES.exp[e];
        e += step;
        if e >= 255 {
            e -= 255;
        }
    }
}

/// Outcome of [`RsCode::decode_with_erasures`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErasureDecode {
    /// The corrected k-symbol message.
    pub msg: Vec<u8>,
    /// Unflagged symbol errors located and corrected.
    pub errors_corrected: usize,
    /// Flagged (erased) symbols whose value actually changed.
    pub erasures_filled: usize,
    /// Flags that survived validation (deduplicated, in-range) and were
    /// charged against the `2e + f ≤ n − k` budget. This — not the caller's
    /// raw flag count — is the `f` the decode actually paid for.
    pub erasures_validated: usize,
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(k: usize) -> Vec<u8> {
        (0..k).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn encode_is_systematic() {
        let rs = RsCode::new(255, 223);
        let m = msg(223);
        let cw = rs.encode(&m);
        assert_eq!(cw.len(), 255);
        assert_eq!(&cw[..223], &m[..]);
    }

    #[test]
    fn codeword_has_zero_syndromes() {
        let rs = RsCode::new(63, 45);
        let cw = rs.encode(&msg(45));
        assert!(rs.syndromes(&cw).iter().all(|&s| s == 0));
    }

    #[test]
    fn clean_round_trip() {
        let rs = RsCode::new(255, 223);
        let m = msg(223);
        let (dec, fixed) = rs.decode(&rs.encode(&m)).unwrap();
        assert_eq!(dec, m);
        assert_eq!(fixed, 0);
    }

    #[test]
    fn corrects_single_error() {
        let rs = RsCode::new(255, 223);
        let m = msg(223);
        let mut cw = rs.encode(&m);
        cw[100] ^= 0x5A;
        let (dec, fixed) = rs.decode(&cw).unwrap();
        assert_eq!(dec, m);
        assert_eq!(fixed, 1);
    }

    #[test]
    fn corrects_up_to_t_errors() {
        let rs = RsCode::new(255, 223); // t = 16
        let m = msg(223);
        let mut cw = rs.encode(&m);
        for e in 0..16 {
            cw[e * 13 + 2] ^= (e + 1) as u8;
        }
        let (dec, fixed) = rs.decode(&cw).unwrap();
        assert_eq!(dec, m);
        assert_eq!(fixed, 16);
    }

    #[test]
    fn errors_in_parity_also_corrected() {
        let rs = RsCode::new(255, 223);
        let m = msg(223);
        let mut cw = rs.encode(&m);
        cw[250] ^= 0xFF; // parity region
        cw[5] ^= 0x01;
        let (dec, fixed) = rs.decode(&cw).unwrap();
        assert_eq!(dec, m);
        assert_eq!(fixed, 2);
    }

    #[test]
    fn detects_beyond_t() {
        let rs = RsCode::new(255, 239); // t = 8
        let m = msg(239);
        let mut cw = rs.encode(&m);
        // 20 errors in distinct positions: far beyond t, decoder must not
        // return success with a wrong message (miscorrection chance is
        // negligible for this pattern; accept either error or correct msg).
        for e in 0..20 {
            cw[e * 11] ^= 0xA5;
        }
        match rs.decode(&cw) {
            Err(_) => {}
            Ok((dec, _)) => assert_eq!(dec, m, "silent miscorrection"),
        }
    }

    #[test]
    fn shortened_code_works() {
        let rs = RsCode::new(160, 128); // shortened, 128-byte payload
        let m = msg(128);
        let mut cw = rs.encode(&m);
        for e in 0..rs.t() {
            cw[e * 9 + 1] ^= 0x3C;
        }
        let (dec, fixed) = rs.decode(&cw).unwrap();
        assert_eq!(dec, m);
        assert_eq!(fixed, rs.t());
    }

    #[test]
    fn small_code_all_single_errors() {
        // Exhaustive single-error check on a small code.
        let rs = RsCode::new(15, 11);
        let m = msg(11);
        let cw = rs.encode(&m);
        for pos in 0..15 {
            for val in [1u8, 0x80, 0xFF] {
                let mut r = cw.clone();
                r[pos] ^= val;
                let (dec, fixed) = rs
                    .decode(&r)
                    .unwrap_or_else(|e| panic!("pos {pos} val {val:#x}: {e}"));
                assert_eq!(dec, m);
                assert_eq!(fixed, 1);
            }
        }
    }

    #[test]
    fn rate_and_t_accessors() {
        let rs = RsCode::new(255, 127);
        assert_eq!(rs.t(), 64);
        assert!((rs.rate() - 127.0 / 255.0).abs() < 1e-12);
        assert_eq!(rs.parity(), 128);
    }

    #[test]
    #[should_panic(expected = "n − k must be even")]
    fn rejects_odd_parity() {
        let _ = RsCode::new(255, 222);
    }

    /// Tiny deterministic generator for corruption patterns (no rand dep).
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Pick `count` distinct positions in `0..n` and a nonzero flip value
    /// for each, from a seed.
    fn distinct_positions(n: usize, count: usize, seed: u64) -> Vec<(usize, u8)> {
        let mut out: Vec<(usize, u8)> = Vec::with_capacity(count);
        let mut s = seed;
        while out.len() < count {
            s = mix(s);
            let pos = (s % n as u64) as usize;
            if out.iter().any(|&(p, _)| p == pos) {
                continue;
            }
            let flip = ((s >> 32) % 255 + 1) as u8;
            out.push((pos, flip));
        }
        out
    }

    #[test]
    fn erasures_alone_reach_full_parity_budget() {
        // f = n − k erasures (double the errors-only budget) must decode.
        let rs = RsCode::new(255, 223);
        let m = msg(223);
        let mut cw = rs.encode(&m);
        let faults = distinct_positions(255, 32, 11);
        let erasures: Vec<usize> = faults.iter().map(|&(p, _)| p).collect();
        for &(p, v) in &faults {
            cw[p] ^= v;
        }
        let d = rs.decode_with_erasures(&cw, &erasures).unwrap();
        assert_eq!(d.msg, m);
        assert_eq!(d.errors_corrected, 0);
        assert_eq!(d.erasures_filled, 32);
    }

    #[test]
    fn errors_and_erasures_across_capability_region() {
        // Every (e, f) with 2e + f ≤ n − k on a mid-size code must recover.
        let rs = RsCode::new(63, 45); // 2t = 18
        let m = msg(45);
        let cw = rs.encode(&m);
        for f in 0..=18usize {
            let e_max = (18 - f) / 2;
            for e in 0..=e_max {
                let faults = distinct_positions(63, e + f, (f * 64 + e) as u64);
                let mut r = cw.clone();
                for &(p, v) in &faults {
                    r[p] ^= v;
                }
                let erasures: Vec<usize> = faults[..f].iter().map(|&(p, _)| p).collect();
                let d = rs
                    .decode_with_erasures(&r, &erasures)
                    .unwrap_or_else(|err| panic!("e={e} f={f}: {err}"));
                assert_eq!(d.msg, m, "e={e} f={f}");
                assert_eq!(d.errors_corrected, e, "e={e} f={f}");
                assert_eq!(d.erasures_filled, f, "e={e} f={f}");
            }
        }
    }

    #[test]
    fn differential_against_errors_only_on_zero_erasures() {
        // On the f = 0 slice the erasure decoder must agree with `decode`
        // exactly: same Ok/Err, same message, same corrected count — from
        // clean words through t errors to far beyond capability.
        let rs = RsCode::new(63, 45); // t = 9
        let m = msg(45);
        let cw = rs.encode(&m);
        for e in 0..=20usize {
            for trial in 0..4u64 {
                let mut r = cw.clone();
                for (p, v) in distinct_positions(63, e, e as u64 * 131 + trial) {
                    r[p] ^= v;
                }
                let plain = rs.decode(&r);
                let via_erasure = rs.decode_with_erasures(&r, &[]);
                match (plain, via_erasure) {
                    (Ok((msg_a, fixed_a)), Ok(d)) => {
                        assert_eq!(msg_a, d.msg, "e={e} trial={trial}");
                        assert_eq!(fixed_a, d.errors_corrected, "e={e} trial={trial}");
                        assert_eq!(d.erasures_filled, 0);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "e={e} trial={trial}"),
                    (a, b) => panic!("e={e} trial={trial}: diverged: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn small_code_exhaustive_capability() {
        // RS(15, 11), 2t = 4: every admissible (e, f) over several patterns.
        let rs = RsCode::new(15, 11);
        let m = msg(11);
        let cw = rs.encode(&m);
        for f in 0..=4usize {
            for e in 0..=(4 - f) / 2 {
                for trial in 0..8u64 {
                    let faults = distinct_positions(15, e + f, trial * 37 + (e * 5 + f) as u64);
                    let mut r = cw.clone();
                    for &(p, v) in &faults {
                        r[p] ^= v;
                    }
                    let erasures: Vec<usize> = faults[..f].iter().map(|&(p, _)| p).collect();
                    let d = rs
                        .decode_with_erasures(&r, &erasures)
                        .unwrap_or_else(|err| panic!("e={e} f={f} trial={trial}: {err}"));
                    assert_eq!(d.msg, m, "e={e} f={f} trial={trial}");
                }
            }
        }
    }

    #[test]
    fn flagged_but_correct_symbols_cost_only_their_slot() {
        // Erasures pointing at symbols that are in fact correct must not
        // corrupt the decode, and must not count as filled.
        let rs = RsCode::new(255, 223);
        let m = msg(223);
        let mut cw = rs.encode(&m);
        cw[40] ^= 0x7E; // one real error
        let d = rs.decode_with_erasures(&cw, &[3, 99, 200]).unwrap();
        assert_eq!(d.msg, m);
        assert_eq!(d.errors_corrected, 1);
        assert_eq!(d.erasures_filled, 0);
    }

    #[test]
    fn beyond_capability_does_not_miscorrect_silently() {
        let rs = RsCode::new(63, 51); // 2t = 12
        let m = msg(51);
        let cw = rs.encode(&m);
        // 2e + f = 2·5 + 4 = 14 > 12: must fail or still return the truth.
        let faults = distinct_positions(63, 9, 77);
        let mut r = cw.clone();
        for &(p, v) in &faults {
            r[p] ^= v;
        }
        let erasures: Vec<usize> = faults[..4].iter().map(|&(p, _)| p).collect();
        match rs.decode_with_erasures(&r, &erasures) {
            Err(_) => {}
            Ok(d) => assert_eq!(d.msg, m, "silent miscorrection"),
        }
    }

    #[test]
    fn too_many_erasures_rejected() {
        let rs = RsCode::new(15, 11); // 2t = 4
        let cw = rs.encode(&msg(11));
        assert_eq!(
            rs.decode_with_erasures(&cw, &[0, 1, 2, 3, 4]),
            Err(RsError::TooManyErrors)
        );
    }

    #[test]
    fn duplicate_erasure_indices_are_deduplicated() {
        let rs = RsCode::new(15, 11);
        let m = msg(11);
        let mut cw = rs.encode(&m);
        cw[7] ^= 0x21;
        cw[2] ^= 0x0F;
        let d = rs.decode_with_erasures(&cw, &[7, 7, 2, 2, 7]).unwrap();
        assert_eq!(d.msg, m);
        assert_eq!(d.erasures_filled, 2);
        assert_eq!(d.erasures_validated, 2, "dedup must collapse repeats");
    }

    /// Regression (pre-fix this was an `assert_eq!` panic): a word of the
    /// wrong length through any public decode entry point must return
    /// `Err(WrongLength)`, never abort — a streaming service feeds the
    /// decoder whatever framing produced.
    #[test]
    fn wrong_length_word_is_an_error_not_a_panic() {
        let rs = RsCode::new(15, 11);
        let want = RsError::WrongLength { got: 14, want: 15 };
        assert_eq!(rs.decode(&[0u8; 14]).unwrap_err(), want);
        assert_eq!(rs.decode_with_erasures(&[0u8; 14], &[]).unwrap_err(), want);
        assert_eq!(rs.decode_with_erasures(&[0u8; 14], &[3]).unwrap_err(), want);
        let long = RsError::WrongLength { got: 16, want: 15 };
        assert_eq!(rs.decode(&[0u8; 16]).unwrap_err(), long);
        assert_eq!(rs.decode_with_erasures(&[0u8; 16], &[3]).unwrap_err(), long);
        assert_eq!(
            rs.decode(&[]).unwrap_err(),
            RsError::WrongLength { got: 0, want: 15 }
        );
    }

    /// Garbage words of every length (including n) must decode to `Err` or
    /// a verified codeword — never panic.
    #[test]
    fn garbage_words_never_panic() {
        let rs = RsCode::new(15, 11);
        let mut z = 0xDEAD_BEEFu64;
        for len in 0..32 {
            let word: Vec<u8> = (0..len)
                .map(|_| {
                    z = mix(z);
                    z as u8
                })
                .collect();
            let _ = rs.decode(&word);
            let _ = rs.decode_with_erasures(&word, &[0, 5, 500, usize::MAX]);
        }
    }

    /// Regression (pre-fix this was an `assert!` panic): out-of-range
    /// erasure indices name no received symbol — they are dropped by
    /// validation, spend no budget, and leave the decode result identical
    /// to the same call without them.
    #[test]
    fn out_of_range_erasure_flags_are_dropped_not_fatal() {
        let rs = RsCode::new(15, 11); // 2t = 4
        let m = msg(11);
        let mut cw = rs.encode(&m);
        cw[7] ^= 0x21;
        cw[2] ^= 0x0F;
        let clean = rs.decode_with_erasures(&cw, &[7, 2]).unwrap();
        let noisy = rs
            .decode_with_erasures(&cw, &[7, 2, 15, 99, usize::MAX, 7])
            .unwrap();
        assert_eq!(noisy, clean, "garbage flags changed the decode");
        assert_eq!(noisy.erasures_validated, 2);
        // All flags garbage: identical to the errors-only decode.
        let none = rs.decode_with_erasures(&cw, &[200, 300]).unwrap();
        assert_eq!(none.msg, m);
        assert_eq!(none.erasures_validated, 0);
        assert_eq!(none.errors_corrected, 2);
    }

    /// The errata margin is published from the validated flag count: with
    /// 2 real erasures the budget spent is `2e + f = 2·1 + 2 = 4` whether
    /// the caller's flag list carried duplicates and out-of-range junk or
    /// not. `erasures_validated` (the margin's `f` input) must agree.
    #[test]
    fn errata_margin_input_ignores_duplicate_and_out_of_range_flags() {
        let rs = RsCode::new(63, 51); // 2t = 12
        let m = msg(51);
        let mut cw = rs.encode(&m);
        cw[10] ^= 0x40; // unflagged error (e = 1)
        cw[20] ^= 0x11; // flagged
        cw[30] ^= 0x2A; // flagged
        let clean = rs.decode_with_erasures(&cw, &[20, 30]).unwrap();
        let noisy = rs
            .decode_with_erasures(&cw, &[30, 20, 20, 30, 63, 64, 1_000_000])
            .unwrap();
        assert_eq!(clean.msg, m);
        assert_eq!(noisy, clean);
        assert_eq!(clean.erasures_validated, 2);
        assert_eq!(
            2 * noisy.errors_corrected + noisy.erasures_validated,
            4,
            "budget spent must come from the validated set"
        );
    }
}
