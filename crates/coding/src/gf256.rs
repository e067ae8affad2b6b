//! GF(2⁸) arithmetic for Reed–Solomon coding.
//!
//! Field defined by the primitive polynomial x⁸+x⁴+x³+x²+1 (0x11D) with
//! generator α = 2, the conventional choice for RS(255, k). Multiplication
//! and division go through exp/log tables built at compile time.

/// The primitive polynomial (with the x⁸ term) defining the field.
pub const PRIMITIVE_POLY: u16 = 0x11D;

/// The exp/log tables. `exp` is doubled so a sum of two logs indexes it
/// without a reduction mod 255.
pub(crate) struct Tables {
    pub(crate) exp: [u8; 512],
    pub(crate) log: [u8; 256],
}

/// The field tables, built once by the compiler.
pub(crate) static TABLES: Tables = build_tables();

const fn build_tables() -> Tables {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= PRIMITIVE_POLY;
        }
        i += 1;
    }
    while i < 512 {
        exp[i] = exp[i - 255];
        i += 1;
    }
    Tables { exp, log }
}

/// Handle on the GF(2⁸) arithmetic. The tables are a compile-time
/// `static`, so constructing a handle costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gf256 {
    _private: (),
}

impl Gf256 {
    /// A handle on the field (free: the tables are built at compile time).
    pub const fn new() -> Self {
        Self { _private: () }
    }

    /// Addition (= subtraction) in GF(2⁸).
    #[inline]
    pub fn add(&self, a: u8, b: u8) -> u8 {
        a ^ b
    }

    /// Multiplication.
    #[inline]
    pub fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            TABLES.exp[TABLES.log[a as usize] as usize + TABLES.log[b as usize] as usize]
        }
    }

    /// Division `a / b`.
    ///
    /// # Panics
    /// Panics on division by zero.
    #[inline]
    pub fn div(&self, a: u8, b: u8) -> u8 {
        assert!(b != 0, "GF(256): division by zero");
        if a == 0 {
            0
        } else {
            TABLES.exp[TABLES.log[a as usize] as usize + 255 - TABLES.log[b as usize] as usize]
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics for zero.
    #[inline]
    pub fn inv(&self, a: u8) -> u8 {
        assert!(a != 0, "GF(256): inverse of zero");
        TABLES.exp[255 - TABLES.log[a as usize] as usize]
    }

    /// `α^i` for any integer exponent (reduced mod 255).
    #[inline]
    pub fn alpha_pow(&self, i: i32) -> u8 {
        let e = i.rem_euclid(255) as usize;
        TABLES.exp[e]
    }

    /// Discrete log base α. Undefined (panics) for zero.
    #[inline]
    pub fn log_alpha(&self, a: u8) -> u8 {
        assert!(a != 0, "GF(256): log of zero");
        TABLES.log[a as usize]
    }

    /// Multiply two polynomials (highest-degree-first coefficients).
    pub fn poly_mul(&self, a: &[u8], b: &[u8]) -> Vec<u8> {
        if a.is_empty() || b.is_empty() {
            return vec![];
        }
        let mut out = vec![0u8; a.len() + b.len() - 1];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                out[i + j] ^= self.mul(ai, bj);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_consistent() {
        let gf = Gf256::new();
        for a in 1..=255u16 {
            let a = a as u8;
            assert_eq!(gf.alpha_pow(gf.log_alpha(a) as i32), a);
        }
    }

    #[test]
    fn mul_identity_and_zero() {
        let gf = Gf256::new();
        for a in 0..=255u16 {
            let a = a as u8;
            assert_eq!(gf.mul(a, 1), a);
            assert_eq!(gf.mul(a, 0), 0);
        }
    }

    #[test]
    fn mul_commutative_associative_spot() {
        let gf = Gf256::new();
        for &(a, b, c) in &[(3u8, 7u8, 11u8), (0x53, 0xCA, 0x01), (255, 254, 2)] {
            assert_eq!(gf.mul(a, b), gf.mul(b, a));
            assert_eq!(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
        }
    }

    #[test]
    fn distributive_spot() {
        let gf = Gf256::new();
        for &(a, b, c) in &[(5u8, 9u8, 200u8), (0x8E, 0x4D, 0x3B)] {
            assert_eq!(gf.mul(a, b ^ c), gf.mul(a, b) ^ gf.mul(a, c));
        }
    }

    #[test]
    fn inverse_round_trip() {
        let gf = Gf256::new();
        for a in 1..=255u16 {
            let a = a as u8;
            assert_eq!(gf.mul(a, gf.inv(a)), 1, "a = {a}");
        }
    }

    #[test]
    fn division_inverts_multiplication() {
        let gf = Gf256::new();
        for &(a, b) in &[(17u8, 99u8), (200, 3), (255, 255)] {
            assert_eq!(gf.div(gf.mul(a, b), b), a);
        }
    }

    #[test]
    fn known_aes_style_product() {
        // 0x53 · 0xCA = 0x01 in the AES field (0x11B), NOT here — verify we
        // are in 0x11D by checking α⁸ = 0x1D (reduction of x⁸).
        let gf = Gf256::new();
        assert_eq!(gf.alpha_pow(8), 0x1D);
        assert_eq!(gf.alpha_pow(0), 1);
        assert_eq!(gf.alpha_pow(255), 1);
    }

    #[test]
    fn poly_mul_matches_eval() {
        let gf = Gf256::new();
        // Horner evaluation, highest-degree-first.
        let eval = |p: &[u8], x: u8| p.iter().fold(0u8, |acc, &c| gf.mul(acc, x) ^ c);
        assert_eq!(eval(&[1, 0, 1], 2), 5); // x² + 1 at 2
        let a = [3u8, 0, 7];
        let b = [1u8, 5];
        let prod = gf.poly_mul(&a, &b);
        for x in [1u8, 2, 3, 100, 200] {
            assert_eq!(eval(&prod, x), gf.mul(eval(&a, x), eval(&b, x)));
        }
    }
}
