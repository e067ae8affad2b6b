//! GF(2⁸) arithmetic for Reed–Solomon coding.
//!
//! Field defined by the primitive polynomial x⁸+x⁴+x³+x²+1 (0x11D) with
//! generator α = 2, the conventional choice for RS(255, k). Multiplication
//! and division go through exp/log tables built once at startup.

/// The primitive polynomial (with the x⁸ term) defining the field.
pub const PRIMITIVE_POLY: u16 = 0x11D;

/// Exp/log tables for GF(2⁸).
#[derive(Debug, Clone)]
pub struct Gf256 {
    exp: [u8; 512], // doubled to avoid a mod in mul
    log: [u8; 256],
}

impl Default for Gf256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Gf256 {
    /// Build the field tables.
    pub fn new() -> Self {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIMITIVE_POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Self { exp, log }
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
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
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
            self.exp[self.log[a as usize] as usize + 255 - self.log[b as usize] as usize]
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics for zero.
    #[inline]
    pub fn inv(&self, a: u8) -> u8 {
        assert!(a != 0, "GF(256): inverse of zero");
        self.exp[255 - self.log[a as usize] as usize]
    }

    /// `α^i` for any integer exponent (reduced mod 255).
    #[inline]
    pub fn alpha_pow(&self, i: i32) -> u8 {
        let e = i.rem_euclid(255) as usize;
        self.exp[e]
    }

    /// Discrete log base α. Undefined (panics) for zero.
    #[inline]
    pub fn log_alpha(&self, a: u8) -> u8 {
        assert!(a != 0, "GF(256): log of zero");
        self.log[a as usize]
    }

    /// Evaluate polynomial `poly` (coefficients highest-degree-first) at `x`
    /// by Horner's rule.
    pub fn poly_eval(&self, poly: &[u8], x: u8) -> u8 {
        poly.iter().fold(0u8, |acc, &c| self.mul(acc, x) ^ c)
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
    fn poly_eval_horner() {
        let gf = Gf256::new();
        // p(x) = x² + 1 at x = 2 → 4 ^ 1 = 5.
        assert_eq!(gf.poly_eval(&[1, 0, 1], 2), 5);
        // Constant polynomial.
        assert_eq!(gf.poly_eval(&[42], 17), 42);
    }

    #[test]
    fn poly_mul_matches_eval() {
        let gf = Gf256::new();
        let a = [3u8, 0, 7];
        let b = [1u8, 5];
        let prod = gf.poly_mul(&a, &b);
        for x in [1u8, 2, 3, 100, 200] {
            assert_eq!(
                gf.poly_eval(&prod, x),
                gf.mul(gf.poly_eval(&a, x), gf.poly_eval(&b, x))
            );
        }
    }
}
