//! Additive (synchronous) data scrambler.
//!
//! The preamble-correction math of §4.3.1 assumes the transmitter avoids DC
//! stress ("the transmitter's DC stress should be avoided with appropriate
//! data scrambler applied", footnote 4): long runs of identical symbols both
//! stress the LC cells and starve the equalizer of transitions. We use the
//! standard x⁷ + x⁴ + 1 additive scrambler (802.11-style); applying it twice
//! with the same seed is the identity.

/// x⁷ + x⁴ + 1 additive scrambler state.
#[derive(Debug, Clone, Copy)]
pub struct Scrambler {
    state: u8, // 7 bits
}

impl Scrambler {
    /// Create with a nonzero 7-bit seed.
    ///
    /// # Panics
    /// Panics if `seed & 0x7F == 0` (the all-zero state is degenerate).
    pub fn new(seed: u8) -> Self {
        assert!(
            seed & 0x7F != 0,
            "Scrambler: seed must be nonzero in 7 bits"
        );
        Self { state: seed & 0x7F }
    }

    /// Next keystream bit.
    #[inline]
    fn next_bit(&mut self) -> bool {
        let b = ((self.state >> 6) ^ (self.state >> 3)) & 1;
        self.state = ((self.state << 1) | b) & 0x7F;
        b == 1
    }

    /// Scramble (or descramble — same operation) a byte buffer in place,
    /// MSB-first within each byte.
    pub fn scramble_bytes(&mut self, bytes: &mut [u8]) {
        for byte in bytes {
            let mut ks = 0u8;
            for _ in 0..8 {
                ks = (ks << 1) | self.next_bit() as u8;
            }
            *byte ^= ks;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn involution_bytes() {
        let mut data: Vec<u8> = (0..=255).collect();
        let orig = data.clone();
        Scrambler::new(1).scramble_bytes(&mut data);
        Scrambler::new(1).scramble_bytes(&mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn breaks_long_runs() {
        // All-zero input (worst DC stress) must come out with short runs.
        let mut bytes = vec![0u8; 512];
        Scrambler::new(0x7F).scramble_bytes(&mut bytes);
        let bits = crate::gray::bytes_to_bits(&bytes);
        let run = bits
            .chunk_by(|a, b| a == b)
            .map(<[bool]>::len)
            .max()
            .unwrap();
        assert!(run <= 16, "longest run after scrambling: {run}");
        // And roughly balanced.
        let ones = bits.iter().filter(|&&b| b).count();
        assert!((ones as f64 / 4096.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn keystream_period_is_127() {
        // Maximal LFSR of order 7 ⇒ keystream repeats with period 127.
        let mut s = Scrambler::new(0x33);
        let ks: Vec<bool> = (0..254).map(|_| s.next_bit()).collect();
        assert_eq!(&ks[..127], &ks[127..]);
        // ...and not with any shorter divisor-free prefix (spot-check 63).
        assert_ne!(&ks[..63], &ks[63..126]);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = [0u8; 8];
        let mut b = [0u8; 8];
        Scrambler::new(0x11).scramble_bytes(&mut a);
        Scrambler::new(0x2F).scramble_bytes(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "seed must be nonzero")]
    fn zero_seed_rejected() {
        let _ = Scrambler::new(0x80); // 0 in the low 7 bits
    }
}
