//! Gray coding and bit/byte packing helpers.
//!
//! PQAM maps bits to per-axis amplitude levels through a Gray code so that
//! the dominant error event — confusing two *adjacent* constellation levels —
//! costs exactly one bit (§5.1 notes Gray code in PAM as the standard
//! coding companion).

/// Binary → Gray.
#[inline]
pub fn to_gray(b: u32) -> u32 {
    b ^ (b >> 1)
}

/// Gray → binary (prefix-xor fold over all 32 bits).
#[inline]
pub fn from_gray(g: u32) -> u32 {
    let mut b = g;
    b ^= b >> 1;
    b ^= b >> 2;
    b ^= b >> 4;
    b ^= b >> 8;
    b ^= b >> 16;
    b
}

/// Pack bits (MSB-first) into bytes, zero-padding the final byte.
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bits.len().div_ceil(8));
    let mut chunks = bits.chunks_exact(8);
    for c in &mut chunks {
        out.push(c.iter().fold(0u8, |acc, &b| (acc << 1) | b as u8));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let byte = tail.iter().fold(0u8, |acc, &b| (acc << 1) | b as u8);
        out.push(byte << (8 - tail.len()));
    }
    out
}

/// Unpack bytes into bits, MSB-first.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    let mut out = vec![false; bytes.len() * 8];
    for (bits, &b) in out.chunks_exact_mut(8).zip(bytes) {
        for (i, bit) in bits.iter_mut().enumerate() {
            *bit = (b >> (7 - i)) & 1 == 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_round_trip() {
        for b in 0..4096u32 {
            assert_eq!(from_gray(to_gray(b)), b);
        }
    }

    #[test]
    fn gray_adjacent_values_differ_by_one_bit() {
        for b in 0..1023u32 {
            let d = to_gray(b) ^ to_gray(b + 1);
            assert_eq!(d.count_ones(), 1, "b = {b}");
        }
    }

    #[test]
    fn gray_known_values() {
        assert_eq!(to_gray(0), 0);
        assert_eq!(to_gray(1), 1);
        assert_eq!(to_gray(2), 3);
        assert_eq!(to_gray(3), 2);
        assert_eq!(to_gray(7), 4);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
    }

    #[test]
    fn pack_is_msb_first() {
        let bits = [true, false, false, false, false, false, false, true];
        assert_eq!(bits_to_bytes(&bits), vec![0x81]);
    }

    #[test]
    fn partial_byte_zero_padded() {
        let bits = [true, true, true];
        assert_eq!(bits_to_bytes(&bits), vec![0xE0]);
    }
}
