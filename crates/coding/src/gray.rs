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
    bits.chunks(8)
        .map(|c| {
            c.iter()
                .enumerate()
                .fold(0u8, |acc, (i, &b)| acc | ((b as u8) << (7 - i)))
        })
        .collect()
}

/// Unpack bytes into bits, MSB-first.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    bytes
        .iter()
        .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
        .collect()
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
