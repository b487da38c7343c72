//! CRC-32C (Castagnoli) checksums for WAL records and SSTable footers.
//!
//! Implemented in-repo to keep the dependency surface minimal. On x86-64
//! with SSE4.2 the `crc32` instruction, which computes this polynomial,
//! does eight bytes at a time; elsewhere, and as the oracle the
//! instruction path is tested against, the classic table-driven
//! byte-at-a-time loop.

/// Polynomial for CRC-32C, reflected.
const POLY: u32 = 0x82F6_3B78;

/// Lazily built lookup table.
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        t
    })
}

/// Computes the CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` needs the `sse4.2` feature it is compiled
        // for, which was just detected on the running CPU.
        return unsafe { crc32c_sse42(data) };
    }
    crc32c_table(data)
}

/// [`crc32c`] with the `crc32` instruction. Callable only where the CPU
/// is known to support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(!0u32);
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of 8"));
        crc = _mm_crc32_u64(crc, word);
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// [`crc32c`] one table lookup per byte: the portable path.
fn crc32c_table(data: &[u8]) -> u32 {
    let t = table();
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ t[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32C test vector.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_table(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    /// Whichever path the dispatch takes on this CPU agrees with the table
    /// loop for every length that mixes whole words with a tail, at every
    /// alignment of the first byte.
    #[test]
    fn dispatched_path_equals_table_path() {
        let data: Vec<u8> = (0..8 + 257u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=257 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32c(slice),
                    crc32c_table(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let a = crc32c(b"hello world");
        let b = crc32c(b"hello worle");
        assert_ne!(a, b);
    }
}
