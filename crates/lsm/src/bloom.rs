//! Bloom filters for SSTables.
//!
//! Standard Kirsch–Mitzenmacher double hashing: `k` probe positions are
//! derived from two 64-bit hashes, giving false-positive rates close to the
//! theoretical optimum of `0.6185^(bits/key)`. A probe position is the
//! hash modulo the filter's bit count, taken by multiplication
//! ([`FastMod`]) rather than by a hardware division.

/// Most probes a filter makes per key; [`BloomFilter::new`] clamps to it
/// and [`BloomFilter::from_bytes`] refuses more.
const MAX_PROBES: u32 = 30;

/// `n % d` for a fixed `d` without dividing: Lemire's fastmod with a
/// 128-bit reciprocal (Lemire, Kaser & Kurz, *Faster Remainder by Direct
/// Computation*, 2019), exact for every 64-bit `n` and `d >= 1`.
#[derive(Debug, Clone, Copy)]
struct FastMod {
    d: u64,
    /// `ceil(2^128 / d)`, which wraps to 0 for `d = 1` (every remainder
    /// is then 0, which the product below also gives).
    m: u128,
}

impl FastMod {
    fn new(d: u64) -> Self {
        debug_assert!(d >= 1);
        FastMod {
            d,
            m: (u128::MAX / d as u128).wrapping_add(1),
        }
    }

    /// The high 64 bits of `(m * n mod 2^128) * d`, a 192-bit product.
    #[inline]
    fn rem(self, n: u64) -> u64 {
        let low = self.m.wrapping_mul(n as u128);
        let d = self.d as u128;
        let bottom = ((low as u64 as u128) * d) >> 64;
        let top = (low >> 64) * d;
        ((top + bottom) >> 64) as u64
    }
}

/// A fixed-size Bloom filter built once per SSTable.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    /// The filter's bit count, with its reciprocal.
    num_bits: FastMod,
    num_probes: u32,
}

impl BloomFilter {
    /// Builds a filter sized for `num_keys` keys at `bits_per_key` bits
    /// each, then inserts nothing. Returns `None` if `bits_per_key` is 0.
    pub fn new(num_keys: usize, bits_per_key: u32) -> Option<Self> {
        if bits_per_key == 0 {
            return None;
        }
        let num_bits = (num_keys.max(1) as u64 * bits_per_key as u64).max(64);
        // k = bits_per_key * ln2, clamped to a sane range.
        let num_probes = ((bits_per_key as f64 * 0.69) as u32).clamp(1, MAX_PROBES);
        Some(BloomFilter {
            bits: vec![0u64; num_bits.div_ceil(64) as usize],
            num_bits: FastMod::new(num_bits),
            num_probes,
        })
    }

    /// Reconstructs a filter from its serialized form.
    ///
    /// Returns `None` on a malformed payload, including a header no
    /// filter this module builds carries: no bits, or a probe count
    /// outside `1..=30`.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        if data.len() < 12 {
            return None;
        }
        let num_bits = u64::from_le_bytes(data[0..8].try_into().ok()?);
        let num_probes = u32::from_le_bytes(data[8..12].try_into().ok()?);
        if num_bits == 0 || !(1..=MAX_PROBES).contains(&num_probes) {
            return None;
        }
        let words = &data[12..];
        if !words.len().is_multiple_of(8) || (words.len() as u64 / 8) < num_bits.div_ceil(64) {
            return None;
        }
        let bits = words
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Some(BloomFilter {
            bits,
            num_bits: FastMod::new(num_bits),
            num_probes,
        })
    }

    /// Serializes the filter.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.bits.len() * 8);
        out.extend_from_slice(&self.num_bits.d.to_le_bytes());
        out.extend_from_slice(&self.num_probes.to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        let (h1, h2) = hash_pair(key);
        let mut h = h1;
        for _ in 0..self.num_probes {
            let bit = self.num_bits.rem(h);
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
            h = h.wrapping_add(h2);
        }
    }

    /// Tests membership. False positives are possible; false negatives are
    /// not.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hashed(hash_pair(key))
    }

    /// [`BloomFilter::may_contain`] for a key whose [`hash_pair`] the
    /// caller already has: a point read hashes its key once and probes
    /// every table's filter with the same pair.
    pub fn may_contain_hashed(&self, (h1, h2): (u64, u64)) -> bool {
        let mut h = h1;
        for _ in 0..self.num_probes {
            let bit = self.num_bits.rem(h);
            if self.bits[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
            h = h.wrapping_add(h2);
        }
        true
    }
}

/// Two independent 64-bit hashes of `key` (FNV-1a with different offsets):
/// what every filter derives its probe positions from.
pub fn hash_pair(key: &[u8]) -> (u64, u64) {
    let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h2: u64 = 0x9e37_79b9_7f4a_7c15;
    for &b in key {
        h1 = (h1 ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        h2 = (h2 ^ b as u64)
            .wrapping_mul(0x0100_0000_01b5)
            .rotate_left(17);
    }
    (h1, h2 | 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1_000, 10).unwrap();
        for i in 0..1_000u64 {
            f.insert(&i.to_be_bytes());
        }
        for i in 0..1_000u64 {
            assert!(f.may_contain(&i.to_be_bytes()));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::new(10_000, 10).unwrap();
        for i in 0..10_000u64 {
            f.insert(&i.to_be_bytes());
        }
        let fp = (10_000..110_000u64)
            .filter(|i| f.may_contain(&i.to_be_bytes()))
            .count();
        let rate = fp as f64 / 100_000.0;
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    #[test]
    fn zero_bits_disables_filter() {
        assert!(BloomFilter::new(100, 0).is_none());
    }

    #[test]
    fn serialization_roundtrip() {
        let mut f = BloomFilter::new(100, 10).unwrap();
        for i in 0..100u64 {
            f.insert(&i.to_be_bytes());
        }
        let g = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        for i in 0..100u64 {
            assert!(g.may_contain(&i.to_be_bytes()));
        }
        assert!(BloomFilter::from_bytes(&[1, 2, 3]).is_none());
    }

    #[test]
    fn fastmod_is_the_remainder() {
        let mut n = 0x9E37_79B9_7F4A_7C15u64;
        let ds = [
            1,
            2,
            3,
            63,
            64,
            65,
            1_000,
            81_920,
            1 << 32,
            (1 << 63) + 1,
            u64::MAX,
        ];
        for d in ds {
            let f = FastMod::new(d);
            for probe in [0, 1, d - 1, d, d.wrapping_add(1), u64::MAX, u64::MAX - 1] {
                assert_eq!(f.rem(probe), probe % d, "{probe} % {d}");
            }
            for _ in 0..10_000 {
                n = n.rotate_left(23).wrapping_mul(0xD605_BBB5_8C8A_BBFD) ^ d;
                assert_eq!(f.rem(n), n % d, "{n} % {d}");
            }
        }
    }

    /// A filter's header decides how far every probe reaches; one no
    /// builder writes is a malformed payload, not a filter that divides
    /// by zero or loops 2^32 times on each read.
    #[test]
    fn hostile_header_is_refused() {
        let good = BloomFilter::new(100, 10).unwrap().to_bytes();
        assert!(BloomFilter::from_bytes(&good).is_some());
        let with = |num_bits: u64, num_probes: u32| {
            let mut bytes = good.clone();
            bytes[0..8].copy_from_slice(&num_bits.to_le_bytes());
            bytes[8..12].copy_from_slice(&num_probes.to_le_bytes());
            BloomFilter::from_bytes(&bytes)
        };
        assert!(with(0, 7).is_none(), "no bits");
        assert!(with(1_000, 0).is_none(), "no probes");
        assert!(with(1_000, 31).is_none(), "over 30 probes");
        assert!(with(1_000, u32::MAX).is_none(), "2^32 probes");
        // The edges of the accepted range still load.
        with(1, 30).expect("one bit, 30 probes").may_contain(b"k");
        assert!(with(1_000, 1).is_some());
    }
}
