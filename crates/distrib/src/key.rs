//! Key distributions.
//!
//! These mirror the request distributions available in YCSB (uniform,
//! zipfian, hotspot, sequential, exponential, latest) so that Gadget can
//! both drive its own event generator and reproduce YCSB workloads for the
//! paper's comparison experiments (§4). [`Ecdf`] additionally supports
//! user-provided empirical distributions (paper §5.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Returns a deterministic RNG for the given seed.
///
/// All Gadget components derive their randomness from seeded [`StdRng`]s so
/// that every experiment is reproducible.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A source of event or request keys.
///
/// Implementations are stateful: `latest` depends on the number of inserted
/// keys, `sequential` cycles, and so on. Keys are dense integers in
/// `[0, n)`; callers map them to application identifiers.
pub trait KeyDistribution: Send {
    /// Draws the next key.
    fn next_key(&mut self, rng: &mut StdRng) -> u64;

    /// Informs the distribution that the keyspace has grown to `n` keys.
    ///
    /// Only `latest`-style distributions care; the default implementation
    /// ignores the notification.
    fn record_insert(&mut self, _n: u64) {}

    /// The current number of distinct keys this distribution can produce.
    fn keyspace(&self) -> u64;
}

/// Uniformly distributed keys over `[0, n)`.
#[derive(Debug, Clone)]
pub struct UniformKeys {
    n: u64,
}

impl UniformKeys {
    /// Creates a uniform distribution over `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "keyspace must be non-empty");
        UniformKeys { n }
    }
}

impl KeyDistribution for UniformKeys {
    fn next_key(&mut self, rng: &mut StdRng) -> u64 {
        rng.gen_range(0..self.n)
    }

    fn keyspace(&self) -> u64 {
        self.n
    }
}

/// Zipfian-distributed keys over `[0, n)` using Gray's rejection-free
/// inversion method, as in YCSB's `ZipfianGenerator`.
///
/// Key `0` is the most popular, key `1` the second most popular, and so on.
#[derive(Debug, Clone)]
pub struct ZipfianKeys {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2theta: f64,
    /// `1 + 0.5^theta`: draws with `u * zetan` below it pick key 1.
    key1_bound: f64,
}

impl ZipfianKeys {
    /// Creates a zipfian distribution over `[0, n)` with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "keyspace must be non-empty");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zetan = zeta(n, theta);
        let zeta2theta = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        ZipfianKeys {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2theta,
            key1_bound: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// Grows the keyspace to `n` keys, extending the zeta sum incrementally.
    fn grow(&mut self, n: u64) {
        if n <= self.n {
            return;
        }
        for i in self.n..n {
            self.zetan += 1.0 / ((i + 1) as f64).powf(self.theta);
        }
        self.n = n;
        self.eta =
            (1.0 - (2.0 / n as f64).powf(1.0 - self.theta)) / (1.0 - self.zeta2theta / self.zetan);
    }
}

/// Computes the generalized harmonic number `H_{n,theta}`.
fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 0..n {
        sum += 1.0 / ((i + 1) as f64).powf(theta);
    }
    sum
}

impl KeyDistribution for ZipfianKeys {
    fn next_key(&mut self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.key1_bound {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }

    fn record_insert(&mut self, n: u64) {
        self.grow(n);
    }

    fn keyspace(&self) -> u64 {
        self.n
    }
}

/// Zipfian popularity with identities scattered across the keyspace by a
/// 64-bit mix hash (YCSB's `ScrambledZipfianGenerator`).
///
/// The *popularity* of ranks is zipfian but the popular keys are spread
/// uniformly over `[0, n)` rather than clustered at zero.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: ZipfianKeys,
    n: u64,
}

impl ScrambledZipfian {
    /// Creates a scrambled zipfian distribution over `[0, n)`.
    pub fn new(n: u64, theta: f64) -> Self {
        ScrambledZipfian {
            inner: ZipfianKeys::new(n, theta),
            n,
        }
    }
}

/// One SplitMix64 step: advances `state` by the golden-ratio increment
/// and returns the new state, finalized — the standard 64-bit mixer,
/// and the workspace's one copy of it. Key scrambling, arrival
/// schedules, the driver's session churn and the crash harness's kill
/// points all draw from it, so seeded runs need no RNG dependency and
/// stay bit-identical across platforms. (`shims/rand` keeps its own: it
/// stands in for an external crate.)
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 as a hash: one [`splitmix64`] step from state `z`.
#[inline]
pub(crate) fn mix64(z: u64) -> u64 {
    splitmix64(&mut { z })
}

impl KeyDistribution for ScrambledZipfian {
    fn next_key(&mut self, rng: &mut StdRng) -> u64 {
        let rank = self.inner.next_key(rng);
        mix64(rank) % self.n
    }

    fn keyspace(&self) -> u64 {
        self.n
    }
}

/// A hot set of keys receiving a disproportionate share of accesses
/// (YCSB's `HotspotIntegerGenerator`).
#[derive(Debug, Clone)]
pub struct HotspotKeys {
    n: u64,
    hot_keys: u64,
    hot_op_fraction: f64,
}

impl HotspotKeys {
    /// Creates a hotspot distribution: `hot_set_fraction` of the keyspace
    /// receives `hot_op_fraction` of the operations.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or either fraction lies outside `[0, 1]`.
    pub fn new(n: u64, hot_set_fraction: f64, hot_op_fraction: f64) -> Self {
        assert!(n > 0, "keyspace must be non-empty");
        assert!((0.0..=1.0).contains(&hot_set_fraction));
        assert!((0.0..=1.0).contains(&hot_op_fraction));
        let hot_keys = ((n as f64 * hot_set_fraction) as u64).max(1);
        HotspotKeys {
            n,
            hot_keys,
            hot_op_fraction,
        }
    }
}

impl KeyDistribution for HotspotKeys {
    fn next_key(&mut self, rng: &mut StdRng) -> u64 {
        if rng.gen::<f64>() < self.hot_op_fraction {
            rng.gen_range(0..self.hot_keys)
        } else if self.hot_keys < self.n {
            rng.gen_range(self.hot_keys..self.n)
        } else {
            rng.gen_range(0..self.n)
        }
    }

    fn keyspace(&self) -> u64 {
        self.n
    }
}

/// Keys issued in strict round-robin order `0, 1, …, n-1, 0, 1, …`.
#[derive(Debug, Clone)]
pub struct SequentialKeys {
    n: u64,
    next: u64,
}

impl SequentialKeys {
    /// Creates a sequential distribution over `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "keyspace must be non-empty");
        SequentialKeys { n, next: 0 }
    }
}

impl KeyDistribution for SequentialKeys {
    fn next_key(&mut self, _rng: &mut StdRng) -> u64 {
        let k = self.next;
        self.next = (self.next + 1) % self.n;
        k
    }

    fn keyspace(&self) -> u64 {
        self.n
    }
}

/// Exponentially distributed keys (YCSB's `ExponentialGenerator`).
///
/// Parameterized like YCSB: `percentile` percent of accesses fall within the
/// first `frac` fraction of the keyspace.
#[derive(Debug, Clone)]
pub struct ExponentialKeys {
    n: u64,
    gamma: f64,
}

impl ExponentialKeys {
    /// Creates an exponential distribution over `[0, n)`.
    ///
    /// YCSB's defaults are `frac = 0.8571` and `percentile = 95`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, `frac` is not in `(0, 1]`, or `percentile` is
    /// not in `(0, 100)`.
    pub fn new(n: u64, frac: f64, percentile: f64) -> Self {
        assert!(n > 0, "keyspace must be non-empty");
        assert!(frac > 0.0 && frac <= 1.0);
        assert!(percentile > 0.0 && percentile < 100.0);
        let gamma = -(1.0 - percentile / 100.0).ln() / (n as f64 * frac);
        ExponentialKeys { n, gamma }
    }
}

impl KeyDistribution for ExponentialKeys {
    fn next_key(&mut self, rng: &mut StdRng) -> u64 {
        loop {
            let u: f64 = rng.gen();
            let k = (-u.ln() / self.gamma) as u64;
            if k < self.n {
                return k;
            }
        }
    }

    fn keyspace(&self) -> u64 {
        self.n
    }
}

/// Keys skewed towards the most recently inserted one (YCSB's
/// `SkewedLatestGenerator`).
///
/// The distribution draws a zipfian *age* and subtracts it from the newest
/// key, so key `n-1` is the most popular. Calling
/// [`record_insert`](KeyDistribution::record_insert) shifts the hot spot to
/// the new maximum.
#[derive(Debug, Clone)]
pub struct LatestKeys {
    inner: ZipfianKeys,
    n: u64,
}

impl LatestKeys {
    /// Creates a latest distribution with an initial keyspace of `n` keys.
    pub fn new(n: u64, theta: f64) -> Self {
        LatestKeys {
            inner: ZipfianKeys::new(n, theta),
            n,
        }
    }
}

impl KeyDistribution for LatestKeys {
    fn next_key(&mut self, rng: &mut StdRng) -> u64 {
        let age = self.inner.next_key(rng);
        self.n - 1 - age.min(self.n - 1)
    }

    fn record_insert(&mut self, n: u64) {
        if n > self.n {
            self.n = n;
            self.inner.grow(n);
        }
    }

    fn keyspace(&self) -> u64 {
        self.n
    }
}

/// Always returns the same key.
#[derive(Debug, Clone)]
pub struct ConstantKey {
    key: u64,
}

impl ConstantKey {
    /// Creates a constant distribution.
    pub fn new(key: u64) -> Self {
        ConstantKey { key }
    }
}

impl KeyDistribution for ConstantKey {
    fn next_key(&mut self, _rng: &mut StdRng) -> u64 {
        self.key
    }

    fn keyspace(&self) -> u64 {
        1
    }
}

/// An empirical cumulative distribution function over keys.
///
/// Built from observed `(key, weight)` pairs — for instance the key
/// frequencies of a recorded production stream — and sampled by inverse
/// transform. This backs the paper's "the event generator can also work
/// with ECDFs provided by the user" feature (§5.1).
#[derive(Debug, Clone)]
pub struct Ecdf {
    keys: Vec<u64>,
    cumulative: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from `(key, weight)` pairs.
    ///
    /// Weights need not be normalized. Pairs with non-positive weight are
    /// ignored. Returns `None` if no pair has positive weight.
    pub fn from_weights(pairs: &[(u64, f64)]) -> Option<Self> {
        let total: f64 = pairs.iter().map(|(_, w)| w.max(0.0)).sum();
        if total <= 0.0 {
            return None;
        }
        let mut keys = Vec::with_capacity(pairs.len());
        let mut cumulative = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        for &(k, w) in pairs {
            if w <= 0.0 {
                continue;
            }
            acc += w / total;
            keys.push(k);
            cumulative.push(acc);
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Some(Ecdf { keys, cumulative })
    }

    /// Builds an ECDF from a raw sequence of observed keys.
    ///
    /// Returns `None` if the sample is empty.
    pub fn from_samples(samples: &[u64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut counts = std::collections::HashMap::new();
        for &k in samples {
            *counts.entry(k).or_insert(0.0f64) += 1.0;
        }
        let mut pairs: Vec<(u64, f64)> = counts.into_iter().collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        Ecdf::from_weights(&pairs)
    }
}

impl KeyDistribution for Ecdf {
    fn next_key(&mut self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        let idx = self.cumulative.partition_point(|&c| c < u);
        self.keys[idx.min(self.keys.len() - 1)]
    }

    fn keyspace(&self) -> u64 {
        self.keys.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_its_known_answers() {
        let mut state = 0;
        let draws = [(); 3].map(|_| splitmix64(&mut state));
        assert_eq!(
            draws,
            [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
        );
        for z in [0, 1, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
            let mut state = z;
            assert_eq!(mix64(z), splitmix64(&mut state), "one step from {z:#x}");
        }
    }

    fn histogram(d: &mut dyn KeyDistribution, draws: usize, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = seeded_rng(seed);
        let mut h = vec![0u64; n];
        for _ in 0..draws {
            h[d.next_key(&mut rng) as usize] += 1;
        }
        h
    }

    #[test]
    fn uniform_covers_keyspace_evenly() {
        let mut d = UniformKeys::new(10);
        let h = histogram(&mut d, 100_000, 10, 1);
        for &c in &h {
            assert!((c as f64 - 10_000.0).abs() < 1_000.0, "bucket count {c}");
        }
    }

    #[test]
    fn zipfian_rank_zero_is_most_popular() {
        let mut d = ZipfianKeys::new(1_000, 0.99);
        let h = histogram(&mut d, 100_000, 1_000, 2);
        assert!(h[0] > h[1]);
        assert!(h[1] > h[10]);
        assert!(h[0] as f64 > 0.05 * 100_000.0);
    }

    #[test]
    fn zipfian_grow_extends_range() {
        let mut d = ZipfianKeys::new(10, 0.9);
        d.record_insert(100);
        assert_eq!(d.keyspace(), 100);
        let mut rng = seeded_rng(3);
        let mut saw_big = false;
        for _ in 0..10_000 {
            if d.next_key(&mut rng) >= 10 {
                saw_big = true;
                break;
            }
        }
        assert!(saw_big, "grown zipfian never produced a new key");
    }

    #[test]
    fn scrambled_zipfian_spreads_popularity() {
        let mut d = ScrambledZipfian::new(1_000, 0.99);
        let h = histogram(&mut d, 100_000, 1_000, 4);
        // The most popular key should not be key 0 in general (scattered).
        let argmax = h.iter().enumerate().max_by_key(|(_, c)| **c).unwrap().0;
        assert_eq!(argmax as u64, mix64(0) % 1_000);
    }

    #[test]
    fn hotspot_respects_op_fraction() {
        let mut d = HotspotKeys::new(1_000, 0.1, 0.9);
        let h = histogram(&mut d, 100_000, 1_000, 5);
        let hot: u64 = h[..100].iter().sum();
        assert!((hot as f64 / 100_000.0 - 0.9).abs() < 0.02);
    }

    #[test]
    fn sequential_cycles_in_order() {
        let mut d = SequentialKeys::new(3);
        let mut rng = seeded_rng(6);
        let seq: Vec<u64> = (0..7).map(|_| d.next_key(&mut rng)).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn exponential_concentrates_low_keys() {
        let mut d = ExponentialKeys::new(1_000, 0.8571, 95.0);
        let h = histogram(&mut d, 100_000, 1_000, 7);
        let low: u64 = h[..858].iter().sum();
        assert!(low as f64 / 100_000.0 > 0.9);
    }

    #[test]
    fn latest_prefers_newest_key() {
        let mut d = LatestKeys::new(100, 0.99);
        let h = histogram(&mut d, 50_000, 100, 8);
        assert!(h[99] > h[50]);
        d.record_insert(200);
        let h = histogram(&mut d, 50_000, 200, 9);
        assert!(h[199] > h[100]);
    }

    #[test]
    fn ecdf_matches_weights() {
        let mut d = Ecdf::from_weights(&[(5, 3.0), (9, 1.0)]).unwrap();
        let mut rng = seeded_rng(10);
        let mut five = 0;
        for _ in 0..10_000 {
            if d.next_key(&mut rng) == 5 {
                five += 1;
            }
        }
        assert!((five as f64 / 10_000.0 - 0.75).abs() < 0.03);
    }

    #[test]
    fn ecdf_from_samples_reproduces_support() {
        let samples = vec![1, 1, 1, 2, 3, 3];
        let mut d = Ecdf::from_samples(&samples).unwrap();
        let mut rng = seeded_rng(11);
        for _ in 0..100 {
            let k = d.next_key(&mut rng);
            assert!([1, 2, 3].contains(&k));
        }
        assert!(Ecdf::from_samples(&[]).is_none());
        assert!(Ecdf::from_weights(&[(1, 0.0)]).is_none());
    }

    #[test]
    fn distributions_are_deterministic_per_seed() {
        let mut a = ZipfianKeys::new(500, 0.99);
        let mut b = ZipfianKeys::new(500, 0.99);
        let mut ra = seeded_rng(42);
        let mut rb = seeded_rng(42);
        for _ in 0..1_000 {
            assert_eq!(a.next_key(&mut ra), b.next_key(&mut rb));
        }
    }
}
