//! Deterministic pseudo-randomness for reproducible benchmarking.
//!
//! The CIDR'17 paper calls for "the creation of a large number of
//! multi-model data … using little manual effort"; for a *benchmark* that
//! creation must additionally be exactly reproducible so two systems see
//! identical inputs. Everything random in UDBMS-Bench flows through
//! [`SplitMix64`] (fast, well-distributed, trivially seedable) plus a
//! [`Zipf`] sampler for skewed access patterns, rather than a third-party
//! RNG whose stream could change across versions.

/// SplitMix64 PRNG (Steele, Lea & Flood 2014). 64 bits of state, passes
/// BigCrush when used as a stream, and is the standard seeder for larger
/// generators. Deterministic across platforms.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a seed. Equal seeds yield equal streams forever.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent generator for a named substream. Used to give
    /// each entity type (customers, orders, …) its own stream so adding
    /// more of one entity never perturbs another.
    pub fn substream(&self, label: &str) -> SplitMix64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        SplitMix64::new(
            self.state
                .wrapping_add(h)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                | 1,
        )
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`. Uses Lemire's unbiased multiply-shift
    /// rejection method. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // rejection zone: low < bound && low < (u64::MAX % bound + 1)
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "range_i64: lo > hi");
        let span = (hi as i128 - lo as i128 + 1) as u64;
        lo.wrapping_add(self.below(span) as i64)
    }

    /// Uniform usize in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indexes out of `[0, n)` (Floyd's algorithm);
    /// result is in random order. `k` is clamped to `n`.
    pub fn sample_indexes(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.index(j + 1);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        self.shuffle(&mut chosen);
        chosen
    }

    /// A lowercase ASCII identifier-like string of length `len`.
    pub fn ident(&mut self, len: usize) -> String {
        const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
        (0..len)
            .map(|_| ALPHA[self.index(ALPHA.len())] as char)
            .collect()
    }
}

/// Exact Zipf-distributed sampler over ranks `0..n` with exponent `theta`.
///
/// Precomputes the normalized CDF once (O(n) memory) and samples by binary
/// search (O(log n)), which is exact and deterministic — preferable for a
/// benchmark over approximate rejection methods. `theta = 0` degenerates to
/// the uniform distribution; larger `theta` is more skewed (classic YCSB
/// uses 0.99).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with skew `theta >= 0`.
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf over empty domain");
        assert!(theta >= 0.0, "negative Zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // guard against fp round-off at the tail
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the domain is empty (never; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// The probability mass of `rank` — the exact share of draws expected
    /// to land on it. Benchmark validity tests compare observed draw
    /// frequencies against this (chi-squared style) instead of
    /// re-deriving the normalization constant.
    pub fn share(&self, rank: usize) -> f64 {
        let hi = self.cdf[rank];
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_independent_and_stable() {
        let root = SplitMix64::new(7);
        let mut c1 = root.substream("customers");
        let mut c2 = root.substream("customers");
        let mut o = root.substream("orders");
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), o.next_u64());
    }

    #[test]
    fn below_respects_bound_and_covers_domain() {
        let mut rng = SplitMix64::new(9);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_i64_inclusive_bounds() {
        let mut rng = SplitMix64::new(3);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..20_000 {
            let v = rng.range_i64(-2, 2);
            assert!((-2..=2).contains(&v));
            lo_seen |= v == -2;
            hi_seen |= v == 2;
        }
        assert!(lo_seen && hi_seen);
        // degenerate single-point range
        assert_eq!(rng.range_i64(5, 5), 5);
    }

    #[test]
    fn f64_in_unit_interval_with_reasonable_mean() {
        let mut rng = SplitMix64::new(11);
        let mut sum = 0.0;
        const N: usize = 50_000;
        for _ in 0..N {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "overwhelmingly unlikely to be identity"
        );
    }

    #[test]
    fn sample_indexes_distinct_and_in_range() {
        let mut rng = SplitMix64::new(13);
        for _ in 0..50 {
            let s = rng.sample_indexes(20, 8);
            assert_eq!(s.len(), 8);
            let mut t = s.clone();
            t.sort_unstable();
            t.dedup();
            assert_eq!(t.len(), 8, "indexes must be distinct");
            assert!(s.iter().all(|&i| i < 20));
        }
        assert_eq!(rng.sample_indexes(3, 10).len(), 3, "k clamps to n");
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mut rng = SplitMix64::new(17);
        let z = Zipf::new(1000, 0.99);
        let mut counts = vec![0usize; 1000];
        const N: usize = 100_000;
        for _ in 0..N {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[100] && counts[0] > counts[999]);
        // rank0 should take a large share under theta=0.99 over 1000 items
        assert!(counts[0] as f64 / N as f64 > 0.05);
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let mut rng = SplitMix64::new(19);
        let z = Zipf::new(10, 0.0);
        let mut counts = vec![0usize; 10];
        const N: usize = 100_000;
        for _ in 0..N {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / N as f64;
            assert!((frac - 0.1).abs() < 0.02, "uniform share off: {frac}");
        }
    }

    #[test]
    fn zipf_shares_sum_to_one_and_decrease() {
        let z = Zipf::new(100, 0.9);
        let total: f64 = (0..100).map(|r| z.share(r)).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares must sum to 1: {total}");
        for r in 1..100 {
            assert!(
                z.share(r) <= z.share(r - 1) + 1e-12,
                "share must be non-increasing in rank"
            );
        }
        // theta = 0: every rank carries the same mass
        let u = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((u.share(r) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn ident_is_lowercase_ascii() {
        let mut rng = SplitMix64::new(29);
        let s = rng.ident(16);
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_lowercase()));
    }
}
