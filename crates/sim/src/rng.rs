//! Deterministic pseudo-random numbers for workloads and scenarios.

/// A small, fast, seedable PRNG (xoshiro256++), self-contained so that every
/// experiment in the repository is bit-reproducible from its seed alone.
///
/// The state is seeded through SplitMix64 as recommended by the xoshiro
/// authors, so even trivially different seeds (0, 1, 2 …) give uncorrelated
/// streams.
///
/// # Example
///
/// ```
/// use tg_sim::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.range(10);
/// assert!(x < 10);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator; handy for giving each node of
    /// a cluster its own stream from one experiment seed.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "range bound must be positive");
        // Rejection sampling on the multiply-high method: unbiased. The
        // rejection threshold is (2^64 - bound) % bound, i.e. computed from
        // the *bound*, not from the low product word.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    pub(crate) fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `\[0, 1\]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.range(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_is_in_bounds_and_covers() {
        let mut rng = SimRng::new(99);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = rng.range(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// Regression test for the Lemire rejection threshold: it must be
    /// derived from the bound, not from the low product word. With the
    /// wrong threshold the draw is visibly biased; with the right one each
    /// residue of a small bound appears equally often to within noise.
    #[test]
    fn range_is_unbiased_over_small_bound() {
        let mut rng = SimRng::new(1234);
        const BOUND: u64 = 6;
        const DRAWS: u64 = 60_000;
        let mut counts = [0u64; BOUND as usize];
        for _ in 0..DRAWS {
            counts[rng.range(BOUND) as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<u64>(), DRAWS);
        // Chi-square with 5 degrees of freedom: the 99.9th percentile is
        // ~20.5, so a correct generator fails this about once per thousand
        // seeds — and the seed is fixed.
        let expected = DRAWS as f64 / BOUND as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 20.5, "chi2 = {chi2}, counts = {counts:?}");
        // Every residue must also land within 3% of the expected share.
        for &c in &counts {
            let frac = c as f64 / DRAWS as f64;
            assert!(
                (frac - 1.0 / BOUND as f64).abs() < 0.03,
                "counts = {counts:?}"
            );
        }
    }

    /// The rejection loop must also be exact for bounds that do not divide
    /// 2^64, including ones above 2^63 where `x >= bound` already implies
    /// acceptance of a biased remainder if the threshold is wrong.
    #[test]
    fn range_handles_huge_bounds() {
        let mut rng = SimRng::new(77);
        let bound = (1u64 << 63) + 12345;
        for _ in 0..1000 {
            assert!(rng.range(bound) < bound);
        }
    }

    #[test]
    fn range_bound_one_is_zero() {
        let mut rng = SimRng::new(5);
        for _ in 0..10 {
            assert_eq!(rng.range(1), 0);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(3);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.1)));
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut rng = SimRng::new(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::new(1);
        let mut a = parent.fork(0);
        let mut b = parent.fork(1);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn pick_returns_member() {
        let mut rng = SimRng::new(2);
        let xs = [10, 20, 30];
        for _ in 0..20 {
            assert!(xs.contains(rng.pick(&xs)));
        }
    }
}
