//! Request distributions: zipfian (YCSB flavour), uniform, latest.

use rand::rngs::SmallRng;
use rand::Rng;

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// The YCSB zipfian generator (Gray et al.'s algorithm), default skew
/// θ = 0.99.
///
/// By default items are *scrambled*: rank `r` maps to item
/// `mix64(r) % n`, so popularity is decorrelated from key order — the
/// behaviour of YCSB's `ScrambledZipfianGenerator`, which the paper's
/// zipfian-0.99 workloads use.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    scrambled: bool,
}

impl Zipfian {
    /// Creates a zipfian distribution over `[0, n)` with the YCSB default
    /// skew of 0.99, scrambled.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        Self::with_theta(n, 0.99, true)
    }

    /// Creates a zipfian distribution with explicit skew `theta` in
    /// `(0, 1)` and scrambling choice.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn with_theta(n: u64, theta: f64, scrambled: bool) -> Self {
        assert!(n > 0, "zipfian needs a non-empty item space");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zeta_n = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        Zipfian {
            n,
            theta,
            alpha,
            zeta_n,
            eta,
            scrambled,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation for small n; Euler–Maclaurin tail for large n
        // keeps construction O(1e6) regardless of item count.
        const DIRECT: u64 = 1_000_000;
        let direct_n = n.min(DIRECT);
        let mut sum = 0.0;
        for i in 1..=direct_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > DIRECT {
            // integral approximation of the remaining tail
            let a = DIRECT as f64;
            let b = n as f64;
            sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        }
        sum
    }

    /// Draws the next item index in `[0, n)`.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zeta_n;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        let rank = rank.min(self.n - 1);
        if self.scrambled {
            // xor a constant first: mix64(0) == 0 would otherwise pin the
            // hottest rank to item 0.
            mix64(rank ^ 0x9E37_79B9_7F4A_7C15) % self.n
        } else {
            rank
        }
    }
}

/// A request distribution over item indexes `[0, n)`.
#[derive(Debug, Clone)]
pub enum Distribution {
    /// Every item equally likely.
    Uniform,
    /// Zipfian skew (YCSB default 0.99, scrambled).
    Zipfian(Zipfian),
    /// Most recently inserted items most likely (YCSB "latest"): rank `r`
    /// under an (unscrambled) zipfian maps to item `n-1-r`.
    Latest(Zipfian),
}

impl Distribution {
    /// The standard zipfian-0.99 over `[0, n)`.
    pub fn zipfian(n: u64) -> Self {
        Distribution::Zipfian(Zipfian::new(n))
    }

    /// The YCSB "latest" distribution over `[0, n)`.
    pub fn latest(n: u64) -> Self {
        Distribution::Latest(Zipfian::with_theta(n, 0.99, false))
    }

    /// Draws an item index in `[0, n)`; `n` is the *current* item count
    /// (grows as the workload inserts, which "latest" must track).
    pub fn sample(&self, rng: &mut SmallRng, n: u64) -> u64 {
        debug_assert!(n > 0);
        match self {
            Distribution::Uniform => rng.gen_range(0..n),
            Distribution::Zipfian(z) => z.sample(rng) % n,
            Distribution::Latest(z) => {
                let rank = z.sample(rng).min(n - 1);
                n - 1 - rank
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn histogram(dist: &Distribution, n: u64, samples: usize) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut h = vec![0u64; n as usize];
        for _ in 0..samples {
            h[dist.sample(&mut rng, n) as usize] += 1;
        }
        h
    }

    #[test]
    fn zipfian_is_skewed() {
        let n = 1000;
        let d = Distribution::Zipfian(Zipfian::with_theta(n, 0.99, false));
        let h = histogram(&d, n, 200_000);
        // Unscrambled: item 0 is the hottest by far.
        assert!(h[0] > h[1] && h[1] >= h[5]);
        // The hottest item should carry a large share (zipf 0.99 over 1000
        // items gives item 0 about 1/zeta ≈ 13%).
        assert!(h[0] as f64 / 200_000.0 > 0.08, "head too light: {}", h[0]);
    }

    #[test]
    fn scrambling_moves_the_hot_spot_but_keeps_skew() {
        let n = 1000;
        let d = Distribution::zipfian(n);
        let h = histogram(&d, n, 200_000);
        let max = *h.iter().max().unwrap();
        assert!(max as f64 / 200_000.0 > 0.08, "skew lost after scrambling");
        // Hot item is (almost surely) not item 0 any more.
        assert!(h[0] < max);
    }

    #[test]
    fn uniform_is_flat() {
        let n = 100;
        let h = histogram(&Distribution::Uniform, n, 100_000);
        let (lo, hi) = (h.iter().min().unwrap(), h.iter().max().unwrap());
        assert!(*hi < 2 * *lo, "uniform too bumpy: {lo}..{hi}");
    }

    #[test]
    fn latest_prefers_recent() {
        let n = 1000;
        let d = Distribution::latest(n);
        let h = histogram(&d, n, 100_000);
        assert!(h[999] > h[0] * 5, "latest should favor the newest item");
    }

    #[test]
    fn latest_tracks_growing_n() {
        let d = Distribution::latest(100);
        let mut rng = SmallRng::seed_from_u64(1);
        // sampling with n=5000 must stay in range and favor the tail
        let mut tail = 0;
        for _ in 0..10_000 {
            let s = d.sample(&mut rng, 5000);
            assert!(s < 5000);
            if s > 4500 {
                tail += 1;
            }
        }
        assert!(tail > 5_000, "tail hits {tail}");
    }

    #[test]
    fn samples_cover_space() {
        // Unscrambled: the rank space itself must be fully covered.
        // (Scrambled zipfian, like YCSB's, loses some items to modulo
        // collisions by design.)
        let n = 50;
        let d = Distribution::Zipfian(Zipfian::with_theta(n, 0.99, false));
        let h = histogram(&d, n, 100_000);
        let misses = h.iter().filter(|&&c| c == 0).count();
        assert_eq!(misses, 0, "{misses} ranks never sampled");
    }

    #[test]
    fn huge_n_constructs_quickly_and_samples_in_range() {
        let z = Zipfian::new(10_000_000_000);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10_000_000_000);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_items_panics() {
        let _ = Zipfian::new(0);
    }
}
