//! A seeded Zipf sampler for heavy-tailed synthetic traces.
//!
//! CAIDA backbone traces have strongly heavy-tailed flow-size
//! distributions; the accuracy experiments depend on that shape (a few
//! elephant flows, many mice). This sampler draws ranks from a Zipf(α)
//! distribution over `n` items using the rejection-inversion method of
//! Hörmann & Derflinger (1996) — O(1) per sample, no precomputed tables,
//! fully deterministic given the RNG.

use rand::Rng;

/// Zipf distribution over ranks `1..=n` with exponent `alpha > 0`.
///
/// ```
/// use ow_common::zipf::Zipf;
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let zipf = Zipf::new(1_000, 1.1);
/// let mut rng = StdRng::seed_from_u64(1);
/// let rank = zipf.sample(&mut rng);
/// assert!((1..=1_000).contains(&rank));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    // Precomputed constants of the rejection-inversion sampler.
    h_x1: f64,
    h_n: f64,
    s: f64,
}

impl Zipf {
    /// Create a sampler over `1..=n` with exponent `alpha`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `alpha <= 0`.
    pub fn new(n: u64, alpha: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(alpha > 0.0, "Zipf exponent must be positive");
        let h = |x: f64| -> f64 {
            if (alpha - 1.0).abs() < 1e-12 {
                (1.0 + x).ln()
            } else {
                ((1.0 + x).powf(1.0 - alpha) - 1.0) / (1.0 - alpha)
            }
        };
        let h_x1 = h(1.5) - 1.0;
        let h_n = h(n as f64 + 0.5);
        let s = 2.0 - Self::h_inv_static(alpha, h(2.5) - (2.0f64).powf(-alpha));
        Zipf {
            n,
            alpha,
            h_x1,
            h_n,
            s,
        }
    }

    fn h_inv_static(alpha: f64, x: f64) -> f64 {
        if (alpha - 1.0).abs() < 1e-12 {
            x.exp() - 1.0
        } else {
            (1.0 + x * (1.0 - alpha)).powf(1.0 / (1.0 - alpha)) - 1.0
        }
    }

    fn h(&self, x: f64) -> f64 {
        if (self.alpha - 1.0).abs() < 1e-12 {
            (1.0 + x).ln()
        } else {
            ((1.0 + x).powf(1.0 - self.alpha) - 1.0) / (1.0 - self.alpha)
        }
    }

    fn h_inv(&self, x: f64) -> f64 {
        Self::h_inv_static(self.alpha, x)
    }

    /// Draw a rank in `1..=n`; rank 1 is the most popular.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u = self.h_x1 + rng.gen::<f64>() * (self.h_n - self.h_x1);
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= self.s || u >= self.h(k + 0.5) - (k).powf(-self.alpha) {
                return k as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(1000, 1.1);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let s = z.sample(&mut rng);
            assert!((1..=1000).contains(&s));
        }
    }

    #[test]
    fn rank_one_dominates() {
        let z = Zipf::new(10_000, 1.2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut count1 = 0u32;
        let mut count_tail = 0u32;
        let total = 100_000;
        for _ in 0..total {
            let s = z.sample(&mut rng);
            if s == 1 {
                count1 += 1;
            }
            if s > 5000 {
                count_tail += 1;
            }
        }
        // Rank 1 should receive far more mass than the entire deep tail.
        assert!(count1 > 5_000, "rank-1 mass too small: {count1}");
        assert!(count1 > count_tail, "tail unexpectedly heavy");
    }

    #[test]
    fn alpha_one_special_case_works() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            seen.insert(z.sample(&mut rng));
        }
        // With α=1 over 100 items, nearly every rank appears in 5k draws.
        assert!(seen.len() > 80, "only {} distinct ranks", seen.len());
    }

    #[test]
    fn deterministic_with_same_seed() {
        let z = Zipf::new(500, 1.05);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn single_item_always_returns_one() {
        let z = Zipf::new(1, 1.5);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
