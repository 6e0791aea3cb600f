//! Linear Counting (Whang, Vander-Zanden, Taylor — TODS'90).
//!
//! A bitmap cardinality estimator: hash each key to one bit; estimate
//! `n ≈ m · ln(m / z)` where `z` is the number of zero bits. Used for
//! Q11 (flow cardinality) in Exp#2. Mergeable across sub-windows by
//! bitwise OR — which is exactly how the controller merges the migrated
//! state (§8, "merging intermediate data without AFRs").

use ow_common::flowkey::FlowKey;
use ow_common::hash::HashFn;

/// A linear-counting bitmap over `m` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearCounting {
    bits: Vec<u64>,
    nbits: usize,
    hash: HashFn,
}

impl LinearCounting {
    /// Create an estimator with `nbits` bits (rounded up to 64).
    ///
    /// # Panics
    /// Panics if `nbits == 0`.
    pub fn new(nbits: usize, seed: u64) -> LinearCounting {
        assert!(nbits > 0, "LinearCounting needs at least one bit");
        let words = nbits.div_ceil(64);
        LinearCounting {
            bits: vec![0; words],
            nbits: words * 64,
            hash: HashFn::new(seed ^ 0x1C, 0),
        }
    }

    /// Record a key.
    pub fn insert(&mut self, key: &FlowKey) {
        let bit = self.hash.index(key, self.nbits);
        self.bits[bit / 64] |= 1u64 << (bit % 64);
    }

    /// Estimate the number of distinct keys recorded.
    pub fn estimate(&self) -> f64 {
        let m = self.nbits as f64;
        let ones: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        let zeros = m - ones as f64;
        if zeros <= 0.0 {
            m * m.ln() // saturated
        } else {
            m * (m / zeros).ln()
        }
    }

    /// Merge another instance (bitwise OR) — distinct-union semantics.
    ///
    /// # Panics
    /// Panics if sizes differ.
    pub fn merge(&mut self, other: &LinearCounting) {
        assert_eq!(self.nbits, other.nbits, "size mismatch");
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= b;
        }
    }

    /// Clear the bitmap.
    #[cfg(test)]
    pub(crate) fn reset(&mut self) {
        self.bits.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> FlowKey {
        FlowKey::five_tuple(i, i ^ 0xABCD, 10, 80, 6)
    }

    #[test]
    fn estimate_within_ten_percent() {
        let mut lc = LinearCounting::new(64 * 1024, 1);
        for i in 0..10_000u32 {
            lc.insert(&key(i));
        }
        let est = lc.estimate();
        let err = (est - 10_000.0).abs() / 10_000.0;
        assert!(err < 0.10, "LC error {err:.3}");
    }

    #[test]
    fn duplicates_do_not_count() {
        let mut lc = LinearCounting::new(4096, 2);
        for _ in 0..100 {
            for i in 0..50u32 {
                lc.insert(&key(i));
            }
        }
        let est = lc.estimate();
        assert!((30.0..80.0).contains(&est), "estimate {est} far from 50");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LinearCounting::new(16 * 1024, 3);
        let mut b = LinearCounting::new(16 * 1024, 3);
        let mut union = LinearCounting::new(16 * 1024, 3);
        for i in 0..1000u32 {
            a.insert(&key(i));
            union.insert(&key(i));
        }
        for i in 500..1500u32 {
            b.insert(&key(i));
            union.insert(&key(i));
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn empty_estimates_zero() {
        let lc = LinearCounting::new(1024, 4);
        assert_eq!(lc.estimate(), 0.0);
    }

    #[test]
    fn reset_clears() {
        let mut lc = LinearCounting::new(1024, 5);
        lc.insert(&key(1));
        lc.reset();
        assert_eq!(lc.estimate(), 0.0);
    }
}
