//! HyperLogLog (Flajolet et al.; practice variant of Heule et al. EDBT'13).
//!
//! Cardinality estimation with one-byte registers (the paper's
//! configuration: "each bucket is one byte long"). Includes the small-
//! range linear-counting correction from the HLL++ paper. Mergeable by
//! register-wise max — the distinct-union merge the controller uses when
//! combining sub-window states.

use ow_common::flowkey::FlowKey;
use ow_common::hash::HashFn;

/// A HyperLogLog estimator with `m = 2^p` one-byte registers.
///
/// ```
/// use ow_sketch::HyperLogLog;
/// use ow_common::flowkey::FlowKey;
///
/// let mut hll = HyperLogLog::new(12, 1);
/// for i in 0..10_000u32 { hll.insert(&FlowKey::src_ip(i)); }
/// let est = hll.estimate();
/// assert!((est - 10_000.0).abs() / 10_000.0 < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    p: u8,
    registers: Vec<u8>,
    hash: HashFn,
}

impl HyperLogLog {
    /// Create an estimator with precision `p` (4 ≤ p ≤ 18), i.e. `2^p`
    /// registers.
    ///
    /// # Panics
    /// Panics if `p` is outside `[4, 18]`.
    pub fn new(p: u8, seed: u64) -> HyperLogLog {
        assert!((4..=18).contains(&p), "HLL precision must be in [4,18]");
        HyperLogLog {
            p,
            registers: vec![0; 1 << p],
            hash: HashFn::new(seed ^ 0x4711, 0),
        }
    }

    /// Number of registers.
    pub(crate) fn m(&self) -> usize {
        self.registers.len()
    }

    /// Record a key.
    pub fn insert(&mut self, key: &FlowKey) {
        let h = self.hash.hash_key(key);
        let idx = (h >> (64 - self.p)) as usize;
        let rest = h << self.p;
        // Rank: position of the leftmost 1-bit in the remaining bits.
        let rank = (rest.leading_zeros() + 1).min(64 - self.p as u32) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    fn alpha(m: f64) -> f64 {
        // Standard bias-correction constants.
        match m as usize {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        }
    }

    /// Estimate the number of distinct keys recorded.
    pub fn estimate(&self) -> f64 {
        let m = self.m() as f64;
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = Self::alpha(m) * m * m / sum;
        if raw <= 2.5 * m {
            // Small-range correction: fall back to linear counting on the
            // zero registers.
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// Merge another instance (register-wise max).
    ///
    /// # Panics
    /// Panics if precisions differ.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(self.p, other.p, "precision mismatch");
        for (a, b) in self.registers.iter_mut().zip(other.registers.iter()) {
            *a = (*a).max(*b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> FlowKey {
        FlowKey::five_tuple(i, !i, 7, 443, 6)
    }

    #[test]
    fn estimate_within_five_percent_large() {
        let mut hll = HyperLogLog::new(14, 1);
        for i in 0..100_000u32 {
            hll.insert(&key(i));
        }
        let est = hll.estimate();
        let err = (est - 100_000.0).abs() / 100_000.0;
        assert!(err < 0.05, "HLL error {err:.3}");
    }

    #[test]
    fn small_range_correction_is_accurate() {
        let mut hll = HyperLogLog::new(12, 2);
        for i in 0..100u32 {
            hll.insert(&key(i));
        }
        let est = hll.estimate();
        assert!((80.0..130.0).contains(&est), "estimate {est} far from 100");
    }

    #[test]
    fn duplicates_do_not_count() {
        let mut hll = HyperLogLog::new(12, 3);
        for _ in 0..1000 {
            hll.insert(&key(1));
        }
        assert!(hll.estimate() < 5.0);
    }

    #[test]
    fn merge_estimates_union() {
        let mut a = HyperLogLog::new(12, 4);
        let mut b = HyperLogLog::new(12, 4);
        for i in 0..5000u32 {
            a.insert(&key(i));
        }
        for i in 2500..7500u32 {
            b.insert(&key(i));
        }
        a.merge(&b);
        let est = a.estimate();
        let err = (est - 7500.0).abs() / 7500.0;
        assert!(err < 0.1, "union estimate error {err:.3}");
    }

    #[test]
    fn merge_is_idempotent() {
        let mut a = HyperLogLog::new(10, 5);
        for i in 0..1000u32 {
            a.insert(&key(i));
        }
        let before = a.clone();
        let copy = a.clone();
        a.merge(&copy);
        assert_eq!(a, before);
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn bad_precision_panics() {
        let _ = HyperLogLog::new(3, 7);
    }
}
