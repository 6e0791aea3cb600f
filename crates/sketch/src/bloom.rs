//! Bloom filter, used by OmniWindow's flowkey tracking (Algorithm 1).
//!
//! The data plane keeps a Bloom filter per sub-window to deduplicate
//! flowkeys before appending them to the bounded `fk_buffer` or cloning
//! them to the controller. The filter must support cheap full reset
//! (performed by the clear packets between sub-windows).

use ow_common::flowkey::FlowKey;
use ow_common::hash::{HashFamily, KeyDigest};

use crate::traits::SketchMeta;

/// A standard k-hash Bloom filter over flow keys.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    nbits: usize,
    hashes: HashFamily,
    inserted: u64,
}

impl BloomFilter {
    /// Create a filter with `nbits` bits (rounded up to a multiple of 64)
    /// and `k` hash functions derived from `seed`.
    ///
    /// # Panics
    /// Panics if `nbits == 0` or `k == 0`.
    pub fn new(nbits: usize, k: usize, seed: u64) -> BloomFilter {
        assert!(nbits > 0, "Bloom filter needs at least one bit");
        assert!(k > 0, "Bloom filter needs at least one hash");
        let words = nbits.div_ceil(64);
        BloomFilter {
            bits: vec![0; words],
            nbits: words * 64,
            hashes: HashFamily::new(seed, k),
            inserted: 0,
        }
    }

    /// Size the filter for `expected` insertions at roughly 1% false
    /// positives (m ≈ 9.6 n, k = 7).
    pub fn for_capacity(expected: usize, seed: u64) -> BloomFilter {
        let nbits = (expected.max(64)) * 10;
        BloomFilter::new(nbits, 7, seed)
    }

    /// Whether all `k` bits of `d` are set. Every bit is probed (no
    /// short-circuit), so the loads overlap instead of each waiting on
    /// the previous compare.
    #[inline]
    fn probe(&self, d: KeyDigest) -> bool {
        (0..self.hashes.len()).fold(true, |all, i| {
            let bit = d.index(i, self.nbits);
            all & (self.bits[bit / 64] & (1u64 << (bit % 64)) != 0)
        })
    }

    /// Set all `k` bits of `d` and count the insertion.
    #[inline]
    fn set(&mut self, d: KeyDigest) {
        for i in 0..self.hashes.len() {
            let bit = d.index(i, self.nbits);
            self.bits[bit / 64] |= 1u64 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Insert a key.
    pub fn insert(&mut self, key: &FlowKey) {
        self.set(self.hashes.digest(key));
    }

    /// Whether the key may have been inserted (false positives possible,
    /// false negatives impossible).
    pub fn contains(&self, key: &FlowKey) -> bool {
        self.probe(self.hashes.digest(key))
    }

    /// Insert and report whether the key was (probably) already present —
    /// the exact check Algorithm 1 performs per packet. One digest, one
    /// probe pass, and a set pass only for a new key.
    #[inline]
    pub fn check_and_insert(&mut self, key: &FlowKey) -> bool {
        let d = self.hashes.digest(key);
        let was = self.probe(d);
        if !was {
            self.set(d);
        }
        was
    }

    /// Clear the filter.
    pub fn reset(&mut self) {
        self.bits.fill(0);
        self.inserted = 0;
    }

    /// Number of inserts since the last reset.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Fraction of set bits (load factor).
    pub fn fill_ratio(&self) -> f64 {
        let ones: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        ones as f64 / self.nbits as f64
    }

    /// Resource footprint in the hardware layout: a k-hash filter is k
    /// register arrays of 32-bit cells, one SALU each. This simulator
    /// sets its k bits anywhere in one bit array (one insert can change
    /// several words of it), so it has no C4 test; partitioning it would
    /// move its false positives.
    pub fn meta(&self) -> SketchMeta {
        let k = self.hashes.len();
        let memory_bytes = self.bits.len() * 8;
        SketchMeta {
            name: "BloomFilter",
            memory_bytes,
            register_arrays: k,
            cells_per_array: (memory_bytes * 8 / 32).div_ceil(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> FlowKey {
        FlowKey::five_tuple(i, !i, (i % 60000) as u16, 80, 6)
    }

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::for_capacity(1000, 7);
        for i in 0..1000 {
            bf.insert(&key(i));
        }
        for i in 0..1000 {
            assert!(bf.contains(&key(i)), "false negative for {i}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut bf = BloomFilter::for_capacity(10_000, 8);
        for i in 0..10_000 {
            bf.insert(&key(i));
        }
        let fps = (10_000..30_000).filter(|&i| bf.contains(&key(i))).count();
        let rate = fps as f64 / 20_000.0;
        assert!(rate < 0.015, "false positive rate {rate}");
    }

    #[test]
    fn check_and_insert_reports_first_sighting() {
        let mut bf = BloomFilter::for_capacity(100, 1);
        assert!(!bf.check_and_insert(&key(1)));
        assert!(bf.check_and_insert(&key(1)));
    }

    #[test]
    fn reset_empties_filter() {
        let mut bf = BloomFilter::for_capacity(100, 2);
        for i in 0..100 {
            bf.insert(&key(i));
        }
        bf.reset();
        assert_eq!(bf.inserted(), 0);
        assert_eq!(bf.fill_ratio(), 0.0);
        // After reset nothing is contained (whp for these keys).
        let still = (0..100).filter(|&i| bf.contains(&key(i))).count();
        assert_eq!(still, 0);
    }

    #[test]
    fn meta_reports_memory() {
        let bf = BloomFilter::new(1024, 4, 3);
        assert_eq!(bf.meta().memory_bytes, 128);
        assert_eq!(bf.meta().register_arrays, 4);
        assert_eq!(bf.meta().cells_per_array, 8);
    }
}
