//! Count-Min Sketch (Cormode & Muthukrishnan 2005).
//!
//! The workhorse frequency sketch of the evaluation: `d` rows of `w`
//! counters; update adds to one counter per row; query takes the minimum.
//! Always overestimates. Exp#6 collects a Count-Min instance (128 KB per
//! array, 1–4 hash functions); Exp#2 uses it for per-flow statistics.

use ow_common::flowkey::FlowKey;
use ow_common::hash::HashFamily;

use crate::traits::{FrequencySketch, SketchMeta};

/// A `d × w` Count-Min sketch with 32-bit counters.
///
/// Counters saturate instead of wrapping: a Tofino register cell is fixed
/// width and the P4 programs the paper integrates use saturating adds.
///
/// ```
/// use ow_sketch::{CountMin, traits::FrequencySketch};
/// use ow_common::flowkey::FlowKey;
///
/// let mut cm = CountMin::new(4, 1024, 42);
/// let flow = FlowKey::five_tuple(0x0A000001, 0x0A000002, 1234, 80, 6);
/// cm.update(&flow, 3);
/// cm.update(&flow, 2);
/// assert!(cm.query(&flow) >= 5); // never underestimates
/// cm.reset();
/// assert_eq!(cm.query(&flow), 0);
/// ```
#[derive(Debug, Clone)]
pub struct CountMin {
    rows: usize,
    width: usize,
    counters: Vec<u32>,
    hashes: HashFamily,
}

impl CountMin {
    /// Create a sketch with `rows` rows of `width` counters.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `width == 0`.
    pub fn new(rows: usize, width: usize, seed: u64) -> CountMin {
        assert!(
            rows > 0 && width > 0,
            "CountMin dimensions must be positive"
        );
        CountMin {
            rows,
            width,
            counters: vec![0; rows * width],
            hashes: HashFamily::new(seed, rows),
        }
    }

    /// Create a sketch with `rows` rows sized to `total_bytes` of counter
    /// memory — the paper configures sketches by memory budget ("we
    /// allocate 8 MB for each original window", depth 4).
    pub fn with_memory(rows: usize, total_bytes: usize, seed: u64) -> CountMin {
        let width = (total_bytes / 4 / rows).max(1);
        CountMin::new(rows, width, seed)
    }

    /// Merge another instance by element-wise summation — the *state
    /// merging* strategy the paper argues against (§4.1): it works but
    /// amplifies collision error. Exposed for the AFR-vs-state-merge
    /// ablation bench.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn merge_states(&mut self, other: &CountMin) {
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.width, other.width, "width mismatch");
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

impl FrequencySketch for CountMin {
    #[inline]
    fn update(&mut self, key: &FlowKey, weight: u64) {
        let w = u32::try_from(weight).unwrap_or(u32::MAX);
        let d = self.hashes.digest(key);
        for r in 0..self.rows {
            let idx = r * self.width + d.index(r, self.width);
            self.counters[idx] = self.counters[idx].saturating_add(w);
        }
    }

    fn query(&self, key: &FlowKey) -> u64 {
        let d = self.hashes.digest(key);
        (0..self.rows)
            .map(|r| self.counters[r * self.width + d.index(r, self.width)])
            .min()
            .unwrap_or(0) as u64
    }

    fn reset(&mut self) {
        self.counters.fill(0);
    }

    fn meta(&self) -> SketchMeta {
        SketchMeta {
            name: "CountMin",
            memory_bytes: self.counters.len() * 4,
            register_arrays: self.rows,
            salus_per_packet: self.rows,
            hash_units: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> FlowKey {
        FlowKey::five_tuple(i, i ^ 0xffff, 1000, 80, 6)
    }

    #[test]
    fn never_underestimates() {
        let mut cm = CountMin::new(4, 256, 1);
        for i in 0..500u32 {
            for _ in 0..(i % 7 + 1) {
                cm.update(&key(i), 1);
            }
        }
        for i in 0..500u32 {
            let truth = (i % 7 + 1) as u64;
            assert!(cm.query(&key(i)) >= truth, "underestimate for {i}");
        }
    }

    #[test]
    fn exact_when_no_collisions() {
        let mut cm = CountMin::new(4, 65536, 2);
        for i in 0..100u32 {
            cm.update(&key(i), (i + 1) as u64);
        }
        for i in 0..100u32 {
            assert_eq!(cm.query(&key(i)), (i + 1) as u64);
        }
    }

    #[test]
    fn weights_accumulate() {
        let mut cm = CountMin::new(2, 1024, 3);
        cm.update(&key(1), 10);
        cm.update(&key(1), 32);
        assert_eq!(cm.query(&key(1)), 42);
    }

    #[test]
    fn counters_saturate() {
        let mut cm = CountMin::new(1, 8, 4);
        cm.update(&key(1), u64::MAX);
        cm.update(&key(1), 100);
        assert_eq!(cm.query(&key(1)), u32::MAX as u64);
    }

    #[test]
    fn reset_clears_all() {
        let mut cm = CountMin::new(3, 128, 5);
        for i in 0..100 {
            cm.update(&key(i), 5);
        }
        cm.reset();
        for i in 0..100 {
            assert_eq!(cm.query(&key(i)), 0);
        }
    }

    #[test]
    fn state_merge_is_sum_of_queries_or_more() {
        // Merged state must dominate each instance's query — the error
        // amplification the paper describes is overestimation, not loss.
        let mut a = CountMin::new(4, 64, 6);
        let mut b = CountMin::new(4, 64, 6);
        for i in 0..200 {
            a.update(&key(i), 1);
            b.update(&key(i), 2);
        }
        let qa = a.query(&key(7));
        let qb = b.query(&key(7));
        a.merge_states(&b);
        assert!(a.query(&key(7)) >= qa + qb);
    }

    #[test]
    fn with_memory_respects_budget() {
        let cm = CountMin::with_memory(4, 128 * 1024, 7);
        assert_eq!(cm.meta().memory_bytes, 128 * 1024);
        assert_eq!(cm.width, 8192);
    }

    #[test]
    fn single_row_is_valid() {
        let mut cm = CountMin::new(1, 16, 8);
        cm.update(&key(3), 3);
        assert!(cm.query(&key(3)) >= 3);
    }
}
