//! SuMax Sketch (LightGuardian, Zhao et al. NSDI'21).
//!
//! A Count-Min-shaped sketch with *conservative update*: an update only
//! increments the counters that currently hold the row-minimum for the
//! key, raising them exactly to `min + weight`. Queries still take the
//! minimum. This strictly reduces overestimation relative to Count-Min
//! while remaining one-pass and SALU-friendly (each row's update is a
//! read-compare-write on a single cell, which the Tofino SALU supports).

use ow_common::flowkey::FlowKey;
use ow_common::hash::HashFamily;

use crate::traits::{FrequencySketch, SketchMeta};

/// A `d × w` SuMax sketch with 32-bit counters and conservative update.
#[derive(Debug, Clone)]
pub struct SuMax {
    rows: usize,
    width: usize,
    counters: Vec<u32>,
    hashes: HashFamily,
}

impl SuMax {
    /// Create a sketch with `rows` rows of `width` counters.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `width == 0`.
    pub fn new(rows: usize, width: usize, seed: u64) -> SuMax {
        assert!(rows > 0 && width > 0, "SuMax dimensions must be positive");
        SuMax {
            rows,
            width,
            counters: vec![0; rows * width],
            hashes: HashFamily::new(seed, rows),
        }
    }

    /// Create a sketch with `rows` rows sized to `total_bytes` of memory.
    pub fn with_memory(rows: usize, total_bytes: usize, seed: u64) -> SuMax {
        let width = (total_bytes / 4 / rows).max(1);
        SuMax::new(rows, width, seed)
    }

    /// The key's cell in every row (the same cells Count-Min would
    /// touch under the same seed).
    fn cell_indices(&self, key: &FlowKey) -> impl Iterator<Item = usize> + Clone {
        let d = self.hashes.digest(key);
        let width = self.width;
        (0..self.rows).map(move |r| r * width + d.index(r, width))
    }
}

impl FrequencySketch for SuMax {
    fn update(&mut self, key: &FlowKey, weight: u64) {
        let w = u32::try_from(weight).unwrap_or(u32::MAX);
        let idxs = self.cell_indices(key);
        let min = idxs.clone().map(|i| self.counters[i]).min().unwrap_or(0);
        let target = min.saturating_add(w);
        for i in idxs {
            if self.counters[i] < target {
                self.counters[i] = target;
            }
        }
    }

    fn query(&self, key: &FlowKey) -> u64 {
        self.cell_indices(key)
            .map(|i| self.counters[i])
            .min()
            .unwrap_or(0) as u64
    }

    fn reset(&mut self) {
        self.counters.fill(0);
    }

    fn meta(&self) -> SketchMeta {
        SketchMeta {
            name: "SuMax",
            memory_bytes: self.counters.len() * 4,
            register_arrays: self.rows,
            // Conservative update needs a read pass and a write pass per
            // row, which the hardware folds into one SALU op per row.
            salus_per_packet: self.rows,
            hash_units: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::CountMin;

    fn key(i: u32) -> FlowKey {
        FlowKey::five_tuple(i, i.rotate_left(13), 1000, 80, 6)
    }

    #[test]
    fn never_underestimates() {
        let mut sm = SuMax::new(4, 128, 1);
        for i in 0..300u32 {
            for _ in 0..(i % 5 + 1) {
                sm.update(&key(i), 1);
            }
        }
        for i in 0..300u32 {
            assert!(sm.query(&key(i)) >= (i % 5 + 1) as u64);
        }
    }

    #[test]
    fn no_worse_than_count_min() {
        // With identical seeds/dimensions, the conservative update must
        // never yield a larger estimate than Count-Min on any key.
        let mut cm = CountMin::new(4, 64, 9);
        let mut sm = SuMax::new(4, 64, 9);
        for i in 0..2000u32 {
            let k = key(i % 400);
            cm.update(&k, 1);
            sm.update(&k, 1);
        }
        for i in 0..400u32 {
            assert!(
                sm.query(&key(i)) <= cm.query(&key(i)),
                "SuMax exceeded CountMin for key {i}"
            );
        }
    }

    #[test]
    fn exact_when_alone() {
        let mut sm = SuMax::new(4, 65536, 2);
        for _ in 0..37 {
            sm.update(&key(5), 1);
        }
        assert_eq!(sm.query(&key(5)), 37);
    }

    #[test]
    fn reset_clears() {
        let mut sm = SuMax::new(2, 64, 3);
        sm.update(&key(1), 100);
        sm.reset();
        assert_eq!(sm.query(&key(1)), 0);
    }

    #[test]
    fn saturates_at_u32_max() {
        let mut sm = SuMax::new(1, 4, 4);
        sm.update(&key(1), u64::MAX);
        sm.update(&key(1), 5);
        assert_eq!(sm.query(&key(1)), u32::MAX as u64);
    }
}
