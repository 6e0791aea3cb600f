//! SpreadSketch (Tang, Huang, Lee — INFOCOM'20).
//!
//! An invertible sketch for network-wide super-spreader detection. Each
//! bucket holds a distinct-counting bitmap, a candidate key, and a level.
//! On update `(src, dst)`, the bitmap records `dst`; the candidate slot
//! keeps the key whose hashed `(src, dst)` pair produced the highest
//! "level" (count of leading zeros) — a geometric sampling argument that
//! keys with many distinct elements win their buckets. Spread queries
//! take the row-minimum of the bitmap estimates.

use ow_common::afr::DistinctBitmap;
use ow_common::flowkey::{sort_by_packed_key, FlowKey};
use ow_common::hash::{mix64, HashFamily, HashFn};

use crate::traits::{InvertibleSketch, SketchMeta, SpreadEstimator};

#[derive(Debug, Clone, Default)]
struct Bucket {
    bitmap: DistinctBitmap,
    key: Option<FlowKey>,
    level: u8,
}

/// Bytes per bucket: 64 B bitmap + 13 B key + 1 B level, rounded to 80.
pub(crate) const SPREAD_BUCKET_BYTES: usize = 80;

/// A `d × w` SpreadSketch.
#[derive(Debug, Clone)]
pub struct SpreadSketch {
    rows: usize,
    width: usize,
    buckets: Vec<Bucket>,
    hashes: HashFamily,
    element_hash: HashFn,
}

impl SpreadSketch {
    /// Create a sketch with `rows` rows of `width` buckets.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `width == 0`.
    pub fn new(rows: usize, width: usize, seed: u64) -> SpreadSketch {
        assert!(
            rows > 0 && width > 0,
            "SpreadSketch dimensions must be positive"
        );
        SpreadSketch {
            rows,
            width,
            buckets: vec![Bucket::default(); rows * width],
            hashes: HashFamily::new(seed, rows),
            element_hash: HashFn::new(seed ^ 0xE1E1_E1E1, 0),
        }
    }

    /// Create a sketch with `rows` rows sized to `total_bytes`.
    pub fn with_memory(rows: usize, total_bytes: usize, seed: u64) -> SpreadSketch {
        let width = (total_bytes / SPREAD_BUCKET_BYTES / rows).max(1);
        SpreadSketch::new(rows, width, seed)
    }

    /// The distinct-value bitmap backing the key's spread estimate (the
    /// min-estimate row's bucket). This is the distinction AFR OmniWindow
    /// exports for the key: per-sub-window bitmaps union losslessly into
    /// the window's distinct summary (§4.2, distinction statistics).
    pub fn bitmap(&self, key: &FlowKey) -> DistinctBitmap {
        let d = self.hashes.digest(key);
        (0..self.rows)
            .map(|r| &self.buckets[r * self.width + d.index(r, self.width)].bitmap)
            .min_by(|a, b| a.estimate().total_cmp(&b.estimate()))
            .copied()
            .unwrap_or_default()
    }
}

impl SpreadEstimator for SpreadSketch {
    fn update_element(&mut self, key: &FlowKey, element: u64) {
        // Level = leading zeros of the hashed (key, element) pair; a key
        // with many distinct elements draws many samples and wins buckets.
        let pair_hash = mix64(self.element_hash.hash_key(key) ^ mix64(element));
        let level = pair_hash.leading_zeros().min(255) as u8;
        let elem_hash = self.element_hash.index_u64(element, usize::MAX) as u64 ^ mix64(element);
        let d = self.hashes.digest(key);
        for r in 0..self.rows {
            let b = &mut self.buckets[r * self.width + d.index(r, self.width)];
            b.bitmap.insert_hash(elem_hash);
            if b.key.is_none() || level >= b.level {
                b.key = Some(*key);
                b.level = level;
            }
        }
    }

    fn spread(&self, key: &FlowKey) -> u64 {
        let d = self.hashes.digest(key);
        (0..self.rows)
            .map(|r| {
                self.buckets[r * self.width + d.index(r, self.width)]
                    .bitmap
                    .estimate()
            })
            .fold(f64::INFINITY, f64::min)
            .round()
            .max(0.0) as u64
    }

    fn reset(&mut self) {
        self.buckets.fill(Bucket::default());
    }

    fn meta(&self) -> SketchMeta {
        SketchMeta {
            name: "SpreadSketch",
            memory_bytes: self.buckets.len() * SPREAD_BUCKET_BYTES,
            register_arrays: self.rows * 3, // bitmap, key, level arrays
            salus_per_packet: self.rows * 3,
            hash_units: self.rows + 1,
        }
    }
}

impl InvertibleSketch for SpreadSketch {
    fn candidates(&self) -> Vec<FlowKey> {
        let mut keys: Vec<FlowKey> = self.buckets.iter().filter_map(|b| b.key).collect();
        sort_by_packed_key(&mut keys, |k| *k);
        keys.dedup();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(i: u32) -> FlowKey {
        FlowKey::src_ip(i)
    }

    #[test]
    fn spreader_estimate_tracks_truth() {
        let mut ss = SpreadSketch::new(4, 512, 1);
        // A spreader contacting 200 distinct destinations.
        for d in 0..200u64 {
            ss.update_element(&src(1), d);
        }
        let est = ss.spread(&src(1));
        assert!(
            (120..=320).contains(&est),
            "spread estimate {est} far from 200"
        );
    }

    #[test]
    fn repeated_elements_count_once() {
        let mut ss = SpreadSketch::new(4, 512, 2);
        for _ in 0..50 {
            for d in 0..10u64 {
                ss.update_element(&src(2), d);
            }
        }
        let est = ss.spread(&src(2));
        assert!(est <= 20, "duplicates inflated spread to {est}");
    }

    #[test]
    fn spreaders_become_candidates() {
        let mut ss = SpreadSketch::new(2, 64, 3);
        // Two spreaders among light sources.
        for d in 0..300u64 {
            ss.update_element(&src(100), d);
            ss.update_element(&src(200), d + 1000);
        }
        for s in 0..50u32 {
            ss.update_element(&src(s), 7);
        }
        let cands = ss.candidates();
        assert!(cands.contains(&src(100)));
        assert!(cands.contains(&src(200)));
    }

    #[test]
    fn reset_clears() {
        let mut ss = SpreadSketch::new(2, 16, 4);
        ss.update_element(&src(1), 1);
        ss.reset();
        assert!(ss.candidates().is_empty());
        assert_eq!(ss.spread(&src(1)), 0);
    }
}
