//! MV-Sketch (Tang, Huang, Lee — INFOCOM'19 / ToN'20).
//!
//! An invertible sketch for heavy-flow detection. Each bucket holds a
//! total count `v`, a candidate key `k`, and a majority-vote indicator
//! `c` (Boyer–Moore style). Updates always add to `v`; the indicator
//! tracks whether the current candidate dominates the bucket. A point
//! query estimates a flow's size as `(v + c) / 2` in buckets where it is
//! the candidate and `(v - c) / 2` elsewhere, taking the row minimum.
//! Heavy-hitter detection enumerates the candidate slots — exactly the
//! "data-plane flow query" capability OmniWindow's AFR generation needs.

use ow_common::flowkey::{sort_by_packed_key, FlowKey};
use ow_common::hash::HashFamily;

use crate::traits::{FrequencySketch, InvertibleSketch, SketchMeta};

/// One MV-Sketch bucket.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    /// Total weight hashed into the bucket.
    v: u64,
    /// Candidate key (None while the bucket is empty).
    k: Option<FlowKey>,
    /// Majority-vote indicator (can go negative transiently; we store the
    /// magnitude and flip the candidate as Boyer–Moore does).
    c: i64,
}

/// A `d × w` MV-Sketch.
///
/// ```
/// use ow_sketch::{MvSketch, traits::{FrequencySketch, InvertibleSketch}};
/// use ow_common::flowkey::FlowKey;
///
/// let mut mv = MvSketch::new(2, 64, 1);
/// let elephant = FlowKey::src_ip(7);
/// for _ in 0..100 { mv.update(&elephant, 1); }
/// assert!(mv.candidates().contains(&elephant)); // invertible
/// assert!(mv.query(&elephant) >= 100);
/// ```
#[derive(Debug, Clone)]
pub struct MvSketch {
    rows: usize,
    width: usize,
    buckets: Vec<Bucket>,
    hashes: HashFamily,
    /// Updates that landed in a bucket owned by a different candidate.
    collisions: u64,
    /// Majority-vote candidate flips.
    heavy_evicts: u64,
}

/// Bytes a bucket occupies in the hardware layout the paper assumes:
/// 4 B total count + 13 B key + 4 B indicator, rounded to 24.
pub(crate) const MV_BUCKET_BYTES: usize = 24;

impl MvSketch {
    /// Create a sketch with `rows` rows of `width` buckets.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `width == 0`.
    pub fn new(rows: usize, width: usize, seed: u64) -> MvSketch {
        assert!(
            rows > 0 && width > 0,
            "MvSketch dimensions must be positive"
        );
        MvSketch {
            rows,
            width,
            buckets: vec![Bucket::default(); rows * width],
            hashes: HashFamily::new(seed, rows),
            collisions: 0,
            heavy_evicts: 0,
        }
    }

    /// Create a sketch with `rows` rows sized to `total_bytes` of memory
    /// (the paper's "width is calculated according to the depth and the
    /// memory usage of each bucket").
    pub fn with_memory(rows: usize, total_bytes: usize, seed: u64) -> MvSketch {
        let width = (total_bytes / MV_BUCKET_BYTES / rows).max(1);
        MvSketch::new(rows, width, seed)
    }

    /// Buckets currently holding a candidate key, in permille of
    /// capacity. A full structure (1000‰) can no longer admit new
    /// candidates without evicting — the leading indicator that recall
    /// on heavy-hitter queries is about to drop.
    pub fn occupancy_permille(&self) -> u64 {
        let occupied = self.buckets.iter().filter(|b| b.k.is_some()).count() as u64;
        occupied * 1000 / self.buckets.len() as u64
    }

    /// Updates that hashed into a bucket owned by a different candidate
    /// key, since construction or the last `reset`.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Majority-vote candidate flips (a heavier key replaced the
    /// bucket's candidate), since construction or the last `reset`.
    pub fn heavy_evicts(&self) -> u64 {
        self.heavy_evicts
    }
}

impl FrequencySketch for MvSketch {
    fn update(&mut self, key: &FlowKey, weight: u64) {
        let w = weight as i64;
        let d = self.hashes.digest(key);
        for r in 0..self.rows {
            let b = &mut self.buckets[r * self.width + d.index(r, self.width)];
            b.v += weight;
            match b.k {
                None => {
                    b.k = Some(*key);
                    b.c = w;
                }
                Some(k) if k == *key => {
                    b.c += w;
                }
                Some(_) => {
                    self.collisions += 1;
                    b.c -= w;
                    if b.c < 0 {
                        self.heavy_evicts += 1;
                        b.k = Some(*key);
                        b.c = -b.c;
                    }
                }
            }
        }
    }

    fn query(&self, key: &FlowKey) -> u64 {
        let d = self.hashes.digest(key);
        (0..self.rows)
            .map(|r| {
                let b = &self.buckets[r * self.width + d.index(r, self.width)];
                let est = if b.k == Some(*key) {
                    (b.v as i64 + b.c) / 2
                } else {
                    (b.v as i64 - b.c) / 2
                };
                est.max(0) as u64
            })
            .min()
            .unwrap_or(0)
    }

    fn resident_keys(&self) -> Vec<FlowKey> {
        self.candidates()
    }

    fn reset(&mut self) {
        self.buckets.fill(Bucket::default());
        self.collisions = 0;
        self.heavy_evicts = 0;
    }

    fn meta(&self) -> SketchMeta {
        SketchMeta {
            name: "MvSketch",
            memory_bytes: self.buckets.len() * MV_BUCKET_BYTES,
            register_arrays: self.rows * 3, // v, k, c arrays per row
            salus_per_packet: self.rows * 3,
            hash_units: self.rows,
        }
    }
}

impl InvertibleSketch for MvSketch {
    fn candidates(&self) -> Vec<FlowKey> {
        let mut keys: Vec<FlowKey> = self.buckets.iter().filter_map(|b| b.k).collect();
        sort_by_packed_key(&mut keys, |k| *k);
        keys.dedup();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> FlowKey {
        FlowKey::five_tuple(i, i.wrapping_mul(2654435761), 555, 80, 6)
    }

    #[test]
    fn heavy_flow_becomes_candidate() {
        let mut mv = MvSketch::new(2, 64, 1);
        // One elephant among mice.
        for round in 0..100 {
            mv.update(&key(0), 10);
            mv.update(&key(round + 1), 1);
        }
        let cands = mv.candidates();
        assert!(cands.contains(&key(0)), "elephant not in candidates");
        // Estimate should be near the true 1000.
        let est = mv.query(&key(0));
        assert!(
            (900..=1200).contains(&est),
            "elephant estimate {est} far from 1000"
        );
    }

    #[test]
    fn exact_when_alone() {
        let mut mv = MvSketch::new(4, 65536, 2);
        for _ in 0..50 {
            mv.update(&key(9), 2);
        }
        assert_eq!(mv.query(&key(9)), 100);
    }

    #[test]
    fn query_unseen_key_is_small() {
        let mut mv = MvSketch::new(4, 1024, 3);
        for i in 0..100 {
            mv.update(&key(i), 1);
        }
        // An unseen key may alias a bucket but the row-min bound keeps the
        // estimate at the noise level.
        assert!(mv.query(&key(999_999)) <= 2);
    }

    #[test]
    fn reset_clears_candidates_and_counts() {
        let mut mv = MvSketch::new(2, 16, 4);
        mv.update(&key(1), 100);
        mv.reset();
        assert!(mv.candidates().is_empty());
        assert_eq!(mv.query(&key(1)), 0);
    }

    #[test]
    fn reset_zeroes_the_collision_and_evict_tallies() {
        // One bucket, three keys: every foreign update collides and the
        // heavier newcomers flip the candidate.
        let mut mv = MvSketch::new(1, 1, 7);
        mv.update(&key(1), 1);
        mv.update(&key(2), 3);
        mv.update(&key(3), 9);
        assert_eq!((mv.collisions(), mv.heavy_evicts()), (2, 2));
        mv.reset();
        assert_eq!((mv.collisions(), mv.heavy_evicts()), (0, 0));
    }

    #[test]
    fn majority_vote_flips_candidate() {
        // Single bucket: the later, larger flow must take over the slot.
        let mut mv = MvSketch::new(1, 1, 5);
        mv.update(&key(1), 3);
        mv.update(&key(2), 10);
        assert_eq!(mv.candidates(), vec![key(2)]);
        // v=13, c=7 for key2: estimate (13+7)/2 = 10 exactly.
        assert_eq!(mv.query(&key(2)), 10);
        // key1 estimate (13-7)/2 = 3 exactly.
        assert_eq!(mv.query(&key(1)), 3);
    }

    #[test]
    fn with_memory_budget_shapes_width() {
        let mv = MvSketch::with_memory(4, 8 * 1024 * 1024, 6);
        assert_eq!(mv.width, 8 * 1024 * 1024 / MV_BUCKET_BYTES / 4);
    }
}
