//! Elastic Sketch (Yang et al., SIGCOMM'18) — one of the telemetry
//! solutions the paper integrates ("Elastic Sketch \[stores\] only heavy
//! keys in the switch", §4.2).
//!
//! Two parts: a *heavy* part — a hash table of `(key, positive votes,
//! negative votes)` buckets with vote-based eviction — and a *light*
//! part — a small Count-Min absorbing evicted and light traffic. Point
//! queries combine both parts; the heavy part's keys are enumerable,
//! which is exactly the partial self-tracking OmniWindow's flowkey
//! tracking complements.

use ow_common::flowkey::{sort_by_packed_key, FlowKey};
use ow_common::hash::HashFn;

use crate::cm::CountMin;
use crate::traits::{FrequencySketch, InvertibleSketch, SketchMeta};

/// Eviction threshold λ: evict when negative votes exceed λ × positive.
const LAMBDA: u64 = 8;

#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    key: Option<FlowKey>,
    pos: u64,
    neg: u64,
    /// Set when the resident key was ever evicted-and-reinserted, so its
    /// count may be split with the light part.
    flag: bool,
}

/// Bytes per heavy bucket: 13 B key + 2 × 4 B votes + flag → 24.
pub(crate) const ELASTIC_BUCKET_BYTES: usize = 24;

/// An Elastic Sketch: heavy hash table + light Count-Min.
#[derive(Debug, Clone)]
pub struct ElasticSketch {
    heavy: Vec<Bucket>,
    light: CountMin,
    hash: HashFn,
}

impl ElasticSketch {
    /// Create with `heavy_buckets` heavy slots and a light part of
    /// `light_bytes`.
    ///
    /// # Panics
    /// Panics if `heavy_buckets == 0`.
    pub(crate) fn new(heavy_buckets: usize, light_bytes: usize, seed: u64) -> ElasticSketch {
        assert!(heavy_buckets > 0, "ElasticSketch needs heavy buckets");
        ElasticSketch {
            heavy: vec![Bucket::default(); heavy_buckets],
            light: CountMin::with_memory(2, light_bytes.max(64), seed ^ 0xE1A5),
            hash: HashFn::new(seed ^ 0xE1A57, 0),
        }
    }

    /// Split a memory budget: 3/4 heavy part, 1/4 light part (the
    /// Elastic paper's guidance).
    pub fn with_memory(total_bytes: usize, seed: u64) -> ElasticSketch {
        let heavy = (total_bytes * 3 / 4 / ELASTIC_BUCKET_BYTES).max(1);
        ElasticSketch::new(heavy, total_bytes / 4, seed)
    }
}

impl FrequencySketch for ElasticSketch {
    fn update(&mut self, key: &FlowKey, weight: u64) {
        let idx = self.hash.index(key, self.heavy.len());
        let b = &mut self.heavy[idx];
        match b.key {
            None => {
                b.key = Some(*key);
                b.pos = weight;
                b.neg = 0;
            }
            Some(k) if k == *key => {
                b.pos += weight;
            }
            Some(k) => {
                b.neg += weight;
                if b.neg > LAMBDA * b.pos.max(1) {
                    // Evict the resident flow to the light part.
                    self.light.update(&k, b.pos);
                    b.key = Some(*key);
                    b.pos = weight;
                    b.neg = 0;
                    b.flag = true;
                } else {
                    // The incoming packet itself goes to the light part.
                    self.light.update(key, weight);
                }
            }
        }
    }

    fn query(&self, key: &FlowKey) -> u64 {
        let idx = self.hash.index(key, self.heavy.len());
        let b = &self.heavy[idx];
        let heavy_part = if b.key == Some(*key) { b.pos } else { 0 };
        let need_light = b.key != Some(*key) || b.flag;
        let light_part = if need_light { self.light.query(key) } else { 0 };
        heavy_part + light_part
    }

    fn resident_keys(&self) -> Vec<FlowKey> {
        self.candidates()
    }

    fn reset(&mut self) {
        self.heavy.fill(Bucket::default());
        self.light.reset();
    }

    fn meta(&self) -> SketchMeta {
        let light = self.light.meta();
        SketchMeta {
            name: "ElasticSketch",
            memory_bytes: self.heavy.len() * ELASTIC_BUCKET_BYTES + light.memory_bytes,
            register_arrays: 3 + light.register_arrays, // key, pos, neg + light rows
            salus_per_packet: 3 + light.salus_per_packet,
            hash_units: 1 + light.hash_units,
        }
    }
}

impl InvertibleSketch for ElasticSketch {
    fn candidates(&self) -> Vec<FlowKey> {
        let mut keys: Vec<FlowKey> = self.heavy.iter().filter_map(|b| b.key).collect();
        sort_by_packed_key(&mut keys, |k| *k);
        keys.dedup();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> FlowKey {
        FlowKey::five_tuple(i + 1, i.wrapping_mul(0x9E37_79B9), 7, 80, 6)
    }

    #[test]
    fn single_flow_exact() {
        let mut es = ElasticSketch::new(64, 4096, 1);
        for _ in 0..42 {
            es.update(&key(1), 1);
        }
        assert_eq!(es.query(&key(1)), 42);
        assert!(es.candidates().contains(&key(1)));
    }

    #[test]
    fn elephant_survives_mice_in_heavy_part() {
        let mut es = ElasticSketch::new(8, 8192, 2);
        for round in 0..200u32 {
            es.update(&key(0), 10);
            es.update(&key(100 + round), 1);
        }
        let est = es.query(&key(0));
        assert!(est >= 2000, "elephant estimate {est}");
        assert!(es.candidates().contains(&key(0)));
    }

    #[test]
    fn never_underestimates() {
        let mut es = ElasticSketch::new(16, 4096, 3);
        let mut truth = std::collections::HashMap::new();
        for i in 0..3000u32 {
            let k = i % 150;
            es.update(&key(k), 1);
            *truth.entry(k).or_insert(0u64) += 1;
        }
        for (k, t) in truth {
            let q = es.query(&key(k));
            assert!(q >= t, "flow {k}: {q} < {t}");
        }
    }

    #[test]
    fn eviction_moves_count_to_light_part() {
        let mut es = ElasticSketch::new(1, 4096, 4);
        // Resident flow with small count…
        es.update(&key(1), 2);
        // …massively outvoted by a new flow.
        for _ in 0..50 {
            es.update(&key(2), 1);
        }
        // Flow 1 was evicted; its count must survive in the light part.
        assert!(es.query(&key(1)) >= 2);
        // Flow 2 now owns the bucket.
        assert_eq!(es.candidates(), vec![key(2)]);
    }

    #[test]
    fn reset_clears_both_parts() {
        let mut es = ElasticSketch::new(8, 2048, 5);
        for i in 0..100 {
            es.update(&key(i), 3);
        }
        es.reset();
        for i in 0..100 {
            assert_eq!(es.query(&key(i)), 0);
        }
        assert!(es.candidates().is_empty());
    }

    #[test]
    fn memory_budget_split() {
        let es = ElasticSketch::with_memory(96 * 1024, 6);
        let m = es.meta();
        assert!(m.memory_bytes >= 90 * 1024 && m.memory_bytes <= 100 * 1024);
    }
}
