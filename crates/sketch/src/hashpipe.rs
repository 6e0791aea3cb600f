//! HashPipe (Sivaraman et al., SOSR'17).
//!
//! Heavy-hitter detection entirely in the data plane: a pipeline of `d`
//! stages, each a table of `(key, count)` slots. The first stage always
//! inserts the incoming key (evicting the resident entry); subsequent
//! stages either merge a matching key, fill an empty slot, or swap the
//! carried entry with the resident one if the carried count is larger —
//! so small flows ripple out of the pipeline while elephants settle.

use ow_common::flowkey::{sort_by_packed_key, FlowKey};
use ow_common::hash::HashFamily;

use crate::traits::{FrequencySketch, InvertibleSketch, SketchMeta};

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: Option<FlowKey>,
    count: u64,
}

/// Bytes per slot in the hardware layout: 13 B key + 4 B count → 17,
/// rounded to 20 for alignment.
pub(crate) const HASHPIPE_SLOT_BYTES: usize = 20;

/// A `d`-stage HashPipe with `w` slots per stage.
#[derive(Debug, Clone)]
pub struct HashPipe {
    stages: usize,
    width: usize,
    slots: Vec<Slot>,
    hashes: HashFamily,
}

impl HashPipe {
    /// Create a pipe with `stages` stages of `width` slots each.
    ///
    /// # Panics
    /// Panics if `stages == 0` or `width == 0`.
    pub fn new(stages: usize, width: usize, seed: u64) -> HashPipe {
        assert!(
            stages > 0 && width > 0,
            "HashPipe dimensions must be positive"
        );
        HashPipe {
            stages,
            width,
            slots: vec![Slot::default(); stages * width],
            hashes: HashFamily::new(seed, stages),
        }
    }

    /// Create a pipe with `stages` stages sized to `total_bytes`.
    pub fn with_memory(stages: usize, total_bytes: usize, seed: u64) -> HashPipe {
        let width = (total_bytes / HASHPIPE_SLOT_BYTES / stages).max(1);
        HashPipe::new(stages, width, seed)
    }
}

impl FrequencySketch for HashPipe {
    fn update(&mut self, key: &FlowKey, weight: u64) {
        // Stage 0: always insert, evicting the resident entry. (A separate
        // `HashFn` per stage, not one `KeyDigest`: each stage re-keys on
        // whatever key the previous stage evicted.)
        let idx0 = self.hashes.get(0).index(key, self.width);
        let slot0 = &mut self.slots[idx0];
        let (mut carried_key, mut carried_count) = match slot0.key {
            Some(k) if k == *key => {
                slot0.count += weight;
                return;
            }
            Some(k) => {
                let evicted = (k, slot0.count);
                slot0.key = Some(*key);
                slot0.count = weight;
                evicted
            }
            None => {
                slot0.key = Some(*key);
                slot0.count = weight;
                return;
            }
        };

        // Later stages: merge, fill, or swap-if-larger.
        for s in 1..self.stages {
            let idx = s * self.width
                + self.hashes.get(s).index_u64(
                    {
                        // Hash the carried key (not the packet key) at stage s.
                        carried_key.as_u128() as u64 ^ (carried_key.as_u128() >> 64) as u64
                    },
                    self.width,
                );
            let slot = &mut self.slots[idx];
            match slot.key {
                Some(k) if k == carried_key => {
                    slot.count += carried_count;
                    return;
                }
                Some(resident) if carried_count > slot.count => {
                    slot.key = Some(carried_key);
                    carried_key = resident;
                    std::mem::swap(&mut slot.count, &mut carried_count);
                }
                Some(_) => { /* carried entry continues */ }
                None => {
                    slot.key = Some(carried_key);
                    slot.count = carried_count;
                    return;
                }
            }
        }
        // Entry falling off the last stage is dropped (HashPipe's loss).
    }

    fn query(&self, key: &FlowKey) -> u64 {
        let mut total = 0u64;
        // Stage 0 indexed by the key directly.
        let idx0 = self.hashes.get(0).index(key, self.width);
        if self.slots[idx0].key == Some(*key) {
            total += self.slots[idx0].count;
        }
        let kh = key.as_u128() as u64 ^ (key.as_u128() >> 64) as u64;
        for s in 1..self.stages {
            let idx = s * self.width + self.hashes.get(s).index_u64(kh, self.width);
            if self.slots[idx].key == Some(*key) {
                total += self.slots[idx].count;
            }
        }
        total
    }

    fn resident_keys(&self) -> Vec<FlowKey> {
        self.candidates()
    }

    fn reset(&mut self) {
        self.slots.fill(Slot::default());
    }

    fn meta(&self) -> SketchMeta {
        SketchMeta {
            name: "HashPipe",
            memory_bytes: self.slots.len() * HASHPIPE_SLOT_BYTES,
            register_arrays: self.stages * 2, // key + count array per stage
            salus_per_packet: self.stages * 2,
            hash_units: self.stages,
        }
    }
}

impl InvertibleSketch for HashPipe {
    fn candidates(&self) -> Vec<FlowKey> {
        let mut keys: Vec<FlowKey> = self.slots.iter().filter_map(|s| s.key).collect();
        sort_by_packed_key(&mut keys, |k| *k);
        keys.dedup();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> FlowKey {
        FlowKey::five_tuple(i, i.wrapping_mul(0x9E3779B9), 1, 80, 6)
    }

    #[test]
    fn elephants_survive_mice() {
        let mut hp = HashPipe::new(4, 256, 1);
        for round in 0..200u32 {
            for e in 0..5u32 {
                hp.update(&key(e), 20);
            }
            hp.update(&key(1000 + round), 1);
        }
        let cands = hp.candidates();
        for e in 0..5u32 {
            assert!(cands.contains(&key(e)), "elephant {e} evicted");
            let est = hp.query(&key(e));
            // HashPipe can undercount (entries dropped off the pipe) but an
            // elephant repeatedly re-inserted keeps most of its mass.
            assert!(est >= 2000, "elephant {e} estimate {est} too low");
        }
    }

    #[test]
    fn single_flow_exact() {
        let mut hp = HashPipe::new(3, 64, 2);
        for _ in 0..10 {
            hp.update(&key(7), 3);
        }
        assert_eq!(hp.query(&key(7)), 30);
    }

    #[test]
    fn never_overestimates_single_update_path() {
        // HashPipe only ever splits a flow's count across stages or drops
        // some of it; summing matching slots can never exceed the truth.
        let mut hp = HashPipe::new(4, 32, 3);
        let mut truth = std::collections::HashMap::new();
        for i in 0..2000u32 {
            let k = key(i % 300);
            hp.update(&k, 1);
            *truth.entry(i % 300).or_insert(0u64) += 1;
        }
        for (i, t) in truth {
            assert!(hp.query(&key(i)) <= t, "overestimate for {i}");
        }
    }

    #[test]
    fn reset_clears() {
        let mut hp = HashPipe::new(2, 16, 4);
        hp.update(&key(1), 5);
        hp.reset();
        assert_eq!(hp.query(&key(1)), 0);
        assert!(hp.candidates().is_empty());
    }

    #[test]
    fn duplicate_keys_merge_in_stage_zero() {
        let mut hp = HashPipe::new(2, 8, 5);
        hp.update(&key(1), 1);
        hp.update(&key(1), 1);
        assert_eq!(hp.query(&key(1)), 2);
        assert_eq!(hp.candidates().len(), 1);
    }
}
