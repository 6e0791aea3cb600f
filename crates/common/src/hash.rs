//! A deterministic hash family for sketches and key tracking.
//!
//! All sketches in `ow-sketch` draw their hash functions from this family
//! so experiments are reproducible across runs and platforms. The design
//! is a 128→64-bit mix (SplitMix64-style finalizer over the packed flow
//! key, salted per function index) — cheap, well-distributed, and entirely
//! self-contained (no external hashing crates).

use crate::flowkey::FlowKey;

/// One member of the pairwise-independent-ish hash family.
///
/// `HashFn::new(seed, i)` with distinct `i` yields effectively independent
/// functions; the same `(seed, i)` always yields the same function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashFn {
    salt0: u64,
    salt1: u64,
}

/// SplitMix64 finalizer: the core 64-bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl HashFn {
    /// Create the `index`-th function of the family derived from `seed`.
    pub fn new(seed: u64, index: usize) -> HashFn {
        let base = mix64(seed ^ mix64(index as u64 + 1));
        HashFn {
            salt0: base,
            salt1: mix64(base ^ 0xA5A5_A5A5_5A5A_5A5A),
        }
    }

    /// Hash a packed 128-bit value to 64 bits.
    #[inline]
    pub fn hash_u128(&self, v: u128) -> u64 {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        mix64(lo ^ self.salt0) ^ mix64(hi.wrapping_add(self.salt1))
    }

    /// Hash a flow key (under its projection) to 64 bits.
    #[inline]
    pub fn hash_key(&self, key: &FlowKey) -> u64 {
        self.hash_u128(key.as_u128())
    }

    /// Hash a flow key to a table index in `[0, buckets)`.
    ///
    /// Uses the high-entropy multiply-shift reduction instead of modulo,
    /// which is what a P4 program's bit-sliced index computation looks like
    /// and avoids modulo bias for non-power-of-two widths.
    #[inline]
    pub fn index(&self, key: &FlowKey, buckets: usize) -> usize {
        debug_assert!(buckets > 0);
        let h = self.hash_key(key);
        (((h as u128) * (buckets as u128)) >> 64) as usize
    }

    /// Hash an arbitrary 64-bit value to a table index in `[0, buckets)`.
    #[inline]
    pub fn index_u64(&self, v: u64, buckets: usize) -> usize {
        debug_assert!(buckets > 0);
        let h = mix64(v ^ self.salt0).wrapping_add(self.salt1);
        (((mix64(h) as u128) * (buckets as u128)) >> 64) as usize
    }
}

/// One key's hash under a [`HashFamily`], from which every row's index
/// is derived (Kirsch–Mitzenmacher double hashing): row `i` reads
/// `a + i·b`, reduced by the same multiply-shift as [`HashFn::index`].
///
/// A `d`-row sketch therefore mixes the key once (three [`mix64`]
/// rounds) instead of once per row. `b` is odd, so the `d` row values
/// of one key are distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyDigest {
    a: u64,
    b: u64,
}

impl KeyDigest {
    /// The key's index into row `row` of `buckets` cells, in
    /// `[0, buckets)`.
    #[inline]
    pub fn index(&self, row: usize, buckets: usize) -> usize {
        debug_assert!(buckets > 0);
        let h = self.a.wrapping_add((row as u64).wrapping_mul(self.b));
        (((h as u128) * (buckets as u128)) >> 64) as usize
    }
}

/// A convenience bundle of `d` hash functions, as used by d-row sketches.
///
/// The row-indexed sketches (Count-Min, SuMax, MV-Sketch, SpreadSketch,
/// Bloom filter) take all their row indices from one [`KeyDigest`];
/// structures that peel or re-key per stage (FlowRadar, IBLT, HashPipe)
/// use the member functions themselves.
#[derive(Debug, Clone)]
pub struct HashFamily {
    fns: Vec<HashFn>,
}

impl HashFamily {
    /// Build `d` functions from `seed`.
    pub fn new(seed: u64, d: usize) -> HashFamily {
        HashFamily {
            fns: (0..d).map(|i| HashFn::new(seed, i)).collect(),
        }
    }

    /// Digest `key` once for every row of the family (salted by the
    /// family's first function).
    ///
    /// # Panics
    /// Panics on an empty family.
    #[inline]
    pub fn digest(&self, key: &FlowKey) -> KeyDigest {
        let f = &self.fns[0];
        let a = f.hash_key(key);
        KeyDigest {
            a,
            b: mix64(a ^ f.salt1) | 1,
        }
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// Whether the family is empty.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// The `i`-th function.
    pub fn get(&self, i: usize) -> &HashFn {
        &self.fns[i]
    }

    /// Iterate over the functions.
    pub fn iter(&self) -> impl Iterator<Item = &HashFn> {
        self.fns.iter()
    }
}

/// The flow-key → shard mapping used by the controller's sharded merge
/// path.
///
/// Every component that splits or routes `FlowRecord`s by key — the
/// live controller's router and shard pool, benchmarks — must agree
/// on the mapping, so it is pinned here with a fixed internal seed
/// rather than passed around as a bare `HashFn`. The mapping is the multiply-shift reduction of the mixed
/// flow key, i.e. exactly what the sketches use for bucket indexing, so
/// shard balance inherits the family's uniformity.
///
/// Crucially the mapping depends only on `(shards, key)`: re-splitting
/// the same records at a different shard count moves keys between
/// shards but never splits one key's records across shards, which is
/// what makes the sharded merge byte-identical to the single-shard
/// baseline after the deterministic final fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPartition {
    shards: usize,
    h: HashFn,
}

/// The fixed seed behind every [`ShardPartition`]. Changing it would
/// silently re-partition deployed tables, so it is a named constant.
const SHARD_PARTITION_SEED: u64 = 0x0077_5348_4152_4453; // "\0\0wSHARDS"

impl ShardPartition {
    /// A partition over `shards` shards.
    ///
    /// # Panics
    /// Panics when `shards == 0` — an empty partition cannot place any
    /// key.
    pub fn new(shards: usize) -> ShardPartition {
        assert!(shards > 0, "ShardPartition requires at least one shard");
        ShardPartition {
            shards,
            h: HashFn::new(SHARD_PARTITION_SEED, 0),
        }
    }

    /// Number of shards.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`, in `[0, shards)`: the one-key form of
    /// [`ShardPartition::shard_indices`], its tests' reference.
    #[cfg(test)]
    pub(crate) fn shard_of(&self, key: &FlowKey) -> usize {
        if self.shards == 1 {
            0
        } else {
            self.h.index(key, self.shards)
        }
    }

    /// Bulk key → shard mapping over a whole key column.
    ///
    /// Clears `out` and fills it with the shard index of every key, in
    /// order. This is the block path's router primitive: hashing the
    /// column in one tight pass amortizes the multiply-shift across the
    /// block instead of interleaving it with per-record bookkeeping.
    pub(crate) fn shard_indices(&self, keys: &[FlowKey], out: &mut Vec<u32>) {
        out.clear();
        out.reserve(keys.len());
        if self.shards == 1 {
            out.resize(keys.len(), 0u32);
        } else {
            out.extend(keys.iter().map(|k| self.h.index(k, self.shards) as u32));
        }
    }

    /// Split a batch of flow records into one vector per shard,
    /// preserving the input order within each shard: the reference the
    /// block scatter's tests compare against.
    #[cfg(test)]
    pub(crate) fn split(
        &self,
        records: &[crate::afr::FlowRecord],
    ) -> Vec<Vec<crate::afr::FlowRecord>> {
        let mut out = vec![Vec::new(); self.shards];
        for rec in records {
            out[self.shard_of(&rec.key)].push(*rec);
        }
        out
    }
}

/// A fast `std::hash::Hasher` built on [`mix64`], for the controller's
/// key-value tables (the stand-in for DPDK `rte_hash`'s CRC hashing —
/// the default SipHash would dominate the Exp#4 measurements).
#[derive(Debug, Clone, Copy, Default)]
pub struct OwHasher {
    state: u64,
}

impl core::hash::Hasher for OwHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.state = mix64(self.state ^ u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = mix64(self.state ^ v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.state = mix64(self.state ^ v as u64);
        self.state = mix64(self.state ^ (v >> 64) as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`OwHasher`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OwBuildHasher;

impl core::hash::BuildHasher for OwBuildHasher {
    type Hasher = OwHasher;
    fn build_hasher(&self) -> OwHasher {
        OwHasher::default()
    }
}

/// A `HashMap` keyed with the fast [`OwHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, OwBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowkey::FlowKey;

    #[test]
    fn deterministic_across_instances() {
        let a = HashFn::new(42, 3);
        let b = HashFn::new(42, 3);
        let k = FlowKey::five_tuple(1, 2, 3, 4, 6);
        assert_eq!(a.hash_key(&k), b.hash_key(&k));
    }

    #[test]
    fn different_indices_give_different_functions() {
        let a = HashFn::new(42, 0);
        let b = HashFn::new(42, 1);
        let k = FlowKey::five_tuple(1, 2, 3, 4, 6);
        assert_ne!(a.hash_key(&k), b.hash_key(&k));
    }

    #[test]
    fn index_stays_in_range() {
        let h = HashFn::new(7, 0);
        for buckets in [1usize, 2, 3, 1000, 65536, 100003] {
            for i in 0..200u32 {
                let k = FlowKey::five_tuple(i, i * 7 + 1, 80, 443, 6);
                assert!(h.index(&k, buckets) < buckets);
            }
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        // Chi-square-ish sanity check: 64 buckets, 64k keys, each bucket
        // should hold close to 1024 keys.
        let h = HashFn::new(99, 0);
        let buckets = 64usize;
        let mut counts = vec![0u32; buckets];
        for i in 0..65536u32 {
            let k = FlowKey::five_tuple(i, !i, (i % 1000) as u16, 80, 6);
            counts[h.index(&k, buckets)] += 1;
        }
        let expected = 65536.0 / buckets as f64;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.25, "bucket {b} count {c} deviates {dev:.2}");
        }
    }

    #[test]
    fn family_has_requested_size() {
        let fam = HashFamily::new(1, 4);
        assert_eq!(fam.len(), 4);
        assert!(!fam.is_empty());
        // All members distinct.
        let k = FlowKey::src_ip(0x01020304);
        let hashes: Vec<u64> = fam.iter().map(|f| f.hash_key(&k)).collect();
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                assert_ne!(hashes[i], hashes[j]);
            }
        }
    }

    #[test]
    fn ow_hasher_distributes_keys() {
        use core::hash::BuildHasher;
        let bh = OwBuildHasher;
        let mut buckets = vec![0u32; 64];
        for i in 0..65536u32 {
            let k = FlowKey::five_tuple(i, !i, 80, 443, 6);
            buckets[(bh.hash_one(k) % 64) as usize] += 1;
        }
        let expected = 65536.0 / 64.0;
        for &c in &buckets {
            assert!((c as f64 - expected).abs() / expected < 0.3, "bucket {c}");
        }
    }

    #[test]
    fn fast_map_works_as_hashmap() {
        let mut m: FastMap<FlowKey, u32> = FastMap::default();
        for i in 0..100u32 {
            m.insert(FlowKey::src_ip(i), i);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&FlowKey::src_ip(42)), Some(&42));
    }

    #[test]
    fn shard_partition_is_stable_and_in_range() {
        let p4 = ShardPartition::new(4);
        let p4b = ShardPartition::new(4);
        for i in 0..1000u32 {
            let k = FlowKey::five_tuple(i, !i, 80, 443, 6);
            let s = p4.shard_of(&k);
            assert!(s < 4);
            assert_eq!(s, p4b.shard_of(&k), "mapping must be deterministic");
        }
        let p1 = ShardPartition::new(1);
        assert_eq!(p1.shard_of(&FlowKey::src_ip(9)), 0);
    }

    #[test]
    fn shard_split_preserves_order_and_key_locality() {
        use crate::afr::{AttrValue, FlowRecord};
        let p = ShardPartition::new(3);
        let records: Vec<FlowRecord> = (0..300u32)
            .map(|i| FlowRecord {
                key: FlowKey::src_ip(i % 50),
                attr: AttrValue::Frequency(i as u64),
                subwindow: 0,
                seq: i,
            })
            .collect();
        let shards = p.split(&records);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 300);
        for (s, recs) in shards.iter().enumerate() {
            // Every record landed on the shard owning its key…
            assert!(recs.iter().all(|r| p.shard_of(&r.key) == s));
            // …and input order (seq ascending here) is preserved.
            assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq));
        }
    }

    #[test]
    fn shard_indices_matches_shard_of() {
        for shards in [1usize, 2, 4, 8] {
            let p = ShardPartition::new(shards);
            let keys: Vec<FlowKey> = (0..500u32)
                .map(|i| FlowKey::five_tuple(i, !i, 80, 443, 6))
                .collect();
            let mut out = vec![99u32; 3]; // stale contents must be cleared
            p.shard_indices(&keys, &mut out);
            assert_eq!(out.len(), keys.len());
            for (k, &s) in keys.iter().zip(&out) {
                assert_eq!(s as usize, p.shard_of(k));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn shard_partition_rejects_zero() {
        let _ = ShardPartition::new(0);
    }

    #[test]
    fn mix64_avalanche_smoke() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = mix64(0x1234_5678_9ABC_DEF0);
        let b = mix64(0x1234_5678_9ABC_DEF1);
        let flipped = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "poor avalanche: {flipped} bits"
        );
    }
}
