//! The sharded merge table: `N` disjoint [`MergeTable`] slices behind
//! one flow-key-hash partition.
//!
//! The single-threaded merge path caps the controller at one core's
//! insert rate — nowhere near the millions of flows per second the
//! north star requires. Sharding splits every incoming batch by
//! [`ShardPartition`] (a fixed multiply-shift reduction of the flow
//! key), so each shard owns a *disjoint* key slice and shards never
//! contend on a key.
//!
//! Two properties make the split invisible to queries:
//!
//! 1. **Key locality** — one key's records always land on the same
//!    shard, so the per-key merge fold runs in the same order it would
//!    in a single table.
//! 2. **Synchronized eviction** — every shard receives every sub-window
//!    batch (possibly empty), so `evict_oldest` retires the same
//!    sub-window everywhere and the sliding-window span never skews
//!    between shards.
//!
//! The deterministic final fold ([`ShardedMergeTable::snapshot`] /
//! [`ShardedMergeTable::flows_over`]) sorts by packed key, making the
//! merged output **byte-identical** to the single-shard baseline at any
//! shard count — the property the proptests in `tests/props.rs` pin
//! down and `bench_snapshot`'s fold digest re-asserts while measuring.

use ow_common::afr::{AttrValue, FlowRecord};
use ow_common::block::{RecordBlock, ShardScatter, DEFAULT_BLOCK_CAPACITY};
use ow_common::flowkey::FlowKey;
use ow_common::hash::ShardPartition;

use crate::table::MergeTable;

/// `N` disjoint merge-table slices behind one key partition.
#[derive(Debug, Clone)]
pub struct ShardedMergeTable {
    shards: Vec<MergeTable>,
    partition: ShardPartition,
}

impl ShardedMergeTable {
    /// A table split over `shards` slices (≥ 1).
    pub fn new(shards: usize) -> ShardedMergeTable {
        let partition = ShardPartition::new(shards);
        ShardedMergeTable {
            shards: (0..shards).map(|_| MergeTable::new()).collect(),
            partition,
        }
    }

    /// The key → shard mapping in force.
    pub fn partition(&self) -> ShardPartition {
        self.partition
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's slice (for inspection and per-worker ownership).
    pub fn shard(&self, i: usize) -> &MergeTable {
        &self.shards[i]
    }

    /// Split one sub-window's batch across the shards. Every shard gets
    /// an entry for `subwindow` — empty where it owns none of the keys —
    /// so evictions stay synchronized. Internally this is the block
    /// path: the batch is scattered into capacity-bounded
    /// [`RecordBlock`]s and folded with [`MergeTable::insert_block`].
    pub fn insert_batch(&mut self, subwindow: u32, afrs: Vec<FlowRecord>) {
        let mut scatter = ShardScatter::new(self.partition, DEFAULT_BLOCK_CAPACITY);
        let shards = &mut self.shards;
        scatter.scatter_batch(subwindow, &afrs, |shard, block, open| {
            shards[shard].insert_block(block, open);
        });
    }

    /// Scatter one incoming [`RecordBlock`] across the shards. Like
    /// [`ShardedMergeTable::insert_batch`], every shard opens an entry
    /// for the block's sub-window so evictions stay synchronized.
    pub fn insert_block(&mut self, block: &RecordBlock) {
        let mut scatter = ShardScatter::new(self.partition, DEFAULT_BLOCK_CAPACITY);
        let shards = &mut self.shards;
        scatter.begin(block.subwindow());
        scatter.push_block(block, |shard, b, open| shards[shard].insert_block(b, open));
        scatter.seal(|shard, b, open| shards[shard].insert_block(b, open));
    }

    /// Evict the oldest sub-window from every shard (sliding-window
    /// advance). All shards agree on the oldest because every insert
    /// touches every shard.
    pub fn evict_oldest(&mut self) -> Option<u32> {
        let mut evicted = None;
        for shard in &mut self.shards {
            let sw = shard.evict_oldest();
            debug_assert!(
                evicted.is_none() || sw == evicted,
                "shards evicted different sub-windows: {evicted:?} vs {sw:?}"
            );
            evicted = sw;
        }
        evicted
    }

    /// Sub-windows currently merged (oldest first) — identical on every
    /// shard, so shard 0 answers.
    pub fn subwindows(&self) -> Vec<u32> {
        self.shards[0].subwindows()
    }

    /// Total flows in the merged view across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(MergeTable::len).sum()
    }

    /// Whether no flow is merged anywhere.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(MergeTable::is_empty)
    }

    /// The merged statistic for one flow, served by the owning shard.
    pub fn get(&self, key: &FlowKey) -> Option<AttrValue> {
        self.shards[self.partition.shard_of(key)].get(key)
    }

    /// Threshold query (O4) folded across shards, in canonical key
    /// order — the same answer the single-shard table gives.
    pub fn flows_over(&self, threshold: f64) -> Vec<(FlowKey, f64)> {
        let mut out: Vec<(FlowKey, f64)> = self
            .shards
            .iter()
            .flat_map(|s| s.flows_over(threshold))
            .collect();
        out.sort_by_key(|(k, _)| k.as_u128());
        out
    }

    /// The deterministic final fold: every shard's merged view,
    /// concatenated and sorted by packed key. Encoding this with
    /// `wire::encode_merged` yields bytes independent of the shard
    /// count.
    pub fn snapshot(&self) -> Vec<(FlowKey, AttrValue)> {
        let mut out: Vec<(FlowKey, AttrValue)> =
            self.shards.iter().flat_map(MergeTable::snapshot).collect();
        out.sort_by_key(|(k, _)| k.as_u128());
        out
    }

    /// Drop everything on every shard (tumbling-window release).
    pub fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_merged;

    fn freq(i: u32, n: u64, sw: u32) -> FlowRecord {
        FlowRecord::frequency(FlowKey::src_ip(i), n, sw)
    }

    fn workload() -> Vec<(u32, Vec<FlowRecord>)> {
        (0..6u32)
            .map(|sw| {
                let batch = (0..40u32)
                    .map(|i| freq(i % 17, (sw * 40 + i) as u64 + 1, sw))
                    .collect();
                (sw, batch)
            })
            .collect()
    }

    fn run(shards: usize, evictions: usize) -> ShardedMergeTable {
        let mut t = ShardedMergeTable::new(shards);
        for (sw, batch) in workload() {
            t.insert_batch(sw, batch);
        }
        for _ in 0..evictions {
            t.evict_oldest();
        }
        t
    }

    #[test]
    fn sharded_matches_single_shard_byte_for_byte() {
        let baseline = run(1, 2);
        for shards in [2usize, 4, 8] {
            let t = run(shards, 2);
            assert_eq!(
                encode_merged(&t.snapshot()),
                encode_merged(&baseline.snapshot()),
                "{shards} shards diverged from baseline"
            );
            assert_eq!(t.flows_over(50.0), baseline.flows_over(50.0));
            assert_eq!(t.len(), baseline.len());
        }
    }

    #[test]
    fn block_scatter_matches_batch_insert() {
        let mut by_batch = ShardedMergeTable::new(4);
        let mut by_block = ShardedMergeTable::new(4);
        for (sw, batch) in workload() {
            by_batch.insert_batch(sw, batch.clone());
            by_block.insert_block(&RecordBlock::from_records(sw, &batch));
        }
        by_batch.evict_oldest();
        by_block.evict_oldest();
        assert_eq!(by_block.subwindows(), by_batch.subwindows());
        assert_eq!(
            encode_merged(&by_block.snapshot()),
            encode_merged(&by_batch.snapshot())
        );
    }

    #[test]
    fn every_shard_sees_every_subwindow() {
        let t = run(4, 0);
        for i in 0..4 {
            assert_eq!(t.shard(i).subwindows(), vec![0, 1, 2, 3, 4, 5]);
        }
        assert_eq!(t.subwindows(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn eviction_is_synchronized_across_shards() {
        let mut t = run(4, 0);
        assert_eq!(t.evict_oldest(), Some(0));
        assert_eq!(t.subwindows(), vec![1, 2, 3, 4, 5]);
        for i in 0..4 {
            assert_eq!(t.shard(i).subwindows(), vec![1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn get_routes_to_the_owning_shard() {
        let t = run(8, 0);
        let single = run(1, 0);
        for i in 0..17u32 {
            let k = FlowKey::src_ip(i);
            assert_eq!(t.get(&k), single.get(&k), "key {i}");
        }
        assert_eq!(t.get(&FlowKey::src_ip(999)), None);
    }

    #[test]
    fn clear_empties_every_shard() {
        let mut t = run(3, 0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.subwindows().is_empty());
    }
}
