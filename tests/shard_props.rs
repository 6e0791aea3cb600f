//! Property-based determinism of the sharded merge path.
//!
//! The whole point of `ShardedMergeTable` (and the live controller
//! built on it) is that sharding is an invisible throughput
//! optimisation: at any shard count the deterministic final fold must
//! be **byte-identical** to the single-shard baseline, and every query
//! must return the same answer. These properties pin that down on
//! random lossy traces — random batches with records dropped on the
//! wire, mixed merge patterns (invertible and not), and interleaved
//! sliding-window evictions.

use ow_common::afr::{AttrValue, DistinctBitmap, FlowRecord};
use ow_common::block::RecordBlock;
use ow_common::flowkey::FlowKey;
use ow_controller::live::{DataPlaneMsg, LiveController};
use ow_controller::wire::encode_merged;
use ow_controller::ShardedMergeTable;
use proptest::prelude::*;

/// One sub-window of a random lossy trace: the records that survived
/// the wire, plus whether the sliding window advances afterwards.
type SubwindowOps = Vec<(Vec<FlowRecord>, bool)>;

/// A record's merge pattern is a deterministic function of its key (one
/// app per key), covering the invertible frequency path and the
/// recompute-on-eviction paths (max, distinction).
fn attr_for(key: u32, v: u64) -> AttrValue {
    match key % 3 {
        0 => AttrValue::Frequency(v),
        1 => AttrValue::Max(v),
        _ => {
            let mut bm = DistinctBitmap::default();
            bm.insert_hash(v);
            AttrValue::Distinction(bm)
        }
    }
}

/// Up to 24 sub-windows; each batch holds up to 60 records over a
/// 40-key population, each record independently lost with ~1/3
/// probability (the loss draw is part of the generated value, so every
/// shard count replays the *same* lossy trace).
fn arb_ops() -> impl Strategy<Value = SubwindowOps> {
    let record = (0u32..40, 1u64..1_000, 0u8..3);
    let batch = proptest::collection::vec(record, 0..60);
    proptest::collection::vec((batch, any::<bool>()), 1..24).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(sw, (batch, evict))| {
                let survivors = batch
                    .into_iter()
                    .enumerate()
                    .filter(|(_, (_, _, loss))| *loss != 0)
                    .map(|(seq, (key, v, _))| FlowRecord {
                        key: FlowKey::src_ip(key),
                        attr: attr_for(key, v),
                        subwindow: sw as u32,
                        seq: seq as u32,
                    })
                    .collect();
                (survivors, evict)
            })
            .collect()
    })
}

/// Replay one trace through a table at `shards` shards; return the
/// byte-level fold and the query answers.
fn replay(shards: usize, ops: &SubwindowOps) -> (Vec<u8>, Vec<(FlowKey, f64)>, Vec<u32>) {
    let mut t = ShardedMergeTable::new(shards);
    for (sw, (batch, evict)) in ops.iter().enumerate() {
        t.insert_batch(sw as u32, batch.clone());
        if *evict {
            t.evict_oldest();
        }
    }
    (
        encode_merged(&t.snapshot()).to_vec(),
        t.flows_over(25.0),
        t.subwindows(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shards ∈ {1, 2, 4, 8}: the merged output is byte-identical and
    /// `flows_over` answers are equal on any lossy trace.
    #[test]
    fn sharded_table_is_byte_identical_at_any_shard_count(ops in arb_ops()) {
        let (base_bytes, base_over, base_sws) = replay(1, &ops);
        for shards in [2usize, 4, 8] {
            let (bytes, over, sws) = replay(shards, &ops);
            prop_assert_eq!(
                &bytes, &base_bytes,
                "{} shards diverged from the single-shard fold", shards
            );
            prop_assert_eq!(&over, &base_over);
            prop_assert_eq!(&sws, &base_sws);
        }
    }
}

proptest! {
    // Each case spawns 2 × (router + shard workers); keep the case
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The live threaded pipeline at 8 shards converges to the same
    /// bytes as the single-shard pipeline on any batch sequence.
    #[test]
    fn live_controller_fold_matches_across_shards(ops in arb_ops()) {
        let run_live = |shards: usize| {
            let ctl = LiveController::spawn_sharded(3, 64, shards);
            for (sw, (batch, _)) in ops.iter().enumerate() {
                ctl.sender
                    .send(DataPlaneMsg::AfrBlock {
                        block: RecordBlock::from_records(sw as u32, batch),
                        seal: true,
                    })
                    .unwrap();
            }
            let handle = ctl.handle.clone();
            let routed = ctl.join();
            (encode_merged(&handle.snapshot()).to_vec(), handle.subwindows(), routed)
        };
        let (base_bytes, base_sws, base_routed) = run_live(1);
        let (bytes, sws, routed) = run_live(8);
        prop_assert_eq!(bytes, base_bytes, "8-shard live fold diverged");
        prop_assert_eq!(sws, base_sws);
        prop_assert_eq!(routed, base_routed);
        prop_assert_eq!(routed, ops.len() as u64);
    }
}
