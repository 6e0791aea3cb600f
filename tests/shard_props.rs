//! Property-based determinism of the sharded merge path.
//!
//! The whole point of the live controller's shard pool is that
//! sharding is an invisible throughput optimisation: at any shard
//! count the deterministic final fold must be **byte-identical** to
//! the single-shard baseline. This property pins that down on random
//! lossy traces — random batches with records dropped on the wire,
//! mixed merge patterns (invertible and not), sliding over a
//! 3-sub-window span.

use ow_common::afr::{AttrValue, DistinctBitmap, FlowRecord};
use ow_common::block::RecordBlock;
use ow_common::flowkey::FlowKey;
use ow_controller::live::{DataPlaneMsg, LiveController};
use ow_controller::wire::encode_merged;
use proptest::prelude::*;

/// A random lossy trace: per sub-window, the records that survived the
/// wire.
type SubwindowOps = Vec<Vec<FlowRecord>>;

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
    proptest::collection::vec(batch, 1..24).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(sw, batch)| {
                batch
                    .into_iter()
                    .enumerate()
                    .filter(|(_, (_, _, loss))| *loss != 0)
                    .map(|(seq, (key, v, _))| FlowRecord {
                        key: FlowKey::src_ip(key),
                        attr: attr_for(key, v),
                        subwindow: sw as u32,
                        seq: seq as u32,
                    })
                    .collect()
            })
            .collect()
    })
}

proptest! {
    // Each case spawns 3 × (router + shard workers); keep the case
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The live threaded pipeline at 4 and 7 shards converges to the
    /// same bytes as the single-shard pipeline on any batch sequence,
    /// and gives the same threshold answer in the same order — one shard
    /// hands its table's answer through, several are re-sorted together.
    #[test]
    fn live_controller_fold_matches_across_shards(ops in arb_ops(), threshold in 0u32..2_000) {
        let run_live = |shards: usize| {
            let ctl = LiveController::spawn_sharded_obs(3, 64, shards, None);
            for (sw, batch) in ops.iter().enumerate() {
                ctl.sender
                    .send(DataPlaneMsg::AfrBlock {
                        block: RecordBlock::from_records(sw as u32, batch),
                        seal: true,
                    })
                    .unwrap();
            }
            let handle = ctl.handle.clone();
            let routed = ctl.join();
            (
                encode_merged(&handle.snapshot()).to_vec(),
                handle.flows_over(threshold as f64),
                handle.subwindows(),
                routed,
            )
        };
        let base = run_live(1);
        prop_assert_eq!(base.3, ops.len() as u64);
        for shards in [4, 7] {
            prop_assert_eq!(&run_live(shards), &base, "{}-shard live fold diverged", shards);
        }
    }
}
