//! Property-based determinism of the batched block path.
//!
//! The whole point of [`RecordBlock`] batching is that it is an
//! invisible throughput optimisation: at any shard count and any block
//! capacity — including capacity 1 (a block per record) and ragged
//! final blocks — the deterministic final fold must be
//! **byte-identical** to the single-table reference fold (one
//! [`MergeTable`], each sub-window inserted whole), and every query must
//! return the same answer. These properties pin that down on
//! random lossy traces: records dropped on the wire, delivered out of
//! order, and (on the reliable path) duplicated, with the recovery loop
//! repairing the losses before anything merges.
//!
//! One pinned instance rides along: the paper-scale C&R workload's fold
//! must hash to the digest every `BENCH_<PR>.json` since PR 8 records,
//! at any shard count, with or without the whole observability stack.

use ow_common::afr::{AttrValue, DistinctBitmap, FlowRecord};
use ow_common::block::{RecordBlock, DEFAULT_BLOCK_CAPACITY};
use ow_common::flowkey::FlowKey;
use ow_controller::health::controller_health_rules;
use ow_controller::live::{DataPlaneMsg, LiveController, ReliableLiveController, ReliableMsg};
use ow_controller::reliability::RetryPolicy;
use ow_controller::table::MergeTable;
use ow_controller::wire::encode_merged;
use ow_obs::{accuracy_health_rules, Obs, RuleSet, TraceContext};
use proptest::prelude::*;

/// Shard counts × block capacities every property sweeps. Capacity 1
/// degenerates to a block per record; 7 leaves a ragged final block on
/// almost every batch; 1024 exceeds every generated batch, so whole
/// sub-windows travel as single (ragged) blocks.
const SHARDS: [usize; 4] = [1, 2, 4, 8];
const CAPACITIES: [usize; 4] = [1, 7, 64, 1024];

/// One sub-window of a trace: the loss-free batch (dense seq ids) and
/// the wire's delivery schedule over it.
#[derive(Debug, Clone)]
struct SubwindowTrace {
    /// The complete batch the switch emitted.
    store: Vec<FlowRecord>,
    /// Indices into `store` in arrival order — drops omit an index,
    /// duplication repeats one, reordering permutes them.
    deliveries: Vec<usize>,
}

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

/// Up to 16 sub-windows of up to 50 records over a 40-key population.
/// Each record draws a fate (dropped / delivered / delivered twice) and
/// a shuffle rank; sorting deliveries by rank yields the reordered
/// arrival schedule. The schedule is part of the generated value, so
/// every (shard count, capacity) combination replays the *same* trace.
fn arb_trace(dup_and_drop: bool) -> impl Strategy<Value = Vec<SubwindowTrace>> {
    let record = (0u32..40, 1u64..1_000, 0u8..6, any::<u64>());
    let batch = proptest::collection::vec(record, 0..50);
    proptest::collection::vec(batch, 1..16).prop_map(move |raw| {
        raw.into_iter()
            .enumerate()
            .map(|(sw, batch)| {
                let store: Vec<FlowRecord> = batch
                    .iter()
                    .enumerate()
                    .map(|(seq, (key, v, _, _))| FlowRecord {
                        key: FlowKey::src_ip(*key),
                        attr: attr_for(*key, *v),
                        subwindow: sw as u32,
                        seq: seq as u32,
                    })
                    .collect();
                let mut deliveries: Vec<(u64, usize)> = Vec::new();
                for (i, (_, _, fate, rank)) in batch.iter().enumerate() {
                    let copies = if !dup_and_drop {
                        1 // lossless schedule: reorder only
                    } else {
                        match fate {
                            0 => 0, // dropped on the wire
                            1 => 2, // the fabric duplicated the clone
                            _ => 1,
                        }
                    };
                    for c in 0..copies {
                        // Distinct ranks per copy keep the shuffle stable.
                        deliveries.push((rank.wrapping_add(c as u64) ^ (c as u64) << 32, i));
                    }
                }
                deliveries.sort();
                SubwindowTrace {
                    store,
                    deliveries: deliveries.into_iter().map(|(_, i)| i).collect(),
                }
            })
            .collect()
    })
}

/// The records in arrival order for one sub-window.
fn arrivals(t: &SubwindowTrace) -> Vec<FlowRecord> {
    t.deliveries.iter().map(|&i| t.store[i]).collect()
}

/// Comparable facts of a finished run: the encoded fold bytes, the
/// `flows_over(25.0)` answer, and the retained sub-windows.
type FoldFacts = (Vec<u8>, Vec<(FlowKey, f64)>, Vec<u32>);

/// Fold a finished live handle into comparable facts.
fn observe(handle: &ow_controller::live::LiveHandle) -> FoldFacts {
    (
        encode_merged(&handle.snapshot()).to_vec(),
        handle.flows_over(25.0),
        handle.subwindows(),
    )
}

/// Data-plane replay: the arrival schedule (drops + reordering only —
/// the unreliable path has no dedup) chunked into capacity-bounded
/// blocks, one `AfrBlock` message per block, seal on the last.
fn run_dataplane_blocks(
    trace: &[SubwindowTrace],
    shards: usize,
    capacity: usize,
) -> (FoldFacts, u64) {
    let ctl = LiveController::spawn_sharded_obs(3, 64, shards, None);
    for (sw, t) in trace.iter().enumerate() {
        let recs = arrivals(t);
        let chunks: Vec<&[FlowRecord]> = recs.chunks(capacity).collect();
        if chunks.is_empty() {
            // An empty sub-window still travels: one empty sealed block.
            ctl.sender
                .send(DataPlaneMsg::AfrBlock {
                    block: RecordBlock::new(sw as u32),
                    seal: true,
                })
                .unwrap();
            continue;
        }
        for (i, chunk) in chunks.iter().enumerate() {
            ctl.sender
                .send(DataPlaneMsg::AfrBlock {
                    block: RecordBlock::from_records(sw as u32, chunk),
                    seal: i + 1 == chunks.len(),
                })
                .unwrap();
        }
    }
    let handle = ctl.handle.clone();
    let routed = ctl.join();
    (observe(&handle), routed)
}

/// The single-table reference: each sub-window's batch inserted whole
/// into one [`MergeTable`] sliding over the same 3-sub-window span the
/// live runs use.
fn reference_fold(batches: impl Iterator<Item = Vec<FlowRecord>>) -> FoldFacts {
    let mut table = MergeTable::new();
    for (sw, batch) in batches.enumerate() {
        table.insert_batch(sw as u32, batch);
        if sw >= 3 {
            table.evict_oldest();
        }
    }
    (
        encode_merged(&table.snapshot()).to_vec(),
        table.flows_over(25.0),
        table.subwindows(),
    )
}

/// Reliable replay: announce, stream the lossy arrival schedule as
/// blocks of `capacity`, end the stream, and let the recovery loop
/// retransmit what the wire dropped. Returns the fold facts plus the
/// announced-record total.
fn run_reliable(
    trace: &[SubwindowTrace],
    shards: usize,
    capacity: usize,
) -> (Vec<u8>, Vec<(FlowKey, f64)>, u64) {
    let stores: Vec<Vec<FlowRecord>> = trace.iter().map(|t| t.store.clone()).collect();
    let ctl = ReliableLiveController::spawn_sharded_obs(
        3,
        64,
        RetryPolicy::default(),
        Box::new(move |sw: u32, missing: &[u32]| {
            // A reliable back-channel: replay exactly what was asked.
            let store = &stores[sw as usize];
            missing
                .iter()
                .filter_map(|&s| store.iter().find(|r| r.seq == s).copied())
                .collect()
        }),
        Box::new(|_| panic!("a reliable back-channel never escalates")),
        shards,
        None,
    );
    for (sw, t) in trace.iter().enumerate() {
        let sw = sw as u32;
        ctl.sender
            .send(ReliableMsg::Announce {
                subwindow: sw,
                announced: t.store.len() as u32,
            })
            .unwrap();
        for chunk in arrivals(t).chunks(capacity) {
            ctl.sender
                .send(ReliableMsg::AfrBlock(RecordBlock::from_records(sw, chunk)))
                .unwrap();
        }
        ctl.sender
            .send(ReliableMsg::EndOfStream { subwindow: sw })
            .unwrap();
    }
    let handle = ctl.handle.clone();
    let metrics = ctl.join();
    assert_eq!(metrics.escalations, 0, "the back-channel is reliable");
    let (bytes, over, _) = observe(&handle);
    (bytes, over, metrics.announced)
}

proptest! {
    // Each case spawns 16 controllers (4 shard counts × 4 capacities),
    // each with its worker threads; keep the case count modest — the
    // shard/capacity sweep inside each case is the point.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Data-plane block streaming at any (shard count, capacity) is
    /// byte-identical to the single-table fold of the same arrivals on
    /// any drop+reorder trace, ragged final blocks included.
    #[test]
    fn dataplane_blocks_match_per_record_baseline(trace in arb_trace(false)) {
        let (base_bytes, base_over, base_sws) = reference_fold(trace.iter().map(arrivals));
        let base_routed = trace.len() as u64;
        for shards in SHARDS {
            for cap in CAPACITIES {
                let ((bytes, over, sws), routed) = run_dataplane_blocks(&trace, shards, cap);
                prop_assert_eq!(
                    &bytes, &base_bytes,
                    "{} shards × capacity {} diverged from the single-table fold", shards, cap
                );
                prop_assert_eq!(&over, &base_over);
                prop_assert_eq!(&sws, &base_sws);
                prop_assert_eq!(routed, base_routed);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Reliable block streaming under drops, duplication, and
    /// reordering converges — via session dedup and the retransmission
    /// loop — to the single-table fold of the loss-free batches at
    /// every (shard count, capacity).
    #[test]
    fn reliable_blocks_converge_to_per_record_baseline(trace in arb_trace(true)) {
        let (base_bytes, base_over, _) = reference_fold(trace.iter().map(|t| t.store.clone()));
        let base_announced: u64 = trace.iter().map(|t| t.store.len() as u64).sum();
        for shards in SHARDS {
            for cap in CAPACITIES {
                let (bytes, over, announced) = run_reliable(&trace, shards, cap);
                prop_assert_eq!(
                    &bytes, &base_bytes,
                    "{} shards × capacity {} diverged from the single-table fold", shards, cap
                );
                prop_assert_eq!(&over, &base_over);
                prop_assert_eq!(announced, base_announced);
            }
        }
    }
}

/// The deterministic paper-scale C&R merge workload: `subwindows`
/// batches of `records` sequenced AFRs over a `population`-key space,
/// values mixed so every shard count and every run replays exactly the
/// same records.
fn cr_workload(subwindows: u32, records: u32, population: u32, seed: u64) -> Vec<Vec<FlowRecord>> {
    (0..subwindows)
        .map(|sw| {
            (0..records)
                .map(|i| {
                    let mix = (u64::from(i))
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(u64::from(sw).wrapping_mul(seed | 1));
                    let key = (mix >> 16) as u32 % population;
                    let mut r = FlowRecord::frequency(FlowKey::src_ip(key), (mix & 0x3FF) + 1, sw);
                    r.seq = i;
                    r
                })
                .collect()
        })
        .collect()
}

/// Stream `batches` losslessly through a reliable controller (span 4,
/// queue 256, full-capacity blocks) and return FNV-1a 64 of the
/// encoded final fold. `observed` attaches everything a production run
/// can: registry + journal, a trace context published per sub-window,
/// the controller + accuracy health catalogs ticking once per
/// sub-window (minus the queue-watermark rule, whose reading depends on
/// how the threads were scheduled), and the ground-truth oracle fed the
/// exact workload.
fn fold_digest(batches: &[Vec<FlowRecord>], shards: usize, observed: bool) -> u64 {
    let obs = observed.then(Obs::new);
    let watchers = obs.as_ref().map(|o| {
        let rules = RuleSet::merged(vec![controller_health_rules(256), accuracy_health_rules()])
            .expect("controller + accuracy catalogs merge")
            .without(&["OW-HEALTH-201"]);
        (o.install_health(rules), o.install_accuracy())
    });
    let ctl = ReliableLiveController::spawn_sharded_obs(
        4,
        256,
        RetryPolicy::default(),
        Box::new(|_, _| Vec::new()),
        Box::new(|_| panic!("a lossless run never escalates")),
        shards,
        obs.as_ref(),
    );
    for (sw, afrs) in batches.iter().enumerate() {
        let (sw, announced) = (sw as u32, afrs.len() as u32);
        if let Some((_, scorer)) = &watchers {
            scorer.feed_truth(sw, afrs);
        }
        if let Some(o) = &obs {
            let trace = o.tracer().start_window(sw, "switch", 0);
            let collect = o
                .tracer()
                .span(trace, trace, "collect", "switch", None, 0, 1)
                .expect("collect span under a live trace");
            let ctx = TraceContext {
                trace_id: trace,
                root: trace,
                collect,
                anchor_ns: 1,
            };
            o.tracer().publish_context(sw, ctx);
        }
        let send = |msg| ctl.sender.send(msg).expect("controller alive");
        send(ReliableMsg::Announce {
            subwindow: sw,
            announced,
        });
        afrs.chunks(DEFAULT_BLOCK_CAPACITY)
            .for_each(|chunk| send(ReliableMsg::AfrBlock(RecordBlock::from_records(sw, chunk))));
        send(ReliableMsg::EndOfStream { subwindow: sw });
        if let Some((engine, _)) = &watchers {
            engine.tick(ow_common::time::Instant::from_micros(
                (u64::from(sw) + 1) * 100,
            ));
        }
    }
    let handle = ctl.handle.clone();
    assert_eq!(ctl.join().recovered, 0, "lossless: first pass completes");
    if let Some((engine, scorer)) = &watchers {
        // The stack really watched the run: every window scored (and
        // perfectly — the feed was exact), nothing paged.
        let s = scorer.summary();
        assert_eq!(
            (s.windows_scored, s.recall_permille, s.aare_permille),
            (batches.len() as u64, 1000, 0)
        );
        assert!(engine.timeline().is_empty(), "{:?}", engine.timeline());
    }
    encode_merged(&handle.snapshot())
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// The paper workload (24 sub-windows × 40,000 AFRs over 16,384 keys,
/// seed `0xCA1DA`) folds to the digest pinned in `BENCH_8/9/10.json` at
/// 1 and 4 shards, bare and fully observed: neither sharding nor the
/// observatory may move the merge by a bit. One perturbed value must
/// move it.
#[test]
fn fold_digest_is_pinned_across_shards_and_observability() {
    const PINNED: u64 = 0xee8c_edde_f834_4b86;
    let mut batches = cr_workload(24, 40_000, 16_384, 0xCA1DA);
    for shards in [1, 4] {
        for observed in [false, true] {
            assert_eq!(
                fold_digest(&batches, shards, observed),
                PINNED,
                "{shards} shard(s), observed={observed}"
            );
        }
    }
    batches[23][39_999].attr = AttrValue::Frequency(0);
    assert_ne!(fold_digest(&batches, 4, false), PINNED);
}
