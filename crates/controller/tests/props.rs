//! Property-based tests for the controller's merge semantics and the
//! AFR wire codec.

use ow_common::afr::{AttrValue, DistinctBitmap, FlowRecord};
use ow_common::block::RecordBlock;
use ow_common::error::OwError;
use ow_common::flowkey::FlowKey;
use ow_controller::table::MergeTable;
use ow_controller::timing::{InstrumentedController, WindowMode};
use ow_controller::wire::{decode_batch, encode_batch};
use proptest::prelude::*;
use std::collections::HashMap;

/// Counter values: small counts, every power of two and its two
/// neighbours (the magnitude boundaries), and arbitrary words.
fn arb_lane() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..600,
        (0u32..64, 0u64..3).prop_map(|(bit, d)| (1u64 << bit) - 1 + d),
        any::<u64>(),
    ]
}

fn arb_attr() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        arb_lane().prop_map(AttrValue::Frequency),
        any::<bool>().prop_map(AttrValue::Existence),
        arb_lane().prop_map(AttrValue::Max),
        arb_lane().prop_map(AttrValue::Min),
        arb_lane().prop_map(|v| AttrValue::Signed(v as i64)),
        proptest::collection::vec(any::<u64>(), 0..20).prop_map(|hs| {
            let mut bm = DistinctBitmap::default();
            for h in hs {
                bm.insert_hash(h);
            }
            AttrValue::Distinction(bm)
        }),
        (proptest::collection::vec(any::<u64>(), 0..20), any::<u64>()).prop_map(|(hs, bytes)| {
            let mut conns = DistinctBitmap::with_logical_bits(64);
            for h in hs {
                conns.insert_hash(h);
            }
            AttrValue::ConnBytes { conns, bytes }
        }),
    ]
}

fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (any::<u32>(), arb_attr(), any::<u32>(), any::<u32>()).prop_map(
        |(src, attr, subwindow, seq)| FlowRecord {
            key: FlowKey::src_ip(src),
            attr,
            subwindow,
            seq,
        },
    )
}

/// Random per-sub-window batches: (key id, count) pairs.
fn arb_batches() -> impl Strategy<Value = Vec<Vec<(u8, u16)>>> {
    proptest::collection::vec(proptest::collection::vec((0u8..24, 1u16..500), 0..40), 1..8)
}

fn to_records(sw: u32, batch: &[(u8, u16)]) -> Vec<FlowRecord> {
    // Deduplicate keys within a batch (one AFR per key per sub-window).
    let mut per_key: HashMap<u8, u64> = HashMap::new();
    for &(k, c) in batch {
        *per_key.entry(k).or_insert(0) += c as u64;
    }
    let mut recs: Vec<FlowRecord> = per_key
        .into_iter()
        .map(|(k, c)| FlowRecord::frequency(FlowKey::src_ip(k as u32 + 1), c, sw))
        .collect();
    recs.sort_by_key(|r| r.key.as_u128());
    for (i, r) in recs.iter_mut().enumerate() {
        r.seq = i as u32;
    }
    recs
}

/// One step of the read-path differential test: fold a block (`open`
/// starts a new evictable unit, otherwise it joins the newest one),
/// evict the oldest unit, or release the whole window.
#[derive(Debug, Clone)]
enum TableOp {
    Insert {
        open: bool,
        rows: Vec<(u8, AttrValue)>,
    },
    Evict,
    Clear,
}

/// Blocks over a 24-key population shared by every pattern, so a key's
/// slot regularly holds another pattern than the row that hits it
/// (`SKIP_SLOT` rows). Half the blocks carry one scalar pattern and take
/// the lane fold; the rest mix all seven and take the per-row merge.
fn arb_ops() -> impl Strategy<Value = Vec<TableOp>> {
    let scalar = (
        0u8..3,
        proptest::collection::vec((0u8..24, arb_lane()), 0..30),
    )
        .prop_map(|(kind, rows)| {
            let attr = match kind {
                0 => AttrValue::Frequency,
                1 => AttrValue::Max,
                _ => AttrValue::Min,
            };
            rows.into_iter().map(|(k, v)| (k, attr(v))).collect()
        });
    let mixed = proptest::collection::vec((0u8..24, arb_attr()), 0..30);
    let op =
        (0u8..8, any::<bool>(), prop_oneof![scalar, mixed]).prop_map(
            |(tag, open, rows)| match tag {
                0 | 1 => TableOp::Evict,
                2 => TableOp::Clear,
                _ => TableOp::Insert { open, rows },
            },
        );
    proptest::collection::vec(op, 1..24)
}

/// One step of the churn test: a sub-window unit of one or more blocks
/// (the first `open`, the rest appended to it), an eviction, or a clear.
#[derive(Debug, Clone)]
enum ChurnOp {
    Unit(Vec<Vec<(u8, u16)>>),
    Evict,
    Clear,
}

/// Churn over a 40-key population in which each key keeps one pattern
/// (`key % 5`: two frequency keys, then max, min and distinction), so
/// the naive fold is well defined. Units are small and evictions
/// frequent, so flows vanish with their last unit and come back later,
/// on reused slot ids. A block is either one pattern's keys (the lane
/// fold) or any keys (the per-row merge); values include zeros, so a
/// live zero counter sits beside the freed slots.
fn arb_churn() -> impl Strategy<Value = Vec<ChurnOp>> {
    let value = (0u8..4, 1u16..600).prop_map(|(z, v)| if z == 0 { 0 } else { v });
    let block =
        (0u8..6, proptest::collection::vec((0u8..40, value), 0..10)).prop_map(|(pattern, rows)| {
            rows.into_iter()
                .map(|(k, v)| match pattern {
                    5 => (k, v),
                    p => (k / 5 * 5 + p.min(4), v),
                })
                .collect()
        });
    let op = (0u8..6, proptest::collection::vec(block, 1..4)).prop_map(|(tag, blocks)| match tag {
        0 | 1 => ChurnOp::Evict,
        2 if blocks.len() == 3 => ChurnOp::Clear,
        _ => ChurnOp::Unit(blocks),
    });
    proptest::collection::vec(op, 1..40)
}

/// A churn row: key `k`'s pattern carries the value `v`.
fn churn_record(sw: u32, (k, v): (u8, u16)) -> FlowRecord {
    let attr = match k % 5 {
        0 | 1 => AttrValue::Frequency(v as u64),
        2 => AttrValue::Max(v as u64),
        3 => AttrValue::Min(v as u64),
        _ => {
            let mut bm = DistinctBitmap::default();
            bm.insert_hash((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            AttrValue::Distinction(bm)
        }
    };
    FlowRecord {
        key: FlowKey::src_ip(k as u32),
        attr,
        subwindow: sw,
        seq: 0,
    }
}

/// Naive reference for the churn test: every retained record folded in
/// order with `AttrValue::merge`, sorted by packed key.
fn naive_fold(
    units: &std::collections::VecDeque<(u32, Vec<FlowRecord>)>,
) -> Vec<(FlowKey, AttrValue)> {
    let mut merged: HashMap<FlowKey, AttrValue> = HashMap::new();
    for r in units.iter().flat_map(|(_, rows)| rows) {
        match merged.get_mut(&r.key) {
            Some(v) => v.merge(&r.attr).unwrap(),
            None => {
                merged.insert(r.key, r.attr);
            }
        }
    }
    let mut out: Vec<(FlowKey, AttrValue)> = merged.into_iter().collect();
    out.sort_by_key(|(k, _)| k.as_u128());
    out
}

/// Thresholds on both sides of every branch of the integer cut:
/// negative, zero, fractional, powers of two and their neighbours, 2⁵³
/// and beyond (where `f64` stops holding every integer), ∞ and NaN.
fn thresholds() -> Vec<f64> {
    let mut ts = vec![-3.0, 0.0, 0.5, 2.5, 299.5, 1e19, 3e19];
    for bit in [0, 1, 8, 31, 52, 53, 54, 63] {
        let p = (1u64 << bit) as f64;
        ts.extend([p - 1.0, p, p + 1.0]);
    }
    ts.extend([f64::INFINITY, f64::NAN]);
    ts
}

/// Naive reference: merged counts over a span of batches.
fn naive_merge(batches: &[Vec<FlowRecord>]) -> HashMap<FlowKey, u64> {
    let mut m = HashMap::new();
    for b in batches {
        for r in b {
            if let AttrValue::Frequency(v) = r.attr {
                *m.entry(r.key).or_insert(0) += v;
            }
        }
    }
    m
}

proptest! {
    /// MergeTable's merged view always equals the naive recomputation,
    /// after any sequence of inserts.
    #[test]
    fn table_matches_naive_merge(batches in arb_batches()) {
        let recs: Vec<Vec<FlowRecord>> = batches
            .iter()
            .enumerate()
            .map(|(sw, b)| to_records(sw as u32, b))
            .collect();
        let mut table = MergeTable::new();
        for (sw, b) in recs.iter().enumerate() {
            table.insert_batch(sw as u32, b.clone());
        }
        let naive = naive_merge(&recs);
        prop_assert_eq!(table.len(), naive.len());
        for (k, v) in &naive {
            prop_assert_eq!(table.get(k), Some(AttrValue::Frequency(*v)), "{}", k);
        }
    }

    /// Eviction is exact: after evicting the oldest unit, the table
    /// equals the naive merge over the remaining ones — inverse
    /// subtraction and deletion never drift. A unit is several blocks
    /// over a 24-key population, so a key repeats inside a block and
    /// across the blocks of one unit; when that unit holds the key's
    /// last records, the second one finds the flow already removed.
    #[test]
    fn eviction_matches_naive_merge(
        units in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0u8..24, 1u16..500), 0..12),
                1..4,
            ),
            1..8,
        ),
    ) {
        let recs: Vec<Vec<Vec<FlowRecord>>> = units
            .iter()
            .enumerate()
            .map(|(sw, blocks)| {
                let row = |&(k, c): &(u8, u16)| {
                    FlowRecord::frequency(FlowKey::src_ip(k as u32 + 1), c as u64, sw as u32)
                };
                let rows = |b: &Vec<(u8, u16)>| b.iter().map(row).collect::<Vec<_>>();
                blocks.iter().map(rows).collect()
            })
            .collect();
        let mut table = MergeTable::new();
        for (sw, blocks) in recs.iter().enumerate() {
            for (n, rows) in blocks.iter().enumerate() {
                table.insert_block(RecordBlock::from_records(sw as u32, rows), n == 0);
            }
        }
        for evicted in 0..recs.len() {
            prop_assert_eq!(table.evict_oldest(), Some(evicted as u32));
            let naive = naive_merge(&recs[evicted + 1..].concat());
            prop_assert_eq!(table.len(), naive.len(), "after evicting {}", evicted);
            for (k, v) in &naive {
                prop_assert_eq!(table.get(k), Some(AttrValue::Frequency(*v)));
            }
        }
        prop_assert!(table.is_empty());
    }

    /// The instrumented controller's sliding window reports the same
    /// flows as a naive window recomputation, at every position.
    #[test]
    fn instrumented_sliding_matches_naive(batches in arb_batches(), span in 1usize..4) {
        let recs: Vec<Vec<FlowRecord>> = batches
            .iter()
            .enumerate()
            .map(|(sw, b)| to_records(sw as u32, b))
            .collect();
        let threshold = 400.0;
        let mut ctl = InstrumentedController::new(
            WindowMode::Sliding { subwindows: span },
            threshold,
        );
        let mut reports = Vec::new();
        for (sw, b) in recs.iter().enumerate() {
            ctl.ingest(sw as u32, b);
            if sw + 1 >= span {
                reports.push(ctl.reports().last().cloned().unwrap());
            }
        }
        // Naive reference per position.
        for (pos, report) in reports.iter().enumerate() {
            let naive = naive_merge(&recs[pos..pos + span]);
            let mut expect: Vec<FlowKey> = naive
                .iter()
                .filter(|(_, v)| **v as f64 >= threshold)
                .map(|(k, _)| *k)
                .collect();
            expect.sort_by_key(|k| k.as_u128());
            prop_assert_eq!(report, &expect, "position {}", pos);
        }
    }

    /// The AFR wire codec roundtrips every batch exactly.
    #[test]
    fn wire_codec_roundtrips(batch in proptest::collection::vec(arb_record(), 0..50)) {
        let wire = encode_batch(&batch);
        let back = decode_batch(wire).unwrap();
        prop_assert_eq!(back, batch);
    }

    /// Decoding arbitrary bytes never panics; on success, re-encoding
    /// reproduces semantically equal records. A header that claims more
    /// rows than the bytes behind it could hold is refused up front, so
    /// a short datagram cannot make a decoder reserve for `u32::MAX`.
    ///
    /// Every single-bit flip of a valid batch is refused or decodes to a
    /// batch that encodes back to the flipped bytes. The exception is a
    /// flip the decoder canonicalises away — a key's kind (the fields the
    /// new projection drops are zeroed), a field the projection drops, an
    /// existence flag above bit 0, or a tag that reframes what follows it
    /// into such keys: there the re-encoding has the same length and is a
    /// fixed point.
    #[test]
    fn wire_decode_is_safe(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        valid in proptest::collection::vec((arb_record(), any::<bool>()), 1..5),
    ) {
        if let Ok(batch) = decode_batch(&data[..]) {
            let re = encode_batch(&batch);
            prop_assert_eq!(decode_batch(re).unwrap(), batch);
        }
        let mut lying = u32::MAX.to_be_bytes().to_vec();
        lying.extend_from_slice(&data);
        let refused = |e: OwError| matches!(e, OwError::Decode(m) if m.contains("claims"));
        prop_assert!(refused(decode_batch(&lying[..]).unwrap_err()));

        let valid: Vec<FlowRecord> = valid
            .into_iter()
            .map(|(mut r, five)| {
                if five {
                    r.key = FlowKey::five_tuple(r.key.src_ip, !r.key.src_ip, r.seq as u16, 80, 6);
                }
                r
            })
            .collect();
        let wire = encode_batch(&valid).to_vec();
        prop_assert_eq!(decode_batch(&wire[..]).unwrap(), valid);
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(batch) = decode_batch(&flipped[..]) {
                let re = encode_batch(&batch);
                if re[..] != flipped[..] {
                    prop_assert_eq!(re.len(), flipped.len(), "bit {}", bit);
                    prop_assert_eq!(decode_batch(re).unwrap(), batch, "bit {}", bit);
                }
            }
        }
    }

    /// After every insert, evict and clear, `flows_over` and `snapshot` equal
    /// the naive reading of the same table — every slot through
    /// `iter()`, `scalar() >= T`, sorted by packed key — and the
    /// magnitude column matches its definition, so a write that forgets
    /// to refresh it fails here.
    #[test]
    fn read_path_matches_naive_reference(ops in arb_ops()) {
        let mut table = MergeTable::new();
        let mut sw = 0u32;
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                TableOp::Evict => {
                    table.evict_oldest();
                }
                TableOp::Clear => table.clear(),
                TableOp::Insert { open, rows } => {
                    let open = open || table.subwindows().is_empty();
                    sw += open as u32;
                    let mut block = RecordBlock::new(sw);
                    for (seq, (k, attr)) in rows.into_iter().enumerate() {
                        block.push_row(FlowKey::src_ip(k as u32), attr, seq as u32);
                    }
                    table.insert_block(block, open);
                }
            }
            prop_assert!(table.mags_current(), "stale magnitude byte, step {}", step);
            let mut rows: Vec<(FlowKey, AttrValue)> = table.iter().collect();
            rows.sort_by_key(|(k, _)| k.as_u128());
            prop_assert_eq!(&table.snapshot(), &rows, "snapshot, step {}", step);
            for t in thresholds() {
                let expect: Vec<(FlowKey, f64)> = rows
                    .iter()
                    .map(|(k, v)| (*k, v.scalar()))
                    .filter(|(_, s)| *s >= t)
                    .collect();
                prop_assert_eq!(table.flows_over(t), expect, "T = {}, step {}", t, step);
            }
        }
    }

    /// Stable slot ids under churn: after every multi-block insert,
    /// eviction and clear, the table equals the naive fold of the
    /// retained units — `snapshot`, `len`, `get` on every key of the
    /// population (vanished ones read `None`), and `flows_over` at
    /// thresholds ≤ 0, in (0, 1] and above. A freed slot reads as a
    /// zero counter, so the first two ranges are where it could leak
    /// into an answer; `Max`, `Min` and `Distinction` keys take the
    /// recompute through the retained slot ids.
    #[test]
    fn churn_with_reused_slots_matches_naive_fold(ops in arb_churn()) {
        let mut table = MergeTable::new();
        let mut units = std::collections::VecDeque::new();
        let mut sw = 0u32;
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                ChurnOp::Evict => {
                    let want = units.pop_front().map(|(sw, _)| sw);
                    prop_assert_eq!(table.evict_oldest(), want, "step {}", step);
                }
                ChurnOp::Clear => {
                    table.clear();
                    units.clear();
                }
                ChurnOp::Unit(blocks) => {
                    sw += 1;
                    let mut unit = Vec::new();
                    for (n, rows) in blocks.into_iter().enumerate() {
                        let rows: Vec<FlowRecord> =
                            rows.into_iter().map(|r| churn_record(sw, r)).collect();
                        table.insert_block(RecordBlock::from_records(sw, &rows), n == 0);
                        unit.extend(rows);
                    }
                    units.push_back((sw, unit));
                }
            }
            let want = naive_fold(&units);
            prop_assert_eq!(&table.snapshot(), &want, "snapshot, step {}", step);
            prop_assert_eq!(table.len(), want.len(), "len, step {}", step);
            prop_assert!(table.mags_current(), "stale magnitude byte, step {}", step);
            for k in 0..40u32 {
                let key = FlowKey::src_ip(k);
                let expect = want.iter().find(|(w, _)| *w == key).map(|(_, v)| *v);
                prop_assert_eq!(table.get(&key), expect, "get {}, step {}", k, step);
            }
            for t in [-1.0, 0.0, 0.5, 1.0, 2.0, 300.0, 1e6] {
                let expect: Vec<(FlowKey, f64)> = want
                    .iter()
                    .map(|(k, v)| (*k, v.scalar()))
                    .filter(|(_, s)| *s >= t)
                    .collect();
                prop_assert_eq!(table.flows_over(t), expect, "T = {}, step {}", t, step);
            }
        }
    }
}
