//! Columnar (SoA) record blocks — the unit of movement on the C&R
//! merge hot path.
//!
//! The per-record pipeline (PR 3) paid one channel send/recv and one
//! hash probe per [`FlowRecord`], which capped the sharded merge at a
//! couple of million records per second regardless of shard count. A
//! [`RecordBlock`] packs one sub-window's records in structure-of-arrays
//! layout — a key column, a sequence column, and a typed attribute
//! column — so the whole pipeline can move, route, and fold *blocks*:
//!
//! * one queue send per block instead of per record,
//! * shard routing hashes the key column in one pass
//!   ([`ShardPartition::shard_indices`]) via the [`ShardScatter`]
//!   builder, which amortizes partitioning across the block,
//! * the merge table folds a scalar attribute lane with the
//!   auto-vectorizable sum/max/min kernels instead of per-record
//!   `match`es.
//!
//! The attribute column ([`AttrColumn`]) stays scalar (a bare `Vec<u64>`
//! lane) as long as every record in the block shares one of the three
//! scalar-foldable patterns (frequency / max / min); the first
//! mixed-pattern push demotes the column to an `AttrValue` row vector,
//! so correctness never depends on the fast layout.

use crate::afr::{AttrKind, AttrValue, FlowRecord};
use crate::flowkey::FlowKey;
use crate::hash::ShardPartition;

/// Default capacity bound for blocks built by routers and feeders.
///
/// 1024 records ≈ 24 KiB of key column — small enough to stay
/// cache-resident through scatter + fold, large enough to amortize the
/// queue send to noise.
pub const DEFAULT_BLOCK_CAPACITY: usize = 1024;

/// The typed attribute column of a [`RecordBlock`].
///
/// Scalar variants store the raw `u64` lane for one merge pattern;
/// `Mixed` is the exact row-wise fallback used whenever a block carries
/// more than one pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrColumn {
    /// All rows are `AttrValue::Frequency` — foldable by saturating sum.
    Frequency(Vec<u64>),
    /// All rows are `AttrValue::Max` — foldable by max.
    Max(Vec<u64>),
    /// All rows are `AttrValue::Min` — foldable by min.
    Min(Vec<u64>),
    /// Heterogeneous rows stored verbatim.
    Mixed(Vec<AttrValue>),
}

impl AttrColumn {
    /// An empty column, optimistically scalar.
    pub fn with_capacity(cap: usize) -> AttrColumn {
        AttrColumn::Frequency(Vec::with_capacity(cap))
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            AttrColumn::Frequency(v) | AttrColumn::Max(v) | AttrColumn::Min(v) => v.len(),
            AttrColumn::Mixed(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scalar lane and its pattern, when the column is scalar.
    #[inline]
    pub fn scalar_lane(&self) -> Option<(AttrKind, &[u64])> {
        match self {
            AttrColumn::Frequency(v) => Some((AttrKind::Frequency, v)),
            AttrColumn::Max(v) => Some((AttrKind::Max, v)),
            AttrColumn::Min(v) => Some((AttrKind::Min, v)),
            AttrColumn::Mixed(_) => None,
        }
    }

    /// Row `i` as a full [`AttrValue`].
    #[inline]
    pub fn get(&self, i: usize) -> AttrValue {
        match self {
            AttrColumn::Frequency(v) => AttrValue::Frequency(v[i]),
            AttrColumn::Max(v) => AttrValue::Max(v[i]),
            AttrColumn::Min(v) => AttrValue::Min(v[i]),
            AttrColumn::Mixed(v) => v[i],
        }
    }

    /// Append a row, promoting an empty column to the row's scalar
    /// pattern and demoting to `Mixed` on the first pattern clash.
    #[inline]
    pub fn push(&mut self, attr: AttrValue) {
        // An empty column adopts whichever scalar pattern arrives first.
        if self.is_empty() {
            *self = match attr {
                AttrValue::Frequency(_) => AttrColumn::Frequency(Vec::new()),
                AttrValue::Max(_) => AttrColumn::Max(Vec::new()),
                AttrValue::Min(_) => AttrColumn::Min(Vec::new()),
                _ => AttrColumn::Mixed(Vec::new()),
            };
        }
        match (&mut *self, attr) {
            (AttrColumn::Frequency(v), AttrValue::Frequency(x))
            | (AttrColumn::Max(v), AttrValue::Max(x))
            | (AttrColumn::Min(v), AttrValue::Min(x)) => v.push(x),
            (AttrColumn::Mixed(v), attr) => v.push(attr),
            (_, attr) => {
                // Pattern clash: demote to the exact row-wise layout.
                let mut rows: Vec<AttrValue> = (0..self.len()).map(|i| self.get(i)).collect();
                rows.push(attr);
                *self = AttrColumn::Mixed(rows);
            }
        }
    }
}

/// One sub-window's flow records in columnar layout.
///
/// Rows keep the order they were pushed in; the merge fold and the
/// shard scatter both preserve that order, which is what keeps the
/// block path byte-identical to the per-record baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBlock {
    subwindow: u32,
    keys: Vec<FlowKey>,
    seqs: Vec<u32>,
    col: AttrColumn,
}

impl RecordBlock {
    /// An empty block for `subwindow`.
    pub fn new(subwindow: u32) -> RecordBlock {
        RecordBlock::with_capacity(subwindow, 0)
    }

    /// An empty block with row capacity pre-reserved.
    pub fn with_capacity(subwindow: u32, cap: usize) -> RecordBlock {
        RecordBlock {
            subwindow,
            keys: Vec::with_capacity(cap),
            seqs: Vec::with_capacity(cap),
            col: AttrColumn::with_capacity(cap),
        }
    }

    /// Build a block from an AoS record slice (order preserved).
    pub fn from_records(subwindow: u32, records: &[FlowRecord]) -> RecordBlock {
        let mut b = RecordBlock::with_capacity(subwindow, records.len());
        for rec in records {
            b.push(rec);
        }
        b
    }

    /// The sub-window every row belongs to.
    pub fn subwindow(&self) -> u32 {
        self.subwindow
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the block has no rows.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Append one record's columns.
    pub fn push(&mut self, rec: &FlowRecord) {
        self.push_row(rec.key, rec.attr, rec.seq);
    }

    /// Append one row from its parts.
    #[inline]
    pub fn push_row(&mut self, key: FlowKey, attr: AttrValue, seq: u32) {
        self.keys.push(key);
        self.seqs.push(seq);
        self.col.push(attr);
    }

    /// The key column.
    #[inline]
    pub fn keys(&self) -> &[FlowKey] {
        &self.keys
    }

    /// The sequence column.
    #[inline]
    pub fn seqs(&self) -> &[u32] {
        &self.seqs
    }

    /// The attribute column.
    #[inline]
    pub fn column(&self) -> &AttrColumn {
        &self.col
    }

    /// Row `i`'s key.
    #[inline]
    pub fn key(&self, i: usize) -> FlowKey {
        self.keys[i]
    }

    /// Row `i`'s attribute.
    #[inline]
    pub fn attr(&self, i: usize) -> AttrValue {
        self.col.get(i)
    }

    /// Row `i` reassembled as a [`FlowRecord`].
    pub fn record(&self, i: usize) -> FlowRecord {
        FlowRecord {
            key: self.keys[i],
            attr: self.col.get(i),
            subwindow: self.subwindow,
            seq: self.seqs[i],
        }
    }

    /// Iterate rows as [`FlowRecord`]s.
    pub fn iter(&self) -> impl Iterator<Item = FlowRecord> + '_ {
        (0..self.len()).map(move |i| self.record(i))
    }

    /// The whole block as an AoS record vector (row order preserved).
    pub fn to_records(&self) -> Vec<FlowRecord> {
        self.iter().collect()
    }

    /// Stable-sort rows by sequence id (collector hand-off order).
    pub fn sort_by_seq(&mut self) {
        let mut perm: Vec<usize> = (0..self.len()).collect();
        perm.sort_by_key(|&i| self.seqs[i]);
        if perm.iter().enumerate().all(|(i, &p)| i == p) {
            return;
        }
        let mut out = RecordBlock::with_capacity(self.subwindow, self.len());
        for &i in &perm {
            out.push_row(self.keys[i], self.col.get(i), self.seqs[i]);
        }
        *self = out;
    }
}

/// Splits one sub-window's record stream into capacity-bounded per-shard
/// blocks, hashing the key column in bulk.
///
/// The scatter is *streaming*: `begin` opens a sub-window, any number of
/// `push_block` / `push_records` calls feed it (full blocks are emitted
/// eagerly), and `seal` flushes the remainder. Every shard is emitted at
/// least one block per sub-window — empty where it owns no keys — so
/// shard evictions stay synchronized, and the first block emitted to a
/// shard is flagged `open = true` so the receiving table can start a new
/// evictable sub-window entry.
#[derive(Debug)]
pub struct ShardScatter {
    partition: ShardPartition,
    capacity: usize,
    subwindow: u32,
    active: bool,
    open: Vec<RecordBlock>,
    opened: Vec<bool>,
    scratch: Vec<u32>,
}

impl ShardScatter {
    /// A scatter over `partition` emitting blocks of at most `capacity`
    /// rows (`capacity` is clamped to ≥ 1).
    pub fn new(partition: ShardPartition, capacity: usize) -> ShardScatter {
        let shards = partition.shards();
        ShardScatter {
            partition,
            capacity: capacity.max(1),
            subwindow: 0,
            active: false,
            open: (0..shards).map(|_| RecordBlock::new(0)).collect(),
            opened: vec![false; shards],
            scratch: Vec::new(),
        }
    }

    /// The partition in force.
    pub fn partition(&self) -> ShardPartition {
        self.partition
    }

    /// The sub-window currently open (meaningful only when active).
    pub fn subwindow(&self) -> u32 {
        self.subwindow
    }

    /// Open a sub-window.
    ///
    /// # Panics
    /// Panics if a previous sub-window was not sealed.
    pub fn begin(&mut self, subwindow: u32) {
        assert!(!self.active, "ShardScatter: begin() without seal()");
        self.active = true;
        self.subwindow = subwindow;
        for (b, opened) in self.open.iter_mut().zip(self.opened.iter_mut()) {
            *b = RecordBlock::with_capacity(subwindow, 0);
            *opened = false;
        }
    }

    #[inline]
    fn place(
        &mut self,
        shard: usize,
        key: FlowKey,
        attr: AttrValue,
        seq: u32,
        emit: &mut impl FnMut(usize, RecordBlock, bool),
    ) {
        let block = &mut self.open[shard];
        if block.keys.is_empty() {
            block.keys.reserve(self.capacity);
            block.seqs.reserve(self.capacity);
        }
        block.push_row(key, attr, seq);
        if block.len() >= self.capacity {
            let full = std::mem::replace(
                &mut self.open[shard],
                RecordBlock::with_capacity(self.subwindow, 0),
            );
            let first = !self.opened[shard];
            self.opened[shard] = true;
            emit(shard, full, first);
        }
    }

    /// Scatter one incoming block's rows; full per-shard blocks are
    /// emitted as `(shard, block, open)` the moment they fill.
    ///
    /// # Panics
    /// Panics when no sub-window is open or the block's sub-window does
    /// not match the open one.
    pub fn push_block(
        &mut self,
        block: &RecordBlock,
        mut emit: impl FnMut(usize, RecordBlock, bool),
    ) {
        assert!(self.active, "ShardScatter: push without begin()");
        assert_eq!(block.subwindow(), self.subwindow, "sub-window mismatch");
        // Bulk-hash the key column once, then place rows.
        let mut scratch = std::mem::take(&mut self.scratch);
        self.partition.shard_indices(block.keys(), &mut scratch);
        for (i, &shard) in scratch.iter().enumerate() {
            self.place(
                shard as usize,
                block.key(i),
                block.attr(i),
                block.seqs()[i],
                &mut emit,
            );
        }
        self.scratch = scratch;
    }

    /// Scatter a record slice (AoS convenience path).
    pub fn push_records(
        &mut self,
        records: &[FlowRecord],
        mut emit: impl FnMut(usize, RecordBlock, bool),
    ) {
        assert!(self.active, "ShardScatter: push without begin()");
        for rec in records {
            let shard = self.partition.shard_of(&rec.key);
            self.place(shard, rec.key, rec.attr, rec.seq, &mut emit);
        }
    }

    /// Close the open sub-window, emitting every shard's remainder.
    ///
    /// A shard that never filled a block receives its (possibly empty)
    /// remainder with `open = true`; a shard that already emitted gets a
    /// trailing block only if rows remain.
    pub fn seal(&mut self, mut emit: impl FnMut(usize, RecordBlock, bool)) {
        assert!(self.active, "ShardScatter: seal() without begin()");
        self.active = false;
        for shard in 0..self.open.len() {
            let block = std::mem::replace(&mut self.open[shard], RecordBlock::new(0));
            let first = !self.opened[shard];
            if first || !block.is_empty() {
                emit(shard, block, first);
            }
        }
    }

    /// One-shot convenience: `begin` + `push_records` + `seal`.
    pub fn scatter_batch(
        &mut self,
        subwindow: u32,
        records: &[FlowRecord],
        mut emit: impl FnMut(usize, RecordBlock, bool),
    ) {
        self.begin(subwindow);
        self.push_records(records, &mut emit);
        self.seal(&mut emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> FlowKey {
        FlowKey::src_ip(i)
    }

    fn freq(i: u32, n: u64, sw: u32, seq: u32) -> FlowRecord {
        FlowRecord {
            key: key(i),
            attr: AttrValue::Frequency(n),
            subwindow: sw,
            seq,
        }
    }

    #[test]
    fn block_round_trips_records() {
        let recs: Vec<FlowRecord> = (0..10).map(|i| freq(i, i as u64 + 1, 3, i)).collect();
        let b = RecordBlock::from_records(3, &recs);
        assert_eq!(b.len(), 10);
        assert_eq!(b.subwindow(), 3);
        assert_eq!(b.to_records(), recs);
        assert!(matches!(b.column(), AttrColumn::Frequency(_)));
    }

    #[test]
    fn column_adopts_first_scalar_pattern() {
        let mut b = RecordBlock::new(0);
        b.push_row(key(1), AttrValue::Max(7), 0);
        b.push_row(key(2), AttrValue::Max(9), 1);
        match b.column() {
            AttrColumn::Max(v) => assert_eq!(v, &[7, 9]),
            other => panic!("wrong column {other:?}"),
        }
    }

    #[test]
    fn column_demotes_to_mixed_on_pattern_clash() {
        let mut b = RecordBlock::new(0);
        b.push_row(key(1), AttrValue::Frequency(5), 0);
        b.push_row(key(2), AttrValue::Max(9), 1);
        b.push_row(key(3), AttrValue::Existence(true), 2);
        assert!(matches!(b.column(), AttrColumn::Mixed(_)));
        assert_eq!(b.attr(0), AttrValue::Frequency(5));
        assert_eq!(b.attr(1), AttrValue::Max(9));
        assert_eq!(b.attr(2), AttrValue::Existence(true));
    }

    #[test]
    fn sort_by_seq_is_stable_and_total() {
        let mut b = RecordBlock::new(0);
        for (i, seq) in [5u32, 1, 3, 1, 0].iter().enumerate() {
            b.push_row(key(i as u32), AttrValue::Frequency(i as u64), *seq);
        }
        b.sort_by_seq();
        assert_eq!(b.seqs(), &[0, 1, 1, 3, 5]);
        // Stability: the two seq-1 rows keep their push order (keys 1, 3).
        assert_eq!(b.key(1), key(1));
        assert_eq!(b.key(2), key(3));
    }

    #[test]
    fn scatter_matches_partition_split() {
        let p = ShardPartition::new(4);
        let recs: Vec<FlowRecord> = (0..200).map(|i| freq(i % 37, i as u64, 2, i)).collect();
        let mut sc = ShardScatter::new(p, 16);
        let mut got: Vec<Vec<FlowRecord>> = vec![Vec::new(); 4];
        let mut opens = [0u32; 4];
        sc.scatter_batch(2, &recs, |shard, block, open| {
            assert!(block.len() <= 16);
            if open {
                opens[shard] += 1;
            }
            got[shard].extend(block.iter());
        });
        let want = p.split(&recs);
        for s in 0..4 {
            assert_eq!(got[s], want[s], "shard {s} order/content diverged");
            assert_eq!(opens[s], 1, "shard {s} must open exactly once");
        }
    }

    #[test]
    fn scatter_emits_empty_open_block_for_idle_shards() {
        // One key → one shard; the other shards must still see the
        // sub-window (empty open block) so evictions stay synchronized.
        let p = ShardPartition::new(4);
        let recs = vec![freq(1, 1, 0, 0)];
        let mut sc = ShardScatter::new(p, 8);
        let mut seen = [false; 4];
        sc.scatter_batch(0, &recs, |shard, _block, open| {
            assert!(open);
            seen[shard] = true;
        });
        assert!(seen.iter().all(|&s| s), "every shard must be emitted");
    }

    #[test]
    fn scatter_streaming_matches_one_shot() {
        let p = ShardPartition::new(2);
        let recs: Vec<FlowRecord> = (0..100).map(|i| freq(i % 11, i as u64, 1, i)).collect();
        let blocks: Vec<RecordBlock> = recs
            .chunks(7)
            .map(|c| RecordBlock::from_records(1, c))
            .collect();

        let mut one = ShardScatter::new(p, 16);
        let mut a: Vec<Vec<FlowRecord>> = vec![Vec::new(); 2];
        one.scatter_batch(1, &recs, |s, b, _| a[s].extend(b.iter()));

        let mut streaming = ShardScatter::new(p, 16);
        let mut b_out: Vec<Vec<FlowRecord>> = vec![Vec::new(); 2];
        streaming.begin(1);
        for blk in &blocks {
            streaming.push_block(blk, |s, b, _| b_out[s].extend(b.iter()));
        }
        streaming.seal(|s, b, _| b_out[s].extend(b.iter()));
        assert_eq!(a, b_out);
    }

    #[test]
    #[should_panic(expected = "without seal")]
    fn scatter_rejects_nested_begin() {
        let mut sc = ShardScatter::new(ShardPartition::new(1), 4);
        sc.begin(0);
        sc.begin(1);
    }
}
