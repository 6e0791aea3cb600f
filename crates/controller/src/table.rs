//! The key-value merge table (§4.2 "Merging AFRs").
//!
//! The controller stores each sub-window's AFR blocks and merges them
//! into complete windows. Merging follows the statistic's pattern
//! (frequency → sum, existence → OR, max/min → extremum, distinction →
//! bitmap union). For sliding windows, the table supports incremental
//! advance: add the newest sub-window, evict the oldest — subtracting
//! frequency statistics in place (Exp#4's O5) and recomputing the
//! non-subtractable patterns from the retained blocks.
//!
//! Storage is an **open-addressing** index (linear probing over a
//! power-of-two bucket array) on top of structure-of-arrays slot
//! columns: keys, cached hashes, pattern tags, one `u64` scalar lane,
//! a one-byte magnitude of that lane, and a per-slot retained-record
//! refcount. Scalar-pattern statistics
//! (frequency / max / min / existence / signed) live entirely in the
//! lane; the two bitmap-carrying patterns spill to a side map keyed by
//! slot. [`MergeTable::insert_block`] is the hot path: it makes room for
//! the block once, resolves every row of a [`RecordBlock`] to a slot,
//! then folds the block's scalar lane with the auto-vectorizable
//! [`crate::simd`] kernels — per-row `match`ing only happens for
//! mixed-pattern blocks.
//!
//! A slot id is stable from the insert that creates it to the eviction
//! that frees it, and each retained block keeps the slot id of every
//! row beside it. Eviction and the non-invertible recompute therefore
//! read slots, never keys: nothing is hashed or looked up. A slot whose
//! refcount reaches zero is tombstoned in the index (probed for by id),
//! zeroed, and put on a free list the next insert takes from; the
//! readers skip freed slots by their zero refcount.
//!
//! The read side ([`MergeTable::flows_over`], [`MergeTable::snapshot`])
//! is written as explicit loops over those columns. A per-slot closure
//! that hands an `AttrValue` across the crate boundary costs 14 ns a
//! slot whenever the inliner leaves it out of line, which the build
//! directory alone decides (DESIGN.md §4l).

use ow_common::afr::{AttrKind, AttrValue, FlowRecord};
use ow_common::block::RecordBlock;
use ow_common::flowkey::{packed_order, sort_by_packed_key, FlowKey};
use ow_common::hash::{mix64, FastMap};
use std::collections::VecDeque;

use crate::simd;

/// Bucket sentinel: never occupied.
const EMPTY: u32 = u32::MAX;
/// Bucket sentinel: previously occupied, probe must continue.
const TOMB: u32 = u32::MAX - 1;
/// Smallest bucket array.
const MIN_BUCKETS: usize = 16;
/// Magnitude sentinel: the slot's scalar is not its raw lane, so a
/// threshold query evaluates it exactly.
const EXACT: u8 = u8::MAX;
/// Slots per magnitude chunk a threshold query can skip whole.
const MAG_CHUNK: usize = 64;

/// Hash a flow key for the table index (mix64 over both packed halves —
/// the stand-in for DPDK `rte_hash` CRC hashing; `std`'s SipHash costs
/// more than the merge itself at block rates).
#[inline]
fn hash_key(key: &FlowKey) -> u64 {
    let v = key.as_u128();
    mix64(v as u64 ^ mix64((v >> 64) as u64))
}

/// The raw scalar-lane encoding of a value (meaningful for the five
/// scalar patterns; bitmap patterns keep their value in the side map).
#[inline]
fn lane_of(attr: &AttrValue) -> u64 {
    match attr {
        AttrValue::Frequency(x) | AttrValue::Max(x) | AttrValue::Min(x) => *x,
        AttrValue::Existence(b) => *b as u64,
        AttrValue::Signed(i) => *i as u64,
        AttrValue::Distinction(_) | AttrValue::ConnBytes { .. } => 0,
    }
}

/// The lane value a freshly created slot starts from, chosen so that
/// folding the first record's value into it yields exactly that value.
#[inline]
fn lane_identity(kind: AttrKind) -> u64 {
    match kind {
        AttrKind::Min => u64::MAX,
        _ => 0,
    }
}

/// The magnitude byte of a slot: the bit length of the lane for the
/// plain counters, whose scalar *is* the lane, and [`EXACT`] for every
/// other pattern (min's `u64::MAX` identity reads 0, signed lanes are
/// two's complement, bitmaps live in the side map).
#[inline]
fn mag_of(kind: AttrKind, lane: u64) -> u8 {
    match kind {
        AttrKind::Frequency | AttrKind::Max => bit_len(lane),
        _ => EXACT,
    }
}

/// Bits needed to write `v` (0 for 0).
#[inline]
fn bit_len(v: u64) -> u8 {
    (u64::BITS - v.leading_zeros()) as u8
}

/// The integer cut of a threshold: `lane as f64 >= t ⇔ lane >= cut`.
/// Holds for `t` below 2⁵³ — `ceil(t)` is then exact in `f64`, any lane
/// under it converts exactly, and the conversion is monotone above it.
/// `None` (NaN, or 2⁵³ and over) sends every slot down the exact path.
#[inline]
fn integer_cut(t: f64) -> Option<u64> {
    const F64_EXACT: f64 = (1u64 << f64::MANTISSA_DIGITS) as f64;
    if t <= 0.0 {
        Some(0)
    } else if t < F64_EXACT {
        Some(t.ceil() as u64)
    } else {
        None
    }
}

/// A retained block beside the slot id of each of its rows.
type Retained = (RecordBlock, Vec<u32>);

/// The controller's merge table over a span of sub-windows.
///
/// The §4.1 motivating case — 60 packets in one sub-window, 80 in the
/// next, threshold 100 — detected only after merging:
///
/// ```
/// use ow_controller::table::MergeTable;
/// use ow_common::afr::FlowRecord;
/// use ow_common::flowkey::FlowKey;
///
/// let flow = FlowKey::five_tuple(1, 2, 3, 4, 6);
/// let mut table = MergeTable::new();
/// table.insert_batch(0, vec![FlowRecord::frequency(flow, 60, 0)]);
/// table.insert_batch(1, vec![FlowRecord::frequency(flow, 80, 1)]);
/// assert_eq!(table.flows_over(100.0), vec![(flow, 140.0)]);
/// ```
#[derive(Debug, Clone)]
pub struct MergeTable {
    /// Open-addressing index: slot id, [`EMPTY`], or [`TOMB`].
    buckets: Vec<u32>,
    /// `buckets.len() - 1` (power-of-two table).
    mask: usize,
    /// Tombstones currently in the index.
    tombs: usize,
    /// Slot columns (SoA), live and freed slots alike.
    keys: Vec<FlowKey>,
    hashes: Vec<u64>,
    kinds: Vec<AttrKind>,
    scalars: Vec<u64>,
    /// [`mag_of`] each slot's pattern and lane, kept current by every
    /// write to `kinds` or `scalars`.
    mags: Vec<u8>,
    /// Retained records referencing each slot (any pattern, matching or
    /// not) — drives vanished-flow removal on eviction. Zero exactly for
    /// a freed slot.
    refs: Vec<u32>,
    /// Freed slot ids, taken last-first by the next inserts.
    free: Vec<u32>,
    /// Bitmap-pattern values (distinction / conn-bytes), by slot.
    heavy: FastMap<u32, AttrValue>,
    /// Retained per-sub-window blocks, oldest first, each beside the
    /// slot id of every row. One entry per evictable unit; a unit may
    /// hold several blocks.
    batches: VecDeque<(u32, Vec<Retained>)>,
    /// Slot-id vectors of evicted blocks, reused by the next inserts.
    spare: Vec<Vec<u32>>,
}

impl Default for MergeTable {
    fn default() -> Self {
        MergeTable::new()
    }
}

impl MergeTable {
    /// An empty table.
    pub fn new() -> MergeTable {
        MergeTable::with_capacity(0)
    }

    /// An empty table pre-sized for about `flows` distinct keys, so the
    /// steady-state hot path never rehashes.
    pub fn with_capacity(flows: usize) -> MergeTable {
        let buckets = (flows.saturating_mul(8) / 7 + 1)
            .next_power_of_two()
            .max(MIN_BUCKETS);
        MergeTable {
            buckets: vec![EMPTY; buckets],
            mask: buckets - 1,
            tombs: 0,
            keys: Vec::with_capacity(flows),
            hashes: Vec::with_capacity(flows),
            kinds: Vec::with_capacity(flows),
            scalars: Vec::with_capacity(flows),
            mags: Vec::with_capacity(flows),
            refs: Vec::with_capacity(flows),
            free: Vec::new(),
            heavy: FastMap::default(),
            batches: VecDeque::new(),
            spare: Vec::new(),
        }
    }

    /// Sub-windows currently merged (oldest first).
    pub fn subwindows(&self) -> Vec<u32> {
        self.batches.iter().map(|(sw, _)| *sw).collect()
    }

    /// Number of flows in the merged view.
    pub fn len(&self) -> usize {
        self.keys.len() - self.free.len()
    }

    /// Whether the merged view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Find the slot holding `key`, if any.
    #[inline]
    fn lookup(&self, key: &FlowKey) -> Option<usize> {
        let h = hash_key(key);
        let mut b = (h as usize) & self.mask;
        loop {
            let e = self.buckets[b];
            if e == EMPTY {
                return None;
            }
            if e != TOMB {
                let s = e as usize;
                if self.hashes[s] == h && self.keys[s] == *key {
                    return Some(s);
                }
            }
            b = (b + 1) & self.mask;
        }
    }

    /// Rebuild the index at `new_buckets` capacity (drops tombstones).
    fn rebuild(&mut self, new_buckets: usize) {
        self.buckets.clear();
        self.buckets.resize(new_buckets, EMPTY);
        self.mask = new_buckets - 1;
        self.tombs = 0;
        for s in 0..self.keys.len() {
            if self.refs[s] == 0 {
                continue; // freed
            }
            let mut b = (self.hashes[s] as usize) & self.mask;
            while self.buckets[b] != EMPTY {
                b = (b + 1) & self.mask;
            }
            self.buckets[b] = s as u32;
        }
    }

    /// Make room for `n` more flows before a block's rows are resolved,
    /// so that the index stays under 7/8 load counting tombstones
    /// whatever the block holds: at most one rebuild, straight to its
    /// final size. An index whose live flows fill a quarter of it
    /// doubles; one crowded by tombstones alone rehashes at its size.
    fn reserve(&mut self, n: usize) {
        let live = self.len();
        if (live + self.tombs + n) * 8 <= self.buckets.len() * 7 {
            return;
        }
        let mut target = self.buckets.len();
        if live * 4 >= target {
            target *= 2;
        }
        while (live + n) * 8 > target * 7 {
            target *= 2;
        }
        self.rebuild(target.max(MIN_BUCKETS));
    }

    /// Find `key`'s slot or create one seeded with the identity of
    /// `kind` (so folding the first value in yields that value). A new
    /// slot reuses the last freed id, if any. The caller has made room
    /// ([`MergeTable::reserve`]).
    #[inline]
    fn find_or_insert(&mut self, key: FlowKey, kind: AttrKind) -> usize {
        let h = hash_key(&key);
        let mut b = (h as usize) & self.mask;
        let mut first_tomb: Option<usize> = None;
        loop {
            let e = self.buckets[b];
            if e == EMPTY {
                break;
            }
            if e == TOMB {
                if first_tomb.is_none() {
                    first_tomb = Some(b);
                }
            } else {
                let s = e as usize;
                if self.hashes[s] == h && self.keys[s] == key {
                    return s;
                }
            }
            b = (b + 1) & self.mask;
        }
        let lane = lane_identity(kind);
        // Heavy patterns get no identity seed: a Distinction identity
        // carries the default bitmap geometry, which may not match the
        // workload's. The first merge clones the incoming value instead.
        let slot = match self.free.pop() {
            Some(s) => {
                let s = s as usize;
                self.keys[s] = key;
                self.hashes[s] = h;
                self.kinds[s] = kind;
                self.scalars[s] = lane;
                self.mags[s] = mag_of(kind, lane);
                debug_assert_eq!(self.refs[s], 0, "a freed slot holds no references");
                s
            }
            None => {
                let s = self.keys.len();
                debug_assert!(s < TOMB as usize, "slot id overflow");
                self.keys.push(key);
                self.hashes.push(h);
                self.kinds.push(kind);
                self.scalars.push(lane);
                self.mags.push(mag_of(kind, lane));
                self.refs.push(0);
                s
            }
        };
        let target = match first_tomb {
            Some(t) => {
                self.tombs -= 1;
                t
            }
            None => b,
        };
        self.buckets[target] = slot as u32;
        debug_assert!((self.len() + self.tombs) * 8 <= self.buckets.len() * 7);
        slot
    }

    /// Reassemble slot `s`'s merged value.
    #[inline]
    fn value_of(&self, s: usize) -> AttrValue {
        match self.kinds[s] {
            AttrKind::Frequency => AttrValue::Frequency(self.scalars[s]),
            AttrKind::Existence => AttrValue::Existence(self.scalars[s] != 0),
            AttrKind::Max => AttrValue::Max(self.scalars[s]),
            AttrKind::Min => AttrValue::Min(self.scalars[s]),
            AttrKind::Signed => AttrValue::Signed(self.scalars[s] as i64),
            AttrKind::Distinction | AttrKind::ConnBytes => self.heavy[&(s as u32)],
        }
    }

    /// Bring slot `s`'s magnitude byte up to date with its lane.
    #[inline]
    fn remag(&mut self, s: usize) {
        self.mags[s] = mag_of(self.kinds[s], self.scalars[s]);
    }

    /// Overwrite slot `s`'s merged value (eviction recompute).
    fn set_value(&mut self, s: usize, value: AttrValue) {
        let kind = value.kind();
        self.kinds[s] = kind;
        self.scalars[s] = lane_of(&value);
        self.remag(s);
        if matches!(kind, AttrKind::Distinction | AttrKind::ConnBytes) {
            self.heavy.insert(s as u32, value);
        } else {
            self.heavy.remove(&(s as u32));
        }
    }

    /// Merge one record's value into slot `s`, mirroring
    /// [`AttrValue::merge`] exactly (pattern mismatches are ignored —
    /// within one app they cannot happen; a corrupted record must not
    /// poison the table).
    #[inline]
    fn merge_into_slot(&mut self, s: usize, attr: &AttrValue) {
        match (self.kinds[s], attr) {
            (AttrKind::Frequency, AttrValue::Frequency(b)) => {
                self.scalars[s] = self.scalars[s].saturating_add(*b);
            }
            (AttrKind::Existence, AttrValue::Existence(b)) => {
                self.scalars[s] |= *b as u64;
            }
            (AttrKind::Max, AttrValue::Max(b)) => {
                self.scalars[s] = self.scalars[s].max(*b);
            }
            (AttrKind::Min, AttrValue::Min(b)) => {
                self.scalars[s] = self.scalars[s].min(*b);
            }
            (AttrKind::Signed, AttrValue::Signed(b)) => {
                self.scalars[s] = (self.scalars[s] as i64).saturating_add(*b) as u64;
            }
            (AttrKind::Distinction, AttrValue::Distinction(_))
            | (AttrKind::ConnBytes, AttrValue::ConnBytes { .. }) => {
                match self.heavy.entry(s as u32) {
                    std::collections::hash_map::Entry::Occupied(mut v) => {
                        let _ = v.get_mut().merge(attr);
                    }
                    // First value for this slot: adopt it verbatim (its
                    // geometry included).
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(*attr);
                    }
                }
            }
            _ => {} // pattern mismatch: ignore, same as the merge algebra's error path
        }
        self.remag(s);
    }

    /// Insert one sub-window's AFR batch and fold it into the merged
    /// view (Exp#4 operations O2+O3). Per-record compatibility wrapper
    /// over [`MergeTable::insert_block`].
    pub fn insert_batch(&mut self, subwindow: u32, afrs: Vec<FlowRecord>) {
        let block = RecordBlock::from_records(subwindow, &afrs);
        self.insert_block(block, true);
    }

    /// Fold one [`RecordBlock`] into the merged view.
    ///
    /// `open` starts a new evictable sub-window unit; `open = false`
    /// appends the block to the unit opened by the previous call (the
    /// streaming router emits several capacity-bounded blocks per
    /// sub-window and flags only the first one `open`).
    ///
    /// The fold is two-phase: resolve every row to a slot (creating
    /// missing slots seeded with the pattern identity), then fold the
    /// attribute column. A scalar column folds through the slot-indexed
    /// [`crate::simd`] kernels; a mixed column falls back to the exact
    /// per-row merge. Row order is preserved either way, which keeps the
    /// block path byte-identical to the per-record baseline. The
    /// resolved slot ids are retained beside the block for eviction.
    pub fn insert_block(&mut self, block: RecordBlock, open: bool) {
        debug_assert!(
            open || self
                .batches
                .back()
                .is_some_and(|(sw, _)| *sw == block.subwindow()),
            "appending a block to a different sub-window"
        );
        let n = block.len();
        self.reserve(n);
        let mut slots = self.spare.pop().unwrap_or_default();
        slots.clear();
        slots.reserve(n);

        match block.column().scalar_lane() {
            Some((kind, lane)) => {
                // Phase 1: resolve slots.
                let mut mismatched = false;
                for key in block.keys() {
                    let s = self.find_or_insert(*key, kind);
                    self.refs[s] += 1;
                    mismatched |= self.kinds[s] != kind;
                    slots.push(s as u32);
                }
                // Rows whose slot holds another pattern are masked out
                // of the lane fold (mismatches are ignored, exactly like
                // the merge algebra). Within one app there are none.
                let masked: Vec<u32>;
                let fold = if mismatched {
                    masked = slots
                        .iter()
                        .map(|&s| {
                            if self.kinds[s as usize] == kind {
                                s
                            } else {
                                simd::SKIP_SLOT
                            }
                        })
                        .collect();
                    &masked
                } else {
                    &slots
                };
                // Phase 2: one slot-indexed lane fold over the block.
                match kind {
                    AttrKind::Frequency => {
                        simd::fold_slots_sum_saturating(&mut self.scalars, fold, lane)
                    }
                    AttrKind::Max => simd::fold_slots_max(&mut self.scalars, fold, lane),
                    AttrKind::Min => simd::fold_slots_min(&mut self.scalars, fold, lane),
                    _ => unreachable!("scalar_lane only yields foldable patterns"),
                }
                // Min slots stay EXACT; the counters' lanes just moved.
                if kind != AttrKind::Min {
                    for &s in fold {
                        if s != simd::SKIP_SLOT {
                            self.mags[s as usize] = bit_len(self.scalars[s as usize]);
                        }
                    }
                }
            }
            None => {
                for i in 0..n {
                    let attr = block.attr(i);
                    let s = self.find_or_insert(block.key(i), attr.kind());
                    self.refs[s] += 1;
                    self.merge_into_slot(s, &attr);
                    slots.push(s as u32);
                }
            }
        }

        match (open, self.batches.back_mut()) {
            (false, Some((_, blocks))) => blocks.push((block, slots)),
            _ => self
                .batches
                .push_back((block.subwindow(), vec![(block, slots)])),
        }
    }

    /// Free slot `s`, whose last retained record was just evicted:
    /// tombstone the bucket holding its id (probed for from its cached
    /// hash, comparing ids, not keys), zero it so that it reads as an
    /// empty counter of magnitude 0, and put it on the free list.
    fn free_slot(&mut self, s: usize) {
        let mut b = (self.hashes[s] as usize) & self.mask;
        while self.buckets[b] != s as u32 {
            b = (b + 1) & self.mask;
        }
        self.buckets[b] = TOMB;
        self.tombs += 1;
        if matches!(self.kinds[s], AttrKind::Distinction | AttrKind::ConnBytes) {
            self.heavy.remove(&(s as u32));
        }
        self.kinds[s] = AttrKind::Frequency;
        self.scalars[s] = 0;
        self.mags[s] = 0;
        self.free.push(s as u32);
    }

    /// Evict the oldest sub-window (sliding-window advance, O5).
    ///
    /// One pass over the evicted rows through the slot ids kept beside
    /// them: each row retires one reference of its slot. A slot left with
    /// none held only evicted records, so its flow vanished and the slot
    /// is freed (`free_slot`). Otherwise a frequency is
    /// subtracted in place and any other pattern is queued, by slot, for
    /// recompute from the retained blocks (they are not invertible). A
    /// queued slot that a later row frees has no retained row, so the
    /// recompute never touches it. No key is hashed, compared or moved.
    pub fn evict_oldest(&mut self) -> Option<u32> {
        let (evicted_sw, evicted) = self.batches.pop_front()?;
        let freed_before = self.free.len();
        let mut needs_recompute: Vec<u32> = Vec::new();
        for (block, slots) in &evicted {
            for (i, &s) in slots.iter().enumerate() {
                let s = s as usize;
                self.refs[s] -= 1;
                if self.refs[s] == 0 {
                    self.free_slot(s);
                    continue;
                }
                match block.attr(i) {
                    AttrValue::Frequency(x) => {
                        // Mirror `unmerge_frequency`: mismatched slots
                        // ignore the subtraction.
                        if self.kinds[s] == AttrKind::Frequency {
                            self.scalars[s] = self.scalars[s].saturating_sub(x);
                            self.remag(s);
                        }
                    }
                    _ => needs_recompute.push(s as u32),
                }
            }
        }
        // Taken last-first, this eviction's ids come back in row order.
        self.free[freed_before..].reverse();
        if !needs_recompute.is_empty() {
            self.recompute(&needs_recompute);
        }
        self.spare
            .extend(evicted.into_iter().map(|(_, slots)| slots));
        Some(evicted_sw)
    }

    /// Rebuild the non-invertible values of `slots` from the retained
    /// blocks: one pass, oldest row first, that reseeds a marked slot
    /// with its first retained row and merges the later ones in —
    /// whatever the number of marked slots.
    fn recompute(&mut self, slots: &[u32]) {
        const KEEP: u8 = 0;
        const RESEED: u8 = 1;
        const FOLD: u8 = 2;
        let mut marks = vec![KEEP; self.keys.len()];
        for &s in slots {
            marks[s as usize] = RESEED;
        }
        let batches = std::mem::take(&mut self.batches);
        for (block, slots) in batches.iter().flat_map(|(_, blocks)| blocks) {
            for (i, &s) in slots.iter().enumerate() {
                let s = s as usize;
                match marks[s] {
                    KEEP => {}
                    RESEED => {
                        self.set_value(s, block.attr(i));
                        marks[s] = FOLD;
                    }
                    _ => self.merge_into_slot(s, &block.attr(i)),
                }
            }
        }
        self.batches = batches;
    }

    /// The merged statistic for one flow.
    pub fn get(&self, key: &FlowKey) -> Option<AttrValue> {
        self.lookup(key).map(|s| self.value_of(s))
    }

    /// Iterate over the merged view (slot order — not canonical; use
    /// [`MergeTable::snapshot`] for the deterministic order).
    pub fn iter(&self) -> impl Iterator<Item = (FlowKey, AttrValue)> + '_ {
        (0..self.keys.len())
            .filter(|&s| self.refs[s] != 0)
            .map(move |s| (self.keys[s], self.value_of(s)))
    }

    /// Whether every magnitude byte matches its definition — what
    /// [`MergeTable::flows_over`] relies on; the read-path proptest
    /// asserts it after every step.
    #[doc(hidden)]
    pub fn mags_current(&self) -> bool {
        (0..self.keys.len()).all(|s| self.mags[s] == mag_of(self.kinds[s], self.scalars[s]))
    }

    /// The full merged view in canonical order (ascending packed key) —
    /// the deterministic snapshot used to compare tables byte for byte
    /// regardless of probe order or shard layout.
    pub fn snapshot(&self) -> Vec<(FlowKey, AttrValue)> {
        // Order a narrow index of the live slots, then gather each wide
        // row exactly once.
        let live = self.keys.iter().zip(&self.refs).zip(0u32..);
        let order = packed_order(
            live.filter(|((_, &refs), _)| refs != 0)
                .map(|((k, _), s)| (k.as_u128(), s)),
        );
        let mut out = Vec::with_capacity(order.len());
        for &(_, s) in &order {
            out.push((self.keys[s as usize], self.value_of(s as usize)));
        }
        out
    }

    /// Threshold query (O4): flows whose merged scalar ≥ `threshold` —
    /// the heavy-hitter / anomaly reporting step.
    ///
    /// A plain counter can only reach the threshold's integer cut if its
    /// magnitude byte reaches the cut's bit length, so the scan reads one
    /// byte per slot, skips whole chunks on their byte maximum, and
    /// touches the wide columns for candidates only. A freed slot's
    /// magnitude is 0, so only a threshold ≤ 0 makes it a candidate; its
    /// zero refcount turns it away.
    pub fn flows_over(&self, threshold: f64) -> Vec<(FlowKey, f64)> {
        let cut = integer_cut(threshold);
        let floor = cut.map_or(0, bit_len);
        let mut out: Vec<(FlowKey, f64)> = Vec::new();
        for (c, chunk) in self.mags.chunks(MAG_CHUNK).enumerate() {
            // A byte-max reduction: vectorises to `pmaxub` on baseline
            // x86-64, where a `u64 >=` scan of the lanes does not.
            if chunk.iter().fold(0, |m, &b| m.max(b)) < floor {
                continue;
            }
            for (i, &mag) in chunk.iter().enumerate() {
                let s = c * MAG_CHUNK + i;
                if mag < floor || self.refs[s] == 0 {
                    continue;
                }
                let hit = match cut {
                    Some(cut) if mag != EXACT => {
                        (self.scalars[s] >= cut).then_some(self.scalars[s] as f64)
                    }
                    _ => Some(self.value_of(s).scalar()).filter(|v| *v >= threshold),
                };
                if let Some(scalar) = hit {
                    out.push((self.keys[s], scalar));
                }
            }
        }
        // Keys are unique, so the stable order is the canonical one.
        sort_by_packed_key(&mut out, |(k, _)| *k);
        out
    }

    /// Drop everything (tumbling-window release, step 6 of §4.2).
    pub fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.tombs = 0;
        self.keys.clear();
        self.hashes.clear();
        self.kinds.clear();
        self.scalars.clear();
        self.mags.clear();
        self.refs.clear();
        self.free.clear();
        self.heavy.clear();
        let retained = self.batches.drain(..).flat_map(|(_, blocks)| blocks);
        self.spare.extend(retained.map(|(_, slots)| slots));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::afr::DistinctBitmap;

    fn key(i: u32) -> FlowKey {
        FlowKey::src_ip(i)
    }

    fn freq(i: u32, n: u64, sw: u32) -> FlowRecord {
        FlowRecord::frequency(key(i), n, sw)
    }

    #[test]
    fn boundary_flow_found_after_merge() {
        // The §4.1 motivating case: 60 + 80 packets across two
        // sub-windows crosses the 100 threshold only after merging.
        let mut t = MergeTable::new();
        t.insert_batch(0, vec![freq(1, 60, 0)]);
        t.insert_batch(1, vec![freq(1, 80, 1)]);
        let over = t.flows_over(100.0);
        assert_eq!(over, vec![(key(1), 140.0)]);
    }

    #[test]
    fn eviction_subtracts_frequency() {
        let mut t = MergeTable::new();
        t.insert_batch(0, vec![freq(1, 60, 0)]);
        t.insert_batch(1, vec![freq(1, 80, 1)]);
        assert_eq!(t.evict_oldest(), Some(0));
        assert_eq!(t.get(&key(1)), Some(AttrValue::Frequency(80)));
    }

    #[test]
    fn eviction_removes_vanished_flows() {
        let mut t = MergeTable::new();
        t.insert_batch(0, vec![freq(1, 5, 0), freq(2, 7, 0)]);
        t.insert_batch(1, vec![freq(1, 3, 1)]);
        t.evict_oldest();
        assert_eq!(t.get(&key(2)), None);
        assert_eq!(t.get(&key(1)), Some(AttrValue::Frequency(3)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn max_recomputed_on_eviction() {
        let mut t = MergeTable::new();
        t.insert_batch(
            0,
            vec![FlowRecord {
                key: key(1),
                attr: AttrValue::Max(100),
                subwindow: 0,
                seq: 0,
            }],
        );
        t.insert_batch(
            1,
            vec![FlowRecord {
                key: key(1),
                attr: AttrValue::Max(40),
                subwindow: 1,
                seq: 0,
            }],
        );
        assert_eq!(t.get(&key(1)), Some(AttrValue::Max(100)));
        t.evict_oldest();
        // Max is not invertible: must recompute to 40, not keep 100.
        assert_eq!(t.get(&key(1)), Some(AttrValue::Max(40)));
    }

    #[test]
    fn distinction_merges_by_union() {
        let mut a = DistinctBitmap::default();
        a.insert_hash(111);
        a.insert_hash(222);
        let mut b = DistinctBitmap::default();
        b.insert_hash(222);
        b.insert_hash(333);
        let mut t = MergeTable::new();
        t.insert_batch(
            0,
            vec![FlowRecord {
                key: key(1),
                attr: AttrValue::Distinction(a),
                subwindow: 0,
                seq: 0,
            }],
        );
        t.insert_batch(
            1,
            vec![FlowRecord {
                key: key(1),
                attr: AttrValue::Distinction(b),
                subwindow: 1,
                seq: 0,
            }],
        );
        match t.get(&key(1)).unwrap() {
            AttrValue::Distinction(bm) => assert_eq!(bm.ones(), 3),
            other => panic!("wrong pattern {other:?}"),
        }
    }

    #[test]
    fn sliding_advance_keeps_window_span() {
        // Five sub-windows per window, sliding by one.
        let mut t = MergeTable::new();
        for sw in 0..5 {
            t.insert_batch(sw, vec![freq(1, 10, sw)]);
        }
        assert_eq!(t.get(&key(1)), Some(AttrValue::Frequency(50)));
        // Slide: add sw5, evict sw0.
        t.insert_batch(5, vec![freq(1, 20, 5)]);
        t.evict_oldest();
        assert_eq!(t.subwindows(), vec![1, 2, 3, 4, 5]);
        assert_eq!(t.get(&key(1)), Some(AttrValue::Frequency(60)));
    }

    #[test]
    fn clear_releases_everything() {
        let mut t = MergeTable::new();
        t.insert_batch(0, vec![freq(1, 1, 0)]);
        t.clear();
        assert!(t.is_empty());
        assert!(t.subwindows().is_empty());
        assert_eq!(t.get(&key(1)), None);
    }

    #[test]
    fn evict_empty_is_none() {
        let mut t = MergeTable::new();
        assert_eq!(t.evict_oldest(), None);
    }

    /// Reference model: the pre-block per-record fold, kept verbatim
    /// for differential testing against the open-addressing fast path.
    #[derive(Default)]
    struct ModelTable {
        batches: Vec<(u32, Vec<FlowRecord>)>,
        merged: std::collections::HashMap<FlowKey, AttrValue>,
    }

    impl ModelTable {
        fn insert_batch(&mut self, subwindow: u32, afrs: Vec<FlowRecord>) {
            for rec in &afrs {
                match self.merged.get_mut(&rec.key) {
                    Some(v) => {
                        let _ = v.merge(&rec.attr);
                    }
                    None => {
                        self.merged.insert(rec.key, rec.attr);
                    }
                }
            }
            self.batches.push((subwindow, afrs));
        }

        fn evict_oldest(&mut self) {
            if self.batches.is_empty() {
                return;
            }
            let (_, evicted) = self.batches.remove(0);
            let mut retained: std::collections::HashSet<FlowKey> = Default::default();
            for (_, b) in &self.batches {
                for r in b {
                    retained.insert(r.key);
                }
            }
            let mut recompute = Vec::new();
            for rec in &evicted {
                if !retained.contains(&rec.key) {
                    self.merged.remove(&rec.key);
                    continue;
                }
                match rec.attr {
                    AttrValue::Frequency(_) => {
                        if let Some(v) = self.merged.get_mut(&rec.key) {
                            let _ = v.unmerge_frequency(&rec.attr);
                        }
                    }
                    _ => recompute.push(rec.key),
                }
            }
            // Every queued key is retained, so the fold below reaches it.
            let recompute: std::collections::HashSet<FlowKey> = recompute.into_iter().collect();
            let mut acc: std::collections::HashMap<FlowKey, AttrValue> = Default::default();
            for r in self.batches.iter().flat_map(|(_, b)| b) {
                if recompute.contains(&r.key) {
                    match acc.get_mut(&r.key) {
                        Some(v) => {
                            let _ = v.merge(&r.attr);
                        }
                        None => {
                            acc.insert(r.key, r.attr);
                        }
                    }
                }
            }
            self.merged.extend(acc);
        }

        fn snapshot(&self) -> Vec<(FlowKey, AttrValue)> {
            let mut out: Vec<_> = self.merged.iter().map(|(k, v)| (*k, *v)).collect();
            out.sort_by_key(|(k, _)| k.as_u128());
            out
        }
    }

    fn mixed_workload() -> Vec<(u32, Vec<FlowRecord>)> {
        // Every pattern, deliberate cross-pattern collisions on shared
        // keys, duplicate keys inside one batch.
        (0..8u32)
            .map(|sw| {
                let mut batch = Vec::new();
                for i in 0..120u32 {
                    let k = key(i % 31);
                    let attr = match (i + sw) % 6 {
                        0 => AttrValue::Frequency((i + 1) as u64),
                        1 => AttrValue::Max((i * 3) as u64),
                        2 => AttrValue::Min((1000 - i) as u64),
                        3 => AttrValue::Existence(i % 2 == 0),
                        4 => AttrValue::Signed(i as i64 - 60),
                        _ => {
                            let mut bm = DistinctBitmap::default();
                            bm.insert_hash((i as u64) * 0x9E37_79B9);
                            AttrValue::Distinction(bm)
                        }
                    };
                    batch.push(FlowRecord {
                        key: k,
                        attr,
                        subwindow: sw,
                        seq: i,
                    });
                }
                (sw, batch)
            })
            .collect()
    }

    #[test]
    fn open_addressing_matches_model_through_evictions() {
        let mut t = MergeTable::new();
        let mut m = ModelTable::default();
        for (sw, batch) in mixed_workload() {
            t.insert_batch(sw, batch.clone());
            m.insert_batch(sw, batch);
            if sw >= 3 {
                assert!(t.evict_oldest().is_some());
                m.evict_oldest();
            }
            assert_eq!(t.snapshot(), m.snapshot(), "diverged at sw {sw}");
        }
    }

    #[test]
    fn recompute_is_one_pass_over_the_retained_blocks() {
        // A span-5 window of 20 000 `Max` flows per sub-window beside
        // churning `Frequency` flows and `Distinction` flows, each
        // pattern in its own block of the unit. Every eviction queues all
        // 20 200 non-invertible flows: one scan of the 100 000 retained
        // records per flow would be 2 * 10^9 key comparisons an eviction
        // (minutes for this test); one pass over them is milliseconds.
        const SPAN: u32 = 5;
        let unit = |sw: u32| -> [Vec<FlowRecord>; 3] {
            let rec = |k: u32, attr: AttrValue, seq: u32| FlowRecord {
                key: key(k),
                attr,
                subwindow: sw,
                seq,
            };
            let max = (0..20_000u32)
                .map(|i| rec(i, AttrValue::Max(((i * 7 + sw * 131) % 1_000) as u64), i))
                .collect();
            // Keys enter at `sw * 100` and live five sub-windows.
            let freq = (0..500u32)
                .map(|j| rec(20_000 + sw * 100 + j, AttrValue::Frequency(j as u64 + 1), j))
                .collect();
            let distinct = (0..200u32)
                .map(|j| {
                    let mut bm = DistinctBitmap::default();
                    bm.insert_hash((j as u64 * 0x9E37_79B9) ^ sw as u64);
                    rec(40_000 + j, AttrValue::Distinction(bm), j)
                })
                .collect();
            [max, freq, distinct]
        };
        let mut t = MergeTable::new();
        let mut m = ModelTable::default();
        for sw in 0..SPAN + 3 {
            let blocks = unit(sw);
            for (n, rows) in blocks.iter().enumerate() {
                t.insert_block(RecordBlock::from_records(sw, rows), n == 0);
            }
            m.insert_batch(sw, blocks.concat());
            if sw >= SPAN {
                assert_eq!(t.evict_oldest(), Some(sw - SPAN));
                m.evict_oldest();
            }
            assert_eq!(t.snapshot(), m.snapshot(), "diverged at sw {sw}");
        }
    }

    #[test]
    fn streamed_blocks_equal_one_batch() {
        // Several capacity-bounded blocks appended to one open
        // sub-window unit must behave exactly like one insert_batch —
        // including as one evictable unit.
        let batch: Vec<FlowRecord> = (0..100).map(|i| freq(i % 13, i as u64 + 1, 0)).collect();
        let mut whole = MergeTable::new();
        whole.insert_batch(0, batch.clone());
        whole.insert_batch(1, vec![freq(1, 7, 1)]);

        let mut streamed = MergeTable::new();
        for (n, chunk) in batch.chunks(9).enumerate() {
            streamed.insert_block(RecordBlock::from_records(0, chunk), n == 0);
        }
        streamed.insert_block(RecordBlock::from_records(1, &[freq(1, 7, 1)]), true);
        assert_eq!(streamed.subwindows(), vec![0, 1]);
        assert_eq!(streamed.snapshot(), whole.snapshot());

        whole.evict_oldest();
        streamed.evict_oldest();
        assert_eq!(streamed.snapshot(), whole.snapshot());
        assert_eq!(streamed.subwindows(), vec![1]);
    }

    #[test]
    fn presized_table_never_loses_keys_across_growth() {
        // Start tiny to force several rebuilds; every key must survive.
        let mut t = MergeTable::with_capacity(0);
        for i in 0..10_000u32 {
            t.insert_batch(0, vec![freq(i, i as u64 + 1, 0)]);
        }
        assert_eq!(t.len(), 10_000);
        for i in (0..10_000u32).step_by(97) {
            assert_eq!(t.get(&key(i)), Some(AttrValue::Frequency(i as u64 + 1)));
        }
    }

    #[test]
    fn tombstones_are_compacted_not_leaked() {
        // Insert/evict churn drives tombstone creation; lookups and
        // inserts must stay correct through in-place rehashes.
        let mut t = MergeTable::new();
        for round in 0..50u32 {
            let sw = round;
            let batch: Vec<FlowRecord> = (0..64u32).map(|i| freq(round * 64 + i, 1, sw)).collect();
            t.insert_batch(sw, batch);
            if round >= 1 {
                t.evict_oldest(); // removes the previous round's unique keys
            }
        }
        assert_eq!(t.len(), 64);
        assert_eq!(t.get(&key(49 * 64)), Some(AttrValue::Frequency(1)));
        assert_eq!(t.get(&key(0)), None);
    }
}
