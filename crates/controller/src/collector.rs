//! Per-sub-window AFR collection sessions with loss recovery (§8,
//! "Reliability of AFRs").
//!
//! AFR report clones travel at the lowest priority and can be dropped
//! under congestion. The switch announces, in the trigger packet, how
//! many flowkeys the sub-window tracked and gives every AFR a dense
//! sequence id; the controller checks completeness after generation and
//! asks the switch to retransmit exactly the missing sequence ids.
//!
//! A session's whole view of its sub-window is a seen-bitmap over the
//! announced range: it is complete when every id in `0..announced` has
//! arrived. The window's lifecycle phases are the switch's alone
//! (`ow_common::engine`).

use ow_common::afr::FlowRecord;
use ow_common::block::RecordBlock;
use ow_common::hash::FastMap;

/// A collection session for one (switch, sub-window) pair.
#[derive(Debug, Clone)]
pub struct CollectionSession {
    subwindow: u32,
    announced: u32,
    /// Presence bitmap over the announced dense sequence range — the
    /// per-record hot path is one test-and-set, not a map insert.
    seen: Vec<u64>,
    /// Distinct in-range sequence ids received.
    in_range: u32,
    /// First-arrival records in arrival order, columnar. Duplicates
    /// never enter (the bitmap filters them), mirroring the old
    /// first-record-wins map semantics.
    records: RecordBlock,
    /// Out-of-range sequence ids (a switch announcing fewer AFRs than
    /// it emits is a protocol quirk, not a crash): first record wins.
    /// They merge with the batch but do not count toward completeness.
    stragglers: FastMap<u32, FlowRecord>,
}

impl CollectionSession {
    /// Open a session after the trigger packet announced `announced`
    /// tracked flowkeys for `subwindow`.
    pub fn new(subwindow: u32, announced: u32) -> CollectionSession {
        CollectionSession {
            subwindow,
            announced,
            seen: vec![0u64; announced.div_ceil(64) as usize],
            in_range: 0,
            records: RecordBlock::with_capacity(subwindow, announced as usize),
            stragglers: FastMap::default(),
        }
    }

    /// The sub-window being collected.
    pub(crate) fn subwindow(&self) -> u32 {
        self.subwindow
    }

    /// Whether `rec` is a first arrival; records it if so.
    #[inline]
    fn admit(&mut self, rec: FlowRecord) -> bool {
        if rec.seq < self.announced {
            let (word, bit) = ((rec.seq / 64) as usize, rec.seq % 64);
            if self.seen[word] & (1u64 << bit) != 0 {
                return false;
            }
            self.seen[word] |= 1u64 << bit;
            self.in_range += 1;
            self.records.push(&rec);
            true
        } else {
            // Out-of-range id: keep the first record, like the in-range
            // path does.
            match self.stragglers.entry(rec.seq) {
                std::collections::hash_map::Entry::Occupied(_) => false,
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(rec);
                    true
                }
            }
        }
    }

    /// Ingest one AFR report. Duplicates (retransmissions that crossed
    /// with the original) are idempotent. AFRs for the wrong sub-window
    /// are rejected.
    pub fn receive(&mut self, rec: FlowRecord) -> Result<(), ow_common::OwError> {
        if rec.subwindow != self.subwindow {
            return Err(ow_common::OwError::Protocol(format!(
                "AFR for sub-window {} in session {}",
                rec.subwindow, self.subwindow
            )));
        }
        self.admit(rec);
        Ok(())
    }

    /// Ingest one block of AFR reports — the wire-batched hot path: one
    /// bitmap test-and-set per row. Returns `(fresh, duplicates)`
    /// counts. A block for the wrong sub-window is rejected whole.
    pub(crate) fn receive_block(
        &mut self,
        block: &RecordBlock,
    ) -> Result<(u64, u64), ow_common::OwError> {
        if block.subwindow() != self.subwindow {
            return Err(ow_common::OwError::Protocol(format!(
                "AFR block for sub-window {} in session {}",
                block.subwindow(),
                self.subwindow
            )));
        }
        let mut fresh = 0u64;
        for i in 0..block.len() {
            if self.admit(block.record(i)) {
                fresh += 1;
            }
        }
        Ok((fresh, block.len() as u64 - fresh))
    }

    /// Distinct sequence ids received so far (duplicates collapse).
    pub(crate) fn received(&self) -> usize {
        self.in_range as usize + self.stragglers.len()
    }

    /// Whether every announced sequence id has arrived. Stragglers (ids
    /// past the announced range) do not count.
    pub fn is_complete(&self) -> bool {
        self.in_range == self.announced
    }

    /// The announced sequence ids not yet seen (the retransmission
    /// request payload); empty exactly when the session is complete.
    pub fn missing(&self) -> Vec<u32> {
        (0..self.announced)
            .filter(|seq| self.seen[(seq / 64) as usize] & (1u64 << (seq % 64)) == 0)
            .collect()
    }

    /// Finish the session, yielding the complete batch as one columnar
    /// [`RecordBlock`] sorted by sequence id — the form the sharded
    /// merge path scatters without reassembling per-record vectors.
    ///
    /// # Panics
    /// Panics if called while AFRs are still missing — callers must
    /// drive retransmission to completion first.
    pub(crate) fn into_block(mut self) -> RecordBlock {
        assert!(
            self.is_complete(),
            "session for sub-window {} incomplete: {}/{}",
            self.subwindow,
            self.in_range,
            self.announced
        );
        for rec in self.stragglers.values() {
            self.records.push(rec);
        }
        // Sequence ids are distinct (bitmap + map keys), so the stable
        // sort yields one deterministic order.
        self.records.sort_by_seq();
        self.records
    }

    /// Finish the session, yielding the complete AFR batch sorted by
    /// sequence id (per-record compatibility view of
    /// `CollectionSession::into_block`).
    ///
    /// # Panics
    /// Panics if called while AFRs are still missing — callers must
    /// drive retransmission to completion first.
    pub fn into_batch(self) -> Vec<FlowRecord> {
        self.into_block().to_records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::flowkey::FlowKey;

    fn rec(seq: u32, sw: u32) -> FlowRecord {
        let mut r = FlowRecord::frequency(FlowKey::src_ip(seq + 1), seq as u64, sw);
        r.seq = seq;
        r
    }

    #[test]
    fn complete_session_without_loss() {
        let mut s = CollectionSession::new(3, 5);
        for seq in 0..5 {
            s.receive(rec(seq, 3)).unwrap();
        }
        assert!(s.is_complete());
        assert!(s.missing().is_empty());
        let batch = s.into_batch();
        assert_eq!(batch.len(), 5);
        assert!(batch.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn loss_detected_and_recovered() {
        let mut s = CollectionSession::new(0, 4);
        s.receive(rec(0, 0)).unwrap();
        s.receive(rec(2, 0)).unwrap();
        assert!(!s.is_complete());
        assert_eq!(s.missing(), vec![1, 3]);
        // Retransmitted AFRs arrive.
        s.receive(rec(1, 0)).unwrap();
        s.receive(rec(3, 0)).unwrap();
        assert!(s.is_complete());
        assert_eq!(s.into_batch().len(), 4);
    }

    #[test]
    fn duplicates_are_idempotent() {
        let mut s = CollectionSession::new(0, 2);
        s.receive(rec(0, 0)).unwrap();
        s.receive(rec(0, 0)).unwrap();
        s.receive(rec(1, 0)).unwrap();
        assert_eq!(s.into_batch().len(), 2);
    }

    #[test]
    fn wrong_subwindow_rejected() {
        let mut s = CollectionSession::new(1, 1);
        assert!(s.receive(rec(0, 2)).is_err());
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn incomplete_batch_panics() {
        let s = CollectionSession::new(0, 3);
        let _ = s.into_batch();
    }

    #[test]
    fn stragglers_do_not_complete_a_session() {
        // Three ids announced, three distinct ids received — but two of
        // them lie past the announced range, so 1 and 2 are still owed.
        let mut s = CollectionSession::new(0, 3);
        for seq in [0, 5, 7] {
            s.receive(rec(seq, 0)).unwrap();
        }
        assert!(!s.is_complete());
        assert_eq!(s.missing(), vec![1, 2]);
        for seq in [1, 2] {
            s.receive(rec(seq, 0)).unwrap();
        }
        assert!(s.is_complete());
        let seqs: Vec<u32> = s.into_batch().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 5, 7], "stragglers merge with the batch");
    }

    #[test]
    fn empty_announcement_merges_on_open() {
        let s = CollectionSession::new(9, 0);
        assert!(s.is_complete());
        assert!(s.into_batch().is_empty());
    }
}
