//! Flowkey tracking for AFR generation (Algorithm 1).
//!
//! Many telemetry programs do not store the keys of the flows they
//! measure (Count-Min keeps none; UnivMon/Elastic keep only heavy keys),
//! yet AFR generation needs every active key of the sub-window. The data
//! plane therefore keeps a Bloom filter (to deduplicate) and a small
//! bounded array `fk_buffer`; keys that overflow the array are cloned to
//! the controller instead — the hybrid that Exp#6 calls "OW".

use ow_common::flowkey::FlowKey;
use ow_sketch::BloomFilter;

/// What Algorithm 1 did with a packet's flowkey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackOutcome {
    /// Key seen before in this sub-window — nothing to do (line 2).
    AlreadyTracked,
    /// New key appended to the data-plane array (lines 7–8).
    Buffered,
    /// New key, array full: clone sent to the controller (lines 5–6).
    SentToController,
}

/// Per-sub-window flowkey tracking state (one instance per region).
///
/// ```
/// use ow_switch::flowkey::{FlowkeyTracker, TrackOutcome};
/// use ow_common::flowkey::FlowKey;
///
/// let mut tracker = FlowkeyTracker::new(2, 100, 7); // array holds 2 keys
/// assert_eq!(tracker.track(&FlowKey::src_ip(1)), TrackOutcome::Buffered);
/// assert_eq!(tracker.track(&FlowKey::src_ip(1)), TrackOutcome::AlreadyTracked);
/// assert_eq!(tracker.track(&FlowKey::src_ip(2)), TrackOutcome::Buffered);
/// // Array full: the third key is cloned to the controller.
/// assert_eq!(tracker.track(&FlowKey::src_ip(3)), TrackOutcome::SentToController);
/// ```
#[derive(Debug, Clone)]
pub struct FlowkeyTracker {
    bloom: BloomFilter,
    buffer: Vec<FlowKey>,
    capacity: usize,
    /// Keys cloned to the controller this sub-window (owned by the
    /// controller in the real system; kept here for accounting and for
    /// the functional simulation of CPC injection).
    overflow: Vec<FlowKey>,
}

impl FlowkeyTracker {
    /// Create a tracker whose array holds `capacity` keys, with a Bloom
    /// filter sized for `expected_flows`.
    pub fn new(capacity: usize, expected_flows: usize, seed: u64) -> FlowkeyTracker {
        FlowkeyTracker {
            bloom: BloomFilter::for_capacity(expected_flows.max(64), seed),
            buffer: Vec::with_capacity(capacity),
            capacity,
            overflow: Vec::new(),
        }
    }

    /// Algorithm 1 for one packet's key.
    #[inline]
    pub fn track(&mut self, key: &FlowKey) -> TrackOutcome {
        if self.bloom.check_and_insert(key) {
            return TrackOutcome::AlreadyTracked;
        }
        if self.buffer.len() < self.capacity {
            self.buffer.push(*key);
            TrackOutcome::Buffered
        } else {
            self.overflow.push(*key);
            TrackOutcome::SentToController
        }
    }

    /// Keys in the data-plane array (enumerated by collection packets).
    pub fn buffered(&self) -> &[FlowKey] {
        &self.buffer
    }

    /// Keys that were cloned to the controller (injected back by CPC).
    pub fn overflowed(&self) -> &[FlowKey] {
        &self.overflow
    }

    /// Total distinct keys tracked this sub-window (whp; Bloom false
    /// positives can drop a key, mirroring the real structure).
    pub fn total_tracked(&self) -> usize {
        self.buffer.len() + self.overflow.len()
    }

    /// Reset for the next sub-window (clear packets also sweep the Bloom
    /// filter's register).
    pub fn reset(&mut self) {
        self.bloom.reset();
        self.buffer.clear();
        self.overflow.clear();
    }

    /// Resource footprint of the deduplicating Bloom filter (used by
    /// `ow-verify` to derive the per-hash register arrays this tracker
    /// implies on real hardware).
    pub fn bloom_meta(&self) -> ow_sketch::SketchMeta {
        self.bloom.meta()
    }

    /// Memory footprint in bytes (Bloom bits + 13-byte key slots).
    pub fn memory_bytes(&self) -> usize {
        self.bloom.meta().memory_bytes + self.capacity * 13
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> FlowKey {
        FlowKey::five_tuple(i, !i, 5, 80, 6)
    }

    #[test]
    fn first_sighting_buffers() {
        let mut t = FlowkeyTracker::new(10, 100, 1);
        assert_eq!(t.track(&key(1)), TrackOutcome::Buffered);
        assert_eq!(t.track(&key(1)), TrackOutcome::AlreadyTracked);
        assert_eq!(t.buffered(), &[key(1)]);
    }

    #[test]
    fn overflow_goes_to_controller() {
        let mut t = FlowkeyTracker::new(3, 100, 2);
        for i in 0..5 {
            t.track(&key(i));
        }
        assert_eq!(t.buffered().len(), 3);
        assert_eq!(t.overflowed().len(), 2);
        assert_eq!(t.total_tracked(), 5);
    }

    #[test]
    fn duplicates_are_deduplicated() {
        let mut t = FlowkeyTracker::new(100, 1000, 3);
        for _ in 0..10 {
            for i in 0..50 {
                t.track(&key(i));
            }
        }
        assert_eq!(t.total_tracked(), 50);
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = FlowkeyTracker::new(2, 100, 4);
        for i in 0..5 {
            t.track(&key(i));
        }
        t.reset();
        assert_eq!(t.total_tracked(), 0);
        // Keys can be tracked afresh after reset.
        assert_eq!(t.track(&key(0)), TrackOutcome::Buffered);
    }

    #[test]
    fn tracks_nearly_all_distinct_keys() {
        // Bloom false positives may drop a few keys; the loss must be
        // far below 1% at the design load.
        let mut t = FlowkeyTracker::new(100_000, 50_000, 5);
        for i in 0..50_000 {
            t.track(&key(i));
        }
        assert!(t.total_tracked() >= 49_900, "tracked {}", t.total_tracked());
    }
}
