//! Simulated one-sided RDMA collection (§7).
//!
//! The real system lets the switch construct RoCEv2 WRITE /
//! Fetch-and-Add requests targeting a registered memory region in the
//! controller, so AFRs land in controller memory without controller CPU
//! work. We reproduce the *division of labour* exactly:
//!
//! * the controller owns a region: a slot array for hot keys (grouped by
//!   key, one slot per key) and an append buffer for cold keys;
//! * the controller installs hot keys' slot addresses into the switch's
//!   *address MAT*, promoting/demoting keys;
//! * the switch-side writer matches a key in the address MAT — hit →
//!   `WRITE`/`Fetch-and-Add` straight into the slot; miss → append the
//!   whole AFR to the buffer;
//! * the controller CPU only drains the cold buffer; hot-key sums never
//!   touch it.

use std::collections::HashMap;

use ow_common::afr::{AttrValue, FlowRecord};
use ow_common::flowkey::FlowKey;

/// What kind of RDMA verb a switch-side write used (for accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaWriteKind {
    /// One-sided WRITE of the attribute into the key's slot.
    Write,
    /// Fetch-and-Add aggregation into the key's slot (frequency and
    /// distinction sums are offloaded to the RNIC).
    FetchAdd,
    /// Append to the cold-key buffer.
    BufferAppend,
}

/// The controller's registered memory region plus the switch-visible
/// address MAT.
#[derive(Debug, Clone, Default)]
pub struct RdmaRegion {
    /// Hot-key slots: merged frequency value per key, maintained by the
    /// RNIC (Fetch-and-Add), never by controller code.
    slots: Vec<u64>,
    /// Hot key → slot index (the mirror of the switch's address MAT).
    addr_mat: HashMap<FlowKey, usize>,
    /// Cold-key append buffer (drained by the controller CPU).
    buffer: Vec<FlowRecord>,
    /// Verb counters for accounting.
    pub writes: u64,
    /// Fetch-and-Add count.
    pub fetch_adds: u64,
    /// Buffer append count.
    pub appends: u64,
}

impl RdmaRegion {
    /// A fresh region with no hot keys.
    pub fn new() -> RdmaRegion {
        RdmaRegion::default()
    }

    /// Install `key` as hot: allocate a slot and publish its address to
    /// the switch's address MAT. Idempotent.
    pub fn promote(&mut self, key: FlowKey) {
        if !self.addr_mat.contains_key(&key) {
            self.slots.push(0);
            self.addr_mat.insert(key, self.slots.len() - 1);
        }
    }

    /// Remove a cold key from the address MAT (its slot is retired; the
    /// merged value is returned for the table).
    pub fn demote(&mut self, key: &FlowKey) -> Option<u64> {
        self.addr_mat.remove(key).map(|idx| {
            let v = self.slots[idx];
            self.slots[idx] = 0;
            v
        })
    }

    /// The switch-side write path for one AFR: address-MAT hit uses
    /// Fetch-and-Add (frequency) or WRITE (other patterns); miss appends
    /// to the cold buffer. Returns which verb was used.
    pub fn switch_write(&mut self, rec: FlowRecord) -> RdmaWriteKind {
        match self.addr_mat.get(&rec.key) {
            Some(&idx) => match rec.attr {
                AttrValue::Frequency(v) => {
                    // RNIC-side Fetch-and-Add: no controller CPU involved.
                    self.slots[idx] = self.slots[idx].saturating_add(v);
                    self.fetch_adds += 1;
                    RdmaWriteKind::FetchAdd
                }
                _ => {
                    // Non-additive patterns are written per-sub-window and
                    // merged by the controller on read; model as WRITE into
                    // the slot holding the latest scalar.
                    self.slots[idx] = rec.attr.scalar() as u64;
                    self.writes += 1;
                    RdmaWriteKind::Write
                }
            },
            None => {
                self.buffer.push(rec);
                self.appends += 1;
                RdmaWriteKind::BufferAppend
            }
        }
    }

    /// The merged hot-key value for `key` (what the RNIC accumulated).
    pub fn hot_value(&self, key: &FlowKey) -> Option<u64> {
        self.addr_mat.get(key).map(|&i| self.slots[i])
    }

    /// Drain the cold-key buffer (the only controller-CPU collection
    /// work under the RDMA optimisation).
    pub fn drain_buffer(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> FlowKey {
        FlowKey::src_ip(i)
    }

    fn freq(i: u32, n: u64, sw: u32) -> FlowRecord {
        FlowRecord::frequency(key(i), n, sw)
    }

    #[test]
    fn hot_keys_aggregate_without_cpu() {
        let mut r = RdmaRegion::new();
        r.promote(key(1));
        assert_eq!(r.switch_write(freq(1, 60, 0)), RdmaWriteKind::FetchAdd);
        assert_eq!(r.switch_write(freq(1, 80, 1)), RdmaWriteKind::FetchAdd);
        assert_eq!(r.hot_value(&key(1)), Some(140));
        // Nothing reached the CPU-drained buffer.
        assert!(r.drain_buffer().is_empty());
        assert_eq!(r.fetch_adds, 2);
    }

    #[test]
    fn cold_keys_go_to_buffer() {
        let mut r = RdmaRegion::new();
        assert_eq!(r.switch_write(freq(9, 5, 0)), RdmaWriteKind::BufferAppend);
        let drained = r.drain_buffer();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].key, key(9));
        // Buffer is consumed.
        assert!(r.drain_buffer().is_empty());
    }

    #[test]
    fn promotion_is_idempotent() {
        let mut r = RdmaRegion::new();
        r.promote(key(1));
        r.switch_write(freq(1, 10, 0));
        r.promote(key(1));
        assert_eq!(r.hot_value(&key(1)), Some(10));
    }

    #[test]
    fn demote_returns_merged_value() {
        let mut r = RdmaRegion::new();
        r.promote(key(1));
        r.switch_write(freq(1, 25, 0));
        assert_eq!(r.demote(&key(1)), Some(25));
        assert_eq!(r.hot_value(&key(1)), None);
        // Next write for the key is cold.
        assert_eq!(r.switch_write(freq(1, 1, 1)), RdmaWriteKind::BufferAppend);
    }

    #[test]
    fn non_frequency_patterns_use_write_verb() {
        let mut r = RdmaRegion::new();
        r.promote(key(1));
        let rec = FlowRecord {
            key: key(1),
            attr: AttrValue::Max(42),
            subwindow: 0,
            seq: 0,
        };
        assert_eq!(r.switch_write(rec), RdmaWriteKind::Write);
        assert_eq!(r.hot_value(&key(1)), Some(42));
    }
}
