//! The data-plane register engine — Sonata's stateful operators as they
//! actually behave on the switch.
//!
//! Each query's reduce/distinct state lives in a hash-indexed register
//! array. Crucially, the engine does **not** handle hash conflicts: two
//! keys hashing to the same cell share one statistic and one key slot
//! (the last writer wins the slot). This is the precision/recall error
//! source the paper attributes to Sonata and explicitly does *not* fix:
//! "the stateful operators of Sonata do not handle hash conflicts, which
//! cannot be avoided by OmniWindow."

use ow_common::afr::AttrValue;
use ow_common::flowkey::{sort_by_packed_key, FlowKey};
use ow_common::hash::{mix64, HashFn};
use ow_common::packet::Packet;

use crate::spec::{QuerySpec, StatKind};

/// One register cell: the shared statistic plus the last key that
/// updated it (the key slot Sonata uses to emit reports).
#[derive(Debug, Clone)]
struct Cell {
    attr: AttrValue,
    key: Option<FlowKey>,
}

/// Apply one packet to an attribute value under a query's statistic.
fn update_attr(attr: &mut AttrValue, spec: &QuerySpec, pkt: &Packet) {
    match (spec.stat, attr) {
        (StatKind::Count, AttrValue::Frequency(v)) => *v += 1,
        (StatKind::Distinct(el), AttrValue::Distinction(bm)) => {
            bm.insert_hash(mix64(el.extract(pkt) ^ 0xD157));
        }
        (StatKind::CountDiff { plus, minus }, AttrValue::Signed(v)) => {
            if plus(pkt) {
                *v += 1;
            }
            if minus(pkt) {
                *v -= 1;
            }
        }
        (StatKind::ConnBytes, AttrValue::ConnBytes { conns, bytes }) => {
            let conn = ((pkt.src_ip as u64) << 16) | pkt.src_port as u64;
            conns.insert_hash(mix64(conn ^ 0xC077));
            *bytes += pkt.wire_len as u64;
        }
        _ => unreachable!("attr initialised from spec.stat"),
    }
}

/// Register-based execution of one query over one window/sub-window.
#[derive(Debug, Clone)]
pub struct RegisterEngine {
    spec: QuerySpec,
    cells: Vec<Cell>,
    hash: HashFn,
}

impl RegisterEngine {
    /// Create an engine with `slots` register cells.
    ///
    /// # Panics
    /// Panics if `slots == 0`.
    pub fn new(spec: QuerySpec, slots: usize, seed: u64) -> RegisterEngine {
        assert!(slots > 0, "register engine needs at least one slot");
        RegisterEngine {
            cells: vec![
                Cell {
                    attr: AttrValue::identity(spec.stat.attr_kind()),
                    key: None,
                };
                slots
            ],
            spec,
            hash: HashFn::new(seed ^ 0x50A7A, 0),
        }
    }

    /// Process one packet (single SALU access per array — C4).
    pub fn update(&mut self, pkt: &Packet) {
        if !(self.spec.filter)(pkt) {
            return;
        }
        let key = pkt.key(self.spec.key_kind);
        let idx = self.hash.index(&key, self.cells.len());
        let cell = &mut self.cells[idx];
        // No conflict handling: the statistic is shared, the key slot is
        // overwritten by the latest key.
        update_attr(&mut cell.attr, &self.spec, pkt);
        cell.key = Some(key);
    }

    /// Data-plane flow query for AFR generation: reads the cell the key
    /// hashes to — collisions inflate the result exactly as on hardware.
    pub fn query(&self, key: &FlowKey) -> AttrValue {
        let idx = self.hash.index(key, self.cells.len());
        self.cells[idx].attr
    }

    /// Keys currently resident in key slots (what the data plane can
    /// enumerate without OmniWindow's flowkey tracking).
    pub fn resident_keys(&self) -> Vec<FlowKey> {
        let mut keys: Vec<FlowKey> = self.cells.iter().filter_map(|c| c.key).collect();
        sort_by_packed_key(&mut keys, |k| *k);
        keys.dedup();
        keys
    }

    /// Reset all cells (the in-switch reset target).
    pub fn reset(&mut self) {
        let id = AttrValue::identity(self.spec.stat.attr_kind());
        for c in &mut self.cells {
            c.attr = id;
            c.key = None;
        }
    }

    /// Report: cells whose statistic passes the predicate report their
    /// resident key.
    #[cfg(test)]
    pub(crate) fn report(&self) -> std::collections::HashSet<FlowKey> {
        self.cells
            .iter()
            .filter(|c| c.key.is_some() && self.spec.passes(&c.attr))
            .filter_map(|c| c.key)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::spec::standard_queries;
    use ow_common::packet::TcpFlags;
    use ow_common::time::Instant;

    fn syn(src: u32, dst: u32, sport: u16, dport: u16) -> Packet {
        Packet::tcp(Instant::ZERO, src, dst, sport, dport, TcpFlags::syn(), 64)
    }

    #[test]
    fn matches_exact_when_no_collisions() {
        let q5 = standard_queries()[4];
        let mut reg = RegisterEngine::new(q5, 1 << 16, 1);
        for i in 0..100u32 {
            reg.update(&syn(1000 + i, 7, 1000, 80));
        }
        let victim = FlowKey::dst_ip(7);
        assert_eq!(reg.query(&victim), AttrValue::Frequency(100));
        assert_eq!(reg.report(), HashSet::from([victim]));
    }

    #[test]
    fn q3_counts_distinct_ports() {
        let q3 = standard_queries()[2];
        let mut reg = RegisterEngine::new(q3, 1 << 16, 7);
        // 100 distinct ports probed, each twice (duplicates must not count).
        for _ in 0..2 {
            for port in 0..100u16 {
                reg.update(&syn(1, 7, 1000, port + 1));
            }
        }
        let victim = FlowKey::dst_ip(7);
        let est = reg.query(&victim).scalar();
        assert!((80.0..130.0).contains(&est), "distinct ports {est}");
        assert!(reg.report().contains(&victim));
    }

    #[test]
    fn q6_diff_counts_incomplete_flows() {
        let q6 = standard_queries()[5];
        let mut reg = RegisterEngine::new(q6, 1 << 16, 8);
        // 60 opens, 10 closes → diff 50 ≥ threshold.
        for i in 0..60u16 {
            reg.update(&syn(1, 7, 2000 + i, 443));
        }
        for i in 0..10u16 {
            let p = Packet::tcp(Instant::ZERO, 1, 7, 2000 + i, 443, TcpFlags::fin_ack(), 64);
            reg.update(&p);
        }
        assert_eq!(reg.query(&FlowKey::dst_ip(7)), AttrValue::Signed(50));
        assert!(reg.report().contains(&FlowKey::dst_ip(7)));
    }

    #[test]
    fn filter_excludes_non_matching_packets() {
        let q2 = standard_queries()[1];
        let mut reg = RegisterEngine::new(q2, 1 << 16, 9);
        for i in 0..50 {
            reg.update(&syn(i, 7, 1000, 80)); // port 80, not SSH
        }
        assert!(reg.resident_keys().is_empty());
    }

    #[test]
    fn collisions_inflate_counts() {
        // One slot: every victim shares the cell.
        let q5 = standard_queries()[4];
        let mut reg = RegisterEngine::new(q5, 1, 2);
        for i in 0..50u32 {
            reg.update(&syn(1, 100 + i, 1000, 80));
        }
        // Each victim saw 1 SYN, but the shared cell reads 50.
        assert_eq!(reg.query(&FlowKey::dst_ip(100)).scalar(), 50.0);
    }

    #[test]
    fn collision_overwrites_key_slot() {
        let q5 = standard_queries()[4];
        let mut reg = RegisterEngine::new(q5, 1, 3);
        reg.update(&syn(1, 10, 1000, 80));
        reg.update(&syn(1, 20, 1000, 80));
        // Only the last key is resident.
        assert_eq!(reg.resident_keys(), vec![FlowKey::dst_ip(20)]);
    }

    #[test]
    fn report_uses_resident_key() {
        let q5 = standard_queries()[4];
        let mut reg = RegisterEngine::new(q5, 1, 4);
        // 80 SYNs to victim 10, then one SYN to victim 20 (same cell):
        // the cell passes threshold but reports victim 20 — a false
        // positive + false negative pair, the Sonata error mode.
        for _ in 0..80 {
            reg.update(&syn(1, 10, 1000, 80));
        }
        reg.update(&syn(1, 20, 1000, 80));
        let reported = reg.report();
        assert!(reported.contains(&FlowKey::dst_ip(20)));
        assert!(!reported.contains(&FlowKey::dst_ip(10)));
    }

    #[test]
    fn reset_clears_cells() {
        let q5 = standard_queries()[4];
        let mut reg = RegisterEngine::new(q5, 64, 5);
        for _ in 0..100 {
            reg.update(&syn(1, 10, 1000, 80));
        }
        reg.reset();
        assert!(reg.report().is_empty());
        assert!(reg.resident_keys().is_empty());
        assert_eq!(reg.query(&FlowKey::dst_ip(10)).scalar(), 0.0);
    }
}
