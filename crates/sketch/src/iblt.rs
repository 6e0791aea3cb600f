//! Invertible Bloom Lookup Table — the digest behind LossRadar (Li et
//! al., CoNEXT'16), used in the consistency experiment (Exp#9).
//!
//! Each of `k` hash functions maps a key to one cell; a cell keeps
//! `(count, key_xor, check_xor)`. Inserting upstream and deleting
//! downstream leaves a digest of exactly the lost packets, which peels:
//! a cell with `count == ±1` and a consistent checksum exposes one key,
//! which is then removed from its other cells, usually cascading until
//! the digest is empty.

use ow_common::flowkey::{sort_by_packed_key, FlowKey};
use ow_common::hash::{HashFamily, HashFn};

use crate::traits::SketchMeta;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    count: i64,
    key_xor: u128,
    check_xor: u64,
}

/// Outcome of decoding an IBLT difference digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeResult {
    /// Keys present in the *inserted* side but not the deleted side
    /// (for LossRadar: the lost packets' flows).
    pub missing: Vec<FlowKey>,
    /// Keys present only in the deleted side (unexpected extras).
    pub extra: Vec<FlowKey>,
    /// Whether peeling emptied the table completely.
    pub complete: bool,
}

/// An invertible Bloom lookup table over flow keys.
#[derive(Debug, Clone)]
pub struct Iblt {
    cells: Vec<Cell>,
    hashes: HashFamily,
    check: HashFn,
}

impl Iblt {
    /// Create a table with `ncells` cells and `k` hash functions.
    ///
    /// Decoding succeeds w.h.p. when the number of differing keys is below
    /// roughly `ncells / 1.3` (for `k = 3`).
    ///
    /// # Panics
    /// Panics if `ncells == 0` or `k == 0`.
    pub fn new(ncells: usize, k: usize, seed: u64) -> Iblt {
        assert!(ncells > 0 && k > 0, "IBLT dimensions must be positive");
        Iblt {
            cells: vec![Cell::default(); ncells],
            hashes: HashFamily::new(seed ^ 0x1B17, k),
            check: HashFn::new(seed ^ 0xC4EC, 0),
        }
    }

    fn indices(&self, key: &FlowKey) -> Vec<usize> {
        // Separate `HashFn`s, not one `KeyDigest`: peeling needs two keys
        // that share a cell to part ways in their other cells.
        // Distinct cells per hash: partition the table into k sub-ranges so
        // a key never hits the same cell twice (standard IBLT practice).
        let k = self.hashes.len();
        let per = self.cells.len() / k.max(1);
        if per == 0 {
            return self
                .hashes
                .iter()
                .map(|h| h.index(key, self.cells.len()))
                .collect();
        }
        self.hashes
            .iter()
            .enumerate()
            .map(|(i, h)| i * per + h.index(key, per))
            .collect()
    }

    /// Insert a key (upstream observation).
    pub fn insert(&mut self, key: &FlowKey) {
        let check = self.check.hash_key(key);
        for idx in self.indices(key) {
            let c = &mut self.cells[idx];
            c.count += 1;
            c.key_xor ^= key.as_u128();
            c.check_xor ^= check;
        }
    }

    /// Delete a key (downstream observation).
    pub fn delete(&mut self, key: &FlowKey) {
        let check = self.check.hash_key(key);
        for idx in self.indices(key) {
            let c = &mut self.cells[idx];
            c.count -= 1;
            c.key_xor ^= key.as_u128();
            c.check_xor ^= check;
        }
    }

    /// Subtract another table cell-wise, producing the difference digest.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn subtract(&mut self, other: &Iblt) {
        assert_eq!(self.cells.len(), other.cells.len(), "size mismatch");
        for (a, b) in self.cells.iter_mut().zip(other.cells.iter()) {
            a.count -= b.count;
            a.key_xor ^= b.key_xor;
            a.check_xor ^= b.check_xor;
        }
    }

    fn unpack_key(packed: u128) -> Option<FlowKey> {
        use ow_common::flowkey::KeyKind;
        let kind = match (packed >> 104) as u8 {
            0 => KeyKind::FiveTuple,
            1 => KeyKind::SrcIp,
            2 => KeyKind::DstIp,
            3 => KeyKind::SrcDst,
            _ => return None,
        };
        let key = FlowKey {
            src_ip: (packed >> 72) as u32,
            dst_ip: (packed >> 40) as u32,
            src_port: (packed >> 24) as u16,
            dst_port: (packed >> 8) as u16,
            proto: packed as u8,
            kind,
        }
        .canonical();
        // Canonicalisation must be a no-op for a valid packed key.
        if key.as_u128() == packed {
            Some(key)
        } else {
            None
        }
    }

    /// Peel the table, recovering the set difference between inserted and
    /// deleted keys. Non-destructive? No — peeling consumes the table;
    /// clone first if the digest is still needed.
    pub fn decode(&mut self) -> DecodeResult {
        let mut missing = Vec::new();
        let mut extra = Vec::new();
        loop {
            let mut progressed = false;
            for i in 0..self.cells.len() {
                let cell = self.cells[i];
                if (cell.count == 1 || cell.count == -1) && cell.key_xor != 0 {
                    if let Some(key) = Self::unpack_key(cell.key_xor) {
                        if self.check.hash_key(&key) == cell.check_xor {
                            if cell.count == 1 {
                                self.delete(&key);
                                missing.push(key);
                            } else {
                                self.insert(&key);
                                extra.push(key);
                            }
                            progressed = true;
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        let complete = self.cells.iter().all(|c| *c == Cell::default());
        sort_by_packed_key(&mut missing, |k| *k);
        sort_by_packed_key(&mut extra, |k| *k);
        DecodeResult {
            missing,
            extra,
            complete,
        }
    }

    /// Clear all cells.
    pub fn reset(&mut self) {
        self.cells.fill(Cell::default());
    }

    /// Whether every cell is zero (digest empty — no difference).
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(|c| *c == Cell::default())
    }

    /// Resource footprint.
    pub fn meta(&self) -> SketchMeta {
        SketchMeta {
            name: "IBLT",
            memory_bytes: self.cells.len() * 32,
            register_arrays: 3,
            salus_per_packet: self.hashes.len() * 3,
            hash_units: self.hashes.len() + 1,
        }
    }
}

/// An IBLT over raw 128-bit identifiers (validated only by checksum),
/// used where the digested items are not flow keys — LossRadar digests
/// *packets* (flow id ⊕ per-packet sequence), not flows.
#[derive(Debug, Clone)]
pub struct RawIblt {
    cells: Vec<Cell>,
    hashes: HashFamily,
    check: HashFn,
}

impl RawIblt {
    /// Create a table with `ncells` cells and `k` hash functions.
    ///
    /// # Panics
    /// Panics if `ncells == 0` or `k == 0`.
    pub fn new(ncells: usize, k: usize, seed: u64) -> RawIblt {
        assert!(ncells > 0 && k > 0, "RawIblt dimensions must be positive");
        RawIblt {
            cells: vec![Cell::default(); ncells],
            hashes: HashFamily::new(seed ^ 0x7A41, k),
            check: HashFn::new(seed ^ 0xC4ED, 0),
        }
    }

    fn indices(&self, id: u128) -> Vec<usize> {
        let k = self.hashes.len();
        let per = self.cells.len() / k.max(1);
        if per == 0 {
            return self
                .hashes
                .iter()
                .map(|h| h.index_u64(id as u64 ^ (id >> 64) as u64, self.cells.len()))
                .collect();
        }
        self.hashes
            .iter()
            .enumerate()
            .map(|(i, h)| i * per + h.index_u64(id as u64 ^ (id >> 64) as u64, per))
            .collect()
    }

    fn checksum(&self, id: u128) -> u64 {
        self.check.hash_u128(id)
    }

    /// Insert an identifier.
    pub fn insert(&mut self, id: u128) {
        let check = self.checksum(id);
        for idx in self.indices(id) {
            let c = &mut self.cells[idx];
            c.count += 1;
            c.key_xor ^= id;
            c.check_xor ^= check;
        }
    }

    /// Delete an identifier.
    pub fn delete(&mut self, id: u128) {
        let check = self.checksum(id);
        for idx in self.indices(id) {
            let c = &mut self.cells[idx];
            c.count -= 1;
            c.key_xor ^= id;
            c.check_xor ^= check;
        }
    }

    /// Subtract another table cell-wise.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn subtract(&mut self, other: &RawIblt) {
        assert_eq!(self.cells.len(), other.cells.len(), "size mismatch");
        for (a, b) in self.cells.iter_mut().zip(other.cells.iter()) {
            a.count -= b.count;
            a.key_xor ^= b.key_xor;
            a.check_xor ^= b.check_xor;
        }
    }

    /// Peel, returning `(missing, extra, complete)`: identifiers only on
    /// the inserted side, only on the deleted side, and whether the table
    /// emptied.
    pub fn decode(&mut self) -> (Vec<u128>, Vec<u128>, bool) {
        let mut missing = Vec::new();
        let mut extra = Vec::new();
        loop {
            let mut progressed = false;
            for i in 0..self.cells.len() {
                let cell = self.cells[i];
                if (cell.count == 1 || cell.count == -1)
                    && self.checksum(cell.key_xor) == cell.check_xor
                {
                    let id = cell.key_xor;
                    if cell.count == 1 {
                        self.delete(id);
                        missing.push(id);
                    } else {
                        self.insert(id);
                        extra.push(id);
                    }
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        let complete = self.cells.iter().all(|c| *c == Cell::default());
        missing.sort_unstable();
        extra.sort_unstable();
        (missing, extra, complete)
    }

    /// Whether every cell is zero.
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(|c| *c == Cell::default())
    }

    /// Clear all cells.
    pub fn reset(&mut self) {
        self.cells.fill(Cell::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> FlowKey {
        FlowKey::five_tuple(i, i ^ 0x5555, (i % 50000) as u16, 80, 6)
    }

    #[test]
    fn insert_then_delete_cancels() {
        let mut t = Iblt::new(64, 3, 1);
        for i in 0..100 {
            t.insert(&key(i));
        }
        for i in 0..100 {
            t.delete(&key(i));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn decodes_small_difference() {
        let mut up = Iblt::new(128, 3, 2);
        let mut down = Iblt::new(128, 3, 2);
        // 1000 packets upstream, 10 lost before downstream.
        for i in 0..1000 {
            up.insert(&key(i));
            if i >= 10 {
                down.insert(&key(i));
            }
        }
        up.subtract(&down);
        let res = up.decode();
        assert!(res.complete, "peeling did not complete");
        assert_eq!(res.missing.len(), 10);
        for i in 0..10 {
            assert!(res.missing.contains(&key(i)), "lost key {i} not decoded");
        }
        assert!(res.extra.is_empty());
    }

    #[test]
    fn decodes_bidirectional_difference() {
        let mut a = Iblt::new(64, 3, 3);
        let mut b = Iblt::new(64, 3, 3);
        a.insert(&key(1));
        a.insert(&key(2));
        b.insert(&key(2));
        b.insert(&key(3));
        a.subtract(&b);
        let res = a.decode();
        assert!(res.complete);
        assert_eq!(res.missing, vec![key(1)]);
        assert_eq!(res.extra, vec![key(3)]);
    }

    #[test]
    fn overloaded_table_reports_incomplete() {
        let mut t = Iblt::new(16, 3, 4);
        for i in 0..500 {
            t.insert(&key(i));
        }
        let res = t.decode();
        assert!(
            !res.complete,
            "decoding 500 keys from 16 cells cannot complete"
        );
    }

    #[test]
    fn duplicate_insertions_decode_with_multiplicity_parity() {
        // Two inserts of the same key leave count=2 cells, which cannot
        // peel — the digest correctly refuses to invent keys.
        let mut t = Iblt::new(32, 3, 5);
        t.insert(&key(1));
        t.insert(&key(1));
        let res = t.decode();
        assert!(!res.complete);
        assert!(res.missing.is_empty());
    }

    #[test]
    fn reset_clears() {
        let mut t = Iblt::new(32, 3, 6);
        t.insert(&key(1));
        t.reset();
        assert!(t.is_empty());
    }

    #[test]
    fn raw_iblt_decodes_packet_ids() {
        let mut up = RawIblt::new(256, 3, 7);
        let mut down = RawIblt::new(256, 3, 7);
        // 500 packets, ids = flow<<32 | seq; 7 lost.
        for flow in 0..50u128 {
            for seq in 0..10u128 {
                let id = (flow << 32) | seq;
                up.insert(id);
                if !(flow == 3 && seq < 7) {
                    down.insert(id);
                }
            }
        }
        up.subtract(&down);
        let (missing, extra, complete) = up.decode();
        assert!(complete);
        assert!(extra.is_empty());
        assert_eq!(missing.len(), 7);
        assert!(missing.iter().all(|id| id >> 32 == 3));
    }

    #[test]
    fn raw_iblt_cancels_and_resets() {
        let mut t = RawIblt::new(64, 3, 8);
        for id in 0..100u128 {
            t.insert(id * 77);
        }
        for id in 0..100u128 {
            t.delete(id * 77);
        }
        assert!(t.is_empty());
        t.insert(5);
        t.reset();
        assert!(t.is_empty());
    }
}
