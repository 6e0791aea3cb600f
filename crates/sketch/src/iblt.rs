//! Invertible Bloom Lookup Table — the digest behind LossRadar (Li et
//! al., CoNEXT'16), used in the consistency experiment (Exp#9).
//!
//! The table holds raw 128-bit identifiers, validated only by checksum:
//! LossRadar digests *packets* (flow key ⊕ per-packet sequence), not
//! flows. Each of `k` hash functions maps an identifier to one cell; a
//! cell keeps `(count, key_xor, check_xor)`. Inserting upstream and
//! deleting downstream leaves a digest of exactly the lost packets,
//! which peels: a cell with `count == ±1` and a consistent checksum
//! exposes one identifier, which is then removed from its other cells,
//! usually cascading until the digest is empty.

use ow_common::hash::{HashFamily, HashFn};

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    count: i64,
    key_xor: u128,
    check_xor: u64,
}

/// An invertible Bloom lookup table over 128-bit identifiers.
#[derive(Debug, Clone)]
pub struct Iblt {
    cells: Vec<Cell>,
    hashes: HashFamily,
    check: HashFn,
}

impl Iblt {
    /// Create a table with `ncells` cells and `k` hash functions.
    ///
    /// Decoding succeeds w.h.p. when the number of differing identifiers
    /// is below roughly `ncells / 1.3` (for `k = 3`).
    ///
    /// # Panics
    /// Panics if `ncells == 0` or `k == 0`.
    pub fn new(ncells: usize, k: usize, seed: u64) -> Iblt {
        assert!(ncells > 0 && k > 0, "IBLT dimensions must be positive");
        Iblt {
            cells: vec![Cell::default(); ncells],
            hashes: HashFamily::new(seed ^ 0x7A41, k),
            check: HashFn::new(seed ^ 0xC4ED, 0),
        }
    }

    fn indices(&self, id: u128) -> Vec<usize> {
        // Distinct cells per hash: partition the table into k sub-ranges
        // so an identifier never hits the same cell twice (standard IBLT
        // practice).
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
    pub fn subtract(&mut self, other: &Iblt) {
        assert_eq!(self.cells.len(), other.cells.len(), "size mismatch");
        for (a, b) in self.cells.iter_mut().zip(other.cells.iter()) {
            a.count -= b.count;
            a.key_xor ^= b.key_xor;
            a.check_xor ^= b.check_xor;
        }
    }

    /// Peel, returning `(missing, extra, complete)`: identifiers only on
    /// the inserted side, only on the deleted side (both ascending), and
    /// whether the table emptied. Peeling consumes the table; clone first
    /// if the digest is still needed.
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
    #[cfg(test)]
    pub(crate) fn reset(&mut self) {
        self.cells.fill(Cell::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_delete_cancels() {
        let mut t = Iblt::new(64, 3, 1);
        for i in 0..100u128 {
            t.insert(i << 64 | i);
        }
        for i in (0..100u128).rev() {
            t.delete(i << 64 | i);
        }
        assert!(t.is_empty());
    }

    #[test]
    fn decodes_small_difference() {
        let mut up = Iblt::new(128, 3, 2);
        let mut down = Iblt::new(128, 3, 2);
        // 1000 packets upstream, 10 lost before downstream.
        for i in 0..1000u128 {
            up.insert(i);
            if i >= 10 {
                down.insert(i);
            }
        }
        up.subtract(&down);
        let (missing, extra, complete) = up.decode();
        assert!(complete, "peeling did not complete");
        assert_eq!(missing, (0..10).collect::<Vec<u128>>());
        assert!(extra.is_empty());
    }

    #[test]
    fn decodes_bidirectional_difference() {
        let mut a = Iblt::new(64, 3, 3);
        let mut b = Iblt::new(64, 3, 3);
        a.insert(1);
        a.insert(2);
        b.insert(2);
        b.insert(3);
        a.subtract(&b);
        let (missing, extra, complete) = a.decode();
        assert!(complete);
        assert_eq!(missing, vec![1]);
        assert_eq!(extra, vec![3]);
    }

    #[test]
    fn overloaded_table_reports_incomplete() {
        let mut t = Iblt::new(16, 3, 4);
        for i in 0..500u128 {
            t.insert(i);
        }
        let (_, _, complete) = t.decode();
        assert!(!complete, "decoding 500 ids from 16 cells cannot complete");
    }

    #[test]
    fn duplicate_insertions_decode_with_multiplicity_parity() {
        // Two inserts of the same id leave count=2 cells, which cannot
        // peel — the digest correctly refuses to invent ids.
        let mut t = Iblt::new(32, 3, 5);
        t.insert(1);
        t.insert(1);
        let (missing, _, complete) = t.decode();
        assert!(!complete);
        assert!(missing.is_empty());
    }

    #[test]
    fn reset_clears() {
        let mut t = Iblt::new(32, 3, 6);
        t.insert(1);
        t.reset();
        assert!(t.is_empty());
    }

    #[test]
    fn raw_iblt_decodes_packet_ids() {
        let mut up = Iblt::new(256, 3, 7);
        let mut down = Iblt::new(256, 3, 7);
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
        let mut t = Iblt::new(64, 3, 8);
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
