//! FlowRadar (Li et al., NSDI'16) — the paper's §8 example of a
//! telemetry structure that cannot answer data-plane flow queries.
//!
//! FlowRadar encodes *all* flows and their packet counts into a counting
//! table of XOR cells; per-flow statistics only exist after a decode
//! step on the controller. OmniWindow therefore cannot generate AFRs in
//! the switch for it — instead it migrates the whole (small) state per
//! sub-window and the controller decodes each state into AFRs before
//! merging ("Merging intermediate data without AFRs").
//!
//! Structure: a flow filter (Bloom) plus `k`-cell encoding; each cell is
//! `{flow_xor, flow_count, packet_count}`. Decoding peels cells with
//! `flow_count == 1`, whose `packet_count` is exactly that flow's count.

use ow_common::flowkey::{sort_by_packed_key, FlowKey};
use ow_common::hash::{HashFamily, HashFn};

use crate::bloom::BloomFilter;
use crate::traits::SketchMeta;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    flow_xor: u128,
    check_xor: u64,
    flow_count: u32,
    packet_count: u64,
}

/// A FlowRadar instance: flow filter + counting table.
#[derive(Debug, Clone)]
pub struct FlowRadar {
    filter: BloomFilter,
    cells: Vec<Cell>,
    hashes: HashFamily,
    check: HashFn,
}

/// Outcome of decoding a FlowRadar state.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRadarDecode {
    /// Recovered `(flow, packet count)` pairs.
    pub flows: Vec<(FlowKey, u64)>,
    /// Whether peeling emptied the table (all flows recovered).
    pub complete: bool,
}

impl FlowRadar {
    /// Create an instance with `ncells` counting cells and `k` hashes,
    /// sized for roughly `expected_flows` flows.
    ///
    /// # Panics
    /// Panics if `ncells == 0` or `k == 0`.
    pub fn new(ncells: usize, k: usize, expected_flows: usize, seed: u64) -> FlowRadar {
        assert!(ncells > 0 && k > 0, "FlowRadar dimensions must be positive");
        FlowRadar {
            filter: BloomFilter::for_capacity(expected_flows.max(64), seed ^ 0xF10),
            cells: vec![Cell::default(); ncells],
            hashes: HashFamily::new(seed ^ 0xF1A0, k),
            check: HashFn::new(seed ^ 0xF1AC, 0),
        }
    }

    // Separate `HashFn`s, not one `KeyDigest`: peeling needs two flows
    // that share a cell to part ways in their other cells.
    fn indices(&self, key: &FlowKey) -> Vec<usize> {
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

    /// Record one packet of `key`.
    pub fn update(&mut self, key: &FlowKey) {
        let is_new = !self.filter.check_and_insert(key);
        let check = self.check.hash_key(key);
        for idx in self.indices(key) {
            let c = &mut self.cells[idx];
            if is_new {
                c.flow_xor ^= key.as_u128();
                c.check_xor ^= check;
                c.flow_count += 1;
            }
            c.packet_count += 1;
        }
    }

    /// Decode the state into per-flow packet counts (the controller-side
    /// step of §8). Consumes the cells; clone first to keep the state.
    pub fn decode(&mut self) -> FlowRadarDecode {
        let mut flows = Vec::new();
        loop {
            let mut progressed = false;
            for i in 0..self.cells.len() {
                let cell = self.cells[i];
                if cell.flow_count != 1 {
                    continue;
                }
                let Some(key) = unpack_key(cell.flow_xor) else {
                    continue;
                };
                if self.check.hash_key(&key) != cell.check_xor {
                    continue;
                }
                let count = cell.packet_count;
                let check = cell.check_xor;
                for idx in self.indices(&key) {
                    let c = &mut self.cells[idx];
                    c.flow_xor ^= key.as_u128();
                    c.check_xor ^= check;
                    c.flow_count -= 1;
                    c.packet_count = c.packet_count.saturating_sub(count);
                }
                flows.push((key, count));
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        let complete = self.cells.iter().all(|c| c.flow_count == 0);
        sort_by_packed_key(&mut flows, |(k, _)| *k);
        FlowRadarDecode { flows, complete }
    }

    /// Clear the state (the in-switch reset target).
    pub fn reset(&mut self) {
        self.filter.reset();
        self.cells.fill(Cell::default());
    }

    /// Resource footprint.
    pub fn meta(&self) -> SketchMeta {
        SketchMeta {
            name: "FlowRadar",
            memory_bytes: self.filter.meta().memory_bytes + self.cells.len() * 32,
            register_arrays: 4, // filter + flow_xor + flow_count + packet_count
            salus_per_packet: self.filter.meta().salus_per_packet + self.hashes.len() * 3,
            hash_units: self.filter.meta().hash_units + self.hashes.len(),
        }
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
    if key.as_u128() == packed {
        Some(key)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> FlowKey {
        FlowKey::five_tuple(i + 1, !i, (i % 50_000) as u16, 80, 6)
    }

    #[test]
    fn decodes_all_flows_with_exact_counts() {
        let mut fr = FlowRadar::new(1024, 3, 512, 1);
        for i in 0..300u32 {
            for _ in 0..(i % 5 + 1) {
                fr.update(&key(i));
            }
        }
        let dec = fr.decode();
        assert!(dec.complete, "peeling must complete below capacity");
        assert_eq!(dec.flows.len(), 300);
        for (k, c) in &dec.flows {
            let i = (0..300u32).find(|&i| key(i) == *k).expect("known flow");
            assert_eq!(*c, (i % 5 + 1) as u64, "count for flow {i}");
        }
    }

    #[test]
    fn overload_reports_incomplete() {
        let mut fr = FlowRadar::new(64, 3, 64, 2);
        for i in 0..500u32 {
            fr.update(&key(i));
        }
        let dec = fr.decode();
        assert!(!dec.complete);
        // Whatever decoded is still correct.
        for (k, c) in &dec.flows {
            let i = (0..500u32).find(|&i| key(i) == *k).expect("known flow");
            let _ = i;
            assert_eq!(*c, 1);
        }
    }

    #[test]
    fn repeated_packets_count_once_per_flow() {
        let mut fr = FlowRadar::new(256, 3, 64, 3);
        for _ in 0..57 {
            fr.update(&key(1));
        }
        let dec = fr.decode();
        assert!(dec.complete);
        assert_eq!(dec.flows, vec![(key(1), 57)]);
    }

    #[test]
    fn reset_clears() {
        let mut fr = FlowRadar::new(128, 3, 64, 4);
        fr.update(&key(1));
        fr.reset();
        let dec = fr.decode();
        assert!(dec.complete);
        assert!(dec.flows.is_empty());
    }

    #[test]
    fn empty_decode_is_empty() {
        let mut fr = FlowRadar::new(128, 3, 64, 5);
        let dec = fr.decode();
        assert!(dec.complete);
        assert!(dec.flows.is_empty());
    }
}
