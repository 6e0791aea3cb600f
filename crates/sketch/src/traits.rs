//! Common traits and resource metadata for all sketches.

use ow_common::flowkey::FlowKey;

/// Static resource footprint of a sketch instance, as the RMT hardware
/// lays it out: `register_arrays` arrays of `cells_per_array` cells,
/// one SALU access per array per packet (C4, §2). Each field is read off
/// what the sketch allocates, and each sketch's C4 proptest views its
/// state as exactly these arrays and checks that one update changes at
/// most one cell of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchMeta {
    /// Human-readable structure name.
    pub name: &'static str,
    /// Total memory in bytes for one instance (one region).
    pub memory_bytes: usize,
    /// Distinct register arrays (on-chip memory blocks); one packet
    /// makes at most one SALU access to each.
    pub register_arrays: usize,
    /// Cells in each register array: how many passes a clear-packet
    /// sweep of one region takes (§4.3).
    pub cells_per_array: usize,
}

/// A sketch that answers per-flow frequency (count/bytes) point queries.
pub trait FrequencySketch {
    /// Add `weight` to `key`'s counter(s).
    fn update(&mut self, key: &FlowKey, weight: u64);
    /// Estimate the total weight recorded for `key`.
    fn query(&self, key: &FlowKey) -> u64;
    /// Keys the structure itself stores (its
    /// [`InvertibleSketch::candidates`]); empty for sketches that keep
    /// none. Collect-and-reset reports these even when the flowkey
    /// tracker missed them (§4.2).
    fn resident_keys(&self) -> Vec<FlowKey> {
        Vec::new()
    }
    /// Clear all state (the in-switch reset operation).
    fn reset(&mut self);
    /// Resource footprint.
    fn meta(&self) -> SketchMeta;
}

/// A sketch that stores candidate heavy keys inside the structure and can
/// enumerate them (MV-Sketch, HashPipe, SpreadSketch) — the "invertible"
/// property the paper relies on for data-plane flow query (§4.1).
pub trait InvertibleSketch {
    /// Keys currently stored in the structure's candidate slots.
    fn candidates(&self) -> Vec<FlowKey>;
}

/// A sketch that estimates per-key *spread* — the number of distinct
/// elements (e.g. destinations) observed with a key (e.g. a source).
pub trait SpreadEstimator {
    /// Record that `element` was seen with `key`.
    fn update_element(&mut self, key: &FlowKey, element: u64);
    /// Estimate the number of distinct elements recorded for `key`.
    fn spread(&self, key: &FlowKey) -> u64;
    /// Clear all state.
    fn reset(&mut self);
    /// Resource footprint.
    fn meta(&self) -> SketchMeta;
}
