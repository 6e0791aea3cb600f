//! Common traits and resource metadata for all sketches.

use ow_common::flowkey::FlowKey;

/// Static resource footprint of a sketch instance, used by the switch
/// resource accountant (Exp#5) and the state-management layer (§6).
///
/// `salus_per_packet` counts the Stateful-ALU accesses one packet incurs
/// in a *single* region — the paper's flattened two-region layout (§6)
/// keeps this number unchanged when a second region is added, whereas the
/// naive layout doubles it; the accountant models both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchMeta {
    /// Human-readable structure name.
    pub name: &'static str,
    /// Total memory in bytes for one instance (one region).
    pub memory_bytes: usize,
    /// Distinct register arrays (on-chip memory blocks).
    pub register_arrays: usize,
    /// SALU accesses per packet per region.
    pub salus_per_packet: usize,
    /// Hash units consumed per packet.
    pub hash_units: usize,
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
