//! The data-plane application abstraction.
//!
//! OmniWindow is a *framework*: it wraps an existing telemetry program
//! (a sketch, a Sonata query's register program, …) with window
//! management. [`DataPlaneApp`] is the contract that program must meet —
//! exactly the feasibility requirements of §4.1: a declared flowkey
//! definition and support for data-plane flow query.

use ow_common::afr::AttrValue;
use ow_common::flowkey::{FlowKey, KeyKind};
use ow_common::packet::Packet;
use ow_sketch::traits::SketchMeta;

/// A telemetry application's per-sub-window state, as deployed in one
/// memory region of the data plane.
pub trait DataPlaneApp {
    /// The flowkey definition the application declares (§4.1).
    fn key_kind(&self) -> KeyKind;

    /// Process one packet (the normal measurement path).
    fn update(&mut self, pkt: &Packet) {
        let key = pkt.key(self.key_kind());
        self.update_keyed(pkt, &key);
    }

    /// [`DataPlaneApp::update`] with the packet's key under
    /// [`DataPlaneApp::key_kind`] already built — the switch builds it
    /// once for the application and the flowkey tracker.
    fn update_keyed(&mut self, pkt: &Packet, key: &FlowKey);

    /// Data-plane flow query: the statistic recorded for `key`, used to
    /// generate this flow's AFR when the sub-window terminates.
    fn query(&self, key: &FlowKey) -> AttrValue;

    /// Keys the structure itself stores (heavy keys in MV-Sketch /
    /// HashPipe / Elastic-style structures). Applications that keep no
    /// keys (Count-Min, Sonata reduce tables) return an empty vector and
    /// rely entirely on OmniWindow's flowkey tracking.
    fn self_tracked_keys(&self) -> Vec<FlowKey> {
        Vec::new()
    }

    /// Reset all state (what the clear packets do cell-by-cell).
    fn reset(&mut self);

    /// Resource footprint of one instance. Its `cells_per_array` is how
    /// many recirculation passes a full in-switch reset needs (§4.3).
    fn meta(&self) -> SketchMeta;
}

/// Blanket adapter: a frequency sketch keyed on `kind`, counting packets
/// (`weight = 1`) or bytes (`weight = wire_len`).
#[derive(Debug, Clone)]
pub struct FrequencyApp<S> {
    sketch: S,
    kind: KeyKind,
    count_bytes: bool,
}

impl<S: ow_sketch::traits::FrequencySketch> FrequencyApp<S> {
    /// Wrap `sketch`, keying on `kind`; `count_bytes` selects byte counts
    /// over packet counts.
    pub fn new(sketch: S, kind: KeyKind, count_bytes: bool) -> Self {
        FrequencyApp {
            sketch,
            kind,
            count_bytes,
        }
    }
}

impl<S: ow_sketch::traits::FrequencySketch> DataPlaneApp for FrequencyApp<S> {
    fn key_kind(&self) -> KeyKind {
        self.kind
    }

    #[inline]
    fn update_keyed(&mut self, pkt: &Packet, key: &FlowKey) {
        let w = if self.count_bytes {
            pkt.wire_len as u64
        } else {
            1
        };
        self.sketch.update(key, w);
    }

    fn query(&self, key: &FlowKey) -> AttrValue {
        AttrValue::Frequency(self.sketch.query(key))
    }

    fn self_tracked_keys(&self) -> Vec<FlowKey> {
        self.sketch.resident_keys()
    }

    fn reset(&mut self) {
        self.sketch.reset();
    }

    fn meta(&self) -> SketchMeta {
        self.sketch.meta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::packet::TcpFlags;
    use ow_common::time::Instant;
    use ow_sketch::CountMin;

    fn pkt(src: u32, len: u16) -> Packet {
        Packet::tcp(Instant::ZERO, src, 99, 1, 80, TcpFlags::ack(), len)
    }

    #[test]
    fn frequency_app_counts_packets() {
        let mut app = FrequencyApp::new(CountMin::new(2, 1024, 1), KeyKind::SrcIp, false);
        for _ in 0..5 {
            app.update(&pkt(7, 100));
        }
        assert_eq!(app.query(&FlowKey::src_ip(7)), AttrValue::Frequency(5));
    }

    #[test]
    fn frequency_app_counts_bytes() {
        let mut app = FrequencyApp::new(CountMin::new(2, 1024, 2), KeyKind::SrcIp, true);
        app.update(&pkt(7, 100));
        app.update(&pkt(7, 150));
        assert_eq!(app.query(&FlowKey::src_ip(7)), AttrValue::Frequency(250));
    }

    #[test]
    fn reset_clears_state() {
        let mut app = FrequencyApp::new(CountMin::new(2, 64, 3), KeyKind::SrcIp, false);
        app.update(&pkt(1, 64));
        app.reset();
        assert_eq!(app.query(&FlowKey::src_ip(1)), AttrValue::Frequency(0));
    }

    #[test]
    fn cells_per_array_matches_width() {
        let app = FrequencyApp::new(CountMin::new(4, 4096, 4), KeyKind::FiveTuple, false);
        assert_eq!(app.meta().cells_per_array, 4096);
    }
}
