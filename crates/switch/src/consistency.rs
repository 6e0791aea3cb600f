//! The lightweight sub-window consistency model (§5).
//!
//! Without a global clock, switches reside in different sub-windows and
//! the same packet can be measured in different windows at different
//! hops, which makes network-wide results (e.g. loss inference)
//! uninterpretable. OmniWindow borrows Lamport timestamps: the *first*
//! switch on a packet's path decides the packet's sub-window, embeds it
//! in the custom header, and every later switch (a) monitors the packet
//! in the embedded sub-window and (b) fast-forwards its own sub-window if
//! the embedded one is newer.
//!
//! Out-of-order packets (embedded sub-window *older* than the switch's
//! current one) are monitored into the preserved previous sub-window if
//! it is still within the preservation horizon, and forwarded to the
//! controller as latency spikes otherwise.

use ow_common::packet::Packet;
use ow_common::time::Instant;

use crate::signal::{SignalEngine, Termination};

/// Where the consistency model says a packet must be recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Record in this sub-window's region.
    SubWindow(u32),
    /// The embedded sub-window is older than the preservation horizon —
    /// a latency spike; the copy goes to the controller (§5).
    LatencySpike {
        /// The stale sub-window the packet claims.
        embedded: u32,
    },
}

/// Per-switch consistency state.
#[derive(Debug, Clone)]
pub struct ConsistencyModel {
    /// Whether this switch is an ingress (first-hop) switch that stamps
    /// packets, or a transit switch that honours embedded stamps.
    first_hop: bool,
    /// How many terminated sub-windows stay available for out-of-order
    /// packets ("OmniWindow preserves each sub-window for a certain
    /// time"; in a data-centre network 1 suffices).
    preserve: u32,
}

/// The outcome of passing one packet through the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsistencyOutcome {
    /// Where to record the packet.
    pub placement: Placement,
    /// A termination produced by fast-forwarding, if the embedded
    /// sub-window moved this switch forward (Figure 4, packet D).
    pub fast_forwarded: Option<Termination>,
}

impl ConsistencyModel {
    /// Create a model for a first-hop or transit switch, preserving
    /// `preserve` terminated sub-windows for stragglers.
    pub fn new(first_hop: bool, preserve: u32) -> ConsistencyModel {
        ConsistencyModel {
            first_hop,
            preserve,
        }
    }

    /// Process a packet: stamp it (first hop) or adopt its stamp
    /// (transit), mutating `pkt.ow.subwindow` and possibly fast-
    /// forwarding `signals`.
    #[inline]
    pub fn place(
        &self,
        pkt: &mut Packet,
        signals: &mut SignalEngine,
        now: Instant,
    ) -> ConsistencyOutcome {
        if self.first_hop {
            // The first hop determines the sub-window once, from its own
            // signal engine, and embeds it.
            let sw = signals.current();
            pkt.ow.subwindow = sw;
            ConsistencyOutcome {
                placement: Placement::SubWindow(sw),
                fast_forwarded: None,
            }
        } else {
            let embedded = pkt.ow.subwindow;
            let current = signals.current();
            if embedded > current {
                // Newer stamp: monitor there and fast-forward local state.
                let t = signals.fast_forward(embedded, now);
                ConsistencyOutcome {
                    placement: Placement::SubWindow(embedded),
                    fast_forwarded: t,
                }
            } else if current - embedded <= self.preserve {
                // Within the preservation horizon (current sub-window or a
                // recently terminated one still held in memory).
                ConsistencyOutcome {
                    placement: Placement::SubWindow(embedded),
                    fast_forwarded: None,
                }
            } else {
                ConsistencyOutcome {
                    placement: Placement::LatencySpike { embedded },
                    fast_forwarded: None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::WindowSignal;
    use ow_common::packet::TcpFlags;
    use ow_common::time::Duration;

    fn pkt_at(ms: u64) -> Packet {
        Packet::tcp(Instant::from_millis(ms), 1, 2, 3, 4, TcpFlags::ack(), 64)
    }

    fn engine() -> SignalEngine {
        SignalEngine::new(WindowSignal::Timeout(Duration::from_millis(100)))
    }

    #[test]
    fn first_hop_stamps_current_subwindow() {
        let cm = ConsistencyModel::new(true, 1);
        let mut sig = engine();
        // Move the first-hop switch into sub-window 2.
        sig.on_packet(&pkt_at(250));
        let mut p = pkt_at(260);
        let ts = p.ts;
        let out = cm.place(&mut p, &mut sig, ts);
        assert_eq!(out.placement, Placement::SubWindow(2));
        assert_eq!(p.ow.subwindow, 2);
    }

    #[test]
    fn transit_honours_embedded_stamp() {
        // Figure 4, packet B: switch k is in sub-window 2, packet stamped 1.
        let cm = ConsistencyModel::new(false, 1);
        let mut sig = engine();
        sig.fast_forward(2, Instant::from_millis(250));
        let mut p = pkt_at(260);
        p.ow.subwindow = 1;
        let ts = p.ts;
        let out = cm.place(&mut p, &mut sig, ts);
        assert_eq!(out.placement, Placement::SubWindow(1));
        assert!(out.fast_forwarded.is_none());
        assert_eq!(sig.current(), 2);
    }

    #[test]
    fn transit_fast_forwards_on_newer_stamp() {
        // Figure 4, packet D: stamped 3, switch k still in 2.
        let cm = ConsistencyModel::new(false, 1);
        let mut sig = engine();
        sig.fast_forward(2, Instant::from_millis(250));
        let mut p = pkt_at(260);
        p.ow.subwindow = 3;
        let ts = p.ts;
        let out = cm.place(&mut p, &mut sig, ts);
        assert_eq!(out.placement, Placement::SubWindow(3));
        let t = out.fast_forwarded.expect("fast-forward fires");
        assert_eq!((t.ended, t.next), (2, 3));
        assert_eq!(sig.current(), 3);
    }

    #[test]
    fn too_old_stamp_is_latency_spike() {
        let cm = ConsistencyModel::new(false, 1);
        let mut sig = engine();
        sig.fast_forward(5, Instant::from_millis(550));
        let mut p = pkt_at(560);
        p.ow.subwindow = 2; // three behind, horizon is 1
        let ts = p.ts;
        let out = cm.place(&mut p, &mut sig, ts);
        assert_eq!(out.placement, Placement::LatencySpike { embedded: 2 });
    }

    #[test]
    fn preservation_horizon_is_configurable() {
        let cm = ConsistencyModel::new(false, 3);
        let mut sig = engine();
        sig.fast_forward(5, Instant::from_millis(550));
        let mut p = pkt_at(560);
        p.ow.subwindow = 2;
        let ts = p.ts;
        let out = cm.place(&mut p, &mut sig, ts);
        assert_eq!(out.placement, Placement::SubWindow(2));
    }
}
