//! LossRadar (Li et al., CoNEXT'16) over OmniWindow sub-windows.
//!
//! Each meter digests every packet it forwards into the IBLT of the
//! packet's sub-window. Subtracting the downstream digest from the
//! upstream digest for the *same* sub-window leaves exactly the packets
//! lost in between — if and only if both meters put each packet in the
//! same sub-window. Exp#9 compares two assignment policies:
//!
//! * [`WindowAssign::Embedded`] — OmniWindow's consistency model: use
//!   the sub-window stamped in the packet header (always consistent),
//! * [`WindowAssign::LocalClock`] — each switch derives the sub-window
//!   from its own (PTP-skewed) clock; packets near boundaries land in
//!   different sub-windows on the two switches and surface as phantom
//!   losses, destroying precision.

use std::collections::{HashMap, HashSet};

use ow_common::flowkey::FlowKey;
use ow_common::packet::Packet;
use ow_common::time::{Duration, Instant};
use ow_sketch::Iblt;

/// Hash functions per digest (LossRadar's `k`).
const HASHES: usize = 3;

/// How a meter decides which sub-window a packet belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowAssign {
    /// Use the sub-window embedded by the first-hop switch (OmniWindow).
    Embedded,
    /// Derive from the local clock: `local_time / subwindow_len`.
    LocalClock,
}

/// One switch's LossRadar meter.
#[derive(Debug)]
pub struct LossRadarMeter {
    assign: WindowAssign,
    subwindow_len: Duration,
    cells: usize,
    seed: u64,
    digests: HashMap<u32, Iblt>,
}

/// A packet identifier: flow key (packed) combined with the per-flow
/// sequence number — unique per packet, recoverable to a flow.
pub fn packet_id(key: &FlowKey, seq: u32) -> u128 {
    (key.as_u128() << 20) ^ seq as u128
}

impl LossRadarMeter {
    /// Create a meter with `cells`-cell digests per sub-window.
    pub fn new(
        assign: WindowAssign,
        subwindow_len: Duration,
        cells: usize,
        seed: u64,
    ) -> LossRadarMeter {
        LossRadarMeter {
            assign,
            subwindow_len,
            cells,
            seed,
            digests: HashMap::new(),
        }
    }

    fn subwindow_for(&self, pkt: &Packet, local: Instant) -> u32 {
        match self.assign {
            WindowAssign::Embedded => pkt.ow.subwindow,
            WindowAssign::LocalClock => (local.as_nanos() / self.subwindow_len.as_nanos()) as u32,
        }
    }

    /// Digest one forwarded packet. The caller passes the *same* per-flow
    /// sequence number on both switches (it is derived from the packet
    /// content in the real system).
    ///
    /// Returns the sub-window the packet was digested into.
    pub fn digest(&mut self, pkt: &Packet, local: Instant, seq: u32) -> u32 {
        let sw = self.subwindow_for(pkt, local);
        let id = packet_id(&pkt.five_tuple(), seq);
        let (cells, seed) = (self.cells, self.seed);
        self.digests
            .entry(sw)
            .or_insert_with(|| Iblt::new(cells, HASHES, seed))
            .insert(id);
        sw
    }

    /// The sub-windows this meter has digests for.
    pub fn subwindows(&self) -> Vec<u32> {
        let mut s: Vec<u32> = self.digests.keys().copied().collect();
        s.sort_unstable();
        s
    }

    /// Take (remove) the digest of one sub-window.
    pub(crate) fn take_digest(&mut self, sw: u32) -> Option<Iblt> {
        self.digests.remove(&sw)
    }
}

/// Decode the loss report between an upstream and a downstream meter:
/// for every sub-window either side digested, subtract and peel. Returns
/// the set of packet ids reported lost (upstream-only) — phantom entries
/// appear when the two meters disagreed on a packet's sub-window.
pub fn loss_report(mut upstream: LossRadarMeter, mut downstream: LossRadarMeter) -> HashSet<u128> {
    let mut subwindows: HashSet<u32> = upstream.subwindows().into_iter().collect();
    subwindows.extend(downstream.subwindows());
    let mut lost = HashSet::new();
    let mut sws: Vec<u32> = subwindows.into_iter().collect();
    sws.sort_unstable();
    for sw in sws {
        let up = upstream.take_digest(sw);
        let down = downstream.take_digest(sw);
        match (up, down) {
            (Some(mut u), Some(d)) => {
                u.subtract(&d);
                let (missing, _extra, _complete) = u.decode();
                lost.extend(missing);
            }
            (Some(mut u), None) => {
                let (missing, _, _) = u.decode();
                lost.extend(missing);
            }
            (None, Some(_)) => { /* downstream-only digests are extras */ }
            (None, None) => {}
        }
    }
    lost
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::packet::TcpFlags;

    fn pkt(flow: u32, us: u64, sw: u32) -> Packet {
        let mut p = Packet::tcp(
            Instant::from_micros(us),
            flow,
            999,
            1000,
            80,
            TcpFlags::ack(),
            64,
        );
        p.ow.subwindow = sw;
        p
    }

    #[test]
    fn no_loss_no_report_when_consistent() {
        let swlen = Duration::from_millis(100);
        let mut up = LossRadarMeter::new(WindowAssign::Embedded, swlen, 512, 1);
        let mut down = LossRadarMeter::new(WindowAssign::Embedded, swlen, 512, 1);
        for i in 0..200u32 {
            let p = pkt(i % 20, i as u64 * 50, i / 100);
            up.digest(&p, p.ts, i / 20);
            down.digest(&p, p.ts, i / 20);
        }
        assert!(loss_report(up, down).is_empty());
    }

    #[test]
    fn real_losses_are_reported() {
        let swlen = Duration::from_millis(100);
        let mut up = LossRadarMeter::new(WindowAssign::Embedded, swlen, 512, 2);
        let mut down = LossRadarMeter::new(WindowAssign::Embedded, swlen, 512, 2);
        for i in 0..100u32 {
            let p = pkt(i % 10, i as u64 * 50, 0);
            up.digest(&p, p.ts, i / 10);
            // Drop flow 3's packets.
            if i % 10 != 3 {
                down.digest(&p, p.ts, i / 10);
            }
        }
        let lost = loss_report(up, down);
        assert_eq!(lost.len(), 10);
        // All reported ids belong to flow 3's key.
        let key3 = FlowKey::five_tuple(3, 999, 1000, 80, 6);
        for id in &lost {
            // seq ranges 0..10
            let matched = (0..10u32).any(|s| packet_id(&key3, s) == *id);
            assert!(matched, "phantom id {id:x}");
        }
    }

    #[test]
    fn clock_skew_creates_phantom_losses() {
        // Same traffic, no real loss, but downstream's local clock is
        // skewed: boundary packets land in different sub-windows and show
        // up as losses — the Exp#9 failure mode.
        let swlen = Duration::from_millis(1);
        let mut up = LossRadarMeter::new(WindowAssign::LocalClock, swlen, 2048, 3);
        let mut down = LossRadarMeter::new(WindowAssign::LocalClock, swlen, 2048, 3);
        let skew = Duration::from_micros(200);
        for i in 0..2000u32 {
            let p = pkt(i % 50, i as u64 * 5, 0);
            up.digest(&p, p.ts, i / 50);
            down.digest(&p, p.ts + skew, i / 50);
        }
        let lost = loss_report(up, down);
        assert!(
            !lost.is_empty(),
            "200µs skew across 1ms sub-windows must create phantom losses"
        );
    }

    #[test]
    fn embedded_assignment_immune_to_skew() {
        let swlen = Duration::from_millis(1);
        let mut up = LossRadarMeter::new(WindowAssign::Embedded, swlen, 2048, 4);
        let mut down = LossRadarMeter::new(WindowAssign::Embedded, swlen, 2048, 4);
        let skew = Duration::from_micros(200);
        for i in 0..2000u32 {
            // Stamped sub-window derived once at the first hop.
            let p = pkt(i % 50, i as u64 * 5, (i as u64 * 5 / 1000) as u32);
            up.digest(&p, p.ts, i / 50);
            down.digest(&p, p.ts + skew, i / 50);
        }
        assert!(loss_report(up, down).is_empty());
    }
}
