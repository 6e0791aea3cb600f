//! The packet model, including the OmniWindow custom header.
//!
//! The paper's prototype places a custom header between Ethernet and IP
//! carrying the sub-window number and a collection/reset flag (§8
//! *Switch*). [`OwHeader`] models that header, and [`Packet`] models the
//! parsed representation a pipeline stage works on. The flow key and value
//! of a generated AFR travel only on its report clone, so they ride beside
//! the clone in `ow_switch::collect::PassResult::Report`, not in every
//! packet's header.

use serde::Serialize;

use crate::flowkey::{FlowKey, KeyKind};
use crate::time::Instant;

/// TCP flag bits carried in the packet model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash, Serialize)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN bit.
    pub const FIN: u8 = 0x01;
    /// SYN bit.
    pub const SYN: u8 = 0x02;
    /// ACK bit.
    pub const ACK: u8 = 0x10;

    /// A pure SYN (connection initiation).
    pub const fn syn() -> TcpFlags {
        TcpFlags(Self::SYN)
    }

    /// A pure ACK.
    pub const fn ack() -> TcpFlags {
        TcpFlags(Self::ACK)
    }

    /// A FIN+ACK (orderly teardown).
    pub const fn fin_ack() -> TcpFlags {
        TcpFlags(Self::FIN | Self::ACK)
    }

    /// Whether the SYN bit is set and ACK is clear (a new connection attempt).
    pub const fn is_pure_syn(self) -> bool {
        self.0 & (Self::SYN | Self::ACK) == Self::SYN
    }

    /// Whether the FIN bit is set.
    pub const fn has_fin(self) -> bool {
        self.0 & Self::FIN != 0
    }
}

/// The role of a packet with respect to the OmniWindow machinery.
///
/// Mirrors the `flag` field of the custom header: normal traffic, the
/// special collection packets injected by the controller (Algorithm 2),
/// the clear packets they are converted into for in-switch reset (§4.3),
/// the trigger clone sent to the controller when a sub-window terminates,
/// and controller-injected flowkey packets for control-plane collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
#[repr(u8)]
pub enum OwFlag {
    /// Ordinary forwarded traffic.
    Normal = 0,
    /// Special collection packet enumerating `fk_buffer` (Algorithm 2).
    Collection = 1,
    /// Clear packet resetting the terminated sub-window's region (§4.3).
    Reset = 2,
    /// Clone of the packet that triggered sub-window termination, sent to
    /// the controller to announce the termination (Figure 3).
    Trigger = 3,
    /// Controller-injected packet carrying a flowkey to query (CPC path).
    InjectKey = 4,
    /// Cloned packet carrying one generated AFR back to the controller.
    AfrReport = 5,
}

/// The OmniWindow custom header (paper §8), placed between Ethernet and IP.
///
/// Fields: the sub-window number the first-hop switch stamped on the packet
/// (the Lamport-style consistency model of §5), the packet's role flag,
/// and a sequence id the reliability mechanism (§8 *Reliability of AFRs*)
/// uses to detect losses. An `InjectKey` packet's key is its own
/// five-tuple; an `AfrReport` clone's key and value ride beside it in
/// `PassResult::Report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct OwHeader {
    /// Sub-window number stamped by the first-hop switch.
    pub subwindow: u32,
    /// Role of the packet.
    pub flag: OwFlag,
    /// Sequence id for AFR-loss detection and retransmission.
    pub seq: u32,
}

impl OwHeader {
    /// A fresh header for normal traffic, not yet stamped with a sub-window.
    pub(crate) fn normal() -> OwHeader {
        OwHeader {
            subwindow: 0,
            flag: OwFlag::Normal,
            seq: 0,
        }
    }
}

/// A parsed packet as seen by a pipeline stage.
///
/// `Copy` and heap-free: the simulator replays millions of packets per
/// experiment, so a packet is a fixed-size value. Application payload is
/// represented only by its length (`wire_len`) — telemetry never reads
/// payload bytes. The OW header carries the sub-window, flag and seq
/// only, which keeps a packet at 40 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Packet {
    /// Arrival timestamp at the current hop (virtual time).
    pub ts: Instant,
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol (6 = TCP, 17 = UDP).
    pub proto: u8,
    /// TCP flags (zero for non-TCP).
    pub tcp_flags: TcpFlags,
    /// Total on-wire length in bytes (header + payload).
    pub wire_len: u16,
    /// The OmniWindow custom header.
    pub ow: OwHeader,
    /// Application-embedded window boundary tag (user-defined signals, §5):
    /// e.g. the training-iteration number in the DML case study (Exp#3).
    pub app_tag: u32,
}

// A trace holds millions of packets: a field that regrows one fails the build.
const _: () = assert!(std::mem::size_of::<Packet>() == 40);

/// IP protocol number for TCP.
pub const PROTO_TCP: u8 = 6;
/// IP protocol number for UDP.
pub const PROTO_UDP: u8 = 17;

impl Packet {
    /// Construct a plain TCP data packet.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        ts: Instant,
        src_ip: u32,
        dst_ip: u32,
        src_port: u16,
        dst_port: u16,
        flags: TcpFlags,
        wire_len: u16,
    ) -> Packet {
        Packet {
            ts,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: PROTO_TCP,
            tcp_flags: flags,
            wire_len,
            ow: OwHeader::normal(),
            app_tag: 0,
        }
    }

    /// Construct a plain UDP packet.
    pub fn udp(
        ts: Instant,
        src_ip: u32,
        dst_ip: u32,
        src_port: u16,
        dst_port: u16,
        wire_len: u16,
    ) -> Packet {
        Packet {
            ts,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: PROTO_UDP,
            tcp_flags: TcpFlags::default(),
            wire_len,
            ow: OwHeader::normal(),
            app_tag: 0,
        }
    }

    /// The packet's flow key under the given projection.
    #[inline]
    pub fn key(&self, kind: KeyKind) -> FlowKey {
        FlowKey::of_packet(self, kind)
    }

    /// The full five-tuple key.
    pub fn five_tuple(&self) -> FlowKey {
        self.key(KeyKind::FiveTuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_flag_predicates() {
        assert!(TcpFlags::syn().is_pure_syn());
        assert!(!TcpFlags(TcpFlags::SYN | TcpFlags::ACK).is_pure_syn());
        assert!(TcpFlags::fin_ack().has_fin());
        assert!(!TcpFlags::ack().has_fin());
    }

    #[test]
    fn packet_key_projections_agree() {
        let p = Packet::tcp(Instant::ZERO, 1, 2, 3, 4, TcpFlags::syn(), 64);
        assert_eq!(p.key(KeyKind::SrcIp), FlowKey::src_ip(1));
        assert_eq!(p.key(KeyKind::DstIp), FlowKey::dst_ip(2));
        assert_eq!(p.five_tuple(), FlowKey::five_tuple(1, 2, 3, 4, 6));
    }
}
