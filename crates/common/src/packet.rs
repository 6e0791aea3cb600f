//! The packet model, including the OmniWindow custom header.
//!
//! The paper's prototype places a custom header between Ethernet and IP
//! carrying: the sub-window number, a collection/reset flag, and an
//! (optionally) injected flow key; the switch also appends generated AFRs
//! to this header on cloned packets (§8 *Switch*). [`OwHeader`] models that
//! header, and [`Packet`] models the parsed representation a pipeline
//! stage works on. A wire codec (for the byte-accurate header) lives in
//! [`OwHeader::encode`] / [`OwHeader::decode`] and is exercised by
//! property tests.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::error::OwError;
use crate::flowkey::{FlowKey, KeyKind};
use crate::time::Instant;

/// TCP flag bits carried in the packet model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash, Serialize, Deserialize)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN bit.
    pub const FIN: u8 = 0x01;
    /// SYN bit.
    pub const SYN: u8 = 0x02;
    /// RST bit.
    pub const RST: u8 = 0x04;
    /// PSH bit.
    pub const PSH: u8 = 0x08;
    /// ACK bit.
    pub const ACK: u8 = 0x10;

    /// A pure SYN (connection initiation).
    pub const fn syn() -> TcpFlags {
        TcpFlags(Self::SYN)
    }

    /// A SYN+ACK (connection acceptance).
    pub const fn syn_ack() -> TcpFlags {
        TcpFlags(Self::SYN | Self::ACK)
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

    /// Whether the SYN bit is set (regardless of ACK).
    pub const fn has_syn(self) -> bool {
        self.0 & Self::SYN != 0
    }

    /// Whether the ACK bit is set.
    pub const fn has_ack(self) -> bool {
        self.0 & Self::ACK != 0
    }

    /// Whether the FIN bit is set.
    pub const fn has_fin(self) -> bool {
        self.0 & Self::FIN != 0
    }

    /// Whether the RST bit is set.
    pub const fn has_rst(self) -> bool {
        self.0 & Self::RST != 0
    }
}

/// The role of a packet with respect to the OmniWindow machinery.
///
/// Mirrors the `flag` field of the custom header: normal traffic, the
/// special collection packets injected by the controller (Algorithm 2),
/// the clear packets they are converted into for in-switch reset (§4.3),
/// the trigger clone sent to the controller when a sub-window terminates,
/// and controller-injected flowkey packets for control-plane collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

impl OwFlag {
    fn from_u8(v: u8) -> Result<OwFlag, OwError> {
        Ok(match v {
            0 => OwFlag::Normal,
            1 => OwFlag::Collection,
            2 => OwFlag::Reset,
            3 => OwFlag::Trigger,
            4 => OwFlag::InjectKey,
            5 => OwFlag::AfrReport,
            other => return Err(OwError::Decode(format!("bad OwFlag {other}"))),
        })
    }
}

/// The OmniWindow custom header (paper §8), placed between Ethernet and IP.
///
/// Fields: the sub-window number the first-hop switch stamped on the packet
/// (the Lamport-style consistency model of §5), the packet's role flag,
/// the injected flow key (valid when `flag == InjectKey`), an AFR value
/// slot filled by the switch on `AfrReport` clones, and a sequence id the
/// reliability mechanism (§8 *Reliability of AFRs*) uses to detect losses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OwHeader {
    /// Sub-window number stamped by the first-hop switch.
    pub subwindow: u32,
    /// Role of the packet.
    pub flag: OwFlag,
    /// Flow key carried by `InjectKey`/`AfrReport` packets.
    pub flowkey: Option<FlowKey>,
    /// AFR attribute value appended by the switch on report clones.
    pub afr_value: u64,
    /// Sequence id for AFR-loss detection and retransmission.
    pub seq: u32,
}

impl OwHeader {
    /// A fresh header for normal traffic, not yet stamped with a sub-window.
    pub fn normal() -> OwHeader {
        OwHeader {
            subwindow: 0,
            flag: OwFlag::Normal,
            flowkey: None,
            afr_value: 0,
            seq: 0,
        }
    }

    /// Wire size in bytes of the encoded header.
    pub const WIRE_SIZE: usize = 4 + 1 + 1 + 13 + 8 + 4;

    /// Encode the header into its wire representation.
    ///
    /// Layout: `subwindow:u32 | flag:u8 | has_key:u8 |
    /// key(kind:u8, src:u32, dst:u32, sport:u16, dport:u16, proto:u8 — 14B
    /// minus the kind byte folded into has_key) | afr_value:u64 | seq:u32`.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(Self::WIRE_SIZE);
        b.put_u32(self.subwindow);
        b.put_u8(self.flag as u8);
        match self.flowkey {
            None => {
                b.put_u8(0xff);
                b.put_bytes(0, 13);
            }
            Some(k) => {
                let c = k.canonical();
                b.put_u8(match c.kind {
                    KeyKind::FiveTuple => 0,
                    KeyKind::SrcIp => 1,
                    KeyKind::DstIp => 2,
                    KeyKind::SrcDst => 3,
                });
                b.put_u32(c.src_ip);
                b.put_u32(c.dst_ip);
                b.put_u16(c.src_port);
                b.put_u16(c.dst_port);
                b.put_u8(c.proto);
            }
        }
        b.put_u64(self.afr_value);
        b.put_u32(self.seq);
        b.freeze()
    }

    /// Decode a header from its wire representation.
    pub fn decode(mut buf: impl Buf) -> Result<OwHeader, OwError> {
        if buf.remaining() < Self::WIRE_SIZE {
            return Err(OwError::Decode(format!(
                "OwHeader needs {} bytes, got {}",
                Self::WIRE_SIZE,
                buf.remaining()
            )));
        }
        let subwindow = buf.get_u32();
        let flag = OwFlag::from_u8(buf.get_u8())?;
        let kind_tag = buf.get_u8();
        let src_ip = buf.get_u32();
        let dst_ip = buf.get_u32();
        let src_port = buf.get_u16();
        let dst_port = buf.get_u16();
        let proto = buf.get_u8();
        let flowkey = match kind_tag {
            0xff => None,
            0 => Some(FlowKey::five_tuple(
                src_ip, dst_ip, src_port, dst_port, proto,
            )),
            1 => Some(FlowKey::src_ip(src_ip)),
            2 => Some(FlowKey::dst_ip(dst_ip)),
            3 => Some(
                FlowKey {
                    src_ip,
                    dst_ip,
                    src_port: 0,
                    dst_port: 0,
                    proto: 0,
                    kind: KeyKind::SrcDst,
                }
                .canonical(),
            ),
            other => return Err(OwError::Decode(format!("bad key kind tag {other}"))),
        };
        let afr_value = buf.get_u64();
        let seq = buf.get_u32();
        Ok(OwHeader {
            subwindow,
            flag,
            flowkey,
            afr_value,
            seq,
        })
    }
}

/// A parsed packet as seen by a pipeline stage.
///
/// `Copy` and heap-free: the simulator replays millions of packets per
/// experiment, so a packet is a fixed-size value. Application payload is
/// represented only by its length (`wire_len`) — telemetry never reads
/// payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    fn header_roundtrips_without_key() {
        let h = OwHeader {
            subwindow: 7,
            flag: OwFlag::Collection,
            flowkey: None,
            afr_value: 123456789,
            seq: 42,
        };
        let enc = h.encode();
        assert_eq!(enc.len(), OwHeader::WIRE_SIZE);
        assert_eq!(OwHeader::decode(enc).unwrap(), h);
    }

    #[test]
    fn header_roundtrips_with_five_tuple() {
        let h = OwHeader {
            subwindow: u32::MAX,
            flag: OwFlag::AfrReport,
            flowkey: Some(FlowKey::five_tuple(0xDEADBEEF, 0xCAFEBABE, 80, 443, 6)),
            afr_value: u64::MAX,
            seq: u32::MAX,
        };
        assert_eq!(OwHeader::decode(h.encode()).unwrap(), h);
    }

    #[test]
    fn header_roundtrips_projected_keys() {
        for key in [
            FlowKey::src_ip(0x0A000001),
            FlowKey::dst_ip(0x0A000002),
            FlowKey {
                src_ip: 1,
                dst_ip: 2,
                src_port: 3,
                dst_port: 4,
                proto: 5,
                kind: KeyKind::SrcDst,
            },
        ] {
            let h = OwHeader {
                subwindow: 1,
                flag: OwFlag::InjectKey,
                flowkey: Some(key),
                afr_value: 0,
                seq: 0,
            };
            let got = OwHeader::decode(h.encode()).unwrap();
            assert_eq!(got.flowkey.unwrap(), key.canonical());
        }
    }

    #[test]
    fn truncated_header_is_an_error() {
        let h = OwHeader::normal();
        let enc = h.encode();
        let short = &enc[..enc.len() - 1];
        assert!(OwHeader::decode(short).is_err());
    }

    #[test]
    fn bad_flag_is_an_error() {
        let h = OwHeader::normal();
        let mut enc = BytesMut::from(&h.encode()[..]);
        enc[4] = 99; // flag byte
        assert!(OwHeader::decode(enc.freeze()).is_err());
    }

    #[test]
    fn tcp_flag_predicates() {
        assert!(TcpFlags::syn().is_pure_syn());
        assert!(!TcpFlags::syn_ack().is_pure_syn());
        assert!(TcpFlags::syn_ack().has_syn());
        assert!(TcpFlags::fin_ack().has_fin());
        assert!(TcpFlags::fin_ack().has_ack());
        assert!(!TcpFlags::ack().has_rst());
    }

    #[test]
    fn packet_key_projections_agree() {
        let p = Packet::tcp(Instant::ZERO, 1, 2, 3, 4, TcpFlags::syn(), 64);
        assert_eq!(p.key(KeyKind::SrcIp), FlowKey::src_ip(1));
        assert_eq!(p.key(KeyKind::DstIp), FlowKey::dst_ip(2));
        assert_eq!(p.five_tuple(), FlowKey::five_tuple(1, 2, 3, 4, 6));
    }
}
