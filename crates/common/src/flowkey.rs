//! Flow keys — the unit of aggregation for all telemetry applications.
//!
//! The paper (§4.1) requires each telemetry application to declare its flow
//! key explicitly (five-tuple, source IP, destination IP, …) so that the
//! switch can track keys and the controller can merge AFRs. We model a key
//! as a compact `Copy` value: the full five-tuple plus a [`KeyKind`]
//! projection that selects which fields participate in hashing/equality.

use serde::{Deserialize, Serialize};

use crate::packet::Packet;

/// Which projection of the five-tuple a telemetry application keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KeyKind {
    /// Full 5-tuple `(src ip, dst ip, src port, dst port, proto)`.
    FiveTuple,
    /// Source IPv4 address only (e.g. super-spreader detection).
    SrcIp,
    /// Destination IPv4 address only (e.g. DDoS victim detection).
    DstIp,
    /// Source/destination address pair (e.g. scan detection).
    SrcDst,
}

/// A flow key: a five-tuple restricted to a [`KeyKind`] projection.
///
/// Equality and hashing respect the projection: two packets between the
/// same hosts but different ports compare equal under [`KeyKind::SrcDst`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP).
    pub proto: u8,
    /// The projection under which this key compares and hashes.
    pub kind: KeyKind,
}

impl FlowKey {
    /// Extract the key of `kind` from a packet's five-tuple.
    #[inline]
    pub(crate) fn of_packet(pkt: &Packet, kind: KeyKind) -> FlowKey {
        FlowKey {
            src_ip: pkt.src_ip,
            dst_ip: pkt.dst_ip,
            src_port: pkt.src_port,
            dst_port: pkt.dst_port,
            proto: pkt.proto,
            kind,
        }
    }

    /// Build a five-tuple key directly from its fields.
    pub fn five_tuple(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, proto: u8) -> Self {
        FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
            kind: KeyKind::FiveTuple,
        }
    }

    /// Build a source-IP key.
    pub fn src_ip(ip: u32) -> Self {
        FlowKey {
            src_ip: ip,
            dst_ip: 0,
            src_port: 0,
            dst_port: 0,
            proto: 0,
            kind: KeyKind::SrcIp,
        }
    }

    /// Build a destination-IP key.
    pub fn dst_ip(ip: u32) -> Self {
        FlowKey {
            src_ip: 0,
            dst_ip: ip,
            src_port: 0,
            dst_port: 0,
            proto: 0,
            kind: KeyKind::DstIp,
        }
    }

    /// The canonical byte representation under the projection: fields not
    /// selected by `kind` are zeroed so equality/hash/serialisation agree.
    #[inline]
    pub fn canonical(self) -> FlowKey {
        match self.kind {
            KeyKind::FiveTuple => self,
            KeyKind::SrcIp => FlowKey::src_ip(self.src_ip),
            KeyKind::DstIp => FlowKey::dst_ip(self.dst_ip),
            KeyKind::SrcDst => FlowKey {
                src_ip: self.src_ip,
                dst_ip: self.dst_ip,
                src_port: 0,
                dst_port: 0,
                proto: 0,
                kind: KeyKind::SrcDst,
            },
        }
    }

    /// Pack the projected key into a `u128` for fast hashing and storage.
    ///
    /// Layout (most to least significant): kind tag, src ip, dst ip,
    /// src port, dst port, proto. Non-projected fields are zero.
    #[inline]
    pub fn as_u128(self) -> u128 {
        let c = self.canonical();
        ((c.kind as u128) << 104)
            | ((c.src_ip as u128) << 72)
            | ((c.dst_ip as u128) << 40)
            | ((c.src_port as u128) << 24)
            | ((c.dst_port as u128) << 8)
            | (c.proto as u128)
    }
}

impl PartialEq for FlowKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_u128() == other.as_u128()
    }
}

impl Eq for FlowKey {}

impl core::hash::Hash for FlowKey {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.as_u128().hash(state);
    }
}

impl core::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let ip = |v: u32| {
            format!(
                "{}.{}.{}.{}",
                (v >> 24) & 0xff,
                (v >> 16) & 0xff,
                (v >> 8) & 0xff,
                v & 0xff
            )
        };
        match self.kind {
            KeyKind::FiveTuple => write!(
                f,
                "{}:{}->{}:{}/{}",
                ip(self.src_ip),
                self.src_port,
                ip(self.dst_ip),
                self.dst_port,
                self.proto
            ),
            KeyKind::SrcIp => write!(f, "src={}", ip(self.src_ip)),
            KeyKind::DstIp => write!(f, "dst={}", ip(self.dst_ip)),
            KeyKind::SrcDst => write!(f, "{}->{}", ip(self.src_ip), ip(self.dst_ip)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(k: &FlowKey) -> u64 {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        h.finish()
    }

    #[test]
    fn projection_ignores_unselected_fields() {
        let a = FlowKey {
            src_ip: 10,
            dst_ip: 20,
            src_port: 1111,
            dst_port: 2222,
            proto: 6,
            kind: KeyKind::SrcDst,
        };
        let b = FlowKey {
            src_ip: 10,
            dst_ip: 20,
            src_port: 9999,
            dst_port: 80,
            proto: 17,
            kind: KeyKind::SrcDst,
        };
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn different_kinds_never_collide() {
        let a = FlowKey::src_ip(42);
        let b = FlowKey::dst_ip(42);
        assert_ne!(a, b);
        assert_ne!(a.as_u128(), b.as_u128());
    }

    #[test]
    fn five_tuple_distinguishes_ports() {
        let a = FlowKey::five_tuple(1, 2, 10, 20, 6);
        let b = FlowKey::five_tuple(1, 2, 10, 21, 6);
        assert_ne!(a, b);
    }

    #[test]
    fn as_u128_is_injective_on_canonical_fields() {
        let a = FlowKey::five_tuple(0x01020304, 0x05060708, 80, 443, 6);
        let back = a.as_u128();
        assert_eq!((back >> 72) as u32, 0x01020304);
        assert_eq!((back >> 40) as u32, 0x05060708);
        assert_eq!((back >> 24) as u16, 80);
        assert_eq!((back >> 8) as u16, 443);
        assert_eq!(back as u8, 6);
    }

    #[test]
    fn display_formats_dotted_quads() {
        let k = FlowKey::src_ip(0xC0A80001);
        assert_eq!(k.to_string(), "src=192.168.0.1");
    }
}
