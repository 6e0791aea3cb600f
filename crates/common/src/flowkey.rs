//! Flow keys — the unit of aggregation for all telemetry applications.
//!
//! The paper (§4.1) requires each telemetry application to declare its flow
//! key explicitly (five-tuple, source IP, destination IP, …) so that the
//! switch can track keys and the controller can merge AFRs. We model a key
//! as a compact `Copy` value: the full five-tuple plus a [`KeyKind`]
//! projection that selects which fields participate in hashing/equality.

use serde::Serialize;

use crate::packet::Packet;

/// Which projection of the five-tuple a telemetry application keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
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
#[derive(Debug, Clone, Copy, Serialize)]
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

/// The input size from which [`packed_order`] runs its bucket pass and
/// [`sort_by_packed_key`] leaves its stack array; below it a comparison
/// sort of the packed keys is as fast.
const PACKED_ORDER_MIN_KEYS: usize = 256;

/// The `(key, index)` pairs of `keys` in ascending order — exactly what
/// collecting `(k, i)` for the `i`-th key and calling `sort_unstable`
/// returns (equal keys stay in index order), built in linear passes.
///
/// Pass 1 collects the pairs, ORs every key against the first, which
/// finds the bits that vary, and checks whether the pairs already
/// ascend; if they do, they are returned as they are. Otherwise pass 2
/// counts the keys into about n/2 buckets taken from the top varying
/// bits (a bucket is monotone in the key, since the bits above it are
/// shared), and pass 3 reads `keys` again — so each key is packed twice
/// — and places each pair straight into its bucket of the same vector,
/// overwriting pass 1's copy; a bucket holds about two pairs and is
/// finished with a swap or `sort_unstable`. Besides the output it
/// allocates one `u32` per bucket and no scratch buffer: the feeder
/// thread's heap peak is measurable downstream (DESIGN.md §4o). Below
/// 256 keys it is collect + `sort_unstable`.
pub fn packed_order(keys: impl ExactSizeIterator<Item = u128> + Clone) -> Vec<(u128, u32)> {
    let mut out: Vec<(u128, u32)> = keys.clone().zip(0u32..).collect();
    let n = out.len();
    if n < PACKED_ORDER_MIN_KEYS {
        out.sort_unstable();
        return out;
    }
    let first = out[0].0;
    let (mut varying, mut ascending) = (0u128, true);
    for pair in out.windows(2) {
        varying |= pair[1].0 ^ first;
        ascending &= pair[0].0 <= pair[1].0;
    }
    if ascending {
        return out;
    }
    // Not ascending, so some bit varies: `top >= 1`, and `bits >= 1`
    // because n/2 >= 128.
    let top = 128 - varying.leading_zeros();
    let bits = (n / 2).ilog2().min(top);
    let (shift, mask) = (top - bits, (1usize << bits) - 1);
    let bucket = |k: u128| (k >> shift) as usize & mask;
    let mut ends = vec![0u32; mask + 1];
    for &(k, _) in &out {
        ends[bucket(k)] += 1;
    }
    // Each bucket's count becomes the cursor of its first row, which
    // pass 3 advances to one past its last.
    let mut start = 0;
    for cursor in ends.iter_mut() {
        let count = *cursor;
        *cursor = start;
        start += count;
    }
    for (k, i) in keys.zip(0u32..) {
        let cursor = &mut ends[bucket(k)];
        out[*cursor as usize] = (k, i);
        *cursor += 1;
    }
    let mut start = 0;
    for &end in &ends {
        match &mut out[start..end as usize] {
            [] | [_] => {}
            [a, b] => {
                if *a > *b {
                    std::mem::swap(a, b);
                }
            }
            run => run.sort_unstable(),
        }
        start = end as usize;
    }
    out
}

/// Stable-sort `v` by the packed form of `key` — the order a stable
/// sort keyed on `key(x).as_u128()` gives — and allocate nothing below
/// 256 rows. There the `(key, index)` pairs are built in a stack array,
/// each key packed once, and `sort_unstable`ed; from 256 rows up they
/// come from [`packed_order`]. Either order is applied in place by
/// walking the permutation's cycles.
pub fn sort_by_packed_key<T>(v: &mut [T], key: impl Fn(&T) -> FlowKey) {
    let n = v.len();
    if n < PACKED_ORDER_MIN_KEYS {
        let mut pairs = [(0u128, 0u32); PACKED_ORDER_MIN_KEYS];
        for (pair, (x, i)) in pairs.iter_mut().zip(v.iter().zip(0u32..)) {
            *pair = (key(x).as_u128(), i);
        }
        pairs[..n].sort_unstable();
        permute(v, &mut pairs[..n]);
    } else {
        permute(v, &mut packed_order(v.iter().map(|x| key(x).as_u128())));
    }
}

/// Move `v[order[j].1]` to `v[j]` for every `j`, by walking the
/// permutation's cycles; `order`'s indices are rewritten on the way.
fn permute<T>(v: &mut [T], order: &mut [(u128, u32)]) {
    // A visited position is rewritten to name itself.
    for j in 0..order.len() {
        let mut at = j;
        loop {
            let from = order[at].1 as usize;
            order[at].1 = at as u32;
            if from == j {
                break;
            }
            v.swap(at, from);
            at = from;
        }
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
