//! Wire format for AFR batches — what actually travels from the switch
//! to the controller (in report clones, retransmissions, and the live
//! pipeline's channel in a multi-process deployment).
//!
//! Batch layout: `count:u32` then `count` records. Record layout:
//! `key(kind:u8, src:u32, dst:u32, sport:u16, dport:u16, proto:u8) |
//! subwindow:u32 | seq:u32 | attr_tag:u8 | attr payload`. Attribute
//! payloads: frequency/max/min `u64`; signed `i64`; existence `u8`;
//! distinction `logical_bits:u32 + 8×u64`; conn-bytes = distinction
//! payload + `bytes:u64`.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use ow_common::afr::{AttrValue, DistinctBitmap, FlowRecord, DISTINCT_BITMAP_WORDS};
use ow_common::error::OwError;
use ow_common::flowkey::{FlowKey, KeyKind};

/// Encoded size of a flow key.
const KEY_BYTES: usize = 14;
/// Smallest encoded record: key, sub-window, seq, and an existence
/// attribute (the tag and one byte).
const MIN_RECORD_BYTES: usize = KEY_BYTES + 8 + 2;

/// Read a `count:u32` header and refuse one that claims more records
/// than the bytes behind it could hold — the count is the sender's, so
/// nothing is reserved for it until it is plausible.
fn get_count(b: &mut impl Buf) -> Result<usize, OwError> {
    if b.remaining() < 4 {
        return Err(OwError::Decode("truncated count header".into()));
    }
    let count = b.get_u32() as usize;
    let fits = b.remaining() / MIN_RECORD_BYTES;
    if count > fits {
        return Err(OwError::Decode(format!(
            "header claims {count} rows, {} bytes hold at most {fits}",
            b.remaining()
        )));
    }
    Ok(count)
}

fn put_key(b: &mut BytesMut, key: &FlowKey) {
    let c = key.canonical();
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

fn get_key(b: &mut impl Buf) -> Result<FlowKey, OwError> {
    if b.remaining() < KEY_BYTES {
        return Err(OwError::Decode("truncated flow key".into()));
    }
    let kind = match b.get_u8() {
        0 => KeyKind::FiveTuple,
        1 => KeyKind::SrcIp,
        2 => KeyKind::DstIp,
        3 => KeyKind::SrcDst,
        t => return Err(OwError::Decode(format!("bad key kind {t}"))),
    };
    let key = FlowKey {
        src_ip: b.get_u32(),
        dst_ip: b.get_u32(),
        src_port: b.get_u16(),
        dst_port: b.get_u16(),
        proto: b.get_u8(),
        kind,
    };
    Ok(key.canonical())
}

fn put_bitmap(b: &mut BytesMut, bm: &DistinctBitmap) {
    b.put_u32(bm.logical_bits);
    for w in bm.words {
        b.put_u64(w);
    }
}

fn get_bitmap(b: &mut impl Buf) -> Result<DistinctBitmap, OwError> {
    if b.remaining() < 4 + 8 * DISTINCT_BITMAP_WORDS {
        return Err(OwError::Decode("truncated bitmap".into()));
    }
    let logical_bits = b.get_u32();
    if logical_bits == 0 || logical_bits as u64 > DistinctBitmap::BITS {
        return Err(OwError::Decode(format!("bad logical_bits {logical_bits}")));
    }
    let mut words = [0u64; DISTINCT_BITMAP_WORDS];
    for w in &mut words {
        *w = b.get_u64();
    }
    Ok(DistinctBitmap {
        words,
        logical_bits,
    })
}

fn put_attr(b: &mut BytesMut, attr: &AttrValue) {
    match attr {
        AttrValue::Frequency(v) => {
            b.put_u8(0);
            b.put_u64(*v);
        }
        AttrValue::Existence(e) => {
            b.put_u8(1);
            b.put_u8(u8::from(*e));
        }
        AttrValue::Max(v) => {
            b.put_u8(2);
            b.put_u64(*v);
        }
        AttrValue::Min(v) => {
            b.put_u8(3);
            b.put_u64(*v);
        }
        AttrValue::Distinction(bm) => {
            b.put_u8(4);
            put_bitmap(b, bm);
        }
        AttrValue::Signed(v) => {
            b.put_u8(5);
            b.put_i64(*v);
        }
        AttrValue::ConnBytes { conns, bytes } => {
            b.put_u8(6);
            put_bitmap(b, conns);
            b.put_u64(*bytes);
        }
    }
}

fn get_attr(b: &mut impl Buf) -> Result<AttrValue, OwError> {
    if b.remaining() < 1 {
        return Err(OwError::Decode("truncated attribute".into()));
    }
    let tag = b.get_u8();
    let need = |b: &mut dyn Buf, n: usize| -> Result<(), OwError> {
        if b.remaining() < n {
            Err(OwError::Decode("truncated attribute payload".into()))
        } else {
            Ok(())
        }
    };
    Ok(match tag {
        0 => {
            need(b, 8)?;
            AttrValue::Frequency(b.get_u64())
        }
        1 => {
            need(b, 1)?;
            AttrValue::Existence(b.get_u8() != 0)
        }
        2 => {
            need(b, 8)?;
            AttrValue::Max(b.get_u64())
        }
        3 => {
            need(b, 8)?;
            AttrValue::Min(b.get_u64())
        }
        4 => AttrValue::Distinction(get_bitmap(b)?),
        5 => {
            need(b, 8)?;
            AttrValue::Signed(b.get_i64())
        }
        6 => {
            let conns = get_bitmap(b)?;
            need(b, 8)?;
            AttrValue::ConnBytes {
                conns,
                bytes: b.get_u64(),
            }
        }
        t => return Err(OwError::Decode(format!("bad attribute tag {t}"))),
    })
}

/// Encode an AFR batch.
pub fn encode_batch(records: &[FlowRecord]) -> Bytes {
    let mut b = BytesMut::with_capacity(4 + records.len() * 32);
    b.put_u32(records.len() as u32);
    for r in records {
        put_key(&mut b, &r.key);
        b.put_u32(r.subwindow);
        b.put_u32(r.seq);
        put_attr(&mut b, &r.attr);
    }
    b.freeze()
}

/// Decode an AFR batch.
pub fn decode_batch(mut buf: impl Buf) -> Result<Vec<FlowRecord>, OwError> {
    let count = get_count(&mut buf)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let key = get_key(&mut buf)?;
        if buf.remaining() < 8 {
            return Err(OwError::Decode("truncated record header".into()));
        }
        let subwindow = buf.get_u32();
        let seq = buf.get_u32();
        let attr = get_attr(&mut buf)?;
        out.push(FlowRecord {
            key,
            attr,
            subwindow,
            seq,
        });
    }
    if buf.has_remaining() {
        return Err(OwError::Decode(format!(
            "{} trailing bytes after batch",
            buf.remaining()
        )));
    }
    Ok(out)
}

/// Encode a merged-table snapshot (`MergeTable::snapshot` /
/// `LiveHandle::snapshot` output): `count:u32` then `count`
/// `(key, attr)` pairs in the order given.
///
/// Because snapshots are canonically ordered, this encoding is the
/// byte-identity witness for the sharded merge path: two tables merged
/// the same records iff their encoded snapshots are equal bytes.
pub fn encode_merged(entries: &[(FlowKey, AttrValue)]) -> Bytes {
    let mut b = BytesMut::with_capacity(4 + entries.len() * 24);
    b.put_u32(entries.len() as u32);
    for (key, attr) in entries {
        put_key(&mut b, key);
        put_attr(&mut b, attr);
    }
    b.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<FlowRecord> {
        let mut bm = DistinctBitmap::default();
        bm.insert_hash(7);
        bm.insert_hash(99);
        let mut small = DistinctBitmap::with_logical_bits(64);
        small.insert_hash(3);
        vec![
            FlowRecord::frequency(FlowKey::src_ip(1), 1234, 7),
            FlowRecord {
                key: FlowKey::five_tuple(1, 2, 3, 4, 6),
                attr: AttrValue::Signed(-42),
                subwindow: 7,
                seq: 1,
            },
            FlowRecord {
                key: FlowKey::dst_ip(9),
                attr: AttrValue::Distinction(bm),
                subwindow: 7,
                seq: 2,
            },
            FlowRecord {
                key: FlowKey::dst_ip(10),
                attr: AttrValue::ConnBytes {
                    conns: small,
                    bytes: 555,
                },
                subwindow: 7,
                seq: 3,
            },
            FlowRecord {
                key: FlowKey::src_ip(11),
                attr: AttrValue::Max(88),
                subwindow: 7,
                seq: 4,
            },
            FlowRecord {
                key: FlowKey::src_ip(12),
                attr: AttrValue::Existence(true),
                subwindow: 7,
                seq: 5,
            },
        ]
    }

    #[test]
    fn batch_roundtrips_every_attribute_kind() {
        let batch = sample();
        let wire = encode_batch(&batch);
        let back = decode_batch(wire).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let wire = encode_batch(&[]);
        assert_eq!(decode_batch(wire).unwrap(), vec![]);
    }

    #[test]
    fn truncation_detected() {
        let wire = encode_batch(&sample());
        for cut in [3usize, 10, wire.len() - 1] {
            assert!(decode_batch(&wire[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut wire = encode_batch(&sample()).to_vec();
        wire.push(0);
        assert!(decode_batch(&wire[..]).is_err());
    }

    /// Every attribute kind survives the snapshot layout: the count,
    /// then each pair as the batch codec's key and attribute fields.
    #[test]
    fn merged_snapshot_roundtrips() {
        let entries: Vec<(FlowKey, AttrValue)> = sample().iter().map(|r| (r.key, r.attr)).collect();
        let mut wire = encode_merged(&entries);
        assert_eq!(wire.get_u32() as usize, entries.len());
        for (key, attr) in &entries {
            assert_eq!(get_key(&mut wire).unwrap(), *key);
            assert_eq!(get_attr(&mut wire).unwrap(), *attr);
        }
        assert!(!wire.has_remaining());
        assert_eq!(&encode_merged(&[])[..], [0u8; 4]);
    }

    fn hex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
            .collect()
    }

    /// The bytes on the wire, written out from the layout in the module
    /// doc: one record per attribute kind, then one merged entry. A
    /// frequency record is 31 bytes — what `wire.bytes_per_record`
    /// reads, plus the amortised header.
    #[test]
    fn encoded_bytes_are_pinned() {
        let rec = |key, attr, seq| FlowRecord {
            key,
            attr,
            subwindow: 7,
            seq,
        };
        let mut words = [0u64; DISTINCT_BITMAP_WORDS];
        (words[0], words[7]) = (1, 1 << 63);
        let wide = DistinctBitmap {
            words,
            logical_bits: 512,
        };
        let mut conns = DistinctBitmap::with_logical_bits(64);
        conns.words[0] = 5;
        let five = FlowKey::five_tuple(0x0A00_0001, 0x0A00_0002, 0x1234, 80, 6);
        let src_dst = FlowKey {
            kind: KeyKind::SrcDst,
            ..FlowKey::five_tuple(1, 2, 3, 4, 6) // ports and proto are projected away
        };
        let batch = [
            rec(five, AttrValue::Frequency(1234), 0),
            rec(FlowKey::src_ip(0xC0A8_0001), AttrValue::Existence(true), 1),
            rec(FlowKey::dst_ip(9), AttrValue::Max(88), 2),
            rec(src_dst, AttrValue::Min(u64::MAX), 3),
            rec(FlowKey::dst_ip(9), AttrValue::Distinction(wide), 4),
            rec(FlowKey::src_ip(1), AttrValue::Signed(-42), 5),
            rec(
                FlowKey::src_ip(1),
                AttrValue::ConnBytes { conns, bytes: 555 },
                6,
            ),
        ];
        let zeros = |words: usize| "0000000000000000".repeat(words);
        let golden = [
            "00000007".to_string(),
            // kind src      dst      sport dport proto | subwindow seq | tag payload
            "00 0A000001 0A000002 1234 0050 06  00000007 00000000  00 00000000000004D2".into(),
            "01 C0A80001 00000000 0000 0000 00  00000007 00000001  01 01".into(),
            "02 00000000 00000009 0000 0000 00  00000007 00000002  02 0000000000000058".into(),
            "03 00000001 00000002 0000 0000 00  00000007 00000003  03 FFFFFFFFFFFFFFFF".into(),
            "02 00000000 00000009 0000 0000 00  00000007 00000004  04 00000200".into(),
            format!("0000000000000001 {} 8000000000000000", zeros(6)),
            "01 00000001 00000000 0000 0000 00  00000007 00000005  05 FFFFFFFFFFFFFFD6".into(),
            "01 00000001 00000000 0000 0000 00  00000007 00000006  06 00000040".into(),
            format!("0000000000000005 {} 000000000000022B", zeros(7)),
        ];
        assert_eq!(encode_batch(&batch).to_vec(), hex(&golden.concat()));
        assert_eq!(encode_batch(&batch[..1]).len(), 4 + 31);

        let merged = encode_merged(&[(five, AttrValue::Frequency(1234))]);
        assert_eq!(
            merged.to_vec(),
            hex("00000001  00 0A000001 0A000002 1234 0050 06  00 00000000000004D2")
        );
    }

    #[test]
    fn bad_tags_detected() {
        let mut wire = encode_batch(&sample()[..1]).to_vec();
        wire[4] = 99; // key kind byte of first record
        assert!(decode_batch(&wire[..]).is_err());
    }
}
