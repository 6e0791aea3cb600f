//! Offline stand-in for the `bytes` crate.
//!
//! Supplies the subset of bytes 1.x this workspace uses: the [`Buf`]
//! reader-cursor and [`BufMut`] writer traits (big-endian integer
//! accessors), the cheaply-cloneable frozen [`Bytes`] buffer, and the
//! mutable [`BytesMut`] builder. All integer accessors are big-endian,
//! matching the real crate's `get_u32`/`put_u32` family.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Read cursor over a contiguous byte buffer (big-endian accessors).
///
/// Every `get_*` advances the cursor and panics if the buffer has fewer
/// bytes than requested, exactly like bytes 1.x — callers are expected
/// to check [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Whether any bytes remain.
    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Advance the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Copy `dst.len()` bytes into `dst`, advancing.
    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "Buf: advance past end");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Read one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Read a big-endian u16.
    #[inline]
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Read a big-endian u32.
    #[inline]
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Read a big-endian u64.
    #[inline]
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    /// Read a big-endian i64.
    #[inline]
    fn get_i64(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_be_bytes(b)
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "Buf: advance past end");
        *self = &self[cnt..];
    }
}

impl<B: Buf + ?Sized> Buf for &mut B {
    #[inline]
    fn remaining(&self) -> usize {
        (**self).remaining()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt)
    }
}

/// Write cursor appending big-endian integers to a growable buffer.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append `cnt` copies of `val`.
    #[inline]
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_slice(&[val]);
        }
    }

    /// Append one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian u16.
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u64.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian i64.
    #[inline]
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    #[inline]
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.resize(self.len() + cnt, val);
    }
}

/// An immutable, cheaply-cloneable byte buffer with an internal read
/// cursor (so an owned `Bytes` can be consumed as a [`Buf`]).
#[derive(Debug, Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    pos: usize,
}

impl Bytes {
    /// Length of the (unread portion of the) buffer.
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether no bytes remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy the remaining bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.chunk().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes {
            data: v.into(),
            pos: 0,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes {
            data: v.into(),
            pos: 0,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.chunk() == other.chunk()
    }
}
impl Eq for Bytes {}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        &self.data[self.pos..]
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "Buf: advance past end");
        self.pos += cnt;
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Current length.
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> BytesMut {
        BytesMut { data: v.to_vec() }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
    #[inline]
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.data.resize(self.data.len() + cnt, val);
    }
}

impl Buf for BytesMut {
    #[inline]
    fn remaining(&self) -> usize {
        self.data.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        &self.data
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.data.len(), "Buf: advance past end");
        self.data.drain(..cnt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_integers_big_endian() {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(0xAB);
        b.put_u16(0x1234);
        b.put_u32(0xDEADBEEF);
        b.put_u64(0x0102030405060708);
        b.put_i64(-42);
        let mut frozen = b.freeze();
        assert_eq!(frozen.len(), 1 + 2 + 4 + 8 + 8);
        assert_eq!(frozen[0], 0xAB);
        assert_eq!(frozen.get_u8(), 0xAB);
        assert_eq!(frozen.get_u16(), 0x1234);
        assert_eq!(frozen.get_u32(), 0xDEADBEEF);
        assert_eq!(frozen.get_u64(), 0x0102030405060708);
        assert_eq!(frozen.get_i64(), -42);
        assert_eq!(frozen.remaining(), 0);
    }

    #[test]
    fn slice_buf_advances() {
        let data = [1u8, 2, 3, 4];
        let mut s = &data[..];
        assert_eq!(s.get_u8(), 1);
        assert_eq!(s.remaining(), 3);
        let mut two = [0u8; 2];
        s.copy_to_slice(&mut two);
        assert_eq!(two, [2, 3]);
        assert_eq!(s.remaining(), 1);
    }

    #[test]
    fn vec_bufmut_matches_bytesmut() {
        let mut v: Vec<u8> = Vec::new();
        let mut m = BytesMut::new();
        for b in [&mut v as &mut dyn BufMut, &mut m as &mut dyn BufMut] {
            b.put_u16(7);
            b.put_bytes(0, 3);
        }
        assert_eq!(&v[..], &m[..]);
    }

    #[test]
    fn bytesmut_indexing_is_mutable() {
        let mut m = BytesMut::from(&[0u8, 0, 0, 0, 0][..]);
        m[4] = 9;
        assert_eq!(m.freeze()[4], 9);
    }

    #[test]
    #[should_panic(expected = "advance past end")]
    fn overread_panics() {
        let mut b = Bytes::from(vec![1u8]);
        let _ = b.get_u32();
    }
}
