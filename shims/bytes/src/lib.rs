//! Offline stand-in for the `bytes` crate.
//!
//! Implements the subset of `bytes 1.x` the workspace's codecs use:
//! [`Bytes`] (a cheaply cloneable, sliceable view over shared bytes),
//! [`BytesMut`] (a growable buffer), and the [`Buf`]/[`BufMut`] cursor
//! traits with little-endian integer accessors. Semantics match upstream
//! for this subset — in particular [`Buf`] methods *consume* from the
//! front, [`Buf::get_u32_le`]-style reads panic when underfull (callers
//! guard with [`Buf::remaining`]), and [`Bytes::slice`] is zero-copy.

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// Read cursor over a contiguous byte sequence; reads consume from the
/// front.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes as a slice.
    fn chunk(&self) -> &[u8];

    /// Skips `cnt` bytes. Panics if fewer remain.
    fn advance(&mut self, cnt: usize);

    /// `remaining() > 0`.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copies `dst.len()` bytes out, consuming them. Panics if underfull.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Consumes `len` bytes into an owned [`Bytes`].
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl<T: Buf + ?Sized> Buf for &mut T {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }
    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }
    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        *self = &self[cnt..];
    }
}

/// Write cursor appending to a growable buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl<T: BufMut + ?Sized> BufMut for &mut T {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

/// Immutable shared bytes: cheap clones, zero-copy slices, consuming reads.
///
/// The `Arc` owns the `Vec` itself, so converting a `Vec<u8>` (and hence
/// [`BytesMut::freeze`]) moves the allocation instead of copying it.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copies a slice into a fresh buffer.
    pub fn copy_from_slice(src: &[u8]) -> Bytes {
        Bytes::from(src.to_vec())
    }

    /// Unread length.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when nothing remains.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Zero-copy sub-view, indexed relative to the current view.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// The unread bytes as a plain slice.
    pub fn as_ref_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copies the unread bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref_slice().to_vec()
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_ref_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        self.start += cnt;
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::from(v.to_vec())
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_ref_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_ref_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref_slice() == other.as_ref_slice()
    }
}
impl Eq for Bytes {}

/// Shared Debug body for both buffer types.
macro_rules! fmt_bytes {
    () => {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "b\"")?;
            for &b in self.as_ref().iter().take(64) {
                write!(f, "\\x{b:02x}")?;
            }
            if self.as_ref().len() > 64 {
                write!(f, "…")?;
            }
            write!(f, "\"")
        }
    };
}

impl std::fmt::Debug for Bytes {
    fmt_bytes!();
}

/// Growable byte buffer; [`BytesMut::freeze`] converts to [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Empties the buffer, keeping its capacity for reuse.
    pub fn clear(&mut self) {
        self.vec.clear();
    }

    /// Converts to immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src);
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl std::fmt::Debug for BytesMut {
    fmt_bytes!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(7);
        w.put_u16_le(0xBEEF);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(0x0123_4567_89AB_CDEF);
        w.put_f64_le(3.5);
        w.put_slice(b"xyz");
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8 + 8 + 3);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64_le(), 3.5);
        let mut tail = [0u8; 3];
        r.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"xyz");
        assert!(!r.has_remaining());
    }

    #[test]
    fn freeze_keeps_the_allocation() {
        let mut w = BytesMut::with_capacity(4096);
        w.put_slice(&[7u8; 3000]);
        let before = w.as_ptr();
        let frozen = w.freeze();
        assert_eq!(frozen.as_ptr(), before, "freeze copied the buffer");
        let v = vec![1u8, 2, 3];
        let p = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), p, "From<Vec<u8>> copied");
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut w = BytesMut::with_capacity(64);
        w.put_slice(b"abc");
        let p = w.as_ptr();
        w.clear();
        assert!(w.is_empty());
        w.put_slice(b"de");
        assert_eq!(w.as_ptr(), p);
        assert_eq!(&w[..], b"de");
    }

    #[test]
    fn slices_are_views_and_consume_independently() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5, 6]);
        let mut head = b.slice(..4);
        let tail = b.slice(4..);
        assert_eq!(head.len(), 4);
        assert_eq!(tail.as_ref_slice(), &[5, 6]);
        head.advance(2);
        assert_eq!(head.chunk(), &[3, 4]);
        // Original untouched.
        assert_eq!(b.len(), 6);
        // Nested relative slicing.
        let inner = tail.slice(1..);
        assert_eq!(inner.as_ref_slice(), &[6]);
    }

    #[test]
    fn copy_to_bytes_consumes() {
        let mut b = Bytes::from(vec![9u8, 8, 7, 6]);
        let first = b.copy_to_bytes(3);
        assert_eq!(first.as_ref_slice(), &[9, 8, 7]);
        assert_eq!(b.chunk(), &[6]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underfull_read_panics() {
        let mut b = Bytes::from(vec![1u8]);
        let _ = b.get_u32_le();
    }
}
