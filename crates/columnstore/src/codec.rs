//! Measure-value codecs for on-disk format v3.
//!
//! A v3 values block is one codec tag byte followed by the codec payload
//! (all little-endian; `n`, the value count, comes from the presence
//! bitmap's cardinality exactly as in v2):
//!
//! ```text
//! tag 0 raw:  n × f64
//! tag 1 dict: ndict u32, ndict × f64, width u8,
//!             n × width-bit packed dictionary indices
//! ```
//!
//! The writer dictionary-codes a column only when the packed form is
//! strictly smaller than raw — measures drawn from a small domain
//! (quantized prices, counts, category codes) collapse to a few bits per
//! value, while continuous measures stay raw at no overhead beyond the tag
//! byte. Values are interned by their IEEE-754 bit pattern, so every f64
//! (including NaNs and signed zeros) round-trips bit-identically.
//!
//! [`Measures`] keeps a loaded dictionary block *in its packed form*: the
//! fused gather-aggregate kernel (`SparseColumn::fold_over`) streams
//! values through the dictionary without ever materializing a raw `Vec`,
//! so the hot path decodes each fetched block at most once.
//!
//! This module also re-exports the integer-compression primitives from
//! `graphbi_bitmap::intcodec` (bit-packing, Elias-Fano, gamma codes) so
//! the property-test suite can drive every codec from one place.

use bytes::{Buf, BufMut, BytesMut};

pub use graphbi_bitmap::intcodec::{
    gallop_intersect, gamma_bit_len, BitReader, BitWriter, EfCursor, EliasFano, PackedInts,
};
use graphbi_bitmap::kernels;

use crate::StoreError;

/// Stack-buffer size for block decoding of packed dictionary indices.
const UNPACK_BLOCK: usize = 64;

/// Codec tag: raw f64 values.
pub const VALUES_RAW: u8 = 0;
/// Codec tag: dictionary + fixed-width packed indices.
pub const VALUES_DICT: u8 = 1;

/// Dictionary entries beyond this never pay for themselves against raw.
const DICT_MAX: usize = 1 << 24;

/// A measure vector: raw, or dictionary-coded exactly as loaded from a v3
/// values block. All readers go through [`Measures::get`]/[`Measures::iter`],
/// which resolve dictionary indices on the fly.
#[derive(Clone, Debug)]
pub(crate) enum Measures {
    /// One f64 per present record.
    Raw(Vec<f64>),
    /// Distinct values plus a packed index per present record.
    Dict {
        dict: Vec<f64>,
        /// `dict.len() > indices.get(i)` for every `i` — enforced at
        /// decode, maintained by construction at encode.
        indices: PackedInts,
    },
}

impl Default for Measures {
    fn default() -> Self {
        Measures::Raw(Vec::new())
    }
}

impl PartialEq for Measures {
    /// Representation-independent: a dictionary-coded vector equals the
    /// raw vector with the same values (f64 semantics, as the previous
    /// `Vec<f64>` derive used).
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Measures {
    /// Number of values.
    pub(crate) fn len(&self) -> usize {
        match self {
            Measures::Raw(v) => v.len(),
            Measures::Dict { indices, .. } => indices.len(),
        }
    }

    /// The `i`-th value (rank order of the presence bitmap).
    pub(crate) fn get(&self, i: usize) -> f64 {
        match self {
            Measures::Raw(v) => v[i],
            Measures::Dict { dict, indices } => dict[indices.get(i) as usize],
        }
    }

    /// Iterates values in rank order, resolving dictionary indices lazily.
    pub(crate) fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The contiguous value slice, when this vector is raw. The fused
    /// aggregation path hands this straight to the SIMD fold kernel.
    pub(crate) fn raw_slice(&self) -> Option<&[f64]> {
        match self {
            Measures::Raw(v) => Some(v),
            Measures::Dict { .. } => None,
        }
    }

    /// Streams every value in rank order through `f`. Dictionary blocks
    /// are resolved a block at a time: the packed indices go through the
    /// dispatched unpack kernel and the dictionary lookups through the
    /// dispatched gather kernel, instead of per-element bit reads.
    pub(crate) fn fold_all(&self, f: &mut impl FnMut(f64)) {
        match self {
            Measures::Raw(v) => {
                for &x in v {
                    f(x);
                }
            }
            Measures::Dict { dict, indices } => {
                let mut ib = [0u64; UNPACK_BLOCK];
                let mut vb = [0f64; UNPACK_BLOCK];
                let mut start = 0usize;
                while start < indices.len() {
                    let got = indices.unpack_into(start, &mut ib);
                    let ok = kernels::gather_f64(dict, &ib[..got], &mut vb[..got]);
                    assert!(ok, "dict indices validated at decode");
                    for &v in &vb[..got] {
                        f(v);
                    }
                    start += got;
                }
            }
        }
    }

    /// Appends a value — the ingest path. A dictionary-coded vector is
    /// thawed to raw first (appends happen to in-memory columns; loaded
    /// generations are immutable).
    pub(crate) fn push(&mut self, value: f64) {
        if let Measures::Dict { .. } = self {
            *self = Measures::Raw(self.iter().collect());
        }
        let Measures::Raw(v) = self else {
            unreachable!()
        };
        v.push(value);
    }

    /// Heap bytes held — the dictionary form reports its compressed size,
    /// which is what the byte-budgeted column cache accounts.
    pub(crate) fn size_in_bytes(&self) -> usize {
        match self {
            Measures::Raw(v) => v.len() * 8,
            Measures::Dict { dict, indices } => dict.len() * 8 + indices.size_in_bytes(),
        }
    }

    /// Writes the raw (v2) value block: `len()` f64s, no tag.
    pub(crate) fn encode_raw_into(&self, buf: &mut BytesMut) {
        for v in self.iter() {
            buf.put_f64_le(v);
        }
    }

    /// Reads a raw (v2) value block of `n` values.
    pub(crate) fn decode_raw(n: usize, buf: &mut impl Buf) -> Result<Measures, StoreError> {
        if buf.remaining() < n * 8 {
            return Err(StoreError::Format("value block truncated"));
        }
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(buf.get_f64_le());
        }
        Ok(Measures::Raw(values))
    }

    /// Writes the v3 value block (tag + payload), dictionary-coding when
    /// that is strictly smaller than raw. Returns the codec tag written.
    pub(crate) fn encode_v3_into(&self, buf: &mut BytesMut) -> u8 {
        match intern(self) {
            Some((dict, indices)) => {
                let width = dict_index_width(dict.len());
                buf.put_u8(VALUES_DICT);
                buf.put_u32_le(dict.len() as u32);
                for &v in &dict {
                    buf.put_f64_le(v);
                }
                buf.put_u8(width as u8);
                buf.put_slice(PackedInts::pack(&indices, width).as_bytes());
                VALUES_DICT
            }
            None => {
                self.encode_raw_v3_into(buf);
                VALUES_RAW
            }
        }
    }

    /// Writes the v3 value block in its raw form (tag + f64s) without
    /// probing for a dictionary — for a caller that already knows the
    /// codec [`Measures::encode_v3_into`] chose.
    pub(crate) fn encode_raw_v3_into(&self, buf: &mut BytesMut) {
        buf.put_u8(VALUES_RAW);
        self.encode_raw_into(buf);
    }

    /// The v3 value block as a fresh buffer.
    #[cfg(test)]
    pub(crate) fn encode_v3(&self) -> bytes::Bytes {
        let mut buf = BytesMut::with_capacity(1 + self.len() * 8);
        self.encode_v3_into(&mut buf);
        buf.freeze()
    }

    /// Reads a v3 value block of `n` values. Dictionary blocks stay
    /// packed; every index is validated against the dictionary bound so
    /// later accesses cannot go out of range even under
    /// `Verify::TrustDisk`.
    pub(crate) fn decode_v3(n: usize, buf: &mut impl Buf) -> Result<Measures, StoreError> {
        if buf.remaining() < 1 {
            return Err(StoreError::Format("value block missing codec tag"));
        }
        match buf.get_u8() {
            VALUES_RAW => Self::decode_raw(n, buf),
            VALUES_DICT => {
                if buf.remaining() < 4 {
                    return Err(StoreError::Format("dict header truncated"));
                }
                let ndict = buf.get_u32_le() as usize;
                if ndict > DICT_MAX || (n > 0 && ndict == 0) {
                    return Err(StoreError::Format("dict size out of range"));
                }
                if buf.remaining() < ndict * 8 + 1 {
                    return Err(StoreError::Format("dict values truncated"));
                }
                let mut dict = Vec::with_capacity(ndict);
                for _ in 0..ndict {
                    dict.push(buf.get_f64_le());
                }
                let width = u32::from(buf.get_u8());
                if width > 32 {
                    return Err(StoreError::Format("dict index width out of range"));
                }
                let packed_len = PackedInts::byte_len(n, width);
                if buf.remaining() < packed_len {
                    return Err(StoreError::Format("dict indices truncated"));
                }
                let packed_bytes = buf.copy_to_bytes(packed_len);
                let Some(indices) = PackedInts::from_bytes(&packed_bytes, width, n) else {
                    return Err(StoreError::Format("dict indices malformed"));
                };
                // Validate every index against the dictionary bound,
                // block-decoding through the dispatched unpack kernel.
                let mut ib = [0u64; UNPACK_BLOCK];
                let mut start = 0usize;
                while start < n {
                    let got = indices.unpack_into(start, &mut ib);
                    if ib[..got].iter().any(|&i| i >= ndict as u64) {
                        return Err(StoreError::Format("dict index out of range"));
                    }
                    start += got;
                }
                Ok(Measures::Dict { dict, indices })
            }
            _ => Err(StoreError::Format("unknown values codec tag")),
        }
    }
}

/// Bit width of the packed indices of a `d`-entry dictionary.
fn dict_index_width(d: usize) -> u32 {
    if d == 0 {
        0
    } else {
        PackedInts::width_for(d as u64 - 1)
    }
}

/// Bytes of a dictionary values block of `n` values over `d` distinct
/// ones: tag, count, entries, width byte, packed indices. Non-decreasing
/// in `d`.
fn dict_block_len(n: usize, d: usize) -> usize {
    1 + 4 + d * 8 + 1 + PackedInts::byte_len(n, dict_index_width(d))
}

/// The dictionary (first-occurrence order) and per-value indices of
/// `values`, or `None` when the dictionary form would not be strictly
/// smaller than raw.
///
/// Values are interned by bit pattern in an open-addressing table sized
/// up front, probed with a multiplicative hash. The probe stops as soon
/// as the distinct count `d` reaches the break-even point
/// `dict_block_len(n, d) >= 1 + 8n`: the block length never shrinks as
/// `d` grows, so from there the dictionary can no longer win and the
/// decision equals counting every distinct value first. Continuous
/// measures therefore stop after about three quarters of the column
/// instead of interning all of it.
fn intern(values: &Measures) -> Option<(Vec<f64>, Vec<u64>)> {
    const EMPTY: u32 = u32::MAX;
    let n = values.len();
    let raw_len = 1 + n * 8;
    // A winning dictionary has fewer than n entries, so a table of 2n
    // slots (rounded up to a power of two) stays at most half full.
    let slots = (2 * n).max(2).next_power_of_two();
    let shift = 64 - slots.trailing_zeros();
    let mask = slots - 1;
    let mut table = vec![EMPTY; slots];
    let mut dict: Vec<f64> = Vec::new();
    let mut indices: Vec<u64> = Vec::with_capacity(n);
    for v in values.iter() {
        let bits = v.to_bits();
        let mut slot =
            ((bits ^ (bits >> 29)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
        let idx = loop {
            match table[slot] {
                EMPTY => {
                    let idx = dict.len() as u32;
                    table[slot] = idx;
                    dict.push(v);
                    if dict.len() > DICT_MAX || dict_block_len(n, dict.len()) >= raw_len {
                        return None;
                    }
                    break idx;
                }
                i if dict[i as usize].to_bits() == bits => break i,
                _ => slot = (slot + 1) & mask,
            }
        };
        indices.push(u64::from(idx));
    }
    (dict_block_len(n, dict.len()) < raw_len).then_some((dict, indices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn round_trip_v3(values: Vec<f64>) -> Measures {
        let m = Measures::Raw(values);
        let bytes = m.encode_v3();
        let back = Measures::decode_v3(m.len(), &mut bytes.clone()).unwrap();
        assert_eq!(back, m);
        back
    }

    /// The codec decision the slow way: count every distinct bit pattern
    /// first, then decide, then build the first-occurrence dictionary by
    /// linear search.
    fn reference_v3(values: &[f64]) -> Vec<u8> {
        let n = values.len();
        let mut distinct: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let d = distinct.len();
        let width = if d == 0 {
            0
        } else {
            PackedInts::width_for(d as u64 - 1)
        };
        let mut out = BytesMut::new();
        if d <= DICT_MAX && 4 + d * 8 + 1 + PackedInts::byte_len(n, width) < n * 8 {
            let mut dict: Vec<f64> = Vec::new();
            let mut indices = Vec::new();
            for &v in values {
                let i = match dict.iter().position(|x| x.to_bits() == v.to_bits()) {
                    Some(i) => i,
                    None => {
                        dict.push(v);
                        dict.len() - 1
                    }
                };
                indices.push(i as u64);
            }
            out.put_u8(VALUES_DICT);
            out.put_u32_le(d as u32);
            for &v in &dict {
                out.put_f64_le(v);
            }
            out.put_u8(width as u8);
            out.put_slice(PackedInts::pack(&indices, width).as_bytes());
        } else {
            out.put_u8(VALUES_RAW);
            for &v in values {
                out.put_f64_le(v);
            }
        }
        out.to_vec()
    }

    /// `d` distinct values, all awkward: NaNs with different payloads and
    /// signs, both zeros, infinities, then ordinary numbers.
    fn distinct_pool(d: usize) -> Vec<f64> {
        let specials = [
            f64::from_bits(0x7ff8_0000_0000_0000),
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff8_0000_0000_0000),
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut pool: Vec<f64> = specials.iter().copied().take(d).collect();
        pool.extend((0..d.saturating_sub(specials.len())).map(|i| i as f64 * 0.25 + 1.0));
        pool
    }

    /// `n` values over exactly `d` distinct ones, first occurrences
    /// scattered by a stride coprime to `d`.
    fn column(n: usize, d: usize, stride: usize) -> Vec<f64> {
        let pool = distinct_pool(d);
        let mut values: Vec<f64> = (0..n).map(|i| pool[(i * stride) % d]).collect();
        // Every pool entry appears at least once.
        values[..d].copy_from_slice(&pool);
        values.rotate_left(n / 3);
        values
    }

    /// Smallest distinct count at which the dictionary block is no longer
    /// strictly smaller than raw.
    fn break_even(n: usize) -> usize {
        (1..=n)
            .find(|&d| dict_block_len(n, d) > n * 8)
            .expect("n distinct values never dictionary-code")
    }

    /// The early-exit probe chooses exactly what counting every distinct
    /// value first would, down to the byte, at the break-even distinct
    /// count and one either side.
    #[test]
    fn early_exit_codec_matches_count_then_decide() {
        for n in [9usize, 64, 100, 777, 1500] {
            let d0 = break_even(n);
            for (d, want) in [
                (d0 - 1, VALUES_DICT),
                (d0, VALUES_RAW),
                (d0 + 1, VALUES_RAW),
            ] {
                if d > n || d == 0 {
                    continue;
                }
                for stride in [1usize, 7] {
                    let stride = if d % stride == 0 { 1 } else { stride };
                    let values = column(n, d, stride);
                    let m = Measures::Raw(values.clone());
                    let mut got = BytesMut::new();
                    let tag = m.encode_v3_into(&mut got);
                    assert_eq!(tag, want, "n={n} d={d} (break-even {d0})");
                    assert_eq!(got[0], tag);
                    assert_eq!(&got[..], &reference_v3(&values)[..], "n={n} d={d}");
                    let back = Measures::decode_v3(n, &mut got.freeze()).unwrap();
                    for (i, v) in values.iter().enumerate() {
                        assert_eq!(back.get(i).to_bits(), v.to_bits());
                    }
                }
            }
        }
    }

    /// Random columns of random cardinality agree with the reference.
    #[test]
    fn codec_choice_matches_reference_on_random_columns() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let n = (next() % 600) as usize;
            let d = 1 + (next() % (n as u64 + 1)) as usize;
            let pool = distinct_pool(d);
            let values: Vec<f64> = (0..n).map(|_| pool[(next() % d as u64) as usize]).collect();
            let m = Measures::Raw(values.clone());
            let mut got = BytesMut::new();
            m.encode_v3_into(&mut got);
            assert_eq!(&got[..], &reference_v3(&values)[..], "n={n} d={d}");
        }
    }

    /// Re-emitting a raw block without the probe gives the same bytes.
    #[test]
    fn raw_reencode_skips_probe_with_identical_bytes() {
        let m = Measures::Raw((0..300).map(|i| f64::from(i) * 0.1).collect());
        let mut probed = BytesMut::new();
        assert_eq!(m.encode_v3_into(&mut probed), VALUES_RAW);
        let mut direct = BytesMut::new();
        m.encode_raw_v3_into(&mut direct);
        assert_eq!(probed, direct);
    }

    #[test]
    fn low_cardinality_measures_dictionary_code() {
        let values: Vec<f64> = (0..10_000).map(|i| f64::from(i % 7) * 0.5).collect();
        let m = Measures::Raw(values);
        let v3 = m.encode_v3();
        assert_eq!(v3[0], VALUES_DICT);
        assert!(
            v3.len() * 8 < m.len() * 8,
            "dict form much smaller: {} vs {}",
            v3.len(),
            m.len() * 8
        );
        let back = Measures::decode_v3(m.len(), &mut v3.clone()).unwrap();
        assert!(matches!(back, Measures::Dict { .. }), "stays packed");
        assert_eq!(back, m);
    }

    #[test]
    fn high_cardinality_measures_stay_raw() {
        let values: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.123).collect();
        let m = Measures::Raw(values);
        let v3 = m.encode_v3();
        assert_eq!(v3[0], VALUES_RAW);
        assert_eq!(v3.len(), 1 + m.len() * 8);
        round_trip_v3((0..1000).map(|i| f64::from(i) * 0.123).collect());
    }

    #[test]
    fn special_values_round_trip_bit_identically() {
        let values = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            0.0,
            f64::NAN,
            -0.0,
        ];
        let m = Measures::Raw(values.clone());
        let bytes = m.encode_v3();
        let back = Measures::decode_v3(values.len(), &mut bytes.clone()).unwrap();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(
                back.get(i).to_bits(),
                v.to_bits(),
                "value {i} not bit-identical"
            );
        }
    }

    #[test]
    fn empty_and_singleton_round_trip() {
        round_trip_v3(vec![]);
        round_trip_v3(vec![42.5]);
    }

    #[test]
    fn decode_rejects_bad_dict_blocks() {
        let m = Measures::Raw((0..100).map(|i| f64::from(i % 3)).collect());
        let bytes = m.encode_v3();
        assert_eq!(bytes[0], VALUES_DICT);
        // Truncations at every point must error, never panic.
        for cut in 0..bytes.len() {
            assert!(
                Measures::decode_v3(100, &mut bytes.slice(..cut)).is_err(),
                "cut at {cut} decoded"
            );
        }
        // An out-of-range packed index must be caught at decode.
        let mut evil = BytesMut::new();
        evil.put_u8(VALUES_DICT);
        evil.put_u32_le(2);
        evil.put_f64_le(1.0);
        evil.put_f64_le(2.0);
        evil.put_u8(8); // 8-bit indices
        evil.put_slice(&[0, 1, 7]); // 7 >= ndict
        assert!(Measures::decode_v3(3, &mut evil.freeze()).is_err());
        // Unknown tag.
        assert!(Measures::decode_v3(0, &mut Bytes::from(vec![9u8])).is_err());
    }

    #[test]
    fn push_thaws_dictionary_form() {
        let m = Measures::Raw((0..50).map(|i| f64::from(i % 2)).collect());
        let bytes = m.encode_v3();
        let mut back = Measures::decode_v3(50, &mut bytes.clone()).unwrap();
        assert!(matches!(back, Measures::Dict { .. }));
        back.push(9.75);
        assert_eq!(back.len(), 51);
        assert_eq!(back.get(50), 9.75);
        assert_eq!(back.get(3), 1.0);
    }
}
