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
//! tag 2 for:  base u64, width u8,
//!             n × width-bit packed (v.to_bits() − base)
//! ```
//!
//! The writer emits the smallest of the three forms; on a tie raw wins,
//! then dict, then FoR, so the output is a pure function of the values.
//! Measures drawn from a small domain (quantized prices, counts, category
//! codes) collapse to a few bits per value in the dictionary form.
//! Continuous measures take the frame-of-reference form: values of one
//! sign and a few binades share their high bit-pattern bits, so the
//! offsets from the smallest pattern (`base`) pack into `width < 64` bits.
//! A column that mixes signs spans nearly the whole `u64` range, its FoR
//! block is wider than raw, and it stays raw at no overhead beyond the
//! tag byte. Both compressed forms work on IEEE-754 bit patterns, so every
//! f64 (including NaN payloads, signed zeros and infinities) round-trips
//! bit-identically.
//!
//! [`Measures`] keeps a loaded dictionary block *in its packed form*: the
//! fused gather-aggregate kernel (`SparseColumn::fold_over`) streams
//! values through the dictionary without ever materializing a raw `Vec`,
//! so the hot path decodes each fetched block at most once. A FoR block
//! decodes to the raw form (unpack, add `base`), so the SIMD folds see it
//! exactly as an uncompressed column.
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
/// Codec tag: frame of reference over the values' IEEE-754 bit patterns.
pub const VALUES_FOR: u8 = 2;

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

    /// Writes the v3 value block (tag + payload) in the smallest of the
    /// raw, dictionary and frame-of-reference forms — ties go to raw, then
    /// dict, then FoR. Returns the codec tag written.
    pub(crate) fn encode_v3_into(&self, buf: &mut BytesMut) -> u8 {
        let n = self.len();
        let raw_len = 1 + n * 8;
        let (base, width) = self.for_frame();
        let for_len = for_block_len(n, width);
        // A dictionary must beat raw strictly and FoR or tie with it.
        if let Some((dict, indices)) = intern(self, raw_len.min(for_len + 1)) {
            let width = dict_index_width(dict.len());
            buf.put_u8(VALUES_DICT);
            buf.put_u32_le(dict.len() as u32);
            for &v in &dict {
                buf.put_f64_le(v);
            }
            buf.put_u8(width as u8);
            put_packed(buf, indices.into_iter(), width);
            VALUES_DICT
        } else if for_len < raw_len {
            self.put_for(base, width, buf);
            VALUES_FOR
        } else {
            self.encode_raw_v3_into(buf);
            VALUES_RAW
        }
    }

    /// Writes the v3 value block in its frame-of-reference form without
    /// probing for a dictionary — for a caller that already knows the
    /// codec [`Measures::encode_v3_into`] chose.
    pub(crate) fn encode_for_v3_into(&self, buf: &mut BytesMut) {
        let (base, width) = self.for_frame();
        self.put_for(base, width, buf);
    }

    /// The FoR frame: the smallest bit pattern and the width of the
    /// largest offset from it (`(0, 0)` when empty).
    fn for_frame(&self) -> (u64, u32) {
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        self.fold_all(&mut |v| {
            let bits = v.to_bits();
            lo = lo.min(bits);
            hi = hi.max(bits);
        });
        if lo > hi {
            (0, 0)
        } else {
            (lo, PackedInts::width_for(hi - lo))
        }
    }

    fn put_for(&self, base: u64, width: u32, buf: &mut BytesMut) {
        buf.put_u8(VALUES_FOR);
        buf.put_u64_le(base);
        buf.put_u8(width as u8);
        put_packed(buf, self.iter().map(|v| v.to_bits() - base), width);
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
    /// `Verify::TrustDisk`. FoR blocks decode to the raw form through the
    /// dispatched unpack kernel; an offset that overflows past `base`
    /// is a format error.
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
            VALUES_FOR => {
                if buf.remaining() < 9 {
                    return Err(StoreError::Format("for header truncated"));
                }
                let base = buf.get_u64_le();
                let width = u32::from(buf.get_u8());
                if width > 64 {
                    return Err(StoreError::Format("for width out of range"));
                }
                let packed_len = PackedInts::byte_len(n, width);
                if buf.remaining() < packed_len {
                    return Err(StoreError::Format("for offsets truncated"));
                }
                let packed = buf.copy_to_bytes(packed_len);
                let mut values = Vec::with_capacity(n);
                let mut ob = [0u64; UNPACK_BLOCK];
                let mut start = 0usize;
                while start < n {
                    let got = UNPACK_BLOCK.min(n - start);
                    kernels::unpack_bits(&packed, start * width as usize, width, &mut ob[..got]);
                    for &offset in &ob[..got] {
                        let Some(bits) = base.checked_add(offset) else {
                            return Err(StoreError::Format("for value out of range"));
                        };
                        values.push(f64::from_bits(bits));
                    }
                    start += got;
                }
                Ok(Measures::Raw(values))
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

/// Bytes of a FoR values block of `n` values at `width` bits: tag, base,
/// width byte, packed offsets.
fn for_block_len(n: usize, width: u32) -> usize {
    1 + 8 + 1 + PackedInts::byte_len(n, width)
}

/// Appends `values` LSB-first at `width` bits each: the byte layout of
/// [`PackedInts::pack`], written straight into `buf`. Every value must
/// fit in `width <= 64` bits.
fn put_packed(buf: &mut BytesMut, values: impl Iterator<Item = u64>, width: u32) {
    let mut acc = 0u128;
    let mut bits = 0u32;
    for v in values {
        acc |= u128::from(v) << bits;
        bits += width;
        if bits >= 64 {
            buf.put_u64_le(acc as u64);
            acc >>= 64;
            bits -= 64;
        }
    }
    buf.put_slice(&(acc as u64).to_le_bytes()[..bits.div_ceil(8) as usize]);
}

/// The dictionary (first-occurrence order) and per-value indices of
/// `values`, or `None` when the dictionary block would not be shorter
/// than `limit` bytes.
///
/// Values are interned by bit pattern in an open-addressing table sized
/// up front, probed with a multiplicative hash. The probe stops as soon
/// as the distinct count `d` reaches the break-even point
/// `dict_block_len(n, d) >= limit`: the block length never shrinks as
/// `d` grows, so from there the dictionary can no longer win and the
/// decision equals counting every distinct value first. The caller's
/// limit is the smaller of the raw and FoR alternatives, so a continuous
/// measure whose FoR form packs below 64 bits stops sooner than it would
/// against raw alone.
fn intern(values: &Measures, limit: usize) -> Option<(Vec<f64>, Vec<u64>)> {
    const EMPTY: u32 = u32::MAX;
    let n = values.len();
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
                    if dict.len() > DICT_MAX || dict_block_len(n, dict.len()) >= limit {
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
    (dict_block_len(n, dict.len()) < limit).then_some((dict, indices))
}

/// The v3 values block the slow way, as the byte-identity reference for
/// the writer: count every distinct bit pattern and the FoR frame first,
/// then pick the smallest form (ties: raw, dict, FoR), then build the
/// first-occurrence dictionary by linear search.
#[cfg(test)]
pub(crate) fn reference_values_v3(values: &[f64]) -> Vec<u8> {
    let n = values.len();
    let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    let mut distinct = bits.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let d = distinct.len();
    let dict_width = if d == 0 {
        0
    } else {
        PackedInts::width_for(d as u64 - 1)
    };
    let dict_len = if d <= DICT_MAX {
        1 + 4 + d * 8 + 1 + PackedInts::byte_len(n, dict_width)
    } else {
        usize::MAX
    };
    let base = distinct.first().copied().unwrap_or(0);
    let for_width = PackedInts::width_for(distinct.last().copied().unwrap_or(0) - base);
    let for_len = 1 + 8 + 1 + PackedInts::byte_len(n, for_width);
    let raw_len = 1 + n * 8;
    let best = raw_len.min(dict_len).min(for_len);
    let mut out = BytesMut::new();
    if raw_len == best {
        out.put_u8(VALUES_RAW);
        for &v in values {
            out.put_f64_le(v);
        }
    } else if dict_len == best {
        let mut dict: Vec<u64> = Vec::new();
        let mut indices = Vec::new();
        for &b in &bits {
            let i = match dict.iter().position(|&x| x == b) {
                Some(i) => i,
                None => {
                    dict.push(b);
                    dict.len() - 1
                }
            };
            indices.push(i as u64);
        }
        out.put_u8(VALUES_DICT);
        out.put_u32_le(d as u32);
        for &b in &dict {
            out.put_u64_le(b);
        }
        out.put_u8(dict_width as u8);
        out.put_slice(PackedInts::pack(&indices, dict_width).as_bytes());
    } else {
        let offsets: Vec<u64> = bits.iter().map(|&b| b - base).collect();
        out.put_u8(VALUES_FOR);
        out.put_u64_le(base);
        out.put_u8(for_width as u8);
        out.put_slice(PackedInts::pack(&offsets, for_width).as_bytes());
    }
    out.to_vec()
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

    /// `d` distinct values, all awkward: NaNs with different payloads and
    /// signs, both zeros, infinities, then ordinary numbers. The signs
    /// mix, so the FoR form never wins and raw is the alternative.
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

    /// `d` distinct values of one sign in `[1, 1.9375]`, both ends always
    /// present from `d = 2` on: the FoR form has width 52 whatever `d`
    /// is, so it is the alternative the dictionary must beat.
    fn one_sign_pool(d: usize) -> Vec<f64> {
        let mut pool = vec![1.0, 1.9375];
        pool.extend((1..d.saturating_sub(1)).map(|i| 1.0 + i as f64 / f64::from(1 << 20)));
        pool.truncate(d);
        pool
    }

    /// A generator of `d` distinct values.
    type Pool = fn(usize) -> Vec<f64>;

    /// `n` values over exactly `d` distinct ones of `pool`, first
    /// occurrences scattered by a stride coprime to `d`.
    fn column(n: usize, d: usize, stride: usize, pool: Pool) -> Vec<f64> {
        let pool = pool(d);
        let mut values: Vec<f64> = (0..n).map(|i| pool[(i * stride) % d]).collect();
        // Every pool entry appears at least once.
        values[..d].copy_from_slice(&pool);
        values.rotate_left(n / 3);
        values
    }

    /// Smallest distinct count at which the dictionary block is no longer
    /// shorter than `limit` bytes.
    fn break_even(n: usize, limit: usize) -> usize {
        (1..=n)
            .find(|&d| dict_block_len(n, d) >= limit)
            .expect("n distinct values never dictionary-code")
    }

    /// The encoder's bytes and tag equal the count-then-pick reference.
    fn assert_matches_reference(values: &[f64], want: Option<u8>, what: &str) {
        let m = Measures::Raw(values.to_vec());
        let mut got = BytesMut::new();
        let tag = m.encode_v3_into(&mut got);
        assert_eq!(got[0], tag, "{what}");
        if let Some(want) = want {
            assert_eq!(tag, want, "{what}");
        }
        assert_eq!(&got[..], &reference_values_v3(values)[..], "{what}");
        let back = Measures::decode_v3(values.len(), &mut got.freeze()).unwrap();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(back.get(i).to_bits(), v.to_bits(), "{what}: value {i}");
        }
    }

    /// The early-exit probe chooses exactly what counting every distinct
    /// value first would, down to the byte, at the break-even distinct
    /// count and one either side — against raw for mixed-sign columns,
    /// against FoR for one-sign columns.
    #[test]
    fn early_exit_codec_matches_count_then_decide() {
        for n in [9usize, 64, 100, 777, 1500] {
            let raw_len = 1 + n * 8;
            let for_len = for_block_len(n, 52);
            let cases: [(Pool, usize, u8); 2] = [
                (distinct_pool, raw_len, VALUES_RAW),
                (one_sign_pool, raw_len.min(for_len + 1), VALUES_FOR),
            ];
            for (pool, limit, loser) in cases {
                let d0 = break_even(n, limit);
                for (d, want) in [(d0 - 1, VALUES_DICT), (d0, loser), (d0 + 1, loser)] {
                    if d > n || d < 2 {
                        continue;
                    }
                    for stride in [1usize, 7] {
                        let stride = if d % stride == 0 { 1 } else { stride };
                        let values = column(n, d, stride, pool);
                        let what = format!("n={n} d={d} (break-even {d0})");
                        assert_matches_reference(&values, Some(want), &what);
                    }
                }
            }
        }
    }

    /// When the dictionary and FoR blocks are exactly as long, the
    /// dictionary wins: ties go raw, dict, FoR.
    #[test]
    fn dict_wins_a_tie_with_for() {
        let ties: Vec<(usize, usize)> = (2..400usize)
            .flat_map(|n| (2..=n).map(move |d| (n, d)))
            .filter(|&(n, d)| {
                dict_block_len(n, d) == for_block_len(n, 52) && dict_block_len(n, d) < 1 + n * 8
            })
            .take(5)
            .collect();
        assert!(!ties.is_empty(), "no dict/FoR tie below n=400");
        for (n, d) in ties {
            let values = column(n, d, 1, one_sign_pool);
            assert_matches_reference(&values, Some(VALUES_DICT), &format!("tie n={n} d={d}"));
        }
    }

    /// Random columns of random cardinality, sign mix and spread agree
    /// with the reference.
    #[test]
    fn codec_choice_matches_reference_on_random_columns() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..300 {
            let n = (next() % 600) as usize;
            let d = 1 + (next() % (n as u64 + 1)) as usize;
            let pool: Vec<f64> = match round % 3 {
                0 => distinct_pool(d),
                1 => one_sign_pool(d),
                // Continuous draws of one sign over a random number of
                // binades.
                _ => {
                    let scale = f64::from(1u32 << (next() % 20));
                    (0..d)
                        .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 * scale + 0.5)
                        .collect()
                }
            };
            let values: Vec<f64> = (0..n).map(|_| pool[(next() % d as u64) as usize]).collect();
            assert_matches_reference(&values, None, &format!("n={n} d={d}"));
        }
    }

    /// Re-emitting a raw or FoR block without the probe gives the same
    /// bytes.
    #[test]
    fn raw_reencode_skips_probe_with_identical_bytes() {
        let mixed = Measures::Raw((0..300).map(|i| f64::from(i - 150) * 0.1).collect());
        let mut probed = BytesMut::new();
        assert_eq!(mixed.encode_v3_into(&mut probed), VALUES_RAW);
        let mut direct = BytesMut::new();
        mixed.encode_raw_v3_into(&mut direct);
        assert_eq!(probed, direct);

        let positive = Measures::Raw((0..300).map(|i| f64::from(i) * 0.1 + 0.5).collect());
        let mut probed = BytesMut::new();
        assert_eq!(positive.encode_v3_into(&mut probed), VALUES_FOR);
        let mut direct = BytesMut::new();
        positive.encode_for_v3_into(&mut direct);
        assert_eq!(probed, direct);
    }

    /// The streaming packer lays bits out exactly like `PackedInts::pack`.
    #[test]
    fn put_packed_matches_packed_ints() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for width in 0..=64u32 {
            for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 130] {
                let values: Vec<u64> = (0..n)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if width == 64 {
                            x
                        } else {
                            x & ((1u64 << width) - 1)
                        }
                    })
                    .collect();
                let mut buf = BytesMut::new();
                put_packed(&mut buf, values.iter().copied(), width);
                assert_eq!(
                    &buf[..],
                    PackedInts::pack(&values, width).as_bytes(),
                    "width {width} n {n}"
                );
            }
        }
    }

    /// Continuous one-sign measures take the FoR form, decode to the raw
    /// in-memory form, and shrink below raw.
    #[test]
    fn continuous_one_sign_measures_take_for() {
        let values: Vec<f64> = (0..1000).map(|i| 0.5 + f64::from(i) * 0.0101).collect();
        let m = Measures::Raw(values);
        let v3 = m.encode_v3();
        assert_eq!(v3[0], VALUES_FOR);
        assert_eq!(
            v3[9], 55,
            "0.5..10.6 spans five binades of 52 mantissa bits"
        );
        assert!(v3.len() < 1 + m.len() * 8);
        let back = Measures::decode_v3(m.len(), &mut v3.clone()).unwrap();
        assert!(back.raw_slice().is_some(), "FoR decodes to the raw form");
        assert_eq!(back, m);
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

    /// Mixed-sign continuous measures span the whole bit-pattern range, so
    /// neither compressed form beats raw.
    #[test]
    fn high_cardinality_measures_stay_raw() {
        let values: Vec<f64> = (0..1000).map(|i| f64::from(i - 500) * 0.123).collect();
        let m = Measures::Raw(values.clone());
        let v3 = m.encode_v3();
        assert_eq!(v3[0], VALUES_RAW);
        assert_eq!(v3.len(), 1 + m.len() * 8);
        round_trip_v3(values);
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
    fn decode_rejects_bad_for_blocks() {
        let m = Measures::Raw((0..100).map(|i| 2.0 + f64::from(i) * 0.01).collect());
        let bytes = m.encode_v3();
        assert_eq!(bytes[0], VALUES_FOR);
        for cut in 0..bytes.len() {
            assert!(
                Measures::decode_v3(100, &mut bytes.slice(..cut)).is_err(),
                "cut at {cut} decoded"
            );
        }
        let block = |base: u64, width: u8, packed: &[u8]| {
            let mut b = BytesMut::new();
            b.put_u8(VALUES_FOR);
            b.put_u64_le(base);
            b.put_u8(width);
            b.put_slice(packed);
            b.freeze()
        };
        // Width beyond 64 bits.
        assert!(Measures::decode_v3(1, &mut block(0, 65, &[0; 9])).is_err());
        // base + offset past u64::MAX.
        assert!(Measures::decode_v3(1, &mut block(u64::MAX, 8, &[1])).is_err());
        assert!(Measures::decode_v3(1, &mut block(u64::MAX, 8, &[0])).is_ok());
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
