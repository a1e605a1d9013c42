//! CRC32-framed write-ahead log for delta commits.
//!
//! Each commit becomes one frame appended to `wal.gbl` (a name that does
//! not parse as a generation file, so generation GC never touches it)
//! followed by an fsync — the commit is durable exactly when that fsync
//! returns. A frame is `[magic u32][payload_len u32][crc32 u32][payload]`
//! (all little-endian), with the payload carrying the commit epoch and
//! its operations. Replay scans frames in order and stops at the first
//! torn one — bad magic, truncation, CRC mismatch, or a non-increasing
//! epoch — which by the append-only [`Vfs::append`] contract can only be
//! an unacknowledged suffix: every acknowledged commit sits in front of
//! it. Compaction folds committed epochs into a new generation and then
//! [`truncate`]s the log.
//!
//! ```text
//! payload := epoch u64, n_ops u32, op × n_ops
//! op      := tag u8 (0 insert, 1 update, 2 insert, 3 update),
//!            [rid u64 when the tag is 1 or 3], record
//! record  (tags 0, 1) := n u32, (edge u32, measure f64) × n
//! record  (tags 2, 3) := n u32, [first edge u32,
//!                        (n − 1) × LEB128 gap ≥ 1 to the next edge id],
//!                        v3 values block of n measures
//! ```
//!
//! The writer emits tags 2 and 3: a record's edge ids ascend, so the gaps
//! take a byte or two each, and its measures go through the same values
//! codec as the part files ([`crate::codec`]: raw, dictionary or
//! frame-of-reference, the smallest wins). Replay still reads tags 0 and
//! 1, so a log written before the compact record layout replays
//! unchanged, and both layouts may sit in one log.

use std::io;
use std::path::Path;

use bytes::{BufMut, BytesMut};
use graphbi_graph::{EdgeId, GraphRecord, RecordBuilder};

use crate::codec::Measures;
use crate::delta::DeltaOp;
use crate::vfs::{crc32, Vfs};

/// WAL file name inside a store directory. Deliberately not of the
/// `g{gen}-…` form so [`crate::persist`] garbage collection ignores it.
pub const WAL_FILE: &str = "wal.gbl";

/// `"GBWL"` — graph-BI write-ahead log.
const WAL_MAGIC: u32 = 0x4742_574c;

/// Op tags of the fixed-width record layout (read only).
const TAG_INSERT_FIXED: u8 = 0;
const TAG_UPDATE_FIXED: u8 = 1;
/// Op tags of the compact record layout (gap-coded edges, v3 values).
const TAG_INSERT: u8 = 2;
const TAG_UPDATE: u8 = 3;

/// Encodes one commit as a self-checking frame.
pub fn encode_frame(epoch: u64, ops: &[DeltaOp]) -> Vec<u8> {
    let mut payload = BytesMut::with_capacity(16 + ops.len() * 32);
    payload.put_u64_le(epoch);
    payload.put_u32_le(ops.len() as u32);
    for op in ops {
        match op {
            DeltaOp::Insert(rec) => {
                payload.put_u8(TAG_INSERT);
                encode_record(&mut payload, rec);
            }
            DeltaOp::Update(rid, rec) => {
                payload.put_u8(TAG_UPDATE);
                payload.put_u64_le(u64::from(*rid));
                encode_record(&mut payload, rec);
            }
        }
    }
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&WAL_MAGIC.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Writes a record in the compact layout: edge count, first edge id,
/// LEB128 gaps, then the measures as one v3 values block.
fn encode_record(out: &mut BytesMut, rec: &GraphRecord) {
    let edges = rec.edges();
    out.put_u32_le(edges.len() as u32);
    if let Some(&(first, _)) = edges.first() {
        out.put_u32_le(first.0);
        for w in edges.windows(2) {
            let mut gap = w[1].0 .0 - w[0].0 .0;
            while gap >= 0x80 {
                out.put_u8((gap & 0x7f) as u8 | 0x80);
                gap >>= 7;
            }
            out.put_u8(gap as u8);
        }
    }
    Measures::Raw(edges.iter().map(|&(_, m)| m).collect()).encode_v3_into(out);
}

/// Appends one commit frame and fsyncs it — the durability point of a
/// delta commit. Returns the frame size in bytes. Any error here means
/// the commit may or may not have reached disk; the caller must treat the
/// log tail as suspect until a successful replay or truncation.
pub fn append_commit(vfs: &dyn Vfs, path: &Path, epoch: u64, ops: &[DeltaOp]) -> io::Result<u64> {
    let frame = encode_frame(epoch, ops);
    vfs.append(path, &frame)?;
    vfs.fsync(path)?;
    Ok(frame.len() as u64)
}

/// Replays every intact frame, in order, as `(epoch, ops)` pairs.
///
/// A missing file is an empty log. Scanning stops — without error — at
/// the first frame that fails validation (bad magic, truncated length,
/// CRC mismatch, or an epoch not above its predecessor): that is the
/// torn unacknowledged tail the crash model permits.
pub fn replay(vfs: &dyn Vfs, path: &Path) -> io::Result<Vec<(u64, Vec<DeltaOp>)>> {
    let bytes = match vfs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut commits = Vec::new();
    let mut at = 0usize;
    let mut last_epoch = 0u64;
    while bytes.len() - at >= 12 {
        let magic = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let len = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap());
        if magic != WAL_MAGIC || bytes.len() - at - 12 < len {
            break;
        }
        let payload = &bytes[at + 12..at + 12 + len];
        if crc32(payload) != crc {
            break;
        }
        let Some((epoch, ops)) = decode_payload(payload) else {
            break;
        };
        // Epochs strictly increase within one log (commits are epoch ≥ 1,
        // so the initial 0 accepts any first frame); anything else is a
        // stale frame past a truncation tear.
        if epoch <= last_epoch {
            break;
        }
        last_epoch = epoch;
        commits.push((epoch, ops));
        at += 12 + len;
    }
    Ok(commits)
}

fn decode_payload(payload: &[u8]) -> Option<(u64, Vec<DeltaOp>)> {
    let mut r = Reader {
        bytes: payload,
        at: 0,
    };
    let epoch = r.u64()?;
    let n_ops = r.u32()? as usize;
    let mut ops = Vec::with_capacity(n_ops.min(payload.len()));
    for _ in 0..n_ops {
        let tag = r.u8()?;
        let rid = match tag {
            TAG_UPDATE | TAG_UPDATE_FIXED => Some(u32::try_from(r.u64()?).ok()?),
            TAG_INSERT | TAG_INSERT_FIXED => None,
            _ => return None,
        };
        let rec = if tag == TAG_INSERT || tag == TAG_UPDATE {
            r.compact_record()?
        } else {
            r.fixed_record()?
        };
        ops.push(match rid {
            Some(rid) => DeltaOp::Update(rid, rec),
            None => DeltaOp::Insert(rec),
        });
    }
    (r.at == payload.len()).then_some((epoch, ops))
}

/// Bounds-checked little-endian cursor over one frame payload; every read
/// is `None` past the end.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let b = self.bytes.get(self.at..self.at + N)?.try_into().ok()?;
        self.at += N;
        Some(b)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    /// An unsigned LEB128 value that fits `u32`.
    fn leb128(&mut self) -> Option<u32> {
        let mut v = 0u64;
        for shift in (0..35).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return u32::try_from(v).ok();
            }
        }
        None
    }

    /// A record in the fixed-width layout of tags 0 and 1.
    fn fixed_record(&mut self) -> Option<GraphRecord> {
        let n = self.u32()? as usize;
        let mut b = RecordBuilder::with_capacity(n.min(self.bytes.len() / 12));
        for _ in 0..n {
            let e = self.u32()?;
            let m = f64::from_bits(self.u64()?);
            b.add(EdgeId(e), m);
        }
        Some(b.build())
    }

    /// A record in the compact layout of tags 2 and 3. Gaps must be at
    /// least 1 (edge ids strictly ascend) and the ids must fit `u32`.
    fn compact_record(&mut self) -> Option<GraphRecord> {
        let n = self.u32()? as usize;
        // Each gap takes at least one byte, which bounds any honest `n`.
        if n > self.bytes.len() - self.at + 1 {
            return None;
        }
        let mut edges = Vec::with_capacity(n);
        if n > 0 {
            let mut e = self.u32()?;
            edges.push(e);
            for _ in 1..n {
                let gap = self.leb128()?;
                if gap == 0 {
                    return None;
                }
                e = e.checked_add(gap)?;
                edges.push(e);
            }
        }
        let mut rest = &self.bytes[self.at..];
        let values = Measures::decode_v3(n, &mut rest).ok()?;
        self.at = self.bytes.len() - rest.len();
        let mut b = RecordBuilder::with_capacity(n);
        for (e, m) in edges.into_iter().zip(values.iter()) {
            b.add(EdgeId(e), m);
        }
        Some(b.build())
    }
}

/// Empties the log after compaction has folded its epochs into a
/// generation. Durable once the fsync returns.
pub fn truncate(vfs: &dyn Vfs, path: &Path) -> io::Result<()> {
    vfs.write(path, &[])?;
    vfs.fsync(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultVfs;
    use std::path::PathBuf;

    fn rec(pairs: &[(u32, f64)]) -> GraphRecord {
        let mut b = RecordBuilder::new();
        for &(e, m) in pairs {
            b.add(EdgeId(e), m);
        }
        b.build()
    }

    fn sample_commits() -> Vec<(u64, Vec<DeltaOp>)> {
        vec![
            (1, vec![DeltaOp::Insert(rec(&[(0, 1.5), (3, 2.0)]))]),
            (
                2,
                vec![
                    DeltaOp::Update(7, rec(&[(1, 4.0)])),
                    DeltaOp::Insert(rec(&[(2, 8.0)])),
                ],
            ),
            (5, vec![]),
        ]
    }

    fn assert_same(a: &[(u64, Vec<DeltaOp>)], b: &[(u64, Vec<DeltaOp>)]) {
        assert_eq!(a.len(), b.len());
        for ((ea, oa), (eb, ob)) in a.iter().zip(b) {
            assert_eq!(ea, eb);
            assert_eq!(oa.len(), ob.len());
            for (x, y) in oa.iter().zip(ob) {
                match (x, y) {
                    (DeltaOp::Insert(rx), DeltaOp::Insert(ry)) => {
                        assert_eq!(rx.edges(), ry.edges())
                    }
                    (DeltaOp::Update(ix, rx), DeltaOp::Update(iy, ry)) => {
                        assert_eq!(ix, iy);
                        assert_eq!(rx.edges(), ry.edges());
                    }
                    _ => panic!("op kind mismatch"),
                }
            }
        }
    }

    #[test]
    fn commits_round_trip_and_truncate_clears() {
        let vfs = FaultVfs::new(3);
        let path = PathBuf::from("/wal/wal.gbl");
        assert!(replay(&vfs, &path).unwrap().is_empty());
        let commits = sample_commits();
        for (epoch, ops) in &commits {
            append_commit(&vfs, &path, *epoch, ops).unwrap();
        }
        assert_same(&replay(&vfs, &path).unwrap(), &commits);
        // Replay does not consume the log.
        assert_same(&replay(&vfs, &path).unwrap(), &commits);
        truncate(&vfs, &path).unwrap();
        assert!(replay(&vfs, &path).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_stops_replay_at_last_intact_frame() {
        let vfs = FaultVfs::new(9);
        let path = PathBuf::from("/wal/wal.gbl");
        let commits = sample_commits();
        for (epoch, ops) in &commits {
            append_commit(&vfs, &path, *epoch, ops).unwrap();
        }
        let full = vfs.read(&path).unwrap();
        let last = encode_frame(7, &[DeltaOp::Insert(rec(&[(4, 1.0)]))]);
        for cut in 1..last.len() {
            vfs.write(&path, &full).unwrap();
            vfs.append(&path, &last[..cut]).unwrap();
            assert_same(&replay(&vfs, &path).unwrap(), &commits);
        }
        vfs.write(&path, &full).unwrap();
        vfs.append(&path, &last).unwrap();
        assert_eq!(replay(&vfs, &path).unwrap().len(), commits.len() + 1);
    }

    #[test]
    fn corrupt_byte_cuts_replay_from_that_frame_on() {
        let vfs = FaultVfs::new(11);
        let path = PathBuf::from("/wal/wal.gbl");
        for (epoch, ops) in &sample_commits() {
            append_commit(&vfs, &path, *epoch, ops).unwrap();
        }
        let f1 = encode_frame(1, &sample_commits()[0].1);
        // Flip a byte inside the second frame's payload: first frame
        // survives, the rest is treated as torn.
        vfs.corrupt_at(&path, f1.len() + 14);
        assert_eq!(replay(&vfs, &path).unwrap().len(), 1);
    }

    /// One frame in the fixed-width record layout (op tags 0 and 1), as a
    /// writer before the compact layout produced it: epoch 3, an insert of
    /// `{0: 1.5, 3: -0.0}` and an update of record 7 to
    /// `{1: NaN (payload 1), 2: +inf}`.
    const FIXED_LAYOUT_FRAME: [u8; 90] = [
        0x4c, 0x57, 0x42, 0x47, 0x4e, 0x00, 0x00, 0x00, 0x9e, 0xec, 0x3a, 0x55, 0x03, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x03, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
        0x00, 0xf8, 0x7f, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x7f,
    ];

    fn fixture_ops() -> Vec<DeltaOp> {
        vec![
            DeltaOp::Insert(rec(&[(0, 1.5), (3, -0.0)])),
            DeltaOp::Update(
                7,
                rec(&[
                    (1, f64::from_bits(0x7ff8_0000_0000_0001)),
                    (2, f64::INFINITY),
                ]),
            ),
        ]
    }

    /// An op's record id (updates) and its edges with measure bit patterns.
    type OpBits = (Option<u32>, Vec<(u32, u64)>);

    /// Edge ids and measure bit patterns of every op, for comparisons that
    /// must hold for NaNs and signed zeros too.
    fn op_bits(ops: &[DeltaOp]) -> Vec<OpBits> {
        ops.iter()
            .map(|op| {
                let (rid, r) = match op {
                    DeltaOp::Insert(r) => (None, r),
                    DeltaOp::Update(rid, r) => (Some(*rid), r),
                };
                let edges = r.edges().iter().map(|&(e, m)| (e.0, m.to_bits()));
                (rid, edges.collect())
            })
            .collect()
    }

    #[test]
    fn fixed_layout_fixture_replays_unchanged() {
        let vfs = FaultVfs::new(17);
        let path = PathBuf::from("/wal/wal.gbl");
        vfs.append(&path, &FIXED_LAYOUT_FRAME).unwrap();
        let got = replay(&vfs, &path).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 3);
        assert_eq!(op_bits(&got[0].1), op_bits(&fixture_ops()));
    }

    #[test]
    fn fixed_and_compact_frames_replay_in_order_from_one_log() {
        let vfs = FaultVfs::new(19);
        let path = PathBuf::from("/wal/wal.gbl");
        vfs.append(&path, &FIXED_LAYOUT_FRAME).unwrap();
        let later = vec![
            DeltaOp::Insert(rec(&[(5, 2.25), (700, 3.5), (70_000, 4.75)])),
            DeltaOp::Update(2, rec(&[(0, -1.0), (1, 1.0)])),
        ];
        append_commit(&vfs, &path, 4, &later).unwrap();
        let frame = encode_frame(4, &later);
        assert_eq!(frame[24], TAG_INSERT, "the writer emits the compact layout");
        let got = replay(&vfs, &path).unwrap();
        assert_eq!(got.iter().map(|c| c.0).collect::<Vec<_>>(), [3, 4]);
        assert_eq!(op_bits(&got[0].1), op_bits(&fixture_ops()));
        assert_eq!(op_bits(&got[1].1), op_bits(&later));
    }

    /// The compact layout round-trips awkward values and wide gaps, and
    /// takes fewer bytes than the fixed-width one on a typical record.
    #[test]
    fn compact_records_round_trip_and_shrink() {
        let wide = rec(&[(0, 0.5), (1, 0.75), (200, 1.0), (u32::MAX, 10.25)]);
        let awkward = rec(&[
            (3, f64::from_bits(0x7ff8_0000_0000_0001)),
            (4, -0.0),
            (9, f64::NEG_INFINITY),
        ]);
        let typical = rec(&(0..67u32)
            .map(|i| (i * 15, 0.5 + f64::from(i * 37 % 100) / 10.0))
            .collect::<Vec<_>>());
        let ops = vec![
            DeltaOp::Insert(wide),
            DeltaOp::Update(9, awkward),
            DeltaOp::Insert(rec(&[])),
            DeltaOp::Insert(typical.clone()),
        ];
        let frame = encode_frame(1, &ops);
        let (epoch, back) = decode_payload(&frame[12..]).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(op_bits(&back), op_bits(&ops));
        let compact = encode_frame(1, &[DeltaOp::Insert(typical)]).len();
        let fixed = 12 + 8 + 4 + 1 + 4 + 67 * 12;
        assert!(compact * 4 < fixed * 3, "{compact} vs {fixed} bytes");
    }

    #[test]
    fn compact_records_reject_zero_gaps_and_id_overflow() {
        let payload = |gap: &[u8]| {
            let mut p = BytesMut::new();
            p.put_u64_le(1);
            p.put_u32_le(1);
            p.put_u8(TAG_INSERT);
            p.put_u32_le(2);
            p.put_u32_le(u32::MAX - 1);
            p.put_slice(gap);
            Measures::Raw(vec![1.0, 2.0]).encode_v3_into(&mut p);
            p.to_vec()
        };
        assert!(decode_payload(&payload(&[1])).is_some());
        assert!(decode_payload(&payload(&[0])).is_none(), "zero gap");
        assert!(decode_payload(&payload(&[2])).is_none(), "id past u32::MAX");
        assert!(
            decode_payload(&payload(&[0x81])).is_none(),
            "unterminated gap"
        );
        // An edge count no payload could hold is rejected before any
        // allocation.
        let mut huge = payload(&[1]);
        huge[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_payload(&huge).is_none());
    }

    #[test]
    fn epoch_regression_is_a_tear() {
        let vfs = FaultVfs::new(13);
        let path = PathBuf::from("/wal/wal.gbl");
        append_commit(&vfs, &path, 4, &[DeltaOp::Insert(rec(&[(0, 1.0)]))]).unwrap();
        append_commit(&vfs, &path, 4, &[DeltaOp::Insert(rec(&[(1, 2.0)]))]).unwrap();
        assert_eq!(replay(&vfs, &path).unwrap().len(), 1);
    }
}
