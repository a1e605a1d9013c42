//! Slow-query log export: CRC-framed line records, the same crash story
//! as the WAL.
//!
//! The serve layer appends one JSON line per over-threshold request to a
//! slowlog file. A plain text file would leave a torn last line
//! indistinguishable from a valid one after a crash; framing each line as
//! `[magic u32][payload_len u32][crc32 u32][payload]` (little-endian, the
//! WAL's exact layout with its own magic) lets a reader stop cleanly at
//! the first torn frame — every acknowledged entry sits in front of it.
//!
//! The codec here is pure bytes-in/bytes-out: `obs` has no filesystem
//! access and no dependency on the columnstore's `Vfs`, so the caller
//! appends [`frame_line`] output through whatever I/O layer it owns and
//! hands the raw file contents back to [`read_lines`].

/// `"GBSL"` — graph-BI slow log. Distinct from the WAL's `"GBWL"` so a
/// misrouted file is detected as torn at frame zero.
pub const SLOWLOG_MAGIC: u32 = 0x4742_534c;

/// CRC32 (IEEE 802.3, the zlib polynomial), slicing-by-8. This is the
/// repository's one CRC-32: `obs` depends on nothing, so the columnstore
/// (`graphbi_columnstore::vfs::crc32` re-exports it) and the wire codec
/// use it from here.
///
/// Eight 256-entry tables let the loop fold eight input bytes per step
/// with independent lookups instead of one byte per dependent lookup;
/// `TABLES[0]` is the classic bytewise table and finishes the tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: [[u32; 256]; 8] = crc32_tables();
    let t = &TABLES;
    let mut c = 0xffff_ffffu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// `t[0]` is the reflected bytewise table; `t[k][i]` is the CRC of byte
/// `i` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Encodes one line as a self-checking frame ready to append. Any
/// trailing newline is part of the payload the caller chose; none is
/// added.
pub fn frame_line(line: &str) -> Vec<u8> {
    let payload = line.as_bytes();
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&SLOWLOG_MAGIC.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Decodes every intact frame, in order. Scanning stops — without error —
/// at the first torn frame (bad magic, truncated length, CRC mismatch,
/// or non-UTF-8 payload): by the append-only contract of the writer that
/// can only be an unacknowledged suffix.
pub fn read_lines(bytes: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= 12 {
        let magic = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().expect("4 bytes"));
        if magic != SLOWLOG_MAGIC || bytes.len() - at - 12 < len {
            break;
        }
        let payload = &bytes[at + 12..at + 12 + len];
        if crc32(payload) != crc {
            break;
        }
        let Ok(line) = std::str::from_utf8(payload) else {
            break;
        };
        out.push(line.to_owned());
        at += 12 + len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise definition, one input bit at a time.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xffff_ffff
    }

    /// Slicing-by-8 agrees with the bitwise CRC on random lengths
    /// 0..=4096 and on subslices starting at every alignment, so the
    /// 8-byte main loop and the bytewise tail meet correctly.
    #[test]
    fn slicing_by_8_matches_bitwise_reference() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let data: Vec<u8> = (0..4096 + 16).map(|_| next() as u8).collect();
        for len in (0..=64).chain([4095, 4096]) {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
        for _ in 0..300 {
            let len = (next() % 4097) as usize;
            let start = (next() % 16) as usize;
            let s = &data[start..start + len];
            assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
        }
    }

    #[test]
    fn lines_round_trip() {
        let lines = ["{\"rid\":1}", "", "{\"rid\":2,\"msg\":\"sl\\\"ow\"}"];
        let mut file = Vec::new();
        for l in &lines {
            file.extend_from_slice(&frame_line(l));
        }
        assert_eq!(read_lines(&file), lines);
    }

    #[test]
    fn torn_tail_stops_at_last_intact_frame() {
        let mut file = Vec::new();
        file.extend_from_slice(&frame_line("{\"rid\":1}"));
        file.extend_from_slice(&frame_line("{\"rid\":2}"));
        let last = frame_line("{\"rid\":3}");
        for cut in 0..last.len() {
            let mut torn = file.clone();
            torn.extend_from_slice(&last[..cut]);
            assert_eq!(read_lines(&torn).len(), 2, "cut at {cut}");
        }
        // A flipped payload byte in the middle cuts from that frame on.
        let mut corrupt = file.clone();
        corrupt[12] ^= 0xff;
        assert!(read_lines(&corrupt).is_empty());
        // Wrong magic (e.g. a WAL file fed in by mistake) reads as empty.
        let mut wrong = file;
        wrong[0] ^= 0x01;
        assert!(read_lines(&wrong).is_empty());
    }
}
