//! Codec property tests (format v3): encode→decode round-trip identity
//! for every codec over adversarial inputs, and cross-codec agreement —
//! every answer computed through a compressed path must be bit-identical
//! to the raw path. No tolerance anywhere: compression is a storage
//! transform, not an approximation.

use bytes::Bytes;
use graphbi_bitmap::intcodec::EliasFano;
use graphbi_bitmap::Bitmap;
use graphbi_columnstore::codec::{
    gallop_intersect, PackedInts, VALUES_DICT, VALUES_FOR, VALUES_RAW,
};
use graphbi_columnstore::{ColumnBuilder, SparseColumn};
use proptest::prelude::*;

/// Deterministic xorshift64* — fixed-seed adversarial inputs, no flaky
/// randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The adversarial bitmap corpus: container-form edges, chunk boundaries,
/// the u32 ceiling, dense runs, and seeded mixtures.
fn bitmap_corpus() -> Vec<(&'static str, Bitmap)> {
    let mut corpus: Vec<(&'static str, Vec<u32>)> = vec![
        ("empty", vec![]),
        ("single-zero", vec![0]),
        ("single-chunk-max", vec![65_535]),
        ("single-chunk-next", vec![65_536]),
        ("single-u32-max", vec![u32::MAX]),
        ("pair-extremes", vec![0, u32::MAX]),
        ("chunk-edge-straddle", vec![65_534, 65_535, 65_536, 65_537]),
        (
            "multi-chunk-multiples",
            (1..6u32).map(|k| k * 65_536).collect(),
        ),
        (
            "multi-chunk-multiples-minus-one",
            (1..6u32).map(|k| k * 65_536 - 1).collect(),
        ),
        ("dense-run", (0..10_000u32).collect()),
        ("full-chunk", (0..65_536u32).collect()),
        (
            "run-of-runs",
            (0..5_000u32).filter(|v| v % 100 < 60).collect(),
        ),
        ("arithmetic-sparse", (0..4_000u32).map(|i| i * 97).collect()),
        ("array-max", (0..4_096u32).map(|i| i * 3).collect()),
        ("array-max-plus-one", (0..4_097u32).map(|i| i * 3).collect()),
        (
            "tail-of-universe",
            (0..1_000u32).map(|i| u32::MAX - i * 7).rev().collect(),
        ),
    ];
    let mut rng = Rng(0x5eed_c0de);
    let mut mixed = Vec::new();
    for _ in 0..3_000 {
        // Clustered around chunk boundaries and spread across chunks.
        let base = rng.below(8) * 65_536;
        mixed.push((base + rng.below(200)).min(u64::from(u32::MAX)) as u32);
        mixed.push(rng.below(1 << 20) as u32);
    }
    mixed.sort_unstable();
    mixed.dedup();
    corpus.push(("seeded-mixture", mixed.leak().to_vec()));

    corpus
        .into_iter()
        .map(|(name, vals)| {
            let mut b = Bitmap::new();
            for v in vals {
                b.insert(v);
            }
            b.optimize();
            (name, b)
        })
        .collect()
}

/// Round-trip identity: for every corpus bitmap, both the raw (v2) and the
/// compressed (v3) encodings decode back to an equal bitmap, and the v3
/// encoding never exceeds the raw one (the per-container codec choice
/// includes raw as a candidate).
#[test]
fn bitmap_v3_round_trips_and_never_grows() {
    for (name, b) in bitmap_corpus() {
        let raw = b.encode();
        let mut buf = raw.clone();
        assert_eq!(Bitmap::decode(&mut buf).unwrap(), b, "{name}: v2 trip");

        let v3 = b.encode_v3();
        let mut buf = v3.clone();
        assert_eq!(Bitmap::decode(&mut buf).unwrap(), b, "{name}: v3 trip");
        assert!(
            v3.len() <= raw.len(),
            "{name}: v3 ({}) larger than raw ({})",
            v3.len(),
            raw.len()
        );
    }
}

/// Cross-codec agreement: every query primitive answered through a bitmap
/// that went through the v3 codec is bit-identical to the original —
/// cardinality, membership, rank/select, iteration order, and the boolean
/// algebra the kernels run on.
#[test]
fn bitmap_answers_are_identical_through_v3() {
    let corpus = bitmap_corpus();
    for (name, b) in &corpus {
        let mut buf = b.encode_v3();
        let back = Bitmap::decode(&mut buf).unwrap();
        assert_eq!(back.len(), b.len(), "{name}: len");
        assert_eq!(back.to_vec(), b.to_vec(), "{name}: iteration");
        assert_eq!(back.min(), b.min(), "{name}: min");
        assert_eq!(back.max(), b.max(), "{name}: max");
        let mut rng = Rng(0xbeef ^ b.len());
        for _ in 0..64 {
            let probe = rng.next() as u32;
            assert_eq!(back.contains(probe), b.contains(probe), "{name}: contains");
            assert_eq!(back.rank(probe), b.rank(probe), "{name}: rank");
        }
        for i in [0, 1, b.len().saturating_sub(1), b.len()] {
            assert_eq!(back.select(i), b.select(i), "{name}: select({i})");
        }
    }
    // Pairwise algebra through the compressed trip.
    for (na, a) in corpus.iter().take(8) {
        for (nb, b) in corpus.iter().take(8) {
            let (mut ea, mut eb) = (a.encode_v3(), b.encode_v3());
            let (da, db) = (
                Bitmap::decode(&mut ea).unwrap(),
                Bitmap::decode(&mut eb).unwrap(),
            );
            assert_eq!(da.and(&db), a.and(b), "{na} & {nb}");
            assert_eq!(da.or(&db), a.or(b), "{na} | {nb}");
            assert_eq!(da.and_not(&db), a.and_not(b), "{na} andnot {nb}");
            assert_eq!(da.and_len(&db), a.and_len(b), "{na} and_len {nb}");
        }
    }
}

/// The fused kernel: galloping intersection directly over two Elias-Fano
/// sequences (no materialization) agrees exactly with the sorted-vector
/// intersection computed in plain code.
#[test]
fn elias_fano_gallop_matches_plain_intersection() {
    let mut rng = Rng(0x009a_110b);
    let mut cases: Vec<(Vec<u64>, Vec<u64>)> = vec![
        (vec![], vec![]),
        (vec![5], vec![5]),
        (vec![5], vec![6]),
        ((0..1000).collect(), (500..1500).collect()),
        (
            (0..1000).map(|i| i * 3).collect(),
            (0..1000).map(|i| i * 7).collect(),
        ),
        (vec![0, u64::from(u32::MAX)], vec![u64::from(u32::MAX)]),
    ];
    for _ in 0..20 {
        let gen = |rng: &mut Rng| {
            let mut v: Vec<u64> = (0..rng.below(800)).map(|_| rng.below(10_000)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let a = gen(&mut rng);
        let b = gen(&mut rng);
        cases.push((a, b));
    }
    for (a, b) in cases {
        let ea = EliasFano::encode(&a);
        let eb = EliasFano::encode(&b);
        let got = gallop_intersect(&ea, &eb);
        let want: Vec<u64> = a.iter().copied().filter(|v| b.contains(v)).collect();
        assert_eq!(got, want, "a={a:?} b={b:?}");
        // And the sequences themselves round-trip through their bytes.
        let bytes = ea.to_bytes();
        assert_eq!(EliasFano::from_bytes(&bytes).unwrap().to_vec(), a);
    }
}

/// The adversarial measure corpus: codec-choice edges (low vs high
/// cardinality), IEEE754 specials that must survive bit-exactly, and
/// presence shapes from empty to dense.
fn column_corpus() -> Vec<(&'static str, SparseColumn)> {
    let mut out = Vec::new();
    let col = |pairs: Vec<(u32, f64)>| {
        let mut cb = ColumnBuilder::new();
        for (r, v) in pairs {
            cb.push(r, v);
        }
        cb.finish()
    };
    out.push(("empty", col(vec![])));
    out.push(("single", col(vec![(7, 1.25)])));
    out.push((
        "specials",
        col(vec![
            (0, f64::NAN),
            (1, -0.0),
            (2, 0.0),
            (3, f64::INFINITY),
            (4, f64::NEG_INFINITY),
            (5, f64::MIN_POSITIVE),
            (u32::MAX, f64::MAX),
        ]),
    ));
    out.push((
        "low-cardinality",
        col((0..20_000u32).map(|i| (i, f64::from(i % 7))).collect()),
    ));
    out.push((
        "two-values-dense",
        col((0..65_536u32)
            .map(|i| (i, if i % 2 == 0 { 1.0 } else { -1.0 }))
            .collect()),
    ));
    out.push((
        "high-cardinality",
        col((0..5_000u32)
            .map(|i| (i * 3, f64::from(i) * 0.001 + 1.0))
            .collect()),
    ));
    let mut rng = Rng(0x4a5f);
    out.push((
        "seeded-quantized",
        col((0..10_000u32)
            .map(|i| (i * 2, (rng.below(50) as f64) * 0.5))
            .collect()),
    ));
    out
}

/// Round-trip identity for the measure codec, with every float compared by
/// bit pattern — NaN payloads and the sign of zero included.
#[test]
fn measures_v3_round_trip_bit_exactly() {
    for (name, c) in column_corpus() {
        let mut buf = c.encode_v3();
        let back = SparseColumn::decode_v3(&mut buf).unwrap();
        assert_eq!(back.presence(), c.presence(), "{name}: presence");
        assert_eq!(back.non_null_count(), c.non_null_count(), "{name}: count");
        let (want, got): (Vec<_>, Vec<_>) = (c.iter().collect(), back.iter().collect());
        for ((wr, wv), (gr, gv)) in want.iter().zip(&got) {
            assert_eq!(wr, gr, "{name}: record ids");
            assert_eq!(wv.to_bits(), gv.to_bits(), "{name}: value bits at {wr}");
        }
        assert_eq!(want.len(), got.len(), "{name}: value count");
    }
}

/// Cross-codec agreement on the query surface: `get`, `gather`, and the
/// streaming `fold_over` (which on dictionary-coded columns reads packed
/// indices directly, never materializing a raw vector) answer bit-
/// identically before and after the compressed trip.
#[test]
fn measure_queries_are_identical_through_v3() {
    for (name, c) in column_corpus() {
        let mut buf = c.encode_v3();
        let back = SparseColumn::decode_v3(&mut buf).unwrap();
        let mut rng = Rng(0xfee1 ^ c.non_null_count() as u64);
        for _ in 0..64 {
            let probe = rng.next() as u32;
            assert_eq!(
                back.get(probe).map(f64::to_bits),
                c.get(probe).map(f64::to_bits),
                "{name}: get({probe})"
            );
        }
        let ids = c.presence().clone();
        let (want, got) = (c.gather(&ids), back.gather(&ids));
        assert_eq!(want.len(), got.len(), "{name}: gather len");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), g.to_bits(), "{name}: gather bits");
        }
        let mut folded_raw = Vec::new();
        let mut folded_v3 = Vec::new();
        c.fold_over(&ids, |v| folded_raw.push(v.to_bits()));
        back.fold_over(&ids, |v| folded_v3.push(v.to_bits()));
        assert_eq!(folded_raw, folded_v3, "{name}: fold_over stream");
    }
}

/// Truncation sweep over whole-column v3 encodings: cutting the buffer at
/// any point must yield a typed error, never a panic or a wrong column.
#[test]
fn column_v3_rejects_every_truncation() {
    for (name, c) in column_corpus().into_iter().take(5) {
        let full = c.encode_v3();
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            if let Ok(back) = SparseColumn::decode_v3(&mut buf) {
                // A prefix that still parses must be the intact column
                // (possible only when trailing bytes were going unread).
                assert_eq!(back, c, "{name}: truncation at {cut} parsed differently");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Values codec choice and the frame-of-reference form (tag 2).

/// The v3 values block of `values` as the writer emits it: the column
/// over records `0..n`, encoded, with its presence bitmap stripped.
fn values_block(values: &[f64]) -> Vec<u8> {
    let presence: Bitmap = (0..values.len() as u32).collect();
    let skip = presence.encode_v3().len();
    SparseColumn::from_parts(presence, values.to_vec()).encode_v3()[skip..].to_vec()
}

/// Decodes a values block of `n` values, as bit patterns.
fn decode_block(n: usize, block: &[u8]) -> Result<Vec<u64>, String> {
    let presence: Bitmap = (0..n as u32).collect();
    let col = SparseColumn::decode_values_v3(presence, &mut Bytes::from(block.to_vec()))
        .map_err(|e| e.to_string())?;
    Ok(col.iter().map(|(_, v)| v.to_bits()).collect())
}

/// The FoR block of `values`: tag, smallest bit pattern, width, packed
/// offsets.
fn for_block(values: &[f64]) -> Vec<u8> {
    let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    let base = bits.iter().copied().min().unwrap_or(0);
    let width = PackedInts::width_for(bits.iter().map(|b| b - base).max().unwrap_or(0));
    let offsets: Vec<u64> = bits.iter().map(|b| b - base).collect();
    let mut out = vec![VALUES_FOR];
    out.extend_from_slice(&base.to_le_bytes());
    out.push(width as u8);
    out.extend_from_slice(PackedInts::pack(&offsets, width).as_bytes());
    out
}

/// The codec choice counted the slow way: build all three blocks in full
/// and keep the shortest, ties going raw, then dict, then FoR.
fn reference_block(values: &[f64]) -> Vec<u8> {
    let mut raw = vec![VALUES_RAW];
    for v in values {
        raw.extend_from_slice(&v.to_le_bytes());
    }
    let mut dict: Vec<u64> = Vec::new();
    let mut indices = Vec::new();
    for v in values {
        let b = v.to_bits();
        let i = dict.iter().position(|&x| x == b).unwrap_or_else(|| {
            dict.push(b);
            dict.len() - 1
        });
        indices.push(i as u64);
    }
    let width = PackedInts::width_for(dict.len().saturating_sub(1) as u64);
    let mut dict_block = vec![VALUES_DICT];
    dict_block.extend_from_slice(&(dict.len() as u32).to_le_bytes());
    for b in &dict {
        dict_block.extend_from_slice(&b.to_le_bytes());
    }
    dict_block.push(width as u8);
    dict_block.extend_from_slice(PackedInts::pack(&indices, width).as_bytes());
    let mut best = raw;
    for candidate in [dict_block, for_block(values)] {
        if candidate.len() < best.len() {
            best = candidate;
        }
    }
    best
}

/// Columns the FoR form must carry bit-exactly, each of one sign.
fn for_corpus() -> Vec<(&'static str, Vec<f64>)> {
    let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
    let neg_nan = |payload: u64| f64::from_bits(0xfff8_0000_0000_0000 | payload);
    vec![
        ("nan-payloads", (1..40).map(nan).collect()),
        ("negative-nan-payloads", (1..40).map(neg_nan).collect()),
        (
            "positive-zero-and-up",
            (0..40).map(|i| f64::from(i) * 1e-3).collect(),
        ),
        (
            "negative-zero-and-down",
            (0..40).map(|i| f64::from(i) * -1e-3).collect(),
        ),
        (
            "positive-infinity",
            (0..40)
                .map(|i| {
                    if i % 9 == 0 {
                        f64::INFINITY
                    } else {
                        1e300 * f64::from(i)
                    }
                })
                .collect(),
        ),
        (
            "negative-infinity",
            (0..40)
                .map(|i| {
                    if i % 9 == 0 {
                        f64::NEG_INFINITY
                    } else {
                        -1e300 * f64::from(i)
                    }
                })
                .collect(),
        ),
        (
            "subnormals",
            (1..60u64).map(|i| f64::from_bits(i * 7_919)).collect(),
        ),
        (
            "all-negative",
            (0..500).map(|i| -0.5 - f64::from(i) * 0.0213).collect(),
        ),
        ("constant", vec![3.25; 64]),
        ("uniform-0.5-10.5", {
            let mut rng = Rng(0xf0f0);
            (0..1_000)
                .map(|_| 0.5 + (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 10.0)
                .collect()
        }),
    ]
}

/// Tag 2 round-trips every awkward value bit-identically, including a
/// constant column (width 0); blocks of 0 and 1 values, which the writer
/// never emits as FoR, still decode.
#[test]
fn for_round_trips_bit_exactly() {
    for (name, values) in for_corpus() {
        let block = values_block(&values);
        assert_eq!(block[0], VALUES_FOR, "{name}: codec");
        if name == "constant" {
            assert_eq!(block[9], 0, "constant column packs at width 0");
            assert_eq!(block.len(), 10);
        }
        let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(decode_block(values.len(), &block).unwrap(), want, "{name}");
    }
    for values in [
        vec![],
        vec![-0.0],
        vec![f64::from_bits(0x7ff8_0000_0000_0abc)],
    ] {
        let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(values_block(&values)[0], VALUES_RAW, "n = {}", values.len());
        let block = for_block(&values);
        assert_eq!(decode_block(values.len(), &block).unwrap(), want);
    }
}

/// Continuous columns that mix signs span the whole bit-pattern range, so
/// FoR never beats raw on them.
#[test]
fn mixed_sign_columns_stay_raw() {
    let mut rng = Rng(0x519e);
    for n in [2usize, 3, 10, 100, 1_000] {
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let v = 1.0 + (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
                if i % 2 == 0 {
                    v
                } else {
                    -v
                }
            })
            .collect();
        let block = values_block(&values);
        assert_eq!(block[0], VALUES_RAW, "n = {n}");
        assert_eq!(block.len(), 1 + 8 * n);
    }
}

/// The writer's choice equals the count-everything-then-pick reference on
/// random columns and on columns at the dict/raw and dict/FoR break-even
/// points.
#[test]
fn codec_choice_equals_count_then_pick_reference() {
    let mut rng = Rng(0xc0dec);
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for round in 0..300 {
        let n = rng.below(700) as usize;
        let d = 1 + rng.below(n as u64 + 1) as usize;
        let scale = (1u64 << rng.below(30)) as f64;
        let pool: Vec<f64> = (0..d)
            .map(|_| {
                let v = 0.5 + (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * scale;
                match round % 4 {
                    0 => v,
                    1 => -v,
                    2 if rng.below(2) == 0 => -v,
                    _ => (v * 4.0).round() / 4.0,
                }
            })
            .collect();
        columns.push((0..n).map(|_| pool[rng.below(d as u64) as usize]).collect());
    }
    // Break-even columns: for each size, every distinct count from two
    // below the point where the dictionary stops winning to one above.
    // One-sign pools lose to FoR there, mixed-sign pools to raw.
    let sizes = [16usize, 64, 300, 1_000];
    let shapes = [(1.0, 1.9375), (-1.0, 1.9375), (1.0, -1.9375)];
    for (n, (sign, second)) in sizes.into_iter().flat_map(|n| shapes.map(|s| (n, s))) {
        let column = |d: usize| -> Vec<f64> {
            let mut pool = vec![1.0, second];
            pool.extend((1..d.saturating_sub(1)).map(|i| 1.0 + i as f64 / f64::from(1 << 20)));
            pool.truncate(d);
            (0..n).map(|i| sign * pool[i % d]).collect()
        };
        let flip = (2..=n)
            .find(|&d| reference_block(&column(d))[0] != VALUES_DICT)
            .unwrap_or(n);
        for d in flip.saturating_sub(2).max(1)..=(flip + 1).min(n) {
            columns.push(column(d));
        }
    }
    for values in columns {
        let (got, want) = (values_block(&values), reference_block(&values));
        assert_eq!(got, want, "n = {}", values.len());
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(decode_block(values.len(), &got).unwrap(), bits);
    }
}

/// Truncated FoR blocks, widths beyond 64 bits and offsets that overflow
/// past `base` are typed errors.
#[test]
fn corrupt_for_blocks_are_errors() {
    let values: Vec<f64> = (0..200).map(|i| 2.0 + f64::from(i) * 0.37).collect();
    let block = values_block(&values);
    assert_eq!(block[0], VALUES_FOR);
    for cut in 0..block.len() {
        assert!(decode_block(200, &block[..cut]).is_err(), "cut at {cut}");
    }
    for width in [65u8, 100, 255] {
        let mut wide = block.clone();
        wide[9] = width;
        wide.resize(10 + 200 * 32, 0xff);
        assert!(decode_block(200, &wide).is_err(), "width {width}");
    }
    let mut overflow = vec![VALUES_FOR];
    overflow.extend_from_slice(&(u64::MAX - 5).to_le_bytes());
    overflow.push(4);
    overflow.push(0x65); // offsets 5 then 6
    assert!(decode_block(2, &overflow).is_err());
    overflow[10] = 0x55; // offsets 5 and 5 reach u64::MAX exactly
    assert_eq!(decode_block(2, &overflow).unwrap(), [u64::MAX, u64::MAX]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes behind tag 2 decode to something or error, never
    /// panic.
    #[test]
    fn arbitrary_for_payloads_never_panic(
        payload in prop::collection::vec(any::<u8>(), 0..300),
        n in 0usize..80,
    ) {
        let mut block = vec![VALUES_FOR];
        block.extend_from_slice(&payload);
        if let Ok(values) = decode_block(n, &block) {
            prop_assert_eq!(values.len(), n);
        }
    }
}
