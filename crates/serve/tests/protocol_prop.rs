//! Property tests for the wire grammar, the binary result frames and
//! frame parsing.
//!
//! Text round-trips are checked *by construction*: rendering any value
//! and parsing it back yields a value that renders identically
//! (text-level equality also covers `NaN`, which breaks `PartialEq`).
//! Binary round-trips compare every float by `f64::to_bits`, so `NaN`
//! payloads, `±inf` and `-0.0` must come back exactly. Malformed input
//! of any shape must be rejected with a typed error — never a panic,
//! never a silent misparse.

use graphbi::{
    AggFn, Bitmap, EdgeId, EvalOptions, GraphQuery, PathAggQuery, PathAggResult, QueryExpr,
    QueryRequest, QueryResult, Response,
};
use graphbi_columnstore::DeltaOp;
use graphbi_graph::RecordBuilder;
use graphbi_serve::protocol::{self, Verb};
use proptest::prelude::*;

fn edges() -> impl Strategy<Value = Vec<EdgeId>> {
    prop::collection::vec((0u32..200).prop_map(EdgeId), 1..8)
}

fn graph_query() -> impl Strategy<Value = GraphQuery> {
    edges().prop_map(GraphQuery::from_edges)
}

fn query_expr() -> impl Strategy<Value = QueryExpr> {
    // Depth ≤ 2 keeps generation cheap while covering every operator and
    // nesting on both sides.
    let atom = || graph_query().prop_map(QueryExpr::Atom).boxed();
    prop_oneof![
        atom(),
        (atom(), atom(), 0u8..3).prop_map(|(a, b, op)| combine(op, a, b)),
        ((atom(), atom(), 0u8..3), atom(), 0u8..3).prop_map(|((a, b, op1), c, op2)| combine(
            op2,
            combine(op1, a, b),
            c
        )),
    ]
}

fn combine(op: u8, a: QueryExpr, b: QueryExpr) -> QueryExpr {
    match op {
        0 => QueryExpr::and(a, b),
        1 => QueryExpr::or(a, b),
        _ => QueryExpr::and_not(a, b),
    }
}

fn agg_fn() -> impl Strategy<Value = AggFn> {
    prop_oneof![
        Just(AggFn::Sum),
        Just(AggFn::Min),
        Just(AggFn::Max),
        Just(AggFn::Avg),
        Just(AggFn::Count),
    ]
}

fn request() -> impl Strategy<Value = QueryRequest> {
    let kind = prop_oneof![
        graph_query().prop_map(QueryRequest::new).boxed(),
        query_expr().prop_map(QueryRequest::expr).boxed(),
        (graph_query(), agg_fn())
            .prop_map(|(q, f)| QueryRequest::aggregate(PathAggQuery::new(q, f)))
            .boxed(),
    ];
    (kind, any::<bool>(), 0usize..9).prop_map(|(req, views, shards)| {
        let options = if views {
            EvalOptions::default()
        } else {
            EvalOptions::oblivious()
        };
        req.opts(options).shards(shards)
    })
}

/// Measures including the floats that usually break text round-trips.
fn measure() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e12..1.0e12f64,
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(1.0 / 3.0),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    let records = (edges(), 0usize..6).prop_flat_map(|(edges, n)| {
        let width = edges.len();
        (
            Just(edges),
            prop::collection::vec(0u32..100_000, n..n + 1),
            prop::collection::vec(measure(), n * width..n * width + 1),
        )
            .prop_map(|(edges, records, measures)| {
                Response::Records(QueryResult {
                    records,
                    edges,
                    measures,
                })
            })
    });
    // Cross the 512-id chunk boundary so multi-chunk framing is exercised.
    let matches = prop::collection::vec(0u32..2_000_000, 0..1400)
        .prop_map(|ids| Response::Matches(ids.into_iter().collect::<Bitmap>()));
    let aggregates = (1usize..5, 0usize..6).prop_flat_map(|(paths, n)| {
        (
            Just(paths),
            prop::collection::vec(0u32..100_000, n..n + 1),
            prop::collection::vec(measure(), n * paths..n * paths + 1),
        )
            .prop_map(|(path_count, records, values)| {
                Response::Aggregates(PathAggResult {
                    records,
                    path_count,
                    values,
                })
            })
    });
    prop_oneof![records, matches, aggregates]
}

/// Strictly ascending record ids, as every engine path produces them,
/// spread past 65,536 so answers span several bitmap chunks.
fn ascending_ids(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0u32..300_000, 0..max_len).prop_map(|s| s.into_iter().collect())
}

/// Responses shaped as the engine shapes them — the binary codec's
/// domain. Match sets mix scattered ids with a dense range, so the v3
/// codec's array, run and word forms all occur.
fn framed_response() -> impl Strategy<Value = Response> {
    let records = (
        prop::collection::vec((0u32..200).prop_map(EdgeId), 0..6),
        ascending_ids(8),
    )
        .prop_flat_map(|(edges, ids)| {
            let cells = ids.len() * edges.len();
            (
                Just(edges),
                Just(ids),
                prop::collection::vec(measure(), cells..=cells),
            )
        })
        .prop_map(|(edges, records, measures)| {
            Response::Records(QueryResult {
                records,
                edges,
                measures,
            })
        });
    let matches = (
        prop::collection::vec(0u32..2_000_000, 0..1400),
        0u32..200_000,
        0u32..70_000,
    )
        .prop_map(|(ids, start, len)| {
            let scattered: Bitmap = ids.into_iter().collect();
            Response::Matches(scattered.or(&Bitmap::from_range(start..start + len)))
        });
    let aggregates = (1usize..5, ascending_ids(8))
        .prop_flat_map(|(paths, ids)| {
            let cells = ids.len() * paths;
            (
                Just(paths),
                Just(ids),
                prop::collection::vec(measure(), cells..=cells),
            )
        })
        .prop_map(|(path_count, records, values)| {
            Response::Aggregates(PathAggResult {
                records,
                path_count,
                values,
            })
        });
    prop_oneof![records, matches, aggregates]
}

/// Everything a response carries, floats as raw bits: equal fingerprints
/// mean bit-identical answers, `NaN` included.
fn exact(resp: &Response) -> (u8, Vec<u32>, Vec<u32>, usize, Vec<u64>) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    match resp {
        Response::Records(r) => (
            1,
            r.records.clone(),
            r.edges.iter().map(|e| e.0).collect(),
            r.edges.len(),
            bits(&r.measures),
        ),
        Response::Matches(b) => (2, b.iter().collect(), Vec::new(), 0, Vec::new()),
        Response::Aggregates(a) => (
            3,
            a.records.clone(),
            Vec::new(),
            a.path_count,
            bits(&a.values),
        ),
    }
}

fn frame(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    resp.encode_frame(&mut out)
        .expect("engine-shaped responses frame");
    out
}

/// Wraps `payload` in a frame header with a matching CRC, so the payload
/// decoder itself is exercised rather than the CRC check.
fn reframe(payload: &[u8]) -> Vec<u8> {
    let mut out = graphbi::FRAME_MAGIC.to_le_bytes().to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&graphbi_obs::slowlog::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn record() -> impl Strategy<Value = graphbi_graph::GraphRecord> {
    prop::collection::vec(((0u32..200).prop_map(EdgeId), measure()), 1..8).prop_map(|pairs| {
        let mut b = RecordBuilder::new();
        for (e, m) in pairs {
            b.add(e, m);
        }
        b.build()
    })
}

fn delta_op() -> impl Strategy<Value = DeltaOp> {
    prop_oneof![
        record().prop_map(DeltaOp::Insert),
        (0u32..100_000, record()).prop_map(|(rid, r)| DeltaOp::Update(rid, r)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_round_trips(req in request()) {
        let text = req.to_text();
        prop_assert!(!text.contains('\n'), "requests are single lines: {text:?}");
        let back = QueryRequest::parse_text(&text)
            .unwrap_or_else(|e| panic!("{text:?}: {e}"));
        prop_assert_eq!(back.to_text(), text);
        // The canonical fields survive exactly (kinds have PartialEq).
        prop_assert_eq!(back.options.use_views, req.options.use_views);
        prop_assert_eq!(back.shards, req.shards);
    }

    #[test]
    fn response_round_trips(resp in response()) {
        let text = resp.to_text();
        let back = Response::parse_text(&text)
            .unwrap_or_else(|e| panic!("{text:?}: {e}"));
        prop_assert_eq!(back.to_text(), text.clone());
        prop_assert_eq!(back.line_count(), text.lines().count());
    }

    #[test]
    fn response_blocks_self_delimit(a in response(), b in response()) {
        let text = format!("{}{}", a.to_text(), b.to_text());
        let mut lines = text.lines();
        let mut lineno = 0usize;
        let first = Response::read_block(&mut lines, &mut lineno).expect("first block");
        let second = Response::read_block(&mut lines, &mut lineno).expect("second block");
        prop_assert_eq!(first.to_text(), a.to_text());
        prop_assert_eq!(second.to_text(), b.to_text());
        prop_assert!(lines.next().is_none(), "stream fully consumed");
    }

    #[test]
    fn commit_ops_round_trip(op in delta_op()) {
        let text = protocol::op_to_text(&op);
        prop_assert!(!text.contains('\n'));
        let back = protocol::parse_op(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        prop_assert_eq!(protocol::op_to_text(&back), text);
    }

    /// Arbitrary garbage never panics any parser: it is either rejected
    /// with a typed error or (for the self-describing verbs) parsed into
    /// a value that round-trips.
    #[test]
    fn malformed_frames_reject_cleanly(line in "[ -~]{0,120}") {
        if let Ok(req) = QueryRequest::parse_text(&line) {
            // Accepting is fine only if the parse is canonical-faithful.
            prop_assert_eq!(QueryRequest::parse_text(&req.to_text()).unwrap().to_text(),
                            req.to_text());
        }
        let _ = Response::parse_text(&line);
        let _ = protocol::parse_op(&line);
        match protocol::parse_verb(&line) {
            Ok(Verb::Batch { count: n, .. }) | Ok(Verb::Commit(n)) => {
                prop_assert!((1..=protocol::MAX_BATCH).contains(&n));
            }
            _ => {}
        }
    }

    /// The introspection verbs and client correlation ids parse back to
    /// exactly the values that were rendered.
    #[test]
    fn introspection_verbs_round_trip(rid in any::<u64>(), n in 0usize..10_000) {
        match protocol::parse_verb(&format!("TRACE {rid}")) {
            Ok(Verb::Trace(t)) => prop_assert_eq!(t, rid),
            other => prop_assert!(false, "TRACE {} parsed as {:?}", rid, other),
        }
        match protocol::parse_verb(&format!("SLOWLOG {n}")) {
            Ok(Verb::Slowlog(Some(k))) => prop_assert_eq!(k, n),
            other => prop_assert!(false, "SLOWLOG {} parsed as {:?}", n, other),
        }
        prop_assert!(matches!(protocol::parse_verb("SLOWLOG"), Ok(Verb::Slowlog(None))));
        prop_assert!(matches!(protocol::parse_verb("TOP"), Ok(Verb::Top)));
    }

    /// `id=<n>` on QUERY and BATCH is stripped into the parsed verb and
    /// never leaks into the payload.
    #[test]
    fn correlation_ids_round_trip(cid in any::<u64>(), req in request(), k in 1usize..=protocol::MAX_BATCH) {
        let payload = req.to_text();
        match protocol::parse_verb(&format!("QUERY id={cid} {payload}")) {
            Ok(Verb::Query { cid: Some(c), payload: p }) => {
                prop_assert_eq!(c, cid);
                prop_assert_eq!(p, payload.clone());
            }
            other => prop_assert!(false, "parsed as {:?}", other),
        }
        match protocol::parse_verb(&format!("QUERY {payload}")) {
            Ok(Verb::Query { cid: None, payload: p }) => prop_assert_eq!(p, payload.clone()),
            other => prop_assert!(false, "parsed as {:?}", other),
        }
        match protocol::parse_verb(&format!("BATCH {k} id={cid}")) {
            Ok(Verb::Batch { count, cid: Some(c) }) => {
                prop_assert_eq!(count, k);
                prop_assert_eq!(c, cid);
            }
            other => prop_assert!(false, "parsed as {:?}", other),
        }
    }

    #[test]
    fn frame_round_trips_bit_exactly(resp in framed_response()) {
        let bytes = frame(&resp);
        let mut cur = bytes.as_slice();
        let back = Response::decode_frame(&mut cur).unwrap_or_else(|e| panic!("{e}"));
        prop_assert!(cur.is_empty(), "the frame is consumed exactly");
        prop_assert_eq!(exact(&back), exact(&resp));
        prop_assert_eq!(back.to_text(), resp.to_text());
    }

    /// `k` frames back to back — a BATCH reply — decode one by one, in
    /// order, and consume the stream exactly.
    #[test]
    fn frames_concatenate(resps in prop::collection::vec(framed_response(), 1..5)) {
        let mut bytes = Vec::new();
        for r in &resps {
            r.encode_frame(&mut bytes).expect("engine-shaped responses frame");
        }
        let mut cur = bytes.as_slice();
        for want in &resps {
            let got = Response::decode_frame(&mut cur).expect("frame decodes");
            prop_assert_eq!(exact(&got), exact(want));
        }
        prop_assert!(cur.is_empty(), "stream fully consumed");
    }

    /// A frame cut at any byte offset is an error, never a shorter answer.
    #[test]
    fn truncated_frames_reject(resp in framed_response()) {
        let bytes = frame(&resp);
        for cut in 0..bytes.len() {
            let mut cur = &bytes[..cut];
            prop_assert!(Response::decode_frame(&mut cur).is_err(), "cut at {}", cut);
        }
    }

    /// Flipping any single bit — header or payload — is detected.
    #[test]
    fn bit_flipped_frames_reject(resp in framed_response(), at in any::<prop::sample::Index>()) {
        let mut bytes = frame(&resp);
        let bit = at.index(bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let mut cur = bytes.as_slice();
        prop_assert!(Response::decode_frame(&mut cur).is_err(), "bit {} flipped", bit);
    }

    /// Arbitrary bytes never panic the decoder — neither raw, nor as a
    /// payload behind a valid header and CRC, nor as a valid payload with
    /// one byte overwritten.
    #[test]
    fn arbitrary_frames_never_panic(
        junk in prop::collection::vec(any::<u8>(), 0..256),
        resp in framed_response(),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let _ = Response::decode_frame(&mut junk.as_slice());
        let _ = Response::decode_frame(&mut reframe(&junk).as_slice());
        let bytes = frame(&resp);
        let mut payload = bytes[12..].to_vec();
        if !payload.is_empty() {
            let i = at.index(payload.len());
            payload[i] = byte;
        }
        let _ = Response::decode_frame(&mut reframe(&payload).as_slice());
    }

    /// Truncating a response block anywhere must fail loudly, not return
    /// a shorter answer.
    #[test]
    fn truncated_responses_reject(resp in response(), cut in 0usize..6) {
        let text = resp.to_text();
        let total = text.lines().count();
        if total > 1 && cut < total {
            let kept: Vec<&str> = text.lines().take(total - 1 - cut % (total - 1)).collect();
            let truncated = kept.join("\n");
            if !truncated.is_empty() {
                prop_assert!(Response::parse_text(&truncated).is_err());
            }
        }
    }
}
