//! Canonical text serialization of the session API, mirroring
//! [`Universe::to_text`](graphbi_graph::Universe::to_text)'s line-oriented
//! style: [`QueryRequest`] and [`Response`] gain `to_text`/`parse_text`,
//! and this one grammar is shared by the CLI, the `graphbi-serve` wire
//! protocol, the testkit oracle and the docs.
//!
//! Round-trip is lossless *by construction*: the emitters print only
//! canonical forms ([`GraphQuery`] edge lists are already sorted and
//! deduplicated; floats print in Rust's shortest exact representation,
//! which `f64::from_str` reads back bit-identically, `NaN`/`inf`
//! included), so `parse_text(to_text(x))` rebuilds `x` without a
//! normalization pass.
//!
//! # Grammar
//!
//! A request is one line:
//!
//! ```text
//! graph views=<0|1> shards=<n> : <edge-id>*
//! expr  views=<0|1> shards=<n> : <rpn-token>+
//! agg <FUNC> views=<0|1> shards=<n> : <edge-id>*
//! ```
//!
//! Expression payloads are postfix (RPN): an atom token is the atom's
//! edge-id list joined by `,` (`_` for the empty atom); `AND`, `OR` and
//! `ANDNOT` pop two operands. A response is a block of lines:
//!
//! ```text
//! records n=<rows> edges <edge-id>*      matches n=<bits>     aggregates n=<rows> paths=<p>
//! r <rid> <measure>*                     m <rid>*             r <rid> <value>*
//! ```
//!
//! Blocks are self-delimiting (`n=` announces the row count), so several
//! responses concatenate into one stream — how `BATCH` answers travel
//! over `graphbi/1`.
//!
//! # Binary result frames
//!
//! [`Response::encode_frame`] / [`Response::decode_frame`] carry the same
//! answers column-wise, the way the engine holds them: record ids as a
//! bitmap, measures as raw floats. One frame is
//!
//! ```text
//! magic u32 = "GBRF"   len u32   crc32(payload) u32   payload (len bytes)
//! ```
//!
//! (little-endian; the WAL's and the slowlog's framing with its own
//! magic), and the payload is
//!
//! ```text
//! records:    kind=1 u8, n u32, width u32, width × edge-id u32, ids, n × width f64
//! matches:    kind=2 u8, ids
//! aggregates: kind=3 u8, n u32, width u32 (= paths),             ids, n × width f64
//! ids:        blob_len u32, Bitmap::encode_v3 bytes
//! ```
//!
//! Floats travel as their raw little-endian bits, so `NaN` payloads and
//! `-0.0` survive exactly. Frames are self-delimiting by `len`, so `k`
//! answers concatenate into one `BATCH` reply.

use std::str::FromStr;

use graphbi_bitmap::{Bitmap, BitmapBuilder};
use graphbi_graph::{
    AggFn, EdgeId, GraphQuery, PathAggQuery, PathAggResult, QueryExpr, QueryResult,
};
use graphbi_obs::slowlog::crc32;

use crate::engine::EvalOptions;
use crate::session::{QueryRequest, RequestKind, Response};

/// Match-id chunking: `matches` blocks print at most this many record ids
/// per `m` line, keeping lines short for log-friendliness.
const MATCH_CHUNK: usize = 512;

/// `"GBRF"` — graph-BI result frame. Distinct from the WAL's and the
/// slowlog's magics, so a misrouted stream fails at its first frame.
pub const FRAME_MAGIC: u32 = 0x4742_5246;

/// Bytes in a result frame's header: magic, payload length, CRC.
const FRAME_HEAD: usize = 12;

const KIND_RECORDS: u8 = 1;
const KIND_MATCHES: u8 = 2;
const KIND_AGGREGATES: u8 = 3;

/// A wire-grammar violation: which line failed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Offending line number within the parsed text (1-based); 0 for a
    /// binary result frame, whose `what` names the byte offset.
    pub line: usize,
    /// What was wrong.
    pub what: String,
}

impl WireError {
    fn new(line: usize, what: impl Into<String>) -> WireError {
        WireError {
            line,
            what: what.into(),
        }
    }

    fn frame(at: usize, what: impl std::fmt::Display) -> WireError {
        WireError::new(0, format!("frame byte {at}: {what}"))
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "wire: {}", self.what)
        } else {
            write!(f, "wire: line {}: {}", self.line, self.what)
        }
    }
}

impl std::error::Error for WireError {}

/// Formats a measure so that parsing it back is bit-identical: Rust's
/// shortest-exact float formatting, with `NaN`/`inf`/`-inf` spelled the
/// way [`f64::from_str`] accepts.
fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

fn parse_f64(tok: &str, line: usize) -> Result<f64, WireError> {
    f64::from_str(tok).map_err(|_| WireError::new(line, format!("bad float {tok:?}")))
}

fn parse_edge(tok: &str, line: usize) -> Result<EdgeId, WireError> {
    tok.parse::<u32>()
        .map(EdgeId)
        .map_err(|_| WireError::new(line, format!("bad edge id {tok:?}")))
}

/// Parses a `key=value` token, insisting on the expected key — the
/// grammar is canonical, so field order is fixed and every field present.
fn parse_kv<'a>(tok: Option<&'a str>, key: &str, line: usize) -> Result<&'a str, WireError> {
    let tok = tok.ok_or_else(|| WireError::new(line, format!("missing {key}=")))?;
    tok.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| WireError::new(line, format!("expected {key}=…, got {tok:?}")))
}

fn parse_usize(tok: &str, line: usize) -> Result<usize, WireError> {
    tok.parse::<usize>()
        .map_err(|_| WireError::new(line, format!("bad count {tok:?}")))
}

fn atom_token(q: &GraphQuery) -> String {
    if q.edges().is_empty() {
        "_".to_owned()
    } else {
        let ids: Vec<String> = q.edges().iter().map(|e| e.0.to_string()).collect();
        ids.join(",")
    }
}

fn parse_atom(tok: &str, line: usize) -> Result<GraphQuery, WireError> {
    if tok == "_" {
        return Ok(GraphQuery::from_edges(vec![]));
    }
    let mut edges = Vec::new();
    for part in tok.split(',') {
        edges.push(parse_edge(part, line)?);
    }
    Ok(GraphQuery::from_edges(edges))
}

fn expr_rpn(e: &QueryExpr, out: &mut Vec<String>) {
    match e {
        QueryExpr::Atom(q) => out.push(atom_token(q)),
        QueryExpr::And(a, b) => {
            expr_rpn(a, out);
            expr_rpn(b, out);
            out.push("AND".to_owned());
        }
        QueryExpr::Or(a, b) => {
            expr_rpn(a, out);
            expr_rpn(b, out);
            out.push("OR".to_owned());
        }
        QueryExpr::AndNot(a, b) => {
            expr_rpn(a, out);
            expr_rpn(b, out);
            out.push("ANDNOT".to_owned());
        }
    }
}

fn parse_rpn<'a>(
    tokens: impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<QueryExpr, WireError> {
    let mut stack: Vec<QueryExpr> = Vec::new();
    for tok in tokens {
        match tok {
            "AND" | "OR" | "ANDNOT" => {
                let b = stack
                    .pop()
                    .ok_or_else(|| WireError::new(line, format!("{tok} needs two operands")))?;
                let a = stack
                    .pop()
                    .ok_or_else(|| WireError::new(line, format!("{tok} needs two operands")))?;
                stack.push(match tok {
                    "AND" => QueryExpr::and(a, b),
                    "OR" => QueryExpr::or(a, b),
                    _ => QueryExpr::and_not(a, b),
                });
            }
            atom => stack.push(QueryExpr::Atom(parse_atom(atom, line)?)),
        }
    }
    match (stack.pop(), stack.is_empty()) {
        (Some(e), true) => Ok(e),
        (Some(_), false) => Err(WireError::new(line, "unused expression operands")),
        (None, _) => Err(WireError::new(line, "empty expression")),
    }
}

fn parse_agg_fn(tok: &str, line: usize) -> Result<AggFn, WireError> {
    match tok {
        "SUM" => Ok(AggFn::Sum),
        "MIN" => Ok(AggFn::Min),
        "MAX" => Ok(AggFn::Max),
        "COUNT" => Ok(AggFn::Count),
        "AVG" => Ok(AggFn::Avg),
        _ => Err(WireError::new(line, format!("unknown aggregate {tok:?}"))),
    }
}

impl QueryRequest {
    /// Renders the request as one canonical grammar line (no newline).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let knobs = format!(
            "views={} shards={}",
            u8::from(self.options.use_views),
            self.shards
        );
        let mut out = String::new();
        match &self.kind {
            RequestKind::Graph(q) => {
                let _ = write!(out, "graph {knobs} :");
                for e in q.edges() {
                    let _ = write!(out, " {}", e.0);
                }
            }
            RequestKind::Expr(e) => {
                let mut tokens = Vec::new();
                expr_rpn(e, &mut tokens);
                let _ = write!(out, "expr {knobs} : {}", tokens.join(" "));
            }
            RequestKind::Aggregate(p) => {
                let _ = write!(out, "agg {} {knobs} :", p.func.name());
                for e in p.query.edges() {
                    let _ = write!(out, " {}", e.0);
                }
            }
        }
        out
    }

    /// Parses one grammar line back into a request.
    pub fn parse_text(text: &str) -> Result<QueryRequest, WireError> {
        let line = 1;
        let mut toks = text.split_whitespace();
        let verb = toks
            .next()
            .ok_or_else(|| WireError::new(line, "empty request"))?;
        let func = if verb == "agg" {
            Some(parse_agg_fn(
                toks.next()
                    .ok_or_else(|| WireError::new(line, "agg needs a function"))?,
                line,
            )?)
        } else {
            None
        };
        let views = match parse_kv(toks.next(), "views", line)? {
            "0" => false,
            "1" => true,
            other => {
                return Err(WireError::new(
                    line,
                    format!("views must be 0|1, got {other:?}"),
                ))
            }
        };
        let shards = parse_usize(parse_kv(toks.next(), "shards", line)?, line)?;
        match toks.next() {
            Some(":") => {}
            other => return Err(WireError::new(line, format!("expected ':', got {other:?}"))),
        }
        let kind = match verb {
            "graph" => {
                let mut edges = Vec::new();
                for tok in toks {
                    edges.push(parse_edge(tok, line)?);
                }
                RequestKind::Graph(GraphQuery::from_edges(edges))
            }
            "expr" => RequestKind::Expr(parse_rpn(toks, line)?),
            "agg" => {
                let mut edges = Vec::new();
                for tok in toks {
                    edges.push(parse_edge(tok, line)?);
                }
                RequestKind::Aggregate(PathAggQuery::new(
                    GraphQuery::from_edges(edges),
                    func.expect("agg verb parsed a function"),
                ))
            }
            other => return Err(WireError::new(line, format!("unknown verb {other:?}"))),
        };
        let options = if views {
            EvalOptions::default()
        } else {
            EvalOptions::oblivious()
        };
        Ok(QueryRequest::of(kind).opts(options).shards(shards))
    }
}

impl Response {
    /// Renders the response as a self-delimiting block of grammar lines
    /// (trailing newline included).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match self {
            Response::Records(r) => {
                let _ = write!(out, "records n={} edges", r.records.len());
                for e in &r.edges {
                    let _ = write!(out, " {}", e.0);
                }
                out.push('\n');
                for (i, &rid) in r.records.iter().enumerate() {
                    let _ = write!(out, "r {rid}");
                    for v in r.row(i) {
                        let _ = write!(out, " {}", fmt_f64(*v));
                    }
                    out.push('\n');
                }
            }
            Response::Matches(b) => {
                let _ = writeln!(out, "matches n={}", b.len());
                let ids: Vec<u32> = b.iter().collect();
                for chunk in ids.chunks(MATCH_CHUNK) {
                    out.push('m');
                    for id in chunk {
                        let _ = write!(out, " {id}");
                    }
                    out.push('\n');
                }
            }
            Response::Aggregates(r) => {
                let _ = writeln!(
                    out,
                    "aggregates n={} paths={}",
                    r.records.len(),
                    r.path_count
                );
                for (i, &rid) in r.records.iter().enumerate() {
                    let _ = write!(out, "r {rid}");
                    for v in r.row(i) {
                        let _ = write!(out, " {}", fmt_f64(*v));
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Number of grammar lines [`Response::to_text`] produces — what a
    /// framed protocol announces before the block.
    pub fn line_count(&self) -> usize {
        match self {
            Response::Records(r) => 1 + r.records.len(),
            Response::Matches(b) => {
                1 + (usize::try_from(b.len()).unwrap_or(usize::MAX)).div_ceil(MATCH_CHUNK)
            }
            Response::Aggregates(r) => 1 + r.records.len(),
        }
    }

    /// Parses exactly one response block; the text must contain nothing
    /// else.
    pub fn parse_text(text: &str) -> Result<Response, WireError> {
        let mut lines = text.lines();
        let mut lineno = 0usize;
        let resp = Response::read_block(&mut lines, &mut lineno)?;
        match lines.next() {
            None => Ok(resp),
            Some(extra) => Err(WireError::new(
                lineno + 1,
                format!("trailing content {extra:?}"),
            )),
        }
    }

    /// Reads one self-delimiting response block from a line stream,
    /// leaving the stream positioned after it — `BATCH` answers are
    /// parsed by calling this once per request. `lineno` counts consumed
    /// lines for error reporting.
    pub fn read_block<'a, I>(lines: &mut I, lineno: &mut usize) -> Result<Response, WireError>
    where
        I: Iterator<Item = &'a str>,
    {
        let head = next_line(lines, lineno, "expected response header")?;
        let head_no = *lineno;
        let mut toks = head.split_whitespace();
        let verb = toks
            .next()
            .ok_or_else(|| WireError::new(head_no, "empty response header"))?;
        match verb {
            "records" => {
                let n = parse_usize(parse_kv(toks.next(), "n", head_no)?, head_no)?;
                match toks.next() {
                    Some("edges") => {}
                    other => {
                        return Err(WireError::new(
                            head_no,
                            format!("expected 'edges', got {other:?}"),
                        ))
                    }
                }
                let mut edges = Vec::new();
                for tok in toks {
                    edges.push(parse_edge(tok, head_no)?);
                }
                let mut records = Vec::with_capacity(n);
                let mut measures = Vec::with_capacity(n * edges.len());
                for _ in 0..n {
                    let row = next_line(lines, lineno, "expected 'r' row")?;
                    let rid = parse_row(row, "r", 1 + edges.len(), *lineno, &mut measures)?;
                    records.push(rid);
                }
                Ok(Response::Records(QueryResult {
                    records,
                    edges,
                    measures,
                }))
            }
            "matches" => {
                let n = parse_usize(parse_kv(toks.next(), "n", head_no)?, head_no)?;
                if let Some(extra) = toks.next() {
                    return Err(WireError::new(head_no, format!("trailing token {extra:?}")));
                }
                let mut ids: Vec<u32> = Vec::with_capacity(n);
                while ids.len() < n {
                    let row = next_line(lines, lineno, "expected 'm' row")?;
                    let mut row_toks = row.split_whitespace();
                    if row_toks.next() != Some("m") {
                        return Err(WireError::new(*lineno, "expected 'm' row"));
                    }
                    let before = ids.len();
                    for tok in row_toks {
                        ids.push(tok.parse::<u32>().map_err(|_| {
                            WireError::new(*lineno, format!("bad record id {tok:?}"))
                        })?);
                    }
                    if ids.len() == before || ids.len() - before > MATCH_CHUNK {
                        return Err(WireError::new(*lineno, "bad 'm' chunk size"));
                    }
                }
                if ids.len() != n {
                    return Err(WireError::new(
                        *lineno,
                        format!("match count mismatch: {} != {n}", ids.len()),
                    ));
                }
                Ok(Response::Matches(ids.into_iter().collect::<Bitmap>()))
            }
            "aggregates" => {
                let n = parse_usize(parse_kv(toks.next(), "n", head_no)?, head_no)?;
                let paths = parse_usize(parse_kv(toks.next(), "paths", head_no)?, head_no)?;
                if let Some(extra) = toks.next() {
                    return Err(WireError::new(head_no, format!("trailing token {extra:?}")));
                }
                let mut records = Vec::with_capacity(n);
                let mut values = Vec::with_capacity(n * paths);
                for _ in 0..n {
                    let row = next_line(lines, lineno, "expected 'r' row")?;
                    let rid = parse_row(row, "r", 1 + paths, *lineno, &mut values)?;
                    records.push(rid);
                }
                Ok(Response::Aggregates(PathAggResult {
                    records,
                    path_count: paths,
                    values,
                }))
            }
            other => Err(WireError::new(
                head_no,
                format!("unknown response header {other:?}"),
            )),
        }
    }
}

impl Response {
    /// Appends this response to `out` as one CRC-framed binary block (see
    /// the module docs for the layout). Record ids must be strictly
    /// increasing and the value matrix exactly `n × width`, as every
    /// engine path produces them; otherwise this is an error and `out`
    /// is left as it was.
    pub fn encode_frame(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let start = out.len();
        out.extend_from_slice(&[0; FRAME_HEAD]);
        if let Err(e) = self.encode_payload(out) {
            out.truncate(start);
            return Err(e);
        }
        let body = start + FRAME_HEAD;
        let Ok(len) = u32::try_from(out.len() - body) else {
            out.truncate(start);
            return Err(unframeable("payload exceeds 4 GiB"));
        };
        let crc = crc32(&out[body..]);
        out[start..start + 4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
        out[start + 4..start + 8].copy_from_slice(&len.to_le_bytes());
        out[start + 8..body].copy_from_slice(&crc.to_le_bytes());
        Ok(())
    }

    fn encode_payload(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Response::Records(r) => {
                out.push(KIND_RECORDS);
                put_dims(out, r.records.len(), r.edges.len())?;
                for e in &r.edges {
                    out.extend_from_slice(&e.0.to_le_bytes());
                }
                put_rows(out, &r.records, r.edges.len(), &r.measures)
            }
            Response::Matches(b) => {
                out.push(KIND_MATCHES);
                put_bitmap(out, b)
            }
            Response::Aggregates(r) => {
                out.push(KIND_AGGREGATES);
                put_dims(out, r.records.len(), r.path_count)?;
                put_rows(out, &r.records, r.path_count, &r.values)
            }
        }
    }

    /// Decodes one result frame from the front of `buf`, advancing it past
    /// the frame — `BATCH` replies are decoded by calling this once per
    /// request. Every length is checked against the bytes present, the
    /// CRC must match, the id bitmap must hold exactly `n` ids, the value
    /// matrix must be exactly `n × width`, and the payload must hold
    /// nothing else. Malformed input is an error, never a panic.
    pub fn decode_frame(buf: &mut &[u8]) -> Result<Response, WireError> {
        let bytes: &[u8] = buf;
        let Some((head, rest)) = bytes.split_first_chunk::<FRAME_HEAD>() else {
            return Err(WireError::frame(0, "truncated frame header"));
        };
        let word = |i: usize| u32::from_le_bytes([head[i], head[i + 1], head[i + 2], head[i + 3]]);
        if word(0) != FRAME_MAGIC {
            return Err(WireError::frame(0, format!("bad magic {:#010x}", word(0))));
        }
        let len = word(4) as usize;
        let Some(payload) = rest.get(..len) else {
            return Err(WireError::frame(
                FRAME_HEAD,
                format!("truncated payload: {} of {len} bytes", rest.len()),
            ));
        };
        if crc32(payload) != word(8) {
            return Err(WireError::frame(8, "CRC mismatch"));
        }
        let resp = decode_payload(&mut FrameReader {
            bytes: payload,
            at: 0,
        })?;
        *buf = &rest[len..];
        Ok(resp)
    }
}

fn unframeable(what: impl std::fmt::Display) -> WireError {
    WireError::new(0, format!("cannot frame response: {what}"))
}

fn put_u32(out: &mut Vec<u8>, v: usize, what: &str) -> Result<(), WireError> {
    let v = u32::try_from(v).map_err(|_| unframeable(format!("{what} {v} exceeds u32")))?;
    out.extend_from_slice(&v.to_le_bytes());
    Ok(())
}

fn put_dims(out: &mut Vec<u8>, n: usize, width: usize) -> Result<(), WireError> {
    put_u32(out, n, "row count")?;
    put_u32(out, width, "row width")
}

fn put_bitmap(out: &mut Vec<u8>, ids: &Bitmap) -> Result<(), WireError> {
    let blob = ids.encode_v3();
    put_u32(out, blob.len(), "id bitmap length")?;
    out.extend_from_slice(&blob);
    Ok(())
}

/// Writes the id bitmap and the row-major value matrix of a records or
/// aggregates answer.
fn put_rows(
    out: &mut Vec<u8>,
    records: &[u32],
    width: usize,
    values: &[f64],
) -> Result<(), WireError> {
    if records.len().checked_mul(width) != Some(values.len()) {
        return Err(unframeable(format!(
            "{} values for {} rows of width {width}",
            values.len(),
            records.len()
        )));
    }
    let mut ids = BitmapBuilder::new();
    let mut last: Option<u32> = None;
    for &rid in records {
        if last.is_some_and(|l| l >= rid) {
            return Err(unframeable(format!("record id {rid} not increasing")));
        }
        last = Some(rid);
        ids.push(rid);
    }
    put_bitmap(out, &ids.finish())?;
    out.reserve(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    Ok(())
}

/// A bounds-checked cursor over one frame payload; every read reports the
/// payload offset it failed at.
struct FrameReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> FrameReader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        let got = self
            .at
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.at..end))
            .ok_or_else(|| WireError::frame(FRAME_HEAD + self.at, format!("truncated {what}")))?;
        self.at += n;
        Ok(got)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<usize, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
    }

    fn error(&self, what: impl std::fmt::Display) -> WireError {
        WireError::frame(FRAME_HEAD + self.at, what)
    }

    fn bitmap(&mut self) -> Result<Bitmap, WireError> {
        let len = self.u32("id bitmap length")?;
        let mut blob = self.take(len, "id bitmap")?;
        let ids = Bitmap::decode(&mut blob).map_err(|e| self.error(format!("id bitmap: {e}")))?;
        if !blob.is_empty() {
            return Err(self.error("id bitmap has trailing bytes"));
        }
        Ok(ids)
    }

    /// The id bitmap and `n × width` values of a records or aggregates
    /// answer, as ascending ids and a row-major matrix.
    fn rows(&mut self, n: usize, width: usize) -> Result<(Vec<u32>, Vec<f64>), WireError> {
        let ids = self.bitmap()?;
        if ids.len() != n as u64 {
            return Err(self.error(format!("{} record ids for {n} rows", ids.len())));
        }
        let bytes = n
            .checked_mul(width)
            .and_then(|v| v.checked_mul(8))
            .ok_or_else(|| self.error(format!("{n} rows of width {width} overflow")))?;
        let raw = self.take(bytes, "values")?;
        let values = raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect();
        Ok((ids.to_vec(), values))
    }
}

fn decode_payload(r: &mut FrameReader<'_>) -> Result<Response, WireError> {
    let resp = match r.u8("kind")? {
        KIND_RECORDS => {
            let n = r.u32("row count")?;
            let width = r.u32("row width")?;
            let raw = r.take(width.saturating_mul(4), "edge ids")?;
            let edges = raw
                .chunks_exact(4)
                .map(|c| EdgeId(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
                .collect();
            let (records, measures) = r.rows(n, width)?;
            Response::Records(QueryResult {
                records,
                edges,
                measures,
            })
        }
        KIND_MATCHES => Response::Matches(r.bitmap()?),
        KIND_AGGREGATES => {
            let n = r.u32("row count")?;
            let path_count = r.u32("row width")?;
            let (records, values) = r.rows(n, path_count)?;
            Response::Aggregates(PathAggResult {
                records,
                path_count,
                values,
            })
        }
        other => {
            return Err(WireError::frame(
                FRAME_HEAD,
                format!("unknown kind {other}"),
            ))
        }
    };
    if r.at != r.bytes.len() {
        return Err(r.error(format!("{} trailing payload bytes", r.bytes.len() - r.at)));
    }
    Ok(resp)
}

/// Consumes one line from the stream, bumping the line counter.
fn next_line<'a, I>(lines: &mut I, lineno: &mut usize, what: &str) -> Result<&'a str, WireError>
where
    I: Iterator<Item = &'a str>,
{
    *lineno += 1;
    lines
        .next()
        .ok_or_else(|| WireError::new(*lineno, format!("unexpected end of block: {what}")))
}

/// Parses one `r <rid> <float>*` row with an exact token count, pushing
/// the floats onto `out` and returning the record id.
fn parse_row(
    row: &str,
    tag: &str,
    width: usize,
    lineno: usize,
    out: &mut Vec<f64>,
) -> Result<u32, WireError> {
    let mut toks = row.split_whitespace();
    if toks.next() != Some(tag) {
        return Err(WireError::new(lineno, format!("expected {tag:?} row")));
    }
    let rid = toks
        .next()
        .ok_or_else(|| WireError::new(lineno, "row missing record id"))?
        .parse::<u32>()
        .map_err(|_| WireError::new(lineno, "bad record id"))?;
    let mut got = 1usize;
    for tok in toks {
        out.push(parse_f64(tok, lineno)?);
        got += 1;
    }
    if got != width {
        return Err(WireError::new(
            lineno,
            format!("row width {got} != {width}"),
        ));
    }
    Ok(rid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::QueryRequest;

    fn q(ids: &[u32]) -> GraphQuery {
        GraphQuery::from_edges(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    #[test]
    fn request_round_trips_every_kind() {
        let reqs = vec![
            QueryRequest::new(q(&[3, 1, 2])),
            QueryRequest::new(q(&[])).oblivious().shards(8),
            QueryRequest::expr(QueryExpr::and_not(
                QueryExpr::or(QueryExpr::Atom(q(&[1, 2])), QueryExpr::Atom(q(&[]))),
                QueryExpr::Atom(q(&[7])),
            ))
            .shards(4),
            QueryRequest::aggregate(PathAggQuery::new(q(&[5, 6]), AggFn::Avg)).oblivious(),
        ];
        for r in reqs {
            let text = r.to_text();
            let back = QueryRequest::parse_text(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, r, "{text}");
            assert_eq!(back.to_text(), text, "re-render must be stable");
        }
    }

    #[test]
    fn request_grammar_examples_are_stable() {
        assert_eq!(
            QueryRequest::new(q(&[2, 1])).to_text(),
            "graph views=1 shards=1 : 1 2"
        );
        assert_eq!(
            QueryRequest::expr(QueryExpr::Atom(q(&[]))).to_text(),
            "expr views=1 shards=1 : _"
        );
        assert_eq!(
            QueryRequest::aggregate(PathAggQuery::new(q(&[1]), AggFn::Sum))
                .oblivious()
                .shards(2)
                .to_text(),
            "agg SUM views=0 shards=2 : 1"
        );
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad in [
            "",
            "graph",
            "graph views=2 shards=1 :",
            "graph views=1 shards=x :",
            "graph views=1 shards=1",
            "graph views=1 shards=1 : nope",
            "expr views=1 shards=1 :",
            "expr views=1 shards=1 : 1 2 AND AND",
            "expr views=1 shards=1 : 1 2",
            "agg FROB views=1 shards=1 : 1",
            "frob views=1 shards=1 :",
        ] {
            assert!(QueryRequest::parse_text(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn response_round_trips_including_nan_and_inf() {
        let resps = vec![
            Response::Records(QueryResult {
                records: vec![0, 3],
                edges: vec![EdgeId(1), EdgeId(4)],
                measures: vec![1.5, f64::NAN, f64::INFINITY, -0.0],
            }),
            Response::Records(QueryResult {
                records: vec![],
                edges: vec![],
                measures: vec![],
            }),
            Response::Matches((0..1300u32).collect()),
            Response::Matches(Bitmap::new()),
            Response::Aggregates(PathAggResult {
                records: vec![7],
                path_count: 2,
                values: vec![f64::NEG_INFINITY, 1e300],
            }),
        ];
        for r in resps {
            let text = r.to_text();
            assert_eq!(text.lines().count(), r.line_count(), "{text}");
            let back = Response::parse_text(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            // NaN breaks value equality; canonical text equality is the
            // lossless-by-construction check.
            assert_eq!(back.to_text(), text);
        }
    }

    #[test]
    fn response_blocks_self_delimit() {
        let a = Response::Matches((0..5u32).collect());
        let b = Response::Records(QueryResult {
            records: vec![1],
            edges: vec![EdgeId(0)],
            measures: vec![2.25],
        });
        let stream = format!("{}{}", a.to_text(), b.to_text());
        let mut lines = stream.lines();
        let mut lineno = 0;
        let got_a = Response::read_block(&mut lines, &mut lineno).unwrap();
        let got_b = Response::read_block(&mut lines, &mut lineno).unwrap();
        assert_eq!(got_a.to_text(), a.to_text());
        assert_eq!(got_b.to_text(), b.to_text());
        assert!(lines.next().is_none());
    }

    fn framed(resps: &[Response]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in resps {
            r.encode_frame(&mut out)
                .expect("engine-shaped response frames");
        }
        out
    }

    #[test]
    fn frames_round_trip_bit_exactly_and_concatenate() {
        let resps = vec![
            Response::Records(QueryResult {
                records: vec![0, 3, 70_000],
                edges: vec![EdgeId(1), EdgeId(4)],
                measures: vec![1.5, f64::NAN, f64::INFINITY, -0.0, f64::MIN_POSITIVE, 7.0],
            }),
            Response::Records(QueryResult {
                records: vec![2, 9],
                edges: vec![],
                measures: vec![],
            }),
            Response::Matches((0..1300u32).chain(65_530..140_000).collect()),
            Response::Matches(Bitmap::new()),
            Response::Aggregates(PathAggResult {
                records: vec![7],
                path_count: 2,
                values: vec![f64::NEG_INFINITY, -f64::NAN],
            }),
        ];
        let bytes = framed(&resps);
        let mut cur = bytes.as_slice();
        for want in &resps {
            let got = Response::decode_frame(&mut cur).expect("frame decodes");
            assert_eq!(got.to_text(), want.to_text());
            if let (Response::Aggregates(a), Response::Aggregates(b)) = (&got, want) {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.values), bits(&b.values), "NaN sign survives");
            }
        }
        assert!(cur.is_empty(), "every frame consumed");
    }

    #[test]
    fn unframeable_responses_are_refused_and_leave_the_buffer_alone() {
        let mut out = vec![9u8];
        for bad in [
            Response::Records(QueryResult {
                records: vec![3, 3],
                edges: vec![EdgeId(0)],
                measures: vec![1.0, 2.0],
            }),
            Response::Aggregates(PathAggResult {
                records: vec![5, 1],
                path_count: 1,
                values: vec![1.0, 2.0],
            }),
            Response::Aggregates(PathAggResult {
                records: vec![1],
                path_count: 2,
                values: vec![1.0],
            }),
        ] {
            assert!(bad.encode_frame(&mut out).is_err());
            assert_eq!(out, [9]);
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        let good = framed(&[Response::Matches((0..10u32).collect())]);
        // Re-frame a payload with a valid CRC so the payload checks run.
        let reframe = |payload: &[u8]| {
            let mut f = FRAME_MAGIC.to_le_bytes().to_vec();
            f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            f.extend_from_slice(&crc32(payload).to_le_bytes());
            f.extend_from_slice(payload);
            f
        };
        let mut trailing = good[FRAME_HEAD..].to_vec();
        trailing.push(0);
        let mut wrong_n = vec![KIND_AGGREGATES, 2, 0, 0, 0, 0, 0, 0, 0];
        let ids = (0..1u32).collect::<Bitmap>().encode_v3();
        wrong_n.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        wrong_n.extend_from_slice(&ids);
        for bad in [
            Vec::new(),
            good[..good.len() - 1].to_vec(),
            reframe(&trailing),
            reframe(&[7]),
            reframe(&wrong_n),
            {
                let mut b = good.clone();
                b[0] ^= 1;
                b
            },
        ] {
            let mut cur = bad.as_slice();
            assert!(Response::decode_frame(&mut cur).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn malformed_responses_are_typed_errors() {
        for bad in [
            "",
            "records n=1 edges 0\n",
            "records n=1 edges 0\nr 1\n",
            "records n=1 edges 0\nr 1 2.0 3.0\n",
            "matches n=3\nm 1 2\n",
            "matches n=1\nz 1\n",
            "aggregates n=1 paths=1\nr x 1.0\n",
            "records n=0 edges\nextra\n",
        ] {
            assert!(Response::parse_text(bad).is_err(), "{bad:?}");
        }
    }
}
