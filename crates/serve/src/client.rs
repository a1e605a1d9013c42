//! A blocking client for the wire protocol.
//!
//! `Client::connect` performs the `HELLO graphbi/2` handshake and caches
//! the served [`Universe`], so QL statements can be compiled locally with
//! [`Client::query_ql`] and commit ops can name edges symbolically.
//! Answers to `QUERY`/`BATCH` arrive as binary result frames and decode
//! bit-exactly into [`Response`]s.
//! Every method sends one verb frame and parses exactly one status
//! frame; `BUSY` and `ERR` surface as typed [`ClientError`] variants
//! carrying the server's stable [`ErrorCode`] number.

use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read as _, Write as _};
use std::net::{TcpStream, ToSocketAddrs};

use graphbi::{QueryRequest, Response, WireError};
use graphbi_columnstore::DeltaOp;
use graphbi_graph::Universe;

use crate::protocol::{self, PROTOCOL_VERSION};

/// What went wrong talking to a server.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server answered something the protocol does not allow.
    Protocol(String),
    /// The server refused admission (backpressure) — retry later.
    Busy { code: u16, message: String },
    /// The server answered a typed error frame.
    Remote {
        code: u16,
        symbol: String,
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Busy { code, message } => write!(f, "busy ({code}): {message}"),
            ClientError::Remote {
                code,
                symbol,
                message,
            } => write!(f, "server error {code} {symbol}: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Protocol(e.to_string())
    }
}

/// A parsed `OK` head: its `k=v` fields. The payload is announced either
/// as `lines=` (text) or `bytes=` (result frames).
struct OkHead {
    generation: Option<u64>,
    epoch: Option<u64>,
    count: Option<usize>,
    lines: usize,
    bytes: Option<usize>,
    /// The server-assigned request id (`id=<rid>`), usable with `TRACE`.
    id: Option<u64>,
}

/// One connection to a `graphbi` server.
pub struct Client {
    reader: BufReader<TcpStream>,
    /// Buffered so each verb frame leaves in one write at its `flush`.
    writer: BufWriter<TcpStream>,
    universe: Universe,
    generation: u64,
    epoch: u64,
    last_rid: Option<u64>,
    /// Result-frame bytes of the latest answer, reused across requests.
    frames: Vec<u8>,
}

impl Client {
    /// Connects and completes the `HELLO` handshake, caching the served
    /// universe and the session's pinned `(generation, epoch)`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            universe: Universe::default(),
            generation: 0,
            epoch: 0,
            last_rid: None,
            frames: Vec::new(),
        };
        writeln!(client.writer, "HELLO {PROTOCOL_VERSION}")?;
        client.writer.flush()?;
        let head = client.read_head()?;
        let body = client.read_lines(head.lines)?;
        client.universe = Universe::parse_text(&body)
            .map_err(|e| ClientError::Protocol(format!("bad universe in HELLO reply: {e}")))?;
        client.note_pin(&head);
        Ok(client)
    }

    /// The universe this server serves (cached from `HELLO`).
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The session's pinned generation (meaningful on MVCC backends).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The session's pinned epoch (meaningful on MVCC backends).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The server-assigned id of the most recent request (from the reply
    /// head's `id=` field). Pass it to [`Client::trace`] to replay the
    /// request's captured profile — errors and slow requests are always
    /// captured, other requests only when head-sampled.
    pub fn last_request_id(&self) -> Option<u64> {
        self.last_rid
    }

    fn note_pin(&mut self, head: &OkHead) {
        if let Some(g) = head.generation {
            self.generation = g;
        }
        if let Some(e) = head.epoch {
            self.epoch = e;
        }
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol(
                "connection closed mid-response".into(),
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Reads one status frame; `OK` parses into a head, `ERR`/`BUSY`
    /// become typed errors.
    fn read_head(&mut self) -> Result<OkHead, ClientError> {
        let line = self.read_line()?;
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("OK") => {
                let mut head = OkHead {
                    generation: None,
                    epoch: None,
                    count: None,
                    lines: 0,
                    bytes: None,
                    id: None,
                };
                let mut saw_lines = false;
                for tok in toks {
                    let Some((k, v)) = tok.split_once('=') else {
                        // Bare token — the version echo in the HELLO reply.
                        continue;
                    };
                    let bad =
                        || ClientError::Protocol(format!("bad head field {tok:?} in {line:?}"));
                    match k {
                        "generation" => head.generation = Some(v.parse().map_err(|_| bad())?),
                        "epoch" => head.epoch = Some(v.parse().map_err(|_| bad())?),
                        "count" => head.count = Some(v.parse().map_err(|_| bad())?),
                        "id" => head.id = Some(v.parse().map_err(|_| bad())?),
                        "lines" => {
                            head.lines = v.parse().map_err(|_| bad())?;
                            saw_lines = true;
                        }
                        "bytes" => head.bytes = Some(v.parse().map_err(|_| bad())?),
                        _ => {}
                    }
                }
                if saw_lines == head.bytes.is_some() {
                    return Err(ClientError::Protocol(format!(
                        "OK head needs exactly one of lines= and bytes=: {line:?}"
                    )));
                }
                if head.id.is_some() {
                    self.last_rid = head.id;
                }
                Ok(head)
            }
            Some("BUSY") => {
                let code: u16 = toks.next().and_then(|t| t.parse().ok()).unwrap_or(0);
                let message = toks.collect::<Vec<_>>().join(" ");
                Err(ClientError::Busy { code, message })
            }
            Some("ERR") => {
                let code: u16 = toks.next().and_then(|t| t.parse().ok()).unwrap_or(0);
                let symbol = toks.next().unwrap_or("").to_owned();
                let mut words: Vec<&str> = toks.collect();
                // ERR frames carry the request id as a trailing token so
                // the failing request can be TRACEd; strip it from the
                // human-facing message.
                if let Some(last) = words.last() {
                    if let Some(rid) = last.strip_prefix("id=").and_then(|v| v.parse::<u64>().ok())
                    {
                        self.last_rid = Some(rid);
                        words.pop();
                    }
                }
                let message = words.join(" ");
                Err(ClientError::Remote {
                    code,
                    symbol,
                    message,
                })
            }
            _ => Err(ClientError::Protocol(format!(
                "unrecognized status frame {line:?}"
            ))),
        }
    }

    /// Reads `n` payload lines into one newline-terminated string.
    fn read_lines(&mut self, n: usize) -> Result<String, ClientError> {
        let mut out = String::new();
        for _ in 0..n {
            out.push_str(&self.read_line()?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Reads the `bytes=` payload announced by `head` and decodes exactly
    /// `k` result frames from it; anything left over is a protocol error.
    fn read_frames(&mut self, head: &OkHead, k: usize) -> Result<Vec<Response>, ClientError> {
        let Some(n) = head.bytes else {
            return Err(ClientError::Protocol(
                "answer announced lines=, expected bytes=".into(),
            ));
        };
        self.frames.clear();
        (&mut self.reader)
            .take(n as u64)
            .read_to_end(&mut self.frames)?;
        if self.frames.len() != n {
            return Err(ClientError::Protocol(
                "connection closed mid-response".into(),
            ));
        }
        let mut rest = self.frames.as_slice();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            out.push(Response::decode_frame(&mut rest)?);
        }
        if !rest.is_empty() {
            return Err(ClientError::Protocol(format!(
                "{} bytes after {k} result frames",
                rest.len()
            )));
        }
        Ok(out)
    }

    /// Reads the one result frame answering a `QUERY`.
    fn read_answer(&mut self) -> Result<Response, ClientError> {
        let head = self.read_head()?;
        let mut answers = self.read_frames(&head, 1)?;
        Ok(answers.pop().expect("one frame decoded"))
    }

    /// Executes one request on the session's pinned state.
    pub fn query(&mut self, request: &QueryRequest) -> Result<Response, ClientError> {
        writeln!(self.writer, "QUERY {}", request.to_text())?;
        self.writer.flush()?;
        self.read_answer()
    }

    /// Executes one request tagged with a client correlation id. The id
    /// is echoed in the request's captured trace (`SLOWLOG` JSON), so a
    /// client can find its own requests in a shared server's slow log.
    pub fn query_with_id(
        &mut self,
        request: &QueryRequest,
        id: u64,
    ) -> Result<Response, ClientError> {
        writeln!(self.writer, "QUERY id={id} {}", request.to_text())?;
        self.writer.flush()?;
        self.read_answer()
    }

    /// Compiles a QL statement against the cached universe and executes
    /// it — the same grammar `graphbi query` accepts.
    pub fn query_ql(&mut self, text: &str) -> Result<Response, ClientError> {
        let request = graphbi::ql::request_from_text(text, &self.universe)
            .map_err(|e| ClientError::Protocol(format!("ql: {e}")))?;
        self.query(&request)
    }

    /// Executes many requests in one frame; the server may coalesce them
    /// (and concurrent requests from other connections) into shared
    /// batches. Answers come back in request order.
    pub fn batch(&mut self, requests: &[QueryRequest]) -> Result<Vec<Response>, ClientError> {
        writeln!(self.writer, "BATCH {}", requests.len())?;
        for r in requests {
            writeln!(self.writer, "{}", r.to_text())?;
        }
        self.writer.flush()?;
        let head = self.read_head()?;
        if head.count != Some(requests.len()) {
            return Err(ClientError::Protocol(format!(
                "BATCH answered count={:?}, sent {}",
                head.count,
                requests.len()
            )));
        }
        self.read_frames(&head, requests.len())
    }

    /// Commits ops atomically and re-pins the session past the commit
    /// (read-your-writes).
    pub fn commit(&mut self, ops: &[DeltaOp]) -> Result<(u64, u64), ClientError> {
        writeln!(self.writer, "COMMIT {}", ops.len())?;
        for op in ops {
            writeln!(self.writer, "{}", protocol::op_to_text(op))?;
        }
        self.writer.flush()?;
        let head = self.read_head()?;
        self.note_pin(&head);
        Ok((self.generation, self.epoch))
    }

    /// Profiles one request on the server; returns the profile JSON.
    pub fn profile(&mut self, request: &QueryRequest) -> Result<String, ClientError> {
        writeln!(self.writer, "PROFILE {}", request.to_text())?;
        self.writer.flush()?;
        let head = self.read_head()?;
        let body = self.read_lines(head.lines)?;
        Ok(body.trim_end().to_owned())
    }

    /// Scrapes the server's metrics registry (Prometheus text format).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        writeln!(self.writer, "METRICS")?;
        self.writer.flush()?;
        let head = self.read_head()?;
        self.read_lines(head.lines)
    }

    /// Replays the captured trace of an earlier request as profile JSON —
    /// the exact rendering `PROFILE` would have produced.
    pub fn trace(&mut self, rid: u64) -> Result<String, ClientError> {
        writeln!(self.writer, "TRACE {rid}")?;
        self.writer.flush()?;
        let head = self.read_head()?;
        let body = self.read_lines(head.lines)?;
        Ok(body.trim_end().to_owned())
    }

    /// Fetches the most recent over-threshold requests, newest first, as
    /// one JSON line per entry.
    pub fn slowlog(&mut self, n: Option<usize>) -> Result<Vec<String>, ClientError> {
        match n {
            Some(n) => writeln!(self.writer, "SLOWLOG {n}")?,
            None => writeln!(self.writer, "SLOWLOG")?,
        }
        self.writer.flush()?;
        let head = self.read_head()?;
        let body = self.read_lines(head.lines)?;
        Ok(body.lines().map(str::to_owned).collect())
    }

    /// Fetches the live server snapshot (`TOP`) as one JSON line.
    pub fn top(&mut self) -> Result<String, ClientError> {
        writeln!(self.writer, "TOP")?;
        self.writer.flush()?;
        let head = self.read_head()?;
        let body = self.read_lines(head.lines)?;
        Ok(body.trim_end().to_owned())
    }

    /// Re-pins the session to the store's latest state.
    pub fn refresh(&mut self) -> Result<(u64, u64), ClientError> {
        writeln!(self.writer, "REFRESH")?;
        self.writer.flush()?;
        let head = self.read_head()?;
        self.note_pin(&head);
        Ok((self.generation, self.epoch))
    }

    /// Says goodbye and closes the connection.
    pub fn quit(mut self) -> Result<(), ClientError> {
        writeln!(self.writer, "QUIT")?;
        self.writer.flush()?;
        let _ = self.read_head()?;
        Ok(())
    }

    /// Sends a raw frame line and returns the raw status line — the
    /// escape hatch tests use to poke the protocol directly (including
    /// malformed frames). Any payload the status line announces is left
    /// unread, so this suits verbs answered by a single line.
    pub fn send_raw(&mut self, line: &str) -> Result<String, ClientError> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_line()
    }
}
