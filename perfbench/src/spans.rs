//! Benchmark-side spans for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! `Client` calls on the served path, and the in-process replay calls
//! (wire encode, engine execute, render, parse, structural match, bitmap
//! AND). Spans stay in memory and are written out as JSON lines when the
//! run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0: a root).
    pub parent: u64,
    pub name: &'static str,
    /// Request id shared by the spans of one request.
    pub rid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An append-only span log owned by one thread.
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose span ids start above `lane << 40`, so logs of
    /// different threads never share an id.
    pub fn new(epoch: Instant, lane: u64) -> SpanLog {
        SpanLog {
            epoch,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        rid: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, rid, start, end);
        id
    }

    /// Reserves an id for a parent span recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span under an id from [`SpanLog::reserve`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        rid: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            rid,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }
}

/// Writes every span of `logs` to `path`, one JSON object per line.
pub fn write_jsonl(path: &Path, logs: &[&SpanLog]) -> io::Result<()> {
    let mut out = String::new();
    for s in logs.iter().flat_map(|l| &l.spans) {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"rid\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.rid, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, out)
}
