//! Per-layer attribution for the traced run.
//!
//! Two sources, both outside the program's own code:
//!
//! * the metrics registry, read as before/after deltas around the timed
//!   pass while exactly one server is alive (`serve`, `columnstore`
//!   cache, `vfs`, `wal` counters); the registry is process-wide, so a
//!   delta is only attributable when nothing else records into it;
//! * an in-process replay of the served requests, timing the public
//!   entry point of each layer in turn: `QueryRequest::to_text`,
//!   `Session::execute`, `Response::to_text`, `Response::parse_text`,
//!   `match_records` and `Bitmap::and_many`.

use std::path::Path;
use std::time::Instant;

use graphbi::disk::DiskGraphStore;
use graphbi::{
    Bitmap, GraphQuery, GraphStore, IoStats, QueryRequest, RequestKind, Response, Session,
};
use graphbi_columnstore::{os_vfs, Verify};
use graphbi_obs::{HistSnapshot, Snapshot};
use graphbi_serve::Server;

use crate::answer::fingerprint;
use crate::spans::SpanLog;
use crate::stats::Samples;

/// A second, unserved copy of the served base store: the replay times
/// `match_records` and fetches edge bitmaps through it.
// One twin exists per run, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Twin {
    Mem(GraphStore),
    Disk(DiskGraphStore),
}

impl Twin {
    /// Opens a read-only twin of the database at `dir` with its own
    /// column cache of `cache` bytes.
    pub fn disk(dir: &Path, cache: usize) -> Twin {
        Twin::Disk(
            DiskGraphStore::open_with(dir, cache, os_vfs(), Verify::Checksums)
                .expect("twin store opens"),
        )
    }

    fn structural(&self, query: &GraphQuery) -> Bitmap {
        let mut stats = IoStats::new();
        match self {
            Twin::Mem(s) => s.match_records(query, &mut stats),
            Twin::Disk(s) => s.match_records(query, &mut stats).expect("disk read"),
        }
    }

    fn edge_bitmaps(&self, query: &GraphQuery) -> Vec<Bitmap> {
        let mut stats = IoStats::new();
        query
            .edges()
            .iter()
            .map(|&e| match self {
                Twin::Mem(s) => s.relation().edge_bitmap(e, &mut stats).clone(),
                Twin::Disk(s) => {
                    let b = s.relation().edge_bitmap(e, &mut stats).expect("disk read");
                    Bitmap::clone(&b)
                }
            })
            .collect()
    }

    /// The base store's own answer, for the MVCC overlay comparison.
    pub fn execute(&self, request: &QueryRequest) -> Response {
        match self {
            Twin::Mem(s) => s.execute(request),
            Twin::Disk(s) => s.execute(request),
        }
        .expect("base executes")
        .0
    }
}

fn graph_of(request: &QueryRequest) -> &GraphQuery {
    match &request.kind {
        RequestKind::Graph(q) => q,
        RequestKind::Aggregate(p) => &p.query,
        RequestKind::Expr(_) => unreachable!("workloads send no expressions"),
    }
}

/// Per-request timings of the replay, in microseconds.
#[derive(Default)]
pub struct Replay {
    pub encode: Samples,
    pub exec: Samples,
    pub render: Samples,
    pub parse: Samples,
    pub structural: Samples,
    pub measure: Samples,
    pub and_many: Samples,
    pub response_bytes: Vec<usize>,
    pub io: Vec<IoStats>,
    /// Requests whose answer failed a check (wire round trip, expected
    /// answer, or bitmap AND against the structural match).
    pub mismatches: u64,
}

fn us(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e6
}

/// Replays `positions` of `order` in-process against `session` (the
/// served store's pinned snapshot) and `twin`. `expect`, when given,
/// holds the in-process fingerprint of each distinct request.
pub fn replay(
    session: &dyn Session,
    twin: &Twin,
    requests: &[QueryRequest],
    order: &[usize],
    positions: std::ops::Range<usize>,
    expect: Option<&[u64]>,
    log: &mut SpanLog,
) -> Replay {
    let mut r = Replay::default();
    for pos in positions {
        let idx = order[pos % order.len()];
        let request = &requests[idx];
        let rid = pos as u64;
        let root = log.reserve();
        let t0 = Instant::now();
        let text = request.to_text();
        let t1 = Instant::now();
        let (resp, io) = session.execute(request).expect("replay executes");
        let t2 = Instant::now();
        let body = resp.to_text();
        let t3 = Instant::now();
        let back = Response::parse_text(&body).expect("rendered answer parses");
        let t4 = Instant::now();
        let matched = twin.structural(graph_of(request));
        let t5 = Instant::now();
        let bitmaps = twin.edge_bitmaps(graph_of(request));
        let t6 = Instant::now();
        let anded = Bitmap::and_many(bitmaps.iter());
        let t7 = Instant::now();
        for (name, a, b) in [
            ("wire.encode_request", t0, t1),
            ("engine.exec", t1, t2),
            ("wire.render", t2, t3),
            ("wire.parse", t3, t4),
            ("engine.structural", t4, t5),
            ("bitmap.and_many", t6, t7),
        ] {
            log.record(name, root, rid, a, b);
        }
        log.record_as(root, "replay.request", 0, rid, t0, t7);
        let fp = fingerprint(&resp);
        let bad = fingerprint(&back) != fp
            || expect.is_some_and(|e| e[idx] != fp)
            || !anded.iter().eq(matched.iter());
        if bad {
            eprintln!("MISMATCH in replay at order position {pos}: {text}");
            r.mismatches += 1;
        }
        r.encode.ok(us(t0, t1));
        r.exec.ok(us(t1, t2));
        r.render.ok(us(t2, t3));
        r.parse.ok(us(t3, t4));
        r.structural.ok(us(t4, t5));
        r.measure.ok(us(t1, t2) - us(t4, t5));
        r.and_many.ok(us(t6, t7));
        r.response_bytes.push(body.len());
        r.io.push(io);
    }
    r
}

/// `Σ Snapshot::execute / Σ base execute` over `requests`: what the MVCC
/// delta overlay costs a read at the store's current delta size. Both
/// sides are run once untimed first so their caches are equally warm.
pub fn read_overhead(session: &dyn Session, twin: &Twin, requests: &[&QueryRequest]) -> f64 {
    for r in requests {
        session.execute(r).expect("snapshot executes");
        twin.execute(r);
    }
    let (mut snap, mut base) = (0.0, 0.0);
    for r in requests {
        let t = Instant::now();
        session.execute(r).expect("snapshot executes");
        snap += t.elapsed().as_secs_f64();
        let t = Instant::now();
        twin.execute(r);
        base += t.elapsed().as_secs_f64();
    }
    snap / base
}

/// Registry and flight-recorder state at one instant.
pub struct Obs {
    registry: Snapshot,
    /// Recorder (requests decided, traces captured).
    recorder: (u64, u64),
}

impl Obs {
    pub fn take(server: &Server) -> Obs {
        let (decided, captured, ..) = server.recorder().stats();
        Obs {
            registry: graphbi_obs::global().snapshot(),
            recorder: (decided, captured),
        }
    }
}

/// Counter and histogram deltas between two [`Obs`] readings.
pub struct ObsDelta<'a> {
    pub before: &'a Obs,
    pub after: &'a Obs,
}

impl ObsDelta<'_> {
    pub fn counter(&self, name: &str) -> u64 {
        let get = |o: &Obs| o.registry.counters.get(name).copied().unwrap_or(0);
        get(self.after) - get(self.before)
    }

    /// `(count, sum)` recorded into histogram `name` between the readings.
    fn hist(&self, name: &str) -> (u64, u64) {
        let empty = HistSnapshot::default();
        let get = |o: &'_ Obs| {
            let h = o.registry.histograms.get(name).unwrap_or(&empty);
            (h.count, h.sum)
        };
        let (c0, s0) = get(self.before);
        let (c1, s1) = get(self.after);
        (c1 - c0, s1 - s0)
    }

    /// Mean of the values recorded into histogram `name` (0 when none).
    pub fn hist_mean(&self, name: &str) -> f64 {
        let (count, sum) = self.hist(name);
        ratio(sum as f64, count as f64)
    }

    /// Flight-recorder captures over requests decided.
    pub fn sampled_frac(&self) -> f64 {
        let decided = self.after.recorder.0 - self.before.recorder.0;
        let captured = self.after.recorder.1 - self.before.recorder.1;
        ratio(captured as f64, decided as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
