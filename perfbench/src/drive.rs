//! Load generators. Every request goes through `graphbi_serve::Client`.
//!
//! Reads run in a closed loop: each connection waits for an answer before
//! it sends its next request, as BI callers do. Connection `c` of
//! [`CONNS`] sends order positions `c`, `c + CONNS`, … so the request
//! order is fixed by the seed however fast the server answers.
//!
//! Each answer is fingerprinted after its latency sample is taken and
//! compared with the in-process answer; a failed request (ERR, BUSY or a
//! transport error) is counted and kept in the samples, never dropped.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use graphbi::{QueryRequest, Response};
use graphbi_columnstore::DeltaOp;
use graphbi_graph::GraphRecord;
use graphbi_serve::{Client, ClientError};

use crate::answer::{agrees_below, answer_values, fingerprint};
use crate::inputs::COMMIT_RECORDS;
use crate::spans::SpanLog;
use crate::stats::{cpu_seconds, Samples};

/// Bytes every server has written to its clients so far (registry).
fn served_bytes() -> u64 {
    graphbi_obs::global()
        .counter("graphbi_serve_write_bytes_total")
        .get()
}

/// Client connections of a read pass, one generator thread each: as many
/// as the two cores of the machine the benchmark was sized for.
pub const CONNS: usize = 2;

/// In a traced run, requests alternate in blocks of this many between
/// traced (a span recorded inside each latency sample) and untraced, so
/// the tracing overhead is measured interleaved.
pub const TRACE_BLOCK: usize = 64;

/// Latency samples of a run, split by whether spans were recorded.
#[derive(Default)]
pub struct Split {
    pub all: Samples,
    pub traced: Samples,
    pub untraced: Samples,
    /// Values (record ids, measures and aggregates) in the completed
    /// answers.
    pub values: u64,
}

impl Split {
    fn record(&mut self, traced: bool, secs: Option<f64>) {
        for s in [
            &mut self.all,
            if traced {
                &mut self.traced
            } else {
                &mut self.untraced
            },
        ] {
            match secs {
                Some(v) => s.ok(v),
                None => s.fail(),
            }
        }
    }

    fn merge(&mut self, other: Split) {
        self.all.merge(other.all);
        self.traced.merge(other.traced);
        self.untraced.merge(other.untraced);
        self.values += other.values;
    }
}

/// When a read loop stops.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this many requests per connection.
    Each(usize),
    /// After `secs` seconds once `min_samples` requests completed, and in
    /// any case after three times `secs`.
    Time { secs: f64, min_samples: usize },
}

/// One closed-loop read pass.
pub struct Reads<'a> {
    pub addr: SocketAddr,
    pub requests: &'a [QueryRequest],
    pub order: &'a [usize],
    pub expect: &'a [u64],
    pub until: Until,
    /// Record spans (traced run).
    pub trace: bool,
    pub epoch: Instant,
}

/// What a read pass observed.
pub struct ReadRun {
    pub latency: Split,
    pub mismatches: u64,
    pub elapsed: f64,
    /// Process CPU seconds used during the pass (server and clients).
    pub cpu: f64,
    /// Bytes the server wrote to its clients during the pass.
    pub wire_bytes: u64,
    pub logs: Vec<SpanLog>,
}

impl Reads<'_> {
    pub fn run(&self) -> ReadRun {
        let barrier = Barrier::new(CONNS + 1);
        let done = AtomicUsize::new(0);
        let mut started = Instant::now();
        let (mut cpu, mut wire) = (0.0, 0);
        let mut outs = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNS)
                .map(|c| {
                    let (barrier, done) = (&barrier, &done);
                    scope.spawn(move || self.connection(c, barrier, done))
                })
                .collect();
            barrier.wait();
            started = Instant::now();
            (cpu, wire) = (cpu_seconds(), served_bytes());
            outs = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
        });
        let elapsed = started.elapsed().as_secs_f64();
        let (cpu, wire_bytes) = (cpu_seconds() - cpu, served_bytes() - wire);
        let mut latency = Split::default();
        let (mut mismatches, mut logs) = (0, Vec::new());
        for (split, bad, log) in outs {
            latency.merge(split);
            mismatches += bad;
            logs.push(log);
        }
        ReadRun {
            latency,
            mismatches,
            elapsed,
            cpu,
            wire_bytes,
            logs,
        }
    }

    fn connection(&self, c: usize, barrier: &Barrier, done: &AtomicUsize) -> (Split, u64, SpanLog) {
        let mut client = connect(self.addr);
        let mut log = SpanLog::new(self.epoch, c as u64 + 1);
        let (mut split, mut mismatches) = (Split::default(), 0u64);
        barrier.wait();
        let t0 = Instant::now();
        let mut k = 0usize;
        loop {
            match self.until {
                Until::Each(n) if k >= n => break,
                Until::Time { secs, min_samples } => {
                    let run = t0.elapsed().as_secs_f64();
                    if (run >= secs && done.load(Ordering::Relaxed) >= min_samples)
                        || run >= 3.0 * secs
                    {
                        break;
                    }
                }
                _ => {}
            }
            let pos = c + k * CONNS;
            let idx = self.order[pos % self.order.len()];
            let traced = self.trace && (k / TRACE_BLOCK) % 2 == 1;
            let sent = Instant::now();
            let answer = client.query(&self.requests[idx]);
            // A traced request's sample includes recording its span: the
            // traced and untraced blocks differ by exactly that cost.
            if traced {
                let rid = client.last_request_id().unwrap_or(pos as u64);
                log.record("serve.client_query", 0, rid, sent, Instant::now());
            }
            let end = Instant::now();
            match answer {
                Ok(resp) => {
                    split.record(traced, Some((end - sent).as_secs_f64()));
                    split.values += answer_values(&resp);
                    if fingerprint(&resp) != self.expect[idx] {
                        mismatches += 1;
                        report_mismatch(pos, &self.requests[idx]);
                    }
                }
                Err(e) => {
                    split.record(traced, None);
                    client = recover(client, e, self.addr);
                }
            }
            done.fetch_add(1, Ordering::Relaxed);
            k += 1;
        }
        (split, mismatches, log)
    }
}

/// Connects, retrying briefly while a fresh server comes up.
pub fn connect(addr: SocketAddr) -> Client {
    let mut last = None;
    for _ in 0..50 {
        match Client::connect(addr) {
            Ok(c) => return c,
            Err(e) => last = Some(e),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!(
        "cannot connect to {addr}: {}",
        last.expect("an attempt failed")
    );
}

/// Keeps a connection usable after a failed request: typed refusals
/// leave the framing intact, anything else reconnects.
fn recover(client: Client, e: ClientError, addr: SocketAddr) -> Client {
    eprintln!("request failed: {e}");
    match e {
        ClientError::Busy { .. } | ClientError::Remote { .. } => client,
        ClientError::Io(_) | ClientError::Protocol(_) => {
            drop(client);
            connect(addr)
        }
    }
}

fn report_mismatch(pos: usize, request: &QueryRequest) {
    eprintln!(
        "MISMATCH at order position {pos}: served answer differs from in-process for {}",
        request.to_text()
    );
}

/// The ops of commit `i`: the next [`COMMIT_RECORDS`] inserts.
fn commit_ops(inserts: &[GraphRecord], i: usize) -> Vec<DeltaOp> {
    inserts[i * COMMIT_RECORDS..(i + 1) * COMMIT_RECORDS]
        .iter()
        .map(|r| DeltaOp::Insert(r.clone()))
        .collect()
}

/// What the ingest run observed.
pub struct IngestRun {
    pub reads: Split,
    pub commits: Samples,
    pub refreshes: Samples,
    /// Inserts acknowledged.
    pub inserted: u64,
    /// Reads whose answer differed from the expected one.
    pub mismatches: u64,
    /// Reads that could not be checked because an earlier commit failed.
    pub unchecked: u64,
    /// Every REFRESH pinned exactly the acknowledged commits.
    pub consistent: bool,
    pub elapsed: f64,
    /// Process CPU seconds used during the run.
    pub cpu: f64,
    /// Bytes the server wrote to its clients during the run.
    pub wire_bytes: u64,
    pub log: SpanLog,
}

/// The ingest run: each cycle is one COMMIT of [`COMMIT_RECORDS`]
/// inserts on the writer connection, then a REFRESH and two reads on the
/// reader connection, driven from one thread. Each read is checked, after
/// its latency sample, against `oracle` (the answers of a store loaded
/// from the base plus every insert) restricted to the inserts its session
/// sees.
pub struct Ingest<'a> {
    pub addr: SocketAddr,
    pub requests: &'a [QueryRequest],
    pub order: &'a [usize],
    pub inserts: &'a [GraphRecord],
    pub oracle: &'a [Option<Response>],
    /// Base records: the first inserted record id.
    pub base: u64,
    pub cycles: usize,
    /// Record spans, timed from this instant (traced run).
    pub trace: Option<Instant>,
}

impl Ingest<'_> {
    pub fn run(&self) -> IngestRun {
        let mut writer = connect(self.addr);
        let mut reader = connect(self.addr);
        let epoch0 = reader.epoch();
        let mut log = SpanLog::new(self.trace.unwrap_or_else(Instant::now), 1);
        let mut reads = Split::default();
        let (mut commits, mut refreshes) = (Samples::new(), Samples::new());
        let (mut mismatches, mut unchecked) = (0u64, 0u64);
        let mut consistent = true;
        let mut all_acked = true;
        let (mut acked_commits, mut visible) = (0u64, 0u64);
        let started = Instant::now();
        let (cpu, wire) = (cpu_seconds(), served_bytes());
        for cycle in 0..self.cycles {
            let traced = self.trace.is_some() && (cycle / TRACE_BLOCK) % 2 == 1;
            let root = if traced { log.reserve() } else { 0 };
            let cycle_start = Instant::now();
            let ops = commit_ops(self.inserts, cycle);
            let sent = Instant::now();
            let ok = match writer.commit(&ops) {
                Ok(_) => {
                    commits.ok(sent.elapsed().as_secs_f64());
                    true
                }
                Err(e) => {
                    commits.fail();
                    writer = recover(writer, e, self.addr);
                    false
                }
            };
            if traced {
                let rid = writer.last_request_id().unwrap_or(0);
                log.record("serve.client_commit", root, rid, sent, Instant::now());
            }
            acked_commits += u64::from(ok);
            all_acked &= ok;
            let sent = Instant::now();
            match reader.refresh() {
                Ok((_, epoch)) => {
                    refreshes.ok(sent.elapsed().as_secs_f64());
                    consistent &= epoch == epoch0 + acked_commits;
                    visible = (epoch - epoch0) * COMMIT_RECORDS as u64;
                }
                Err(e) => {
                    refreshes.fail();
                    reader = recover(reader, e, self.addr);
                }
            }
            if traced {
                let rid = reader.last_request_id().unwrap_or(0);
                log.record("serve.client_refresh", root, rid, sent, Instant::now());
            }
            for j in 0..2 {
                let pos = 2 * cycle + j;
                let idx = self.order[pos % self.order.len()];
                let sent = Instant::now();
                let answer = reader.query(&self.requests[idx]);
                if traced {
                    let rid = reader.last_request_id().unwrap_or(pos as u64);
                    log.record("serve.client_query", root, rid, sent, Instant::now());
                }
                let end = Instant::now();
                match answer {
                    Ok(resp) => {
                        reads.record(traced, Some((end - sent).as_secs_f64()));
                        reads.values += answer_values(&resp);
                        // Record ids shift after a failed commit, so the
                        // oracle no longer applies.
                        if !all_acked {
                            unchecked += 1;
                        } else if !self.oracle[idx]
                            .as_ref()
                            .is_some_and(|want| agrees_below(want, self.base + visible, &resp))
                        {
                            mismatches += 1;
                            report_mismatch(pos, &self.requests[idx]);
                        }
                    }
                    Err(e) => {
                        reads.record(traced, None);
                        reader = recover(reader, e, self.addr);
                    }
                }
            }
            if traced {
                log.record_as(
                    root,
                    "ingest.cycle",
                    0,
                    cycle as u64,
                    cycle_start,
                    Instant::now(),
                );
            }
        }
        IngestRun {
            reads,
            commits,
            refreshes,
            inserted: acked_commits * COMMIT_RECORDS as u64,
            mismatches,
            unchecked,
            consistent,
            elapsed: started.elapsed().as_secs_f64(),
            cpu: cpu_seconds() - cpu,
            wire_bytes: served_bytes() - wire,
            log,
        }
    }
}
