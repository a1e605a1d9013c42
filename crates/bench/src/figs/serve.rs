//! Service-layer benchmark (the PR-7 tentpole measurement).
//!
//! Drives the TCP server with 1, 8 and 32 concurrent client connections
//! over the Zipf graph workload, in two server configurations:
//!
//! * **dispatch**: `batch_max = 1` — every admitted request is its own
//!   `evaluate_many` call, the one-request-per-dispatch baseline;
//! * **batched**: `batch_max = 64` — requests arriving concurrently on
//!   *different connections* coalesce into shared batches, so the
//!   engine's duplicate-request elimination and shared planning work
//!   across the network exactly as in-process.
//!
//! A third comparison prices the answer format on one connection:
//! `graphbi/1` text answers, read by a minimal raw-socket loop, against
//! `graphbi/2` binary result frames, read by [`Client`]. The two run as
//! interleaved pairs (the order alternating), and each side reports its
//! per-run p50, p99 and served bytes per response as median and range.
//!
//! Every served response is checked bit-identical (canonical wire text)
//! against the in-process `Session` answer before any timing is
//! reported; a mismatch fails the run and the CI job wrapping it.
//! Per-request latency percentiles land in `BENCH_serve.json`.

use std::fmt::Write as _;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use graphbi::{GraphStore, MvccStore, QueryRequest, Response, Session};
use graphbi_obs::Histogram;
use graphbi_serve::{Client, ServeConfig, ServeStore, Server};

use crate::{fmt, ny, zipf_queries, Table};

/// Concurrent connection counts swept by the benchmark.
pub const CLIENTS: [usize; 3] = [1, 8, 32];

/// Requests each client issues per run.
const PER_CLIENT: usize = 60;

/// Interleaved text/binary run pairs in the answer-format comparison.
const FORMAT_PAIRS: usize = 7;

/// Requests per answer-format run (one connection).
const FORMAT_REQUESTS: usize = 300;

/// One (mode × clients) measurement.
struct Run {
    mode: &'static str,
    clients: usize,
    p50_us: f64,
    p99_us: f64,
    /// `evaluate_many` dispatches the batcher issued.
    batches: u64,
    /// Requests those dispatches answered.
    requests: u64,
    identical: bool,
    /// Wall-clock for the whole run — the recorder-overhead comparison.
    wall_s: f64,
}

impl Run {
    fn mean_batch(&self) -> f64 {
        self.requests as f64 / (self.batches as f64).max(1.0)
    }
}

fn run_config(
    store: &Arc<MvccStore>,
    reqs: &Arc<Vec<QueryRequest>>,
    expected: &Arc<Vec<String>>,
    mode: &'static str,
    clients: usize,
    cfg: ServeConfig,
) -> Run {
    let server = Server::start(ServeStore::Mvcc(Arc::clone(store)), "127.0.0.1:0", cfg)
        .expect("server starts");
    let addr = server.addr();

    let reg = graphbi_obs::global();
    let batches_before = reg.counter("graphbi_serve_batches_total").get();
    let requests_before = reg.counter("graphbi_serve_batched_requests_total").get();

    // All client threads record into one atomic histogram — the same
    // power-of-two buckets the server's METRICS/TOP report, so figure
    // percentiles and live percentiles share one quantile code path.
    let hist = Arc::new(Histogram::new());
    let started_all = std::time::Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let reqs = Arc::clone(reqs);
            let expected = Arc::clone(expected);
            let hist = Arc::clone(&hist);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut identical = true;
                for k in 0..PER_CLIENT {
                    let i = (c * 7 + k) % reqs.len();
                    let started = std::time::Instant::now();
                    let resp = client.query(&reqs[i]).expect("query");
                    hist.record(started.elapsed().as_nanos() as u64);
                    identical &= resp.to_text() == expected[i];
                }
                identical
            })
        })
        .collect();

    let mut identical = true;
    for t in threads {
        identical &= t.join().expect("client thread");
    }
    let wall_s = started_all.elapsed().as_secs_f64();
    let snap = hist.snapshot();

    Run {
        mode,
        clients,
        p50_us: snap.quantile(0.50) as f64 / 1e3,
        p99_us: snap.quantile(0.99) as f64 / 1e3,
        batches: reg.counter("graphbi_serve_batches_total").get() - batches_before,
        requests: reg.counter("graphbi_serve_batched_requests_total").get() - requests_before,
        identical,
        wall_s,
    }
}

/// One single-connection run of the answer-format comparison.
struct FormatRun {
    p50_us: f64,
    p99_us: f64,
    /// Bytes the server wrote per answered `QUERY` (status line included).
    bytes_per_response: f64,
    identical: bool,
}

/// Nearest-rank quantile of ascending `sorted`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Bytes every server in this process has written to its clients.
fn served_bytes() -> u64 {
    graphbi_obs::global()
        .counter("graphbi_serve_write_bytes_total")
        .get()
}

/// Runs `session` against a fresh server and returns what it returned plus
/// every byte the server wrote meanwhile. Shutdown joins the connection
/// handlers, so the count is exact.
fn on_fresh_server<T>(store: &Arc<MvccStore>, session: impl FnOnce(SocketAddr) -> T) -> (T, u64) {
    let before = served_bytes();
    let mut server = Server::start(
        ServeStore::Mvcc(Arc::clone(store)),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("server starts");
    let out = session(server.addr());
    server.shutdown();
    (out, served_bytes() - before)
}

/// Sends one `graphbi/1` frame line, reads the status line and returns
/// the `lines=n` payload it announces, verbatim.
fn text_exchange(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writer.write_all(line.as_bytes()).expect("send");
    let mut head = String::new();
    reader.read_line(&mut head).expect("status line");
    let lines: usize = head
        .split_whitespace()
        .find_map(|t| t.strip_prefix("lines="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("text head without lines=: {head:?}"));
    let mut body = String::new();
    for _ in 0..lines {
        reader.read_line(&mut body).expect("payload line");
    }
    body
}

/// A `graphbi/1` session reduced to what a text client must do: send
/// `QUERY` lines, read each `lines=n` head and its `n` lines, and parse
/// the block. Returns per-request latencies in µs and whether every
/// answer was byte-identical to the expected canonical text. `n == 0`
/// only says hello and goodbye.
fn text_session(
    addr: SocketAddr,
    reqs: &[QueryRequest],
    expected: &[String],
    n: usize,
) -> (Vec<f64>, bool) {
    let mut writer = TcpStream::connect(addr).expect("connect");
    writer.set_nodelay(true).ok();
    let mut reader = BufReader::new(writer.try_clone().expect("clone stream"));
    text_exchange(&mut reader, &mut writer, "HELLO graphbi/1\n");
    let mut latencies = Vec::with_capacity(n);
    let mut identical = true;
    for k in 0..n {
        let i = k % reqs.len();
        let started = Instant::now();
        let body = text_exchange(
            &mut reader,
            &mut writer,
            &format!("QUERY {}\n", reqs[i].to_text()),
        );
        let parsed = Response::parse_text(&body);
        latencies.push(started.elapsed().as_secs_f64() * 1e6);
        identical &= parsed.is_ok() && body == expected[i];
    }
    text_exchange(&mut reader, &mut writer, "QUIT\n");
    (latencies, identical)
}

/// The same session through [`Client`], which speaks `graphbi/2`.
fn binary_session(
    addr: SocketAddr,
    reqs: &[QueryRequest],
    expected: &[String],
    n: usize,
) -> (Vec<f64>, bool) {
    let mut client = Client::connect(addr).expect("client connects");
    let mut latencies = Vec::with_capacity(n);
    let mut identical = true;
    for k in 0..n {
        let i = k % reqs.len();
        let started = Instant::now();
        let resp = client.query(&reqs[i]);
        latencies.push(started.elapsed().as_secs_f64() * 1e6);
        identical &= resp.is_ok_and(|r| r.to_text() == expected[i]);
    }
    client.quit().expect("quit");
    (latencies, identical)
}

type SessionFn = fn(SocketAddr, &[QueryRequest], &[String], usize) -> (Vec<f64>, bool);

/// One measured run of `session`: latencies from `FORMAT_REQUESTS`
/// queries, bytes per response net of the hello/goodbye bytes `idle`.
fn format_run(
    store: &Arc<MvccStore>,
    reqs: &[QueryRequest],
    expected: &[String],
    session: SessionFn,
    idle: u64,
) -> FormatRun {
    let ((mut lat, identical), bytes) =
        on_fresh_server(store, |addr| session(addr, reqs, expected, FORMAT_REQUESTS));
    lat.sort_by(f64::total_cmp);
    FormatRun {
        p50_us: quantile(&lat, 0.50),
        p99_us: quantile(&lat, 0.99),
        bytes_per_response: bytes.saturating_sub(idle) as f64 / FORMAT_REQUESTS as f64,
        identical,
    }
}

/// Median, minimum and maximum of one metric over a side's runs.
fn spread(runs: &[FormatRun], metric: impl Fn(&FormatRun) -> f64) -> (f64, f64, f64) {
    let mut v: Vec<f64> = runs.iter().map(metric).collect();
    v.sort_by(f64::total_cmp);
    (quantile(&v, 0.5), v[0], v[v.len() - 1])
}

/// Interleaved text-vs-binary pairs; returns `(text runs, binary runs)`.
fn compare_formats(
    store: &Arc<MvccStore>,
    reqs: &[QueryRequest],
    expected: &[String],
) -> (Vec<FormatRun>, Vec<FormatRun>) {
    let idle =
        |session: SessionFn| on_fresh_server(store, |addr| session(addr, reqs, expected, 0)).1;
    let (text_idle, binary_idle) = (idle(text_session), idle(binary_session));
    let (mut text, mut binary) = (Vec::new(), Vec::new());
    for pair in 0..FORMAT_PAIRS {
        let run_text = || format_run(store, reqs, expected, text_session, text_idle);
        let run_binary = || format_run(store, reqs, expected, binary_session, binary_idle);
        if pair % 2 == 0 {
            text.push(run_text());
            binary.push(run_binary());
        } else {
            binary.push(run_binary());
            text.push(run_text());
        }
    }
    (text, binary)
}

/// Runs the benchmark; returns `false` when any served answer differed
/// from in-process, or when the batched server failed to coalesce
/// cross-connection requests under contention.
pub fn run() -> bool {
    let d = ny(10_000);
    let qs = zipf_queries(&d, 100);
    let store = Arc::new(MvccStore::new_mem(GraphStore::load(d.universe, &d.records)));
    let reqs: Arc<Vec<QueryRequest>> =
        Arc::new(qs.iter().map(|q| QueryRequest::new(q.clone())).collect());
    let expected: Arc<Vec<String>> = Arc::new(
        store
            .evaluate_many(&reqs)
            .expect("workload is acyclic")
            .into_iter()
            .map(|(resp, _)| resp.to_text())
            .collect(),
    );

    // Best of three runs per configuration (same convention as fig6),
    // applied symmetrically to both modes: scheduler jitter at the
    // millisecond scale otherwise dominates the tail percentiles.
    let best = |mode: &'static str, clients: usize, cfg: &dyn Fn() -> ServeConfig| {
        let trials: Vec<Run> = (0..3)
            .map(|_| run_config(&store, &reqs, &expected, mode, clients, cfg()))
            .collect();
        // Correctness is judged over every trial, not just the kept one.
        let all_identical = trials.iter().all(|r| r.identical);
        let mut kept = trials
            .into_iter()
            .min_by(|a, b| {
                (a.p99_us + a.p50_us)
                    .partial_cmp(&(b.p99_us + b.p50_us))
                    .expect("finite percentiles")
            })
            .expect("three runs executed");
        kept.identical = all_identical;
        kept
    };
    let base = |batch_max: usize| ServeConfig {
        batch_max,
        queue_depth: 1024,
        ..ServeConfig::default()
    };
    let mut runs = Vec::new();
    for &clients in &CLIENTS {
        runs.push(best("dispatch", clients, &|| base(1)));
        runs.push(best("batched", clients, &|| base(64)));
    }

    // Recorder overhead on the unsampled fast path: the same batched
    // 8-client workload with the flight recorder disabled (capacity 0)
    // vs armed with head sampling off — every request pays the full
    // per-request decision cost (rid assignment, sampler, slow check)
    // but none is captured. Head-sampled requests are deliberately NOT
    // in this comparison: they run solo through the profiler, a feature
    // cost, not recorder bookkeeping. Best of three each; answers must
    // stay bit-identical in every trial.
    // Trials interleave off/on so machine drift hits both sides alike;
    // each side keeps its fastest wall-clock.
    let (mut offs, mut ons) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        offs.push(run_config(
            &store,
            &reqs,
            &expected,
            "recorder-off",
            8,
            ServeConfig {
                flight_capacity: 0,
                sample_every: 0,
                ..base(64)
            },
        ));
        ons.push(run_config(
            &store,
            &reqs,
            &expected,
            "recorder-on",
            8,
            ServeConfig {
                sample_every: 0,
                ..base(64)
            },
        ));
    }
    let fastest = |trials: Vec<Run>| {
        let all_identical = trials.iter().all(|r| r.identical);
        let mut kept = trials
            .into_iter()
            .min_by(|a, b| a.wall_s.partial_cmp(&b.wall_s).expect("finite wall"))
            .expect("three runs executed");
        kept.identical = all_identical;
        kept
    };
    let rec_off = fastest(offs);
    let rec_on = fastest(ons);
    let overhead_pct = (rec_on.wall_s - rec_off.wall_s) / rec_off.wall_s.max(1e-9) * 100.0;

    let (text_runs, binary_runs) = compare_formats(&store, &reqs, &expected);

    let mut t = Table::new(
        "Service layer: per-request latency, dispatch (batch_max=1) vs batched (batch_max=64)",
        &[
            "mode",
            "clients",
            "p50_us",
            "p99_us",
            "dispatches",
            "requests",
            "mean_batch",
            "identical",
        ],
    );
    for r in runs.iter().chain([&rec_off, &rec_on]) {
        t.row(vec![
            r.mode.into(),
            r.clients.to_string(),
            fmt(r.p50_us),
            fmt(r.p99_us),
            r.batches.to_string(),
            r.requests.to_string(),
            format!("{:.2}", r.mean_batch()),
            r.identical.to_string(),
        ]);
    }
    t.emit("serve");
    println!(
        "recorder overhead (8 clients, batched): off {:.3}s, on {:.3}s, {overhead_pct:+.2}%",
        rec_off.wall_s, rec_on.wall_s
    );

    let mut t = Table::new(
        &format!(
            "Answer format, 1 client: {FORMAT_PAIRS} interleaved pairs, median [min, max] over runs"
        ),
        &["format", "p50_us", "p99_us", "bytes/response", "identical"],
    );
    let cell = |(med, lo, hi): (f64, f64, f64)| format!("{} [{}, {}]", fmt(med), fmt(lo), fmt(hi));
    for (name, runs) in [
        ("text graphbi/1", &text_runs),
        ("binary graphbi/2", &binary_runs),
    ] {
        t.row(vec![
            name.into(),
            cell(spread(runs, |r| r.p50_us)),
            cell(spread(runs, |r| r.p99_us)),
            cell(spread(runs, |r| r.bytes_per_response)),
            runs.iter().all(|r| r.identical).to_string(),
        ]);
    }
    t.emit("serve_formats");

    // Machine-readable point for the benchmark history.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"serve\",");
    let _ = writeln!(json, "  \"queries\": {},", reqs.len());
    let _ = writeln!(json, "  \"per_client\": {PER_CLIENT},");
    let _ = writeln!(json, "  \"configs\": [");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"clients\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"dispatches\": {}, \"requests\": {}, \"mean_batch\": {:.2}, \
             \"identical\": {}}}{comma}",
            r.mode,
            r.clients,
            r.p50_us,
            r.p99_us,
            r.batches,
            r.requests,
            r.mean_batch(),
            r.identical,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"recorder\": {{\"clients\": 8, \"off_s\": {:.4}, \"on_s\": {:.4}, \
         \"overhead_pct\": {overhead_pct:.2}, \"sample_every\": 0, \"identical\": {}}},",
        rec_off.wall_s,
        rec_on.wall_s,
        rec_off.identical && rec_on.identical,
    );
    let stat = |(med, lo, hi): (f64, f64, f64)| {
        format!("{{\"median\": {med:.1}, \"min\": {lo:.1}, \"max\": {hi:.1}}}")
    };
    let side = |runs: &[FormatRun]| {
        format!(
            "{{\"p50_us\": {}, \"p99_us\": {}, \"bytes_per_response\": {}, \"identical\": {}}}",
            stat(spread(runs, |r| r.p50_us)),
            stat(spread(runs, |r| r.p99_us)),
            stat(spread(runs, |r| r.bytes_per_response)),
            runs.iter().all(|r| r.identical)
        )
    };
    let _ = writeln!(
        json,
        "  \"formats\": {{\"clients\": 1, \"pairs\": {FORMAT_PAIRS}, \"requests_per_run\": {FORMAT_REQUESTS},\n    \
         \"text\": {},\n    \"binary\": {}}}",
        side(&text_runs),
        side(&binary_runs)
    );
    json.push_str("}\n");
    let out = std::env::var("GRAPHBI_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }

    let identical = runs.iter().all(|r| r.identical)
        && rec_off.identical
        && rec_on.identical
        && text_runs.iter().chain(&binary_runs).all(|r| r.identical);
    // Under contention the batched server must actually coalesce: the
    // 32-client batched run needs fewer dispatches than requests.
    let coalesced = runs
        .iter()
        .filter(|r| r.mode == "batched" && r.clients >= 32)
        .all(|r| r.batches < r.requests);
    if !identical {
        eprintln!("serve bench: a served answer differed from in-process");
    }
    if !coalesced {
        eprintln!("serve bench: no cross-connection batching observed at 32 clients");
    }
    identical && coalesced
}
