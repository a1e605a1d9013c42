//! The repository benchmark: served read, disk and ingest workloads with
//! per-layer attribution.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read-mem-zipf --seed 1 --seconds 15 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) prints every per-layer metric. Either way the last
//! line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The
//! process exits nonzero when any served answer differs from the
//! in-process answer. See `perfbench/README.md` for the workloads and the
//! meaning of each metric.

mod answer;
mod drive;
mod inputs;
mod layers;
mod mem;
mod spans;
mod stats;
mod system;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use graphbi::{GraphStore, QueryRequest, Response, Session};

use crate::answer::{agrees_below, fingerprint};
use crate::drive::{IngestRun, Reads, Until};
use crate::inputs::{Inputs, BASE_RECORDS, COMMIT_RECORDS, INGEST_CYCLES};
use crate::layers::{ratio, Obs, ObsDelta, Twin};
use crate::mem::PeakRss;
use crate::spans::SpanLog;
use crate::stats::{median, Samples};
use crate::system::{dir_bytes, mem_store, System};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Warm-up requests before any timed pass (at most one per distinct
/// request).
const WARM_REQUESTS: usize = 256;
/// Completed reads a timed read pass needs before it may stop: enough
/// for a 99th percentile with ten samples beyond it.
const MIN_READS: usize = 1_000;
/// Served requests replayed in-process by the traced run.
const REPLAY: usize = 1_000;
/// Requests the MVCC read-overhead comparison runs.
const OVERHEAD_REQUESTS: usize = 200;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadMemZipf,
    ReadDiskUniform,
    IngestMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "read-mem-zipf" => Some(Workload::ReadMemZipf),
            "read-disk-uniform" => Some(Workload::ReadDiskUniform),
            "ingest-mixed" => Some(Workload::IngestMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ReadMemZipf => "read-mem-zipf",
            Workload::ReadDiskUniform => "read-disk-uniform",
            Workload::IngestMixed => "ingest-mixed",
        }
    }

    /// Column cache of a disk-backed store; `None` for the in-memory one.
    pub fn cache_bytes(self) -> Option<usize> {
        match self {
            Workload::ReadMemZipf => None,
            Workload::ReadDiskUniform => Some(system::DISK_CACHE),
            Workload::IngestMixed => Some(system::INGEST_CACHE),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <read-mem-zipf|read-disk-uniform|ingest-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A run's result: metrics in report order, plus facts about the run.
#[derive(Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit, gated)`: gated metrics are the ones
    /// `BENCHMARK.json` lists; the others are printed for people only.
    metrics: Vec<(&'static str, f64, &'static str, bool)>,
    facts: Vec<(&'static str, String)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit, true));
    }

    /// A metric printed by name and unit but left out of the result
    /// object: its run-to-run spread on a shared two-core machine is wider
    /// than any bound the benchmark may set (see README).
    fn shown(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit, false));
    }

    fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    fn count(&mut self, samples: &Samples) {
        self.attempted += samples.attempted();
        self.failed += samples.failed();
    }

    /// A latency percentile in milliseconds; a percentile without ten
    /// samples beyond it is left out (and the run flagged).
    fn percentile_ms(&mut self, name: &'static str, samples: &Samples, q: f64, gated: bool) {
        match samples.quantile(q) {
            Some(v) => self.metrics.push((name, v * 1e3, "ms", gated)),
            None => {
                eprintln!(
                    "{name}: too few samples ({}) for this percentile",
                    samples.attempted()
                );
                self.correct = false;
            }
        }
    }

    fn print(&self) {
        for (name, value, unit, gated) in &self.metrics {
            let note = if *gated { "" } else { "  (not gated)" };
            println!("{name:<42} {value:>14.4} {unit}{note}");
        }
        let mut facts = String::from("{");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(facts, "{sep}\"{k}\": \"{v}\"");
        }
        println!("run {facts}}}");
        let mut metrics = String::new();
        for (i, (name, value, unit, _)) in self.metrics.iter().filter(|m| m.3).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        );
    }
}

/// A JSON number with every digit of `v`. JSON has no NaN or infinity, so
/// a non-finite value, which no metric is expected to take, prints as
/// `f64::MAX`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        format!("{:e}", f64::MAX)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&work).expect("work directory");
    let dir = work.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let report = run(&args, &work, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    report.print();
    if !report.correct {
        eprintln!("FAILED: a served answer differed from in-process, or a check failed");
        std::process::exit(1);
    }
}

/// Fingerprints of the in-process answers to every distinct request, on
/// a store built exactly as the served one (before any insert).
fn expected(inputs: &Inputs) -> Vec<u64> {
    let store = mem_store(inputs);
    inputs
        .requests
        .iter()
        .map(|r| fingerprint(&store.execute(r).expect("in-process answer").0))
        .collect()
}

/// Warm-up: every distinct request once (up to [`WARM_REQUESTS`]), so
/// cache fill and lazy set-up are paid before any timed pass.
fn warm_up(system: &System, inputs: &Inputs, expect: &[u64], report: &mut Report) -> u64 {
    let order: Vec<usize> = (0..inputs.requests.len().min(WARM_REQUESTS)).collect();
    let run = Reads {
        addr: system.server.addr(),
        requests: &inputs.requests,
        order: &order,
        expect,
        until: Until::Each(order.len().div_ceil(drive::CONNS)),
        trace: false,
        epoch: Instant::now(),
    }
    .run();
    report.count(&run.latency.all);
    run.mismatches
}

fn run(args: &Args, work: &Path, dir: &Path) -> Report {
    let wl = args.workload;
    let t = Instant::now();
    let inputs = Inputs::generate(wl, args.seed, BASE_RECORDS);
    let expect = expected(&inputs);
    let oracle = match wl {
        Workload::IngestMixed => oracle_answers(&inputs),
        _ => Vec::new(),
    };
    eprintln!("inputs generated in {:.2}s", t.elapsed().as_secs_f64());

    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut mismatches = 0u64;
    let mut setup_s = Vec::new();
    let mut set_up = |report: &mut Report, mismatches: &mut u64| {
        let t = Instant::now();
        let system = System::start(wl, &inputs, dir);
        *mismatches += warm_up(&system, &inputs, &expect, report);
        setup_s.push(t.elapsed().as_secs_f64());
        system
    };
    let rss = PeakRss::reset();
    let system = set_up(&mut report, &mut mismatches);
    report.fact("workload", wl.name());
    report.fact("seed", args.seed);
    report.fact("base_records", inputs.base.len());
    report.fact("insert_records", inputs.inserts.len());
    report.fact("distinct_requests", inputs.requests.len());
    report.fact("mem_bytes", system.mem_bytes);
    if let Some(d) = &system.dir {
        report.fact("disk_bytes", dir_bytes(d));
    }
    report.fact("cache_bytes", wl.cache_bytes().unwrap_or(0));
    report.fact(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    report.fact("kernel_path", format!("{:?}", graphbi::kernels::active()));

    if args.trace {
        mismatches += traced(args, work, &inputs, &expect, &oracle, system, &mut report);
    } else {
        mismatches += untraced(args, &inputs, &expect, &oracle, system, &rss, &mut report);
        // More set-ups, only to time them. They come after the peak
        // memory reading, and each stops before the next starts: one
        // server alive at a time, since the registry is process-wide.
        for _ in 1..SETUP_REPS {
            set_up(&mut report, &mut mismatches).stop();
        }
        report.metric("setup_s", median(&setup_s).expect("set-ups ran"), "s");
    }
    report.fact("setup_runs", format!("{setup_s:?}"));
    report.fact("mismatches", mismatches);
    report.correct &= mismatches == 0;
    report
}

/// The end-to-end run. Returns the answer mismatches it saw.
fn untraced(
    args: &Args,
    inputs: &Inputs,
    expect: &[u64],
    oracle: &[Option<Response>],
    system: System,
    rss: &PeakRss,
    report: &mut Report,
) -> u64 {
    let wl = args.workload;
    let mut mismatches = 0;
    let (reads, secs, cpu, wire, values);
    let mut ingest_run = None;
    if wl == Workload::IngestMixed {
        let mut run = ingest(inputs, oracle, &system, None, report);
        mismatches += run.mismatches + final_check(&system, inputs, oracle);
        report.count(&run.refreshes);
        (secs, cpu, wire) = (run.elapsed, run.cpu, run.wire_bytes);
        values = run.reads.values;
        reads = std::mem::take(&mut run.reads.all);
        ingest_run = Some(run);
    } else {
        let run = Reads {
            addr: system.server.addr(),
            requests: &inputs.requests,
            order: &inputs.order,
            expect,
            until: Until::Time {
                secs: args.seconds,
                min_samples: MIN_READS,
            },
            trace: false,
            epoch: Instant::now(),
        }
        .run();
        mismatches += run.mismatches;
        (secs, cpu, wire) = (run.elapsed, run.cpu, run.wire_bytes);
        values = run.latency.values;
        reads = run.latency.all;
    }
    let peak_rss = rss.peak_mb();
    let live = inputs.base.len() as u64 + ingest_run.as_ref().map_or(0, |r| r.inserted);
    let store_bytes = match &system.dir {
        Some(d) => dir_bytes(d) as f64,
        None => system.mem_bytes as f64,
    } / live as f64;
    let store = system.stop();
    report.fact(
        "delta_rows_end",
        store.record_count() - inputs.base.len() as u64,
    );
    drop(store);

    report.count(&reads);
    report.fact("query_samples", reads.attempted());
    let completed = reads.completed() as f64;
    report.metric("wire_bytes_per_value", wire as f64 / values as f64, "B");
    report.percentile_ms("query_p50_ms", &reads, 0.50, false);
    report.percentile_ms("query_p99_ms", &reads, 0.99, false);
    report.shown("query_qps", completed / secs, "1/s");
    report.shown("cpu_ms_per_query", cpu * 1e3 / completed, "ms");
    let (mut attempted, mut failed) = (reads.attempted(), reads.failed());
    if let Some(run) = &ingest_run {
        report.count(&run.commits);
        report.fact("commit_samples", run.commits.attempted());
        report.percentile_ms("commit_p50_ms", &run.commits, 0.50, false);
        report.percentile_ms("commit_p99_ms", &run.commits, 0.99, false);
        report.shown("ingest_rps", run.inserted as f64 / secs, "1/s");
        attempted += run.commits.attempted() + run.refreshes.attempted();
        failed += run.commits.failed() + run.refreshes.failed();
    }
    report.shown(
        "failed_frac",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    report.metric("peak_rss_mb", peak_rss, "MiB");
    report.metric("store_bytes_per_record", store_bytes, "B");
    mismatches
}

/// The ingest run: the fixed schedule of [`INGEST_CYCLES`] cycles, with
/// spans timed from `trace` in a traced run. Failed checks other than
/// answer mismatches (left in the run) mark the report incorrect.
fn ingest(
    inputs: &Inputs,
    oracle: &[Option<Response>],
    system: &System,
    trace: Option<Instant>,
    report: &mut Report,
) -> IngestRun {
    let run = drive::Ingest {
        addr: system.server.addr(),
        requests: &inputs.requests,
        order: &inputs.order,
        inserts: &inputs.inserts,
        oracle,
        base: inputs.base.len() as u64,
        cycles: INGEST_CYCLES,
        trace,
    }
    .run();
    if run.unchecked > 0 {
        eprintln!(
            "ingest: {} reads unchecked after a failed commit",
            run.unchecked
        );
        report.correct = false;
    }
    if !run.consistent {
        eprintln!("ingest: a REFRESH pinned an epoch other than the acknowledged commits");
        report.correct = false;
    }
    run
}

/// Checks the answer to every request the ingest run read, on a fresh
/// session after the last commit, against the oracle store; returns the
/// mismatches.
fn final_check(system: &System, inputs: &Inputs, oracle: &[Option<Response>]) -> u64 {
    let mut client = drive::connect(system.server.addr());
    let bad = inputs
        .requests
        .iter()
        .zip(oracle)
        .filter_map(|(r, want)| Some((r, want.as_ref()?)))
        .filter(|(r, want)| !agrees_below(want, u64::MAX, &client.query(r).expect("final read")))
        .count() as u64;
    if bad > 0 {
        eprintln!("MISMATCH: {bad} final answers differ from the store loaded with every insert");
    }
    bad
}

/// In-process answers of a store loaded from the base plus every insert
/// the ingest workload commits, for each request its run reads.
fn oracle_answers(inputs: &Inputs) -> Vec<Option<Response>> {
    let mut records = inputs.base.clone();
    records.extend_from_slice(&inputs.inserts);
    let store = GraphStore::load(inputs.universe.clone(), &records);
    drop(records);
    let reads = 2 * inputs.inserts.len() / COMMIT_RECORDS;
    let mut oracle = vec![None; inputs.requests.len()];
    for pos in 0..reads {
        let idx = inputs.order[pos % inputs.order.len()];
        if oracle[idx].is_none() {
            oracle[idx] = Some(
                store
                    .execute(&inputs.requests[idx])
                    .expect("oracle answers")
                    .0,
            );
        }
    }
    oracle
}

/// The traced run: the timed pass with benchmark-side spans, registry
/// deltas around it, then the in-process replay. Returns mismatches.
fn traced(
    args: &Args,
    work: &Path,
    inputs: &Inputs,
    expect: &[u64],
    oracle: &[Option<Response>],
    system: System,
    report: &mut Report,
) -> u64 {
    let wl = args.workload;
    let epoch = Instant::now();
    let twin = match &system.dir {
        Some(d) => Twin::disk(d, wl.cache_bytes().expect("disk workload")),
        None => Twin::Mem(mem_store(inputs)),
    };
    let mut mismatches = 0;
    let mut logs: Vec<SpanLog> = Vec::new();
    let before = Obs::take(&system.server);
    let (latency, timed_requests, ingest) = if wl == Workload::IngestMixed {
        let mut run = ingest(inputs, oracle, &system, Some(epoch), report);
        mismatches += run.mismatches;
        report.count(&run.commits);
        report.count(&run.refreshes);
        let requests =
            run.reads.all.attempted() + run.commits.attempted() + run.refreshes.attempted();
        (std::mem::take(&mut run.reads), requests, Some(run))
    } else {
        let run = Reads {
            addr: system.server.addr(),
            requests: &inputs.requests,
            order: &inputs.order,
            expect,
            until: Until::Time {
                secs: args.seconds,
                min_samples: MIN_READS,
            },
            trace: true,
            epoch,
        }
        .run();
        mismatches += run.mismatches;
        logs.extend(run.logs);
        let n = run.latency.all.attempted();
        (run.latency, n, None)
    };
    let after = Obs::take(&system.server);
    report.count(&latency.all);
    let mut acked_inserts = 0;
    if let Some(run) = ingest {
        mismatches += final_check(&system, inputs, oracle);
        acked_inserts = run.inserted;
        logs.push(run.log);
    }
    let obs = ObsDelta {
        before: &before,
        after: &after,
    };

    // In-process replay against the served store's own snapshot.
    let snapshot = system.store.snapshot();
    let mut log = SpanLog::new(epoch, 0);
    // Ingest reads run at the final delta, where answers include inserts,
    // so they are checked against the rebuilt store instead.
    let replay_expect = (wl != Workload::IngestMixed).then_some(expect);
    let replay = layers::replay(
        &snapshot,
        &twin,
        &inputs.requests,
        &inputs.order,
        0..REPLAY,
        replay_expect,
        &mut log,
    );
    mismatches += replay.mismatches;
    let (mut read_overhead, mut compact_s, mut delta_rows) = (0.0, 0.0, 0.0);
    if wl == Workload::IngestMixed {
        let sample: Vec<&QueryRequest> = inputs
            .order
            .iter()
            .take(OVERHEAD_REQUESTS)
            .map(|&i| &inputs.requests[i])
            .collect();
        read_overhead = layers::read_overhead(&snapshot, &twin, &sample);
        delta_rows = (snapshot.record_count() - inputs.base.len() as u64) as f64;
    }
    drop(snapshot);
    drop(twin);
    logs.push(log);
    let store = system.stop();
    if wl == Workload::IngestMixed {
        let t = Instant::now();
        store.compact().expect("compaction");
        compact_s = t.elapsed().as_secs_f64();
    }
    drop(store);
    let spans_path = work.join(format!("spans-{}.jsonl", wl.name()));
    let refs: Vec<&SpanLog> = logs.iter().collect();
    if let Err(e) = spans::write_jsonl(&spans_path, &refs) {
        eprintln!("cannot write {}: {e}", spans_path.display());
    }
    report.fact("spans", spans_path.display());
    report.fact("replayed", REPLAY);

    let q = |s: &Samples, q: f64| s.quantile(q).unwrap_or(0.0);
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let per_query =
        |f: &dyn Fn(&graphbi::IoStats) -> f64| mean(&replay.io.iter().map(f).collect::<Vec<_>>());
    report.metric("wire.render_us.p50", q(&replay.render, 0.5), "us");
    report.metric("wire.render_us.p99", q(&replay.render, 0.99), "us");
    report.metric("wire.parse_us.p50", q(&replay.parse, 0.5), "us");
    report.metric("wire.parse_us.p99", q(&replay.parse, 0.99), "us");
    report.metric("wire.encode_request_us.p50", q(&replay.encode, 0.5), "us");
    let kb: Vec<f64> = replay
        .response_bytes
        .iter()
        .map(|&b| b as f64 / 1024.0)
        .collect();
    report.metric("wire.response_kb.mean", mean(&kb), "KiB");
    report.metric("engine.exec_us.p50", q(&replay.exec, 0.5), "us");
    report.metric("engine.exec_us.p99", q(&replay.exec, 0.99), "us");
    report.metric("engine.structural_us.p50", q(&replay.structural, 0.5), "us");
    report.metric("engine.measure_us.p50", q(&replay.measure, 0.5), "us");
    report.metric(
        "engine.values_fetched_per_query",
        per_query(&|io| io.values_fetched as f64),
        "count",
    );
    report.metric("bitmap.and_many_us.p50", q(&replay.and_many, 0.5), "us");
    report.metric(
        "views.hit_ratio",
        per_query(&|io| f64::from(u8::from(io.view_bitmap_columns + io.agg_view_columns > 0))),
        "ratio",
    );
    report.metric(
        "views.structural_columns_per_query",
        per_query(&|io| io.structural_columns() as f64),
        "count",
    );
    report.metric(
        "columnstore.disk_reads_per_query",
        per_query(&|io| io.disk_reads as f64),
        "count",
    );
    report.metric(
        "columnstore.disk_kb_per_query",
        per_query(&|io| io.disk_bytes as f64 / 1024.0),
        "KiB",
    );
    let hits = obs.counter("graphbi_cache_hits_total") as f64;
    let misses = obs.counter("graphbi_cache_misses_total") as f64;
    report.metric(
        "columnstore.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    report.metric(
        "columnstore.cache_evictions",
        obs.counter("graphbi_cache_evictions_total") as f64,
        "count",
    );
    report.metric(
        "vfs.read_us.mean",
        obs.hist_mean("graphbi_vfs_read_ns") / 1e3,
        "us",
    );
    let server_us = obs.hist_mean("graphbi_serve_verb_query_us");
    report.metric("serve.server_query_us.mean", server_us, "us");
    report.metric(
        "serve.queue_wait_us.mean",
        obs.hist_mean("graphbi_serve_queue_wait_us"),
        "us",
    );
    report.metric(
        "serve.batch_size.mean",
        obs.hist_mean("graphbi_serve_batch_size"),
        "count",
    );
    report.metric(
        "serve.busy_total",
        obs.counter("graphbi_serve_busy_total") as f64,
        "count",
    );
    report.metric(
        "serve.write_bytes_per_request",
        ratio(
            obs.counter("graphbi_serve_write_bytes_total") as f64,
            timed_requests as f64,
        ),
        "B",
    );
    let client_us = latency.all.mean_ok() * 1e6;
    report.metric(
        "serve.unattributed_us",
        client_us - server_us - replay.encode.mean_ok() - replay.parse.mean_ok(),
        "us",
    );
    report.metric("mvcc.delta_rows_end", delta_rows, "count");
    report.metric("mvcc.read_overhead", read_overhead, "ratio");
    report.metric(
        "wal.bytes_per_record",
        ratio(
            obs.counter("graphbi_wal_bytes_total") as f64,
            acked_inserts as f64,
        ),
        "B",
    );
    report.metric(
        "wal.fsync_us.mean",
        obs.hist_mean("graphbi_vfs_fsync_ns") / 1e3,
        "us",
    );
    report.metric(
        "mvcc.commit_server_us.mean",
        obs.hist_mean("graphbi_serve_verb_commit_us"),
        "us",
    );
    report.metric("mvcc.compact_s", compact_s, "s");
    report.metric("obs.sampled_frac", obs.sampled_frac(), "ratio");
    let overhead = ratio(latency.traced.mean_ok(), latency.untraced.mean_ok()) - 1.0;
    report.metric("trace.overhead_pct", overhead * 100.0, "%");
    report.fact("client_query_us_mean", client_us);
    mismatches
}
