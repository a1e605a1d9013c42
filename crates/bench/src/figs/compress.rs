//! Compressed format v3 vs raw v2: disk footprint and answer differential
//! (the PR-8 tentpole measurement).
//!
//! Two datasets, both NY-shaped, saved twice each — once as format v2 (raw
//! payloads) and once as v3 (codec-compressed payloads):
//!
//! * **ny-zipf-quantized** — measures quantized to a small Zipf-skewed
//!   value domain, the shape real sensor/toll/latency measures take. This
//!   is where dictionary coding earns its keep; the acceptance gate
//!   requires v3 to shrink bytes-on-disk by at least 2× here.
//! * **ny-uniform** — the paper's continuous uniform measures, which no
//!   dictionary can compress. Values of one sign over a few binades share
//!   their high bit-pattern bits, so the float frame-of-reference codec
//!   packs them to about 55 of 64 bits; the gate requires v3 to shrink
//!   this row by at least 1.25×.
//!
//! Every query of a Zipf-selected workload is answered three ways — the
//! in-memory store (raw truth), the v2 disk store, and the v3 disk store —
//! and the answers must be bit-identical (`f64::to_bits`, no tolerance)
//! before any size or timing is reported. A mismatch fails the run and the
//! `compress-smoke` CI job wrapping it. Results land in
//! `BENCH_compress.json`.

use std::fmt::Write as _;
use std::path::Path;

use graphbi::disk::{save_store_with_format, DiskGraphStore};
use graphbi::{GraphStore, IoStats};
use graphbi_columnstore::{os_vfs, FormatVersion};
use graphbi_graph::{GraphQuery, GraphRecord, RecordBuilder};
use graphbi_workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{fmt, ny, time_ms, zipf_queries, Table};

/// Column-cache budget for the disk stores: large enough that the timed
/// pass is not eviction-bound, so the cold numbers measure read+decode.
const CACHE_BYTES: usize = 64 << 20;

/// The acceptance gate on the quantized row (see module docs).
const MIN_ZIPF_RATIO: f64 = 2.0;

/// The acceptance gate on the continuous uniform row (see module docs).
const MIN_UNIFORM_RATIO: f64 = 1.25;

/// Re-measures every record from a Zipf-skewed quantized domain:
/// `0.5 + 0.5·k` for Zipf-sampled level `k` — about two dozen distinct
/// values, heavily skewed toward the first few. Structure (which edges
/// each record holds) is untouched, so the workload matches identically.
fn quantize_records(records: &[GraphRecord]) -> Vec<GraphRecord> {
    let levels = Zipf::new(24, 1.2);
    let mut rng = StdRng::seed_from_u64(0x51ab);
    records
        .iter()
        .map(|r| {
            let mut b = RecordBuilder::with_capacity(r.edge_count());
            for &(e, _) in r.edges() {
                b.add(e, 0.5 + levels.sample(&mut rng) as f64 * 0.5);
            }
            if let Some(g) = r.group() {
                b.group(g);
            }
            b.build()
        })
        .collect()
}

/// One query's answer reduced to exactly-comparable form: record ids plus
/// every measure's bit pattern.
type Answer = (Vec<u32>, Vec<u64>);

/// Runs the workload against an in-memory store — the raw truth the two
/// disk formats are differenced against.
fn truth(store: &GraphStore, queries: &[GraphQuery]) -> Vec<Answer> {
    queries
        .iter()
        .map(|q| {
            let (r, _) = store.evaluate(q);
            (r.records, r.measures.iter().map(|v| v.to_bits()).collect())
        })
        .collect()
}

/// Cold-opens `dir` and runs the workload once, returning the answers, the
/// wall clock, and the accumulated I/O stats of the pass.
fn cold_pass(dir: &Path, queries: &[GraphQuery]) -> (Vec<Answer>, f64, IoStats) {
    let disk = DiskGraphStore::open(dir, CACHE_BYTES).expect("open saved store");
    let mut stats = IoStats::new();
    let (answers, ms) = time_ms(|| {
        queries
            .iter()
            .map(|q| {
                let (r, s) = disk.evaluate(q).expect("disk evaluation");
                stats.merge(&s);
                (r.records, r.measures.iter().map(|v| v.to_bits()).collect())
            })
            .collect::<Vec<Answer>>()
    });
    (answers, ms, stats)
}

/// One dataset's v2-vs-v3 measurement.
struct Row {
    dataset: &'static str,
    v2_bytes: u64,
    v3_bytes: u64,
    v2_cold_ms: f64,
    v3_cold_ms: f64,
    v2_read_bytes: u64,
    v3_read_bytes: u64,
    identical: bool,
}

impl Row {
    fn ratio(&self) -> f64 {
        self.v2_bytes as f64 / self.v3_bytes.max(1) as f64
    }
}

/// Saves `store` in both formats, answers the workload through raw truth
/// and both disk stores, and reports sizes/timings — with `identical`
/// false unless every answer agreed bit-for-bit.
fn measure(dataset: &'static str, store: &GraphStore, queries: &[GraphQuery]) -> Row {
    let base = std::env::temp_dir().join(format!("graphbi-compress-{dataset}"));
    let dir_v2 = base.join("v2");
    let dir_v3 = base.join("v3");
    let _ = std::fs::remove_dir_all(&base);
    let vfs = os_vfs();
    let v2_bytes =
        save_store_with_format(vfs.as_ref(), store, &dir_v2, &[], &[], FormatVersion::V2)
            .expect("save v2");
    let v3_bytes =
        save_store_with_format(vfs.as_ref(), store, &dir_v3, &[], &[], FormatVersion::V3)
            .expect("save v3");

    let want = truth(store, queries);
    let (v2_answers, v2_cold_ms, v2_stats) = cold_pass(&dir_v2, queries);
    let (v3_answers, v3_cold_ms, v3_stats) = cold_pass(&dir_v3, queries);
    let _ = std::fs::remove_dir_all(&base);

    Row {
        dataset,
        v2_bytes,
        v3_bytes,
        v2_cold_ms,
        v3_cold_ms,
        v2_read_bytes: v2_stats.disk_bytes,
        v3_read_bytes: v3_stats.disk_bytes,
        identical: v2_answers == want && v3_answers == want,
    }
}

/// Runs the benchmark; returns `false` when any compressed-path answer
/// differed from raw, or a dataset missed its size gate (2× quantized,
/// 1.25× uniform).
pub fn run() -> bool {
    let d = ny(4_000);
    let queries = zipf_queries(&d, 80);
    let quantized = quantize_records(&d.records);
    let rows = [
        measure(
            "ny-zipf-quantized",
            &GraphStore::load(d.universe.clone(), &quantized),
            &queries,
        ),
        measure(
            "ny-uniform",
            &GraphStore::load(d.universe.clone(), &d.records),
            &queries,
        ),
    ];

    let mut t = Table::new(
        "Compressed format v3 vs raw v2 (cold cache)",
        &[
            "dataset",
            "v2_bytes",
            "v3_bytes",
            "ratio",
            "v2_cold_ms",
            "v3_cold_ms",
            "v2_read_bytes",
            "v3_read_bytes",
            "identical",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.dataset.into(),
            r.v2_bytes.to_string(),
            r.v3_bytes.to_string(),
            format!("{:.2}x", r.ratio()),
            fmt(r.v2_cold_ms),
            fmt(r.v3_cold_ms),
            r.v2_read_bytes.to_string(),
            r.v3_read_bytes.to_string(),
            r.identical.to_string(),
        ]);
    }
    t.emit("compress");

    let identical = rows.iter().all(|r| r.identical);
    let zipf_ratio_ok = rows[0].ratio() >= MIN_ZIPF_RATIO;
    let uniform_ratio_ok = rows[1].ratio() >= MIN_UNIFORM_RATIO;
    let never_grows = rows.iter().all(|r| r.v3_bytes <= r.v2_bytes);
    if !identical {
        println!("FAIL: a compressed-path answer differed from raw");
    }
    if !zipf_ratio_ok {
        println!(
            "FAIL: quantized ratio {:.2}x below the {MIN_ZIPF_RATIO}x gate",
            rows[0].ratio()
        );
    }
    if !uniform_ratio_ok {
        println!(
            "FAIL: uniform ratio {:.2}x below the {MIN_UNIFORM_RATIO}x gate",
            rows[1].ratio()
        );
    }
    if !never_grows {
        println!("FAIL: v3 produced more bytes than v2 on some dataset");
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"compress\",");
    let _ = writeln!(json, "  \"identical\": {identical},");
    let _ = writeln!(json, "  \"zipf_ratio_ok\": {zipf_ratio_ok},");
    let _ = writeln!(json, "  \"uniform_ratio_ok\": {uniform_ratio_ok},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"dataset\": \"{}\", \"v2_bytes\": {}, \"v3_bytes\": {}, \
             \"ratio\": {:.3}, \"v2_cold_ms\": {:.3}, \"v3_cold_ms\": {:.3}, \
             \"v2_read_bytes\": {}, \"v3_read_bytes\": {}, \"identical\": {}}}{comma}",
            r.dataset,
            r.v2_bytes,
            r.v3_bytes,
            r.ratio(),
            r.v2_cold_ms,
            r.v3_cold_ms,
            r.v2_read_bytes,
            r.v3_read_bytes,
            r.identical,
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    let out = std::env::var("GRAPHBI_BENCH_OUT").unwrap_or_else(|_| "BENCH_compress.json".into());
    std::fs::write(&out, &json).expect("write benchmark point");
    println!("wrote {out}");

    identical && zipf_ratio_ok && uniform_ratio_ok && never_grows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantized_records_keep_structure_and_shrink_cardinality() {
        let d = ny(100);
        let q = quantize_records(&d.records);
        assert_eq!(q.len(), d.records.len());
        let mut distinct = std::collections::BTreeSet::new();
        for (orig, quant) in d.records.iter().zip(&q) {
            let orig_edges: Vec<_> = orig.edges().iter().map(|&(e, _)| e).collect();
            let quant_edges: Vec<_> = quant.edges().iter().map(|&(e, _)| e).collect();
            assert_eq!(orig_edges, quant_edges, "structure must be untouched");
            for &(_, m) in quant.edges() {
                distinct.insert(m.to_bits());
            }
        }
        assert!(
            distinct.len() <= 24,
            "quantized domain too wide: {}",
            distinct.len()
        );
    }
}
