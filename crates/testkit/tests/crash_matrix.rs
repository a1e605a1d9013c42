//! Fixed-seed runs of the crash-consistency oracle, the teeth test (a
//! deliberately disabled checksum must be caught and shrunk), and the
//! bit-identity check between the in-memory store and its FaultVfs
//! persistence round-trip.

use std::path::PathBuf;
use std::sync::Arc;

use graphbi::disk::{save_store_with, DiskGraphStore};
use graphbi::{AggFn, EdgeId, GraphStore, QueryRequest, Session};
use graphbi_columnstore::persist::PART_APPEND_BATCH;
use graphbi_columnstore::{FaultVfs, FormatVersion, Verify, Vfs};
use graphbi_testkit::{crash, shrink_with, CrashFault, Scenario};

/// The tier-1 crash smoke: several fixed seeds survive the whole
/// crash-point × fault-kind sweep and the corruption-at-rest flips, and
/// the sweep is demonstrably large (hundreds of seeded crash points).
/// These saves are format v3 (the writer default), so every crash point
/// and byte flip here runs over compressed files.
#[test]
fn crash_sweep_is_clean_on_fixed_seeds() {
    let mut crash_points = 0;
    let mut flip_points = 0;
    for seed in [7u64, 42, 43] {
        let report = crash::check(&Scenario::generate(seed), CrashFault::None);
        assert!(
            report.passed(),
            "seed {seed}: {} broken guarantees, first: {}",
            report.failures.len(),
            report.failures[0],
        );
        // The flipped store holds value blocks of every codec, so the
        // flips reach the raw, dictionary and FoR decoders alike.
        assert!(
            report.values_codecs.iter().all(|&n| n > 0),
            "seed {seed}: value blocks per codec (raw, dict, FoR): {:?}",
            report.values_codecs,
        );
        crash_points += report.crash_points;
        flip_points += report.flip_points;
    }
    assert!(
        crash_points >= 200,
        "suspiciously small crash sweep: {crash_points} points"
    );
    assert!(
        flip_points >= 50,
        "suspiciously small flip sweep: {flip_points} flips"
    );
}

/// A save whose part file spans several append batches. The v3 writer
/// puts the directory down with one `write` and streams the columns with
/// `append`s; a crash between two appends, or before the fsync, must
/// still reopen as exactly the old or the new store.
#[test]
fn crash_sweep_is_clean_when_a_part_file_spans_several_appends() {
    let full = Scenario::generate_with_records(42, 8_500);
    // A short workload keeps the ~100 reopen-and-answer rounds cheap; old
    // (half the records) and new still answer it differently.
    let scenario = full.with_workload(
        full.queries[..3].to_vec(),
        full.exprs[..1].to_vec(),
        full.aggs[..1].to_vec(),
    );

    // One append carries less than a batch plus the largest column, so a
    // bigger payload needs at least two. The directory of a few hundred
    // columns is far below the 64 KiB allowed for it here.
    let vfs = FaultVfs::new(1);
    let dir = PathBuf::from("/spans");
    let store = GraphStore::load(scenario.universe.clone(), &scenario.records);
    save_store_with(&vfs, &store, &dir).expect("save through FaultVfs");
    let relation = store.relation();
    let largest_column = (0..relation.edge_count() as u32)
        .map(|e| relation.edge_column_uncounted(EdgeId(e)).encode_v3().len())
        .max()
        .unwrap();
    let largest_part = vfs
        .list(&dir)
        .unwrap()
        .iter()
        .filter(|p| p.to_string_lossy().contains("-part_"))
        .map(|p| vfs.read(p).unwrap().len())
        .max()
        .unwrap();
    assert!(
        largest_part > PART_APPEND_BATCH + largest_column + (64 << 10),
        "part file of {largest_part} bytes may fit in one append"
    );

    let report = crash::check(&scenario, CrashFault::None);
    assert!(
        report.passed(),
        "{} broken guarantees, first: {}",
        report.failures.len(),
        report.failures[0],
    );
}

/// The crash sweep pinned to the legacy v2 format: a backward-compatible
/// store keeps exactly the same guarantees, through the same oracle.
#[test]
fn crash_sweep_is_clean_on_v2_format() {
    let report = crash::check_format(&Scenario::generate(42), CrashFault::None, FormatVersion::V2);
    assert!(
        report.passed(),
        "v2 sweep: {} broken guarantees, first: {}",
        report.failures.len(),
        report.failures[0],
    );
    assert!(
        report.crash_points >= 60,
        "suspiciously small v2 crash sweep: {} points",
        report.crash_points
    );
}

/// The WAL crash oracle on fixed seeds: the live ingest sequence (open,
/// two commits, one compaction) crashed at every VFS operation under
/// every fault kind always recovers to an exact commit boundary, and the
/// at-rest flip sweep over WAL frames and the fold sidecar is clean.
#[test]
fn wal_crash_sweep_is_clean_on_fixed_seeds() {
    let mut crash_points = 0;
    let mut flip_points = 0;
    for seed in [7u64, 42, 43] {
        let report = crash::check_wal(&Scenario::generate(seed), CrashFault::None);
        assert!(
            report.passed(),
            "seed {seed}: {} broken WAL guarantees, first: {}",
            report.failures.len(),
            report.failures[0],
        );
        crash_points += report.crash_points;
        flip_points += report.flip_points;
    }
    assert!(
        crash_points >= 200,
        "suspiciously small WAL crash sweep: {crash_points} points"
    );
    assert!(
        flip_points >= 50,
        "suspiciously small WAL flip sweep: {flip_points} flips"
    );
}

/// Replaying a seed through the WAL oracle yields the same verdict and
/// the same sweep size.
#[test]
fn wal_oracle_is_deterministic_per_seed() {
    let a = crash::check_wal(&Scenario::generate(42), CrashFault::None);
    let b = crash::check_wal(&Scenario::generate(42), CrashFault::None);
    assert_eq!(a.crash_points, b.crash_points);
    assert_eq!(a.flip_points, b.flip_points);
    assert_eq!(a.passed(), b.passed());
}

/// Replaying a seed yields the same verdict and the same sweep size.
#[test]
fn crash_oracle_is_deterministic_per_seed() {
    let a = crash::check(&Scenario::generate(42), CrashFault::None);
    let b = crash::check(&Scenario::generate(42), CrashFault::None);
    assert_eq!(a.crash_points, b.crash_points);
    assert_eq!(a.flip_points, b.flip_points);
    assert_eq!(a.passed(), b.passed());
}

/// The teeth test: reopening with payload checksums disabled
/// (`Verify::TrustDisk` via [`CrashFault::DropCrc`]) must let some
/// flipped byte silently change an answer — which the oracle reports and
/// the shrinker reduces, proving the harness actually exercises the
/// checksums.
#[test]
fn disabled_checksums_are_caught_and_shrunk() {
    // Scan a few seeds for one whose workload fetches a flipped byte;
    // the flip sweep targets measure payloads, so most seeds qualify.
    let mut caught = None;
    for seed in 42u64..52 {
        let scenario = Scenario::generate(seed);
        let report = crash::check(&scenario, CrashFault::DropCrc);
        if !report.passed() {
            assert!(
                report
                    .failures
                    .iter()
                    .all(|f| f.site.starts_with("flip") || f.site.contains('@')),
                "unexpected failure shape: {}",
                report.failures[0],
            );
            caught = Some(scenario);
            break;
        }
    }
    let scenario = caught.expect("no seed in 42..52 exposed the disabled checksum");

    let minimized = shrink_with(&scenario, |s| {
        !crash::check(s, CrashFault::DropCrc).passed()
    });
    let small = &minimized.scenario;
    assert!(
        !crash::check(small, CrashFault::DropCrc).passed(),
        "shrunk scenario no longer fails"
    );
    assert!(
        small.records.len() <= scenario.records.len(),
        "shrinking grew the record set"
    );

    // With checksums back on, the same scenario is clean: the bug is the
    // disabled verification, not the store.
    assert!(
        crash::check(small, CrashFault::None).passed(),
        "shrunk scenario fails even with checksums on"
    );
}

/// Satellite: a store saved through [`FaultVfs`] with no fault armed and
/// reopened from it answers the whole workload *bit-identically* to the
/// in-memory store it came from — same records, same measures, same
/// aggregate floats, no tolerance.
#[test]
fn faultvfs_reload_answers_bit_identical_to_mem() {
    let scenario = Scenario::generate(42);
    let mut mem = GraphStore::load(scenario.universe.clone(), &scenario.records);
    if scenario.view_budget > 0 {
        mem.advise_views(&scenario.queries, scenario.view_budget);
    }
    if scenario.agg_view_budget > 0 {
        let _ = mem.advise_agg_views(&scenario.queries, AggFn::Sum, scenario.agg_view_budget);
    }

    let vfs = Arc::new(FaultVfs::new(0xFA7E));
    let dir = PathBuf::from("/bitident");
    save_store_with(vfs.as_ref(), &mem, &dir).expect("save through FaultVfs");
    let disk = DiskGraphStore::open_with(&dir, 64 << 10, vfs, Verify::Checksums)
        .expect("reopen through FaultVfs");
    assert_eq!(
        disk.relation().format_version(),
        3,
        "the default writer must emit format v3"
    );

    let mut requests: Vec<QueryRequest> = Vec::new();
    for q in &scenario.queries {
        requests.push(QueryRequest::new(q.clone()));
        requests.push(QueryRequest::new(q.clone()).oblivious());
    }
    for e in &scenario.exprs {
        requests.push(QueryRequest::expr(e.clone()));
    }
    for a in &scenario.aggs {
        requests.push(QueryRequest::aggregate(a.clone()));
    }

    let mut compared = 0;
    for (i, req) in requests.iter().enumerate() {
        match (mem.execute(req), disk.execute(req)) {
            (Ok((want, _)), Ok((got, _))) => {
                assert_eq!(got, want, "request[{i}] differs between mem and reload");
                compared += 1;
            }
            (Err(_), Err(_)) => {} // e.g. cyclic aggregation: both refuse
            (Ok(_), Err(e)) => panic!("request[{i}] fails only on disk: {e}"),
            (Err(e), Ok(_)) => panic!("request[{i}] fails only in memory: {e}"),
        }
    }
    assert!(compared >= 8, "too few comparable requests: {compared}");
}
