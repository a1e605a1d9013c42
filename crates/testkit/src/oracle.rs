//! The differential oracle: one scenario, every engine configuration,
//! every check.

use graphbi::{IoStats, QueryRequest, Response, Session};

use crate::engines::{Fault, Matrix};
use crate::reference::Reference;
use crate::scenario::Scenario;

/// Relative tolerance for aggregate/measure comparisons. Engines sum in
/// different orders (columnar scan vs row joins vs view composition), so
/// float results may drift by rounding but never by more than this.
pub const TOLERANCE: f64 = 1e-9;

/// One disagreement between an engine and the reference model (or a broken
/// invariant).
#[derive(Debug)]
pub struct Discrepancy {
    /// The engine configuration that disagreed.
    pub engine: String,
    /// Which scenario item exposed it (`query[3]`, `expr[0]`, …).
    pub item: String,
    /// Human-readable explanation of the disagreement.
    pub detail: String,
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.engine, self.item, self.detail)
    }
}

/// The oracle's verdict on one scenario.
#[derive(Debug, Default)]
pub struct Report {
    /// Every disagreement found (empty = scenario passed).
    pub discrepancies: Vec<Discrepancy>,
    /// Number of individual comparisons performed.
    pub checks: u64,
}

impl Report {
    /// True when no engine disagreed and no invariant broke.
    pub fn passed(&self) -> bool {
        self.discrepancies.is_empty()
    }
}

/// Runs the full differential matrix on one scenario.
pub fn check(scenario: &Scenario, fault: Fault) -> Report {
    let matrix = Matrix::build(scenario, fault);
    let reference = Reference::new(&scenario.universe, &scenario.records);
    let mut report = Report::default();

    // Graph queries: every engine against the model.
    for (qi, q) in scenario.queries.iter().enumerate() {
        let expected = reference.evaluate(q);
        for engine in &matrix.engines {
            report.checks += 1;
            let got = engine.evaluate(q);
            if let Some(diff) = expected.diff(&got, TOLERANCE) {
                report.discrepancies.push(Discrepancy {
                    engine: engine.name().to_string(),
                    item: format!("query[{qi}] {q:?}"),
                    detail: diff,
                });
            }
        }

        // Invariant: a view-rewritten plan never fetches more structural
        // columns than the oblivious plan — rewriting exists to save
        // fetches, so regressing past the baseline is a planner bug.
        report.checks += 1;
        let (viewed, oblivious) = matrix.mem_structural_costs(q);
        if viewed > oblivious {
            report.discrepancies.push(Discrepancy {
                engine: "columnar-mem-views".into(),
                item: format!("query[{qi}] {q:?}"),
                detail: format!(
                    "view plan fetched {viewed} structural columns, oblivious plan {oblivious}"
                ),
            });
        }
        report.checks += 1;
        let (viewed, oblivious) = matrix.disk_cold_reads(q);
        if viewed > oblivious {
            report.discrepancies.push(Discrepancy {
                engine: "columnar-disk-views".into(),
                item: format!("query[{qi}] {q:?}"),
                detail: format!(
                    "cold view plan did {viewed} disk reads, oblivious plan {oblivious}"
                ),
            });
        }

        media_stats_agree(
            &matrix,
            QueryRequest::new(q.clone()),
            format!("query[{qi}] {q:?}"),
            &mut report,
        );

        // Invariant: every logical cost counter — including the planner's
        // skipped-fetch count — is shard-count independent. Only the
        // physical `disk_reads`/`disk_bytes` may differ between runs (they
        // depend on cache state, not the plan), so they are masked out.
        for (backend, serial, sharded) in [
            (
                "columnar-mem-views-sharded",
                matrix
                    .mem_store()
                    .execute(&QueryRequest::new(q.clone()))
                    .expect("mem evaluate")
                    .1,
                matrix
                    .mem_store()
                    .execute(&QueryRequest::new(q.clone()).shards(3))
                    .expect("mem evaluate")
                    .1,
            ),
            (
                "columnar-disk-views-sharded",
                matrix
                    .disk_store()
                    .execute(&QueryRequest::new(q.clone()))
                    .expect("disk evaluate")
                    .1,
                matrix
                    .disk_store()
                    .execute(&QueryRequest::new(q.clone()).shards(3))
                    .expect("disk evaluate")
                    .1,
            ),
        ] {
            report.checks += 1;
            let (serial, sharded) = (logical(serial), logical(sharded));
            if serial != sharded {
                report.discrepancies.push(Discrepancy {
                    engine: backend.into(),
                    item: format!("query[{qi}] {q:?}"),
                    detail: format!(
                        "stats depend on shard count: serial {serial:?} vs sharded {sharded:?}"
                    ),
                });
            }
        }

        // Invariant: tracing is observation only. Each engine row re-runs
        // the query under an installed span collector; the traced answer
        // must be bit-identical to the untraced one.
        for engine in &matrix.engines {
            report.checks += 1;
            let plain = engine.evaluate(q);
            let collector = std::sync::Arc::new(graphbi_obs::Collector::new());
            let traced = {
                let _tracing = graphbi_obs::install(&collector);
                engine.evaluate(q)
            };
            if let Some(diff) = plain.diff(&traced, 0.0) {
                report.discrepancies.push(Discrepancy {
                    engine: format!("{}-traced", engine.name()),
                    item: format!("query[{qi}] {q:?}"),
                    detail: format!("traced answer differs from untraced: {diff}"),
                });
            }
        }

        // Invariant: on the stats-bearing stores, tracing also leaves the
        // logical IoStats bit-identical, and where a span attribute names
        // an IoStats counter the trace-summed attribute must equal the
        // counter exactly — spans carry the same deltas, just annotated.
        let req = QueryRequest::new(q.clone());
        for (backend, store) in [
            (
                "columnar-mem-views-traced",
                matrix.mem_store() as &dyn Session,
            ),
            (
                "columnar-disk-views-traced",
                matrix.disk_store() as &dyn Session,
            ),
        ] {
            let (plain, plain_stats) = store.execute(&req).expect("untraced evaluate");
            let collector = std::sync::Arc::new(graphbi_obs::Collector::new());
            let (traced, traced_stats) = {
                let _tracing = graphbi_obs::install(&collector);
                store.execute(&req).expect("traced evaluate")
            };
            let trace = collector.trace();
            report.checks += 1;
            if traced != plain {
                report.discrepancies.push(Discrepancy {
                    engine: backend.into(),
                    item: format!("query[{qi}] {q:?}"),
                    detail: "traced answer differs from untraced".into(),
                });
            }
            report.checks += 1;
            let (masked_traced, masked_plain) = (logical(traced_stats), logical(plain_stats));
            if masked_traced != masked_plain {
                report.discrepancies.push(Discrepancy {
                    engine: backend.into(),
                    item: format!("query[{qi}] {q:?}"),
                    detail: format!(
                        "tracing changed the logical stats: {masked_traced:?} vs {masked_plain:?}"
                    ),
                });
            }
            for (attr, want) in [
                ("bitmap_columns", traced_stats.bitmap_columns),
                ("view_bitmap_columns", traced_stats.view_bitmap_columns),
                ("measure_columns", traced_stats.measure_columns),
                ("values_fetched", traced_stats.values_fetched),
                ("fetches_skipped", traced_stats.fetches_skipped),
            ] {
                report.checks += 1;
                let got = trace.sum_attr_all(attr);
                if got != want {
                    report.discrepancies.push(Discrepancy {
                        engine: backend.into(),
                        item: format!("query[{qi}] {q:?}"),
                        detail: format!(
                            "span attr {attr:?} sums to {got}, IoStats counter says {want}"
                        ),
                    });
                }
            }
        }
    }

    // Logical expressions: match sets against the model's set algebra.
    for (ei, e) in scenario.exprs.iter().enumerate() {
        media_stats_agree(
            &matrix,
            QueryRequest::expr(e.clone()),
            format!("expr[{ei}]"),
            &mut report,
        );
        let expected = reference.match_expr(e);
        for engine in &matrix.engines {
            let Some(got) = engine.match_expr(e) else {
                continue;
            };
            report.checks += 1;
            if got != expected {
                report.discrepancies.push(Discrepancy {
                    engine: engine.name().to_string(),
                    item: format!("expr[{ei}]"),
                    detail: format!(
                        "match set differs: {} vs {} records (expected {:?}…, got {:?}…)",
                        expected.len(),
                        got.len(),
                        &expected[..expected.len().min(8)],
                        &got[..got.len().min(8)],
                    ),
                });
            }
        }
    }

    // Path aggregations: values against the model, under tolerance.
    for (ai, paq) in scenario.aggs.iter().enumerate() {
        let Ok(expected) = reference.path_aggregate(paq) else {
            // Cyclic pattern: every engine must refuse it too, but there is
            // no value to compare.
            continue;
        };
        media_stats_agree(
            &matrix,
            QueryRequest::aggregate(paq.clone()),
            format!("agg[{ai}] {:?}", paq.func),
            &mut report,
        );
        for engine in &matrix.engines {
            let Some(got) = engine.path_aggregate(paq) else {
                continue;
            };
            report.checks += 1;
            if let Some(diff) = expected.diff(&got, TOLERANCE) {
                report.discrepancies.push(Discrepancy {
                    engine: engine.name().to_string(),
                    item: format!("agg[{ai}] {:?}", paq.func),
                    detail: diff,
                });
            }
        }
    }

    // Batched execution: the whole scenario workload as ONE
    // `Session::evaluate_many` call (with request-level sharding), on both
    // the in-memory and the disk backend. Batch answers must match the
    // reference item for item — deduplication, shared fetches, and shard
    // merging are not allowed to change any answer.
    let mut requests: Vec<(QueryRequest, BatchExpect)> = Vec::new();
    for q in &scenario.queries {
        requests.push((
            QueryRequest::new(q.clone()).shards(2),
            BatchExpect::Records(reference.evaluate(q)),
        ));
    }
    for e in &scenario.exprs {
        requests.push((
            QueryRequest::expr(e.clone()).shards(2),
            BatchExpect::Matches(reference.match_expr(e)),
        ));
    }
    for paq in &scenario.aggs {
        // Cyclic aggregations error, and `evaluate_many` propagates the
        // first error for the whole batch — keep only answerable ones.
        if let Ok(expected) = reference.path_aggregate(paq) {
            requests.push((
                QueryRequest::aggregate(paq.clone()).shards(2),
                BatchExpect::Aggregates(expected),
            ));
        }
    }
    if !requests.is_empty() {
        let batch: Vec<QueryRequest> = requests.iter().map(|(r, _)| r.clone()).collect();
        for (backend, answers) in [
            (
                "columnar-mem-batched",
                matrix.mem_store().evaluate_many(&batch),
            ),
            (
                "columnar-disk-batched",
                matrix.disk_store().evaluate_many(&batch),
            ),
        ] {
            let answers = match answers {
                Ok(a) => a,
                Err(e) => {
                    report.checks += 1;
                    report.discrepancies.push(Discrepancy {
                        engine: backend.into(),
                        item: "batch".into(),
                        detail: format!("evaluate_many failed: {e}"),
                    });
                    continue;
                }
            };
            for (bi, ((_, expect), (response, _))) in requests.iter().zip(&answers).enumerate() {
                report.checks += 1;
                let diff = match (expect, response) {
                    (BatchExpect::Records(expected), Response::Records(got)) => {
                        expected.diff(got, TOLERANCE)
                    }
                    (BatchExpect::Matches(expected), Response::Matches(got)) => {
                        let got = got.to_vec();
                        (&got != expected).then(|| {
                            format!(
                                "match set differs: {} vs {} records",
                                expected.len(),
                                got.len()
                            )
                        })
                    }
                    (BatchExpect::Aggregates(expected), Response::Aggregates(got)) => {
                        expected.diff(got, TOLERANCE)
                    }
                    _ => Some("response variant does not match request kind".into()),
                };
                if let Some(detail) = diff {
                    report.discrepancies.push(Discrepancy {
                        engine: backend.into(),
                        item: format!("batch[{bi}]"),
                        detail,
                    });
                }
            }
        }
    }

    debug_assert!(
        scenario.queries.is_empty() || report.checks > 0,
        "oracle ran no checks on a non-empty scenario"
    );
    report
}

/// The logical cost counters: everything but the physical
/// `disk_reads`/`disk_bytes`, which depend on cache state, not the plan.
fn logical(mut stats: IoStats) -> IoStats {
    stats.disk_reads = 0;
    stats.disk_bytes = 0;
    stats
}

/// Invariant: memory and disk run one planner, so under the oblivious
/// plan (view tie-ranking reads a medium-specific hint) the in-memory and
/// disk stores count identical logical stats for `request`.
fn media_stats_agree(matrix: &Matrix, request: QueryRequest, item: String, report: &mut Report) {
    report.checks += 1;
    let request = request.oblivious();
    let detail = match (
        matrix.mem_store().execute(&request),
        matrix.disk_store().execute(&request),
    ) {
        (Ok((_, mem)), Ok((_, disk))) if logical(mem) == logical(disk) => return,
        (Ok((_, mem)), Ok((_, disk))) => format!(
            "memory and disk stats differ: {:?} vs {:?}",
            logical(mem),
            logical(disk)
        ),
        (mem, disk) => format!(
            "memory and disk disagree on failure: {:?} vs {:?}",
            mem.err(),
            disk.err()
        ),
    };
    report.discrepancies.push(Discrepancy {
        engine: "columnar-mem-vs-disk-stats".into(),
        item,
        detail,
    });
}

/// What the reference model expects for one batched request.
enum BatchExpect {
    Records(graphbi::QueryResult),
    Matches(Vec<graphbi::RecordId>),
    Aggregates(graphbi::PathAggResult),
}
