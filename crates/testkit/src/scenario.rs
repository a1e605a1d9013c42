//! Seeded scenario generation.
//!
//! A [`Scenario`] is everything one differential round needs: a record
//! collection, a query workload, logical query expressions, path
//! aggregations and a view-advisory budget — all a pure function of one
//! `u64` seed, so any failure replays from its seed alone.

use graphbi::{AggFn, GraphQuery, PathAggQuery, QueryExpr, Universe};
use graphbi_graph::{GraphRecord, RecordBuilder};
use graphbi_workload::queries::{QueryDistribution, QueryShapeKind, QuerySpec};
use graphbi_workload::{BaseKind, Dataset, DatasetSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One self-contained differential-testing input.
pub struct Scenario {
    /// The seed this scenario was generated from (replay handle).
    pub seed: u64,
    /// Shared naming scheme.
    pub universe: Universe,
    /// The record collection under test.
    pub records: Vec<GraphRecord>,
    /// Plain graph queries, run through every engine.
    pub queries: Vec<GraphQuery>,
    /// AND/OR/ANDNOT trees over sampled queries.
    pub exprs: Vec<QueryExpr>,
    /// Path aggregations (columnar engines + reference).
    pub aggs: Vec<PathAggQuery>,
    /// Graph-view advisory budget for the view-aware plans.
    pub view_budget: usize,
    /// Aggregate-view advisory budget.
    pub agg_view_budget: usize,
}

impl Scenario {
    /// Generates the scenario of `seed`. Sizes are kept small (tens to a
    /// few hundred records) so a fuzz iteration stays in the millisecond
    /// range while still covering both base-graph families, both query
    /// shapes and both workload distributions.
    pub fn generate(seed: u64) -> Scenario {
        Scenario::generate_sized(seed, None)
    }

    /// [`Scenario::generate`] with the record count fixed at `n_records`
    /// (everything else still follows the seed) — for sweeps that need a
    /// store whose part files span several write batches.
    pub fn generate_with_records(seed: u64, n_records: usize) -> Scenario {
        Scenario::generate_sized(seed, Some(n_records))
    }

    fn generate_sized(seed: u64, n_records: Option<usize>) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ce0_a11a);
        let drawn = rng.gen_range(40..240);
        let n_records = n_records.unwrap_or(drawn);
        let edge_domain = rng.gen_range(80..400);
        let kind = if rng.gen_bool(0.5) {
            BaseKind::RoadNetwork
        } else {
            BaseKind::P2pNetwork
        };
        let min_edges = rng.gen_range(4..20);
        let spec = DatasetSpec {
            kind,
            n_records,
            edge_domain,
            min_edges,
            max_edges: min_edges + rng.gen_range(5usize..40),
            seed: rng.gen(),
        };
        let dataset = Dataset::synthesize(&spec);

        let qspec = QuerySpec {
            count: rng.gen_range(6..12),
            min_len: 1,
            max_len: rng.gen_range(3..7),
            distribution: if rng.gen_bool(0.5) {
                QueryDistribution::Uniform
            } else {
                QueryDistribution::Zipf {
                    alpha: 1.0,
                    pool: 4,
                }
            },
            shape: if rng.gen_bool(0.7) {
                QueryShapeKind::SinglePath
            } else {
                QueryShapeKind::MultiPath
            },
            seed: rng.gen(),
        };
        let queries = dataset.queries(&qspec);

        let n_exprs = rng.gen_range(3..7);
        let exprs = (0..n_exprs)
            .map(|_| random_expr(&queries, 0, &mut rng))
            .collect();

        // Aggregations want path-shaped patterns; reuse the workload's
        // generator with the single-path shape forced.
        let agg_patterns = dataset.queries(&QuerySpec {
            count: rng.gen_range(3..6),
            shape: QueryShapeKind::SinglePath,
            seed: rng.gen(),
            ..qspec
        });
        let aggs = agg_patterns
            .into_iter()
            .map(|q| {
                let func = match rng.gen_range(0..5) {
                    0 => AggFn::Sum,
                    1 => AggFn::Min,
                    2 => AggFn::Max,
                    3 => AggFn::Avg,
                    _ => AggFn::Count,
                };
                PathAggQuery::new(q, func)
            })
            .collect();

        Scenario {
            seed,
            universe: dataset.universe,
            records: dataset.records.iter().map(quantize_every_third).collect(),
            queries,
            exprs,
            aggs,
            view_budget: rng.gen_range(0..8),
            agg_view_budget: rng.gen_range(0..6),
        }
    }

    /// A copy of this scenario restricted to the record subset `keep`
    /// (indices into `records`) — the shrinker's reduction step.
    pub fn with_records(&self, keep: &[usize]) -> Scenario {
        Scenario {
            seed: self.seed,
            universe: self.universe.clone(),
            records: keep.iter().map(|&i| self.records[i].clone()).collect(),
            queries: self.queries.clone(),
            exprs: self.exprs.clone(),
            aggs: self.aggs.clone(),
            view_budget: self.view_budget,
            agg_view_budget: self.agg_view_budget,
        }
    }

    /// A copy with only the selected workload items (for minimizing the
    /// failing query/expression/aggregation).
    pub fn with_workload(
        &self,
        queries: Vec<GraphQuery>,
        exprs: Vec<QueryExpr>,
        aggs: Vec<PathAggQuery>,
    ) -> Scenario {
        Scenario {
            seed: self.seed,
            universe: self.universe.clone(),
            records: self.records.clone(),
            queries,
            exprs,
            aggs,
            view_budget: self.view_budget,
            agg_view_budget: self.agg_view_budget,
        }
    }

    /// Total workload items across all three families.
    pub fn workload_len(&self) -> usize {
        self.queries.len() + self.exprs.len() + self.aggs.len()
    }
}

/// The record with the measure of every third edge id rounded to a half
/// unit, like a price: those columns draw from a few distinct values and
/// dictionary-code on disk, next to the continuous ones (FoR or raw), so
/// every scenario store exercises all three value decoders.
fn quantize_every_third(record: &GraphRecord) -> GraphRecord {
    let mut b = RecordBuilder::with_capacity(record.edges().len());
    for &(e, m) in record.edges() {
        b.add(
            e,
            if e.0 % 3 == 0 {
                (m * 2.0).round() / 2.0
            } else {
                m
            },
        );
    }
    b.build()
}

/// A random AND/OR/ANDNOT tree of depth ≤ 2 over the scenario's queries.
fn random_expr(queries: &[GraphQuery], depth: u32, rng: &mut StdRng) -> QueryExpr {
    if depth >= 2 || queries.is_empty() || rng.gen_bool(0.35) {
        let q = if queries.is_empty() {
            GraphQuery::from_edges(Vec::new())
        } else {
            queries[rng.gen_range(0..queries.len())].clone()
        };
        return QueryExpr::Atom(q);
    }
    let a = random_expr(queries, depth + 1, rng);
    let b = random_expr(queries, depth + 1, rng);
    match rng.gen_range(0..3) {
        0 => QueryExpr::and(a, b),
        1 => QueryExpr::or(a, b),
        _ => QueryExpr::and_not(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_scenario() {
        let a = Scenario::generate(99);
        let b = Scenario::generate(99);
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.exprs, b.exprs);
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.edges(), y.edges());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::generate(1);
        let b = Scenario::generate(2);
        assert!(
            a.records.len() != b.records.len() || a.queries != b.queries,
            "seeds 1 and 2 produced identical scenarios"
        );
    }

    #[test]
    fn restriction_keeps_selected_records() {
        let s = Scenario::generate(7);
        let keep = [0usize, 2, 4];
        let r = s.with_records(&keep);
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.records[1].edges(), s.records[2].edges());
        assert_eq!(r.queries, s.queries);
    }
}
