//! Workload inputs, all derived from the one `--seed` argument.
//!
//! The seed derives three independent streams: the dataset (universe and
//! records), the query pool, and the request order. Everything here is
//! generated before any timer starts; the program under test only ever
//! sees the generated records and requests.

use std::collections::BTreeMap;

use graphbi::{AggFn, GraphQuery, PathAggQuery, QueryRequest, Universe};
use graphbi_graph::GraphRecord;
use graphbi_workload::queries::QuerySpec;
use graphbi_workload::{Dataset, DatasetSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Workload;

/// Base records of every workload (the NY′ shape).
pub const BASE_RECORDS: usize = 50_000;
/// Records per COMMIT.
pub const COMMIT_RECORDS: usize = 10;
/// Commit/read cycles of the ingest run: the delta grows to 40% of the
/// base, and on the two-core machine the benchmark was sized for the run
/// takes about the 15 s a read workload measures.
pub const INGEST_CYCLES: usize = 2_000;
/// Independent Zipf pools ("tenants", each a team of BI users with its
/// own hot queries) mixed by the Zipf request order. One Zipf pool has
/// few effective queries, so which paths a seed makes hot would decide
/// the latency figures; mixing pools keeps the skew inside each pool and
/// makes runs with different seeds comparable.
pub const TENANTS: usize = 16;
/// Zipf draws per tenant (from a pool of a third as many distinct paths).
pub const ZIPF_DRAWS: usize = 150;
/// Requests, from the head of the Zipf order, the views are advised from.
pub const ADVISE_DRAWS: usize = 300;
/// Materialized views of each kind advised from the Zipf pool.
pub const VIEW_BUDGET: usize = 50;
/// Distinct uniform requests, cycled in order.
pub const UNIFORM_POOL: usize = 4_096;
/// Length of the request order over the Zipf pool, cycled.
pub const ORDER_LEN: usize = 8_192;

/// Derives an independent sub-seed (SplitMix64 finalizer).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a run feeds the system.
pub struct Inputs {
    pub universe: Universe,
    /// The base records every store is built from.
    pub base: Vec<GraphRecord>,
    /// Records the workload inserts, in commit order (none on the read
    /// workloads).
    pub inserts: Vec<GraphRecord>,
    /// Distinct requests; answers are precomputed once per entry.
    pub requests: Vec<QueryRequest>,
    /// Request order: indexes into `requests`, cycled.
    pub order: Vec<usize>,
    /// Graph-query workload the views are advised from (empty: no views).
    pub advise: Vec<GraphQuery>,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64, base_records: usize) -> Inputs {
        let insert_records = match workload {
            Workload::IngestMixed => INGEST_CYCLES * COMMIT_RECORDS,
            _ => 0,
        };
        let spec = DatasetSpec {
            seed: derive(seed, 1),
            ..DatasetSpec::ny(base_records + insert_records)
        };
        let mut data = Dataset::synthesize(&spec);
        let inserts = data.records.split_off(base_records);
        let mut order_rng = StdRng::seed_from_u64(derive(seed, 3));
        let (paths, advise) = match workload {
            Workload::ReadMemZipf | Workload::IngestMixed => {
                let tenants: Vec<Vec<GraphQuery>> = (0..TENANTS as u64)
                    .map(|t| {
                        data.queries(&QuerySpec {
                            seed: derive(seed, 100 + t),
                            ..QuerySpec::zipf(ZIPF_DRAWS)
                        })
                    })
                    .collect();
                // Uniform picks among a tenant's draws keep its Zipf
                // frequencies.
                let paths: Vec<GraphQuery> = (0..ORDER_LEN)
                    .map(|_| {
                        let draws = &tenants[order_rng.gen_range(0..TENANTS)];
                        draws[order_rng.gen_range(0..draws.len())].clone()
                    })
                    .collect();
                // Views are advised from the head of the request order: the
                // advisor's cost grows quickly with its workload.
                let advise = paths[..ADVISE_DRAWS].to_vec();
                (paths, advise)
            }
            Workload::ReadDiskUniform => {
                let paths = data.queries(&QuerySpec {
                    seed: derive(seed, 2),
                    ..QuerySpec::uniform(UNIFORM_POOL)
                });
                (paths, Vec::new())
            }
        };
        let (requests, order) = mix_requests(paths, &mut order_rng);
        Inputs {
            universe: data.universe,
            base: data.records,
            inserts,
            requests,
            order,
            advise,
        }
    }
}

/// Turns a path sequence into requests, three graph queries to one SUM
/// path aggregation, and dedups them so each distinct request is answered
/// in-process once.
fn mix_requests(paths: Vec<GraphQuery>, rng: &mut StdRng) -> (Vec<QueryRequest>, Vec<usize>) {
    let mut index: BTreeMap<(GraphQuery, bool), usize> = BTreeMap::new();
    let mut requests = Vec::new();
    let mut order = Vec::with_capacity(paths.len());
    for path in paths {
        let aggregate = rng.gen_range(0..4u32) == 3;
        let next = requests.len();
        let slot = *index.entry((path.clone(), aggregate)).or_insert(next);
        if slot == next {
            requests.push(if aggregate {
                QueryRequest::aggregate(PathAggQuery::new(path, AggFn::Sum))
            } else {
                QueryRequest::new(path)
            });
        }
        order.push(slot);
    }
    (requests, order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_derives_identical_inputs() {
        let a = Inputs::generate(Workload::IngestMixed, 7, 200);
        let b = Inputs::generate(Workload::IngestMixed, 7, 200);
        assert_eq!(a.order, b.order);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.base, b.base);
        assert_eq!(a.inserts, b.inserts);
        let c = Inputs::generate(Workload::IngestMixed, 8, 200);
        assert_ne!(a.base, c.base);
    }

    #[test]
    fn requests_mix_graph_queries_and_sums() {
        let inputs = Inputs::generate(Workload::ReadDiskUniform, 3, 200);
        let sums = inputs
            .order
            .iter()
            .filter(|&&i| matches!(inputs.requests[i].kind, graphbi::RequestKind::Aggregate(_)))
            .count();
        let share = sums as f64 / inputs.order.len() as f64;
        assert!((0.2..0.3).contains(&share), "sum share {share}");
        assert!(inputs.inserts.is_empty());
        assert!(inputs.advise.is_empty());
    }
}
