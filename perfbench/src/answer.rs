//! Answer fingerprints for the correctness gate.
//!
//! The benchmark compares every served answer with the in-process answer
//! to the same request. Holding thousands of ~50 KB answers would swamp
//! the process being measured, so each answer is reduced to a 64-bit
//! fingerprint over its exact bits (record ids, row widths and the raw
//! `f64` bit patterns, so `NaN` and `-0.0` are compared exactly).
//!
//! Inserts only ever append records, so the answer a store gives after
//! the first `n` records is the full answer restricted to record ids
//! below `n`. [`agrees_below`] compares against that restriction without
//! building it, which lets every read of the ingest workload be checked
//! against one store loaded from the base plus every insert.
//!
//! Graph-query answers carry stored measures and must match bit for bit.
//! A SUM along a path is computed in different orders by different plans
//! (composed from aggregate-view partials for base records, summed edge by
//! edge for records in the MVCC delta), so path aggregates are compared
//! within the repository's oracle tolerance instead.

use graphbi::{floats_close, Response};

/// Relative tolerance for path aggregates computed by different plans
/// (the repository's differential-oracle tolerance).
pub const AGG_TOLERANCE: f64 = 1e-9;

const SEED: u64 = 0x243F_6A88_85A3_08D3;
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

struct Hasher(u64);

impl Hasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(27) ^ w).wrapping_mul(MUL);
    }

    fn finish(self) -> u64 {
        let mut h = self.0;
        h ^= h >> 31;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^ (h >> 29)
    }
}

/// Fingerprint of the whole answer.
pub fn fingerprint(resp: &Response) -> u64 {
    fingerprint_below(resp, u64::MAX)
}

/// Fingerprint of the answer restricted to record ids below `cutoff`;
/// equal to [`fingerprint`] of the restricted answer.
pub fn fingerprint_below(resp: &Response, cutoff: u64) -> u64 {
    let mut h = Hasher(SEED);
    match resp {
        Response::Records(r) => {
            let width = r.edges.len();
            let k = r.records.partition_point(|&id| u64::from(id) < cutoff);
            h.word(1);
            h.word(width as u64);
            for e in &r.edges {
                h.word(u64::from(e.0));
            }
            rows(&mut h, &r.records[..k], &r.measures[..k * width]);
        }
        Response::Aggregates(a) => {
            let k = a.records.partition_point(|&id| u64::from(id) < cutoff);
            h.word(2);
            h.word(a.path_count as u64);
            rows(&mut h, &a.records[..k], &a.values[..k * a.path_count]);
        }
        Response::Matches(m) => {
            h.word(3);
            let mut n = 0u64;
            for id in m.iter().take_while(|&id| u64::from(id) < cutoff) {
                h.word(u64::from(id));
                n += 1;
            }
            h.word(n);
        }
    }
    h.finish()
}

/// Values an answer carries: every record id plus every measure or
/// aggregate. A correct answer's count is fixed by the inputs, so it sizes
/// an answer's work whatever the program does to produce it.
pub fn answer_values(resp: &Response) -> u64 {
    match resp {
        Response::Records(r) => (r.records.len() + r.measures.len()) as u64,
        Response::Aggregates(a) => (a.records.len() + a.values.len()) as u64,
        Response::Matches(m) => m.len(),
    }
}

/// True when `served` equals `expected` restricted to record ids below
/// `cutoff`: exactly for graph answers, within [`AGG_TOLERANCE`] for
/// path aggregates.
pub fn agrees_below(expected: &Response, cutoff: u64, served: &Response) -> bool {
    match (expected, served) {
        (Response::Aggregates(e), Response::Aggregates(s)) => {
            let k = e.records.partition_point(|&id| u64::from(id) < cutoff);
            e.path_count == s.path_count
                && e.records[..k] == s.records[..]
                && s.values.len() == k * e.path_count
                && e.values[..k * e.path_count]
                    .iter()
                    .zip(&s.values)
                    .all(|(&a, &b)| floats_close(a, b, AGG_TOLERANCE))
        }
        _ => fingerprint_below(expected, cutoff) == fingerprint(served),
    }
}

fn rows(h: &mut Hasher, records: &[u32], values: &[f64]) {
    h.word(records.len() as u64);
    for &id in records {
        h.word(u64::from(id));
    }
    for v in values {
        h.word(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbi::{EdgeId, PathAggResult, QueryResult};

    fn records(ids: &[u32], width: usize) -> Response {
        Response::Records(QueryResult {
            records: ids.to_vec(),
            edges: (0..width as u32).map(EdgeId).collect(),
            measures: ids
                .iter()
                .flat_map(|&id| (0..width).map(move |j| f64::from(id) + j as f64 / 10.0))
                .collect(),
        })
    }

    #[test]
    fn restriction_matches_the_restricted_answer() {
        let full = records(&[1, 4, 9, 12], 3);
        assert_eq!(
            fingerprint_below(&full, 9),
            fingerprint(&records(&[1, 4], 3))
        );
        assert_eq!(fingerprint_below(&full, 100), fingerprint(&full));
        assert_eq!(fingerprint_below(&full, 0), fingerprint(&records(&[], 3)));
        let agg = Response::Aggregates(PathAggResult {
            records: vec![2, 5],
            path_count: 1,
            values: vec![1.5, 2.5],
        });
        let head = Response::Aggregates(PathAggResult {
            records: vec![2],
            path_count: 1,
            values: vec![1.5],
        });
        assert_eq!(fingerprint_below(&agg, 5), fingerprint(&head));
    }

    #[test]
    fn answer_values_count_ids_and_measures() {
        assert_eq!(answer_values(&records(&[1, 4, 9], 3)), 3 + 9);
        assert_eq!(answer_values(&records(&[], 3)), 0);
        let agg = Response::Aggregates(PathAggResult {
            records: vec![2, 5],
            path_count: 2,
            values: vec![1.5, 2.5, 3.5, 4.5],
        });
        assert_eq!(answer_values(&agg), 2 + 4);
    }

    #[test]
    fn aggregates_agree_within_tolerance_only() {
        let agg = |records: Vec<u32>, values: Vec<f64>| {
            Response::Aggregates(PathAggResult {
                records,
                path_count: 1,
                values,
            })
        };
        let expected = agg(vec![1, 3, 8], vec![10.0, 20.0, 30.0]);
        let rounded = agg(vec![1, 3], vec![10.0 + 1e-12, 20.0]);
        assert!(agrees_below(&expected, 8, &rounded));
        assert!(!agrees_below(&expected, 9, &rounded));
        assert!(!agrees_below(
            &expected,
            8,
            &agg(vec![1, 3], vec![10.0, 20.1])
        ));
        assert!(!agrees_below(
            &expected,
            8,
            &agg(vec![1, 4], vec![10.0, 20.0])
        ));
        // Graph answers stay exact.
        let full = records(&[1, 4], 2);
        assert!(agrees_below(&full, 5, &full));
        assert!(!agrees_below(&full, 4, &full));
    }

    #[test]
    fn any_bit_difference_changes_the_fingerprint() {
        let a = records(&[1, 4], 2);
        let mut b = a.clone();
        if let Response::Records(r) = &mut b {
            r.measures[3] = f64::from_bits(r.measures[3].to_bits() ^ 1);
        }
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let zero = Response::Aggregates(PathAggResult {
            records: vec![0],
            path_count: 1,
            values: vec![0.0],
        });
        let neg = Response::Aggregates(PathAggResult {
            records: vec![0],
            path_count: 1,
            values: vec![-0.0],
        });
        assert_ne!(fingerprint(&zero), fingerprint(&neg));
        assert_ne!(
            fingerprint(&records(&[1], 2)),
            fingerprint(&records(&[1], 3))
        );
    }
}
