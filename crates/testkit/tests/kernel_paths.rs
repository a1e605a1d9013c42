//! Differential oracle runs under forced kernel paths: the full engine ×
//! backend matrix must pass, and direct query execution must return
//! bit-identical answers with identical logical IoStats, whether the
//! scalar or the SIMD kernels served them.
//!
//! This file deliberately holds a SINGLE `#[test]` function: it is its own
//! test binary and therefore its own process, so flipping the
//! process-global `kernels::force` override cannot race another test
//! thread (the unit/property suites use the explicit `*_path` kernel
//! variants instead and never touch the global).

use graphbi::kernels::{self, KernelPath};
use graphbi::{Bitmap, GraphStore, QueryRequest, Session};
use graphbi_columnstore::codec::VALUES_FOR;
use graphbi_columnstore::SparseColumn;
use graphbi_testkit::{check, Fault, Scenario};

#[test]
fn oracle_and_answers_identical_under_forced_paths() {
    // 1) The differential matrix passes under both forced paths.
    for path in [KernelPath::Scalar, KernelPath::Simd] {
        kernels::force(Some(path));
        for seed in [11u64, 23] {
            let report = check(&Scenario::generate(seed), Fault::None);
            assert!(
                report.passed(),
                "seed {seed} under forced {}: {} discrepancies, first: {}",
                path.name(),
                report.discrepancies.len(),
                report.discrepancies[0],
            );
        }
    }

    // 2) Direct execution: answers and logical IoStats diffed across the
    //    two forced paths, query by query, on a fixed-seed store.
    let scenario = Scenario::generate(37);
    let store = GraphStore::load(scenario.universe.clone(), &scenario.records);
    let mut compared = 0u32;
    for q in &scenario.queries {
        let req = QueryRequest::new(q.clone());

        kernels::force(Some(KernelPath::Scalar));
        let (ans_scalar, io_scalar) = store.execute(&req).expect("scalar evaluate");

        kernels::force(Some(KernelPath::Simd));
        let (ans_simd, io_simd) = store.execute(&req).expect("simd evaluate");

        assert_eq!(ans_simd, ans_scalar, "answers diverged across paths: {q:?}");
        assert_eq!(
            io_simd, io_scalar,
            "logical IoStats diverged across paths: {q:?}"
        );
        compared += 1;
    }
    assert!(compared >= 3, "too few queries compared: {compared}");

    // 3) Float frame-of-reference value blocks decode bit-identically on
    //    both paths at widths either side of the AVX2 unpacker's 56-bit
    //    limit (wider blocks take the scalar unpacker on the SIMD path).
    for width in [1u32, 54, 55, 56, 57, 63] {
        let n = 301u32;
        let presence: Bitmap = (0..n).collect();
        // Distinct offsets scattered over `width` bits, one of them the
        // widest, above the smallest normal bit pattern.
        let span = (1u64 << width) - 1;
        let values: Vec<f64> = (0..u64::from(n))
            .map(|i| {
                let offset = if i == 1 {
                    span
                } else {
                    i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & span
                };
                f64::from_bits(0x0010_0000_0000_0000 + offset)
            })
            .collect();
        let skip = presence.encode_v3().len();
        let bytes = SparseColumn::from_parts(presence.clone(), values.clone()).encode_v3();
        assert_eq!(bytes[skip], VALUES_FOR, "width {width}: codec");
        assert_eq!(
            u32::from(bytes[skip + 9]),
            width,
            "width {width}: packed width"
        );
        let mut decoded = Vec::new();
        for path in [KernelPath::Scalar, KernelPath::Simd] {
            kernels::force(Some(path));
            let mut block = bytes.slice(skip..);
            let col = SparseColumn::decode_values_v3(presence.clone(), &mut block)
                .expect("FoR block decodes");
            decoded.push(col.iter().map(|(_, v)| v.to_bits()).collect::<Vec<u64>>());
        }
        let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(decoded[0], want, "width {width}: scalar decode");
        assert_eq!(decoded[1], want, "width {width}: simd decode");
    }

    // 4) Forcing SIMD on a machine without it must degrade to scalar, not
    //    crash; the answers above already proved it stays correct.
    if !kernels::simd_available() {
        assert_eq!(kernels::active(), KernelPath::Scalar);
    }

    kernels::force(None);
}
