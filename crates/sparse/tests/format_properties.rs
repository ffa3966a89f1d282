//! Property-based tests: every storage format must be an exact,
//! loss-free re-encoding of the same matrix on arbitrary sparsity
//! patterns. The SMSV kernels' oracle is `triplet_properties.rs`.

use dls_sparse::{
    AnyMatrix, CsrMatrix, Format, MatrixFeatures, MatrixFormat, RowScratch, SparseVec,
    TripletMatrix,
};
use proptest::prelude::*;

/// Strategy: an arbitrary compact triplet matrix up to 24x24.
fn arb_matrix() -> impl Strategy<Value = TripletMatrix> {
    (1usize..24, 1usize..24)
        .prop_flat_map(|(rows, cols)| {
            let entry = (0..rows, 0..cols, -4i32..=4).prop_map(|(r, c, v)| (r, c, v as f64));
            (Just(rows), Just(cols), proptest::collection::vec(entry, 0..80))
        })
        .prop_map(|(rows, cols, entries)| {
            TripletMatrix::from_entries(rows, cols, entries).unwrap().compact()
        })
}

/// Strategy: a matrix together with a compatible sparse vector.
fn arb_matrix_and_vec() -> impl Strategy<Value = (TripletMatrix, SparseVec)> {
    arb_matrix().prop_flat_map(|t| {
        let cols = t.cols();
        let dense = proptest::collection::vec(-3i32..=3, cols)
            .prop_map(|v| SparseVec::from_dense(&v.into_iter().map(f64::from).collect::<Vec<_>>()));
        (Just(t), dense)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip through every format preserves the triplet content bit-exactly.
    #[test]
    fn round_trip_all_formats(t in arb_matrix()) {
        for fmt in Format::ALL {
            let m = AnyMatrix::from_triplets(fmt, &t);
            prop_assert_eq!(m.rows(), t.rows());
            prop_assert_eq!(m.cols(), t.cols());
            prop_assert_eq!(m.nnz(), t.nnz(), "nnz through {}", fmt);
            let back = m.to_triplets().compact();
            prop_assert_eq!(back.entries(), t.entries(), "round trip through {}", fmt);
        }
    }

    /// `get` agrees with the dense materialisation for every format.
    #[test]
    fn get_agrees_with_dense(t in arb_matrix()) {
        let dense = t.to_dense();
        for fmt in Format::ALL {
            let m = AnyMatrix::from_triplets(fmt, &t);
            for i in 0..t.rows() {
                for j in 0..t.cols() {
                    prop_assert_eq!(m.get(i, j), dense[i * t.cols() + j], "{} at ({},{})", fmt, i, j);
                }
            }
        }
    }

    /// The lockstep SIMD-style CSR kernel is exactly the scalar kernel.
    #[test]
    fn csr_lanes_kernel_is_exact((t, v) in arb_matrix_and_vec()) {
        let m = CsrMatrix::from_triplets(&t);
        let mut scalar = vec![0.0; t.rows()];
        let mut lanes = vec![0.0; t.rows()];
        m.smsv(&v, &mut scalar);
        m.smsv_lanes::<8>(&v, &mut lanes);
        for (a, b) in scalar.iter().zip(&lanes) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Row extraction through every format matches the triplet rows.
    #[test]
    fn row_sparse_matches_triplets(t in arb_matrix()) {
        for fmt in Format::ALL {
            let m = AnyMatrix::from_triplets(fmt, &t);
            for i in 0..t.rows() {
                let a = m.row_sparse(i);
                let b = t.row_sparse(i);
                prop_assert_eq!(a.indices(), b.indices(), "{} row {}", fmt, i);
                prop_assert_eq!(a.values(), b.values(), "{} row {}", fmt, i);
            }
        }
    }

    /// Feature extraction invariants that hold for every matrix.
    #[test]
    fn feature_invariants(t in arb_matrix()) {
        let f = MatrixFeatures::from_triplets(&t);
        prop_assert_eq!(f.nnz, t.nnz());
        prop_assert!(f.mdim <= f.n);
        prop_assert!(f.adim <= f.mdim as f64 + 1e-12);
        prop_assert!(f.ndig < f.m + f.n);
        prop_assert!(f.ndig <= f.nnz.max(1) || f.nnz == 0);
        prop_assert!((0.0..=1.0).contains(&f.density));
        prop_assert!(f.vdim >= 0.0);
        if f.nnz > 0 {
            prop_assert!(f.ndig >= 1);
            prop_assert!(f.dnnz >= 1.0 - 1e-12);
        }
    }

    /// Borrowed row views match the owned row extraction exactly for every
    /// format (including empty rows, which arbitrary matrices produce).
    #[test]
    fn row_view_matches_row_sparse(t in arb_matrix()) {
        let mut scratch = RowScratch::new();
        for fmt in Format::ALL {
            let m = AnyMatrix::from_triplets(fmt, &t);
            for i in 0..t.rows() {
                let owned = m.row_sparse(i);
                let view = m.row_view_in(i, &mut scratch);
                prop_assert_eq!(view.dim(), owned.dim(), "{} row {}", fmt, i);
                prop_assert_eq!(view.indices(), owned.indices(), "{} row {}", fmt, i);
                prop_assert_eq!(view.values(), owned.values(), "{} row {}", fmt, i);
            }
        }
    }

    /// Storage accounting: actual elements always fall inside the Table II
    /// [min, max] interval (up to the O(1) slack the paper's O(.) hides).
    #[test]
    fn storage_within_table2_bounds(t in arb_matrix()) {
        use dls_sparse::storage::{max_storage_elems, min_storage_elems};
        prop_assume!(t.nnz() > 0);
        for fmt in [Format::Den, Format::Csr, Format::Coo, Format::Ell] {
            let m = AnyMatrix::from_triplets(fmt, &t);
            let lo = min_storage_elems(fmt, t.rows(), t.cols());
            let hi = max_storage_elems(fmt, t.rows(), t.cols());
            prop_assert!(m.storage_elems() + 1 >= lo, "{} below Table II min", fmt);
            prop_assert!(m.storage_elems() <= hi + t.rows() + 1, "{} above Table II max", fmt);
        }
    }
}
