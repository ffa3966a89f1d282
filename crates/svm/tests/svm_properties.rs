//! Property-based tests for the SMO solver: KKT/dual invariants must hold
//! on arbitrary (valid) training problems, and the solution must be
//! invariant to the storage layout.

#![allow(clippy::needless_range_loop)]

use dls_sparse::{AnyMatrix, Format, TripletMatrix};
use dls_svm::{train_with_stats, KernelKind, SmoParams};
use proptest::prelude::*;

/// Strategy: a random training problem with both classes present.
/// Features are bounded so kernels stay well-conditioned.
fn arb_problem() -> impl Strategy<Value = (TripletMatrix, Vec<f64>)> {
    (4usize..20, 2usize..8)
        .prop_flat_map(|(n, d)| {
            let entry = (0..n, 0..d, -3i32..=3).prop_map(|(r, c, v)| (r, c, v as f64));
            let entries = proptest::collection::vec(entry, n..n * 3);
            let labels = proptest::collection::vec(prop_oneof![Just(1.0), Just(-1.0)], n);
            (Just(n), Just(d), entries, labels)
        })
        .prop_filter_map("need both classes", |(n, d, entries, labels)| {
            if labels.contains(&1.0) && labels.contains(&-1.0) {
                let t = TripletMatrix::from_entries(n, d, entries).ok()?.compact();
                Some((t, labels))
            } else {
                None
            }
        })
}

fn params(c: f64, kernel: KernelKind) -> SmoParams {
    SmoParams { c, kernel, max_iterations: 20_000, ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dual feasibility: Σ α_i y_i = 0 and |α_i y_i| ≤ C at the solution,
    /// for every kernel.
    #[test]
    fn dual_constraints_hold((t, y) in arb_problem(), c in 0.25f64..8.0) {
        let x = AnyMatrix::from_triplets(Format::Csr, &t);
        for kernel in [
            KernelKind::Linear,
            KernelKind::Gaussian { gamma: 0.5 },
            KernelKind::Polynomial { a: 1.0, r: 1.0, degree: 2 },
        ] {
            let (model, _) = train_with_stats(&x, &y, &params(c, kernel)).unwrap();
            let sum: f64 = model.coefficients().iter().sum();
            prop_assert!(sum.abs() < 1e-6, "{kernel:?}: sum alpha y = {sum}");
            for &coef in model.coefficients() {
                prop_assert!(coef.abs() <= c + 1e-9, "{kernel:?}: coef {coef} beyond C={c}");
            }
        }
    }

    /// Layout invariance: every storage format reaches the same iteration
    /// count, bias, and predictions.
    #[test]
    fn solution_is_layout_invariant((t, y) in arb_problem()) {
        let p = params(1.0, KernelKind::Gaussian { gamma: 0.5 });
        let reference = {
            let x = AnyMatrix::from_triplets(Format::Csr, &t);
            train_with_stats(&x, &y, &p).unwrap()
        };
        for fmt in Format::ALL {
            let x = AnyMatrix::from_triplets(fmt, &t);
            let (model, stats) = train_with_stats(&x, &y, &p).unwrap();
            prop_assert_eq!(stats.iterations, reference.1.iterations, "{}", fmt);
            prop_assert!((model.bias() - reference.0.bias()).abs() < 1e-9, "{}", fmt);
            for i in 0..t.rows() {
                let r = t.row_sparse(i);
                prop_assert_eq!(
                    model.predict_label(&r),
                    reference.0.predict_label(&r),
                    "{} row {}", fmt, i
                );
            }
        }
    }

    /// With a Gaussian kernel and large C, SMO must separate any consistent
    /// training set (distinct points, one label each): training accuracy 1.
    #[test]
    fn gaussian_interpolates_distinct_points(n in 4usize..12, seed in 0u64..500) {
        // Distinct 1-D points with alternating labels.
        let mut t = TripletMatrix::new(n, 1);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            t.push(i, 0, i as f64 + (seed % 7) as f64 * 0.1);
            y.push(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let t = t.compact();
        let x = AnyMatrix::from_triplets(Format::Den, &t);
        let p = SmoParams {
            c: 1e4,
            kernel: KernelKind::Gaussian { gamma: 4.0 },
            max_iterations: 50_000,
            ..Default::default()
        };
        let (model, stats) = train_with_stats(&x, &y, &p).unwrap();
        prop_assert!(stats.converged);
        for i in 0..n {
            prop_assert_eq!(model.predict_label(&t.row_sparse(i)), y[i], "point {}", i);
        }
    }

    /// The iteration count and SV count never exceed their structural
    /// bounds, and the reported gap is consistent with convergence.
    #[test]
    fn stats_are_internally_consistent((t, y) in arb_problem()) {
        let p = params(1.0, KernelKind::Linear);
        let x = AnyMatrix::from_triplets(Format::Coo, &t);
        let (model, stats) = train_with_stats(&x, &y, &p).unwrap();
        prop_assert!(stats.iterations <= p.max_iterations);
        prop_assert_eq!(stats.n_support_vectors, model.n_support_vectors());
        prop_assert!(stats.n_support_vectors <= t.rows());
        if stats.converged && stats.iterations < p.max_iterations {
            prop_assert!(stats.final_gap <= 2.0 * p.tolerance + 1e-12,
                "converged with gap {}", stats.final_gap);
        }
    }

    /// Cache on vs cache off cannot change the result.
    #[test]
    fn cache_is_transparent((t, y) in arb_problem()) {
        let x = AnyMatrix::from_triplets(Format::Csr, &t);
        let with = params(1.0, KernelKind::Gaussian { gamma: 1.0 });
        let without = SmoParams { cache_bytes: 0, ..with };
        let (m1, s1) = train_with_stats(&x, &y, &with).unwrap();
        let (m2, s2) = train_with_stats(&x, &y, &without).unwrap();
        prop_assert_eq!(s1.iterations, s2.iterations);
        prop_assert!((m1.bias() - m2.bias()).abs() < 1e-12);
        // A zero budget still keeps the two working rows resident (SMO
        // needs high and low simultaneously), so the small cache can hit;
        // it can never hit more than the big one.
        prop_assert!(s2.cache_hits <= s1.cache_hits);
    }
}
