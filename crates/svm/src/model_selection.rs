//! Hyperparameter search for the SVM: k-fold cross-validation and grid
//! search over `(C, γ)` — the same auto-tuning philosophy the paper applies
//! to data layouts (§III) and DNN hyperparameters (§IV), applied to the
//! solver's own knobs.

use crate::{KernelKind, SmoParams, SvmError};
use dls_sparse::{MatrixFormat, Scalar, TripletMatrix};

/// Deterministic k-fold split: fold `f` owns indices `i` with `i % k == f`
/// (round-robin, which also stratifies interleaved label layouts).
pub fn kfold_indices(n: usize, k: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "need at least two folds");
    assert!(n >= k, "need at least one sample per fold");
    (0..k)
        .map(|f| {
            let mut train_idx = Vec::with_capacity(n - n / k);
            let mut test_idx = Vec::with_capacity(n / k + 1);
            for i in 0..n {
                if i % k == f {
                    test_idx.push(i);
                } else {
                    train_idx.push(i);
                }
            }
            (train_idx, test_idx)
        })
        .collect()
}

/// Extracts the sub-matrix of the given rows (re-indexed densely).
fn submatrix<M: MatrixFormat>(x: &M, rows: &[usize]) -> TripletMatrix {
    let mut t = TripletMatrix::new(rows.len(), x.cols());
    for (new_i, &old_i) in rows.iter().enumerate() {
        for (j, v) in x.row_sparse(old_i).iter() {
            t.push(new_i, j, v);
        }
    }
    t.compact()
}

/// Mean k-fold cross-validation accuracy for one parameter setting.
pub fn cross_validate<M: MatrixFormat>(
    x: &M,
    y: &[Scalar],
    params: &SmoParams,
    folds: usize,
) -> Result<f64, SvmError> {
    if y.len() != x.rows() {
        return Err(SvmError::LabelLengthMismatch { rows: x.rows(), labels: y.len() });
    }
    let mut total_correct = 0usize;
    let mut total = 0usize;
    for (train_idx, test_idx) in kfold_indices(x.rows(), folds) {
        let sub = submatrix(x, &train_idx);
        let sub_y: Vec<Scalar> = train_idx.iter().map(|&i| y[i]).collect();
        // A fold can end up single-class; score it as chance rather than
        // failing the whole grid point.
        let model = match crate::train(&dls_sparse::CsrMatrix::from_triplets(&sub), &sub_y, params)
        {
            Ok(m) => m,
            Err(SvmError::SingleClass) => {
                total += test_idx.len();
                continue;
            }
            Err(e) => return Err(e),
        };
        for &i in &test_idx {
            if model.predict_label(&x.row_sparse(i)) == y[i] {
                total_correct += 1;
            }
            total += 1;
        }
    }
    Ok(total_correct as f64 / total as f64)
}

/// One evaluated grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Regularisation constant evaluated.
    pub c: Scalar,
    /// Gaussian γ evaluated (`None` for linear-kernel searches).
    pub gamma: Option<Scalar>,
    /// Mean cross-validation accuracy.
    pub cv_accuracy: f64,
}

/// Result of a grid search.
#[derive(Debug, Clone)]
pub struct GridSearchResult {
    /// The winning parameters, ready to train the final model.
    pub best_params: SmoParams,
    /// CV accuracy of the winner.
    pub best_accuracy: f64,
    /// Every evaluated point.
    pub points: Vec<GridPoint>,
}

/// Grid search over `C` (and `γ` for Gaussian kernels) with k-fold CV.
///
/// `gammas` empty means keep the base kernel untouched and search `C` only.
pub fn grid_search<M: MatrixFormat>(
    x: &M,
    y: &[Scalar],
    base: &SmoParams,
    cs: &[Scalar],
    gammas: &[Scalar],
    folds: usize,
) -> Result<GridSearchResult, SvmError> {
    assert!(!cs.is_empty(), "need at least one C candidate");
    let mut points = Vec::new();
    let mut best: Option<(SmoParams, f64)> = None;
    for &c in cs {
        let gamma_space: Vec<Option<Scalar>> =
            if gammas.is_empty() { vec![None] } else { gammas.iter().map(|&g| Some(g)).collect() };
        for gamma in gamma_space {
            let params = SmoParams {
                c,
                kernel: match gamma {
                    Some(g) => KernelKind::Gaussian { gamma: g },
                    None => base.kernel,
                },
                ..*base
            };
            let acc = cross_validate(x, y, &params, folds)?;
            points.push(GridPoint { c, gamma, cv_accuracy: acc });
            if best.as_ref().map(|(_, b)| acc > *b).unwrap_or(true) {
                best = Some((params, acc));
            }
        }
    }
    let (best_params, best_accuracy) = best.expect("non-empty grid");
    Ok(GridSearchResult { best_params, best_accuracy, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sparse::CsrMatrix;

    fn clusters(n: usize, sep: f64) -> (CsrMatrix, Vec<Scalar>) {
        let mut t = TripletMatrix::new(n, 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let jitter = (i as f64 * 0.37).sin() * 0.3;
            t.push(i, 0, sign * sep + jitter);
            t.push(i, 1, jitter - sign * 0.1);
            y.push(sign);
        }
        (CsrMatrix::from_triplets(&t.compact()), y)
    }

    #[test]
    fn kfold_partitions_everything_exactly_once() {
        for (n, k) in [(10, 2), (11, 3), (25, 5)] {
            let folds = kfold_indices(n, k);
            assert_eq!(folds.len(), k);
            let mut seen = vec![0usize; n];
            for (train_idx, test_idx) in &folds {
                assert_eq!(train_idx.len() + test_idx.len(), n);
                for &i in test_idx {
                    seen[i] += 1;
                }
                // Disjoint within a fold.
                for &i in test_idx {
                    assert!(!train_idx.contains(&i));
                }
            }
            assert!(seen.iter().all(|&s| s == 1), "each index tested exactly once");
        }
    }

    #[test]
    #[should_panic(expected = "two folds")]
    fn kfold_rejects_single_fold() {
        let _ = kfold_indices(10, 1);
    }

    #[test]
    fn cross_validation_scores_separable_data_highly() {
        let (x, y) = clusters(24, 3.0);
        let params = SmoParams { kernel: KernelKind::Linear, ..Default::default() };
        let acc = cross_validate(&x, &y, &params, 4).unwrap();
        assert!(acc > 0.9, "cv accuracy {acc}");
    }

    #[test]
    fn grid_search_finds_a_working_point() {
        let (x, y) = clusters(24, 2.0);
        let base = SmoParams::default();
        let result = grid_search(&x, &y, &base, &[0.1, 1.0, 10.0], &[0.1, 1.0], 4).unwrap();
        assert_eq!(result.points.len(), 6);
        assert!(result.best_accuracy > 0.9, "best {}", result.best_accuracy);
        // The winner's recorded accuracy matches its grid point.
        let best_point = result
            .points
            .iter()
            .max_by(|a, b| a.cv_accuracy.partial_cmp(&b.cv_accuracy).unwrap())
            .unwrap();
        assert_eq!(best_point.cv_accuracy, result.best_accuracy);
    }

    #[test]
    fn c_only_search_keeps_base_kernel() {
        let (x, y) = clusters(16, 3.0);
        let base = SmoParams { kernel: KernelKind::Linear, ..Default::default() };
        let result = grid_search(&x, &y, &base, &[0.5, 5.0], &[], 4).unwrap();
        assert_eq!(result.points.len(), 2);
        assert!(result.points.iter().all(|p| p.gamma.is_none()));
        assert_eq!(result.best_params.kernel, KernelKind::Linear);
    }
}
