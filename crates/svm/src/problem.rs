//! Problem container: a data matrix plus a ±1 label per row.

use crate::SvmError;
use dls_sparse::{MatrixFormat, Scalar};

/// The squared norm of every row of `x`, refusing — naming the first —
/// a row whose squared norm is not finite. A NaN or ±∞ feature value makes
/// it so (squares cannot cancel), and would turn every kernel value the row
/// touches into NaN or ±∞: the solvers would "converge" on garbage. This
/// reads the norms both solvers compute anyway; the data is scanned once.
pub(crate) fn finite_row_norms<M: MatrixFormat>(x: &M) -> Result<Vec<Scalar>, SvmError> {
    let mut norms_sq = vec![0.0; x.rows()];
    x.row_norms_sq(&mut norms_sq);
    match norms_sq.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(SvmError::NonFiniteRow { index, norm_sq: norms_sq[index] }),
        None => Ok(norms_sq),
    }
}

/// A validated binary-classification training problem.
///
/// Borrows the data matrix (any storage format) and owns the label vector.
#[derive(Debug)]
pub struct SvmProblem<'a, M: MatrixFormat> {
    matrix: &'a M,
    labels: Vec<Scalar>,
}

impl<'a, M: MatrixFormat> SvmProblem<'a, M> {
    /// Validates shapes and label values (`+1.0` / `-1.0`, both present).
    pub fn new(matrix: &'a M, labels: &[Scalar]) -> Result<Self, SvmError> {
        if labels.len() != matrix.rows() {
            return Err(SvmError::LabelLengthMismatch {
                rows: matrix.rows(),
                labels: labels.len(),
            });
        }
        let mut pos = false;
        let mut neg = false;
        for (i, &y) in labels.iter().enumerate() {
            if y == 1.0 {
                pos = true;
            } else if y == -1.0 {
                neg = true;
            } else {
                return Err(SvmError::NonBinaryLabel { index: i, value: y });
            }
        }
        if !(pos && neg) {
            return Err(SvmError::SingleClass);
        }
        Ok(Self { matrix, labels: labels.to_vec() })
    }

    /// The data matrix.
    #[inline]
    pub fn matrix(&self) -> &'a M {
        self.matrix
    }

    /// The label vector (±1 entries).
    #[inline]
    pub fn labels(&self) -> &[Scalar] {
        &self.labels
    }

    /// Number of training samples.
    #[inline]
    pub fn n_samples(&self) -> usize {
        self.labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sparse::{CsrMatrix, TripletMatrix};

    fn matrix(rows: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(rows, 2);
        for i in 0..rows {
            t.push(i, i % 2, 1.0);
        }
        CsrMatrix::from_triplets(&t.compact())
    }

    #[test]
    fn accepts_valid_problem() {
        let m = matrix(4);
        let p = SvmProblem::new(&m, &[1.0, -1.0, 1.0, -1.0]).unwrap();
        assert_eq!(p.n_samples(), 4);
        assert_eq!(p.labels(), [1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn rejects_length_mismatch() {
        let m = matrix(4);
        let e = SvmProblem::new(&m, &[1.0, -1.0]).unwrap_err();
        assert!(matches!(e, SvmError::LabelLengthMismatch { rows: 4, labels: 2 }));
    }

    #[test]
    fn rejects_non_binary_labels() {
        let m = matrix(2);
        let e = SvmProblem::new(&m, &[1.0, 0.5]).unwrap_err();
        assert!(matches!(e, SvmError::NonBinaryLabel { index: 1, .. }));
    }

    #[test]
    fn rejects_single_class() {
        let m = matrix(3);
        let e = SvmProblem::new(&m, &[1.0, 1.0, 1.0]).unwrap_err();
        assert_eq!(e, SvmError::SingleClass);
    }
}
