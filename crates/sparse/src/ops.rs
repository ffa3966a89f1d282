//! Format-independent helpers built on [`MatrixFormat`].

use crate::{MatrixFormat, Scalar, SparseVec};

/// Reference SMSV implementation via per-row sorted-merge dot products —
/// O(nnz + M · nnz(v)) and trivially correct; formats are tested against it.
pub fn smsv_reference<M: MatrixFormat>(m: &M, v: &SparseVec) -> Vec<Scalar> {
    (0..m.rows()).map(|i| m.row_sparse(i).dot(v)).collect()
}
