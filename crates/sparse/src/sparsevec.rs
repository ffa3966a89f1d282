//! Sparse vectors.
//!
//! The SMO inner loop multiplies the data matrix by one of its own rows
//! (`X · X_high` and `X · X_low`), so the right-hand side of the bottleneck
//! kernel is itself sparse — this is what the paper calls SMSV (sparse-matrix
//! × **sparse**-vector), distinguishing it from classical SpMV.

use crate::Scalar;

/// A sparse vector stored as parallel `(index, value)` arrays with indices
/// strictly increasing.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec {
    dim: usize,
    indices: Vec<usize>,
    values: Vec<Scalar>,
}

impl SparseVec {
    /// Builds a sparse vector from parallel arrays.
    ///
    /// # Panics
    /// Panics if the arrays differ in length, an index is `>= dim`, or the
    /// indices are not strictly increasing.
    pub fn new(dim: usize, indices: Vec<usize>, values: Vec<Scalar>) -> Self {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        for w in indices.windows(2) {
            assert!(w[0] < w[1], "indices must be strictly increasing");
        }
        if let Some(&last) = indices.last() {
            assert!(last < dim, "index {last} out of bounds for dim {dim}");
        }
        Self { dim, indices, values }
    }

    /// An all-zero vector of the given dimension.
    pub fn zeros(dim: usize) -> Self {
        Self { dim, indices: Vec::new(), values: Vec::new() }
    }

    /// Builds from a dense slice, keeping only non-zero entries.
    pub fn from_dense(dense: &[Scalar]) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                indices.push(i);
                values.push(v);
            }
        }
        Self { dim: dense.len(), indices, values }
    }

    /// Dimension of the vector (including implicit zeros).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of explicitly stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Stored indices, strictly increasing.
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored values, parallel to [`SparseVec::indices`].
    #[inline]
    pub fn values(&self) -> &[Scalar] {
        &self.values
    }

    /// Iterates over `(index, value)` pairs of stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Scalar)> + '_ {
        self.indices.iter().copied().zip(self.values.iter().copied())
    }

    /// Value at position `i` (zero if not stored).
    pub fn get(&self, i: usize) -> Scalar {
        debug_assert!(i < self.dim);
        match self.indices.binary_search(&i) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Materialises the vector densely.
    pub fn to_dense(&self) -> Vec<Scalar> {
        let mut out = vec![0.0; self.dim];
        for (i, v) in self.iter() {
            out[i] = v;
        }
        out
    }

    /// Scatters the stored values into a caller-provided dense workspace.
    /// The workspace must be at least `dim` long and zeroed where this
    /// vector has no entries; use together with [`SparseVec::unscatter`].
    pub fn scatter(&self, workspace: &mut [Scalar]) {
        debug_assert!(workspace.len() >= self.dim);
        for (i, v) in self.iter() {
            workspace[i] = v;
        }
    }

    /// Undoes [`SparseVec::scatter`], restoring the touched workspace slots
    /// to zero. Cheaper than re-zeroing the whole workspace when
    /// `nnz << dim`.
    pub fn unscatter(&self, workspace: &mut [Scalar]) {
        for &i in &self.indices {
            workspace[i] = 0.0;
        }
    }

    /// Dot product with another sparse vector via sorted-merge join.
    pub fn dot(&self, other: &SparseVec) -> Scalar {
        debug_assert_eq!(self.dim, other.dim, "dimension mismatch in dot");
        let (mut a, mut b) = (0usize, 0usize);
        let mut acc = 0.0;
        while a < self.indices.len() && b < other.indices.len() {
            let (ia, ib) = (self.indices[a], other.indices[b]);
            if ia == ib {
                acc += self.values[a] * other.values[b];
                a += 1;
                b += 1;
            } else if ia < ib {
                a += 1;
            } else {
                b += 1;
            }
        }
        acc
    }

    /// Dot product against a dense slice.
    pub fn dot_dense(&self, dense: &[Scalar]) -> Scalar {
        debug_assert!(dense.len() >= self.dim);
        self.iter().map(|(i, v)| v * dense[i]).sum()
    }

    /// Squared Euclidean norm of the vector.
    pub fn norm_sq(&self) -> Scalar {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Squared Euclidean distance to another sparse vector,
    /// `||a - b||^2 = ||a||^2 + ||b||^2 - 2 a·b`.
    pub fn dist_sq(&self, other: &SparseVec) -> Scalar {
        (self.norm_sq() + other.norm_sq() - 2.0 * self.dot(other)).max(0.0)
    }

    /// Borrows this vector as a [`SparseVecView`] without copying.
    #[inline]
    pub fn as_view(&self) -> SparseVecView<'_> {
        SparseVecView { dim: self.dim, indices: &self.indices, values: &self.values }
    }
}

/// A borrowed sparse vector: the zero-copy counterpart of [`SparseVec`].
///
/// Views are how matrix rows reach the SMSV kernels without a heap
/// allocation per access: contiguous formats (CSR, COO) hand out slices of
/// their own storage directly, and everything else fills a caller-owned
/// [`RowScratch`] whose capacity persists across calls. Same invariants as
/// `SparseVec`: indices strictly increasing, all `< dim`.
#[derive(Debug, Clone, Copy)]
pub struct SparseVecView<'a> {
    dim: usize,
    indices: &'a [usize],
    values: &'a [Scalar],
}

impl<'a> SparseVecView<'a> {
    /// Builds a view over parallel index/value slices.
    ///
    /// Invariants are debug-asserted only: views are produced on the hot
    /// path by format code that already guarantees sorted bounds-checked
    /// rows.
    #[inline]
    pub fn new(dim: usize, indices: &'a [usize], values: &'a [Scalar]) -> Self {
        debug_assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly increasing"
        );
        debug_assert!(indices.last().is_none_or(|&last| last < dim), "index out of bounds");
        Self { dim, indices, values }
    }

    /// Dimension of the vector (including implicit zeros).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of explicitly stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Stored indices, strictly increasing.
    #[inline]
    pub fn indices(&self) -> &'a [usize] {
        self.indices
    }

    /// Stored values, parallel to [`SparseVecView::indices`].
    #[inline]
    pub fn values(&self) -> &'a [Scalar] {
        self.values
    }

    /// Iterates over `(index, value)` pairs of stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Scalar)> + 'a {
        self.indices.iter().copied().zip(self.values.iter().copied())
    }

    /// Value at position `i` (zero if not stored).
    pub fn get(&self, i: usize) -> Scalar {
        debug_assert!(i < self.dim);
        match self.indices.binary_search(&i) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Dot product with another view via sorted-merge join.
    pub fn dot(&self, other: SparseVecView<'_>) -> Scalar {
        debug_assert_eq!(self.dim, other.dim, "dimension mismatch in dot");
        let (mut a, mut b) = (0usize, 0usize);
        let mut acc = 0.0;
        while a < self.indices.len() && b < other.indices.len() {
            let (ia, ib) = (self.indices[a], other.indices[b]);
            if ia == ib {
                acc += self.values[a] * other.values[b];
                a += 1;
                b += 1;
            } else if ia < ib {
                a += 1;
            } else {
                b += 1;
            }
        }
        acc
    }

    /// Dot product against a dense slice.
    pub fn dot_dense(&self, dense: &[Scalar]) -> Scalar {
        debug_assert!(dense.len() >= self.dim);
        self.iter().map(|(i, v)| v * dense[i]).sum()
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(&self) -> Scalar {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Scatters stored values into a dense workspace (`>= dim` long, zero
    /// where this view has no entries); pair with
    /// [`SparseVecView::unscatter`].
    pub fn scatter(&self, workspace: &mut [Scalar]) {
        debug_assert!(workspace.len() >= self.dim);
        for (i, v) in self.iter() {
            workspace[i] = v;
        }
    }

    /// Restores the workspace slots touched by [`SparseVecView::scatter`]
    /// to zero.
    pub fn unscatter(&self, workspace: &mut [Scalar]) {
        for &i in self.indices {
            workspace[i] = 0.0;
        }
    }

    /// Copies the view into an owned [`SparseVec`] (allocates).
    pub fn to_owned(&self) -> SparseVec {
        SparseVec { dim: self.dim, indices: self.indices.to_vec(), values: self.values.to_vec() }
    }
}

/// Reusable buffer a matrix format fills to serve a row view when its
/// storage is not row-contiguous (ELL, DIA, DEN, CSC).
///
/// Capacity is retained across [`RowScratch::clear`] calls, so after
/// warm-up, producing a row view allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct RowScratch {
    indices: Vec<usize>,
    values: Vec<Scalar>,
}

impl RowScratch {
    /// An empty scratch; grows on first use and then stays allocated.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the scratch, keeping its capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.indices.clear();
        self.values.clear();
    }

    /// Appends one `(index, value)` entry. Callers must push indices in
    /// strictly increasing order or call [`RowScratch::sort_pairs`] before
    /// taking a view.
    #[inline]
    pub fn push(&mut self, index: usize, value: Scalar) {
        self.indices.push(index);
        self.values.push(value);
    }

    /// Number of buffered entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the scratch holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Co-sorts the buffered pairs by index (insertion sort: rows are
    /// short and often nearly sorted, and this allocates nothing).
    pub fn sort_pairs(&mut self) {
        for i in 1..self.indices.len() {
            let (ki, kv) = (self.indices[i], self.values[i]);
            let mut j = i;
            while j > 0 && self.indices[j - 1] > ki {
                self.indices[j] = self.indices[j - 1];
                self.values[j] = self.values[j - 1];
                j -= 1;
            }
            self.indices[j] = ki;
            self.values[j] = kv;
        }
    }

    /// Takes a [`SparseVecView`] over the buffered entries.
    #[inline]
    pub fn view(&self, dim: usize) -> SparseVecView<'_> {
        SparseVecView::new(dim, &self.indices, &self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(dim: usize, pairs: &[(usize, Scalar)]) -> SparseVec {
        SparseVec::new(
            dim,
            pairs.iter().map(|p| p.0).collect(),
            pairs.iter().map(|p| p.1).collect(),
        )
    }

    #[test]
    fn from_dense_round_trip() {
        let d = [0.0, 1.5, 0.0, -2.0, 0.0];
        let s = SparseVec::from_dense(&d);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense(), d.to_vec());
    }

    #[test]
    fn get_present_and_absent() {
        let s = v(6, &[(1, 2.0), (4, 3.0)]);
        assert_eq!(s.get(1), 2.0);
        assert_eq!(s.get(4), 3.0);
        assert_eq!(s.get(0), 0.0);
        assert_eq!(s.get(5), 0.0);
    }

    #[test]
    fn dot_merge_matches_dense() {
        let a = v(8, &[(0, 1.0), (3, 2.0), (7, -1.0)]);
        let b = v(8, &[(3, 4.0), (5, 9.0), (7, 2.0)]);
        assert_eq!(a.dot(&b), 2.0 * 4.0 + -2.0);
        let bd = b.to_dense();
        assert_eq!(a.dot_dense(&bd), a.dot(&b));
    }

    #[test]
    fn dot_disjoint_is_zero() {
        let a = v(4, &[(0, 1.0), (2, 1.0)]);
        let b = v(4, &[(1, 1.0), (3, 1.0)]);
        assert_eq!(a.dot(&b), 0.0);
    }

    #[test]
    fn scatter_unscatter_restores_zeros() {
        let s = v(5, &[(1, 7.0), (3, 8.0)]);
        let mut ws = vec![0.0; 5];
        s.scatter(&mut ws);
        assert_eq!(ws, vec![0.0, 7.0, 0.0, 8.0, 0.0]);
        s.unscatter(&mut ws);
        assert_eq!(ws, vec![0.0; 5]);
    }

    #[test]
    fn norms_and_distance() {
        let a = v(4, &[(0, 3.0), (1, 4.0)]);
        let b = v(4, &[(0, 3.0), (1, 4.0)]);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.dist_sq(&b), 0.0);
        let c = v(4, &[(2, 1.0)]);
        assert_eq!(a.dist_sq(&c), 26.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_indices() {
        let _ = SparseVec::new(4, vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_range_index() {
        let _ = SparseVec::new(2, vec![2], vec![1.0]);
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = SparseVec::zeros(10);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.dim(), 10);
        assert_eq!(z.norm_sq(), 0.0);
    }

    #[test]
    fn view_mirrors_owned_vector() {
        let s = v(8, &[(0, 1.0), (3, 2.0), (7, -1.0)]);
        let view = s.as_view();
        assert_eq!(view.dim(), 8);
        assert_eq!(view.nnz(), 3);
        assert_eq!(view.get(3), 2.0);
        assert_eq!(view.get(4), 0.0);
        assert_eq!(view.norm_sq(), s.norm_sq());
        assert_eq!(view.to_owned(), s);
    }

    #[test]
    fn view_dot_matches_owned_dot() {
        let a = v(8, &[(0, 1.0), (3, 2.0), (7, -1.0)]);
        let b = v(8, &[(3, 4.0), (5, 9.0), (7, 2.0)]);
        assert_eq!(a.as_view().dot(b.as_view()), a.dot(&b));
        let bd = b.to_dense();
        assert_eq!(a.as_view().dot_dense(&bd), a.dot_dense(&bd));
    }

    #[test]
    fn view_scatter_unscatter_round_trips() {
        let s = v(5, &[(1, 7.0), (3, 8.0)]);
        let mut ws = vec![0.0; 5];
        s.as_view().scatter(&mut ws);
        assert_eq!(ws, vec![0.0, 7.0, 0.0, 8.0, 0.0]);
        s.as_view().unscatter(&mut ws);
        assert_eq!(ws, vec![0.0; 5]);
    }

    #[test]
    fn scratch_reuses_capacity_across_rows() {
        let mut scratch = RowScratch::new();
        scratch.push(1, 2.0);
        scratch.push(4, 3.0);
        assert_eq!(scratch.view(6).to_owned(), v(6, &[(1, 2.0), (4, 3.0)]));
        scratch.clear();
        assert!(scratch.is_empty());
        scratch.push(0, 1.0);
        assert_eq!(scratch.len(), 1);
        assert_eq!(scratch.view(6).get(0), 1.0);
    }

    #[test]
    fn scratch_sort_pairs_co_sorts_values() {
        let mut scratch = RowScratch::new();
        for &(i, x) in &[(5usize, 50.0), (1, 10.0), (3, 30.0), (0, 0.5)] {
            scratch.push(i, x);
        }
        scratch.sort_pairs();
        let got = scratch.view(6).to_owned();
        assert_eq!(got, v(6, &[(0, 0.5), (1, 10.0), (3, 30.0), (5, 50.0)]));
    }
}
