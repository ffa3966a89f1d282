//! CSC: Compressed Sparse Column — a derived format (§III-A), "similar to
//! CSR, the only difference is that the columns are used instead of rows".
//!
//! Interesting for SMSV because the sparse right-hand vector selects
//! *columns*: only the columns where `v` is non-zero are touched at all, so
//! the kernel is Θ(Σ_{j ∈ nnz(v)} colnnz_j) — independent of the matrix rows
//! that never meet `v`.

// Kernel loops index multiple parallel arrays; the indexed form is the
// clearest statement of the per-column sweep.
#![allow(clippy::needless_range_loop)]

use crate::format::{for_each_chunk, Rhs, MAX_SMSV_BLOCK};
use crate::{Format, MatrixFormat, RowScratch, Scalar, SparseVec, SparseVecView, TripletMatrix};

/// Compressed Sparse Column matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    /// `col_ptr[j]..col_ptr[j+1]` is the entry range of column `j`.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<Scalar>,
}

impl CscMatrix {
    /// Builds from the triplet interchange form.
    pub fn from_triplets(t: &TripletMatrix) -> Self {
        let t = t.compacted();
        let mut col_ptr = vec![0usize; t.cols() + 1];
        for &(_, c, _) in t.entries() {
            col_ptr[c + 1] += 1;
        }
        for j in 0..t.cols() {
            col_ptr[j + 1] += col_ptr[j];
        }
        // One stable scatter of the row-major entries by column leaves each
        // column's rows ascending.
        let mut next = col_ptr.clone();
        let mut row_idx = vec![0usize; t.nnz()];
        let mut values = vec![0.0; t.nnz()];
        for &(r, c, v) in t.entries() {
            row_idx[next[c]] = r;
            values[next[c]] = v;
            next[c] += 1;
        }
        Self { rows: t.rows(), cols: t.cols(), col_ptr, row_idx, values }
    }

    /// Column pointer array (`N + 1` entries).
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row indices and values of column `j`.
    #[inline]
    pub fn col_view(&self, j: usize) -> (&[usize], &[Scalar]) {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[s..e], &self.values[s..e])
    }

    /// CSC's one SMSV kernel. No scatter: the right-hand sides' indices
    /// select columns directly, and only those columns contribute,
    /// `out_b += X[:, j] * v_b[j]`. A chunk k-way-merges its lanes'
    /// ascending column lists, so each union column's rows and values are
    /// fetched once and stay cache-hot for every lane holding that column.
    /// A lane still sees its columns in ascending order with rows in
    /// storage order, so every chunk width, one lane included, yields the
    /// same bits.
    fn column_merge<V: Rhs>(&self, vs: &[V], out: &mut [Scalar]) {
        let rows = self.rows;
        for_each_chunk(rows, self.cols, vs, out, |chunk, outs| {
            outs.fill(0.0);
            let mut cur = [0usize; MAX_SMSV_BLOCK];
            loop {
                let next = chunk.iter().zip(&cur).filter_map(|(v, &k)| v.view().indices().get(k));
                let Some(&j) = next.min() else { break };
                let (ridx, vals) = self.col_view(j);
                for (b, (v, k)) in chunk.iter().zip(&mut cur).enumerate() {
                    let v = v.view();
                    if v.indices().get(*k) != Some(&j) {
                        continue;
                    }
                    let x = v.values()[*k];
                    *k += 1;
                    let out = &mut outs[b * rows..(b + 1) * rows];
                    for (&r, &a) in ridx.iter().zip(vals) {
                        out[r] += a * x;
                    }
                }
            }
        });
    }
}

impl MatrixFormat for CscMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn nnz(&self) -> usize {
        self.values.len()
    }

    fn format(&self) -> Format {
        Format::Csc
    }

    fn get(&self, i: usize, j: usize) -> Scalar {
        let (rows, vals) = self.col_view(j);
        match rows.binary_search(&i) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    fn row_sparse(&self, i: usize) -> SparseVec {
        // O(N log colnnz): CSC pays for row extraction, as expected of a
        // column-oriented layout.
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for j in 0..self.cols {
            let v = self.get(i, j);
            if v != 0.0 {
                indices.push(j);
                values.push(v);
            }
        }
        SparseVec::new(self.cols, indices, values)
    }

    fn row_view_in<'a>(&'a self, i: usize, scratch: &'a mut RowScratch) -> SparseVecView<'a> {
        // Same O(N log colnnz) walk as `row_sparse`, but into the reusable
        // scratch; columns are visited in ascending order so no sort.
        scratch.clear();
        for j in 0..self.cols {
            let v = self.get(i, j);
            if v != 0.0 {
                scratch.push(j, v);
            }
        }
        scratch.view(self.cols)
    }

    fn smsv_view(&self, v: SparseVecView<'_>, out: &mut [Scalar], _workspace: &mut Vec<Scalar>) {
        self.column_merge(&[v], out);
    }

    fn smsv_block(&self, vs: &[SparseVec], out: &mut [Scalar], _workspace: &mut Vec<Scalar>) {
        self.column_merge(vs, out);
    }

    fn row_norms_sq(&self, out: &mut [Scalar]) {
        assert_eq!(out.len(), self.rows);
        out.fill(0.0);
        for (r, v) in self.row_idx.iter().zip(&self.values) {
            out[*r] += v * v;
        }
    }

    fn to_triplets(&self) -> TripletMatrix {
        let mut t = TripletMatrix::with_capacity(self.rows, self.cols, self.nnz());
        for j in 0..self.cols {
            let (rows, vals) = self.col_view(j);
            for (&r, &v) in rows.iter().zip(vals) {
                t.push(r, j, v);
            }
        }
        t.compact()
    }

    fn storage_bytes(&self) -> usize {
        self.col_ptr.len() * std::mem::size_of::<usize>()
            + self.row_idx.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<Scalar>()
    }

    fn storage_elems(&self) -> usize {
        2 * self.nnz() + self.cols + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        let t = TripletMatrix::from_entries(
            3,
            4,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0), (2, 3, 5.0)],
        )
        .unwrap();
        CscMatrix::from_triplets(&t)
    }

    #[test]
    fn column_pointers() {
        let m = sample();
        assert_eq!(m.col_ptr(), &[0, 2, 3, 4, 5]);
        let (rows, vals) = m.col_view(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 3.0]);
    }

    #[test]
    fn get_and_row_extraction() {
        let m = sample();
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.get(1, 1), 0.0);
        let r = m.row_sparse(2);
        assert_eq!(r.indices(), &[0, 1, 3]);
    }

    #[test]
    fn smsv_touches_selected_columns_only() {
        let m = sample();
        let v = SparseVec::new(4, vec![0, 3], vec![2.0, 1.0]);
        let mut out = vec![0.0; 3];
        m.smsv(&v, &mut out);
        assert_eq!(out, vec![2.0, 0.0, 11.0]);
    }

    #[test]
    fn row_norms() {
        let m = sample();
        let mut out = vec![0.0; 3];
        m.row_norms_sq(&mut out);
        assert_eq!(out, vec![5.0, 0.0, 50.0]);
    }

    #[test]
    fn triplet_round_trip() {
        let m = sample();
        assert_eq!(CscMatrix::from_triplets(&m.to_triplets()), m);
    }
}
