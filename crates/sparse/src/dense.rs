//! DEN: dense row-major storage.
//!
//! Stores all `M * N` elements. Best for the (near-)dense datasets common in
//! machine learning (gisette, epsilon, leukemia, dna in Table V), where the
//! index arrays of sparse formats double or triple the memory traffic.

use crate::format::{ensure_workspace, MAX_SMSV_BLOCK};
use crate::{Format, MatrixFormat, RowScratch, Scalar, SparseVec, SparseVecView, TripletMatrix};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Scalar>,
    nnz: usize,
}

impl DenseMatrix {
    /// Builds from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<Scalar>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        let nnz = data.iter().filter(|&&v| v != 0.0).count();
        Self { rows, cols, data, nnz }
    }

    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols], nnz: 0 }
    }

    /// Builds from the triplet interchange form (duplicates summed),
    /// counting the non-zeros while it fills.
    pub fn from_triplets(t: &TripletMatrix) -> Self {
        let t = t.compacted();
        let (rows, cols) = (t.rows(), t.cols());
        let mut data = vec![0.0; rows * cols];
        let mut nnz = 0;
        for &(r, c, v) in t.entries() {
            // Compact entries hit each cell at most once. Added, not
            // stored, so an explicit `-0.0` lands as the `0.0` it counts as.
            data[r * cols + c] += v;
            nnz += usize::from(v != 0.0);
        }
        Self { rows, cols, data, nnz }
    }

    /// Borrow of row `i` as a dense slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Scalar] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The full row-major buffer.
    #[inline]
    pub fn data(&self) -> &[Scalar] {
        &self.data
    }
}

impl MatrixFormat for DenseMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn format(&self) -> Format {
        Format::Den
    }

    fn get(&self, i: usize, j: usize) -> Scalar {
        self.data[i * self.cols + j]
    }

    fn row_sparse(&self, i: usize) -> SparseVec {
        SparseVec::from_dense(self.row(i))
    }

    fn row_view_in<'a>(&'a self, i: usize, scratch: &'a mut RowScratch) -> SparseVecView<'a> {
        scratch.clear();
        for (j, &x) in self.row(i).iter().enumerate() {
            if x != 0.0 {
                scratch.push(j, x);
            }
        }
        scratch.view(self.cols)
    }

    fn smsv(&self, v: &SparseVec, out: &mut [Scalar]) {
        let mut workspace = Vec::new();
        self.smsv_view(v.as_view(), out, &mut workspace);
    }

    fn smsv_view(&self, v: SparseVecView<'_>, out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        assert_eq!(v.dim(), self.cols, "SMSV vector dimension mismatch");
        assert_eq!(out.len(), self.rows, "SMSV output length mismatch");
        // Dense-row x sparse-vector: the gather over v's nnz indices is the
        // natural kernel; cost is M * nnz(v) regardless of matrix sparsity.
        // When v is (near-)dense — the common case for the dense ML datasets
        // DEN is chosen for — skip the index gather entirely and run a
        // straight dot product, the layout's whole advantage.
        if v.nnz() * 4 >= 3 * self.cols {
            let ws = ensure_workspace(workspace, self.cols);
            debug_assert!(ws.iter().all(|&w| w == 0.0));
            v.scatter(ws);
            for (i, o) in out.iter_mut().enumerate() {
                let row = &self.data[i * self.cols..(i + 1) * self.cols];
                // Explicit fold from +0.0, not `.sum()`: std's float Sum
                // keeps a lone -0.0 term as -0.0, which would break the
                // bit-parity contract with the blocked kernel's +0.0-seeded
                // accumulators (an empty row times a negative RHS entry).
                let mut acc = 0.0;
                for (a, b) in row.iter().zip(ws.iter()) {
                    acc += a * b;
                }
                *o = acc;
            }
            v.unscatter(ws);
            return;
        }
        let idx = v.indices();
        let val = v.values();
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = 0.0;
            for (&j, &x) in idx.iter().zip(val) {
                acc += row[j] * x;
            }
            *o = acc;
        }
    }

    fn smsv_block(&self, vs: &[SparseVec], out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        assert_eq!(out.len(), self.rows * vs.len(), "smsv_block output length mismatch");
        // Blocked kernel: stream each dense row once and feed all B
        // accumulators from it, instead of re-reading the M*N buffer B
        // times. Right-hand sides sit in an interleaved scatter workspace
        // (`ws[j * cb + bi]`) when dense enough, or are gathered per-index
        // when sparse.
        let mut b0 = 0;
        while b0 < vs.len() {
            let cb = (vs.len() - b0).min(MAX_SMSV_BLOCK);
            if cb == 1 {
                // A single lane degenerates to the per-vector sweep; skip
                // the interleaved workspace and its writeback entirely.
                let dst = &mut out[b0 * self.rows..(b0 + 1) * self.rows];
                self.smsv_view(vs[b0].as_view(), dst, workspace);
                b0 += 1;
                continue;
            }
            let chunk = &vs[b0..b0 + cb];
            for v in chunk {
                assert_eq!(v.dim(), self.cols, "SMSV vector dimension mismatch");
            }
            let total_nnz: usize = chunk.iter().map(|v| v.nnz()).sum();
            if total_nnz * 4 >= 3 * self.cols * cb {
                let ws = ensure_workspace(workspace, self.cols * cb);
                debug_assert!(ws.iter().all(|&w| w == 0.0));
                for (bi, v) in chunk.iter().enumerate() {
                    for (j, x) in v.iter() {
                        ws[j * cb + bi] = x;
                    }
                }
                for i in 0..self.rows {
                    let row = self.row(i);
                    let mut acc = [0.0 as Scalar; MAX_SMSV_BLOCK];
                    for (j, &x) in row.iter().enumerate() {
                        let lane = &ws[j * cb..(j + 1) * cb];
                        for (a, &w) in acc[..cb].iter_mut().zip(lane) {
                            *a += x * w;
                        }
                    }
                    for (bi, &a) in acc[..cb].iter().enumerate() {
                        out[(b0 + bi) * self.rows + i] = a;
                    }
                }
                for (bi, v) in chunk.iter().enumerate() {
                    for &j in v.indices() {
                        ws[j * cb + bi] = 0.0;
                    }
                }
            } else {
                // Sparse gather: the per-row read count is so low that the
                // interleaved accumulators cost more than they save, and
                // scattered output writes would dominate. Run each product
                // through the single-vector kernel — same access pattern,
                // sequential writes, never slower than unblocked.
                for (bi, v) in chunk.iter().enumerate() {
                    let dst = &mut out[(b0 + bi) * self.rows..(b0 + bi + 1) * self.rows];
                    self.smsv_view(v.as_view(), dst, workspace);
                }
            }
            b0 += cb;
        }
    }

    fn spmv(&self, x: &[Scalar], out: &mut [Scalar]) {
        assert_eq!(x.len(), self.cols, "SpMV vector dimension mismatch");
        assert_eq!(out.len(), self.rows, "SpMV output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *o = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    fn row_norms_sq(&self, out: &mut [Scalar]) {
        assert_eq!(out.len(), self.rows);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.row(i).iter().map(|v| v * v).sum();
        }
    }

    fn to_triplets(&self) -> TripletMatrix {
        TripletMatrix::from_dense(self.rows, self.cols, &self.data)
    }

    fn storage_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<Scalar>()
    }

    fn storage_elems(&self) -> usize {
        // Table II: DEN stores exactly M * N elements, min and max alike.
        self.rows * self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::new(
            3,
            4,
            vec![
                1.0, 0.0, 2.0, 0.0, //
                0.0, 0.0, 0.0, 0.0, //
                3.0, 4.0, 0.0, 5.0,
            ],
        )
    }

    #[test]
    fn construction_counts_nnz() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.format(), Format::Den);
    }

    #[test]
    fn get_and_row_access() {
        let m = sample();
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.row(2), &[3.0, 4.0, 0.0, 5.0]);
        let r = m.row_sparse(2);
        assert_eq!(r.indices(), &[0, 1, 3]);
    }

    #[test]
    fn smsv_matches_manual() {
        let m = sample();
        let v = SparseVec::new(4, vec![0, 3], vec![2.0, 1.0]);
        let mut out = vec![0.0; 3];
        m.smsv(&v, &mut out);
        assert_eq!(out, vec![2.0, 0.0, 11.0]);
    }

    #[test]
    fn spmv_matches_manual() {
        let m = sample();
        let mut out = vec![0.0; 3];
        m.spmv(&[1.0, 1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, vec![3.0, 0.0, 12.0]);
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
        let back = DenseMatrix::from_triplets(&m.to_triplets());
        assert_eq!(back, m);
    }

    #[test]
    fn storage_is_m_times_n() {
        let m = sample();
        assert_eq!(m.storage_elems(), 12);
        assert_eq!(m.storage_bytes(), 12 * 8);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn rejects_wrong_buffer() {
        let _ = DenseMatrix::new(2, 2, vec![0.0; 3]);
    }
}
