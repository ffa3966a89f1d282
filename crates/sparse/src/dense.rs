//! DEN: dense row-major storage.
//!
//! Stores all `M * N` elements. Best for the (near-)dense datasets common in
//! machine learning (gisette, epsilon, leukemia, dna in Table V), where the
//! index arrays of sparse formats double or triple the memory traffic.

use crate::format::{fold_rows, smsv_sweep, Rhs, Sweep};
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

    fn smsv_view(&self, v: SparseVecView<'_>, out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        smsv_sweep(self, &[v], out, workspace);
    }

    fn smsv_block(&self, vs: &[SparseVec], out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        smsv_sweep(self, vs, out, workspace);
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

impl Sweep for DenseMatrix {
    const INTERLEAVE: usize = 4;

    /// A straight dot product of each row against every lane, the
    /// layout's whole advantage when the right-hand sides are (near-)dense,
    /// the common case for the dense ML datasets DEN is chosen for. Narrow
    /// widths step over several rows against the shared scatter
    /// ([`interleave`](crate::format::interleave)), each row on its own chains.
    fn sweep<const CB: usize>(&self, scat: &[Scalar], acc: &mut [Scalar]) {
        let scat = &scat.as_chunks::<CB>().0[..self.cols];
        fold_rows::<Self, _, CB>(acc, |i| (scat, self.row(i)), |_, w| w);
    }

    /// Sparse right-hand sides gather over their own indices instead, at
    /// M · nnz(v) per product whatever the matrix holds, interleaving rows
    /// the same way: below 3/4 density the scatter costs more than it saves.
    fn gather<V: Rhs>(&self, chunk: &[V], out: &mut [Scalar]) -> bool {
        let nnz: usize = chunk.iter().map(|v| v.view().nnz()).sum();
        if nnz * 4 >= 3 * self.cols * chunk.len() {
            return false;
        }
        for (b, v) in chunk.iter().enumerate() {
            let v = v.view();
            fold_rows::<Self, _, 1>(
                &mut out[b * self.rows..(b + 1) * self.rows],
                |_| (v.indices(), v.values()),
                |i, &j| std::array::from_ref(&self.data[i * self.cols + j]),
            );
        }
        true
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
