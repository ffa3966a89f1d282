//! CSR: Compressed Sparse Row.
//!
//! The format LIBSVM fixes for every dataset. Stores `nnz` values, `nnz`
//! column indices and `M + 1` row pointers, so computation and memory
//! traffic are Θ(nnz). Weakness (paper §III-B, Fig. 4): when `dim_i` varies
//! strongly between rows (`vdim` large), fixed-width SIMD lanes processing
//! rows in lockstep idle on short rows — modelled here by the
//! [`CsrMatrix::smsv_lanes`] kernel, which mirrors the vectorised row-lockstep
//! kernels used on Xeon Phi.

use crate::format::{fold_rows, smsv_sweep, Sweep};
use crate::{Format, MatrixFormat, RowScratch, Scalar, SparseVec, SparseVecView, TripletMatrix};

/// Compressed Sparse Row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` is the index range of row `i`.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<Scalar>,
}

impl CsrMatrix {
    /// Builds from raw CSR arrays, validating every invariant.
    pub fn new(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<Scalar>,
    ) -> Result<Self, crate::SparseError> {
        use crate::SparseError::Inconsistent;
        if row_ptr.len() != rows + 1 {
            return Err(Inconsistent(format!(
                "row_ptr length {} != rows + 1 = {}",
                row_ptr.len(),
                rows + 1
            )));
        }
        if row_ptr[0] != 0 || *row_ptr.last().unwrap() != values.len() {
            return Err(Inconsistent("row_ptr endpoints".into()));
        }
        if col_idx.len() != values.len() {
            return Err(Inconsistent("col_idx/values length mismatch".into()));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(Inconsistent("row_ptr not monotone".into()));
        }
        for i in 0..rows {
            let r = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            if r.windows(2).any(|w| w[0] >= w[1]) {
                return Err(Inconsistent(format!("row {i} columns not strictly increasing")));
            }
            if let Some(&last) = r.last() {
                if last >= cols {
                    return Err(crate::SparseError::IndexOutOfBounds {
                        row: i,
                        col: last,
                        rows,
                        cols,
                    });
                }
            }
        }
        Ok(Self { rows, cols, row_ptr, col_idx, values })
    }

    /// Builds from the triplet interchange form. Duplicates are summed.
    /// Compact input is borrowed and unzipped as it is.
    pub fn from_triplets(t: &TripletMatrix) -> Self {
        let t = t.compacted();
        let mut row_ptr = Vec::with_capacity(t.rows() + 1);
        let mut seen = 0;
        for run in t.row_runs() {
            // Every row up to this one that has no pointer yet starts here.
            row_ptr.resize(run[0].0 + 1, seen);
            seen += run.len();
        }
        row_ptr.resize(t.rows() + 1, seen);
        let col_idx = t.entries().iter().map(|e| e.1).collect();
        let values = t.entries().iter().map(|e| e.2).collect();
        Self { rows: t.rows(), cols: t.cols(), row_ptr, col_idx, values }
    }

    /// Row pointer array (`M + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array (`nnz` entries).
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array (`nnz` entries).
    #[inline]
    pub fn values(&self) -> &[Scalar] {
        &self.values
    }

    /// Column indices and values of row `i` as borrowed slices.
    #[inline]
    pub fn row_view(&self, i: usize) -> (&[usize], &[Scalar]) {
        let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Number of non-zeros in row `i` (`dim_i` in the paper's notation).
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Row-lockstep "vectorised" SMSV processing `LANES` rows at a time,
    /// mirroring a fixed-width SIMD kernel (e.g. on Intel MIC): each lane
    /// group executes `max(dim_i)` steps, so short rows in a group pay for
    /// the longest one. This is the kernel whose efficiency degrades as
    /// `vdim` grows (paper Fig. 4).
    pub fn smsv_lanes<const LANES: usize>(&self, v: &SparseVec, out: &mut [Scalar]) {
        assert_eq!(v.dim(), self.cols, "SMSV vector dimension mismatch");
        assert_eq!(out.len(), self.rows, "SMSV output length mismatch");
        let mut dense = vec![0.0; self.cols];
        v.scatter(&mut dense);
        let mut i = 0;
        while i < self.rows {
            let group = (self.rows - i).min(LANES);
            let max_len = (i..i + group).map(|r| self.row_nnz(r)).max().unwrap_or(0);
            let mut acc = [0.0 as Scalar; LANES];
            // All lanes iterate max_len steps; lanes whose row is shorter
            // execute masked (zero-contribution) steps, as real SIMD would.
            for k in 0..max_len {
                for (lane, a) in acc.iter_mut().enumerate().take(group) {
                    let r = i + lane;
                    let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
                    let pos = s + k;
                    let masked = pos >= e;
                    let c = if masked { 0 } else { self.col_idx[pos] };
                    let x = if masked { 0.0 } else { self.values[pos] };
                    *a += x * dense[c];
                }
            }
            out[i..i + group].copy_from_slice(&acc[..group]);
            i += group;
        }
    }
}

impl MatrixFormat for CsrMatrix {
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
        Format::Csr
    }

    fn get(&self, i: usize, j: usize) -> Scalar {
        let (cols, vals) = self.row_view(i);
        match cols.binary_search(&j) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    fn row_sparse(&self, i: usize) -> SparseVec {
        let (cols, vals) = self.row_view(i);
        SparseVec::new(self.cols, cols.to_vec(), vals.to_vec())
    }

    fn row_view_in<'a>(&'a self, i: usize, _scratch: &'a mut RowScratch) -> SparseVecView<'a> {
        // CSR rows are contiguous: borrow the storage directly.
        let (cols, vals) = self.row_view(i);
        SparseVecView::new(self.cols, cols, vals)
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
            let (_, vals) = self.row_view(i);
            *o = vals.iter().map(|v| v * v).sum();
        }
    }

    fn to_triplets(&self) -> TripletMatrix {
        let mut t = TripletMatrix::with_capacity(self.rows, self.cols, self.nnz());
        for i in 0..self.rows {
            let (cols, vals) = self.row_view(i);
            for (&c, &v) in cols.iter().zip(vals) {
                t.push(i, c, v);
            }
        }
        t
    }

    fn storage_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<Scalar>()
    }

    fn storage_elems(&self) -> usize {
        // Table II: data + indices arrays have nnz elements each, ptr has
        // M + 1; dense worst case is 2MN + M.
        2 * self.nnz() + self.rows + 1
    }
}

impl Sweep for CsrMatrix {
    const INTERLEAVE: usize = 2;

    /// Scatter-gather: each row gathers its lanes in Θ(dim_i), so a sweep
    /// costs Θ(nnz · CB) plus the scatter. Narrow widths interleave rows
    /// ([`interleave`](crate::format::interleave)) over their common prefix.
    fn sweep<const CB: usize>(&self, scat: &[Scalar], acc: &mut [Scalar]) {
        let scat = scat.as_chunks::<CB>().0;
        fold_rows::<Self, _, CB>(acc, |i| self.row_view(i), |_, &c| &scat[c]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 0 2 0]
        // [0 0 0 0]
        // [3 4 0 5]
        let t = TripletMatrix::from_entries(
            3,
            4,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0), (2, 3, 5.0)],
        )
        .unwrap();
        CsrMatrix::from_triplets(&t)
    }

    #[test]
    fn construction_from_triplets() {
        let m = sample();
        assert_eq!(m.row_ptr(), &[0, 2, 2, 5]);
        assert_eq!(m.col_idx(), &[0, 2, 0, 1, 3]);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    fn validating_constructor_accepts_valid() {
        let m = sample();
        let ok =
            CsrMatrix::new(3, 4, m.row_ptr().to_vec(), m.col_idx().to_vec(), m.values().to_vec());
        assert!(ok.is_ok());
    }

    #[test]
    fn validating_constructor_rejects_bad_ptr() {
        let err = CsrMatrix::new(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]);
        assert!(err.is_err());
        let err = CsrMatrix::new(2, 2, vec![0, 3, 2], vec![0, 1], vec![1.0, 1.0]);
        assert!(err.is_err());
    }

    #[test]
    fn validating_constructor_rejects_unsorted_cols() {
        let err = CsrMatrix::new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
        assert!(err.is_err());
    }

    #[test]
    fn get_and_rows() {
        let m = sample();
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.get(1, 3), 0.0);
        let r = m.row_sparse(2);
        assert_eq!(r.indices(), &[0, 1, 3]);
        assert_eq!(r.values(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn smsv_scatter_gather() {
        let m = sample();
        let v = SparseVec::new(4, vec![0, 3], vec![2.0, 1.0]);
        let mut out = vec![0.0; 3];
        m.smsv(&v, &mut out);
        assert_eq!(out, vec![2.0, 0.0, 11.0]);
    }

    #[test]
    fn smsv_lanes_matches_scalar() {
        let m = sample();
        let v = SparseVec::new(4, vec![0, 1, 2, 3], vec![1.0, -1.0, 0.5, 2.0]);
        let mut scalar_out = vec![0.0; 3];
        let mut lanes_out = vec![0.0; 3];
        m.smsv(&v, &mut scalar_out);
        m.smsv_lanes::<8>(&v, &mut lanes_out);
        assert_eq!(scalar_out, lanes_out);
        m.smsv_lanes::<2>(&v, &mut lanes_out);
        assert_eq!(scalar_out, lanes_out);
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
        let back = CsrMatrix::from_triplets(&m.to_triplets());
        assert_eq!(back, m);
    }

    #[test]
    fn storage_elems_formula() {
        let m = sample();
        assert_eq!(m.storage_elems(), 2 * 5 + 3 + 1);
    }
}
