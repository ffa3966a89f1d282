//! COO: coordinate list, sorted row-major.
//!
//! Stores `(row, col, value)` for every non-zero — 3·nnz elements, the most
//! of any sparse format for dense data (Table II max `3MN`) — but every
//! stored element is an independent unit of work, so the kernel is immune to
//! row-length imbalance (`vdim`). This is why COO overtakes CSR as `vdim`
//! grows (paper Fig. 4).

use crate::format::{add_lanes, interleave, smsv_sweep, Sweep};
use crate::{Format, MatrixFormat, RowScratch, Scalar, SparseVec, SparseVecView, TripletMatrix};

/// Coordinate-format matrix with entries sorted row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    row_idx: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<Scalar>,
}

impl CooMatrix {
    /// Builds from the triplet interchange form (compacted first; compact
    /// input is borrowed and unzipped as it is).
    pub fn from_triplets(t: &TripletMatrix) -> Self {
        let t = t.compacted();
        // One exact-size collect per array: no capacity check per element,
        // which one loop pushing to three vectors pays three times.
        let row_idx = t.entries().iter().map(|e| e.0).collect();
        let col_idx = t.entries().iter().map(|e| e.1).collect();
        let values = t.entries().iter().map(|e| e.2).collect();
        Self { rows: t.rows(), cols: t.cols(), row_idx, col_idx, values }
    }

    /// Row index array (`nnz` entries, non-decreasing).
    #[inline]
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
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

    /// Range of entry positions belonging to row `i` (binary search on the
    /// sorted row index array).
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = self.row_idx.partition_point(|&r| r < i);
        let end = self.row_idx.partition_point(|&r| r <= i);
        start..end
    }
}

impl MatrixFormat for CooMatrix {
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
        Format::Coo
    }

    fn get(&self, i: usize, j: usize) -> Scalar {
        let range = self.row_range(i);
        match self.col_idx[range.clone()].binary_search(&j) {
            Ok(pos) => self.values[range.start + pos],
            Err(_) => 0.0,
        }
    }

    fn row_sparse(&self, i: usize) -> SparseVec {
        let range = self.row_range(i);
        SparseVec::new(self.cols, self.col_idx[range.clone()].to_vec(), self.values[range].to_vec())
    }

    fn row_view_in<'a>(&'a self, i: usize, _scratch: &'a mut RowScratch) -> SparseVecView<'a> {
        // Entries are row-major sorted, so a row is a contiguous run:
        // borrow the storage directly.
        let range = self.row_range(i);
        SparseVecView::new(self.cols, &self.col_idx[range.clone()], &self.values[range])
    }

    fn smsv_view(&self, v: SparseVecView<'_>, out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        smsv_sweep(self, &[v], out, workspace);
    }

    fn smsv_block(&self, vs: &[SparseVec], out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        smsv_sweep(self, vs, out, workspace);
    }

    fn row_norms_sq(&self, out: &mut [Scalar]) {
        assert_eq!(out.len(), self.rows);
        out.fill(0.0);
        for k in 0..self.values.len() {
            out[self.row_idx[k]] += self.values[k] * self.values[k];
        }
    }

    fn to_triplets(&self) -> TripletMatrix {
        let mut t = TripletMatrix::with_capacity(self.rows, self.cols, self.nnz());
        for k in 0..self.values.len() {
            t.push(self.row_idx[k], self.col_idx[k], self.values[k]);
        }
        t
    }

    fn storage_bytes(&self) -> usize {
        2 * self.row_idx.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<Scalar>()
    }

    fn storage_elems(&self) -> usize {
        // Table II: three arrays of nnz elements each (max 3MN when dense).
        3 * self.nnz()
    }
}

impl Sweep for CooMatrix {
    const INTERLEAVE: usize = 2;

    /// One flat pass over all nnz entries: perfectly balanced work.
    /// Entries are row-major sorted, so each row is a contiguous run; a
    /// stack accumulator rides the run and is stored once at its end.
    /// Narrow widths split the pass between [`interleave`] cursors.
    fn sweep<const CB: usize>(&self, scat: &[Scalar], acc: &mut [Scalar]) {
        acc.fill(0.0);
        let (scat, acc) = (scat.as_chunks::<CB>().0, acc.as_chunks_mut::<CB>().0);
        if interleave::<Self>(CB) > 1 {
            return self.cursors::<{ <CooMatrix as Sweep>::INTERLEAVE }, CB>(scat, acc);
        }
        let mut k = 0;
        while k < self.values.len() {
            let r = self.row_idx[k];
            let mut a = [0.0; CB];
            while k < self.values.len() && self.row_idx[k] == r {
                add_lanes(&mut a, self.values[k], &scat[self.col_idx[k]]);
                k += 1;
            }
            acc[r] = a;
        }
    }
}

impl CooMatrix {
    /// `C` cursors in lockstep, cursor `c` from the first row boundary at or
    /// past entry `c · nnz / C` to where the next starts, so no row is split.
    /// A cursor stores its row's chain when the next row begins.
    #[inline(always)]
    fn cursors<const C: usize, const CB: usize>(
        &self,
        scat: &[[Scalar; CB]],
        acc: &mut [[Scalar; CB]],
    ) {
        let (rows, nnz) = (&self.row_idx, self.values.len());
        let start: [usize; C] = std::array::from_fn(|c| match c * nnz / C {
            0 => 0,
            p => rows.partition_point(|&r| r <= rows[p - 1]),
        });
        let runs: [_; C] = std::array::from_fn(|c| {
            let span = start[c]..start.get(c + 1).map_or(nnz, |&s| s);
            (&rows[span.clone()], &self.col_idx[span.clone()], &self.values[span])
        });
        let n = runs.iter().map(|run| run.0.len()).min().unwrap_or(0);
        let (mut head, mut cur) = (runs, [0; C]);
        for c in 0..C {
            let (r, j, v) = runs[c];
            (head[c], cur[c]) = ((&r[..n], &j[..n], &v[..n]), r.first().map_or(0, |&r| r));
        }
        let mut a = [[0.0; CB]; C];
        let mut fold = |c: usize, r: usize, j: usize, x: Scalar| {
            if r != cur[c] {
                acc[cur[c]] = std::mem::replace(&mut a[c], [0.0; CB]);
                cur[c] = r;
            }
            add_lanes(&mut a[c], x, &scat[j]);
        };
        for k in 0..n {
            for (c, (rows, cols, vals)) in head.iter().enumerate() {
                fold(c, rows[k], cols[k], vals[k]);
            }
        }
        for (c, (rows, cols, vals)) in runs.iter().enumerate() {
            for k in n..rows.len() {
                fold(c, rows[k], cols[k], vals[k]);
            }
        }
        for (c, run) in runs.iter().enumerate() {
            if let Some(&r) = run.0.last() {
                acc[r] = a[c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix {
        let t = TripletMatrix::from_entries(
            3,
            4,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0), (2, 3, 5.0)],
        )
        .unwrap();
        CooMatrix::from_triplets(&t)
    }

    #[test]
    fn construction_sorts_entries() {
        let t = TripletMatrix::from_entries(2, 2, vec![(1, 1, 4.0), (0, 0, 1.0)]).unwrap();
        let m = CooMatrix::from_triplets(&t);
        assert_eq!(m.row_idx(), &[0, 1]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn row_range_finds_rows() {
        let m = sample();
        assert_eq!(m.row_range(0), 0..2);
        assert_eq!(m.row_range(1), 2..2);
        assert_eq!(m.row_range(2), 2..5);
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
    fn row_sparse_extracts_row() {
        let m = sample();
        let r = m.row_sparse(2);
        assert_eq!(r.indices(), &[0, 1, 3]);
        assert_eq!(m.row_sparse(1).nnz(), 0);
    }

    #[test]
    fn triplet_round_trip() {
        let m = sample();
        assert_eq!(CooMatrix::from_triplets(&m.to_triplets()), m);
    }

    #[test]
    fn storage_elems_is_three_nnz() {
        assert_eq!(sample().storage_elems(), 15);
    }
}
