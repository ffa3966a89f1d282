//! DIA: diagonal storage.
//!
//! One array per occupied diagonal, each padded to `M` slots. Storage is
//! `ndig * M` plus one offset per diagonal, so the format only pays off when
//! non-zeros concentrate on few diagonals (`dnnz` high). A matrix whose nnz
//! are spread across many diagonals stores almost all padding — the paper's
//! Fig. 2 sweeps `ndig` at fixed nnz and shows performance collapsing as
//! diagonals multiply.

use crate::features::{diagonal_slot, diagonal_slots};
use crate::format::{add_lanes, smsv_sweep, Sweep};
use crate::{Format, MatrixFormat, RowScratch, Scalar, SparseVec, SparseVecView, TripletMatrix};

/// Diagonal-format matrix.
///
/// Diagonal `d` has offset `offsets[d] = j - i`; the element of that
/// diagonal in row `i` lives at `data[d * rows + i]` (padded with zeros
/// where `i + offset` falls outside `0..cols`).
#[derive(Debug, Clone, PartialEq)]
pub struct DiaMatrix {
    rows: usize,
    cols: usize,
    /// Sorted distinct diagonal offsets (`j - i`), in `-(M-1) ..= N-1`.
    offsets: Vec<isize>,
    /// Row-padded diagonal data, diagonal-major: `data[d * rows + i]`.
    data: Vec<Scalar>,
    nnz: usize,
}

impl DiaMatrix {
    /// Builds from the triplet interchange form.
    pub fn from_triplets(t: &TripletMatrix) -> Self {
        let t = t.compacted();
        let rows = t.rows();
        // The table the feature scan marks diagonals in, here mapping each
        // occupied diagonal to its position among the stored ones. Walking
        // it in slot order yields the offsets in ascending order.
        const EMPTY: usize = usize::MAX;
        let mut stored_as = vec![EMPTY; diagonal_slots(rows, t.cols())];
        for &(r, c, _) in t.entries() {
            stored_as[diagonal_slot(rows, r, c)] = 0;
        }
        let mut offsets = Vec::new();
        for (slot, d) in stored_as.iter_mut().enumerate() {
            if *d != EMPTY {
                *d = offsets.len();
                offsets.push(slot as isize - (rows as isize - 1));
            }
        }
        let mut data = vec![0.0; offsets.len() * rows];
        for &(r, c, v) in t.entries() {
            data[stored_as[diagonal_slot(rows, r, c)] * rows + r] = v;
        }
        Self { rows, cols: t.cols(), offsets, data, nnz: t.nnz() }
    }

    /// Number of occupied diagonals (`ndig` counts only non-empty ones).
    #[inline]
    pub fn ndiag(&self) -> usize {
        self.offsets.len()
    }

    /// The sorted diagonal offsets.
    #[inline]
    pub fn offsets(&self) -> &[isize] {
        &self.offsets
    }

    /// Average non-zeros per stored diagonal (`dnnz`).
    pub fn dnnz(&self) -> f64 {
        if self.offsets.is_empty() {
            0.0
        } else {
            self.nnz as f64 / self.offsets.len() as f64
        }
    }
}

impl MatrixFormat for DiaMatrix {
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
        Format::Dia
    }

    fn get(&self, i: usize, j: usize) -> Scalar {
        let off = j as isize - i as isize;
        match self.offsets.binary_search(&off) {
            Ok(d) => self.data[d * self.rows + i],
            Err(_) => 0.0,
        }
    }

    fn row_sparse(&self, i: usize) -> SparseVec {
        let mut pairs: Vec<(usize, Scalar)> = Vec::new();
        for (d, &off) in self.offsets.iter().enumerate() {
            let j = i as isize + off;
            if j >= 0 && (j as usize) < self.cols {
                let v = self.data[d * self.rows + i];
                if v != 0.0 {
                    pairs.push((j as usize, v));
                }
            }
        }
        pairs.sort_unstable_by_key(|p| p.0);
        SparseVec::new(
            self.cols,
            pairs.iter().map(|p| p.0).collect(),
            pairs.iter().map(|p| p.1).collect(),
        )
    }

    fn row_view_in<'a>(&'a self, i: usize, scratch: &'a mut RowScratch) -> SparseVecView<'a> {
        // Offsets are sorted ascending, so j = i + off comes out ascending
        // and the scratch needs no sort.
        scratch.clear();
        for (d, &off) in self.offsets.iter().enumerate() {
            let j = i as isize + off;
            if j >= 0 && (j as usize) < self.cols {
                let v = self.data[d * self.rows + i];
                if v != 0.0 {
                    scratch.push(j as usize, v);
                }
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
        out.fill(0.0);
        for d in 0..self.offsets.len() {
            let diag = &self.data[d * self.rows..(d + 1) * self.rows];
            for i in 0..self.rows {
                out[i] += diag[i] * diag[i];
            }
        }
    }

    fn to_triplets(&self) -> TripletMatrix {
        let mut t = TripletMatrix::with_capacity(self.rows, self.cols, self.nnz);
        for i in 0..self.rows {
            for (d, &off) in self.offsets.iter().enumerate() {
                let j = i as isize + off;
                if j >= 0 && (j as usize) < self.cols {
                    let v = self.data[d * self.rows + i];
                    if v != 0.0 {
                        t.push(i, j as usize, v);
                    }
                }
            }
        }
        t.compact()
    }

    fn storage_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<isize>()
            + self.data.len() * std::mem::size_of::<Scalar>()
    }

    fn storage_elems(&self) -> usize {
        // Data padded to M per diagonal plus the offsets array; bounded by
        // Table II's (min(M,N)+1)(M+N-1) when every diagonal is occupied.
        self.offsets.len() * self.rows + self.offsets.len()
    }
}

impl Sweep for DiaMatrix {
    /// Diagonal-major sweep. Every in-range slot of every stored diagonal
    /// is touched, padding zeros included: exactly the waste that grows
    /// with ndig. Along a diagonal the lanes of column `j = i + off`
    /// advance with `i`, so the payload, the lanes and the accumulators
    /// all stream contiguously. Diagonals are visited in ascending offset
    /// order, which is ascending column order within each row.
    fn sweep<const CB: usize>(&self, scat: &[Scalar], acc: &mut [Scalar]) {
        acc.fill(0.0);
        // Hide from the optimiser that `scat` and `acc` never overlap.
        // Knowing it, LLVM vectorises across rows and shuffles the
        // interleaved lanes apart, which measured 1.5-1.9x slower at widths
        // 4 and 8 than the per-row lane code it emits otherwise.
        let scat = std::hint::black_box(scat);
        for (d, &off) in self.offsets.iter().enumerate() {
            let diag = &self.data[d * self.rows..(d + 1) * self.rows];
            let i_lo = if off < 0 { (-off) as usize } else { 0 };
            let i_hi = self.rows.min((self.cols as isize - off).max(0) as usize);
            for i in i_lo..i_hi {
                let j = (i as isize + off) as usize;
                let a = (&mut acc[i * CB..i * CB + CB]).try_into().unwrap();
                add_lanes::<CB>(a, diag[i], scat[j * CB..j * CB + CB].try_into().unwrap());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DiaMatrix {
        // [1 0 2 0]
        // [0 0 0 0]
        // [3 4 0 5]
        let t = TripletMatrix::from_entries(
            3,
            4,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0), (2, 3, 5.0)],
        )
        .unwrap();
        DiaMatrix::from_triplets(&t)
    }

    #[test]
    fn offsets_are_distinct_sorted() {
        let m = sample();
        // offsets present: 0-0=0, 2-0=2, 0-2=-2, 1-2=-1, 3-2=1
        assert_eq!(m.offsets(), &[-2, -1, 0, 1, 2]);
        assert_eq!(m.ndiag(), 5);
        assert_eq!(m.dnnz(), 1.0);
    }

    #[test]
    fn get_via_offset_search() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 3), 5.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(0, 3), 0.0);
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
    fn row_sparse_collects_diagonal_hits() {
        let m = sample();
        let r = m.row_sparse(2);
        assert_eq!(r.indices(), &[0, 1, 3]);
        assert_eq!(r.values(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn triplet_round_trip() {
        let m = sample();
        assert_eq!(DiaMatrix::from_triplets(&m.to_triplets()), m);
    }

    #[test]
    fn tridiagonal_is_compact() {
        // 4x4 tridiagonal: 3 diagonals, storage 3*4 + 3 elems.
        let mut t = TripletMatrix::new(4, 4);
        for i in 0..4 {
            t.push(i, i, 2.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i < 3 {
                t.push(i, i + 1, -1.0);
            }
        }
        let m = DiaMatrix::from_triplets(&t.compact());
        assert_eq!(m.ndiag(), 3);
        assert_eq!(m.storage_elems(), 3 * 4 + 3);
    }

    #[test]
    fn anti_diagonal_worst_case() {
        // An anti-diagonal hits a different diagonal per element: ndig = nnz.
        let mut t = TripletMatrix::new(4, 4);
        for i in 0..4 {
            t.push(i, 3 - i, 1.0);
        }
        let m = DiaMatrix::from_triplets(&t.compact());
        assert_eq!(m.ndiag(), 4);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.storage_elems(), 4 * 4 + 4);
    }
}
