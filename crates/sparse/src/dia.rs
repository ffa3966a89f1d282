//! DIA: diagonal storage.
//!
//! One array per occupied diagonal, each padded to `M` slots. Storage is
//! `ndig * M` plus one offset per diagonal, so the format only pays off when
//! non-zeros concentrate on few diagonals (`dnnz` high). A matrix whose nnz
//! are spread across many diagonals stores almost all padding — the paper's
//! Fig. 2 sweeps `ndig` at fixed nnz and shows performance collapsing as
//! diagonals multiply.

use crate::features::{diagonal_slot, diagonal_slots};
use crate::format::{ensure_workspace, MAX_SMSV_BLOCK};
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

    /// SMSV with an explicit scatter workspace (all zeros on entry/exit).
    pub fn smsv_with(&self, v: &SparseVec, out: &mut [Scalar], workspace: &mut [Scalar]) {
        self.smsv_view_with(v.as_view(), out, workspace);
    }

    /// Borrowed-view SMSV kernel behind both [`DiaMatrix::smsv_with`] and
    /// [`MatrixFormat::smsv_view`] (workspace all zeros on entry/exit).
    pub fn smsv_view_with(
        &self,
        v: SparseVecView<'_>,
        out: &mut [Scalar],
        workspace: &mut [Scalar],
    ) {
        assert_eq!(v.dim(), self.cols, "SMSV vector dimension mismatch");
        assert_eq!(out.len(), self.rows, "SMSV output length mismatch");
        debug_assert!(workspace.iter().all(|&w| w == 0.0));
        v.scatter(workspace);
        out.fill(0.0);
        // Diagonal-major sweep. Every in-range slot of every stored diagonal
        // is touched — including padding zeros, which is exactly the waste
        // that grows with ndig.
        for (d, &off) in self.offsets.iter().enumerate() {
            let diag = &self.data[d * self.rows..(d + 1) * self.rows];
            let i_lo = if off < 0 { (-off) as usize } else { 0 };
            let i_hi = self.rows.min((self.cols as isize - off).max(0) as usize);
            for i in i_lo..i_hi {
                let j = (i as isize + off) as usize;
                out[i] += diag[i] * workspace[j];
            }
        }
        v.unscatter(workspace);
    }

    /// Diagonal-band sweep with a compile-time lane count. `CB` fixes the
    /// inner trip count so the lane loop unrolls into straight-line FMAs
    /// the autovectorizer turns into SIMD — with a runtime width the
    /// per-element slice-and-zip overhead dominates and even `CB = 1`
    /// runs several times slower than the per-vector sweep. Accumulation
    /// order per row (sorted diagonal offsets = ascending columns) is
    /// identical to [`DiaMatrix::smsv_view_with`], so results stay
    /// bit-exact.
    fn blocked_band_sweep<const CB: usize>(&self, scat: &[Scalar], acc: &mut [Scalar]) {
        for (d, &off) in self.offsets.iter().enumerate() {
            let diag = &self.data[d * self.rows..(d + 1) * self.rows];
            let i_lo = if off < 0 { (-off) as usize } else { 0 };
            let i_hi = self.rows.min((self.cols as isize - off).max(0) as usize);
            for i in i_lo..i_hi {
                let x = diag[i];
                let j = (i as isize + off) as usize;
                let lane: &[Scalar; CB] = scat[j * CB..j * CB + CB].try_into().unwrap();
                let a: &mut [Scalar; CB] = (&mut acc[i * CB..i * CB + CB]).try_into().unwrap();
                for bi in 0..CB {
                    a[bi] += x * lane[bi];
                }
            }
        }
    }

    /// Runtime-width fallback for chunk tails that are not a candidate
    /// block size. Same traversal and accumulation order as the
    /// monomorphised sweep.
    fn blocked_band_sweep_any(&self, cb: usize, scat: &[Scalar], acc: &mut [Scalar]) {
        for (d, &off) in self.offsets.iter().enumerate() {
            let diag = &self.data[d * self.rows..(d + 1) * self.rows];
            let i_lo = if off < 0 { (-off) as usize } else { 0 };
            let i_hi = self.rows.min((self.cols as isize - off).max(0) as usize);
            for i in i_lo..i_hi {
                let x = diag[i];
                let j = (i as isize + off) as usize;
                let lane = &scat[j * cb..(j + 1) * cb];
                let a = &mut acc[i * cb..(i + 1) * cb];
                for (ab, &w) in a.iter_mut().zip(lane) {
                    *ab += x * w;
                }
            }
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

    fn smsv(&self, v: &SparseVec, out: &mut [Scalar]) {
        let mut workspace = vec![0.0; self.cols];
        self.smsv_with(v, out, &mut workspace);
    }

    fn smsv_view(&self, v: SparseVecView<'_>, out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        let ws = ensure_workspace(workspace, self.cols);
        self.smsv_view_with(v, out, ws);
    }

    fn smsv_block(&self, vs: &[SparseVec], out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        assert_eq!(out.len(), self.rows * vs.len(), "smsv_block output length mismatch");
        // Diagonal-band blocked sweep: each stored diagonal's in-range band
        // is streamed once per chunk, with cb interleaved accumulators per
        // row. The scatter lane for column j = i + off advances with i, so
        // both the diagonal payload and the lane window stream contiguously
        // — the inner loop is a strided broadcast-FMA the autovectorizer
        // handles. Diagonals are visited in sorted offset order, matching
        // the per-vector kernel's per-row (ascending column) accumulation
        // order bit-for-bit.
        let mut b0 = 0;
        while b0 < vs.len() {
            let cb = (vs.len() - b0).min(MAX_SMSV_BLOCK);
            if cb == 1 {
                // A single lane degenerates to the per-vector sweep; run it
                // straight into the output chunk and skip the interleaved
                // accumulator (and its writeback) entirely.
                let ws = ensure_workspace(workspace, self.cols);
                let dst = &mut out[b0 * self.rows..(b0 + 1) * self.rows];
                self.smsv_view_with(vs[b0].as_view(), dst, ws);
                b0 += 1;
                continue;
            }
            let chunk = &vs[b0..b0 + cb];
            let ws = ensure_workspace(workspace, (self.cols + self.rows) * cb);
            debug_assert!(ws.iter().all(|&w| w == 0.0));
            let (scat, acc) = ws.split_at_mut(self.cols * cb);
            for (bi, v) in chunk.iter().enumerate() {
                assert_eq!(v.dim(), self.cols, "SMSV vector dimension mismatch");
                for (j, x) in v.iter() {
                    scat[j * cb + bi] = x;
                }
            }
            match cb {
                1 => self.blocked_band_sweep::<1>(scat, acc),
                2 => self.blocked_band_sweep::<2>(scat, acc),
                4 => self.blocked_band_sweep::<4>(scat, acc),
                8 => self.blocked_band_sweep::<8>(scat, acc),
                16 => self.blocked_band_sweep::<16>(scat, acc),
                32 => self.blocked_band_sweep::<32>(scat, acc),
                _ => self.blocked_band_sweep_any(cb, scat, acc),
            }
            for i in 0..self.rows {
                for bi in 0..cb {
                    out[(b0 + bi) * self.rows + i] = acc[i * cb + bi];
                    acc[i * cb + bi] = 0.0;
                }
            }
            for (bi, v) in chunk.iter().enumerate() {
                for &j in v.indices() {
                    scat[j * cb + bi] = 0.0;
                }
            }
            b0 += cb;
        }
    }

    fn spmv(&self, x: &[Scalar], out: &mut [Scalar]) {
        assert_eq!(x.len(), self.cols, "SpMV vector dimension mismatch");
        assert_eq!(out.len(), self.rows, "SpMV output length mismatch");
        out.fill(0.0);
        for (d, &off) in self.offsets.iter().enumerate() {
            let diag = &self.data[d * self.rows..(d + 1) * self.rows];
            let i_lo = if off < 0 { (-off) as usize } else { 0 };
            let i_hi = self.rows.min((self.cols as isize - off).max(0) as usize);
            for i in i_lo..i_hi {
                out[i] += diag[i] * x[(i as isize + off) as usize];
            }
        }
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
    fn spmv_and_norms() {
        let m = sample();
        let mut out = vec![0.0; 3];
        m.spmv(&[1.0, 1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, vec![3.0, 0.0, 12.0]);
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
