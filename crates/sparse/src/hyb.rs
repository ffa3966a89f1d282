//! HYB: hybrid ELL + COO storage.
//!
//! The classic remedy to ELL's Figure-3 pathology: store each row's first
//! `k` non-zeros in an ELL slab (k chosen so most rows fit entirely) and
//! spill the tail of longer rows to a COO list. Bounded padding *and*
//! bounded irregularity — the format NVIDIA's cusp library popularised, a
//! natural member of the paper's "derived from these basic formats" family.

use crate::format::{ensure_workspace, MAX_SMSV_BLOCK};
use crate::{
    CooMatrix, EllMatrix, Format, MatrixFormat, RowScratch, Scalar, SparseVec, SparseVecView,
    TripletMatrix,
};

/// Hybrid matrix: an ELL slab of width `k` plus a COO spill list.
#[derive(Debug, Clone, PartialEq)]
pub struct HybMatrix {
    ell: EllMatrix,
    coo: CooMatrix,
    /// The slab width used for the split.
    width: usize,
}

impl HybMatrix {
    /// Builds with an automatically chosen slab width: the smallest `k`
    /// covering at least ~90% of the non-zeros in the slab (a standard
    /// heuristic — wide enough to keep the COO tail short, narrow enough
    /// to avoid ELL padding).
    pub fn from_triplets(t: &TripletMatrix) -> Self {
        let t = t.compacted();
        let width = auto_width(&t.row_counts(), 0.9);
        Self::from_triplets_with_width(&t, width)
    }

    /// Builds with an explicit slab width.
    pub fn from_triplets_with_width(t: &TripletMatrix, width: usize) -> Self {
        let t = t.compacted();
        let mut slab = TripletMatrix::with_capacity(t.rows(), t.cols(), t.nnz());
        let mut spill = TripletMatrix::new(t.rows(), t.cols());
        for run in t.row_runs() {
            // The first `width` entries of a row go to the slab; both
            // halves stay row-major, so neither constructor re-sorts.
            let (head, tail) = run.split_at(width.min(run.len()));
            head.iter().for_each(|&(r, c, v)| slab.push(r, c, v));
            tail.iter().for_each(|&(r, c, v)| spill.push(r, c, v));
        }
        Self { ell: EllMatrix::from_triplets(&slab), coo: CooMatrix::from_triplets(&spill), width }
    }

    /// The slab width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Non-zeros stored in the regular ELL slab.
    #[inline]
    pub fn slab_nnz(&self) -> usize {
        self.ell.nnz()
    }

    /// Non-zeros spilled to the COO tail.
    #[inline]
    pub fn spill_nnz(&self) -> usize {
        self.coo.nnz()
    }
}

/// Smallest width whose slab captures at least `coverage` of all nnz.
fn auto_width(counts: &[usize], coverage: f64) -> usize {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let max = counts.iter().copied().max().unwrap_or(0);
    let mut hist = vec![0usize; max + 1];
    for &c in counts {
        hist[c] += 1;
    }
    // captured(k) = Σ_rows min(count, k); grow k until coverage met.
    let mut captured = 0usize;
    let mut rows_longer = counts.len();
    for k in 1..=max {
        rows_longer -= hist[k - 1];
        captured += rows_longer;
        if captured as f64 >= coverage * total as f64 {
            return k;
        }
    }
    max
}

impl MatrixFormat for HybMatrix {
    fn rows(&self) -> usize {
        self.ell.rows()
    }

    fn cols(&self) -> usize {
        self.ell.cols()
    }

    fn nnz(&self) -> usize {
        self.ell.nnz() + self.coo.nnz()
    }

    fn format(&self) -> Format {
        Format::Hyb
    }

    fn get(&self, i: usize, j: usize) -> Scalar {
        let v = self.ell.get(i, j);
        if v != 0.0 {
            v
        } else {
            self.coo.get(i, j)
        }
    }

    fn row_sparse(&self, i: usize) -> SparseVec {
        let a = self.ell.row_sparse(i);
        let b = self.coo.row_sparse(i);
        if b.nnz() == 0 {
            return a;
        }
        let mut pairs: Vec<(usize, Scalar)> = a.iter().chain(b.iter()).collect();
        pairs.sort_unstable_by_key(|p| p.0);
        SparseVec::new(
            self.cols(),
            pairs.iter().map(|p| p.0).collect(),
            pairs.iter().map(|p| p.1).collect(),
        )
    }

    fn row_view_in<'a>(&'a self, i: usize, scratch: &'a mut RowScratch) -> SparseVecView<'a> {
        // The slab holds each row's *first* `width` entries in ascending
        // column order and the spill holds the tail, so slab columns all
        // precede spill columns: pushing slab then spill stays sorted.
        scratch.clear();
        for k in 0..self.ell.width() {
            let c = self.ell.slot_col(i, k);
            if c == usize::MAX {
                break;
            }
            scratch.push(c, self.ell.slot_val(i, k));
        }
        let range = self.coo.row_range(i);
        for k in range {
            scratch.push(self.coo.col_idx()[k], self.coo.values()[k]);
        }
        scratch.view(self.cols())
    }

    fn smsv(&self, v: &SparseVec, out: &mut [Scalar]) {
        let mut workspace = Vec::new();
        self.smsv_view(v.as_view(), out, &mut workspace);
    }

    fn smsv_view(&self, v: SparseVecView<'_>, out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        self.ell.smsv_view(v, out, workspace);
        if self.coo.nnz() > 0 {
            // Accumulate the spill straight into `out` (no tail buffer):
            // re-scatter v and run the flat COO pass additively.
            let ws = ensure_workspace(workspace, self.cols());
            v.scatter(ws);
            for k in 0..self.coo.nnz() {
                out[self.coo.row_idx()[k]] += self.coo.values()[k] * ws[self.coo.col_idx()[k]];
            }
            v.unscatter(ws);
        }
    }

    fn smsv_block(&self, vs: &[SparseVec], out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        let rows = self.rows();
        let cols = self.cols();
        assert_eq!(out.len(), rows * vs.len(), "smsv_block output length mismatch");
        // Blocked kernel with ELL+COO split reuse: one interleaved scatter
        // of the whole chunk feeds both halves, the slab's column-major
        // sweep runs once per chunk (amortising the padded-index stream
        // over cb right-hand sides), and the spill adds its tail into the
        // same interleaved accumulator — slab entries of a row precede its
        // spill entries, matching the per-vector accumulation order
        // bit-for-bit.
        let mut b0 = 0;
        while b0 < vs.len() {
            let cb = (vs.len() - b0).min(MAX_SMSV_BLOCK);
            if cb == 1 {
                // A single lane degenerates to the per-vector sweep; skip
                // the interleaved workspace and its writeback entirely.
                let dst = &mut out[b0 * rows..(b0 + 1) * rows];
                self.smsv_view(vs[b0].as_view(), dst, workspace);
                b0 += 1;
                continue;
            }
            let chunk = &vs[b0..b0 + cb];
            // Scatter region carries one extra all-zero column at index
            // `cols` for the slab sweep's branch-free PAD select.
            let ws = ensure_workspace(workspace, (cols + 1 + rows) * cb);
            debug_assert!(ws.iter().all(|&w| w == 0.0));
            let (scat, acc) = ws.split_at_mut((cols + 1) * cb);
            for (bi, v) in chunk.iter().enumerate() {
                assert_eq!(v.dim(), cols, "SMSV vector dimension mismatch");
                for (j, x) in v.iter() {
                    scat[j * cb + bi] = x;
                }
            }
            self.ell.blocked_slab_sweep(cb, scat, acc);
            for k in 0..self.coo.nnz() {
                let x = self.coo.values()[k];
                let lane = &scat[self.coo.col_idx()[k] * cb..];
                let a = &mut acc[self.coo.row_idx()[k] * cb..];
                for bi in 0..cb {
                    a[bi] += x * lane[bi];
                }
            }
            for i in 0..rows {
                for bi in 0..cb {
                    out[(b0 + bi) * rows + i] = acc[i * cb + bi];
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
        self.ell.spmv(x, out);
        if self.coo.nnz() > 0 {
            let mut tail = vec![0.0; out.len()];
            self.coo.spmv(x, &mut tail);
            for (o, t) in out.iter_mut().zip(&tail) {
                *o += t;
            }
        }
    }

    fn row_norms_sq(&self, out: &mut [Scalar]) {
        self.ell.row_norms_sq(out);
        if self.coo.nnz() > 0 {
            let mut tail = vec![0.0; out.len()];
            self.coo.row_norms_sq(&mut tail);
            for (o, t) in out.iter_mut().zip(&tail) {
                *o += t;
            }
        }
    }

    fn to_triplets(&self) -> TripletMatrix {
        let mut t = self.ell.to_triplets();
        for &(r, c, v) in self.coo.to_triplets().entries() {
            t.push(r, c, v);
        }
        t.compact()
    }

    fn storage_bytes(&self) -> usize {
        self.ell.storage_bytes() + self.coo.storage_bytes()
    }

    fn storage_elems(&self) -> usize {
        self.ell.storage_elems() + self.coo.storage_elems()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One long row (8 nnz) among short rows (1 nnz each).
    fn skewed() -> TripletMatrix {
        let mut t = TripletMatrix::new(5, 10);
        for j in 0..8 {
            t.push(0, j, (j + 1) as f64);
        }
        for i in 1..5 {
            t.push(i, i, 1.0);
        }
        t.compact()
    }

    #[test]
    fn auto_width_bounds_padding() {
        let m = HybMatrix::from_triplets(&skewed());
        // 12 nnz total: slab must capture >= 90% only when width is large,
        // but the spill path must exist for the 8-long row if width < 8.
        assert_eq!(m.slab_nnz() + m.spill_nnz(), 12);
        assert!(m.width() >= 1);
    }

    #[test]
    fn explicit_width_splits_exactly() {
        let m = HybMatrix::from_triplets_with_width(&skewed(), 2);
        assert_eq!(m.width(), 2);
        // Row 0 contributes 2 to the slab, 6 to the spill.
        assert_eq!(m.slab_nnz(), 2 + 4);
        assert_eq!(m.spill_nnz(), 6);
        // ELL padded storage is bounded by 2 slots per row.
        assert_eq!(m.storage_elems(), 2 * 5 * 2 + 3 * 6);
    }

    #[test]
    fn get_checks_both_halves() {
        let m = HybMatrix::from_triplets_with_width(&skewed(), 2);
        assert_eq!(m.get(0, 0), 1.0); // slab
        assert_eq!(m.get(0, 7), 8.0); // spill
        assert_eq!(m.get(0, 9), 0.0);
        assert_eq!(m.get(3, 3), 1.0);
    }

    #[test]
    fn smsv_sums_slab_and_spill() {
        let t = skewed();
        let m = HybMatrix::from_triplets_with_width(&t, 2);
        let v = SparseVec::new(10, (0..10).collect(), vec![1.0; 10]);
        let mut out = vec![0.0; 5];
        m.smsv(&v, &mut out);
        assert_eq!(out, vec![36.0, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn row_extraction_merges_sorted() {
        let m = HybMatrix::from_triplets_with_width(&skewed(), 3);
        let r = m.row_sparse(0);
        assert_eq!(r.indices(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(r.values()[7], 8.0);
    }

    #[test]
    fn triplet_round_trip() {
        let t = skewed();
        for width in [1, 2, 4, 8] {
            let m = HybMatrix::from_triplets_with_width(&t, width);
            assert_eq!(m.to_triplets().entries(), t.entries(), "width {width}");
        }
    }

    #[test]
    fn hyb_storage_beats_pure_ell_on_skewed_rows() {
        use crate::EllMatrix;
        let t = skewed();
        let hyb = HybMatrix::from_triplets_with_width(&t, 1);
        let ell = EllMatrix::from_triplets(&t);
        assert!(
            hyb.storage_elems() < ell.storage_elems(),
            "hyb {} vs ell {}",
            hyb.storage_elems(),
            ell.storage_elems()
        );
    }

    #[test]
    fn empty_matrix() {
        let m = HybMatrix::from_triplets(&TripletMatrix::new(3, 3));
        assert_eq!(m.nnz(), 0);
        let mut out = vec![1.0; 3];
        m.smsv(&SparseVec::zeros(3), &mut out);
        assert_eq!(out, vec![0.0; 3]);
    }
}
