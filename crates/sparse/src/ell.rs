//! ELL: ELLPACK/ITPACK storage.
//!
//! Every row is padded to the length of the longest row (`mdim`), giving two
//! dense `M × mdim` arrays laid out column-major so that SIMD lanes stream
//! contiguous same-slot elements of consecutive rows. Excellent when row
//! lengths are uniform (`vdim ≈ 0`); pathological when one long row forces
//! `mdim ≫ adim`, since every padded slot still costs storage and a masked
//! multiply (paper Fig. 3: performance degrades as `mdim` grows at fixed
//! nnz).

use crate::format::{add_lanes, smsv_sweep, Sweep};
use crate::{Format, MatrixFormat, RowScratch, Scalar, SparseVec, SparseVecView, TripletMatrix};

/// Sentinel column index marking a padded slot.
const PAD: usize = usize::MAX;

/// ELLPACK matrix: column-major `M × mdim` index and value arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix {
    rows: usize,
    cols: usize,
    /// Width of the padded storage = max row nnz.
    width: usize,
    /// Column indices, column-major: slot `k` of row `i` is `idx[k * rows + i]`.
    /// Padded slots hold [`PAD`].
    idx: Vec<usize>,
    /// Values, column-major, zeros in padded slots.
    val: Vec<Scalar>,
    nnz: usize,
}

impl EllMatrix {
    /// Builds from the triplet interchange form.
    pub fn from_triplets(t: &TripletMatrix) -> Self {
        let t = t.compacted();
        let rows = t.rows();
        let width = t.row_runs().map(<[_]>::len).max().unwrap_or(0);
        let mut idx = vec![PAD; rows * width];
        let mut val = vec![0.0; rows * width];
        for run in t.row_runs() {
            let r = run[0].0;
            // An entry's slot is its position in its row's run.
            for (k, &(_, c, v)) in run.iter().enumerate() {
                idx[k * rows + r] = c;
                val[k * rows + r] = v;
            }
        }
        Self { rows, cols: t.cols(), width, idx, val, nnz: t.nnz() }
    }

    /// Padded row width (`mdim`).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of padded (wasted) slots: `M * mdim - nnz`.
    #[inline]
    pub fn padding(&self) -> usize {
        self.rows * self.width - self.nnz
    }

    /// Column index stored in slot `k` of row `i`, or [`usize::MAX`] if padded.
    #[inline]
    pub fn slot_col(&self, i: usize, k: usize) -> usize {
        self.idx[k * self.rows + i]
    }

    /// Value stored in slot `k` of row `i` (zero if padded).
    #[inline]
    pub fn slot_val(&self, i: usize, k: usize) -> Scalar {
        self.val[k * self.rows + i]
    }
}

impl MatrixFormat for EllMatrix {
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
        Format::Ell
    }

    fn get(&self, i: usize, j: usize) -> Scalar {
        for k in 0..self.width {
            let c = self.slot_col(i, k);
            if c == j {
                return self.slot_val(i, k);
            }
            if c == PAD {
                break;
            }
        }
        0.0
    }

    fn row_sparse(&self, i: usize) -> SparseVec {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for k in 0..self.width {
            let c = self.slot_col(i, k);
            if c == PAD {
                break;
            }
            indices.push(c);
            values.push(self.slot_val(i, k));
        }
        SparseVec::new(self.cols, indices, values)
    }

    fn row_view_in<'a>(&'a self, i: usize, scratch: &'a mut RowScratch) -> SparseVecView<'a> {
        // Slots of a row are filled in ascending-column order by
        // `from_triplets`, so the scratch is sorted without a sort.
        scratch.clear();
        for k in 0..self.width {
            let c = self.slot_col(i, k);
            if c == PAD {
                break;
            }
            scratch.push(c, self.slot_val(i, k));
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
        for k in 0..self.width {
            let val = &self.val[k * self.rows..(k + 1) * self.rows];
            for i in 0..self.rows {
                out[i] += val[i] * val[i];
            }
        }
    }

    fn to_triplets(&self) -> TripletMatrix {
        let mut t = TripletMatrix::with_capacity(self.rows, self.cols, self.nnz);
        for i in 0..self.rows {
            for k in 0..self.width {
                let c = self.slot_col(i, k);
                if c == PAD {
                    break;
                }
                t.push(i, c, self.slot_val(i, k));
            }
        }
        t
    }

    fn storage_bytes(&self) -> usize {
        self.idx.len() * std::mem::size_of::<usize>()
            + self.val.len() * std::mem::size_of::<Scalar>()
    }

    fn storage_elems(&self) -> usize {
        // Table II: two M x mdim arrays (max 2MN when a row is full).
        2 * self.rows * self.width
    }
}

impl Sweep for EllMatrix {
    /// Padded slots point at the all-zero column `cols`.
    const PAD_COLS: usize = 1;

    /// Column-major sweep: slot k of all rows before slot k+1, the memory
    /// order ELL is designed for. A padded slot runs a masked multiply
    /// (`0.0 * 0.0`, which leaves the sum's bits alone), the cost the
    /// paper attributes to large mdim; its remap is a select, not a
    /// branch, so the lane loop stays straight-line code.
    fn sweep<const CB: usize>(&self, scat: &[Scalar], acc: &mut [Scalar]) {
        acc.fill(0.0);
        let (scat, acc) = (scat.as_chunks::<CB>().0, acc.as_chunks_mut::<CB>().0);
        for k in 0..self.width {
            let idx = &self.idx[k * self.rows..(k + 1) * self.rows];
            let val = &self.val[k * self.rows..(k + 1) * self.rows];
            for ((&c, &x), a) in idx.iter().zip(val).zip(acc.iter_mut()) {
                let c = if c == PAD { self.cols } else { c };
                add_lanes(a, x, &scat[c]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EllMatrix {
        let t = TripletMatrix::from_entries(
            3,
            4,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0), (2, 3, 5.0)],
        )
        .unwrap();
        EllMatrix::from_triplets(&t)
    }

    #[test]
    fn width_is_max_row_nnz() {
        let m = sample();
        assert_eq!(m.width(), 3);
        assert_eq!(m.padding(), 9 - 5);
        assert_eq!(m.nnz(), 5);
    }

    #[test]
    fn column_major_layout() {
        let m = sample();
        // slot 0 of each row
        assert_eq!(m.slot_col(0, 0), 0);
        assert_eq!(m.slot_col(2, 0), 0);
        assert_eq!(m.slot_col(1, 0), usize::MAX);
        // row 0 has 2 slots used, third padded
        assert_eq!(m.slot_col(0, 2), usize::MAX);
        assert_eq!(m.slot_val(0, 1), 2.0);
    }

    #[test]
    fn get_handles_padding() {
        let m = sample();
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(0, 3), 0.0);
        assert_eq!(m.get(1, 0), 0.0);
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
    fn row_sparse_skips_padding() {
        let m = sample();
        let r = m.row_sparse(0);
        assert_eq!(r.indices(), &[0, 2]);
        assert_eq!(m.row_sparse(1).nnz(), 0);
    }

    #[test]
    fn triplet_round_trip() {
        let m = sample();
        assert_eq!(EllMatrix::from_triplets(&m.to_triplets()), m);
    }

    #[test]
    fn empty_matrix_has_zero_width() {
        let t = TripletMatrix::new(4, 4);
        let m = EllMatrix::from_triplets(&t);
        assert_eq!(m.width(), 0);
        assert_eq!(m.storage_elems(), 0);
        let mut out = vec![1.0; 4];
        m.smsv(&SparseVec::zeros(4), &mut out);
        assert_eq!(out, vec![0.0; 4]);
    }
}
