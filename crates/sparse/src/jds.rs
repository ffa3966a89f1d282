//! JDS: jagged diagonal storage.
//!
//! The vectorisation-friendly answer to ELL's padding and CSR's lane
//! starvation: rows are sorted by descending length, then stored
//! column-major like ELL but each "jagged diagonal" only extends over the
//! rows long enough to reach it — no padding at all, and lockstep lanes
//! always process rows of near-equal remaining length. A classic derived
//! format from the vector-machine era (SPARSKIT), directly relevant to the
//! paper's `vdim` discussion.

use crate::format::{ensure_workspace, MAX_SMSV_BLOCK};
use crate::{Format, MatrixFormat, RowScratch, Scalar, SparseVec, SparseVecView, TripletMatrix};

/// Jagged-diagonal matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct JdsMatrix {
    rows: usize,
    cols: usize,
    /// `perm[k]` = original row index of the k-th longest row.
    perm: Vec<usize>,
    /// Start offset of each jagged diagonal in `col_idx`/`values`.
    jd_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<Scalar>,
}

impl JdsMatrix {
    /// Builds from the triplet interchange form.
    pub fn from_triplets(t: &TripletMatrix) -> Self {
        let t = t.compacted();
        let rows = t.rows();
        // Row-major entry slices per row for slot access (empty rows keep
        // the empty slice).
        let mut per_row: Vec<&[_]> = vec![&[]; rows];
        for run in t.row_runs() {
            per_row[run[0].0] = run;
        }
        // Rows sorted by descending nnz (stable, so ties keep row order).
        let mut perm: Vec<usize> = (0..rows).collect();
        perm.sort_by_key(|&i| std::cmp::Reverse(per_row[i].len()));

        let max_len = perm.first().map_or(0, |&longest| per_row[longest].len());
        let mut jd_ptr = Vec::with_capacity(max_len + 1);
        let mut col_idx = Vec::with_capacity(t.nnz());
        let mut values = Vec::with_capacity(t.nnz());
        jd_ptr.push(0);
        for k in 0..max_len {
            // All rows with at least k+1 entries contribute; because perm
            // is sorted by length, they are a prefix of perm.
            for &r in &perm {
                if per_row[r].len() <= k {
                    break;
                }
                let (_, c, v) = per_row[r][k];
                col_idx.push(c);
                values.push(v);
            }
            jd_ptr.push(col_idx.len());
        }
        Self { rows, cols: t.cols(), perm, jd_ptr, col_idx, values }
    }

    /// Number of jagged diagonals (= the longest row's length).
    #[inline]
    pub fn n_jdiags(&self) -> usize {
        self.jd_ptr.len() - 1
    }

    /// The row permutation (descending row length).
    #[inline]
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Number of rows participating in jagged diagonal `k`.
    #[inline]
    pub fn jdiag_len(&self, k: usize) -> usize {
        self.jd_ptr[k + 1] - self.jd_ptr[k]
    }
}

impl MatrixFormat for JdsMatrix {
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
        Format::Jds
    }

    fn get(&self, i: usize, j: usize) -> Scalar {
        // Position of row i in the permutation.
        let p = self.perm.iter().position(|&r| r == i).expect("row in perm");
        for k in 0..self.n_jdiags() {
            if self.jdiag_len(k) <= p {
                break; // row i is shorter than k+1 entries
            }
            let pos = self.jd_ptr[k] + p;
            if self.col_idx[pos] == j {
                return self.values[pos];
            }
        }
        0.0
    }

    fn row_sparse(&self, i: usize) -> SparseVec {
        let p = self.perm.iter().position(|&r| r == i).expect("row in perm");
        let mut pairs: Vec<(usize, Scalar)> = Vec::new();
        for k in 0..self.n_jdiags() {
            if self.jdiag_len(k) <= p {
                break;
            }
            let pos = self.jd_ptr[k] + p;
            pairs.push((self.col_idx[pos], self.values[pos]));
        }
        pairs.sort_unstable_by_key(|x| x.0);
        SparseVec::new(
            self.cols,
            pairs.iter().map(|x| x.0).collect(),
            pairs.iter().map(|x| x.1).collect(),
        )
    }

    fn row_view_in<'a>(&'a self, i: usize, scratch: &'a mut RowScratch) -> SparseVecView<'a> {
        // Jagged diagonals visit a row's entries in original CSR slot
        // order, which is already ascending by column — but keep the
        // co-sort for safety with hand-built triplet orders.
        let p = self.perm.iter().position(|&r| r == i).expect("row in perm");
        scratch.clear();
        for k in 0..self.n_jdiags() {
            if self.jdiag_len(k) <= p {
                break;
            }
            let pos = self.jd_ptr[k] + p;
            scratch.push(self.col_idx[pos], self.values[pos]);
        }
        scratch.sort_pairs();
        scratch.view(self.cols)
    }

    fn smsv(&self, v: &SparseVec, out: &mut [Scalar]) {
        let mut workspace = Vec::new();
        self.smsv_view(v.as_view(), out, &mut workspace);
    }

    fn smsv_view(&self, v: SparseVecView<'_>, out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        assert_eq!(v.dim(), self.cols, "SMSV vector dimension mismatch");
        assert_eq!(out.len(), self.rows, "SMSV output length mismatch");
        // Workspace holds the dense scatter (cols) followed by the permuted
        // accumulator (rows); both regions are restored to zero on exit.
        let ws = ensure_workspace(workspace, self.cols + self.rows);
        debug_assert!(ws.iter().all(|&w| w == 0.0));
        let (dense, acc) = ws.split_at_mut(self.cols);
        v.scatter(dense);
        // Accumulate in permuted order (contiguous streams, zero padding),
        // then scatter back through the permutation.
        for k in 0..self.n_jdiags() {
            let (s, e) = (self.jd_ptr[k], self.jd_ptr[k + 1]);
            let idx = &self.col_idx[s..e];
            let val = &self.values[s..e];
            for (p, (&c, &x)) in idx.iter().zip(val).enumerate() {
                acc[p] += x * dense[c];
            }
        }
        for (p, &r) in self.perm.iter().enumerate() {
            out[r] = acc[p];
            acc[p] = 0.0;
        }
        v.unscatter(dense);
    }

    fn smsv_block(&self, vs: &[SparseVec], out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        assert_eq!(out.len(), self.rows * vs.len(), "smsv_block output length mismatch");
        // Blocked jagged-diagonal sweep: the padding-free column-major
        // streams are walked once per chunk, and each permuted position
        // keeps cb interleaved accumulators (one per right-hand side) so
        // the inner lane loop is a broadcast-multiply-add the
        // autovectorizer maps straight onto SIMD lanes. Each lane still
        // sums a row's entries in jagged-diagonal (= ascending column)
        // order, bit-identical to the per-vector kernel.
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
            let ws = ensure_workspace(workspace, (self.cols + self.rows) * cb);
            debug_assert!(ws.iter().all(|&w| w == 0.0));
            let (scat, acc) = ws.split_at_mut(self.cols * cb);
            for (bi, v) in chunk.iter().enumerate() {
                assert_eq!(v.dim(), self.cols, "SMSV vector dimension mismatch");
                for (j, x) in v.iter() {
                    scat[j * cb + bi] = x;
                }
            }
            for k in 0..self.n_jdiags() {
                let (s, e) = (self.jd_ptr[k], self.jd_ptr[k + 1]);
                let idx = &self.col_idx[s..e];
                let val = &self.values[s..e];
                for (p, (&c, &x)) in idx.iter().zip(val).enumerate() {
                    let lane = &scat[c * cb..(c + 1) * cb];
                    let a = &mut acc[p * cb..(p + 1) * cb];
                    for (ab, &w) in a.iter_mut().zip(lane) {
                        *ab += x * w;
                    }
                }
            }
            for (p, &r) in self.perm.iter().enumerate() {
                for bi in 0..cb {
                    out[(b0 + bi) * self.rows + r] = acc[p * cb + bi];
                    acc[p * cb + bi] = 0.0;
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
        let v = SparseVec::from_dense(x);
        self.smsv(&v, out);
    }

    fn row_norms_sq(&self, out: &mut [Scalar]) {
        assert_eq!(out.len(), self.rows);
        let mut acc = vec![0.0; self.rows];
        for k in 0..self.n_jdiags() {
            let (s, e) = (self.jd_ptr[k], self.jd_ptr[k + 1]);
            for (p, &v) in self.values[s..e].iter().enumerate() {
                acc[p] += v * v;
            }
        }
        for (p, &r) in self.perm.iter().enumerate() {
            out[r] = acc[p];
        }
    }

    fn to_triplets(&self) -> TripletMatrix {
        let mut t = TripletMatrix::with_capacity(self.rows, self.cols, self.nnz());
        for k in 0..self.n_jdiags() {
            let (s, e) = (self.jd_ptr[k], self.jd_ptr[k + 1]);
            for (p, (&c, &v)) in self.col_idx[s..e].iter().zip(&self.values[s..e]).enumerate() {
                t.push(self.perm[p], c, v);
            }
        }
        t.compact()
    }

    fn storage_bytes(&self) -> usize {
        (self.perm.len() + self.jd_ptr.len() + self.col_idx.len()) * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<Scalar>()
    }

    fn storage_elems(&self) -> usize {
        // nnz data + nnz indices + permutation + jd pointers: no padding.
        2 * self.nnz() + self.rows + self.jd_ptr.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows of length 3, 1, 2 — exercises the permutation.
    fn sample() -> TripletMatrix {
        TripletMatrix::from_entries(
            3,
            4,
            vec![(0, 0, 1.0), (0, 2, 2.0), (0, 3, 3.0), (1, 1, 4.0), (2, 0, 5.0), (2, 3, 6.0)],
        )
        .unwrap()
        .compact()
    }

    #[test]
    fn permutation_sorts_by_length() {
        let m = JdsMatrix::from_triplets(&sample());
        assert_eq!(m.permutation(), &[0, 2, 1]); // lengths 3, 2, 1
        assert_eq!(m.n_jdiags(), 3);
        assert_eq!(m.jdiag_len(0), 3); // all rows have >= 1 entry
        assert_eq!(m.jdiag_len(1), 2); // rows 0 and 2
        assert_eq!(m.jdiag_len(2), 1); // row 0 only
    }

    #[test]
    fn no_padding_is_stored() {
        let m = JdsMatrix::from_triplets(&sample());
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.storage_elems(), 2 * 6 + 3 + 4);
    }

    #[test]
    fn get_and_row_extraction() {
        let m = JdsMatrix::from_triplets(&sample());
        assert_eq!(m.get(0, 3), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(2, 1), 0.0);
        let r = m.row_sparse(2);
        assert_eq!(r.indices(), &[0, 3]);
        assert_eq!(r.values(), &[5.0, 6.0]);
    }

    #[test]
    fn smsv_matches_reference() {
        let t = sample();
        let m = JdsMatrix::from_triplets(&t);
        let v = SparseVec::new(4, vec![0, 3], vec![2.0, 1.0]);
        let mut out = vec![0.0; 3];
        m.smsv(&v, &mut out);
        assert_eq!(out, vec![2.0 + 3.0, 0.0, 10.0 + 6.0]);
    }

    #[test]
    fn norms_respect_permutation() {
        let m = JdsMatrix::from_triplets(&sample());
        let mut out = vec![0.0; 3];
        m.row_norms_sq(&mut out);
        assert_eq!(out, vec![1.0 + 4.0 + 9.0, 16.0, 25.0 + 36.0]);
    }

    #[test]
    fn triplet_round_trip() {
        let t = sample();
        let m = JdsMatrix::from_triplets(&t);
        assert_eq!(m.to_triplets().entries(), t.entries());
    }

    #[test]
    fn jds_stores_less_than_ell_on_skewed_rows() {
        use crate::EllMatrix;
        let mut t = TripletMatrix::new(64, 64);
        for j in 0..64 {
            t.push(0, j, 1.0);
        }
        for i in 1..64 {
            t.push(i, i, 1.0);
        }
        let t = t.compact();
        let jds = JdsMatrix::from_triplets(&t);
        let ell = EllMatrix::from_triplets(&t);
        assert!(jds.storage_elems() < ell.storage_elems() / 10);
    }
}
