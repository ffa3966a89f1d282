//! The nine influencing parameters of the data matrix (paper Table IV).
//!
//! These are the inputs to the runtime decision system in `dls-core`:
//!
//! | parameter | description                       | formula                      |
//! |-----------|-----------------------------------|------------------------------|
//! | `m`       | number of rows (samples)          | —                            |
//! | `n`       | number of columns (features)      | max feature index            |
//! | `nnz`     | number of non-zero elements       | Σ dim_i                      |
//! | `ndig`    | number of occupied diagonals      | —                            |
//! | `dnnz`    | non-zeros per diagonal            | nnz / ndig                   |
//! | `mdim`    | maximum non-zeros in a row        | max dim_i                    |
//! | `adim`    | average non-zeros in a row        | nnz / M                      |
//! | `vdim`    | variance of dim                   | Σ (dim_i − adim)² / M        |
//! | `density` | ratio of nnz to all elements      | nnz / (M·N)                  |
//!
//! # Cost
//!
//! [`MatrixFeatures::from_triplets`] measures the *compacted* matrix. On
//! compact input that is one fused pass over the borrowed entries (24 B
//! read per non-zero, nothing copied): row lengths are counted by run
//! length, occupied diagonals are marked in a table of `M + N − 1` bytes in
//! the same loop, and `vdim` is accumulated row by row as the runs close,
//! in row order, so all nine values are bit-identical to summing over a
//! materialised `dim` array. Besides the entries it touches O(M + N)
//! memory. Un-compacted input is compacted first
//! ([`TripletMatrix::compacted`]: a linear-time stable sort, see the
//! [`crate::triplet`] module docs), so duplicates count once and every
//! parameter describes the same matrix.

use crate::{MatrixFormat, TripletMatrix};

/// The influencing parameters extracted from a data matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixFeatures {
    /// Number of rows (samples), `M`.
    pub m: usize,
    /// Number of columns (features), `N`.
    pub n: usize,
    /// Number of non-zero elements.
    pub nnz: usize,
    /// Number of occupied (non-empty) diagonals.
    pub ndig: usize,
    /// Average non-zeros per occupied diagonal: `nnz / ndig`.
    pub dnnz: f64,
    /// Maximum row non-zero count, `max dim_i`.
    pub mdim: usize,
    /// Average row non-zero count, `nnz / M`.
    pub adim: f64,
    /// Population variance of the row non-zero counts.
    pub vdim: f64,
    /// `nnz / (M * N)`.
    pub density: f64,
}

/// Number of diagonals an `m × n` matrix has: the size of a table indexed
/// by [`diagonal_slot`].
pub(crate) fn diagonal_slots(m: usize, n: usize) -> usize {
    (m + n).saturating_sub(1)
}

/// Index of the diagonal through `(r, c)` in `0..diagonal_slots(m, n)`:
/// the offset `c − r` shifted to be non-negative, so ascending slots are
/// ascending offsets.
#[inline]
pub(crate) fn diagonal_slot(m: usize, r: usize, c: usize) -> usize {
    c + (m - 1) - r
}

impl MatrixFeatures {
    /// Extracts all nine parameters of the compacted matrix: one fused
    /// pass over compact input, a linear-time sort first otherwise.
    pub fn from_triplets(t: &TripletMatrix) -> Self {
        let t = t.compacted();
        let (m, n, nnz) = (t.rows(), t.cols(), t.nnz());
        let adim = if m == 0 { 0.0 } else { nnz as f64 / m as f64 };
        let sq_dev = |dim: usize| {
            let d = dim as f64 - adim;
            d * d
        };

        let mut occupied = vec![false; diagonal_slots(m, n)];
        let mut mdim = 0usize;
        // Σ (dim_i − adim)², added in row order; `next_row` is the first
        // row whose term is still missing (rows between runs are empty).
        let mut sum_sq_dev = 0.0;
        let mut next_row = 0;
        for run in t.row_runs() {
            let r = run[0].0;
            // Store-only marking; the count is one sweep of the table.
            for &(_, c, _) in run {
                occupied[diagonal_slot(m, r, c)] = true;
            }
            for _empty_row in next_row..r {
                sum_sq_dev += sq_dev(0);
            }
            sum_sq_dev += sq_dev(run.len());
            mdim = mdim.max(run.len());
            next_row = r + 1;
        }
        for _empty_row in next_row..m {
            sum_sq_dev += sq_dev(0);
        }
        let ndig = occupied.iter().filter(|&&o| o).count();

        let vdim = if m == 0 { 0.0 } else { sum_sq_dev / m as f64 };
        let dnnz = if ndig == 0 { 0.0 } else { nnz as f64 / ndig as f64 };
        let density = if m * n == 0 { 0.0 } else { nnz as f64 / (m as f64 * n as f64) };

        Self { m, n, nnz, ndig, dnnz, mdim, adim, vdim, density }
    }

    /// Extracts the parameters from any stored matrix via its triplet form.
    pub fn from_matrix<M: MatrixFormat>(matrix: &M) -> Self {
        Self::from_triplets(&matrix.to_triplets().compact())
    }

    /// Coefficient of variation of the row lengths (`sqrt(vdim) / adim`),
    /// a scale-free imbalance measure used by the decision rules.
    pub fn row_imbalance(&self) -> f64 {
        if self.adim == 0.0 {
            0.0
        } else {
            self.vdim.sqrt() / self.adim
        }
    }

    /// True when every row has the same non-zero count (`vdim == 0`), the
    /// regime where ELL stores no padding.
    pub fn is_row_uniform(&self) -> bool {
        self.vdim == 0.0
    }

    /// Fraction of ELL storage that would be padding: `1 - adim / mdim`.
    pub fn ell_padding_ratio(&self) -> f64 {
        if self.mdim == 0 {
            0.0
        } else {
            1.0 - self.adim / self.mdim as f64
        }
    }

    /// Fraction of DIA storage that would be padding: `1 - dnnz / min(M,N)`
    /// (each stored diagonal is padded to the full row count).
    pub fn dia_padding_ratio(&self) -> f64 {
        let cap = self.m.min(self.n) as f64;
        if cap == 0.0 {
            0.0
        } else {
            (1.0 - self.dnnz / cap).max(0.0)
        }
    }
}

impl std::fmt::Display for MatrixFeatures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "M={} N={} nnz={} ndig={} dnnz={:.2} mdim={} adim={:.2} vdim={:.3} density={:.3}",
            self.m,
            self.n,
            self.nnz,
            self.ndig,
            self.dnnz,
            self.mdim,
            self.adim,
            self.vdim,
            self.density
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    #[test]
    fn full_dense_matrix_features() {
        // 2x3 all ones: nnz=6, diagonals = M+N-1 = 4, mdim=adim=3, vdim=0.
        let data = vec![1.0; 6];
        let t = TripletMatrix::from_dense(2, 3, &data);
        let f = MatrixFeatures::from_triplets(&t);
        assert_eq!(f.m, 2);
        assert_eq!(f.n, 3);
        assert_eq!(f.nnz, 6);
        assert_eq!(f.ndig, 4);
        assert_eq!(f.dnnz, 1.5);
        assert_eq!(f.mdim, 3);
        assert_eq!(f.adim, 3.0);
        assert_eq!(f.vdim, 0.0);
        assert_eq!(f.density, 1.0);
        assert!(f.is_row_uniform());
        assert_eq!(f.ell_padding_ratio(), 0.0);
    }

    #[test]
    fn single_diagonal_matrix() {
        let mut t = TripletMatrix::new(4, 4);
        for i in 0..4 {
            t.push(i, i, 1.0);
        }
        let f = MatrixFeatures::from_triplets(&t.compact());
        assert_eq!(f.ndig, 1);
        assert_eq!(f.dnnz, 4.0);
        assert_eq!(f.dia_padding_ratio(), 0.0);
        assert_eq!(f.density, 0.25);
    }

    #[test]
    fn imbalanced_rows_have_high_vdim() {
        // Row 0 has 4 nnz, rows 1-3 have 0: adim=1, vdim = (9 + 3*1)/4 = 3.
        let t = TripletMatrix::from_entries(
            4,
            4,
            vec![(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)],
        )
        .unwrap()
        .compact();
        let f = MatrixFeatures::from_triplets(&t);
        assert_eq!(f.mdim, 4);
        assert_eq!(f.adim, 1.0);
        assert_eq!(f.vdim, 3.0);
        assert!(f.row_imbalance() > 1.0);
        assert_eq!(f.ell_padding_ratio(), 0.75);
    }

    #[test]
    fn from_matrix_agrees_with_from_triplets() {
        let t = TripletMatrix::from_entries(
            3,
            5,
            vec![(0, 1, 2.0), (1, 1, 3.0), (2, 4, 4.0), (2, 0, 5.0)],
        )
        .unwrap()
        .compact();
        let direct = MatrixFeatures::from_triplets(&t);
        let via_csr = MatrixFeatures::from_matrix(&CsrMatrix::from_triplets(&t));
        assert_eq!(direct, via_csr);
    }

    #[test]
    fn uncompacted_input_measures_the_compacted_matrix() {
        // Pushed out of order, (1, 0) three times and (0, 1) cancelling:
        // the raw list has a row of four entries in a 2-column matrix.
        let mut t = TripletMatrix::new(3, 2);
        for (r, c, v) in [
            (1, 0, 1.0),
            (2, 0, 1.0),
            (1, 0, 2.0),
            (0, 1, 4.0),
            (1, 1, 1.0),
            (1, 0, 3.0),
            (0, 1, -4.0),
        ] {
            t.push(r, c, v);
        }
        assert!(!t.is_compact());
        let f = MatrixFeatures::from_triplets(&t);
        assert_eq!(f, MatrixFeatures::from_triplets(&t.clone().compact()));
        assert_eq!((f.nnz, f.mdim, f.ndig), (3, 2, 3));
        assert_eq!(f.adim, 1.0);
        assert_eq!(f.vdim, 2.0 / 3.0);
    }

    #[test]
    fn empty_matrix_is_all_zero() {
        let f = MatrixFeatures::from_triplets(&TripletMatrix::new(3, 3));
        assert_eq!(f.nnz, 0);
        assert_eq!(f.ndig, 0);
        assert_eq!(f.dnnz, 0.0);
        assert_eq!(f.vdim, 0.0);
        assert_eq!(f.row_imbalance(), 0.0);
    }

    #[test]
    fn display_contains_all_fields() {
        let f = MatrixFeatures::from_triplets(&TripletMatrix::from_dense(1, 1, &[1.0]));
        let s = f.to_string();
        for key in ["M=", "N=", "nnz=", "ndig=", "dnnz=", "mdim=", "adim=", "vdim=", "density="] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
