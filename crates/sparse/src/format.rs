//! The [`MatrixFormat`] trait, the [`AnyMatrix`] runtime-dispatch enum, and
//! the chunked SMSV loop every format's one kernel runs under.
//!
//! The layout scheduler picks a [`Format`] at runtime, so the solver needs a
//! single type that can hold any of the six concrete formats. Enum
//! dispatch (rather than `dyn Trait`) keeps the hot SMSV call statically
//! dispatched inside each arm.

use crate::{
    CooMatrix, CscMatrix, CsrMatrix, DenseMatrix, DiaMatrix, EllMatrix, RowScratch, Scalar,
    SparseVec, SparseVecView, TripletMatrix,
};

/// Largest number of right-hand sides a single [`MatrixFormat::smsv_block`]
/// chunk processes at once. Chosen so the per-row accumulator fits in a
/// stack array and the interleaved workspace stays cache-resident.
pub const MAX_SMSV_BLOCK: usize = 32;

/// Identifier for each storage format studied by the paper (plus CSC, the
/// one derived format of §III-A that passed the admission measurement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Format {
    /// Dense row-major storage.
    Den,
    /// Compressed Sparse Row.
    Csr,
    /// Coordinate list, row-major sorted.
    Coo,
    /// ELLPACK/ITPACK: rows padded to the longest row, column-major.
    Ell,
    /// Diagonal storage.
    Dia,
    /// Compressed Sparse Column (derived from CSR, §III-A).
    Csc,
}

impl Format {
    /// The five basic formats of the paper, in Table II/III column order.
    pub const BASIC: [Format; 5] =
        [Format::Ell, Format::Csr, Format::Coo, Format::Den, Format::Dia];

    /// All implemented formats: the basic five plus CSC.
    pub const ALL: [Format; 6] =
        [Format::Ell, Format::Csr, Format::Coo, Format::Den, Format::Dia, Format::Csc];

    /// Short upper-case name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Format::Den => "DEN",
            Format::Csr => "CSR",
            Format::Coo => "COO",
            Format::Ell => "ELL",
            Format::Dia => "DIA",
            Format::Csc => "CSC",
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "DEN" | "DENSE" => Ok(Format::Den),
            "CSR" => Ok(Format::Csr),
            "COO" => Ok(Format::Coo),
            "ELL" | "ELLPACK" => Ok(Format::Ell),
            "DIA" | "DIAG" => Ok(Format::Dia),
            "CSC" => Ok(Format::Csc),
            other => Err(format!("unknown format: {other}")),
        }
    }
}

/// Common interface over every storage format.
///
/// The central method is [`MatrixFormat::smsv`], the sparse-matrix ×
/// sparse-vector product `out[i] = X_i · v` that the SMO algorithm performs
/// twice per iteration (once for `X_high`, once for `X_low`).
pub trait MatrixFormat {
    /// Number of rows (`M` = number of samples).
    fn rows(&self) -> usize;

    /// Number of columns (`N` = number of features).
    fn cols(&self) -> usize;

    /// Number of stored non-zero elements.
    fn nnz(&self) -> usize;

    /// Which format this is.
    fn format(&self) -> Format;

    /// Value at `(i, j)`; zero when not stored. O(log nnz_row) or better.
    fn get(&self, i: usize, j: usize) -> Scalar;

    /// Extracts row `i` as a sparse vector.
    fn row_sparse(&self, i: usize) -> SparseVec;

    /// Borrows row `i` as a [`SparseVecView`] without allocating.
    ///
    /// Row-contiguous formats (CSR, COO) return slices of their own
    /// storage and leave `scratch` untouched; every other format fills
    /// `scratch` (whose capacity persists across calls) and returns a view
    /// over it.
    fn row_view_in<'a>(&'a self, i: usize, scratch: &'a mut RowScratch) -> SparseVecView<'a>;

    /// Sparse-matrix × sparse-vector: `out[i] = X_i · v` for every row,
    /// through a fresh workspace ([`MatrixFormat::smsv_view`] reuses one).
    ///
    /// # Panics
    /// Panics if `v.dim() != self.cols()` or `out.len() != self.rows()`.
    fn smsv(&self, v: &SparseVec, out: &mut [Scalar]) {
        self.smsv_view(v.as_view(), out, &mut Vec::new());
    }

    /// Zero-allocation SMSV over a borrowed right-hand side.
    ///
    /// `workspace` is a reusable buffer: formats that need a dense scatter
    /// resize it to (at least) `cols()` and restore every slot they touch
    /// to zero on exit, so one buffer can be shared across calls, formats
    /// and [`MatrixFormat::smsv_block`]. Callers must hand in a buffer
    /// whose contents are all zero (a fresh `Vec` qualifies); in steady
    /// state the capacity is stable and no allocation happens.
    ///
    /// Operands must be finite: DEN and DIA multiply stored zeros by every
    /// scattered slot, so a NaN or infinity would make the answer depend
    /// on the layout.
    fn smsv_view(&self, v: SparseVecView<'_>, out: &mut [Scalar], workspace: &mut Vec<Scalar>);

    /// Multi-vector SMSV: computes `vs.len()` products in one call, with
    /// `out` laid out vector-major (`out[b * rows .. (b + 1) * rows]` is
    /// the product for `vs[b]`).
    ///
    /// Every format traverses the matrix once per chunk of up to
    /// [`MAX_SMSV_BLOCK`] right-hand sides (CSC merges the lanes' column
    /// lists, so a column shared by several right-hand sides is streamed
    /// once), with results bit-identical to one [`MatrixFormat::smsv_view`]
    /// call per vector. `workspace` follows the
    /// [`MatrixFormat::smsv_view`] contract.
    ///
    /// # Panics
    /// Panics if any `vs[b].dim() != self.cols()` or
    /// `out.len() != self.rows() * vs.len()`.
    fn smsv_block(&self, vs: &[SparseVec], out: &mut [Scalar], workspace: &mut Vec<Scalar>);

    /// Fills `out[i] = ||X_i||^2` (needed by the Gaussian kernel).
    fn row_norms_sq(&self, out: &mut [Scalar]);

    /// Lowers the matrix to the triplet interchange form.
    fn to_triplets(&self) -> TripletMatrix;

    /// Bytes of heap storage actually used by this representation.
    fn storage_bytes(&self) -> usize;

    /// Number of stored *elements* (including padding), the unit Table II
    /// counts in.
    fn storage_elems(&self) -> usize;
}

/// A right-hand side [`smsv_sweep`] reads: an owned [`SparseVec`]
/// (`smsv_block`) or a borrowed view (`smsv_view`).
pub(crate) trait Rhs {
    fn view(&self) -> SparseVecView<'_>;
}

impl Rhs for SparseVec {
    #[inline]
    fn view(&self) -> SparseVecView<'_> {
        self.as_view()
    }
}

impl Rhs for SparseVecView<'_> {
    #[inline]
    fn view(&self) -> SparseVecView<'_> {
        *self
    }
}

/// A row format's one SMSV kernel, generic over the lane width `CB`: the
/// number of right-hand sides a single pass over the matrix serves.
/// [`smsv_sweep`] runs it at width 1 for `smsv_view` and at each chunk's
/// width for `smsv_block`.
pub(crate) trait Sweep: MatrixFormat {
    /// All-zero scatter columns past `cols()` that the sweep reads (ELL
    /// points its padded slots at one).
    const PAD_COLS: usize = 0;

    /// Rows (COO: cursors) a narrow sweep folds side by side ([`interleave`]).
    const INTERLEAVE: usize = 1;

    /// Writes `acc[i * CB + b] = X_i · v_b` for every row `i`, where lane
    /// `b` of column `j` is `scat[j * CB + b]`. `acc` may hold anything on
    /// entry. Each lane folds its row from +0.0 in ascending column order,
    /// so every width yields the same bits.
    fn sweep<const CB: usize>(&self, scat: &[Scalar], acc: &mut [Scalar]);

    /// Serves a chunk without the scatter when the format has a cheaper
    /// path for these right-hand sides (DEN's sparse gather); `false`
    /// leaves the chunk to [`Sweep::sweep`].
    fn gather<V: Rhs>(&self, _chunk: &[V], _out: &mut [Scalar]) -> bool {
        false
    }
}

/// `a[b] += x * w[b]` across the lanes: one multiply and one add per lane,
/// never fused, so the result matches a scalar loop bit for bit.
#[inline(always)]
pub(crate) fn add_lanes<const CB: usize>(a: &mut [Scalar; CB], x: Scalar, w: &[Scalar; CB]) {
    for b in 0..CB {
        a[b] += x * w[b];
    }
}

/// The one interleave rule: how many rows a sweep of width `cb` over `M`
/// folds side by side. Each lane chain waits a full add latency per stored
/// entry, so at narrow widths a sweep steps over [`Sweep::INTERLEAVE`]
/// independent rows at once ([`fold_rows`]; COO runs as many cursors)
/// while their accumulators fit [`ACCUMULATORS`]. Every row keeps its own
/// chains and folds from +0.0 in ascending column order, so only the
/// schedule of the adds changes, never the bits.
pub(crate) const fn interleave<M: Sweep>(cb: usize) -> usize {
    match M::INTERLEAVE * cb {
        0..=ACCUMULATORS => M::INTERLEAVE,
        _ => 1,
    }
}

/// Accumulator lanes an interleaved step may hold (measured, DESIGN.md §kernels).
const ACCUMULATORS: usize = 16;

/// `out[i * CB + b] = X_i · (lanes)[b]` for every row of `M`, [`interleave`]
/// rows per step: `row(i)` is row `i`'s stored entries in ascending column
/// order, one key per value, and `lanes(i, key)` the lanes a value
/// multiplies. A group steps over its rows' common prefix, cut to one
/// length so that no step checks a bound, then finishes each row alone.
#[inline(always)]
pub(crate) fn fold_rows<'m, 'w, M: Sweep, K: 'm, const CB: usize>(
    out: &mut [Scalar],
    row: impl Fn(usize) -> (&'m [K], &'m [Scalar]),
    lanes: impl Fn(usize, &'m K) -> &'w [Scalar; CB],
) {
    let out = out.as_chunks_mut::<CB>().0;
    match interleave::<M>(CB) {
        4 => fold_groups::<4, K, CB>(out, 0, &row, &lanes),
        2 => fold_groups::<2, K, CB>(out, 0, &row, &lanes),
        _ => fold_groups::<1, K, CB>(out, 0, &row, &lanes),
    }
}

#[inline(always)]
fn fold_groups<'m, 'w, const R: usize, K: 'm, const CB: usize>(
    out: &mut [[Scalar; CB]],
    first: usize,
    row: &impl Fn(usize) -> (&'m [K], &'m [Scalar]),
    lanes: &impl Fn(usize, &'m K) -> &'w [Scalar; CB],
) {
    let (groups, rest) = out.as_chunks_mut::<R>();
    for (g, out) in groups.iter_mut().enumerate() {
        let i = first + g * R;
        let mut rows: [(&[K], &[Scalar]); R] = [(&[], &[]); R];
        for (r, slot) in rows.iter_mut().enumerate() {
            *slot = row(i + r);
        }
        let n = rows.iter().map(|(k, x)| k.len().min(x.len())).min().unwrap_or(0);
        let mut head = rows;
        for (h, (k, x)) in head.iter_mut().zip(rows) {
            *h = (&k[..n], &x[..n]);
        }
        let mut a = [[0.0; CB]; R];
        for j in 0..n {
            for r in 0..R {
                add_lanes(&mut a[r], head[r].1[j], lanes(i + r, &head[r].0[j]));
            }
        }
        for (r, (keys, xs)) in rows.iter().enumerate() {
            for (key, &x) in keys[n..].iter().zip(&xs[n..]) {
                add_lanes(&mut a[r], x, lanes(i + r, key));
            }
        }
        *out = a;
    }
    if R > 1 {
        fold_groups::<1, K, CB>(rest, first + groups.len() * R, row, lanes);
    }
}

/// Checks every dimension once, then hands `f` each chunk of at most
/// [`MAX_SMSV_BLOCK`] right-hand sides with that chunk's vector-major
/// slice of `out`.
pub(crate) fn for_each_chunk<V: Rhs>(
    rows: usize,
    cols: usize,
    vs: &[V],
    out: &mut [Scalar],
    mut f: impl FnMut(&[V], &mut [Scalar]),
) {
    assert_eq!(out.len(), rows * vs.len(), "SMSV output length mismatch");
    for v in vs {
        assert_eq!(v.view().dim(), cols, "SMSV vector dimension mismatch");
    }
    for (k, chunk) in vs.chunks(MAX_SMSV_BLOCK).enumerate() {
        let start = k * MAX_SMSV_BLOCK * rows;
        f(chunk, &mut out[start..start + chunk.len() * rows]);
    }
}

/// The SMSV loop behind `smsv_view` (one right-hand side) and
/// `smsv_block` of every [`Sweep`] format. Per chunk it scatters the
/// right-hand sides interleaved (`scat[j * cb + b]`, plus the format's
/// all-zero pad columns) into `workspace`, runs the sweep instance for the
/// chunk's exact width into an interleaved accumulator, writes that back
/// vector-major, and restores every touched slot to zero. At width 1 the
/// accumulator is `out` itself and there is nothing to write back.
pub(crate) fn smsv_sweep<M: Sweep, V: Rhs>(
    m: &M,
    vs: &[V],
    out: &mut [Scalar],
    workspace: &mut Vec<Scalar>,
) {
    let (rows, cols) = (m.rows(), m.cols());
    for_each_chunk(rows, cols, vs, out, |chunk, out| {
        if m.gather(chunk, out) {
            return;
        }
        let cb = chunk.len();
        let scat_len = (cols + M::PAD_COLS) * cb;
        let acc_len = if cb == 1 { 0 } else { rows * cb };
        if workspace.len() < scat_len + acc_len {
            workspace.resize(scat_len + acc_len, 0.0);
        }
        let ws = &mut workspace[..scat_len + acc_len];
        debug_assert!(ws.iter().all(|&w| w == 0.0));
        let (scat, acc) = ws.split_at_mut(scat_len);
        for (b, v) in chunk.iter().enumerate() {
            for (j, x) in v.view().iter() {
                scat[j * cb + b] = x;
            }
        }
        if cb == 1 {
            sweep_at(m, 1, scat, out);
        } else {
            sweep_at(m, cb, scat, acc);
            for i in 0..rows {
                for b in 0..cb {
                    out[b * rows + i] = acc[i * cb + b];
                    acc[i * cb + b] = 0.0;
                }
            }
        }
        for (b, v) in chunk.iter().enumerate() {
            for &j in v.view().indices() {
                scat[j * cb + b] = 0.0;
            }
        }
    });
}

/// Runs `m`'s sweep instance for a chunk of `cb` lanes. Every width up to
/// [`MAX_SMSV_BLOCK`] has its own instance, so no lane loop runs at a
/// runtime width, where a block of two would cost more per product than
/// a single vector. Kept out of line so both callers of a format's
/// [`smsv_sweep`] (`smsv_view` and `smsv_block`) share one copy of its 32
/// instances.
#[inline(never)]
fn sweep_at<M: Sweep>(m: &M, cb: usize, scat: &[Scalar], acc: &mut [Scalar]) {
    const _: () = assert!(MAX_SMSV_BLOCK == 32, "instantiate every width below");
    macro_rules! widths {
        ($($w:literal)+) => {
            match cb {
                $($w => m.sweep::<$w>(scat, acc),)+
                _ => unreachable!("chunk width {cb} outside 1..={MAX_SMSV_BLOCK}"),
            }
        };
    }
    widths!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
}

/// A matrix in any of the supported formats, produced by the runtime
/// scheduler. Dispatch is by `match`, so each arm keeps its statically
/// compiled kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyMatrix {
    /// Dense storage.
    Den(DenseMatrix),
    /// Compressed sparse row.
    Csr(CsrMatrix),
    /// Coordinate list.
    Coo(CooMatrix),
    /// ELLPACK.
    Ell(EllMatrix),
    /// Diagonal.
    Dia(DiaMatrix),
    /// Compressed sparse column.
    Csc(CscMatrix),
}

macro_rules! dispatch {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            AnyMatrix::Den($m) => $body,
            AnyMatrix::Csr($m) => $body,
            AnyMatrix::Coo($m) => $body,
            AnyMatrix::Ell($m) => $body,
            AnyMatrix::Dia($m) => $body,
            AnyMatrix::Csc($m) => $body,
        }
    };
}

impl AnyMatrix {
    /// Builds a matrix in the requested format from triplets.
    pub fn from_triplets(format: Format, t: &TripletMatrix) -> Self {
        match format {
            Format::Den => AnyMatrix::Den(DenseMatrix::from_triplets(t)),
            Format::Csr => AnyMatrix::Csr(CsrMatrix::from_triplets(t)),
            Format::Coo => AnyMatrix::Coo(CooMatrix::from_triplets(t)),
            Format::Ell => AnyMatrix::Ell(EllMatrix::from_triplets(t)),
            Format::Dia => AnyMatrix::Dia(DiaMatrix::from_triplets(t)),
            Format::Csc => AnyMatrix::Csc(CscMatrix::from_triplets(t)),
        }
    }

    /// Re-encodes this matrix in another format.
    pub fn convert(&self, format: Format) -> Self {
        Self::from_triplets(format, &self.to_triplets())
    }
}

impl MatrixFormat for AnyMatrix {
    fn rows(&self) -> usize {
        dispatch!(self, m => m.rows())
    }

    fn cols(&self) -> usize {
        dispatch!(self, m => m.cols())
    }

    fn nnz(&self) -> usize {
        dispatch!(self, m => m.nnz())
    }

    fn format(&self) -> Format {
        dispatch!(self, m => m.format())
    }

    fn get(&self, i: usize, j: usize) -> Scalar {
        dispatch!(self, m => m.get(i, j))
    }

    fn row_sparse(&self, i: usize) -> SparseVec {
        dispatch!(self, m => m.row_sparse(i))
    }

    fn row_view_in<'a>(&'a self, i: usize, scratch: &'a mut RowScratch) -> SparseVecView<'a> {
        dispatch!(self, m => m.row_view_in(i, scratch))
    }

    fn smsv_view(&self, v: SparseVecView<'_>, out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        dispatch!(self, m => m.smsv_view(v, out, workspace))
    }

    fn smsv_block(&self, vs: &[SparseVec], out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        dispatch!(self, m => m.smsv_block(vs, out, workspace))
    }

    fn row_norms_sq(&self, out: &mut [Scalar]) {
        dispatch!(self, m => m.row_norms_sq(out))
    }

    fn to_triplets(&self) -> TripletMatrix {
        dispatch!(self, m => m.to_triplets())
    }

    fn storage_bytes(&self) -> usize {
        dispatch!(self, m => m.storage_bytes())
    }

    fn storage_elems(&self) -> usize {
        dispatch!(self, m => m.storage_elems())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_names_round_trip() {
        for f in Format::ALL {
            let parsed: Format = f.name().parse().unwrap();
            assert_eq!(parsed, f);
        }
        assert!("XYZ".parse::<Format>().is_err());
        assert_eq!("dense".parse::<Format>().unwrap(), Format::Den);
    }

    #[test]
    fn basic_formats_match_paper_tables() {
        assert_eq!(
            Format::BASIC,
            [Format::Ell, Format::Csr, Format::Coo, Format::Den, Format::Dia]
        );
    }

    #[test]
    fn any_matrix_builds_every_format() {
        let t = TripletMatrix::from_entries(3, 3, vec![(0, 0, 1.0), (1, 2, 2.0), (2, 1, 3.0)])
            .unwrap()
            .compact();
        for f in Format::ALL {
            let m = AnyMatrix::from_triplets(f, &t);
            assert_eq!(m.format(), f, "format tag for {f}");
            assert_eq!(m.rows(), 3);
            assert_eq!(m.cols(), 3);
            assert_eq!(m.get(1, 2), 2.0, "get through {f}");
            assert_eq!(m.to_triplets().compact().entries(), t.entries());
        }
    }

    #[test]
    fn convert_between_formats_preserves_content() {
        let t =
            TripletMatrix::from_entries(2, 4, vec![(0, 3, 5.0), (1, 0, -1.0)]).unwrap().compact();
        let csr = AnyMatrix::from_triplets(Format::Csr, &t);
        let dia = csr.convert(Format::Dia);
        assert_eq!(dia.format(), Format::Dia);
        assert_eq!(dia.to_triplets().compact().entries(), t.entries());
    }
}
