//! Coordinate-list builder used as the interchange representation.
//!
//! All format constructors accept a [`TripletMatrix`], and every format can
//! lower itself back to one, so conversion between any two formats is
//! `A -> triplets -> B`.
//!
//! # Compactness, and what it costs
//!
//! A matrix is *compact* when its entries are strictly ascending in
//! `(row, col)`: sorted row-major, no duplicates. The matrix carries that
//! as a flag which every way of building or changing it keeps up to date
//! (`push` compares with the last entry, `from_entries` checks inside its
//! bounds loop, `from_dense` and `compact` produce it, `transpose`
//! re-derives it while flipping), so [`TripletMatrix::is_compact`] is O(1)
//! and no consumer scans for it. Entries are 24 bytes (`usize`, `usize`,
//! `f64`).
//!
//! * **Compact input** is borrowed as it is by
//!   [`TripletMatrix::compacted`], [`crate::MatrixFeatures::from_triplets`]
//!   and every `from_triplets`: no copy, no sort. One scheduling call then
//!   streams the entries twice — the scan that measures (24 B read per
//!   non-zero) and the build (24 B read per non-zero, plus the layout's own
//!   writes). Two layouts look again before they can size their arrays: ELL
//!   at the row lengths, DIA at the occupied diagonals; CSR and COO read
//!   the list once per array they fill, which is faster than one loop
//!   pushing to three vectors.
//! * **Un-compacted input** is sorted by a stable two-pass LSD counting
//!   sort, by column and then by row, in O(nnz + M + N). What the two
//!   scatters move is each entry's row and position (8 B, then 4 B), not
//!   the entry: one pass fills both histograms (24 B read per entry), one
//!   scatters by column (24 B read, 8 B written), one by row (8 B read, 4 B
//!   written), one gathers the entries in their final order (28 B read,
//!   24 B written) and one sums duplicates and drops zeros in place (24 B
//!   read, written only from the first merge on). About 144 B moved per
//!   entry, 12 B of it scattered, where a comparison sort moves every 24 B
//!   entry `log2 nnz` times. It allocates one entry list (the result) and
//!   half of one (the index arrays) besides the histograms.
//! * **Duplicates are summed in insertion order.** Both scatters are
//!   stable, so entries sharing a coordinate meet in the order they were
//!   pushed and `1e16, 1.0, -1e16` at one coordinate sums to `0.0` (and is
//!   dropped), never to `1.0`. Entries whose sum compares equal to zero
//!   (`0.0`, `-0.0`, cancellation) are dropped; NaN and infinite sums stay.
//! * **The fallback.** When `M + N` exceeds eight times the entry count
//!   (a handful of entries in a huge, hypersparse shape) the two histograms
//!   would outsize the data several times over, so the entries are sorted
//!   by a stable comparison sort instead — same order, same sums, bit for
//!   bit. (So is a list with 2³² entries or rows, which the 32-bit index
//!   arrays cannot address.) The choice is made from `rows`, `cols` and
//!   `nnz`; there is no knob.

use crate::{Scalar, SparseError, SparseVec};
use std::borrow::Cow;

type Entry = (usize, usize, Scalar);

/// A list of `(row, col, value)` entries with an explicit shape, in any
/// order and possibly with duplicates; it knows whether it is compact.
#[derive(Debug, Clone, PartialEq)]
pub struct TripletMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<Entry>,
    /// Entries are strictly ascending in `(row, col)`. A function of
    /// `entries`, so the derived `PartialEq` stays an equality of content.
    sorted: bool,
}

impl Default for TripletMatrix {
    fn default() -> Self {
        Self::new(0, 0)
    }
}

/// Whether `next` may follow `prev` in a compact list.
#[inline]
fn ascends(prev: &Entry, next: &Entry) -> bool {
    (prev.0, prev.1) < (next.0, next.1)
}

impl TripletMatrix {
    /// Creates an empty builder for a `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::with_capacity(rows, cols, 0)
    }

    /// Creates a builder with pre-allocated capacity for `cap` entries.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        Self { rows, cols, entries: Vec::with_capacity(cap), sorted: true }
    }

    /// Builds directly from a list of entries, validating bounds.
    pub fn from_entries(
        rows: usize,
        cols: usize,
        entries: Vec<Entry>,
    ) -> Result<Self, SparseError> {
        let mut sorted = true;
        let mut prev = None;
        for e in &entries {
            let &(r, c, _) = e;
            if r >= rows || c >= cols {
                return Err(SparseError::IndexOutOfBounds { row: r, col: c, rows, cols });
            }
            sorted &= prev.is_none_or(|p| ascends(p, e));
            prev = Some(e);
        }
        Ok(Self { rows, cols, entries, sorted })
    }

    /// Builds from a dense row-major buffer, keeping non-zeros.
    pub fn from_dense(rows: usize, cols: usize, data: &[Scalar]) -> Self {
        assert_eq!(data.len(), rows * cols);
        let mut t = Self::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = data[r * cols + c];
                if v != 0.0 {
                    t.entries.push((r, c, v));
                }
            }
        }
        t
    }

    /// Appends one entry. Duplicates are allowed; they are summed by
    /// [`TripletMatrix::compact`].
    ///
    /// # Panics
    /// Panics if the entry is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: Scalar) {
        assert!(
            row < self.rows && col < self.cols,
            "entry ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        let entry = (row, col, value);
        self.sorted &= self.entries.last().is_none_or(|last| ascends(last, &entry));
        self.entries.push(entry);
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (before deduplication this may exceed the
    /// logical nnz).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The raw entries in insertion order.
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Sorts entries in row-major order, sums duplicates in insertion
    /// order, and drops entries that are or sum to zero. Returns `self` for
    /// chaining. Linear in `nnz + rows + cols` (see the module docs); a
    /// matrix that is already compact only has its explicit zeros dropped,
    /// in place.
    pub fn compact(mut self) -> Self {
        if !self.sorted {
            return self.compacted().into_owned();
        }
        self.entries.retain(|e| e.2 != 0.0);
        self
    }

    /// This matrix if it is compact already (borrowed, explicit zeros and
    /// all), otherwise a compacted copy sorted straight out of the borrowed
    /// entries. The one place consumers of `&TripletMatrix` — the scheduler,
    /// the feature scan, every `from_triplets` — get sorted input from.
    pub fn compacted(&self) -> Cow<'_, Self> {
        if self.is_compact() {
            Cow::Borrowed(self)
        } else {
            let entries = sort_and_sum(self.rows, self.cols, &self.entries);
            Cow::Owned(Self { rows: self.rows, cols: self.cols, entries, sorted: true })
        }
    }

    /// True if entries are sorted row-major with no duplicates. O(1): the
    /// answer is kept up to date by every constructor and mutator.
    #[inline]
    pub fn is_compact(&self) -> bool {
        debug_assert_eq!(
            self.sorted,
            self.entries.windows(2).all(|w| ascends(&w[0], &w[1])),
            "compactness flag out of date"
        );
        self.sorted
    }

    /// The entries of a compact matrix, one slice per non-empty row, in
    /// row order.
    pub(crate) fn row_runs(&self) -> impl Iterator<Item = &[Entry]> {
        debug_assert!(self.is_compact(), "row runs need row-major entries");
        self.entries.chunk_by(|a, b| a.0 == b.0)
    }

    /// Per-row non-zero counts (`dim_i` in the paper's notation).
    pub fn row_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.rows];
        for &(r, _, _) in &self.entries {
            counts[r] += 1;
        }
        counts
    }

    /// Extracts row `i` as a sparse vector of dimension `cols`: two binary
    /// searches on a compact matrix, a scan of every entry otherwise.
    ///
    /// # Panics
    /// Panics if the row's entries are not strictly ascending in column,
    /// which only an un-compacted matrix can cause.
    pub fn row_sparse(&self, i: usize) -> SparseVec {
        // Where row `i` can be: its run in a compact list, anywhere otherwise.
        let candidates = if self.is_compact() {
            let start = self.entries.partition_point(|e| e.0 < i);
            let len = self.entries[start..].partition_point(|e| e.0 == i);
            &self.entries[start..start + len]
        } else {
            &self.entries[..]
        };
        let (idx, val) = candidates.iter().filter(|e| e.0 == i).map(|&(_, c, v)| (c, v)).unzip();
        SparseVec::new(self.cols, idx, val)
    }

    /// Materialises the matrix densely (row-major). Intended for tests and
    /// small matrices.
    pub fn to_dense(&self) -> Vec<Scalar> {
        let mut out = vec![0.0; self.rows * self.cols];
        for &(r, c, v) in &self.entries {
            out[r * self.cols + c] += v;
        }
        out
    }

    /// The transposed triplet list (shape swapped, entries flipped).
    pub fn transpose(&self) -> Self {
        let mut out = Self::with_capacity(self.cols, self.rows, self.entries.len());
        for &(r, c, v) in &self.entries {
            out.push(c, r, v);
        }
        out
    }
}

/// `M + N` beyond this multiple of the entry count sends
/// [`sort_and_sum`] to the comparison sort: the two histograms (one word
/// per row and per column) would be several times the three-word entries.
const HISTOGRAM_WORDS_PER_ENTRY: usize = 8;

/// Entries stably sorted by `(row, col)`, duplicates summed in the order
/// they came, zero sums dropped.
fn sort_and_sum(rows: usize, cols: usize, entries: &[Entry]) -> Vec<Entry> {
    let histograms_outsize_data =
        rows.saturating_add(cols) / HISTOGRAM_WORDS_PER_ENTRY > entries.len();
    // The counting sort moves 32-bit rows and positions, not entries.
    let fits_u32 = u32::try_from(rows).is_ok() && u32::try_from(entries.len()).is_ok();
    let mut sorted = if histograms_outsize_data || !fits_u32 {
        let mut entries = entries.to_vec();
        entries.sort_by_key(|&(r, c, _)| (r, c));
        entries
    } else {
        counting_sort(rows, cols, entries)
    };
    sum_runs(&mut sorted);
    sorted
}

/// Stable LSD counting sort, by column and then by row, of the entries'
/// positions; the 24-byte entries themselves move once, in the final
/// gather. The scatters write 8 and 4 bytes per entry into arrays a third
/// and a sixth of the entry list, which stay cache-resident where
/// scattered entries would not.
fn counting_sort(rows: usize, cols: usize, entries: &[Entry]) -> Vec<Entry> {
    // Bucket starts, shifted by one: after the prefix sum `next[k]` is
    // where the next item with key `k` goes.
    let mut row_next = vec![0usize; rows + 1];
    let mut col_next = vec![0usize; cols + 1];
    for &(r, c, _) in entries {
        row_next[r + 1] += 1;
        col_next[c + 1] += 1;
    }
    for next in [&mut row_next, &mut col_next] {
        for k in 1..next.len() {
            next[k] += next[k - 1];
        }
    }
    // `as u32` is lossless: the caller checked `rows` and the length.
    let mut by_col = vec![(0u32, 0u32); entries.len()];
    for (at, &(r, c, _)) in entries.iter().enumerate() {
        by_col[col_next[c]] = (r as u32, at as u32);
        col_next[c] += 1;
    }
    let mut order = vec![0u32; entries.len()];
    for &(r, at) in &by_col {
        order[row_next[r as usize]] = at;
        row_next[r as usize] += 1;
    }
    order.iter().map(|&at| entries[at as usize]).collect()
}

/// Collapses each run of equal coordinates in sorted `entries` to one entry
/// holding the left-to-right sum, and drops the runs that sum to zero.
fn sum_runs(entries: &mut Vec<Entry>) {
    let mut kept = 0;
    for i in 0..entries.len() {
        let e = entries[i];
        if kept > 0 && (entries[kept - 1].0, entries[kept - 1].1) == (e.0, e.1) {
            entries[kept - 1].2 += e.2;
            continue;
        }
        // The previous run is complete: keep its slot only if it is non-zero.
        if kept > 0 && entries[kept - 1].2 == 0.0 {
            kept -= 1;
        }
        // Nothing merged or dropped so far: the entry is where it belongs.
        if kept != i {
            entries[kept] = e;
        }
        kept += 1;
    }
    if kept > 0 && entries[kept - 1].2 == 0.0 {
        kept -= 1;
    }
    entries.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_compact_sums_duplicates() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(1, 1, 2.0);
        t.push(0, 2, 1.0);
        t.push(1, 1, 3.0);
        let t = t.compact();
        assert!(t.is_compact());
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.entries()[0], (0, 2, 1.0));
        assert_eq!(t.entries()[1], (1, 1, 5.0));
    }

    #[test]
    fn compact_drops_cancelled_entries() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 0, -1.0);
        let t = t.compact();
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn from_entries_validates_bounds() {
        let err = TripletMatrix::from_entries(2, 2, vec![(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { row: 2, .. }));
    }

    #[test]
    fn dense_round_trip() {
        let d = vec![1.0, 0.0, 0.0, 2.0, 0.0, 3.0];
        let t = TripletMatrix::from_dense(2, 3, &d);
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.to_dense(), d);
    }

    #[test]
    fn row_counts_and_row_sparse() {
        let t = TripletMatrix::from_entries(3, 4, vec![(0, 1, 1.0), (0, 3, 2.0), (2, 0, 5.0)])
            .unwrap()
            .compact();
        assert_eq!(t.row_counts(), vec![2, 0, 1]);
        let r0 = t.row_sparse(0);
        assert_eq!(r0.indices(), &[1, 3]);
        assert_eq!(r0.values(), &[1.0, 2.0]);
        assert_eq!(t.row_sparse(1).nnz(), 0);
    }

    #[test]
    fn row_sparse_by_search_matches_the_scan() {
        // Rows 1 and 3 are empty; the first and last rows are not.
        let entries =
            vec![(0, 0, 1.0), (0, 3, 2.0), (2, 1, 3.0), (4, 0, 4.0), (4, 2, 5.0), (4, 3, 6.0)];
        let compact = TripletMatrix::from_entries(5, 4, entries.clone()).unwrap();
        assert!(compact.is_compact());
        // The same rows handed over out of order: the scan path.
        let mut reordered = entries.clone();
        reordered.rotate_left(2);
        let unsorted = TripletMatrix::from_entries(5, 4, reordered).unwrap();
        assert!(!unsorted.is_compact());
        for i in 0..5 {
            let want: Vec<(usize, Scalar)> =
                entries.iter().filter(|e| e.0 == i).map(|&(_, c, v)| (c, v)).collect();
            for t in [&compact, &unsorted] {
                let row = t.row_sparse(i);
                assert_eq!(row.dim(), 4);
                assert_eq!(row.iter().collect::<Vec<_>>(), want, "row {i}");
            }
        }
        assert_eq!(compact.row_sparse(1).nnz(), 0);
        assert_eq!(compact.row_sparse(4).indices(), &[0, 2, 3]);

        let single = TripletMatrix::from_entries(1, 3, vec![(0, 0, 7.0), (0, 2, 8.0)]).unwrap();
        assert_eq!(single.row_sparse(0).values(), &[7.0, 8.0]);
        assert_eq!(TripletMatrix::new(1, 3).row_sparse(0).nnz(), 0);
    }

    #[test]
    fn compactness_is_tracked_not_scanned() {
        let mut t = TripletMatrix::new(3, 3);
        assert!(t.is_compact() && TripletMatrix::default().is_compact());
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        assert!(t.is_compact());
        t.push(1, 0, 1.0); // a duplicate is not strictly ascending
        assert!(!t.is_compact());
        assert_eq!(t.row_counts(), vec![1, 2, 0]);
        let t = t.compact();
        assert!(t.is_compact());
        assert_eq!(t.row_counts(), vec![1, 1, 0]);
        // Column-major order is row-major order only for the transpose.
        assert!(!t.transpose().is_compact());
        assert!(t.transpose().transpose().is_compact());
        assert!(matches!(t.compacted(), Cow::Borrowed(_)));
        assert!(matches!(t.transpose().compacted(), Cow::Owned(_)));
    }

    #[test]
    fn duplicates_sum_in_insertion_order_on_both_sort_paths() {
        // (1e16 + 1.0) - 1e16 is 0.0 in doubles; 1.0 survives any other order.
        let pushes = [(1, 1, 1e16), (0, 2, 5.0), (1, 1, 1.0), (1, 0, -2.0), (1, 1, -1e16)];
        // 3 + 3 <= 8 * 5 takes the counting sort, the wide shape the fallback.
        for (rows, cols) in [(3, 3), (1_000, 1_000)] {
            let t = TripletMatrix::from_entries(rows, cols, pushes.to_vec()).unwrap();
            let want = [(0, 2, 5.0), (1, 0, -2.0)];
            assert_eq!(t.compacted().entries(), want, "{rows}x{cols}");
            assert_eq!(t.compact().entries(), want, "{rows}x{cols}");
        }
    }

    #[test]
    fn compact_drops_explicit_zeros_of_sorted_input_in_place() {
        let t = TripletMatrix::from_entries(2, 2, vec![(0, 0, 0.0), (0, 1, 1.0), (1, 1, -0.0)])
            .unwrap();
        assert!(t.is_compact());
        assert_eq!(t.compacted().nnz(), 3, "borrowed as it is");
        assert_eq!(t.compact().entries(), [(0, 1, 1.0)]);
    }

    #[test]
    fn transpose_flips_entries() {
        let t = TripletMatrix::from_entries(2, 3, vec![(0, 2, 4.0)]).unwrap();
        let tt = t.transpose();
        assert_eq!(tt.rows(), 3);
        assert_eq!(tt.cols(), 2);
        assert_eq!(tt.entries()[0], (2, 0, 4.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_rejects_out_of_bounds() {
        let mut t = TripletMatrix::new(1, 1);
        t.push(0, 1, 1.0);
    }
}
