//! Property tests for the triplet → layout path: `compact()` against a
//! reference on adversarial input, the compactness flag against a scan
//! after arbitrary histories, and every `from_triplets` on raw versus
//! compacted input.

use dls_sparse::ops::smsv_reference;
use dls_sparse::{AnyMatrix, CsrMatrix, Format, MatrixFormat, SparseVec, TripletMatrix};
use proptest::prelude::*;

type Entry = (usize, usize, f64);

/// What `compact()` promises: a stable sort by `(row, col)`, duplicates
/// summed left to right, sums that compare equal to zero dropped.
fn reference_compact(entries: &[Entry]) -> Vec<Entry> {
    let mut sorted = entries.to_vec();
    sorted.sort_by_key(|&(r, c, _)| (r, c));
    let mut out: Vec<Entry> = Vec::new();
    for (r, c, v) in sorted {
        match out.last_mut() {
            Some(last) if (last.0, last.1) == (r, c) => last.2 += v,
            _ => out.push((r, c, v)),
        }
    }
    out.retain(|e| e.2 != 0.0);
    out
}

/// The `windows(2)` scan `is_compact()` used to be.
fn scan_is_compact(t: &TripletMatrix) -> bool {
    t.entries().windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1))
}

/// Entries with their values as bit patterns, so `-0.0`, infinities and the
/// last ulp all count. Every NaN maps to one pattern: which operand's sign
/// and payload a NaN sum inherits depends on the operand order the
/// compiler picks for the add, not on the order of the summation.
fn bits(entries: &[Entry]) -> Vec<(usize, usize, u64)> {
    let pattern = |v: f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
    entries.iter().map(|&(r, c, v)| (r, c, pattern(v))).collect()
}

/// A product as bit patterns: `-0.0` and the last ulp count.
fn bits_of(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Payloads whose sums depend on order, cancel, or are not numbers.
const PAYLOADS: [f64; 12] = [
    1e16,
    1.0,
    -1e16,
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    3.5,
    -3.5,
    f64::MIN_POSITIVE,
    0.1,
];

/// Entries for a `rows × cols` shape, drawn from few enough coordinates
/// that triple and longer duplicates are common.
fn arb_entries(rows: usize, cols: usize, max_len: usize) -> impl Strategy<Value = Vec<Entry>> {
    let entry =
        (0..rows, 0..cols.min(4), 0..PAYLOADS.len()).prop_map(|(r, c, p)| (r, c, PAYLOADS[p]));
    proptest::collection::vec(entry, 0..max_len)
}

/// `(rows, cols, entries)` over small shapes, degenerate ones included.
fn arb_adversarial() -> impl Strategy<Value = (usize, usize, Vec<Entry>)> {
    (0usize..7, 0usize..7).prop_flat_map(|(rows, cols)| {
        // A 0×N or N×0 matrix holds no entry at all.
        let max_len = if rows * cols == 0 { 1 } else { 40 };
        (Just(rows), Just(cols), arb_entries(rows.max(1), cols.max(1), max_len))
    })
}

/// Shuffled, duplicated, finite and individually non-zero entries (so
/// zeros arise only by cancellation, which only un-compacted input has).
fn arb_raw_matrix() -> impl Strategy<Value = TripletMatrix> {
    (1usize..16, 1usize..16).prop_flat_map(|(rows, cols)| {
        let value = (1i32..=40, 0usize..2).prop_map(|(v, neg)| {
            let v = f64::from(v) / 7.0;
            if neg == 1 {
                -v
            } else {
                v
            }
        });
        proptest::collection::vec((0..rows, 0..cols, value), 0..90)
            .prop_map(move |entries| TripletMatrix::from_entries(rows, cols, entries).unwrap())
    })
}

#[test]
fn degenerate_shapes_compact_to_nothing() {
    for (rows, cols) in [(0, 0), (0, 5), (5, 0), (3, 3)] {
        let t = TripletMatrix::new(rows, cols);
        assert!(t.is_compact());
        assert_eq!(t.compacted().nnz(), 0);
        assert_eq!(t.compact().nnz(), 0);
    }
}

#[test]
fn one_dense_row_in_a_hypersparse_matrix() {
    // 600 entries in one row of a 2000 × 600 matrix, pushed right to left
    // and each twice: M + N = 2600 <= 8 · 1200, so the counting sort runs
    // with almost every row bucket empty.
    let mut t = TripletMatrix::new(2_000, 600);
    for c in (0..600).rev() {
        t.push(1_234, c, c as f64 + 0.25);
        t.push(1_234, c, 1.0);
    }
    t.push(0, 599, -1.0);
    t.push(1_999, 0, -2.0);
    let want = reference_compact(t.entries());
    assert_eq!(want.len(), 602);
    assert_eq!(bits(t.compacted().entries()), bits(&want));
    assert_eq!(bits(t.compact().entries()), bits(&want));
}

/// Finite values whose sums depend on the order they are added in.
const ORDERED: [f64; 7] = [1e16, 1.0, -1e16, 3.5, 0.1, -3.5, f64::MIN_POSITIVE];

/// Every format's `smsv`, `smsv_view` and `smsv_block` (every width from one
/// to all of `vs`) against the reference on `t`, bit for bit, with outputs
/// prefilled with NaN and one workspace shared throughout.
fn assert_kernels_match(label: &str, t: &TripletMatrix, vs: &[SparseVec]) {
    let csr = CsrMatrix::from_triplets(t);
    let want: Vec<Vec<f64>> = vs.iter().map(|v| smsv_reference(&csr, v)).collect();
    let mut ws = Vec::new();
    for fmt in Format::ALL {
        let m = AnyMatrix::from_triplets(fmt, t);
        let rows = m.rows();
        for (v, want) in vs.iter().zip(&want) {
            let mut out = vec![f64::NAN; rows];
            m.smsv(v, &mut out);
            assert_eq!(bits_of(&out), bits_of(want), "{label}: {fmt} smsv");
            out.fill(f64::NAN);
            m.smsv_view(v.as_view(), &mut out, &mut ws);
            assert_eq!(bits_of(&out), bits_of(want), "{label}: {fmt} smsv_view");
        }
        for b in 1..=vs.len() {
            let mut out = vec![f64::NAN; rows * b];
            m.smsv_block(&vs[..b], &mut out, &mut ws);
            assert_eq!(bits_of(&out), bits_of(&want[..b].concat()), "{label}: {fmt} B={b}");
        }
        assert!(ws.iter().all(|&w| w == 0.0), "{label}: {fmt} left the workspace dirty");
    }
}

/// A `cols`-dimensional right-hand side over `support`, values from `ORDERED`.
fn rhs(cols: usize, support: &[usize]) -> SparseVec {
    let values = (0..support.len()).map(|k| ORDERED[(k + 1) % ORDERED.len()]).collect();
    SparseVec::new(cols, support.to_vec(), values)
}

/// A matrix from `(row, col)` positions, values cycling through `ORDERED`.
fn filled(rows: usize, cols: usize, at: impl IntoIterator<Item = (usize, usize)>) -> TripletMatrix {
    let entries = at.into_iter().enumerate().map(|(k, (r, c))| (r, c, ORDERED[k % ORDERED.len()]));
    TripletMatrix::from_entries(rows, cols, entries.collect()).unwrap().compact()
}

#[test]
fn den_interleave_keeps_every_row_count_and_both_gather_sides() {
    // Six columns put DEN's gather/scatter threshold (3/4 density) between
    // four and five non-zeros: the first two right-hand sides gather, the
    // rest sweep, and blocks of them mix the two.
    let cols = 6;
    let vs = [
        rhs(cols, &[]),
        rhs(cols, &[0, 2, 3, 5]),
        rhs(cols, &[0, 1, 2, 4, 5]),
        rhs(cols, &[0, 1, 2, 3, 4, 5]),
    ];
    for rows in [0, 1, 2, 3, 4, 5, 7, 8, 9] {
        let t = filled(
            rows,
            cols,
            (0..rows * cols).map(|k| (k / cols, k % cols)).filter(|&(r, c)| (r + c) % 4 != 3),
        );
        assert_kernels_match(&format!("DEN {rows}x{cols}"), &t, &vs);
    }
}

#[test]
fn coo_cursors_never_split_a_row() {
    let cols = 12;
    let row = |r: usize, n: usize| (0..n).map(move |c| (r, c));
    let cases: [(&str, TripletMatrix); 7] = [
        (
            "a row past the midpoint, split at its end",
            filled(4, cols, row(0, 1).chain(row(2, 10)).chain(row(3, 1))),
        ),
        ("more than half of nnz in the last row", filled(3, cols, row(0, 2).chain(row(2, 10)))),
        (
            "empty rows straddling the midpoint",
            filled(10, cols, row(0, 3).chain(row(1, 3)).chain(row(7, 3)).chain(row(8, 3))),
        ),
        (
            "empty rows just past the midpoint",
            filled(10, cols, row(0, 4).chain(row(1, 3)).chain(row(7, 3)).chain(row(8, 2))),
        ),
        ("every entry in the last row", filled(5, cols, row(4, cols))),
        ("a single entry", filled(3, cols, [(1, 7)])),
        ("no entry", filled(4, cols, [])),
    ];
    // Nine right-hand sides: blocks up to eight lanes run the cursors, nine
    // the single pass.
    let supports: [&[usize]; 3] =
        [&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], &[1, 4, 9], &[0, 5, 6, 7, 11]];
    let vs: Vec<SparseVec> = (0..9).map(|b| rhs(cols, supports[b % 3])).collect();
    for (label, t) in &cases {
        assert_kernels_match(label, t, &vs);
    }
}

#[test]
fn degenerate_and_hypersparse_shapes_multiply_like_the_reference() {
    let empty_rows = filled(0, 5, []);
    assert_kernels_match("0x5", &empty_rows, &[rhs(5, &[]), rhs(5, &[0, 3, 4])]);
    let empty_cols = filled(4, 0, []);
    assert_kernels_match("4x0", &empty_cols, &[rhs(0, &[]), rhs(0, &[])]);
    // One dense row of 600 in a 2000-row matrix, beside one entry at each corner.
    let hyper = filled(
        2_000,
        600,
        [(0, 599)].into_iter().chain((0..600).map(|c| (1_234, c))).chain([(1_999, 0)]),
    );
    let vs = [hyper.row_sparse(1_234), rhs(600, &[0, 17, 599]), rhs(600, &[])];
    assert_kernels_match("dense row in 2000x600", &hyper, &vs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both sort paths equal the reference, bit for bit: the same pushes
    /// in a shape as small as they allow (counting sort) and in one so
    /// wide that the histograms would outsize them (comparison sort).
    #[test]
    fn compact_matches_the_reference_on_both_paths((rows, cols, entries) in arb_adversarial()) {
        let want = bits(&reference_compact(&entries));
        for (rows, cols) in [(rows, cols), (rows + 5_000, cols + 5_000)] {
            let t = TripletMatrix::from_entries(rows, cols, entries.clone()).unwrap();
            prop_assert_eq!(t.is_compact(), scan_is_compact(&t));
            let borrowed = t.compacted();
            prop_assert!(borrowed.is_compact() && scan_is_compact(&borrowed));
            if t.is_compact() {
                // Compact input is handed back as it is, explicit zeros included.
                prop_assert_eq!(bits(borrowed.entries()), bits(t.entries()));
            } else {
                prop_assert_eq!(&bits(borrowed.entries()), &want, "compacted() {}x{}", rows, cols);
            }
            let owned = t.clone().compact();
            prop_assert!(owned.is_compact() && scan_is_compact(&owned));
            prop_assert_eq!(&bits(owned.entries()), &want, "compact() {}x{}", rows, cols);
        }
    }

    /// After any history of constructors and mutators the flag says what a
    /// scan of the entries says.
    #[test]
    fn compactness_flag_survives_any_history(
        (rows, cols, entries) in arb_adversarial(),
        ops in proptest::collection::vec(0usize..5, 1..12),
    ) {
        let mut t = TripletMatrix::from_entries(rows, cols, entries.clone()).unwrap();
        prop_assert_eq!(t.is_compact(), scan_is_compact(&t));
        let mut feed = entries.iter().cycle();
        for op in ops {
            t = match op {
                0 => {
                    // Pushes need a non-empty shape; the feed is empty otherwise.
                    for &(r, c, v) in feed.by_ref().take(3.min(entries.len())) {
                        // The shape may be transposed by now.
                        t.push(r % t.rows(), c % t.cols(), v);
                    }
                    t
                }
                1 => t.transpose(),
                2 => t.compact(),
                3 => TripletMatrix::from_dense(t.rows(), t.cols(), &t.to_dense()),
                _ => TripletMatrix::from_entries(t.rows(), t.cols(), t.entries().to_vec()).unwrap(),
            };
            prop_assert_eq!(t.is_compact(), scan_is_compact(&t), "after op {}", op);
        }
    }

    /// Every format builds the same matrix from raw pushes as from their
    /// compacted form, and all three of its kernels multiply like the
    /// reference, bit for bit: `smsv`, `smsv_view`, and `smsv_block` at
    /// every kind of width the chunked SMSV loop dispatches (one lane, two,
    /// odd and power-of-two widths, a full chunk, and past it into a tail
    /// chunk). Outputs start as NaN, so a lane left unwritten fails.
    #[test]
    fn builders_agree_on_raw_and_compacted_input(raw in arb_raw_matrix(), pick in 0usize..64) {
        let compact = raw.clone().compact();
        let csr = CsrMatrix::from_triplets(&compact);
        // Right-hand sides: rows of the matrix itself, empty ones included,
        // and every third one a 4/5-dense vector that no row need match.
        let vs: Vec<SparseVec> = (0..39)
            .map(|b| {
                if b % 3 == 2 {
                    let dense: Vec<f64> =
                        (0..compact.cols()).map(|j| ((j + b) % 5) as f64 / 2.0 - 1.0).collect();
                    SparseVec::from_dense(&dense)
                } else {
                    compact.row_sparse((pick + b) % compact.rows())
                }
            })
            .collect();
        let want: Vec<Vec<f64>> = vs.iter().map(|v| smsv_reference(&csr, v)).collect();
        // One workspace for every format and call, as a solver shares it.
        let mut ws = Vec::new();
        for fmt in Format::ALL {
            let built = AnyMatrix::from_triplets(fmt, &raw);
            prop_assert!(built == AnyMatrix::from_triplets(fmt, &compact), "{}", fmt);
            prop_assert_eq!(built.nnz(), compact.nnz(), "{} nnz", fmt);
            if let AnyMatrix::Dia(dia) = &built {
                prop_assert!(dia.offsets().windows(2).all(|w| w[0] < w[1]), "DIA offsets");
            }
            if let AnyMatrix::Den(den) = &built {
                prop_assert_eq!(den.nnz(), den.data().iter().filter(|&&x| x != 0.0).count());
            }
            let rows = built.rows();
            let mut out = vec![f64::NAN; rows];
            built.smsv(&vs[0], &mut out);
            prop_assert_eq!(bits_of(&out), bits_of(&want[0]), "{} smsv", fmt);
            out.fill(f64::NAN);
            built.smsv_view(vs[0].as_view(), &mut out, &mut ws);
            prop_assert_eq!(bits_of(&out), bits_of(&want[0]), "{} smsv_view", fmt);
            for b in [1, 2, 3, 7, 16, 17, 31, 32, 33, 39] {
                let mut out = vec![f64::NAN; rows * b];
                built.smsv_block(&vs[..b], &mut out, &mut ws);
                prop_assert_eq!(bits_of(&out), bits_of(&want[..b].concat()), "{} B={}", fmt, b);
            }
            prop_assert!(ws.iter().all(|&w| w == 0.0), "{} left the workspace dirty", fmt);
        }
    }
}
