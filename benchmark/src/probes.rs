//! Timing single calls into a layer's public functions.
//!
//! Probes report the minimum over repeated single calls: on a shared host
//! interference only ever adds time, so the minimum is the least disturbed
//! observation (the repository's `repro_smsv_block` does the same).

use dls_sparse::{Format, MatrixFormat, SparseVec};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions behind each minimum.
const REPS: usize = 7;

/// Right-hand sides per kernel probe: rows spread over the matrix, which
/// is SMO's access pattern.
const ROWS: usize = 16;

/// Minimum wall time of `f` over `reps` calls, in ns.
pub fn min_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Time per call of a sub-microsecond `f`, in ns: minimum over [`REPS`]
/// batches of `batch` calls each, so that the clock is read once a batch.
pub fn batched_ns<T>(batch: usize, mut f: impl FnMut() -> T) -> f64 {
    min_ns(REPS, || {
        for _ in 0..batch {
            black_box(f());
        }
    }) / batch as f64
}

fn probe_rows<M: MatrixFormat>(m: &M) -> Vec<SparseVec> {
    let rows = m.rows();
    let n = ROWS.min(rows);
    (0..n).map(|k| m.row_sparse(k * rows / n)).collect()
}

/// One `smsv_view` product against a row of the matrix itself: mean over
/// [`ROWS`] right-hand sides of the min-of-[`REPS`] single call, in ns.
pub fn smsv_ns<M: MatrixFormat>(m: &M) -> f64 {
    let rhs = probe_rows(m);
    let mut out = vec![0.0; m.rows()];
    let mut ws = Vec::new();
    m.smsv_view(rhs[0].as_view(), &mut out, &mut ws);
    let total: f64 =
        rhs.iter().map(|v| min_ns(REPS, || m.smsv_view(v.as_view(), &mut out, &mut ws))).sum();
    total / rhs.len() as f64
}

/// Time per product of one `smsv_block` call over `b` right-hand sides,
/// min-of-[`REPS`], in ns.
pub fn smsv_block_ns<M: MatrixFormat>(m: &M, b: usize) -> f64 {
    let rows = probe_rows(m);
    let rhs: Vec<SparseVec> = (0..b).map(|k| rows[k % rows.len()].clone()).collect();
    let mut out = vec![0.0; m.rows() * b];
    let mut ws = Vec::new();
    m.smsv_block(&rhs, &mut out, &mut ws);
    min_ns(REPS, || m.smsv_block(&rhs, &mut out, &mut ws)) / b as f64
}

/// Bytes one product moves, computed from array sizes: the matrix's
/// storage read once, the output written once, and the right-hand side's
/// index/value pairs. Cache misses are not in it.
pub fn smsv_bytes<M: MatrixFormat>(m: &M) -> f64 {
    let rhs = probe_rows(m);
    let rhs_nnz = rhs.iter().map(SparseVec::nnz).sum::<usize>() as f64 / rhs.len() as f64;
    m.storage_bytes() as f64 + (m.rows() * 8) as f64 + rhs_nnz * 16.0
}

/// `"{prefix}.{FORMAT}"` as a catalogue name.
pub fn per_format(prefix: &str, format: Format) -> &'static str {
    let name = format!("{prefix}.{}", format.name());
    crate::catalog::layer(&name)
        .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"))
        .name
}
