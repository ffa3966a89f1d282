//! Timing utilities for the repro harness.

use dls_sparse::telemetry::{InstrumentedMatrix, SmsvCounters};
use dls_sparse::{AnyMatrix, Format, MatrixFormat, Scalar, TripletMatrix};
use dls_svm::SmoParams;
use std::sync::Arc;
use std::time::Instant;

/// Median wall-clock seconds of one SMSV over `reps` repetitions, using
/// rows of the matrix itself as right-hand sides (the SMO access pattern).
pub fn time_smsv(m: &AnyMatrix, reps: usize) -> f64 {
    assert!(reps >= 1);
    let rows = m.rows();
    let probes: Vec<_> = (0..4.min(rows)).map(|k| m.row_sparse(k * (rows - 1) / 3)).collect();
    let mut out = vec![0.0; rows];
    // Warm-up.
    m.smsv(&probes[0], &mut out);
    let mut times: Vec<f64> = (0..reps)
        .map(|r| {
            let start = Instant::now();
            m.smsv(&probes[r % probes.len()], &mut out);
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times[times.len() / 2]
}

/// Wall-clock seconds for a fixed number of SMO iterations on the matrix in
/// a given format. The kernel cache is disabled so every iteration pays its
/// two SMSVs — isolating the layout effect the paper measures.
pub fn time_smo_iterations(
    t: &TripletMatrix,
    y: &[Scalar],
    format: Format,
    iterations: usize,
) -> f64 {
    let m = AnyMatrix::from_triplets(format, t);
    let params = SmoParams {
        c: 1.0,
        kernel: dls_svm::KernelKind::Linear,
        tolerance: 1e-12, // don't let convergence cut the measurement short
        max_iterations: iterations,
        cache_bytes: 0,
    };
    let start = Instant::now();
    let _ = dls_svm::train_with_stats(&m, y, &params).expect("valid training inputs");
    start.elapsed().as_secs_f64()
}

/// Like [`time_smo_iterations`], but runs the matrix behind an
/// [`InstrumentedMatrix`] so per-format SMSV telemetry accumulates in
/// `counters` while the iterations are timed.
pub fn time_smo_iterations_telemetry(
    t: &TripletMatrix,
    y: &[Scalar],
    format: Format,
    iterations: usize,
    counters: &Arc<SmsvCounters>,
) -> f64 {
    let m = InstrumentedMatrix::new(AnyMatrix::from_triplets(format, t), counters.clone());
    let params = SmoParams {
        c: 1.0,
        kernel: dls_svm::KernelKind::Linear,
        tolerance: 1e-12,
        max_iterations: iterations,
        cache_bytes: 0,
    };
    let start = Instant::now();
    let _ = dls_svm::train_with_stats(&m, y, &params).expect("valid training inputs");
    start.elapsed().as_secs_f64()
}

/// Normalises a set of `(label, seconds)` measurements to speedups over the
/// slowest entry (the paper's Figure 1 convention).
pub fn normalise_to_slowest<L: Clone>(times: &[(L, f64)]) -> Vec<(L, f64)> {
    let slowest = times.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    times.iter().map(|(l, t)| (l.clone(), slowest / t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_data::controlled::diag_matrix;

    #[test]
    fn normalise_slowest_gets_one() {
        let out = normalise_to_slowest(&[("a", 2.0), ("b", 4.0), ("c", 1.0)]);
        assert_eq!(out[1], ("b", 1.0));
        assert_eq!(out[2].1, 4.0);
        assert_eq!(out[0].1, 2.0);
    }

    #[test]
    fn smsv_timer_returns_positive() {
        let t = diag_matrix(64, 64, 256, 4, 1);
        let m = AnyMatrix::from_triplets(Format::Csr, &t);
        assert!(time_smsv(&m, 3) > 0.0);
    }

    #[test]
    fn smo_timer_runs_fixed_iterations() {
        let t = diag_matrix(32, 32, 64, 2, 2);
        let y: Vec<f64> = (0..32).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let secs = time_smo_iterations(&t, &y, Format::Csr, 5);
        assert!(secs > 0.0);
    }
}
