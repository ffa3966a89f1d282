//! Measured per-model sweep times for admission control.
//!
//! [`SweepTable::measure`] times real blocked sweeps of a model's own
//! scheduled support matrix at each [`CALIBRATION_BATCHES`] size. It runs
//! once, when the model is registered (`ServedModel::new`), on the bare
//! matrix before it is wrapped in its metered `InstrumentedMatrix`, so the
//! probes never show in the served-traffic counters. It is cheap
//! (microseconds per probe): the probes are single-nnz vectors.
//!
//! The table feeds **predictive admission** in the executor: it projects a
//! new request's completion (queued weight ahead, chunked into sweeps,
//! plus its own sweep) and refuses with `Busy` *at submit time* when the
//! projection already overshoots the deadline, instead of letting the
//! request queue up only to time out.

use dls_sparse::{AnyMatrix, SparseVec};
use dls_svm::{PredictWorkspace, SvmModel};
use std::time::{Duration, Instant};

/// Batch sizes timed per model.
pub const CALIBRATION_BATCHES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// One model's measured sweep times at the calibration batch sizes.
#[derive(Debug, Clone)]
pub struct SweepTable {
    /// `times[k]` is the sweep time of a `CALIBRATION_BATCHES[k]`-vector
    /// block, raised to the largest time below it so that a bigger batch is
    /// never predicted to be faster.
    times: [Duration; CALIBRATION_BATCHES.len()],
}

impl SweepTable {
    /// Times `model`'s decision values over `sv_rows` (its support matrix,
    /// `dim` columns) at every calibration size: one warm-up sweep, then
    /// the best of two.
    pub fn measure(model: &SvmModel, sv_rows: &AnyMatrix, dim: usize) -> Self {
        let dim = dim.max(1);
        let mut ws = PredictWorkspace::new();
        let mut floor = Duration::from_nanos(1);
        let times = CALIBRATION_BATCHES.map(|batch| {
            let probes: Vec<SparseVec> =
                (0..batch).map(|i| SparseVec::new(dim, vec![i % dim], vec![1.0])).collect();
            model.predict_batch_with(sv_rows, &probes, &mut ws); // warm caches / first touch
            let best = (0..2)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(model.predict_batch_with(sv_rows, &probes, &mut ws));
                    start.elapsed()
                })
                .min()
                .expect("two timings");
            floor = floor.max(best);
            floor
        });
        Self { times }
    }

    /// Predicted duration of one sweep of `batch` vectors: the table entry
    /// of the smallest calibrated size ≥ `batch` (the largest entry beyond
    /// 32, which no lane's block exceeds).
    pub(crate) fn sweep_time(&self, batch: usize) -> Duration {
        let k = CALIBRATION_BATCHES.iter().position(|&b| b >= batch);
        self.times[k.unwrap_or(CALIBRATION_BATCHES.len() - 1)]
    }

    /// Predicted time to execute `total_weight` queued vectors, chunked
    /// into sweeps of at most `max_block`: the backlog term of the
    /// admission projection.
    pub fn backlog(&self, total_weight: usize, max_block: usize) -> Duration {
        let max_block = max_block.max(1);
        let full = (total_weight / max_block) as u32;
        let rem = total_weight % max_block;
        let tail = if rem > 0 { self.sweep_time(rem) } else { Duration::ZERO };
        self.sweep_time(max_block) * full + tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_svm::KernelKind;

    fn toy_table() -> SweepTable {
        let svs: Vec<SparseVec> =
            (0..4).map(|i| SparseVec::new(8, vec![i, i + 4], vec![1.0, -0.5])).collect();
        let model = SvmModel::new(KernelKind::Linear, svs, vec![1.0, -1.0, 0.5, -0.25], 0.1);
        let matrix = model.support_matrix(PredictWorkspace::CACHE_FORMAT).unwrap();
        SweepTable::measure(&model, &matrix, 8)
    }

    #[test]
    fn sweep_time_is_positive_monotone_and_exact_at_calibrated_sizes() {
        let table = toy_table();
        let mut last = Duration::ZERO;
        for b in 0..=40 {
            let t = table.sweep_time(b);
            assert!(t > Duration::ZERO, "b = {b}");
            assert!(t >= last, "b = {b}: {t:?} < {last:?}");
            last = t;
        }
        for (k, &b) in CALIBRATION_BATCHES.iter().enumerate() {
            assert_eq!(table.sweep_time(b), table.times[k], "b = {b}");
            // Between two calibrated sizes the larger one answers.
            assert_eq!(table.sweep_time(b + 1), table.times[(k + 1).min(5)], "b = {}", b + 1);
        }
    }

    #[test]
    fn backlog_projection_chunks_into_sweeps() {
        let table =
            SweepTable { times: CALIBRATION_BATCHES.map(|b| Duration::from_micros(b as u64)) };
        // 10 vectors in blocks of 4: two full sweeps (4 µs each) and a
        // remainder of 2 (2 µs).
        assert_eq!(table.backlog(10, 4), Duration::from_micros(10));
        assert_eq!(table.backlog(8, 4), Duration::from_micros(8));
        assert_eq!(table.backlog(0, 4), Duration::ZERO);
        // A zero block is treated as one.
        assert_eq!(table.backlog(3, 0), Duration::from_micros(3));
    }
}
