//! Learned per-(format, dataset) kernel block-size tuning.
//!
//! The blocked SMSV engine amortises one matrix sweep over a chunk of
//! right-hand sides, but the best chunk size is not a constant: it trades
//! stream amortisation against the interleaved workspace's cache footprint,
//! and the balance point moves with the matrix's shape and the format's
//! storage layout. This module labels each training-grid cell with the best
//! block size from [`BLOCK_CANDIDATES`] — measured with real `smsv_block`
//! sweeps, or analytically from a cache-residency bound. `dls_core`'s
//! [`BlockModel`](dls_core::BlockModel) fits one regression tree per format
//! to these labels over the same nine-parameter feature vector the format
//! classifier uses; it rides inside `TrainedModel` and is consumed by
//! `LearnedSelector` (selection reports) and transitively by the
//! `dls-serve` batching executor (coalescing cap).

use crate::label::LabelMode;
use dls_sparse::{
    AnyMatrix, Format, MatrixFeatures, MatrixFormat, SparseVec, TripletMatrix, MAX_SMSV_BLOCK,
};
use std::time::Instant;

/// Block sizes the calibration sweep considers, smallest first. All powers
/// of two up to the engine-wide chunk cap [`MAX_SMSV_BLOCK`].
pub const BLOCK_CANDIDATES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Working-set budget, in scalars, for the analytic block bound — sized to
/// a typical per-core L2 (256 KiB of 8-byte scalars).
const CACHE_BUDGET_SCALARS: usize = 32_768;

/// Analytic tuned block: the largest candidate whose interleaved blocked
/// workspace (scatter lanes over `n` columns plus `m` accumulator lanes)
/// stays within the cache budget. The bound is the same for every format:
/// the workspace is sized by the matrix's shape, not by its layout.
pub fn analytic_block(f: &MatrixFeatures) -> usize {
    let per_lane = f.n + 1 + f.m;
    let mut b = MAX_SMSV_BLOCK;
    while b > 1 && per_lane * b > CACHE_BUDGET_SCALARS {
        b /= 2;
    }
    b
}

/// Measured tuned block: times `smsv_block` at every candidate over two
/// independent passes (element-wise minimum de-noises each candidate) and
/// returns the argmin. Ties and sub-candidate noise resolve toward the
/// *larger* block — amortisation wins downstream when per-product times are
/// indistinguishable.
pub(crate) fn measured_block(format: Format, t: &TripletMatrix, reps: usize) -> usize {
    let m = AnyMatrix::from_triplets(format, t);
    let rows = m.rows();
    // A full chunk of probe vectors: matrix rows cycled, like the labelling
    // oracle's probes, so the sweep exercises realistic sparsity.
    let probes: Vec<SparseVec> = (0..MAX_SMSV_BLOCK)
        .map(|k| m.row_sparse(k * rows.saturating_sub(1) / (MAX_SMSV_BLOCK - 1).max(1)))
        .collect();
    let mut ws = Vec::new();
    let mut out = vec![0.0; rows * MAX_SMSV_BLOCK];
    m.smsv_block(&probes, &mut out, &mut ws); // warm-up
    let time_candidate = |b: usize, ws: &mut Vec<f64>, out: &mut Vec<f64>| -> f64 {
        let start = Instant::now();
        for _ in 0..reps.max(1) {
            for chunk in probes.chunks(b) {
                m.smsv_block(chunk, &mut out[..rows * chunk.len()], ws);
            }
        }
        start.elapsed().as_secs_f64() / (reps.max(1) * probes.len()) as f64
    };
    let mut scores = [f64::INFINITY; BLOCK_CANDIDATES.len()];
    for pass in 0..2 {
        let _ = pass;
        for (i, &b) in BLOCK_CANDIDATES.iter().enumerate() {
            scores[i] = scores[i].min(time_candidate(b, &mut ws, &mut out));
        }
    }
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate() {
        if s <= scores[best] {
            best = i; // <= : ties go to the larger candidate
        }
    }
    BLOCK_CANDIDATES[best]
}

/// Labels one (format, matrix) cell under the training run's label mode:
/// measured sweeps when format labelling is measured, the analytic bound
/// when it is analytic.
pub(crate) fn block_for_case(
    format: Format,
    t: &TripletMatrix,
    f: &MatrixFeatures,
    mode: LabelMode,
) -> usize {
    match mode {
        LabelMode::Measured { reps, .. } => measured_block(format, t, reps),
        LabelMode::Analytic { .. } => analytic_block(f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_core::{featurize, BlockModel, BlockSample};
    use dls_data::controlled::diag_matrix;

    #[test]
    fn analytic_block_respects_kernel_availability_and_cache() {
        let t = diag_matrix(128, 128, 256, 2, 1);
        let f = MatrixFeatures::from_triplets(&t);
        // A small matrix fits the budget at the full cap.
        assert_eq!(analytic_block(&f), MAX_SMSV_BLOCK);
        // A huge matrix shrinks the block until the workspace fits.
        let big = MatrixFeatures { m: 40_000, n: 40_000, ..f };
        let b = analytic_block(&big);
        assert!((1..MAX_SMSV_BLOCK).contains(&b), "tuned down: {b}");
        assert!((big.n + 1 + big.m) * b <= CACHE_BUDGET_SCALARS || b == 1);
    }

    #[test]
    fn measured_block_returns_a_candidate() {
        let t = diag_matrix(96, 96, 192, 3, 7);
        for fmt in [Format::Csr, Format::Coo, Format::Dia, Format::Csc] {
            let b = measured_block(fmt, &t, 1);
            assert!(BLOCK_CANDIDATES.contains(&b), "{fmt}: {b}");
        }
    }

    #[test]
    fn tuned_blocks_are_consistent_with_features() {
        let t = diag_matrix(128, 128, 256, 2, 9);
        let f = MatrixFeatures::from_triplets(&t);
        let samples: Vec<BlockSample> = Format::ALL
            .iter()
            .map(|&format| BlockSample { format, x: featurize(&f), block: analytic_block(&f) })
            .collect();
        let model = BlockModel::train(&samples);
        for s in &samples {
            assert_eq!(model.tuned_block(s.format, &s.x), s.block, "{}", s.format);
        }
    }
}
