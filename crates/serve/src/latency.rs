//! Learned per-model latency prediction for admission control.
//!
//! Reuses `dls-learn`'s CART inducer with a continuous target
//! ([`dls_learn::RegressionTree`]): sweep latency is fitted as
//! `log2(nanoseconds)` over the model's nine influencing parameters
//! (the paper's Table IV features, via [`dls_learn::featurize`]) plus
//! `log2(batch size)`. Each served model is calibrated once at executor
//! start-up by timing real blocked sweeps at a handful of batch sizes —
//! cheap (microseconds per probe) because the probes are single-nnz
//! vectors against the model's own scheduled matrix.
//!
//! The estimator feeds two consumers:
//!
//! * **Predictive admission** — the executor projects a new request's
//!   completion (queued weight ahead, chunked into sweeps, plus its own
//!   sweep and the gather window) and refuses with `Busy` *at submit time*
//!   when the projection already overshoots the deadline, instead of
//!   letting the request queue up only to time out.
//! * **[`crate::discipline::SloAware`]** — the predicted full-block sweep
//!   duration discounts interactive slack, so a sweep started "in time"
//!   also finishes in time.

use crate::registry::ServedModel;
use dls_learn::{featurize, RegressionTree, TreeParams, NUM_FEATURES};
use dls_sparse::SparseVec;
use dls_svm::PredictWorkspace;
use std::time::{Duration, Instant};

/// Feature width: the nine-parameter matrix fingerprint (plus density)
/// from `dls-learn`, then `log2(batch)`.
pub const LATENCY_FEATURES: usize = NUM_FEATURES + 1;

/// Batch sizes probed per model during calibration.
pub const CALIBRATION_BATCHES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// One calibration observation: feature vector and `log2(nanoseconds)`.
pub type LatencySample = ([f64; LATENCY_FEATURES], f64);

/// Builds the estimator's feature vector for one (model, batch) pair.
pub fn latency_features(
    model_feats: &[f64; NUM_FEATURES],
    batch: usize,
) -> [f64; LATENCY_FEATURES] {
    let mut x = [0.0; LATENCY_FEATURES];
    x[..NUM_FEATURES].copy_from_slice(model_feats);
    x[NUM_FEATURES] = (batch.max(1) as f64).log2();
    x
}

/// Predicted time to execute `total_weight` queued vectors, chunked into
/// sweeps of at most `max_block` — the backlog term of the admission
/// projection. `sweep` is whichever estimator's per-sweep prediction is in
/// force; `None` from it (no estimator) is `None` here.
pub fn predict_backlog(
    sweep: impl Fn(usize) -> Option<Duration>,
    total_weight: usize,
    max_block: usize,
) -> Option<Duration> {
    let max_block = max_block.max(1);
    let full = total_weight / max_block;
    let rem = total_weight % max_block;
    let mut out = sweep(max_block)? * full as u32;
    if rem > 0 {
        out += sweep(rem)?;
    }
    Some(out)
}

/// Times real sweeps of `served`'s scheduled matrix at each calibration
/// batch size. Returns an empty vec for constant models (no support
/// matrix — nothing to predict, and nothing worth admission-controlling).
pub fn calibrate_model(served: &ServedModel, ws: &mut PredictWorkspace) -> Vec<LatencySample> {
    let Some(mf) = served.matrix_features() else {
        return Vec::new();
    };
    let model_feats = featurize(mf);
    let dim = served.dim().max(1);
    let mut samples = Vec::with_capacity(CALIBRATION_BATCHES.len());
    for &batch in &CALIBRATION_BATCHES {
        let probes: Vec<SparseVec> =
            (0..batch).map(|i| SparseVec::new(dim, vec![i % dim], vec![1.0])).collect();
        served.predict(&probes, ws); // warm caches / first-touch
        let mut best = u64::MAX;
        for _ in 0..2 {
            let start = Instant::now();
            served.predict(&probes, ws);
            best = best.min(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        samples.push((latency_features(&model_feats, batch), (best.max(1) as f64).log2()));
    }
    samples
}

/// A regression tree over [`LATENCY_FEATURES`]-wide vectors predicting
/// `log2(sweep nanoseconds)`.
#[derive(Debug, Clone)]
pub struct TreeLatencyEstimator {
    tree: RegressionTree,
}

impl TreeLatencyEstimator {
    /// Fits the tree on calibration samples (typically the concatenation
    /// of every served model's [`calibrate_model`] output). Returns `None`
    /// on an empty sample set — admission control then stays disabled.
    pub fn fit(samples: &[LatencySample]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let xs: Vec<&[f64; LATENCY_FEATURES]> = samples.iter().map(|(x, _)| x).collect();
        let ys: Vec<f64> = samples.iter().map(|&(_, y)| y).collect();
        Some(Self { tree: RegressionTree::train(&xs, &ys, TreeParams::REGRESSOR) })
    }

    /// The fitted tree, for structural checks.
    pub fn tree(&self) -> &RegressionTree {
        &self.tree
    }

    /// Predicted duration of one sweep of `batch` vectors against a model
    /// with the given feature fingerprint.
    pub fn predict_sweep(&self, model_feats: &[f64; NUM_FEATURES], batch: usize) -> Duration {
        let log2_ns = self.tree.predict(&latency_features(model_feats, batch));
        // 2^50 ns ≈ 13 days: a safe ceiling against pathological fits.
        Duration::from_nanos(log2_ns.clamp(0.0, 50.0).exp2() as u64)
    }
}

/// A closed-form fallback estimator: no calibration, no tree — just a
/// conservative work model over the matrix fingerprint, in the spirit of
/// the lightweight analytic selectors (Elafrou et al.) the ROADMAP cites
/// as the degradation target. One blocked sweep of `batch` vectors visits
/// every stored nonzero once per vector, so
/// `ns ≈ base + nnz · batch · ns_per_fma`. The brown-out controller swaps
/// this in when the learned tree's own serving path is suspect or the
/// service is overloaded: it always answers, never needs the workers, and
/// deliberately over-estimates so admission turns pessimistic exactly when
/// the service is struggling.
#[derive(Debug, Clone)]
pub struct AnalyticLatencyEstimator {
    /// Fixed per-sweep overhead in nanoseconds.
    pub base_ns: f64,
    /// Nanoseconds per (nonzero × vector) multiply-accumulate.
    pub ns_per_fma: f64,
}

impl Default for AnalyticLatencyEstimator {
    fn default() -> Self {
        // ~1 ns per FMA is a few× worse than any cache-resident sweep on a
        // current host: pessimistic by design.
        Self { base_ns: 2_000.0, ns_per_fma: 1.0 }
    }
}

impl AnalyticLatencyEstimator {
    /// Predicted duration of one sweep of `batch` vectors. Same signature
    /// as [`TreeLatencyEstimator::predict_sweep`], so the executor can
    /// swap estimators without reshaping its admission projection.
    pub fn predict_sweep(&self, model_feats: &[f64; NUM_FEATURES], batch: usize) -> Duration {
        // featurize() stores log2(nnz + 1) at index 2.
        let nnz = model_feats[2].exp2() - 1.0;
        let ns = self.base_ns + nnz.max(0.0) * batch.max(1) as f64 * self.ns_per_fma;
        Duration::from_nanos(ns.clamp(0.0, 1e18) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_core::LayoutScheduler;
    use dls_svm::{KernelKind, SvmModel};

    fn toy_served() -> ServedModel {
        let svs: Vec<SparseVec> =
            (0..4).map(|i| SparseVec::new(8, vec![i, i + 4], vec![1.0, -0.5])).collect();
        let model = SvmModel::new(KernelKind::Linear, svs, vec![1.0, -1.0, 0.5, -0.25], 0.1);
        ServedModel::new("toy", model, &LayoutScheduler::new())
    }

    #[test]
    fn calibration_produces_one_sample_per_batch_size() {
        let served = toy_served();
        let mut ws = PredictWorkspace::new();
        let samples = calibrate_model(&served, &mut ws);
        assert_eq!(samples.len(), CALIBRATION_BATCHES.len());
        for (x, y) in &samples {
            assert_eq!(x.len(), LATENCY_FEATURES);
            assert!(*y > 0.0, "log2(ns) must be positive, got {y}");
        }
        // The batch feature varies across samples; the model fingerprint
        // does not.
        assert_ne!(samples[0].0[NUM_FEATURES], samples[5].0[NUM_FEATURES]);
        assert_eq!(samples[0].0[..NUM_FEATURES], samples[5].0[..NUM_FEATURES]);
    }

    #[test]
    fn constant_models_yield_no_samples() {
        let served = ServedModel::new(
            "const",
            SvmModel::new(KernelKind::Linear, vec![], vec![], 1.0),
            &LayoutScheduler::new(),
        );
        assert!(calibrate_model(&served, &mut PredictWorkspace::new()).is_empty());
        assert!(TreeLatencyEstimator::fit(&[]).is_none());
    }

    #[test]
    fn fitted_estimator_interpolates_its_calibration_curve() {
        let served = toy_served();
        let mut ws = PredictWorkspace::new();
        let samples = calibrate_model(&served, &mut ws);
        let est = TreeLatencyEstimator::fit(&samples).unwrap();
        let feats = featurize(served.matrix_features().unwrap());
        // Exact recall at the calibrated points (leaves are per-sample).
        for (&batch, (_, y)) in CALIBRATION_BATCHES.iter().zip(&samples) {
            let got = est.predict_sweep(&feats, batch).as_nanos() as f64;
            let want = y.exp2();
            assert!((got - want).abs() <= want * 0.5 + 2.0, "batch {batch}: {got} vs {want}");
        }
        // Predictions stay sane between and beyond calibrated sizes.
        assert!(est.predict_sweep(&feats, 3) >= est.predict_sweep(&feats, 1) / 4);
        assert!(est.predict_sweep(&feats, 64) < Duration::from_secs(1));
    }

    #[test]
    fn backlog_projection_chunks_into_sweeps() {
        let feats = [0.0; NUM_FEATURES];
        // A synthetic constant-latency estimator: every sweep ≈ 2^10 ns.
        let samples: Vec<LatencySample> =
            (1..=4).map(|b| (latency_features(&feats, b), 10.0)).collect();
        let est = TreeLatencyEstimator::fit(&samples).unwrap();
        let one = est.predict_sweep(&feats, 4);
        // 10 vectors in blocks of 4 = 2 full sweeps + 1 remainder sweep.
        let sweep = |b| Some(est.predict_sweep(&feats, b));
        let backlog = predict_backlog(sweep, 10, 4).unwrap();
        assert!(backlog >= one * 2, "{backlog:?} vs {one:?}");
        assert!(backlog <= one * 4, "{backlog:?} vs {one:?}");
        assert_eq!(predict_backlog(sweep, 0, 4), Some(Duration::ZERO));
        assert_eq!(predict_backlog(|_| None, 10, 4), None, "no estimator, no projection");
    }

    #[test]
    fn analytic_estimator_scales_with_nnz_and_batch() {
        let est = AnalyticLatencyEstimator::default();
        let feats_of = |nnz: f64| {
            let mut f = [0.0; NUM_FEATURES];
            f[2] = (nnz + 1.0).log2();
            f
        };
        let small = est.predict_sweep(&feats_of(100.0), 1);
        let bigger_matrix = est.predict_sweep(&feats_of(10_000.0), 1);
        let bigger_batch = est.predict_sweep(&feats_of(100.0), 32);
        assert!(bigger_matrix > small, "{bigger_matrix:?} vs {small:?}");
        assert!(bigger_batch > small, "{bigger_batch:?} vs {small:?}");
        // Backlog chunks like the tree's projection.
        let one = est.predict_sweep(&feats_of(100.0), 4);
        let sweep = |b| Some(est.predict_sweep(&feats_of(100.0), b));
        let backlog = predict_backlog(sweep, 10, 4).unwrap();
        assert!(backlog >= one * 2 && backlog <= one * 4, "{backlog:?} vs {one:?}");
        assert_eq!(predict_backlog(sweep, 0, 4), Some(Duration::ZERO));
        // Degenerate fingerprints never panic or go negative.
        assert!(est.predict_sweep(&[0.0; NUM_FEATURES], 1) >= Duration::ZERO);
    }
}
