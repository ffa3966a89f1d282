//! [`LearnedSelector`]: a trained model behind the scheduler's
//! [`FormatSelector`] extension point.
//!
//! Drop-in alternative to the rule-based/cost-model/empirical strategies:
//! `LayoutScheduler::with_selector(LearnedSelector::new(model))`. Composes
//! with everything else built on the trait — wrap it in a `TuningCache` to
//! memoise predictions. Models are trained by `dls-learn`.

use crate::bandwidth::BandwidthProfile;
use crate::cost::CostModelSelector;
use crate::features::{featurize, FEATURE_NAMES};
use crate::persist::{ModelError, TrainedModel};
use crate::report::SelectionReport;
use crate::scheduler::FormatSelector;
use dls_sparse::{Format, MatrixFeatures, TripletMatrix, MAX_SMSV_BLOCK};
use std::path::Path;

/// Format selector backed by a trained CART model.
#[derive(Debug)]
pub struct LearnedSelector {
    model: TrainedModel,
}

impl LearnedSelector {
    /// Wraps a trained model; the model decides every selection.
    pub fn new(model: TrainedModel) -> Self {
        Self { model }
    }

    /// Loads a model file (as written by `dls train-selector`).
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        TrainedModel::load_file(path).map(Self::new)
    }

    /// The underlying model (for introspection, e.g. `dls selector-info`).
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Predicted format for raw features, without building a report.
    pub fn predict(&self, f: &MatrixFeatures) -> Format {
        self.model.predict(&featurize(f))
    }

    /// Tuned kernel block size for `format` on a matrix with features `f`:
    /// the learned per-(format, dataset) block when the model carries block
    /// trees, the engine default otherwise.
    pub fn tuned_block(&self, format: Format, f: &MatrixFeatures) -> usize {
        match &self.model.blocks {
            Some(blocks) => blocks.tuned_block(format, &featurize(f)),
            None => MAX_SMSV_BLOCK,
        }
    }
}

impl FormatSelector for LearnedSelector {
    fn select(&self, _t: &TripletMatrix, f: &MatrixFeatures) -> SelectionReport {
        let (chosen, path) = self.model.tree.explain(&featurize(f), &FEATURE_NAMES);
        // The tree emits a class, not per-format scores; attach the flat
        // storage model's predicted times so downstream consumers (regret
        // reports, telemetry) still see a full ranking. The *chosen* format
        // is the tree's — scores are advisory.
        SelectionReport {
            chosen,
            block: self.tuned_block(chosen, f),
            features: *f,
            scores: CostModelSelector::with_bandwidth(BandwidthProfile::FLAT).score_all(f),
            reason: format!("learned tree: {path}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayoutScheduler;
    use dls_data::controlled::diag_matrix;

    #[test]
    fn the_scheduler_runs_a_committed_model() {
        let doc = include_str!("../../learn/tests/fixtures/quick_analytic.json");
        let model = TrainedModel::from_json(doc).unwrap();
        let scheduler = LayoutScheduler::with_selector(LearnedSelector::new(model));
        let scheduled = scheduler.schedule(&diag_matrix(128, 128, 256, 2, 1));
        let r = scheduled.report();
        assert_eq!(r.chosen, Format::Dia, "{}", r.reason);
        assert!(r.reason.starts_with("learned tree:"), "{}", r.reason);
        assert_eq!(r.scores.len(), Format::BASIC.len());
    }
}
