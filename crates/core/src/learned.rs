//! [`LearnedSelector`]: a trained model behind the scheduler's
//! [`FormatSelector`] extension point.
//!
//! Drop-in alternative to the rule-based/cost-model/empirical strategies:
//! `LayoutScheduler::with_selector(LearnedSelector::new(model))`. Composes
//! with everything else built on the trait — wrap it in a `TuningCache` to
//! memoise predictions, or hand it to a `ReactiveScheduler` as the
//! re-scheduling strategy. Models are trained by `dls-learn`.
//!
//! With a confidence gate ([`LearnedSelector::with_gate`]) the model only
//! decides when its confidence (forest vote share, or leaf purity for a
//! single tree) clears the threshold; below it the paper's analytic rules
//! decide (cf. SNIPPETS.md `MLLoopOptSelector`), and both outcomes are
//! counted for telemetry. This is the form `dls-serve`'s online loop
//! publishes.

use crate::bandwidth::BandwidthProfile;
use crate::cost::CostModelSelector;
use crate::decision::RuleBasedSelector;
use crate::features::{featurize, FEATURE_NAMES, NUM_FEATURES};
use crate::persist::{ModelError, TrainedModel};
use crate::report::SelectionReport;
use crate::scheduler::FormatSelector;
use dls_sparse::{Format, MatrixFeatures, TripletMatrix, MAX_SMSV_BLOCK};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Confidence gate the online loop publishes with: a forest of 5 needs a
/// 4-1 vote (or a leaf at 75% purity) for the learned pick to stand on its
/// own.
pub const DEFAULT_MIN_CONFIDENCE: f64 = 0.75;

/// The rules fallback of a gated selector, with its counters.
#[derive(Debug)]
struct Gate {
    min_confidence: f64,
    rules: RuleBasedSelector,
    decisions: AtomicU64,
    fallbacks: AtomicU64,
}

/// Format selector backed by a trained CART model (tree or forest).
#[derive(Debug)]
pub struct LearnedSelector {
    model: TrainedModel,
    gate: Option<Gate>,
}

impl LearnedSelector {
    /// Wraps a trained model; the model decides every selection.
    pub fn new(model: TrainedModel) -> Self {
        Self { model, gate: None }
    }

    /// Wraps a trained model behind a confidence gate: selections whose
    /// confidence is below `min_confidence` fall back to the host-tuned
    /// analytic rules.
    pub fn with_gate(model: TrainedModel, min_confidence: f64) -> Self {
        let gate = Gate {
            min_confidence,
            rules: RuleBasedSelector::for_host(),
            decisions: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        };
        Self { model, gate: Some(gate) }
    }

    /// Loads a model file (as written by `dls train-selector`).
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        TrainedModel::load_file(path).map(Self::new)
    }

    /// The underlying model (for introspection, e.g. `dls selector-info`).
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// `(selections made, selections that fell back to the rules)` of a
    /// gated selector; zeros without a gate.
    pub fn gate_counts(&self) -> (u64, u64) {
        self.gate.as_ref().map_or((0, 0), |g| {
            (g.decisions.load(Ordering::Relaxed), g.fallbacks.load(Ordering::Relaxed))
        })
    }

    /// Predicted format for raw features, without building a report.
    /// Ensemble-aware: forest models vote, single-tree models walk the
    /// tree.
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

    /// The model's own pick for `f` (featurised as `x`), with its
    /// explanation.
    fn learned_report(&self, f: &MatrixFeatures, x: &[f64; NUM_FEATURES]) -> SelectionReport {
        let (chosen, path) = if self.model.ensemble.is_empty() {
            self.model.tree.explain(x, &FEATURE_NAMES)
        } else {
            // Forest models vote; the explanation is the vote tally rather
            // than one tree's path.
            let n = self.model.ensemble.len();
            let (chosen, confidence) = self.model.predict_with_confidence(x);
            let votes = (confidence * n as f64).round() as usize;
            (chosen, format!("forest vote {votes}/{n} for {chosen}"))
        };
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

impl FormatSelector for LearnedSelector {
    fn select(&self, t: &TripletMatrix, f: &MatrixFeatures) -> SelectionReport {
        let x = featurize(f);
        let Some(gate) = &self.gate else {
            return self.learned_report(f, &x);
        };
        gate.decisions.fetch_add(1, Ordering::Relaxed);
        let (format, confidence) = self.model.predict_with_confidence(&x);
        let min = gate.min_confidence;
        if confidence >= min {
            let mut report = self.learned_report(f, &x);
            report.reason = format!(
                "hybrid learned ({}, confidence {confidence:.2} >= {min:.2}): {}",
                if self.model.ensemble.is_empty() { "tree" } else { "forest" },
                report.reason,
            );
            report
        } else {
            gate.fallbacks.fetch_add(1, Ordering::Relaxed);
            let mut report = gate.rules.select(t, f);
            report.block = self.tuned_block(report.chosen, f);
            report.reason = format!(
                "hybrid rule fallback (confidence {confidence:.2} < {min:.2} for {format}): {}",
                report.reason,
            );
            report
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
