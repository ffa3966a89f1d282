//! [`LearnedSelector`]: a trained model behind the scheduler's
//! [`FormatSelector`] extension point.
//!
//! Drop-in alternative to the rule-based/cost-model/empirical strategies:
//! `LayoutScheduler::with_selector(LearnedSelector::new(model))`. Composes
//! with everything else built on the trait — wrap it in a `TuningCache` to
//! memoise predictions, or hand it to a `ReactiveScheduler` as the
//! re-scheduling strategy.
//!
//! With a confidence gate ([`LearnedSelector::with_gate`]) the model only
//! decides when its confidence (forest vote share, or leaf purity for a
//! single tree) clears the threshold; below it the paper's analytic rules
//! decide (cf. SNIPPETS.md `MLLoopOptSelector`), and both outcomes are
//! counted for telemetry. This is the form `dls-serve`'s online loop
//! publishes.

use crate::features::{featurize, FEATURE_NAMES, NUM_FEATURES};
use crate::persist::TrainedModel;
use dls_core::{
    BandwidthProfile, CostModelSelector, FormatScore, FormatSelector, RuleBasedSelector,
    SelectionReport,
};
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
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, crate::persist::ModelError> {
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
        let cost = CostModelSelector::with_bandwidth(BandwidthProfile::FLAT);
        let scores: Vec<FormatScore> = Format::BASIC
            .iter()
            .map(|&fmt| FormatScore::new(fmt, cost.predicted_time(fmt, f)))
            .collect();
        SelectionReport {
            chosen,
            block: self.tuned_block(chosen, f),
            features: *f,
            scores,
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
    use crate::grid::{training_grid, GridConfig};
    use crate::label::{label_case, LabelMode};
    use crate::persist::ModelMeta;
    use crate::tree::{DecisionTree, TreeParams};
    use dls_core::LayoutScheduler;
    use dls_core::TuningCache;
    use dls_data::controlled::diag_matrix;

    fn quick_model() -> TrainedModel {
        // Full grid, analytic labels: cheap (no timing) and deterministic,
        // with every format's home region represented.
        let cases = training_grid(&GridConfig::default());
        let samples: Vec<_> = cases
            .iter()
            .map(|c| label_case(&c.desc, &c.matrix, LabelMode::analytic_flat()))
            .collect();
        let xs: Vec<_> = samples.iter().map(|s| s.x).collect();
        let ys: Vec<_> = samples.iter().map(|s| s.label).collect();
        let tree = DecisionTree::train(&xs, &ys, TreeParams::CLASSIFIER);
        TrainedModel {
            meta: ModelMeta {
                seed: GridConfig::default().seed,
                grid: "full".into(),
                samples: samples.len(),
                measured: 0,
                analytic_fallback: 0,
                analytic: samples.len(),
            },
            tree,
            blocks: None,
            ensemble: Vec::new(),
        }
    }

    #[test]
    fn slots_into_the_scheduler() {
        let sel = LearnedSelector::new(quick_model());
        let scheduler = LayoutScheduler::with_selector(sel);
        let t = diag_matrix(128, 128, 256, 2, 1);
        let scheduled = scheduler.schedule(&t);
        let r = scheduled.report();
        assert!(Format::BASIC.contains(&r.chosen));
        assert!(r.reason.starts_with("learned tree:"), "{}", r.reason);
        assert_eq!(r.scores.len(), Format::BASIC.len());
        // A near-pure diagonal matrix is squarely in the training
        // distribution: the analytic oracle labels it DIA and the tree must
        // have learned that region.
        assert_eq!(r.chosen, Format::Dia, "{}", r.reason);
    }

    #[test]
    fn report_explains_the_decision_path() {
        let sel = LearnedSelector::new(quick_model());
        let t = diag_matrix(128, 128, 256, 2, 2);
        let f = MatrixFeatures::from_triplets(&t);
        let r = sel.select(&t, &f);
        assert!(r.reason.contains("=>"), "path rendered: {}", r.reason);
        assert!(r.reason.contains("training"), "leaf confidence rendered: {}", r.reason);
    }

    #[test]
    fn composes_with_the_tuning_cache() {
        let mut cached = TuningCache::new(LearnedSelector::new(quick_model()));
        let t = diag_matrix(128, 128, 256, 2, 3);
        let f = MatrixFeatures::from_triplets(&t);
        let first = cached.select(&t, &f);
        let second = cached.select(&t, &f);
        assert_eq!(first.chosen, second.chosen);
        assert_eq!(cached.hits(), 1);
        assert_eq!(cached.misses(), 1);
    }

    #[test]
    fn tuned_block_lands_in_the_report() {
        use crate::block::{analytic_block, BlockModel, BlockSample, BLOCK_CANDIDATES};
        use crate::features::featurize;
        let mut model = quick_model();
        // Without block trees: engine default for the chosen format.
        let t = diag_matrix(128, 128, 256, 2, 4);
        let f = MatrixFeatures::from_triplets(&t);
        let sel = LearnedSelector::new(model.clone());
        assert_eq!(sel.select(&t, &f).block, MAX_SMSV_BLOCK);
        // With block trees: the learned tuned block.
        let mut samples = Vec::new();
        for case in training_grid(&GridConfig { quick: true, ..Default::default() }) {
            let cf = MatrixFeatures::from_triplets(&case.matrix);
            for &fmt in &Format::ALL {
                samples.push(BlockSample {
                    format: fmt,
                    x: featurize(&cf),
                    block: analytic_block(&cf),
                });
            }
        }
        model.blocks = Some(BlockModel::train(&samples));
        let sel = LearnedSelector::new(model);
        let r = sel.select(&t, &f);
        assert_eq!(r.block, sel.tuned_block(r.chosen, &f));
        assert!(BLOCK_CANDIDATES.contains(&r.block), "block {} is a candidate", r.block);
    }

    #[test]
    fn predict_agrees_with_select() {
        let sel = LearnedSelector::new(quick_model());
        for case in training_grid(&GridConfig { quick: true, ..Default::default() }) {
            let f = MatrixFeatures::from_triplets(&case.matrix);
            assert_eq!(sel.predict(&f), sel.select(&case.matrix, &f).chosen, "{}", case.desc);
        }
    }

    #[test]
    fn gate_falls_back_to_the_rules_below_its_confidence() {
        let t = diag_matrix(128, 128, 256, 2, 1);
        let f = MatrixFeatures::from_triplets(&t);

        // Gate at 0: the learned model always decides.
        let trusting = LearnedSelector::with_gate(quick_model(), 0.0);
        let r = trusting.select(&t, &f);
        assert!(r.reason.starts_with("hybrid learned (tree"), "{}", r.reason);
        assert_eq!(r.chosen, LearnedSelector::new(quick_model()).select(&t, &f).chosen);
        assert_eq!(trusting.gate_counts(), (1, 0));

        // Gate above 1: everything falls back to the rules.
        let skeptical = LearnedSelector::with_gate(quick_model(), 1.1);
        let r = skeptical.select(&t, &f);
        assert!(r.reason.starts_with("hybrid rule fallback"), "{}", r.reason);
        assert_eq!(skeptical.gate_counts(), (1, 1));
        // The rules know a diagonal matrix when they see one.
        assert_eq!(r.chosen, Format::Dia, "{}", r.reason);
        // Ungated selectors count nothing.
        assert_eq!(LearnedSelector::new(quick_model()).gate_counts(), (0, 0));
    }
}
