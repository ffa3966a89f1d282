//! `dls_core::LearnedSelector` over models trained on this crate's grid:
//! it slots into the scheduler and the tuning cache, explains its path,
//! and reports the tuned block.

use dls_core::{
    featurize, BlockModel, BlockSample, DecisionTree, FormatSelector, LayoutScheduler,
    LearnedSelector, ModelMeta, TrainedModel, TreeParams, TuningCache,
};
use dls_data::controlled::diag_matrix;
use dls_learn::{
    analytic_block, label_case, training_grid, GridConfig, LabelMode, BLOCK_CANDIDATES,
};
use dls_sparse::{Format, MatrixFeatures, MAX_SMSV_BLOCK};

fn quick_model() -> TrainedModel {
    // Full grid, analytic labels: cheap (no timing) and deterministic,
    // with every format's home region represented.
    let cases = training_grid(&GridConfig::default());
    let samples: Vec<_> =
        cases.iter().map(|c| label_case(&c.desc, &c.matrix, LabelMode::analytic_flat())).collect();
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
