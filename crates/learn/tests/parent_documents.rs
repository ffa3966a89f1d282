//! Model documents written by the build *before* the two inducers, the two
//! learned selectors and the two trainers were merged (ISSUE 16), committed
//! as fixtures: this build must train the same models from the same inputs
//! and read and write the same bytes. The two offline fixtures are those
//! documents minus the `"blocks"` members of the three formats deleted in
//! ISSUE 21; every other byte is as written. Regenerate on the parent
//! commit if a host's `log2` rounds differently:
//! `dls train-selector --quick --analytic` / `--analytic`, and
//! `retrain_online` twice over [`observations`] on the quick grid.

use dls_core::{featurize, TrainedModel};
use dls_data::controlled::mdim_matrix;
use dls_learn::{
    retrain_online, train_selector, training_grid, GridConfig, LabelMode, LabeledObservation,
    OnlineTrainConfig, TrainConfig,
};
use dls_sparse::{Format, MatrixFeatures};

fn check(fixture: &str, fresh: &TrainedModel) {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(&path).expect("fixture is committed");
    let loaded = TrainedModel::from_json(&doc).expect("parent's document must load");
    assert_eq!(&loaded, fresh, "{fixture}: freshly trained model differs");
    assert_eq!(loaded.to_json(), doc, "{fixture}: re-serialisation differs");
    for case in training_grid(&GridConfig::default()) {
        let x = featurize(&MatrixFeatures::from_triplets(&case.matrix));
        assert_eq!(loaded.predict_with_confidence(&x), fresh.predict_with_confidence(&x));
        if let (Some(loaded), Some(fresh)) = (&loaded.blocks, &fresh.blocks) {
            for &fmt in &Format::ALL {
                assert_eq!(loaded.tuned_block(fmt, &x), fresh.tuned_block(fmt, &x));
            }
        }
    }
}

/// The production log behind `online_forest.json`: two matrices seen under
/// one format, one under two (measured, fallback and recency weights all
/// exercised).
fn observations() -> Vec<LabeledObservation> {
    [
        (200, 400, Format::Csr, 900),
        (200, 400, Format::Dia, 90_000),
        (96, 192, Format::Ell, 2_000),
        (128, 256, Format::Csr, 1_000),
        (128, 256, Format::Csr, 1_200),
    ]
    .iter()
    .enumerate()
    .map(|(seq, &(m, nnz, format, nanos))| LabeledObservation {
        seq: seq as u64,
        features: MatrixFeatures::from_triplets(&mdim_matrix(m, m, nnz, m, 2)),
        format,
        block: 8,
        batch: 1,
        nanos,
    })
    .collect()
}

#[test]
fn offline_documents_are_unchanged() {
    for (fixture, quick) in [("quick_analytic.json", true), ("full_analytic.json", false)] {
        let cfg = TrainConfig { quick, mode: LabelMode::analytic_flat(), ..Default::default() };
        check(fixture, &train_selector(&cfg).model);
    }
}

#[test]
fn plateau_forest_document_is_unchanged() {
    let cfg = OnlineTrainConfig { quick_grid: true, ..Default::default() };
    let first = retrain_online(&cfg, &observations(), None);
    let second = retrain_online(&cfg, &observations(), Some(first.holdout_accuracy));
    assert!(second.ensemble_used, "second cycle plateaus into the forest");
    assert_eq!((second.model.meta.measured, second.model.meta.analytic_fallback), (9, 6));
    check("online_forest.json", &second.model);
}
