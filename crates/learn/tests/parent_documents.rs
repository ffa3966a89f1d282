//! Model documents written by the build *before* the two inducers, the two
//! learned selectors and the two trainers were merged (ISSUE 16), committed
//! as fixtures: this build must train the same models from the same inputs
//! and read and write the same bytes. The two offline fixtures are those
//! documents minus the `"blocks"` members of the three formats deleted in
//! ISSUE 21; every other byte is as written. Regenerate on the parent
//! commit if a host's `log2` rounds differently:
//! `dls train-selector --quick --analytic` / `--analytic`.
//!
//! `online_forest.json` is a document the deleted online retrainer wrote:
//! a tree plus a bagged forest. This build no longer votes, so it must
//! refuse that document by naming the section rather than read its tree
//! alone.

use dls_core::{featurize, ModelError, TrainedModel};
use dls_learn::{train_selector, training_grid, GridConfig, LabelMode, TrainConfig};
use dls_sparse::{Format, MatrixFeatures};

fn read_fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).expect("fixture is committed")
}

fn check(fixture: &str, fresh: &TrainedModel) {
    let doc = read_fixture(fixture);
    let loaded = TrainedModel::from_json(&doc).expect("parent's document must load");
    assert_eq!(&loaded, fresh, "{fixture}: freshly trained model differs");
    assert_eq!(loaded.to_json(), doc, "{fixture}: re-serialisation differs");
    for case in training_grid(&GridConfig::default()) {
        let x = featurize(&MatrixFeatures::from_triplets(&case.matrix));
        assert_eq!(loaded.predict(&x), fresh.predict(&x));
        if let (Some(loaded), Some(fresh)) = (&loaded.blocks, &fresh.blocks) {
            for &fmt in &Format::ALL {
                assert_eq!(loaded.tuned_block(fmt, &x), fresh.tuned_block(fmt, &x));
            }
        }
    }
}

#[test]
fn offline_documents_are_unchanged() {
    for (fixture, quick) in [("quick_analytic.json", true), ("full_analytic.json", false)] {
        let cfg = TrainConfig { quick, mode: LabelMode::analytic_flat(), ..Default::default() };
        check(fixture, &train_selector(&cfg).model);
    }
}

#[test]
fn forest_document_is_refused_by_name() {
    let err = TrainedModel::from_json(&read_fixture("online_forest.json")).unwrap_err();
    assert!(matches!(&err, ModelError::Field { path, .. } if path == "ensemble"), "{err:?}");
    assert!(err.to_string().contains("ensemble"), "{err}");
}
