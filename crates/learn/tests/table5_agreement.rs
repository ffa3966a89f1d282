//! Integration pin: the learned selector vs the paper's rule-based system
//! on synthetic twins of all eleven Table V datasets.
//!
//! The model is trained deterministically (full grid, analytic flat-profile
//! labels, default seed), so both selectors' picks are stable and can be
//! pinned. Where the two disagree, the disagreement is documented inline
//! with the oracle winner (fastest format under the same flat storage
//! oracle the tree was trained against) — the point of the pin is to make
//! any future drift in either selector loud, not to hide it.

use dls_core::{
    BandwidthProfile, CostModelSelector, LayoutScheduler, LearnedSelector, SelectionStrategy,
};
use dls_data::specs::PAPER_DATASETS;
use dls_data::synth::generate;
use dls_learn::{train_selector, LabelMode, TrainConfig};
use dls_sparse::{Format, MatrixFeatures};

/// Same per-dataset scaling the bench harness uses: dense giants shrink,
/// sparse sets run near full size (format choice depends on the influencing
/// parameters, not absolute size).
fn scale_of(name: &str) -> usize {
    match name {
        "gisette" => 8,
        "epsilon" => 400,
        "dna" => 2_000,
        "sector" => 4,
        _ => 1,
    }
}

#[test]
fn learned_selector_vs_rules_on_table5_twins() {
    let cfg = TrainConfig { mode: LabelMode::analytic_flat(), ..Default::default() };
    let learned = LearnedSelector::new(train_selector(&cfg).model);
    let rules = LayoutScheduler::with_strategy(SelectionStrategy::RuleBased);
    let oracle = CostModelSelector::with_bandwidth(BandwidthProfile::FLAT);

    let mut actual = Vec::new();
    for spec in &PAPER_DATASETS {
        let t = generate(&spec.scaled(scale_of(spec.name)), 42);
        let f = MatrixFeatures::from_triplets(&t);
        let rule_pick = rules.select_only(&t).chosen;
        let learned_pick = learned.predict(&f);
        let oracle_pick = oracle
            .score_all(&f)
            .iter()
            .min_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
            .unwrap()
            .format;
        actual.push((spec.name, rule_pick, learned_pick, oracle_pick));
    }

    // Pinned picks: (dataset, rules, learned, flat-storage oracle).
    //
    // The learned selector agrees with the oracle on all eleven twins. The
    // paper's rules disagree with the oracle on three, documented here with
    // the oracle winner:
    //
    // * mnist, sector — the COO rule fires on high row-length imbalance
    //   (vdim ≫ adim), but under flat-bandwidth storage CSR is smaller
    //   whenever nnz > M (3·nnz vs 2·nnz + M + 1). The rule encodes the
    //   paper's measured KNL behaviour, not the storage bound.
    // * connect-4 — the density rule tips to DEN at d ≈ 0.34 on a wide
    //   threshold, but the rows are perfectly uniform (vdim = 0) so ELL
    //   stores 2·M·mdim < M·N and wins the storage oracle.
    let expected = vec![
        ("adult", Format::Ell, Format::Ell, Format::Ell),
        ("breast_cancer", Format::Den, Format::Den, Format::Den),
        ("aloi", Format::Csr, Format::Csr, Format::Csr),
        ("gisette", Format::Den, Format::Den, Format::Den),
        ("mnist", Format::Coo, Format::Csr, Format::Csr),
        ("sector", Format::Coo, Format::Csr, Format::Csr),
        ("epsilon", Format::Den, Format::Den, Format::Den),
        ("leukemia", Format::Den, Format::Den, Format::Den),
        ("connect-4", Format::Den, Format::Ell, Format::Ell),
        ("trefethen", Format::Dia, Format::Dia, Format::Dia),
        ("dna", Format::Den, Format::Den, Format::Den),
    ];

    let render = |rows: &[(&str, Format, Format, Format)]| {
        rows.iter()
            .map(|(n, r, l, o)| format!("(\"{n}\", {r:?}, {l:?}, {o:?})"))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    assert_eq!(actual, expected, "\nactual rows:\n{}\n", render(&actual));
}
