//! Pin: the nine influencing parameters and the rule-based pick for the
//! eleven Table V twins, bit for bit, and every other deterministic
//! strategy's pick beside it.
//!
//! The parameters and rule picks were recorded at commit b1e9d95, before
//! the feature scan was fused into one pass and the constructors stopped
//! cloning their input. The other strategies' picks were recorded at
//! commit 936b5f0, before learned inference moved into this crate and the
//! selector knobs became constants. A rewrite of either path must leave
//! every decision, and every float the decision rests on, exactly where it
//! was.

use dls_core::{FormatSelector, LayoutScheduler, LearnedSelector, SelectionStrategy, TrainedModel};
use dls_data::specs::PAPER_DATASETS;
use dls_data::synth::generate;
use dls_sparse::{Format, MatrixFeatures, MAX_SMSV_BLOCK};

/// The per-dataset scaling the bench harness uses (dense giants shrink).
fn scale_of(name: &str) -> usize {
    match name {
        "gisette" => 8,
        "epsilon" => 400,
        "dna" => 2_000,
        "sector" => 4,
        _ => 1,
    }
}

/// `(dataset, pick, [m, n, nnz, ndig, mdim], [dnnz, adim, vdim, density]
/// as bits)` at seed 42.
#[rustfmt::skip]
const PINNED: [(&str, Format, [usize; 5], [u64; 4]); 11] = [
    ("adult", Format::Ell, [2265, 119, 30792, 2368, 14], [0x402a01bacf914c1c, 0x402b307cc75ff526, 0x3fd2df8de3186dc9, 0x3fbd3ee92c8107b1]),
    ("breast_cancer", Format::Den, [38, 7129, 270902, 7166, 7129], [0x4042e6e2c70e37df, 0x40bbd90000000000, 0x0000000000000000, 0x3ff0000000000000]),
    ("aloi", Format::Csr, [1000, 128, 31997, 1123, 74], [0x403c7e0ff50ed145, 0x403fff3b645a1cac, 0x40555de32e3821a5, 0x3fcfff3b645a1cac]),
    ("gisette", Format::Den, [750, 625, 468750, 1374, 625], [0x40755283e9a454f6, 0x4083880000000000, 0x0000000000000000, 0x3ff0000000000000]),
    ("mnist", Format::Coo, [450, 772, 65790, 1209, 291], [0x404b355c1bf34b98, 0x4062466666666666, 0x4096d69d0369d034, 0x3fc83d8bce205d61]),
    ("sector", Format::Coo, [375, 55188, 58537, 36154, 1819], [0x3ff9e7d719e6d213, 0x4063832846ff513d, 0x40d5ca45dcbeca30, 0x3f672bc59f409848]),
    ("epsilon", Format::Den, [975, 5, 4875, 979, 5], [0x4013eb14a866812d, 0x4014000000000000, 0x0000000000000000, 0x3ff0000000000000]),
    ("leukemia", Format::Den, [38, 7129, 270902, 7166, 7129], [0x4042e6e2c70e37df, 0x40bbd90000000000, 0x0000000000000000, 0x3ff0000000000000]),
    ("connect-4", Format::Den, [1800, 125, 75600, 1918, 42], [0x4043b54166c612b0, 0x4045000000000000, 0x0000000000000000, 0x3fd5810624dd2f1b]),
    ("trefethen", Format::Dia, [2000, 2000, 22000, 12, 12], [0x409ca55555555555, 0x4026000000000000, 0x40254ac083126e98, 0x3f76872b020c49ba]),
    ("dna", Format::Den, [1800, 4, 7200, 1803, 4], [0x400ff25e8ff92f48, 0x4010000000000000, 0x0000000000000000, 0x3ff0000000000000]),
];

#[test]
fn table5_twins_keep_their_parameters_and_picks() {
    let rules = LayoutScheduler::new();
    for (spec, (name, pick, counts, floats)) in PAPER_DATASETS.iter().zip(PINNED) {
        assert_eq!(spec.name, name);
        let t = generate(&spec.scaled(scale_of(name)), 42);
        let f = MatrixFeatures::from_triplets(&t);
        assert_eq!([f.m, f.n, f.nnz, f.ndig, f.mdim], counts, "{name}");
        assert_eq!([f.dnnz, f.adim, f.vdim, f.density].map(f64::to_bits), floats, "{name}");
        let scheduled = rules.schedule(&t);
        assert_eq!(scheduled.format(), pick, "{name}");
        assert_eq!(rules.select_only(&t).chosen, pick, "{name}");
        assert_eq!(*scheduled.features(), f, "{name}");
    }
}

/// `(dataset, picks, bits of the sum of every score in each report)` at
/// seed 42, for `[RuleBasedHost, CostModel, Fixed(Csr), learned]`; the
/// learned selector runs the committed `quick_analytic.json` model.
#[rustfmt::skip]
const STRATEGY_PICKS: [(&str, [Format; 4], [u64; 4]); 11] = [
    ("adult", [Format::Ell, Format::Csr, Format::Csr, Format::Ell], [0x402e000000000000, 0x3f53f89e66d9853f, 0x402e000000000000, 0x3f4eb28a63c12489]),
    ("breast_cancer", [Format::Den, Format::Den, Format::Csr, Format::Den], [0x402e000000000000, 0x3f3cf1e72d035f7a, 0x402e000000000000, 0x3f39a7e35daec40e]),
    ("aloi", [Format::Csr, Format::Csr, Format::Csr, Format::Csr], [0x402e000000000000, 0x3f354a24f7c53cb0, 0x402e000000000000, 0x3f305e91efa2d8e7]),
    ("gisette", [Format::Den, Format::Den, Format::Csr, Format::Den], [0x402e000000000000, 0x3f4cdb825e9bf459, 0x402e000000000000, 0x3f4913216fe7439c]),
    ("mnist", [Format::Csr, Format::Csr, Format::Csr, Format::Csr], [0x402e000000000000, 0x3f3327322b6be3cb, 0x402e000000000000, 0x3f2f1ef3180ca789]),
    ("sector", [Format::Csr, Format::Csr, Format::Csr, Format::Csr], [0x402e000000000000, 0x3f7a8127217bd12a, 0x402e000000000000, 0x3f778edba73a7ef2]),
    ("epsilon", [Format::Den, Format::Den, Format::Csr, Format::Den], [0x402e000000000000, 0x3f2b7e7479fa2f5f, 0x402e000000000000, 0x3f24e0714b45187b]),
    ("leukemia", [Format::Den, Format::Den, Format::Csr, Format::Den], [0x402e000000000000, 0x3f3cf1e72d035f7a, 0x402e000000000000, 0x3f39a7e35daec40e]),
    ("connect-4", [Format::Den, Format::Csr, Format::Csr, Format::Ell], [0x402e000000000000, 0x3f4c42be5b28bda2, 0x402e000000000000, 0x3f4612fe97c58dfa]),
    ("trefethen", [Format::Dia, Format::Dia, Format::Csr, Format::Dia], [0x402e000000000000, 0x3f44df68718428a8, 0x402e000000000000, 0x3f45efafeb8a910a]),
    ("dna", [Format::Den, Format::Den, Format::Csr, Format::Den], [0x402e000000000000, 0x3f46eb67f16d6fa5, 0x402e000000000000, 0x3f41560c7bb74f18]),
];

#[test]
fn table5_twins_keep_every_deterministic_strategys_pick() {
    let doc = include_str!("../../learn/tests/fixtures/quick_analytic.json");
    let learned = LearnedSelector::new(TrainedModel::from_json(doc).unwrap());
    let strategies = [
        SelectionStrategy::RuleBasedHost,
        SelectionStrategy::CostModel,
        SelectionStrategy::Fixed(Format::Csr),
    ]
    .map(LayoutScheduler::with_strategy);
    for (spec, (name, picks, score_sums)) in PAPER_DATASETS.iter().zip(STRATEGY_PICKS) {
        assert_eq!(spec.name, name);
        let t = generate(&spec.scaled(scale_of(name)), 42);
        let f = MatrixFeatures::from_triplets(&t);
        let [host, cost, fixed] = strategies.each_ref().map(|s| s.select_only(&t));
        for (k, r) in [host, cost, fixed, learned.select(&t, &f)].iter().enumerate() {
            assert_eq!(r.chosen, picks[k], "{name}, strategy {k}: {}", r.reason);
            assert_eq!(r.block, MAX_SMSV_BLOCK, "{name}, strategy {k}");
            let sum: f64 = r.scores.iter().map(|s| s.score).sum();
            assert_eq!(sum.to_bits(), score_sums[k], "{name}, strategy {k}");
        }
    }
}
