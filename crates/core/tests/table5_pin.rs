//! Pin: the nine influencing parameters and the rule-based pick for the
//! eleven Table V twins, bit for bit.
//!
//! The values were recorded at commit b1e9d95, before the feature scan was
//! fused into one pass and the constructors stopped cloning their input.
//! A rewrite of that path must leave every decision, and every float the
//! decision rests on, exactly where it was.

use dls_core::LayoutScheduler;
use dls_data::specs::PAPER_DATASETS;
use dls_data::synth::generate;
use dls_sparse::{Format, MatrixFeatures};

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
