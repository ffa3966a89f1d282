//! The rule-based decision system (paper §III-B, Table IV).
//!
//! The rules fire in fitness order, mirroring how the paper reasons about
//! each format:
//!
//! 1. **DIA** — non-zeros concentrated on few, well-filled diagonals
//!    (`ndig` small, `dnnz` a large fraction of the row count).
//! 2. **DEN** — density high enough that sparse index arrays would double
//!    or triple memory traffic (Table II: CSR 2MN+M vs DEN MN).
//! 3. **ELL** — near-uniform row lengths (`vdim` small) with little padding
//!    (`mdim ≈ adim`), the regime ELL's column-major layout is built for.
//! 4. **COO vs CSR** — everything else is compressed-row territory; strong
//!    row imbalance (high index of dispersion `vdim / adim`) degrades the
//!    fixed-width-SIMD CSR kernel, so COO wins there (Fig. 4).

use crate::report::{rank_by_storage, SelectionReport};
use crate::scheduler::FormatSelector;
use dls_sparse::{Format, MatrixFeatures};

/// DIA fires when `dnnz / min(M, N)` reaches this (diagonals well filled,
/// i.e. little DIA padding) …
const DIA_FILL: f64 = 0.5;
/// … and `ndig <= DIA_MAX_NDIG_FRAC * (M + N - 1)`.
const DIA_MAX_NDIG_FRAC: f64 = 0.05;
/// DEN fires at this density.
const DEN_DENSITY: f64 = 0.30;
/// ELL fires when the padding ratio `1 - adim/mdim` is at most this …
const ELL_MAX_PADDING: f64 = 0.20;
/// … and the row-length variance stays at most this.
const ELL_MAX_VDIM: f64 = 25.0;
/// COO beats lockstep CSR when the index of dispersion `vdim / adim`
/// exceeds this (Fig. 4's crossover).
const COO_DISPERSION: f64 = 5.0;

/// The paper's decision system over the nine influencing parameters. The
/// thresholds are calibrated so the Table V datasets route to the paper's
/// Table VI selections.
#[derive(Debug, Clone, Copy)]
pub struct RuleBasedSelector {
    /// Whether the target's CSR kernel runs rows in SIMD lockstep. The
    /// COO-over-CSR rule (Fig. 4) exists because the paper's Ivy Bridge/MIC
    /// CSR kernels do, and row-length imbalance starves their lanes; a
    /// scalar CSR kernel has no lanes to starve.
    lockstep_csr: bool,
}

impl Default for RuleBasedSelector {
    /// The rules as the paper runs them, on its vectorised testbed (AVX
    /// Ivy Bridge + 512-bit Xeon Phi): lockstep CSR.
    fn default() -> Self {
        Self { lockstep_csr: true }
    }
}

impl RuleBasedSelector {
    /// The rules for the host this binary runs on. `dls_sparse`'s CSR SMSV
    /// is a scalar scatter-gather loop whatever the ISA, so the high-`vdim`
    /// rule keeps CSR instead of switching to COO.
    pub(crate) fn for_host() -> Self {
        Self { lockstep_csr: false }
    }

    /// Applies the ordered rules, returning the chosen format and reason.
    pub fn decide(&self, f: &MatrixFeatures) -> (Format, String) {
        if f.nnz == 0 {
            return (Format::Csr, "empty matrix: CSR by convention".into());
        }
        let min_mn = f.m.min(f.n) as f64;
        let diag_fill = if min_mn > 0.0 { f.dnnz / min_mn } else { 0.0 };
        let ndig_frac = f.ndig as f64 / (f.m + f.n - 1) as f64;
        if diag_fill >= DIA_FILL && ndig_frac <= DIA_MAX_NDIG_FRAC {
            return (
                Format::Dia,
                format!(
                    "diagonal structure: {} diagonals at {:.0}% fill",
                    f.ndig,
                    diag_fill * 100.0
                ),
            );
        }
        if f.density >= DEN_DENSITY {
            return (
                Format::Den,
                format!("dense data: density {:.2} makes index arrays pure overhead", f.density),
            );
        }
        if f.ell_padding_ratio() <= ELL_MAX_PADDING && f.vdim <= ELL_MAX_VDIM {
            return (
                Format::Ell,
                format!(
                    "uniform rows: vdim {:.2}, padding {:.0}%",
                    f.vdim,
                    f.ell_padding_ratio() * 100.0
                ),
            );
        }
        let dispersion = if f.adim > 0.0 { f.vdim / f.adim } else { 0.0 };
        if dispersion > COO_DISPERSION && self.lockstep_csr {
            (
                Format::Coo,
                format!("imbalanced rows: vdim/adim {:.1} starves lockstep CSR lanes", dispersion),
            )
        } else {
            (Format::Csr, format!("general sparse: vdim/adim {dispersion:.1}"))
        }
    }
}

impl FormatSelector for RuleBasedSelector {
    fn select(&self, t: &dls_sparse::TripletMatrix, f: &MatrixFeatures) -> SelectionReport {
        let _ = t; // rules work on features alone
        let (chosen, reason) = self.decide(f);
        // Rules don't produce a numeric score per format; rank the
        // alternatives by predicted storage ("computation is proportional
        // to storage"), CSC included.
        SelectionReport {
            chosen,
            block: dls_sparse::MAX_SMSV_BLOCK,
            features: *f,
            scores: rank_by_storage(chosen, f),
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_data::{generate, DatasetSpec};
    use dls_sparse::TripletMatrix;

    fn features_of(name: &str, scale: usize) -> MatrixFeatures {
        let spec = DatasetSpec::by_name(name).unwrap().scaled(scale);
        MatrixFeatures::from_triplets(&generate(&spec, 42))
    }

    #[test]
    fn trefethen_routes_to_dia() {
        let f = features_of("trefethen", 1);
        let (fmt, reason) = RuleBasedSelector::default().decide(&f);
        assert_eq!(fmt, Format::Dia, "{reason}");
    }

    #[test]
    fn dense_sets_route_to_den() {
        for name in ["leukemia", "gisette", "connect-4"] {
            let scale = if name == "gisette" { 8 } else { 1 };
            let f = features_of(name, scale);
            let (fmt, reason) = RuleBasedSelector::default().decide(&f);
            assert_eq!(fmt, Format::Den, "{name}: {reason}");
        }
    }

    #[test]
    fn adult_routes_to_ell() {
        let f = features_of("adult", 1);
        let (fmt, reason) = RuleBasedSelector::default().decide(&f);
        assert_eq!(fmt, Format::Ell, "{reason}");
    }

    #[test]
    fn aloi_routes_to_csr() {
        let f = features_of("aloi", 1);
        let (fmt, reason) = RuleBasedSelector::default().decide(&f);
        assert_eq!(fmt, Format::Csr, "{reason}");
    }

    #[test]
    fn imbalanced_sets_route_to_coo() {
        for name in ["mnist", "sector"] {
            let f = features_of(name, 1);
            let (fmt, reason) = RuleBasedSelector::default().decide(&f);
            assert_eq!(fmt, Format::Coo, "{name}: {reason}");
        }
    }

    #[test]
    fn empty_matrix_defaults_to_csr() {
        let f = MatrixFeatures::from_triplets(&TripletMatrix::new(4, 4));
        let (fmt, _) = RuleBasedSelector::default().decide(&f);
        assert_eq!(fmt, Format::Csr);
    }

    #[test]
    fn report_scores_rank_chosen_first() {
        use crate::scheduler::FormatSelector;
        let spec = DatasetSpec::by_name("adult").unwrap().scaled(4);
        let t = generate(&spec, 1);
        let f = MatrixFeatures::from_triplets(&t);
        let r = RuleBasedSelector::default().select(&t, &f);
        assert_eq!(r.scores[0].format, r.chosen);
        assert_eq!(r.scores[0].score, 0.0);
        assert_eq!(r.score_of(r.chosen), Some(0.0));
        // Every format scored, CSC included.
        let mut fmts: Vec<Format> = r.scores.iter().map(|s| s.format).collect();
        fmts.sort();
        let mut all = Format::ALL.to_vec();
        all.sort();
        assert_eq!(fmts, all);
    }

    #[test]
    fn scalar_machine_keeps_csr_on_imbalanced_rows() {
        // The Fig. 4 effect is SIMD-borne: a scalar profile must not
        // switch mnist/sector to COO.
        for name in ["mnist", "sector"] {
            let f = features_of(name, 1);
            let (fmt, reason) = RuleBasedSelector::for_host().decide(&f);
            assert_eq!(fmt, Format::Csr, "{name}: {reason}");
            let paper = RuleBasedSelector::default();
            assert_eq!(paper.decide(&f).0, Format::Coo, "{name} on the testbed");
        }
    }

    #[test]
    fn for_host_produces_a_valid_decision() {
        let f = features_of("adult", 4);
        let (fmt, _) = RuleBasedSelector::for_host().decide(&f);
        assert!(Format::BASIC.contains(&fmt));
    }
}
