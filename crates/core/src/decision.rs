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

/// Tunable thresholds of the rule system. Defaults are calibrated so the
/// Table V datasets route to the paper's Table VI selections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleThresholds {
    /// DIA fires when `dnnz / min(M, N) >= dia_fill` (diagonals well
    /// filled) — equivalently the DIA padding ratio is small.
    pub dia_fill: f64,
    /// DIA also requires `ndig <= dia_max_ndig_frac * (M + N - 1)`.
    pub dia_max_ndig_frac: f64,
    /// DEN fires when `density >= den_density`.
    pub den_density: f64,
    /// ELL fires when the padding ratio `1 - adim/mdim <= ell_max_padding`…
    pub ell_max_padding: f64,
    /// …and the row-length variance stays below `ell_max_vdim`.
    pub ell_max_vdim: f64,
    /// COO beats CSR when the index of dispersion `vdim / adim` exceeds
    /// this (Fig. 4's crossover).
    pub coo_dispersion: f64,
}

impl Default for RuleThresholds {
    fn default() -> Self {
        Self {
            dia_fill: 0.5,
            dia_max_ndig_frac: 0.05,
            den_density: 0.30,
            ell_max_padding: 0.20,
            ell_max_vdim: 25.0,
            coo_dispersion: 5.0,
        }
    }
}

/// The paper's decision system over the nine influencing parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleBasedSelector {
    /// Decision thresholds.
    pub thresholds: RuleThresholds,
    /// Target machine: the COO-over-CSR rule is a SIMD effect (Fig. 4)
    /// and only fires on lane-lockstep machines.
    pub machine: crate::MachineProfile,
}

impl RuleBasedSelector {
    /// Creates a selector with custom thresholds.
    pub fn with_thresholds(thresholds: RuleThresholds) -> Self {
        Self { thresholds, ..Default::default() }
    }

    /// Creates a selector tuned for a specific machine profile. On scalar
    /// machines the high-`vdim` rule keeps CSR (no lanes to starve);
    /// on vectorised ones it prefers COO, like the paper.
    pub fn for_machine(machine: crate::MachineProfile) -> Self {
        Self { thresholds: RuleThresholds::default(), machine }
    }

    /// Selector adapted to the host this binary runs on.
    pub fn for_host() -> Self {
        Self::for_machine(crate::MachineProfile::host())
    }

    /// Applies the ordered rules, returning the chosen format and reason.
    pub fn decide(&self, f: &MatrixFeatures) -> (Format, String) {
        let th = &self.thresholds;
        if f.nnz == 0 {
            return (Format::Csr, "empty matrix: CSR by convention".into());
        }
        let min_mn = f.m.min(f.n) as f64;
        let diag_fill = if min_mn > 0.0 { f.dnnz / min_mn } else { 0.0 };
        let ndig_frac = f.ndig as f64 / (f.m + f.n - 1) as f64;
        if diag_fill >= th.dia_fill && ndig_frac <= th.dia_max_ndig_frac {
            return (
                Format::Dia,
                format!(
                    "diagonal structure: {} diagonals at {:.0}% fill",
                    f.ndig,
                    diag_fill * 100.0
                ),
            );
        }
        if f.density >= th.den_density {
            return (
                Format::Den,
                format!("dense data: density {:.2} makes index arrays pure overhead", f.density),
            );
        }
        if f.ell_padding_ratio() <= th.ell_max_padding && f.vdim <= th.ell_max_vdim {
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
        if dispersion > th.coo_dispersion && self.machine.csr_is_lane_lockstep() {
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
            let scalar = RuleBasedSelector::for_machine(crate::MachineProfile::SCALAR);
            let (fmt, reason) = scalar.decide(&f);
            assert_eq!(fmt, Format::Csr, "{name}: {reason}");
            let paper = RuleBasedSelector::for_machine(crate::MachineProfile::PAPER_TESTBED);
            assert_eq!(paper.decide(&f).0, Format::Coo, "{name} on the testbed");
        }
    }

    #[test]
    fn for_host_produces_a_valid_decision() {
        let f = features_of("adult", 4);
        let (fmt, _) = RuleBasedSelector::for_host().decide(&f);
        assert!(Format::BASIC.contains(&fmt));
    }

    #[test]
    fn custom_thresholds_change_decisions() {
        let f = features_of("connect-4", 1);
        // Raising the density gate past 0.336 pushes connect-4 to ELL
        // (its rows are perfectly uniform).
        let strict = RuleBasedSelector::with_thresholds(RuleThresholds {
            den_density: 0.9,
            ..Default::default()
        });
        let (fmt, _) = strict.decide(&f);
        assert_eq!(fmt, Format::Ell);
    }
}
