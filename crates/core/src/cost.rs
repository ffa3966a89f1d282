//! Analytic cost-model selector (Equation 7 of the paper).
//!
//! `time ≳ transferred memory / memory bandwidth`: the per-iteration SMSV
//! streams the whole stored representation once, so predicted time is the
//! Table II storage volume (in bytes) divided by the per-format effective
//! bandwidth of §III-B.

use crate::bandwidth::BandwidthProfile;
use crate::report::{FormatScore, SelectionReport};
use crate::scheduler::FormatSelector;
use dls_sparse::storage::predicted_storage_elems;
use dls_sparse::{Format, MatrixFeatures, Scalar, TripletMatrix, MAX_SMSV_BLOCK};

/// Selector that minimises predicted SMSV time over [`Format::BASIC`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModelSelector {
    /// Per-format effective bandwidth used as the denominator of Eq. (7).
    bandwidth: BandwidthProfile,
}

/// Index of the smallest score; ties go to the earlier index. The cost and
/// empirical selectors and `dls-learn`'s labels all pick their winner here.
pub fn argmin(scores: impl IntoIterator<Item = f64>) -> usize {
    let mut scores = scores.into_iter().enumerate();
    let Some((mut best, mut min)) = scores.next() else { return 0 };
    for (i, s) in scores {
        if s < min {
            (best, min) = (i, s);
        }
    }
    best
}

impl CostModelSelector {
    /// Creates a selector with a custom bandwidth profile.
    pub fn with_bandwidth(bandwidth: BandwidthProfile) -> Self {
        Self { bandwidth }
    }

    /// Predicted seconds for one SMSV sweep in `format`.
    ///
    /// Storage *elements* are converted to bytes: the value array streams
    /// 8-byte scalars and index arrays 8-byte words, so elements × 8 is the
    /// transferred volume Equation (7) divides by bandwidth.
    pub fn predicted_time(&self, format: Format, f: &MatrixFeatures) -> f64 {
        let bytes = predicted_storage_elems(format, f) * std::mem::size_of::<Scalar>() as f64;
        bytes / self.bandwidth.bytes_per_sec(format)
    }

    /// Predicted times for every basic format, in [`Format::BASIC`] order
    /// (lower is better): the one place analytic per-format scores are
    /// computed.
    pub fn basic_times(&self, f: &MatrixFeatures) -> [f64; Format::BASIC.len()] {
        Format::BASIC.map(|fmt| self.predicted_time(fmt, f))
    }

    /// [`CostModelSelector::basic_times`] as report scores.
    pub fn score_all(&self, f: &MatrixFeatures) -> Vec<FormatScore> {
        Format::BASIC
            .iter()
            .zip(self.basic_times(f))
            .map(|(&fmt, t)| FormatScore::new(fmt, t))
            .collect()
    }
}

impl FormatSelector for CostModelSelector {
    fn select(&self, _t: &TripletMatrix, f: &MatrixFeatures) -> SelectionReport {
        let scores = self.score_all(f);
        let best = scores[argmin(scores.iter().map(|s| s.score))];
        SelectionReport {
            chosen: best.format,
            block: MAX_SMSV_BLOCK,
            features: *f,
            scores,
            reason: format!(
                "cost model: {:.2e} s predicted via Eq. (7) storage/bandwidth",
                best.score
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_data::{generate, DatasetSpec};

    fn features_of(name: &str, scale: usize) -> MatrixFeatures {
        let spec = DatasetSpec::by_name(name).unwrap().scaled(scale);
        MatrixFeatures::from_triplets(&generate(&spec, 42))
    }

    #[test]
    fn dia_wins_on_diagonal_matrices() {
        let f = features_of("trefethen", 1);
        let sel = CostModelSelector::default();
        let scores = sel.score_all(&f);
        let best =
            scores.iter().min_by(|a, b| a.score.partial_cmp(&b.score).unwrap()).unwrap().format;
        assert_eq!(best, Format::Dia);
    }

    #[test]
    fn den_wins_on_dense_matrices() {
        let f = features_of("leukemia", 1);
        let sel = CostModelSelector::default();
        let best = sel
            .score_all(&f)
            .iter()
            .min_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
            .unwrap()
            .format;
        assert_eq!(best, Format::Den, "DEN stores MN vs CSR's 2MN+M on dense data");
    }

    #[test]
    fn predicted_time_scales_with_storage() {
        let f = features_of("adult", 1);
        let sel = CostModelSelector::with_bandwidth(BandwidthProfile::FLAT);
        // With flat bandwidth the ordering must follow pure storage size.
        let t_coo = sel.predicted_time(Format::Coo, &f);
        let t_csr = sel.predicted_time(Format::Csr, &f);
        assert!(t_csr < t_coo, "CSR stores 2nnz+M+1 < COO's 3nnz");
    }

    #[test]
    fn ell_padding_penalised() {
        // mnist: mdim 291 vs adim 148 → ELL stores ~2x the useful data.
        let f = features_of("mnist", 1);
        let sel = CostModelSelector::with_bandwidth(BandwidthProfile::FLAT);
        assert!(
            sel.predicted_time(Format::Ell, &f) > sel.predicted_time(Format::Csr, &f),
            "padded ELL must cost more than CSR on imbalanced rows"
        );
    }

    #[test]
    fn report_is_consistent() {
        use crate::scheduler::FormatSelector;
        let spec = DatasetSpec::by_name("trefethen").unwrap();
        let t = generate(spec, 1);
        let f = MatrixFeatures::from_triplets(&t);
        let r = CostModelSelector::default().select(&t, &f);
        assert_eq!(r.chosen, Format::Dia);
        let chosen_score = r.score_of(r.chosen).unwrap();
        for s in &r.scores {
            assert!(chosen_score <= s.score);
        }
        assert!(r.reason.contains("cost model"));
    }

    #[test]
    fn basic_times_follow_basic_order_and_argmin_keeps_the_first_tie() {
        let f = features_of("adult", 1);
        let sel = CostModelSelector::with_bandwidth(BandwidthProfile::FLAT);
        let times = sel.basic_times(&f);
        for (fmt, (t, s)) in Format::BASIC.iter().zip(times.iter().zip(sel.score_all(&f))) {
            assert_eq!(*t, sel.predicted_time(*fmt, &f), "{fmt}");
            assert_eq!(s, FormatScore::new(*fmt, *t));
        }
        assert_eq!(argmin([3.0, 1.0, 2.0, 1.0]), 1);
        assert_eq!(argmin([f64::NAN, 1.0]), 0, "nothing compares below NaN");
        assert_eq!(argmin([]), 0);
        // The report always carries the engine's default block.
        let t = generate(DatasetSpec::by_name("adult").unwrap(), 1);
        assert_eq!(sel.select(&t, &f).block, MAX_SMSV_BLOCK);
    }
}
