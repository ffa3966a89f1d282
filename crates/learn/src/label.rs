//! Labelling oracle: which format is actually fastest for a matrix?
//!
//! Two modes. **Measured** materialises all five basic formats and times
//! real SMSV sweeps (the honest oracle, used for real training runs). Timing
//! on a busy host is noisy, so each case is measured in `passes` independent
//! passes and the result is only trusted when a *majority* of passes agree
//! on the winner of the element-wise-minimum scores *and* that winner beats
//! the runner-up by a configurable margin; otherwise the case falls back to
//! the analytic model. (The original two-pass gate demanded unanimity,
//! which on a noisy 1-core host rejected ~20% of cases; three passes with a
//! 2-of-3 majority keeps the same measurement budget while rejecting far
//! fewer.) **Analytic** skips the clock entirely and labels by Table II
//! storage volume under a flat bandwidth profile — fully deterministic,
//! used by tests and `--analytic` CI smoke runs.

use dls_core::cost::argmin;
use dls_core::{empirical, featurize, BandwidthProfile, CostModelSelector, NUM_FEATURES};
use dls_sparse::{Format, MatrixFeatures, TripletMatrix};

/// How labels are produced.
#[derive(Debug, Clone, Copy)]
pub enum LabelMode {
    /// Time real SMSV sweeps; fall back to the analytic model when the
    /// measurement passes cannot form a majority for one winner or the
    /// margin is below `min_margin`.
    Measured {
        /// SMSV repetitions per pass per format.
        reps: usize,
        /// Independent measurement passes (clamped to ≥ 2). The label is
        /// trusted only when a strict majority of passes agree on the
        /// winner.
        passes: usize,
        /// Required relative gap between winner and runner-up
        /// (`0.03` = winner must be ≥ 3% faster) for a measurement to be
        /// trusted.
        min_margin: f64,
    },
    /// Label purely from predicted storage / bandwidth — deterministic.
    Analytic {
        /// Bandwidth profile for Eq. (7). [`BandwidthProfile::FLAT`]
        /// reduces the label to pure Table II storage volume.
        bandwidth: BandwidthProfile,
    },
}

impl Default for LabelMode {
    fn default() -> Self {
        // Same total budget as the old two-pass × 6-rep gate (12 sweeps per
        // format), split into three passes so a single noisy pass can be
        // outvoted instead of vetoing the measurement.
        Self::Measured { reps: 4, passes: 3, min_margin: 0.03 }
    }
}

impl LabelMode {
    /// Deterministic analytic labelling under the flat profile — the mode
    /// tests and `--analytic` runs use.
    pub fn analytic_flat() -> Self {
        Self::Analytic { bandwidth: BandwidthProfile::FLAT }
    }
}

/// Where a sample's label came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelSource {
    /// A majority of measurement passes agreed with sufficient margin.
    Measured,
    /// Measurement was too noisy; the analytic model decided.
    AnalyticFallback,
    /// Analytic mode was requested outright.
    Analytic,
}

/// One labelled training sample.
#[derive(Debug, Clone)]
pub struct LabelledSample {
    /// Grid-case description the sample came from.
    pub desc: String,
    /// Full extracted influencing parameters.
    pub features: MatrixFeatures,
    /// Feature vector the tree trains on.
    pub x: [f64; NUM_FEATURES],
    /// The winning format — the training label.
    pub label: Format,
    /// Per-format oracle scores (seconds; lower is better), in
    /// [`Format::BASIC`] order. Used for regret, not for training.
    pub scores: [f64; Format::BASIC.len()],
    /// Provenance of the label.
    pub source: LabelSource,
}

impl LabelledSample {
    /// Oracle score of `format`, for regret computations.
    pub fn score_of(&self, format: Format) -> Option<f64> {
        Format::BASIC.iter().position(|&f| f == format).map(|i| self.scores[i])
    }
}

/// Labels one matrix under `mode`.
pub fn label_case(desc: &str, t: &TripletMatrix, mode: LabelMode) -> LabelledSample {
    let features = MatrixFeatures::from_triplets(t);
    let x = featurize(&features);
    let (scores, label_idx, source) = match mode {
        LabelMode::Analytic { bandwidth } => {
            let scores = CostModelSelector::with_bandwidth(bandwidth).basic_times(&features);
            let best = argmin(scores);
            (scores, best, LabelSource::Analytic)
        }
        LabelMode::Measured { reps, passes, min_margin } => {
            let passes = passes.max(2);
            // Element-wise minimum across all passes: the best observed time
            // is the least noise-inflated estimate of each format's speed.
            let mut scores = [f64::INFINITY; Format::BASIC.len()];
            let mut winners = Vec::with_capacity(passes);
            for _ in 0..passes {
                // One measurement pass: every basic format timed with
                // `EmpiricalSelector`'s probe.
                let pass = Format::BASIC.map(|fmt| empirical::measure(fmt, t, reps));
                winners.push(argmin(pass));
                for (s, &p) in scores.iter_mut().zip(&pass) {
                    *s = s.min(p);
                }
            }
            let best = argmin(scores);
            let votes = winners.iter().filter(|&&w| w == best).count();
            let mut runner_up = f64::INFINITY;
            for (i, &s) in scores.iter().enumerate() {
                if i != best && s < runner_up {
                    runner_up = s;
                }
            }
            let margin_ok = scores[best] > 0.0 && runner_up / scores[best] >= 1.0 + min_margin;
            if 2 * votes > passes && margin_ok {
                (scores, best, LabelSource::Measured)
            } else {
                let fallback = CostModelSelector::with_bandwidth(BandwidthProfile::FLAT)
                    .basic_times(&features);
                let best = argmin(fallback);
                (fallback, best, LabelSource::AnalyticFallback)
            }
        }
    };
    LabelledSample {
        desc: desc.to_string(),
        features,
        x,
        label: Format::BASIC[label_idx],
        scores,
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_data::controlled::{diag_matrix, mdim_matrix};
    use dls_sparse::TripletMatrix;

    #[test]
    fn analytic_labels_match_storage_intuition() {
        // Few-diagonal matrix: DIA stores least.
        let dia = diag_matrix(128, 128, 256, 2, 1);
        let s = label_case("dia", &dia, LabelMode::analytic_flat());
        assert_eq!(s.label, Format::Dia);
        assert_eq!(s.source, LabelSource::Analytic);
        // Fully dense: DEN stores MN vs CSR's 2MN+M.
        let den = TripletMatrix::from_dense(16, 16, &[1.0; 256]);
        assert_eq!(label_case("den", &den, LabelMode::analytic_flat()).label, Format::Den);
        // One wide row among empties: padded ELL and DIA blow up. With
        // nnz = M, COO's 3·nnz edges out CSR's 2·nnz + M + 1 by one word.
        let skew = mdim_matrix(128, 128, 128, 128, 2);
        assert_eq!(label_case("skew", &skew, LabelMode::analytic_flat()).label, Format::Coo);
        // Same shape with nnz >> M: the row pointer amortises, CSR wins.
        let skew = mdim_matrix(128, 128, 512, 128, 2);
        assert_eq!(label_case("skew2", &skew, LabelMode::analytic_flat()).label, Format::Csr);
    }

    #[test]
    fn analytic_labels_are_deterministic() {
        let t = diag_matrix(96, 96, 192, 6, 3);
        let a = label_case("x", &t, LabelMode::analytic_flat());
        let b = label_case("x", &t, LabelMode::analytic_flat());
        assert_eq!(a.label, b.label);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn scores_align_with_label() {
        let t = diag_matrix(128, 128, 256, 4, 4);
        let s = label_case("d", &t, LabelMode::analytic_flat());
        let own = s.score_of(s.label).unwrap();
        for &fmt in &Format::BASIC {
            assert!(own <= s.score_of(fmt).unwrap(), "label must have the best score");
        }
        assert!(s.score_of(Format::Csc).is_none(), "derived formats are not scored");
    }

    #[test]
    fn measured_mode_produces_a_basic_label_with_positive_scores() {
        // Tiny matrix: the point is exercising the measured path end to end,
        // not asserting which format wins on a noisy CI host.
        let t = diag_matrix(64, 64, 128, 2, 5);
        let s = label_case("m", &t, LabelMode::Measured { reps: 2, passes: 2, min_margin: 0.05 });
        assert!(Format::BASIC.contains(&s.label));
        assert!(s.scores.iter().all(|&v| v > 0.0));
        assert!(matches!(s.source, LabelSource::Measured | LabelSource::AnalyticFallback));
    }
}
