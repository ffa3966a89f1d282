//! Oracle-relative evaluation: agreement and regret.
//!
//! Every labelled sample carries the oracle's per-format scores, so any
//! selector can be graded against it: **agreement** is the fraction of
//! matrices where the selector picks the oracle's winner; **regret** is how
//! much slower the selector's pick is than the winner
//! (`score(pick) / score(winner) − 1`, 0 when they agree). Regret is the
//! fairer number — picking a format 2% slower than optimal is a much
//! smaller sin than disagreement alone suggests.

use crate::label::LabelledSample;
use dls_sparse::Format;

/// Aggregate quality of one selector over a sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSummary {
    /// Selector name (for table rendering).
    pub name: String,
    /// Number of samples evaluated.
    pub n: usize,
    /// Fraction of samples where the pick equals the oracle winner.
    pub agreement: f64,
    /// Mean relative regret over all samples.
    pub mean_regret: f64,
    /// Worst-case relative regret.
    pub max_regret: f64,
}

impl EvalSummary {
    /// One row of the ablation table.
    pub fn render_row(&self) -> String {
        format!(
            "{:<12} {:>5}  {:>9.1}%  {:>11.2}%  {:>10.2}%",
            self.name,
            self.n,
            self.agreement * 100.0,
            self.mean_regret * 100.0,
            self.max_regret * 100.0
        )
    }
}

/// Grades `pick` (one format per sample, index-aligned) against the oracle.
pub fn evaluate(name: &str, samples: &[LabelledSample], picks: &[Format]) -> EvalSummary {
    assert_eq!(samples.len(), picks.len(), "one pick per sample");
    let n = samples.len();
    let mut agree = 0usize;
    let mut total_regret = 0.0;
    let mut max_regret: f64 = 0.0;
    for (s, &pick) in samples.iter().zip(picks) {
        if pick == s.label {
            agree += 1;
            continue;
        }
        let best = s.score_of(s.label).expect("label is scored");
        // A pick outside the scored basic five (possible for selectors that
        // consider derived formats) is graded at the worst scored time: the
        // oracle cannot rank it, so it is charged conservatively.
        let picked =
            s.score_of(pick).unwrap_or_else(|| s.scores.iter().cloned().fold(f64::MIN, f64::max));
        let regret = if best > 0.0 { picked / best - 1.0 } else { 0.0 };
        total_regret += regret.max(0.0);
        max_regret = max_regret.max(regret);
    }
    EvalSummary {
        name: name.to_string(),
        n,
        agreement: if n == 0 { 1.0 } else { agree as f64 / n as f64 },
        mean_regret: if n == 0 { 0.0 } else { total_regret / n as f64 },
        max_regret,
    }
}

/// Deterministic train/holdout split: every `k`-th sample (by index) is held
/// out. Index striding keeps all families represented on both sides because
/// the grid interleaves families within each variant block.
pub(crate) fn split_holdout(
    samples: Vec<LabelledSample>,
    k: usize,
) -> (Vec<LabelledSample>, Vec<LabelledSample>) {
    assert!(k >= 2, "holdout stride must be at least 2");
    let mut train = Vec::new();
    let mut holdout = Vec::new();
    for (i, s) in samples.into_iter().enumerate() {
        if i % k == k - 1 {
            holdout.push(s);
        } else {
            train.push(s);
        }
    }
    (train, holdout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelSource;
    use dls_core::NUM_FEATURES;
    use dls_sparse::MatrixFeatures;

    fn sample(label: Format, scores: [f64; 5]) -> LabelledSample {
        LabelledSample {
            desc: "t".into(),
            features: MatrixFeatures::from_triplets(&dls_sparse::TripletMatrix::new(1, 1)),
            x: [0.0; NUM_FEATURES],
            label,
            scores,
            source: LabelSource::Analytic,
        }
    }

    #[test]
    fn perfect_picks_have_full_agreement_and_zero_regret() {
        let samples = vec![sample(Format::Ell, [1.0, 2.0, 3.0, 4.0, 5.0]); 4];
        let picks = vec![Format::Ell; 4];
        let e = evaluate("oracle", &samples, &picks);
        assert_eq!(e.agreement, 1.0);
        assert_eq!(e.mean_regret, 0.0);
        assert_eq!(e.max_regret, 0.0);
    }

    #[test]
    fn regret_measures_relative_slowdown() {
        // BASIC order: ELL, CSR, COO, DEN, DIA. Oracle: ELL at 1.0.
        let s = sample(Format::Ell, [1.0, 1.5, 3.0, 4.0, 5.0]);
        let e = evaluate("x", &[s.clone(), s], &[Format::Csr, Format::Coo]);
        assert_eq!(e.agreement, 0.0);
        // Regrets: 0.5 and 2.0 → mean 1.25, max 2.0.
        assert!((e.mean_regret - 1.25).abs() < 1e-12);
        assert!((e.max_regret - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unscored_picks_are_charged_the_worst_time() {
        let s = sample(Format::Ell, [1.0, 1.5, 3.0, 4.0, 5.0]);
        let e = evaluate("derived", &[s], &[Format::Csc]);
        assert!((e.max_regret - 4.0).abs() < 1e-12, "charged 5.0/1.0 - 1");
    }

    #[test]
    fn holdout_split_is_deterministic_and_disjoint() {
        let samples: Vec<_> =
            (0..10).map(|i| sample(Format::Ell, [i as f64 + 1.0, 2.0, 3.0, 4.0, 5.0])).collect();
        let (train, hold) = split_holdout(samples.clone(), 5);
        assert_eq!(train.len(), 8);
        assert_eq!(hold.len(), 2);
        // Held-out entries are exactly indices 4 and 9.
        assert_eq!(hold[0].scores[0], 5.0);
        assert_eq!(hold[1].scores[0], 10.0);
    }

    #[test]
    fn empty_set_is_vacuously_perfect() {
        let e = evaluate("none", &[], &[]);
        assert_eq!(e.agreement, 1.0);
        assert_eq!(e.mean_regret, 0.0);
    }
}
