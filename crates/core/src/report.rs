//! Human-inspectable record of a selection decision.

use dls_sparse::{Format, MatrixFeatures};

/// One scored candidate format. *Lower is better* — predicted seconds for
/// the cost model, measured seconds for the empirical selector, rule rank
/// for the rule system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormatScore {
    /// The candidate format.
    pub format: Format,
    /// The candidate's score under the selector's own metric.
    pub score: f64,
}

impl FormatScore {
    /// Convenience constructor.
    pub fn new(format: Format, score: f64) -> Self {
        Self { format, score }
    }
}

/// Why and how a format was chosen for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionReport {
    /// The chosen format.
    pub chosen: Format,
    /// Kernel block size batched consumers should use with the chosen
    /// format: learned per-(format, dataset) when the selector tunes it,
    /// [`dls_sparse::MAX_SMSV_BLOCK`] otherwise.
    pub block: usize,
    /// Extracted influencing parameters the decision was based on.
    pub features: MatrixFeatures,
    /// Per-format scores, chosen format first. Selectors score at least the
    /// five basic formats; CSC appears whenever the selector considered it.
    pub scores: Vec<FormatScore>,
    /// One-line human-readable justification.
    pub reason: String,
}

impl SelectionReport {
    /// Score of a specific format, if the selector scored it.
    pub fn score_of(&self, format: Format) -> Option<f64> {
        self.scores.iter().find(|s| s.format == format).map(|s| s.score)
    }
}

/// Scores every format by predicted storage footprint, chosen format first
/// at 0.0, the rest ranked 1, 2, … smallest-storage-first. The fallback
/// score table for selectors whose decision is not itself score-shaped
/// (fixed format, rule system).
pub(crate) fn rank_by_storage(chosen: Format, f: &MatrixFeatures) -> Vec<FormatScore> {
    let mut ranked: Vec<Format> = Format::ALL.iter().copied().filter(|&x| x != chosen).collect();
    ranked.sort_by(|&a, &b| {
        let sa = dls_sparse::storage::predicted_storage_elems(a, f);
        let sb = dls_sparse::storage::predicted_storage_elems(b, f);
        sa.partial_cmp(&sb).expect("finite storage")
    });
    let mut scores = Vec::with_capacity(Format::ALL.len());
    scores.push(FormatScore::new(chosen, 0.0));
    scores.extend(
        ranked.into_iter().enumerate().map(|(k, fmt)| FormatScore::new(fmt, (k + 1) as f64)),
    );
    scores
}

impl std::fmt::Display for SelectionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "selected {} — {}", self.chosen, self.reason)?;
        writeln!(f, "  block: {}", self.block)?;
        writeln!(f, "  features: {}", self.features)?;
        write!(f, "  scores:")?;
        for s in &self.scores {
            write!(f, " {}={:.3e}", s.format, s.score)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sparse::TripletMatrix;

    fn report() -> SelectionReport {
        let t = TripletMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        SelectionReport {
            chosen: Format::Dia,
            block: dls_sparse::MAX_SMSV_BLOCK,
            features: MatrixFeatures::from_triplets(&t),
            scores: vec![
                FormatScore::new(Format::Dia, 1.0),
                FormatScore::new(Format::Csr, 2.0),
                FormatScore::new(Format::Coo, 2.5),
                FormatScore::new(Format::Ell, 3.0),
                FormatScore::new(Format::Den, 4.0),
            ],
            reason: "single diagonal".into(),
        }
    }

    #[test]
    fn score_lookup() {
        let r = report();
        assert_eq!(r.score_of(Format::Csr), Some(2.0));
        assert_eq!(r.score_of(Format::Csc), None);
    }

    #[test]
    fn rank_by_storage_covers_all_formats() {
        let t = TripletMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let f = MatrixFeatures::from_triplets(&t);
        let scores = rank_by_storage(Format::Dia, &f);
        assert_eq!(scores.len(), Format::ALL.len());
        assert_eq!(scores[0], FormatScore::new(Format::Dia, 0.0));
        // Ranks are a permutation of 0..ALL.len() with chosen at 0.
        let mut ranks: Vec<f64> = scores.iter().map(|s| s.score).collect();
        ranks.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(ranks, (0..Format::ALL.len()).map(|k| k as f64).collect::<Vec<_>>());
    }

    #[test]
    fn display_mentions_choice_and_scores() {
        let s = report().to_string();
        assert!(s.contains("selected DIA"));
        assert!(s.contains("single diagonal"));
        assert!(s.contains("CSR="));
    }
}
