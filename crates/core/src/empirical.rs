//! Empirical micro-benchmark selector.
//!
//! The most faithful (and most expensive) strategy: materialise every
//! basic format — on a row sample when the matrix is large — and time
//! real SMSV products with right-hand sides drawn from the matrix's own
//! rows, exactly the access pattern of the SMO loop. The fastest format
//! wins. This is classic auto-tuning in the OSKI tradition the paper cites.

use crate::decision::RuleBasedSelector;
use crate::report::{FormatScore, SelectionReport};
use crate::scheduler::FormatSelector;
use dls_sparse::{AnyMatrix, Format, MatrixFeatures, MatrixFormat, TripletMatrix, MAX_SMSV_BLOCK};
use std::time::Instant;

/// Micro-benchmarking selector.
#[derive(Debug, Clone, Copy)]
pub struct EmpiricalSelector {
    /// SMSV repetitions to time per candidate (higher = less noise).
    pub reps: usize,
    /// Row-sample cap: matrices taller than this are probed on their first
    /// `sample_rows` rows. The sample keeps the row-length distribution of
    /// the full matrix because generators interleave row kinds.
    pub sample_rows: usize,
}

impl Default for EmpiricalSelector {
    fn default() -> Self {
        Self { reps: 5, sample_rows: 2_048 }
    }
}

impl EmpiricalSelector {
    /// Measures mean SMSV seconds for one candidate format on the (possibly
    /// sampled) matrix.
    fn measure(&self, fmt: Format, t: &TripletMatrix) -> f64 {
        let m = AnyMatrix::from_triplets(fmt, t);
        let rows = m.rows();
        let mut out = vec![0.0; rows];
        // Probe vectors: rows of the matrix itself (SMO multiplies X by its
        // own rows), spread across the row range.
        let probes: Vec<_> = (0..4).map(|k| m.row_sparse(k * (rows - 1) / 3)).collect();
        // Warm-up pass so page faults and cache state don't bias the first
        // candidate measured.
        m.smsv(&probes[0], &mut out);
        let start = Instant::now();
        for r in 0..self.reps {
            m.smsv(&probes[r % probes.len()], &mut out);
        }
        start.elapsed().as_secs_f64() / self.reps as f64
    }

    /// Restricts the matrix to its first `sample_rows` rows.
    fn sample(&self, t: &TripletMatrix) -> TripletMatrix {
        if t.rows() <= self.sample_rows {
            return t.clone();
        }
        let mut s = TripletMatrix::new(self.sample_rows, t.cols());
        for &(r, c, v) in t.entries() {
            if r < self.sample_rows {
                s.push(r, c, v);
            }
        }
        s.compact()
    }
}

impl FormatSelector for EmpiricalSelector {
    fn select(&self, t: &TripletMatrix, f: &MatrixFeatures) -> SelectionReport {
        if t.rows() == 0 || t.cols() == 0 {
            // No row to probe with and no product to time (an empty input
            // file arrives here): answer from the features alone.
            let mut report = RuleBasedSelector::default().select(t, f);
            report.reason = format!("nothing to measure; {}", report.reason);
            return report;
        }
        let probe = self.sample(t);
        let scores: Vec<FormatScore> = Format::BASIC
            .iter()
            .map(|&fmt| FormatScore::new(fmt, self.measure(fmt, &probe)))
            .collect();
        let FormatScore { format: chosen, score: best } = scores
            .iter()
            .min_by(|a, b| a.score.partial_cmp(&b.score).expect("finite times"))
            .copied()
            .expect("five candidates");
        SelectionReport {
            chosen,
            block: MAX_SMSV_BLOCK,
            features: *f,
            scores,
            reason: format!(
                "micro-benchmark: {:.2e} s/SMSV over {} reps on {} sample rows",
                best,
                self.reps,
                probe.rows()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_data::controlled::diag_matrix;
    use dls_data::{generate, DatasetSpec};

    #[test]
    fn sampling_caps_rows() {
        let sel = EmpiricalSelector { reps: 1, sample_rows: 8 };
        let spec = DatasetSpec::by_name("adult").unwrap();
        let t = generate(spec, 1);
        let s = sel.sample(&t);
        assert_eq!(s.rows(), 8);
        assert!(s.nnz() > 0);
        // Small matrices pass through untouched.
        let tiny = diag_matrix(4, 4, 4, 1, 0);
        assert_eq!(sel.sample(&tiny).entries(), tiny.entries());
    }

    #[test]
    fn selects_some_basic_format_with_timing_scores() {
        let sel = EmpiricalSelector { reps: 2, sample_rows: 256 };
        let spec = DatasetSpec::by_name("adult").unwrap().scaled(4);
        let t = generate(&spec, 1);
        let f = MatrixFeatures::from_triplets(&t);
        let r = sel.select(&t, &f);
        assert!(Format::BASIC.contains(&r.chosen));
        for s in &r.scores {
            assert!(s.score > 0.0, "every candidate was actually timed");
        }
        let best = r.score_of(r.chosen).unwrap();
        for s in &r.scores {
            assert!(best <= s.score);
        }
    }

    #[test]
    fn empty_matrices_get_a_decision_without_measuring() {
        use crate::{LayoutScheduler, SelectionStrategy};
        let sched = LayoutScheduler::with_strategy(SelectionStrategy::Empirical);
        for (m, n) in [(0, 5), (5, 0), (0, 0)] {
            let t = TripletMatrix::new(m, n);
            let r = sched.select_only(&t);
            assert!(Format::BASIC.contains(&r.chosen), "{m}x{n}: {}", r.chosen);
            assert!(r.reason.contains("nothing to measure"), "{m}x{n}: {}", r.reason);
            let s = sched.schedule(&t);
            assert_eq!(s.format(), r.chosen);
            assert_eq!((s.matrix().rows(), s.matrix().cols(), s.matrix().nnz()), (m, n, 0));
        }
    }

    #[test]
    fn heavily_padded_ell_loses_to_compact_formats() {
        // One 256-nnz row among 255 empty rows: ELL stores 256*256 slots.
        let t = dls_data::controlled::mdim_matrix(256, 256, 256, 256, 3);
        let f = MatrixFeatures::from_triplets(&t);
        let sel = EmpiricalSelector { reps: 3, sample_rows: 4_096 };
        let r = sel.select(&t, &f);
        let ell = r.score_of(Format::Ell).unwrap();
        let csr = r.score_of(Format::Csr).unwrap();
        assert!(csr < ell, "CSR ({csr:.2e}s) must beat padded ELL ({ell:.2e}s) at mdim = M");
    }
}
