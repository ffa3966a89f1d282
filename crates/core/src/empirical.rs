//! Empirical micro-benchmark selector.
//!
//! The most faithful (and most expensive) strategy: materialise every
//! basic format — on a row sample when the matrix is large — and time
//! real SMSV products with right-hand sides drawn from the matrix's own
//! rows, exactly the access pattern of the SMO loop. The fastest format
//! wins. This is classic auto-tuning in the OSKI tradition the paper cites.

use crate::cost::argmin;
use crate::decision::RuleBasedSelector;
use crate::report::{FormatScore, SelectionReport};
use crate::scheduler::FormatSelector;
use dls_sparse::{AnyMatrix, Format, MatrixFeatures, MatrixFormat, TripletMatrix, MAX_SMSV_BLOCK};
use std::time::Instant;

/// SMSV repetitions timed per candidate.
const REPS: usize = 5;

/// Row-sample cap: taller matrices are probed on their first this-many
/// rows. The sample keeps the row-length distribution of the full matrix
/// because generators interleave row kinds.
const SAMPLE_ROWS: usize = 2_048;

/// Micro-benchmarking selector.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmpiricalSelector;

/// Mean seconds of one SMSV of `t` materialised in `fmt`, over `reps`
/// products (at least one) after a warm-up. The probe vectors are four of
/// the matrix's own rows spread across its row range, since SMO multiplies
/// X by its own rows. Labelling times its candidates with this same probe.
pub fn measure(fmt: Format, t: &TripletMatrix, reps: usize) -> f64 {
    let m = AnyMatrix::from_triplets(fmt, t);
    let rows = m.rows();
    let mut out = vec![0.0; rows];
    let probes: Vec<_> = (0..4).map(|k| m.row_sparse(k * rows.saturating_sub(1) / 3)).collect();
    // Warm-up pass so page faults and cache state don't bias the first
    // candidate measured.
    m.smsv(&probes[0], &mut out);
    let start = Instant::now();
    for r in 0..reps.max(1) {
        m.smsv(&probes[r % probes.len()], &mut out);
    }
    start.elapsed().as_secs_f64() / reps.max(1) as f64
}

/// Restricts the matrix to its first `cap` rows.
fn sample(t: &TripletMatrix, cap: usize) -> TripletMatrix {
    if t.rows() <= cap {
        return t.clone();
    }
    let mut s = TripletMatrix::new(cap, t.cols());
    for &(r, c, v) in t.entries() {
        if r < cap {
            s.push(r, c, v);
        }
    }
    s.compact()
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
        let probe = sample(t, SAMPLE_ROWS);
        let scores: Vec<FormatScore> = Format::BASIC
            .iter()
            .map(|&fmt| FormatScore::new(fmt, measure(fmt, &probe, REPS)))
            .collect();
        let best = scores[argmin(scores.iter().map(|s| s.score))];
        SelectionReport {
            chosen: best.format,
            block: MAX_SMSV_BLOCK,
            features: *f,
            scores,
            reason: format!(
                "micro-benchmark: {:.2e} s/SMSV over {REPS} reps on {} sample rows",
                best.score,
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
        let spec = DatasetSpec::by_name("adult").unwrap();
        let t = generate(spec, 1);
        let s = sample(&t, 8);
        assert_eq!(s.rows(), 8);
        assert!(s.nnz() > 0);
        // Small matrices pass through untouched.
        let tiny = diag_matrix(4, 4, 4, 1, 0);
        assert_eq!(sample(&tiny, 8).entries(), tiny.entries());
    }

    #[test]
    fn selects_some_basic_format_with_timing_scores() {
        let spec = DatasetSpec::by_name("adult").unwrap().scaled(4);
        let t = generate(&spec, 1);
        let f = MatrixFeatures::from_triplets(&t);
        let r = EmpiricalSelector.select(&t, &f);
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
        let r = EmpiricalSelector.select(&t, &f);
        let ell = r.score_of(Format::Ell).unwrap();
        let csr = r.score_of(Format::Csr).unwrap();
        assert!(csr < ell, "CSR ({csr:.2e}s) must beat padded ELL ({ell:.2e}s) at mdim = M");
    }
}
