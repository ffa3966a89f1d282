//! The runtime layout scheduler: the public entry point of the library.
//!
//! ```text
//! TripletMatrix ──► extract 9 parameters ──► selector ──► AnyMatrix
//!                        (Table IV)        (rules/cost/    (chosen
//!                                           empirical)      format)
//! ```
//!
//! Selection policy is open: built-in strategies are named by
//! [`SelectionStrategy`] and instantiated through its single dispatch
//! point, [`SelectionStrategy::selector`]; arbitrary user policies plug in
//! through [`LayoutScheduler::with_selector`].

use crate::cost::CostModelSelector;
use crate::decision::RuleBasedSelector;
use crate::empirical::EmpiricalSelector;
use crate::report::{rank_by_storage, SelectionReport};
use dls_sparse::{AnyMatrix, Format, MatrixFeatures, TripletMatrix, MAX_SMSV_BLOCK};
use std::sync::Arc;

/// A pluggable selection policy.
///
/// `Send + Sync` so one scheduler can be shared across training and
/// serving threads.
pub trait FormatSelector: Send + Sync {
    /// Chooses a format for the matrix, returning the full report.
    fn select(&self, t: &TripletMatrix, f: &MatrixFeatures) -> SelectionReport;
}

/// Boxed selectors forward, so `SelectionStrategy::selector()`'s result can
/// be wrapped directly (e.g. by [`crate::TuningCache`]).
impl<T: FormatSelector + ?Sized> FormatSelector for Box<T> {
    fn select(&self, t: &TripletMatrix, f: &MatrixFeatures) -> SelectionReport {
        (**self).select(t, f)
    }
}

/// Which built-in selection policy the scheduler runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SelectionStrategy {
    /// Ordered rules over the influencing parameters (the paper's system,
    /// tuned for the paper's vectorised testbed).
    #[default]
    RuleBased,
    /// The same rules for the machine this binary runs on, whose scalar
    /// CSR kernel keeps the SIMD-conditional COO rule from firing (see
    /// `RuleBasedSelector::for_host`).
    RuleBasedHost,
    /// Analytic storage/bandwidth model (Equation 7).
    CostModel,
    /// Measure every candidate and keep the fastest.
    Empirical,
    /// No adaptivity: always the given format (the LIBSVM/GPUSVM behaviour
    /// the paper argues against; used as the baseline in the benches).
    Fixed(Format),
}

impl SelectionStrategy {
    /// Instantiates the selector implementing this strategy — the single
    /// strategy-dispatch point in the crate.
    pub fn selector(&self) -> Box<dyn FormatSelector> {
        match *self {
            SelectionStrategy::RuleBased => Box::new(RuleBasedSelector::default()),
            SelectionStrategy::RuleBasedHost => Box::new(RuleBasedSelector::for_host()),
            SelectionStrategy::CostModel => Box::new(CostModelSelector::default()),
            SelectionStrategy::Empirical => Box::new(EmpiricalSelector),
            SelectionStrategy::Fixed(fmt) => Box::new(FixedSelector(fmt)),
        }
    }
}

/// The non-adaptive policy: always the wrapped format, whatever the data
/// looks like. Scores rank the alternatives by predicted storage so the
/// report stays informative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedSelector(pub Format);

impl FormatSelector for FixedSelector {
    fn select(&self, _t: &TripletMatrix, f: &MatrixFeatures) -> SelectionReport {
        SelectionReport {
            chosen: self.0,
            block: MAX_SMSV_BLOCK,
            features: *f,
            scores: rank_by_storage(self.0, f),
            reason: format!("fixed format {} (non-adaptive)", self.0),
        }
    }
}

/// The scheduler: a selection policy + conversion.
#[derive(Clone)]
pub struct LayoutScheduler {
    /// `Some` when built from a named strategy, `None` for custom selectors.
    strategy: Option<SelectionStrategy>,
    selector: Arc<dyn FormatSelector>,
}

impl std::fmt::Debug for LayoutScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.strategy {
            Some(s) => write!(f, "LayoutScheduler({s:?})"),
            None => write!(f, "LayoutScheduler(custom selector)"),
        }
    }
}

impl Default for LayoutScheduler {
    fn default() -> Self {
        Self::with_strategy(SelectionStrategy::default())
    }
}

/// A matrix whose storage format was chosen by the scheduler.
#[derive(Debug, Clone)]
pub struct ScheduledMatrix {
    matrix: AnyMatrix,
    report: SelectionReport,
}

impl ScheduledMatrix {
    /// The materialised matrix in its chosen format.
    #[inline]
    pub fn matrix(&self) -> &AnyMatrix {
        &self.matrix
    }

    /// The chosen format.
    #[inline]
    pub fn format(&self) -> Format {
        self.report.chosen
    }

    /// Why this format was chosen.
    #[inline]
    pub fn report(&self) -> &SelectionReport {
        &self.report
    }

    /// Extracted influencing parameters.
    #[inline]
    pub fn features(&self) -> &MatrixFeatures {
        &self.report.features
    }

    /// Consumes the schedule, yielding the matrix.
    pub fn into_matrix(self) -> AnyMatrix {
        self.matrix
    }
}

impl LayoutScheduler {
    /// A scheduler with the default (rule-based) strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scheduler running one of the built-in strategies.
    pub fn with_strategy(strategy: SelectionStrategy) -> Self {
        Self { strategy: Some(strategy), selector: strategy.selector().into() }
    }

    /// A scheduler running an arbitrary selection policy. This is the open
    /// extension point: anything implementing [`FormatSelector`] slots in.
    pub fn with_selector(selector: impl FormatSelector + 'static) -> Self {
        Self { strategy: None, selector: Arc::new(selector) }
    }

    /// The active selection policy.
    pub fn selector(&self) -> &dyn FormatSelector {
        &*self.selector
    }

    /// Extracts features, runs the selector, and materialises the matrix in
    /// the chosen format. A compact `t` is borrowed throughout and streamed
    /// twice (the feature scan, the build); any other is compacted once,
    /// up front, for both.
    pub fn schedule(&self, t: &TripletMatrix) -> ScheduledMatrix {
        let t = t.compacted();
        let report = self.report_for(&t);
        let matrix = AnyMatrix::from_triplets(report.chosen, &t);
        ScheduledMatrix { matrix, report }
    }

    /// Runs only the selection (no materialisation) — useful when the
    /// caller wants the decision for matrices it will build elsewhere. The
    /// decision is the one [`LayoutScheduler::schedule`] makes: both
    /// measure the compacted matrix.
    pub fn select_only(&self, t: &TripletMatrix) -> SelectionReport {
        self.report_for(&t.compacted())
    }

    /// `t` must be compact: the selector sees the matrix the features
    /// describe.
    fn report_for(&self, t: &TripletMatrix) -> SelectionReport {
        let features = MatrixFeatures::from_triplets(t);
        self.selector.select(t, &features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_data::{generate, DatasetSpec};
    use dls_sparse::MatrixFormat;

    #[test]
    fn default_scheduler_is_rule_based() {
        let spec = DatasetSpec::by_name("trefethen").unwrap();
        let t = generate(spec, 1);
        let sched = LayoutScheduler::new();
        assert_eq!(sched.strategy, Some(SelectionStrategy::RuleBased));
        let s = sched.schedule(&t);
        assert_eq!(s.format(), Format::Dia);
        assert_eq!(s.matrix().format(), Format::Dia);
        assert_eq!(s.matrix().nnz(), t.nnz());
        assert!(s.report().reason.contains("diagonal"));
    }

    #[test]
    fn fixed_strategy_never_adapts() {
        let spec = DatasetSpec::by_name("trefethen").unwrap();
        let t = generate(spec, 1);
        let s = LayoutScheduler::with_strategy(SelectionStrategy::Fixed(Format::Csr)).schedule(&t);
        assert_eq!(s.format(), Format::Csr);
        assert!(s.report().reason.contains("non-adaptive"));
        // Fixed reports rank every format, CSC included.
        assert_eq!(s.report().scores.len(), Format::ALL.len());
    }

    #[test]
    fn all_strategies_produce_valid_matrices() {
        let spec = DatasetSpec::by_name("adult").unwrap().scaled(8);
        let t = generate(&spec, 2);
        for strategy in [
            SelectionStrategy::RuleBased,
            SelectionStrategy::CostModel,
            SelectionStrategy::Empirical,
            SelectionStrategy::Fixed(Format::Dia),
        ] {
            let s = LayoutScheduler::with_strategy(strategy).schedule(&t);
            assert_eq!(s.matrix().rows(), t.rows());
            assert_eq!(s.matrix().to_triplets().compact().entries(), t.entries());
            assert_eq!(s.features().nnz, t.nnz());
        }
    }

    #[test]
    fn select_only_matches_schedule() {
        let spec = DatasetSpec::by_name("mnist").unwrap();
        let t = generate(spec, 3);
        let sched = LayoutScheduler::new();
        assert_eq!(sched.select_only(&t).chosen, sched.schedule(&t).format());
    }

    #[test]
    fn select_only_and_schedule_agree_on_uncompacted_input() {
        // Every entry pushed three times, out of order, plus a pair that
        // cancels: the raw list has rows four times as long as the matrix.
        let spec = DatasetSpec::by_name("adult").unwrap().scaled(16);
        let compact = generate(&spec, 5);
        let mut t = TripletMatrix::new(compact.rows(), compact.cols());
        for &(r, c, v) in compact.entries().iter().rev() {
            t.push(r, c, v);
            t.push(r, c, -2.0 * v);
            t.push(r, c, 2.0 * v);
        }
        t.push(0, 0, 1e300);
        t.push(0, 0, -1e300);
        assert!(!t.is_compact());
        for strategy in [SelectionStrategy::RuleBased, SelectionStrategy::CostModel] {
            let sched = LayoutScheduler::with_strategy(strategy);
            let (selected, scheduled) = (sched.select_only(&t), sched.schedule(&t));
            assert_eq!(selected.chosen, scheduled.format());
            assert_eq!(selected.features, *scheduled.features());
            assert_eq!(selected.features, MatrixFeatures::from_triplets(&t.clone().compact()));
            assert_eq!(scheduled.matrix().nnz(), selected.features.nnz);
        }
    }

    #[test]
    fn strategy_selector_matches_with_strategy() {
        // The enum's selector() and the scheduler built from the same
        // strategy must agree — there is exactly one dispatch site.
        let spec = DatasetSpec::by_name("aloi").unwrap();
        let t = generate(spec, 7);
        let f = MatrixFeatures::from_triplets(&t);
        for strategy in [
            SelectionStrategy::RuleBased,
            SelectionStrategy::CostModel,
            SelectionStrategy::Fixed(Format::Ell),
        ] {
            let direct = strategy.selector().select(&t, &f);
            let via_sched = LayoutScheduler::with_strategy(strategy).select_only(&t);
            assert_eq!(direct.chosen, via_sched.chosen);
        }
    }

    #[test]
    fn custom_selector_plugs_in() {
        /// A policy no built-in strategy expresses: smallest predicted
        /// storage over all of `Format::ALL`.
        struct SmallestStorage;
        impl FormatSelector for SmallestStorage {
            fn select(&self, _t: &TripletMatrix, f: &MatrixFeatures) -> SelectionReport {
                let chosen = Format::ALL
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        dls_sparse::storage::predicted_storage_elems(a, f)
                            .partial_cmp(&dls_sparse::storage::predicted_storage_elems(b, f))
                            .unwrap()
                    })
                    .unwrap();
                SelectionReport {
                    chosen,
                    block: MAX_SMSV_BLOCK,
                    features: *f,
                    scores: rank_by_storage(chosen, f),
                    reason: "smallest storage".into(),
                }
            }
        }
        let spec = DatasetSpec::by_name("trefethen").unwrap();
        let t = generate(spec, 1);
        let sched = LayoutScheduler::with_selector(SmallestStorage);
        assert_eq!(sched.strategy, None);
        let s = sched.schedule(&t);
        // Trefethen is diagonal: DIA stores the least by a wide margin.
        assert_eq!(s.format(), Format::Dia);
        assert!(s.report().reason.contains("smallest storage"));
    }

    #[test]
    fn scheduled_matrix_trains_with_svm() {
        use dls_data::labels::linear_teacher_labels;
        let spec = DatasetSpec::by_name("adult").unwrap().scaled(20);
        let t = generate(&spec, 4);
        let y = linear_teacher_labels(&t, 0.0, 4);
        let s = LayoutScheduler::new().schedule(&t);
        let params = dls_svm::SmoParams {
            kernel: dls_svm::KernelKind::Linear,
            max_iterations: 5_000,
            ..Default::default()
        };
        let (model, stats) = dls_svm::train_with_stats(s.matrix(), &y, &params).unwrap();
        assert!(stats.iterations > 0);
        // Training accuracy on a teacher-labelled set must beat chance.
        let preds: Vec<f64> =
            (0..t.rows()).map(|i| model.predict_label(&t.row_sparse(i))).collect();
        let acc = dls_svm::accuracy(&preds, &y);
        assert!(acc > 0.8, "training accuracy {acc}");
    }

    #[test]
    fn into_matrix_yields_ownership() {
        let spec = DatasetSpec::by_name("trefethen").unwrap();
        let t = generate(spec, 1);
        let m = LayoutScheduler::new().schedule(&t).into_matrix();
        assert_eq!(m.format(), Format::Dia);
    }
}
