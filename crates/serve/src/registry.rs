//! Loaded models and their scheduled, instrumented support matrices.
//!
//! A [`ServedModel`] is an [`SvmModel`] prepared for serving: its support
//! vectors are lowered to a row matrix, the [`LayoutScheduler`] picks that
//! matrix's storage format (per-model — heterogeneous models get
//! heterogeneous layouts, the paper's thesis applied across requests), and
//! the matrix is wrapped in an [`InstrumentedMatrix`] so every predict
//! batch feeds per-model [`SmsvCounters`] — including the block-size
//! histogram the `Stats` endpoint exposes. Before the wrap, the bare matrix
//! is timed into the model's `SweepTable`, so those probes stay out of
//! the counters.

use crate::latency::SweepTable;
use dls_core::{LayoutScheduler, SelectionReport, SelectionStrategy};
use dls_sparse::{Format, InstrumentedMatrix, MatrixFormat, SmsvCounters, SparseVec};
use dls_svm::{PredictWorkspace, SvmModel};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Panics before a model is pulled from service entirely.
pub(crate) const QUARANTINE_PANICS: u64 = 3;

/// A served model's rung on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelHealth {
    /// Serving normally through the scheduler-chosen layout.
    Healthy = 0,
    /// At least one execution panicked: the model serves through an
    /// analytic rule-based fallback layout (the cheap selector that cannot
    /// depend on the code path that just failed).
    Degraded = 1,
    /// Repeated panics (`QUARANTINE_PANICS`): the executor refuses new
    /// submissions for this model with a typed error.
    Quarantined = 2,
}

impl ModelHealth {
    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelHealth::Healthy => "healthy",
            ModelHealth::Degraded => "degraded",
            ModelHealth::Quarantined => "quarantined",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => ModelHealth::Healthy,
            1 => ModelHealth::Degraded,
            _ => ModelHealth::Quarantined,
        }
    }
}

/// One model, ready to serve.
pub struct ServedModel {
    name: String,
    model: SvmModel,
    /// Support-vector rows in the scheduled format, metered.
    matrix: Option<InstrumentedMatrix>,
    counters: Arc<SmsvCounters>,
    report: Option<SelectionReport>,
    /// Measured sweep times of the scheduled matrix.
    sweeps: Option<SweepTable>,
    dim: usize,
    /// Current [`ModelHealth`] rung (atomic so the hot path reads it with
    /// one relaxed load).
    health: AtomicU8,
    /// Executions that panicked under this model.
    panics: AtomicU64,
    /// The analytic-fallback layout, built on first degradation.
    fallback: Mutex<Option<InstrumentedMatrix>>,
}

impl ServedModel {
    /// Prepares `model` for serving: lowers the support vectors, runs the
    /// scheduler on them, times the scheduled matrix, and wires up fresh
    /// counters.
    pub fn new(name: impl Into<String>, model: SvmModel, scheduler: &LayoutScheduler) -> Self {
        let counters = SmsvCounters::shared();
        let sv_rows = model.support_matrix(PredictWorkspace::CACHE_FORMAT);
        let (matrix, report, sweeps, dim) = match sv_rows {
            Some(m) => {
                let t = m.to_triplets().compact();
                let scheduled = scheduler.schedule(&t);
                let report = scheduled.report().clone();
                let dim = m.cols();
                let matrix = scheduled.into_matrix();
                let sweeps = SweepTable::measure(&model, &matrix, dim);
                (
                    Some(InstrumentedMatrix::new(matrix, Arc::clone(&counters))),
                    Some(report),
                    Some(sweeps),
                    dim,
                )
            }
            // A model with no support vectors predicts a constant.
            None => (None, None, None, 0),
        };
        Self {
            name: name.into(),
            model,
            matrix,
            counters,
            report,
            sweeps,
            dim,
            health: AtomicU8::new(ModelHealth::Healthy as u8),
            panics: AtomicU64::new(0),
            fallback: Mutex::new(None),
        }
    }

    /// Registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying trained model.
    pub fn model(&self) -> &SvmModel {
        &self.model
    }

    /// Feature dimension queries must match (0 for constant models).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The format the scheduler chose for the support matrix.
    pub fn format(&self) -> Option<Format> {
        self.matrix.as_ref().map(|m| m.format())
    }

    /// The scheduler's full selection report, when a matrix exists.
    pub fn report(&self) -> Option<&SelectionReport> {
        self.report.as_ref()
    }

    /// The scheduled matrix's measured sweep times, `None` for constant
    /// models (nothing to sweep, nothing worth admission-controlling).
    pub(crate) fn sweeps(&self) -> Option<&SweepTable> {
        self.sweeps.as_ref()
    }

    /// This model's live SMSV counters.
    pub fn counters(&self) -> &Arc<SmsvCounters> {
        &self.counters
    }

    /// Current rung on the degradation ladder.
    pub fn health(&self) -> ModelHealth {
        ModelHealth::from_u8(self.health.load(Ordering::Relaxed))
    }

    /// Executions that panicked under this model.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Whether new submissions must be refused.
    pub(crate) fn is_quarantined(&self) -> bool {
        self.health() == ModelHealth::Quarantined
    }

    /// Records one isolated execution panic and walks the ladder: the
    /// first panic degrades the model onto an analytic rule-based fallback
    /// layout (rebuilt from the support triplets — the cheap selector
    /// keeps serving when the learned-path layout is implicated), and the
    /// `QUARANTINE_PANICS`-th pulls it from service. Returns the new
    /// rung.
    pub(crate) fn note_panic(&self) -> ModelHealth {
        let panics = self.panics.fetch_add(1, Ordering::SeqCst) + 1;
        let rung = if panics >= QUARANTINE_PANICS {
            ModelHealth::Quarantined
        } else {
            ModelHealth::Degraded
        };
        if rung == ModelHealth::Degraded {
            let mut fallback = self.fallback.lock().expect("fallback poisoned");
            if fallback.is_none() {
                if let Some(m) = &self.matrix {
                    let scheduled = LayoutScheduler::with_strategy(SelectionStrategy::RuleBased)
                        .schedule(&m.to_triplets());
                    *fallback = Some(InstrumentedMatrix::new(
                        scheduled.into_matrix(),
                        Arc::clone(&self.counters),
                    ));
                }
            }
        }
        self.health.store(rung as u8, Ordering::SeqCst);
        rung
    }

    /// Decision values for a batch, through the blocked engine and this
    /// model's instrumented matrix. `ws` is caller-held scratch (one per
    /// worker thread); only its buffers are used, not its matrix cache.
    /// A degraded model answers through its analytic-fallback layout.
    pub fn predict(&self, xs: &[SparseVec], ws: &mut PredictWorkspace) -> Vec<f64> {
        if self.health() != ModelHealth::Healthy {
            let fallback = self.fallback.lock().expect("fallback poisoned");
            if let Some(fb) = fallback.as_ref() {
                return self.model.predict_batch_with(fb, xs, ws);
            }
        }
        match &self.matrix {
            Some(m) => self.model.predict_batch_with(m, xs, ws),
            None => vec![self.model.bias(); xs.len()],
        }
    }

    /// Validates one query vector's dimension.
    pub(crate) fn check_dim(&self, x: &SparseVec) -> Result<(), String> {
        if self.matrix.is_some() && x.dim() != self.dim {
            return Err(format!(
                "model {:?} expects dimension {}, got {}",
                self.name,
                self.dim,
                x.dim()
            ));
        }
        Ok(())
    }
}

/// The set of models a server instance hosts, keyed by name.
///
/// The registry is immutable once the server starts (swap-in of new models
/// is a restart concern), so lookups are lock-free `Arc` clones.
#[derive(Default)]
pub struct ModelRegistry {
    models: BTreeMap<String, Arc<ServedModel>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a prepared model. Returns `self` for builder-style chaining;
    /// a duplicate name replaces the previous entry.
    pub fn with(mut self, served: ServedModel) -> Self {
        self.insert(served);
        self
    }

    /// Adds a prepared model.
    pub fn insert(&mut self, served: ServedModel) {
        self.models.insert(served.name.clone(), Arc::new(served));
    }

    /// Looks up a model by name.
    pub fn get(&self, name: &str) -> Option<&Arc<ServedModel>> {
        self.models.get(name)
    }

    /// All hosted models, in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<ServedModel>> {
        self.models.values()
    }

    /// Number of hosted models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry hosts no models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_svm::KernelKind;

    fn toy_model() -> SvmModel {
        let svs = vec![
            SparseVec::new(6, vec![0, 2], vec![1.0, -1.0]),
            SparseVec::new(6, vec![1, 5], vec![0.5, 2.0]),
        ];
        SvmModel::new(KernelKind::Linear, svs, vec![1.0, -0.5], 0.25)
    }

    #[test]
    fn served_model_predicts_like_the_raw_model() {
        let scheduler = LayoutScheduler::new();
        let served = ServedModel::new("toy", toy_model(), &scheduler);
        assert_eq!(served.dim(), 6);
        assert!(served.format().is_some());
        let feats = &served.report().expect("support matrix has a report").features;
        assert_eq!((feats.m, feats.n, feats.nnz), (2, 6, 4));
        let xs = vec![
            SparseVec::new(6, vec![0, 1], vec![2.0, 4.0]),
            SparseVec::new(6, vec![5], vec![-1.0]),
        ];
        let mut ws = PredictWorkspace::new();
        let got = served.predict(&xs, &mut ws);
        for (x, &g) in xs.iter().zip(&got) {
            assert_eq!(g.to_bits(), served.model().decision_function(x).to_bits());
        }
        // Predictions were metered into this model's counters, and nothing
        // else was: the sweep-table probes ran on the bare matrix.
        assert!(served.sweeps().is_some());
        assert_eq!(served.counters().snapshot().total_calls(), 2);
    }

    #[test]
    fn constant_model_serves_its_bias() {
        let scheduler = LayoutScheduler::new();
        let model = SvmModel::new(KernelKind::Linear, vec![], vec![], -1.5);
        let served = ServedModel::new("const", model, &scheduler);
        assert_eq!(served.format(), None);
        assert!(served.sweeps().is_none());
        let mut ws = PredictWorkspace::new();
        assert_eq!(served.predict(&[SparseVec::zeros(3)], &mut ws), vec![-1.5]);
        assert!(served.check_dim(&SparseVec::zeros(99)).is_ok());
    }

    #[test]
    fn dimension_mismatches_are_reported_not_panicked() {
        let served = ServedModel::new("toy", toy_model(), &LayoutScheduler::new());
        assert!(served.check_dim(&SparseVec::zeros(6)).is_ok());
        let err = served.check_dim(&SparseVec::zeros(7)).unwrap_err();
        assert!(err.contains("dimension 6"), "{err}");
    }

    #[test]
    fn panic_ladder_degrades_then_quarantines_with_bit_exact_fallback() {
        let served = ServedModel::new("toy", toy_model(), &LayoutScheduler::new());
        assert_eq!(served.health(), ModelHealth::Healthy);

        let xs = vec![
            SparseVec::new(6, vec![0, 1], vec![2.0, 4.0]),
            SparseVec::new(6, vec![5], vec![-1.0]),
        ];
        let mut ws = PredictWorkspace::new();
        let healthy = served.predict(&xs, &mut ws);

        // First panic: degraded, serving from the rule-based fallback —
        // and still bit-exact, because layout never changes values.
        assert_eq!(served.note_panic(), ModelHealth::Degraded);
        assert_eq!(served.health(), ModelHealth::Degraded);
        assert!(served.fallback.lock().unwrap().is_some());
        let degraded = served.predict(&xs, &mut ws);
        for (h, d) in healthy.iter().zip(&degraded) {
            assert_eq!(h.to_bits(), d.to_bits());
        }

        // Repeated panics quarantine.
        assert_eq!(served.note_panic(), ModelHealth::Degraded);
        assert_eq!(served.note_panic(), ModelHealth::Quarantined);
        assert!(served.is_quarantined());
        assert_eq!(served.panics(), 3);
    }

    #[test]
    fn constant_model_survives_the_ladder_without_a_matrix() {
        let model = SvmModel::new(KernelKind::Linear, vec![], vec![], -1.5);
        let served = ServedModel::new("const", model, &LayoutScheduler::new());
        assert_eq!(served.note_panic(), ModelHealth::Degraded);
        let mut ws = PredictWorkspace::new();
        // No fallback matrix exists; the bias path still answers.
        assert_eq!(served.predict(&[SparseVec::zeros(3)], &mut ws), vec![-1.5]);
        assert!(served.fallback.lock().unwrap().is_none());
    }

    #[test]
    fn registry_lookup_and_iteration() {
        let scheduler = LayoutScheduler::new();
        let reg = ModelRegistry::new()
            .with(ServedModel::new("b", toy_model(), &scheduler))
            .with(ServedModel::new("a", toy_model(), &scheduler));
        assert_eq!(reg.len(), 2);
        assert!(reg.get("a").is_some());
        assert!(reg.get("missing").is_none());
        let names: Vec<&str> = reg.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
