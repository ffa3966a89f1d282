//! The serving half of the online-learning loop: production telemetry
//! recording, background retraining, and regret-guarded hot model swaps.
//!
//! [`FeedbackHub`] owns the three runtime pieces `dls_learn::online`
//! deliberately leaves to the service:
//!
//! 1. **Recording** — the executor calls [`FeedbackHub::record_sweep`]
//!    after every successful blocked sweep; the observation lands in a
//!    bounded [`ObservationRing`] (appenders never block; when full the
//!    oldest entry is overwritten and counted).
//! 2. **Retraining** — a low-priority background thread periodically
//!    drains the ring and runs [`retrain_online`]: synthetic grid plus
//!    recency-weighted production labels, with the bagged-forest upgrade
//!    when a single tree plateaus. [`FeedbackHub::force_retrain`] runs one
//!    cycle synchronously for tests and the CI smoke.
//! 3. **Swap with a regret guard** — the candidate and the incumbent are
//!    both replayed over the *trusted* grid holdout (analytic labels the
//!    telemetry log cannot influence, so a poisoned log cannot also poison
//!    its own acceptance test). A candidate whose mean regret exceeds the
//!    incumbent's is rolled back — counted, never published. An accepted
//!    candidate becomes a confidence-gated [`LearnedSelector`] and is
//!    published through the shared [`SwappableSelector`]: in-flight
//!    selections finish against the generation they started with, and the
//!    next one picks up the new model. No request is ever paused or
//!    dropped for a swap.
//!
//! The hub's generation counter (the `SwappableSelector`'s) is the "active
//! model version" surfaced by `Stats` and the CLI.

use crate::stats::ServeStats;
use dls_core::{
    FormatSelector, LearnedSelector, RuleBasedSelector, SwappableSelector, TrainedModel,
    DEFAULT_MIN_CONFIDENCE,
};
use dls_learn::{
    model_regret, retrain_online, LabeledObservation, ObservationRing, OnlineTrainConfig,
};
use dls_sparse::{Format, MatrixFeatures};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Observations held in the telemetry ring before the oldest is
/// overwritten.
const RING_CAPACITY: usize = 4096;

/// Feedback-loop tuning knobs.
#[derive(Debug, Clone)]
pub struct FeedbackConfig {
    /// A retrain cycle is skipped (ring left intact) below this many
    /// buffered observations.
    pub min_observations: usize,
    /// Background retrain period.
    pub interval: Duration,
    /// Retraining seed and grid size. The serve default uses the quick
    /// grid so a cycle stays cheap enough for a low-priority thread.
    pub train: OnlineTrainConfig,
    /// Spawn the periodic background retrainer. Off, the hub still records
    /// and [`FeedbackHub::force_retrain`] still works — what the tests and
    /// the CI smoke use for determinism.
    pub background: bool,
    /// Start from this model (e.g. the frozen offline-trained selector)
    /// instead of the analytic rules.
    pub initial_model: Option<TrainedModel>,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        Self {
            min_observations: 16,
            interval: Duration::from_secs(30),
            train: OnlineTrainConfig { quick_grid: true, ..OnlineTrainConfig::default() },
            background: true,
            initial_model: None,
        }
    }
}

/// What one retrain cycle did.
#[derive(Debug, Clone, PartialEq)]
pub enum RetrainOutcome {
    /// Too few observations; the ring was left intact.
    Skipped {
        /// Observations buffered at the time.
        buffered: usize,
    },
    /// The candidate beat (or tied) the incumbent on the replay slice and
    /// was published.
    Accepted {
        /// New active model version (the swap generation).
        version: u64,
        /// Trees in the published model (1 = single CART).
        ensemble_size: usize,
        /// Candidate agreement on the trusted holdout.
        holdout_accuracy: f64,
        /// Candidate mean regret on the replay slice.
        candidate_regret: f64,
        /// Incumbent mean regret on the same slice (`None` for the first
        /// accepted model).
        incumbent_regret: Option<f64>,
    },
    /// The candidate's replay regret exceeded the incumbent's; it was
    /// discarded and the incumbent keeps serving.
    RolledBack {
        /// Candidate mean regret on the replay slice.
        candidate_regret: f64,
        /// Incumbent mean regret it failed to beat.
        incumbent_regret: f64,
    },
}

/// The live learned model: what serves, and what the guard defends.
struct Incumbent {
    /// The gated selector behind the swap handle (which holds the same
    /// `Arc`, type-erased); kept typed here for its model and counters.
    selector: Arc<LearnedSelector>,
    /// Holdout accuracy, when it came out of a retrain cycle (drives the
    /// plateau rule); `None` for a preloaded offline model.
    accuracy: Option<f64>,
}

impl Incumbent {
    fn new(model: TrainedModel, accuracy: Option<f64>) -> Self {
        let selector = Arc::new(LearnedSelector::with_gate(model, DEFAULT_MIN_CONFIDENCE));
        Self { selector, accuracy }
    }
}

/// `last_retrain` gauge values (also the wire encoding in the stats JSON).
const OUTCOME_NONE: u64 = 0;
const OUTCOME_ACCEPTED: u64 = 1;
const OUTCOME_ROLLED_BACK: u64 = 2;

/// Decodes the `last_retrain` gauge.
pub fn retrain_outcome_name(v: u64) -> &'static str {
    match v {
        OUTCOME_ACCEPTED => "accepted",
        OUTCOME_ROLLED_BACK => "rolled_back",
        _ => "none",
    }
}

/// Shared state of the online-learning feedback loop.
pub struct FeedbackHub {
    config: FeedbackConfig,
    ring: ObservationRing,
    swap: Arc<SwappableSelector>,
    /// `None` while the analytic rules serve (no model published yet).
    incumbent: Mutex<Option<Incumbent>>,
    retrains_accepted: AtomicU64,
    retrains_rolled_back: AtomicU64,
    last_outcome: AtomicU64,
    stop: Mutex<bool>,
    stop_cv: Condvar,
    retrainer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for FeedbackHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedbackHub")
            .field("version", &self.version())
            .field("buffered", &self.ring.len())
            .finish_non_exhaustive()
    }
}

impl FeedbackHub {
    /// Builds the hub. The initial selector behind the swap handle is the
    /// configured model (as a confidence-gated hybrid) or, absent one, the
    /// paper's host-tuned analytic rules.
    pub fn new(config: FeedbackConfig) -> Arc<Self> {
        let incumbent = config.initial_model.clone().map(|model| Incumbent::new(model, None));
        let initial: Arc<dyn FormatSelector> = match &incumbent {
            Some(inc) => Arc::clone(&inc.selector) as Arc<dyn FormatSelector>,
            None => Arc::new(RuleBasedSelector::for_host()),
        };
        Arc::new(Self {
            ring: ObservationRing::new(RING_CAPACITY),
            swap: Arc::new(SwappableSelector::new(initial)),
            incumbent: Mutex::new(incumbent),
            retrains_accepted: AtomicU64::new(0),
            retrains_rolled_back: AtomicU64::new(0),
            last_outcome: AtomicU64::new(OUTCOME_NONE),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
            retrainer: Mutex::new(None),
            config,
        })
    }

    /// The swappable selector handle. Build the serving `LayoutScheduler`
    /// on this (it implements `FormatSelector`) and every schedule request
    /// follows hot swaps with no coordination.
    pub fn selector(&self) -> Arc<SwappableSelector> {
        Arc::clone(&self.swap)
    }

    /// The configuration the hub was built with.
    pub fn config(&self) -> &FeedbackConfig {
        &self.config
    }

    /// Active model version: the swap generation (1 = the initial
    /// selector, bumped by every accepted retrain).
    pub fn version(&self) -> u64 {
        self.swap.generation()
    }

    /// Trees in the live model: 0 while the analytic rules serve, 1 for a
    /// single CART, 3..=7 for a bagged forest.
    pub fn ensemble_size(&self) -> usize {
        let incumbent = self.incumbent.lock().expect("feedback hub poisoned");
        incumbent.as_ref().map_or(0, |i| i.selector.model().ensemble_size())
    }

    /// (decisions, rule fallbacks) of the live gated selector; zeros while
    /// the analytic rules serve unconditionally.
    pub fn hybrid_counts(&self) -> (u64, u64) {
        let incumbent = self.incumbent.lock().expect("feedback hub poisoned");
        incumbent.as_ref().map_or((0, 0), |i| i.selector.gate_counts())
    }

    /// The telemetry ring (tests and the retrain smoke read its counters).
    pub fn ring(&self) -> &ObservationRing {
        &self.ring
    }

    /// Records one executed sweep into the training log.
    pub fn record_sweep(
        &self,
        features: &MatrixFeatures,
        format: Format,
        block: usize,
        batch: usize,
        nanos: u64,
    ) {
        self.ring.append(LabeledObservation {
            seq: 0, // assigned by the ring
            features: *features,
            format,
            block,
            batch,
            nanos: nanos.max(1),
        });
    }

    /// Runs one retrain cycle synchronously: drain, retrain, guard, swap
    /// or roll back. Safe to call concurrently with serving; the swap
    /// itself never blocks an in-flight selection.
    pub fn force_retrain(&self) -> RetrainOutcome {
        if self.ring.len() < self.config.min_observations {
            return RetrainOutcome::Skipped { buffered: self.ring.len() };
        }
        let observations = self.ring.drain();
        let incumbent_accuracy =
            self.incumbent.lock().expect("feedback hub poisoned").as_ref().and_then(|i| i.accuracy);
        let outcome = retrain_online(&self.config.train, &observations, incumbent_accuracy);

        // The regret guard replays both models over the trusted holdout —
        // synthetic grid cells with analytic labels, untouchable by the
        // telemetry that trained the candidate.
        let candidate_regret =
            model_regret(&outcome.model, "candidate", &outcome.holdout).mean_regret;
        let mut incumbent = self.incumbent.lock().expect("feedback hub poisoned");
        let incumbent_regret = incumbent
            .as_ref()
            .map(|i| model_regret(i.selector.model(), "incumbent", &outcome.holdout).mean_regret);
        if let Some(inc) = incumbent_regret {
            if candidate_regret > inc {
                self.retrains_rolled_back.fetch_add(1, Ordering::Relaxed);
                self.last_outcome.store(OUTCOME_ROLLED_BACK, Ordering::Relaxed);
                return RetrainOutcome::RolledBack { candidate_regret, incumbent_regret: inc };
            }
        }

        let ensemble_size = outcome.model.ensemble_size();
        let accepted = Incumbent::new(outcome.model, Some(outcome.holdout_accuracy));
        let version = self.swap.swap(Arc::clone(&accepted.selector) as Arc<dyn FormatSelector>);
        *incumbent = Some(accepted);
        self.retrains_accepted.fetch_add(1, Ordering::Relaxed);
        self.last_outcome.store(OUTCOME_ACCEPTED, Ordering::Relaxed);
        RetrainOutcome::Accepted {
            version,
            ensemble_size,
            holdout_accuracy: outcome.holdout_accuracy,
            candidate_regret,
            incumbent_regret,
        }
    }

    /// Spawns the periodic background retrainer (idempotent; a no-op when
    /// `config.background` is off).
    pub fn spawn_retrainer(self: &Arc<Self>) {
        if !self.config.background {
            return;
        }
        let mut slot = self.retrainer.lock().expect("feedback hub poisoned");
        if slot.is_some() {
            return;
        }
        let hub = Arc::clone(self);
        *slot = Some(
            std::thread::Builder::new()
                .name("dls-serve-retrainer".to_string())
                .spawn(move || loop {
                    let mut stopped = hub.stop.lock().expect("feedback hub poisoned");
                    while !*stopped {
                        let (next, timed_out) = hub
                            .stop_cv
                            .wait_timeout(stopped, hub.config.interval)
                            .expect("feedback hub poisoned");
                        stopped = next;
                        if timed_out.timed_out() {
                            break;
                        }
                    }
                    if *stopped {
                        return;
                    }
                    drop(stopped);
                    let _ = hub.force_retrain();
                })
                .expect("spawn retrainer"),
        );
    }

    /// Stops and joins the background retrainer (idempotent).
    pub fn stop(&self) {
        *self.stop.lock().expect("feedback hub poisoned") = true;
        self.stop_cv.notify_all();
        if let Some(handle) = self.retrainer.lock().expect("feedback hub poisoned").take() {
            let _ = handle.join();
        }
    }

    /// Copies the hub's live gauges into a stats block (store semantics —
    /// safe to call on every `Stats` request).
    pub fn sync_stats(&self, stats: &ServeStats) {
        let s = &stats.selector;
        let (decisions, fallbacks) = self.hybrid_counts();
        s.active_version.store(self.version(), Ordering::Relaxed);
        s.ensemble_size.store(self.ensemble_size() as u64, Ordering::Relaxed);
        s.decisions.store(decisions, Ordering::Relaxed);
        s.fallbacks.store(fallbacks, Ordering::Relaxed);
        s.observations.store(self.ring.total_appended(), Ordering::Relaxed);
        s.observations_dropped.store(self.ring.dropped(), Ordering::Relaxed);
        s.retrains_accepted
            .store(self.retrains_accepted.load(Ordering::Relaxed), Ordering::Relaxed);
        s.retrains_rolled_back
            .store(self.retrains_rolled_back.load(Ordering::Relaxed), Ordering::Relaxed);
        s.last_retrain.store(self.last_outcome.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Drop for FeedbackHub {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_learn::OnlineTrainConfig;
    use dls_sparse::TripletMatrix;

    fn quick_config() -> FeedbackConfig {
        FeedbackConfig {
            min_observations: 0,
            background: false,
            train: OnlineTrainConfig { quick_grid: true, ..OnlineTrainConfig::default() },
            ..FeedbackConfig::default()
        }
    }

    /// A matrix whose analytic winner is CSR (one wide row, the rest
    /// short), mirroring the learn-side test fixture.
    fn wide_row_features(m: usize) -> MatrixFeatures {
        let mut t = TripletMatrix::new(m, m);
        for j in 0..m {
            t.push(0, j, 1.0);
        }
        for i in 1..m {
            t.push(i, i % m, 1.0);
        }
        MatrixFeatures::from_triplets(&t)
    }

    #[test]
    fn first_retrain_is_accepted_and_bumps_the_version() {
        let hub = FeedbackHub::new(quick_config());
        assert_eq!(hub.version(), 1, "rules serve as generation 1");
        assert_eq!(hub.ensemble_size(), 0, "no learned model yet");
        match hub.force_retrain() {
            RetrainOutcome::Accepted { version, ensemble_size, .. } => {
                assert_eq!(version, 2);
                assert_eq!(ensemble_size, 1, "first model is a single tree");
            }
            other => panic!("expected acceptance, got {other:?}"),
        }
        assert_eq!(hub.version(), 2);
        assert_eq!(hub.ensemble_size(), 1);
        assert_eq!(retrain_outcome_name(OUTCOME_ACCEPTED), "accepted");
    }

    #[test]
    fn skip_below_the_observation_floor_leaves_the_ring_intact() {
        let hub = FeedbackHub::new(FeedbackConfig { min_observations: 5, ..quick_config() });
        hub.record_sweep(&wide_row_features(24), Format::Csr, 4, 2, 1_000);
        assert_eq!(hub.force_retrain(), RetrainOutcome::Skipped { buffered: 1 });
        assert_eq!(hub.ring().len(), 1, "skipped cycles must not consume the log");
    }

    /// The rollback guard: a log claiming DEN wins everywhere (absurd
    /// measured times on matrices whose true winner is sparse) produces a
    /// candidate whose regret on the trusted grid holdout exceeds the
    /// incumbent's — so the incumbent keeps serving and the version does
    /// not move.
    #[test]
    fn poisoned_retrain_is_rolled_back() {
        let hub = FeedbackHub::new(quick_config());
        assert!(matches!(hub.force_retrain(), RetrainOutcome::Accepted { .. }));
        let version = hub.version();

        // Poison: claim DEN "measured" instant and the real winner
        // catastrophically slow — at the *grid's own* feature vectors, so
        // the lie shadows the truth everywhere the holdout lives. Heavy
        // replication (production weight × recency boost) outvotes the
        // one-copy grid prior and the candidate learns "DEN everywhere".
        let cases = dls_learn::training_grid(&dls_learn::GridConfig {
            quick: true,
            ..dls_learn::GridConfig::default()
        });
        for case in &cases {
            let f = MatrixFeatures::from_triplets(&case.matrix);
            for _ in 0..2 {
                hub.record_sweep(&f, Format::Den, 4, 1, 10);
                hub.record_sweep(&f, Format::Csr, 4, 1, 10_000_000_000);
            }
        }
        match hub.force_retrain() {
            RetrainOutcome::RolledBack { candidate_regret, incumbent_regret } => {
                assert!(
                    candidate_regret > incumbent_regret,
                    "rollback must cite worse replay regret: {candidate_regret} vs {incumbent_regret}"
                );
            }
            other => panic!("poisoned candidate must roll back, got {other:?}"),
        }
        assert_eq!(hub.version(), version, "rolled-back candidate must not be published");
        let stats = ServeStats::new();
        hub.sync_stats(&stats);
        assert_eq!(stats.selector.retrains_rolled_back.load(Ordering::Relaxed), 1);
        assert_eq!(
            retrain_outcome_name(stats.selector.last_retrain.load(Ordering::Relaxed)),
            "rolled_back"
        );
    }

    /// The plateau rule end to end: a second cycle over the same data
    /// cannot beat the incumbent's accuracy, so the retrainer upgrades to
    /// the bagged forest and publishes it.
    #[test]
    fn plateau_upgrades_to_the_forest_on_the_second_cycle() {
        let hub = FeedbackHub::new(quick_config());
        assert!(matches!(hub.force_retrain(), RetrainOutcome::Accepted { .. }));
        match hub.force_retrain() {
            RetrainOutcome::Accepted { version, ensemble_size, .. } => {
                assert_eq!(version, 3);
                assert!(
                    (3..=7).contains(&ensemble_size),
                    "plateaued cycle should publish a forest, got {ensemble_size}"
                );
            }
            other => panic!("expected acceptance, got {other:?}"),
        }
        assert!((3..=7).contains(&hub.ensemble_size()));
    }

    #[test]
    fn background_retrainer_stops_cleanly() {
        let hub = FeedbackHub::new(FeedbackConfig {
            background: true,
            interval: Duration::from_secs(3600),
            ..quick_config()
        });
        hub.spawn_retrainer();
        hub.spawn_retrainer(); // idempotent
        hub.stop();
        hub.stop(); // idempotent
    }

    #[test]
    fn preloaded_model_serves_as_the_first_incumbent() {
        let outcome = dls_learn::train_selector(&dls_learn::TrainConfig {
            quick: true,
            mode: dls_learn::LabelMode::analytic_flat(),
            ..dls_learn::TrainConfig::default()
        });
        let hub = FeedbackHub::new(FeedbackConfig {
            initial_model: Some(outcome.model),
            ..quick_config()
        });
        assert_eq!(hub.version(), 1);
        assert_eq!(hub.ensemble_size(), 1, "preloaded tree is live before any retrain");
        // A clean retrain still gets through the guard (equal or better
        // regret on the shared holdout).
        assert!(matches!(
            hub.force_retrain(),
            RetrainOutcome::Accepted { .. } | RetrainOutcome::RolledBack { .. }
        ));
    }
}
