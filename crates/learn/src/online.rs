//! Online learning: production telemetry → labelled observations →
//! background retraining.
//!
//! The offline pipeline ([`crate::train_selector`]) freezes its model at
//! ship time. This module closes the loop the paper never had:
//!
//! 1. **[`LabeledObservation`]** — one executed SMSV sweep as seen in
//!    production (the nine influencing parameters, the format that ran,
//!    the tuned block, the coalesced batch size, measured nanoseconds).
//! 2. **[`ObservationRing`]** — a bounded, thread-safe ring the serve
//!    executor appends into; when full the oldest observation is
//!    overwritten. A retrainer drains it.
//! 3. **[`observations_to_samples`]** — observations grouped by matrix
//!    fingerprint become [`LabelledSample`]s: measured seconds-per-vector
//!    for formats production actually ran, analytic estimates (rescaled to
//!    the measured reference) for the rest.
//! 4. **[`retrain_online`]** — the offline trainer's routine with the
//!    production samples merged in (recency-weighted), plus a bagged
//!    forest ([`bag`]) when single-tree holdout accuracy plateaus.
//!
//! The published model serves behind a confidence-gated
//! [`LearnedSelector`](dls_core::LearnedSelector); the serve-side half
//! (recording site, background thread, regret-guarded hot swap) lives in
//! `dls-serve::feedback`.

use crate::eval::{evaluate, EvalSummary};
use crate::grid::GridConfig;
use crate::label::{LabelMode, LabelSource, LabelledSample};
use crate::{TrainConfig, TrainOutcome};
use dls_core::cost::argmin;
use dls_core::tree::arg_max;
use dls_core::{
    featurize, BandwidthProfile, CostModelSelector, DecisionTree, TrainedModel, TreeParams,
    NUM_FEATURES,
};
use dls_sparse::{Format, MatrixFeatures};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One executed sweep observed in production — the unit of the telemetry
/// training log.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledObservation {
    /// Monotonic sequence number, assigned by the ring on append.
    pub seq: u64,
    /// Extracted influencing parameters of the matrix that was served.
    pub features: MatrixFeatures,
    /// Format that executed the sweep.
    pub format: Format,
    /// Tuned kernel block size in effect.
    pub block: usize,
    /// Vectors coalesced into the sweep.
    pub batch: usize,
    /// Measured wall time of the whole sweep, nanoseconds.
    pub nanos: u64,
}

impl LabeledObservation {
    /// Feature vector for training.
    pub fn x(&self) -> [f64; NUM_FEATURES] {
        featurize(&self.features)
    }

    /// Seconds per vector — the unit comparable across batch sizes.
    pub fn secs_per_vector(&self) -> f64 {
        self.nanos as f64 * 1e-9 / self.batch.max(1) as f64
    }
}

/// Bounded, thread-safe observation ring. Appenders never block on a slow
/// retrainer: when the ring is full the **oldest** observation is dropped
/// (and counted), so the log always holds the most recent window of
/// production traffic.
#[derive(Debug)]
pub struct ObservationRing {
    cap: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    buf: Mutex<VecDeque<LabeledObservation>>,
}

impl ObservationRing {
    /// Creates a ring holding at most `cap` observations (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            buf: Mutex::new(VecDeque::with_capacity(cap.max(1))),
        }
    }

    /// Appends one observation, assigning its sequence number. Returns the
    /// assigned sequence. Overwrites the oldest entry when full.
    pub fn append(&self, mut obs: LabeledObservation) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        obs.seq = seq;
        let mut buf = self.buf.lock().expect("observation ring poisoned");
        if buf.len() == self.cap {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(obs);
        seq
    }

    /// Takes everything currently buffered, oldest first.
    pub fn drain(&self) -> Vec<LabeledObservation> {
        let mut buf = self.buf.lock().expect("observation ring poisoned");
        buf.drain(..).collect()
    }

    /// Observations currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("observation ring poisoned").len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum observations held.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total observations ever appended.
    pub fn total_appended(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Observations overwritten before being drained.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Quantised fingerprint: observations of the same matrix group together.
fn fingerprint(f: &MatrixFeatures) -> [u64; 9] {
    [
        f.m as u64,
        f.n as u64,
        f.nnz as u64,
        f.ndig as u64,
        f.mdim as u64,
        f.dnnz.to_bits(),
        f.adim.to_bits(),
        f.vdim.to_bits(),
        f.density.to_bits(),
    ]
}

/// Converts production observations into labelled training samples.
///
/// Observations are grouped by matrix fingerprint. Within a group, each
/// *observed* basic format gets the mean measured seconds-per-vector;
/// unobserved formats get the analytic prediction rescaled so the analytic
/// and measured scales agree on the most-observed format (the same
/// calibration trick `MispredictDetector` uses). The label is the argmin;
/// its provenance is [`LabelSource::Measured`] when the winner was
/// actually measured, [`LabelSource::AnalyticFallback`] when the rescaled
/// analytic estimate of an unobserved format wins. Observations of derived
/// (non-basic) formats are skipped — the label space is the basic five.
pub fn observations_to_samples(obs: &[LabeledObservation]) -> Vec<LabelledSample> {
    struct Group {
        features: MatrixFeatures,
        first_seq: u64,
        // Per basic format: (sum secs/vector, count).
        sums: [(f64, u64); Format::BASIC.len()],
    }
    let mut order: Vec<Group> = Vec::new();
    let mut index: HashMap<[u64; 9], usize> = HashMap::new();
    for o in obs {
        let Some(fi) = Format::BASIC.iter().position(|&f| f == o.format) else {
            continue;
        };
        let key = fingerprint(&o.features);
        let gi = *index.entry(key).or_insert_with(|| {
            order.push(Group {
                features: o.features,
                first_seq: o.seq,
                sums: [(0.0, 0); Format::BASIC.len()],
            });
            order.len() - 1
        });
        let slot = &mut order[gi].sums[fi];
        slot.0 += o.secs_per_vector();
        slot.1 += 1;
    }

    order
        .into_iter()
        .map(|g| {
            let analytic =
                CostModelSelector::with_bandwidth(BandwidthProfile::FLAT).basic_times(&g.features);
            // Reference: the most-observed format (ties as `arg_max` breaks
            // them) anchors the analytic→measured rescale.
            let reference = arg_max(&g.sums.map(|(_, count)| count));
            let measured_ref = g.sums[reference].0 / g.sums[reference].1.max(1) as f64;
            let ratio = if analytic[reference] > 0.0 && measured_ref > 0.0 {
                measured_ref / analytic[reference]
            } else {
                1.0
            };
            let mut scores = [0.0; Format::BASIC.len()];
            let mut observed = [false; Format::BASIC.len()];
            for (i, &(sum, count)) in g.sums.iter().enumerate() {
                if count > 0 {
                    scores[i] = sum / count as f64;
                    observed[i] = true;
                } else {
                    scores[i] = analytic[i] * ratio;
                }
            }
            let best = argmin(scores);
            LabelledSample {
                desc: format!("online#{}", g.first_seq),
                features: g.features,
                x: featurize(&g.features),
                label: Format::BASIC[best],
                scores,
                source: if observed[best] {
                    LabelSource::Measured
                } else {
                    LabelSource::AnalyticFallback
                },
            }
        })
        .collect()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Bagging: `n_trees` independent CARTs, each grown on a deterministic
/// bootstrap resample of the same training set (tree `k` resamples with
/// stream `seed + k`). The trees vote in
/// [`TrainedModel::predict_with_confidence`].
pub fn bag(
    xs: &[[f64; NUM_FEATURES]],
    ys: &[Format],
    n_trees: usize,
    seed: u64,
) -> Vec<DecisionTree> {
    assert!(!xs.is_empty(), "cannot train a forest on an empty sample set");
    let n = xs.len();
    (0..n_trees.max(1))
        .map(|k| {
            let mut state = seed.wrapping_add(k as u64).wrapping_mul(0x9e3779b97f4a7c15);
            let picks: Vec<usize> =
                (0..n).map(|_| (splitmix64(&mut state) % n as u64) as usize).collect();
            let bx: Vec<&[f64; NUM_FEATURES]> = picks.iter().map(|&i| &xs[i]).collect();
            let by: Vec<Format> = picks.iter().map(|&i| ys[i]).collect();
            DecisionTree::train(&bx, &by, TreeParams::CLASSIFIER)
        })
        .collect()
}

/// Forest size attached when the single tree plateaus.
const ENSEMBLE_TREES: usize = 5;

/// The plateau rule fires when single-tree holdout accuracy fails to beat
/// the incumbent's by at least this much.
const PLATEAU_MARGIN: f64 = 0.005;

/// What one online retraining cycle is told; everything else about it
/// (holdout stride, production weights, forest size, plateau margin) is a
/// constant of the trainer.
#[derive(Debug, Clone, Copy)]
pub struct OnlineTrainConfig {
    /// Seed for grid generation and forest bootstrapping.
    pub seed: u64,
    /// Quick (CI-sized) synthetic grid instead of the full one.
    pub quick_grid: bool,
}

impl Default for OnlineTrainConfig {
    fn default() -> Self {
        Self { seed: GridConfig::default().seed, quick_grid: false }
    }
}

/// Everything one online retraining cycle produces.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The candidate model (single tree, or tree + ensemble).
    pub model: TrainedModel,
    /// Trusted replay slice: grid samples never seen during fitting. The
    /// swap guard replays candidate and incumbent over this slice, so a
    /// poisoned telemetry log cannot also poison its own acceptance test.
    pub holdout: Vec<LabelledSample>,
    /// Candidate holdout agreement (of whichever predictor `model` uses).
    pub holdout_accuracy: f64,
    /// True when the plateau rule fired and the forest is attached.
    pub ensemble_used: bool,
    /// Distinct production-derived samples merged into training.
    pub production_samples: usize,
}

/// Replays `model` over `slice` and grades it against the oracle scores.
pub fn model_regret(model: &TrainedModel, name: &str, slice: &[LabelledSample]) -> EvalSummary {
    let picks: Vec<Format> = slice.iter().map(|s| model.predict(&s.x)).collect();
    evaluate(name, slice, &picks)
}

/// One retraining cycle: the trainer's routine over the synthetic grid
/// (analytic labels, deterministic — this runs on a background thread, so
/// no timing) with production observations merged in. When
/// `incumbent_accuracy` is known and the fresh single tree fails to improve
/// on it by the plateau margin, a bagged forest is trained and attached if
/// it scores at least as well on the holdout.
pub fn retrain_online(
    cfg: &OnlineTrainConfig,
    observations: &[LabeledObservation],
    incumbent_accuracy: Option<f64>,
) -> OnlineOutcome {
    let production = observations_to_samples(observations);
    let train_cfg =
        TrainConfig { seed: cfg.seed, quick: cfg.quick_grid, mode: LabelMode::analytic_flat() };
    let (TrainOutcome { model, holdout, .. }, xs, ys) = crate::fit(&train_cfg, Some(&production));
    let mut out = OnlineOutcome {
        holdout_accuracy: model_regret(&model, "tree", &holdout).agreement,
        model,
        holdout,
        ensemble_used: false,
        production_samples: production.len(),
    };

    // Plateau rule: a fresh single tree that cannot beat the incumbent is
    // at the ceiling of what one tree extracts from this data — spend the
    // extra memory on variance reduction instead.
    if incumbent_accuracy.is_some_and(|prev| out.holdout_accuracy <= prev + PLATEAU_MARGIN) {
        out.model.ensemble = bag(&xs, &ys, ENSEMBLE_TREES, cfg.seed);
        let forest_accuracy = model_regret(&out.model, "forest", &out.holdout).agreement;
        if forest_accuracy >= out.holdout_accuracy {
            out.holdout_accuracy = forest_accuracy;
            out.ensemble_used = true;
        } else {
            out.model.ensemble.clear();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_data::controlled::mdim_matrix;
    use std::sync::Arc;

    // A CSR-shaped matrix (nnz = 2·m concentrated in one wide row): CSR is
    // both the analytic winner and the plausible measured one, so rescaled
    // analytic estimates of unobserved formats cannot undercut it.
    fn obs(m: usize, nnz: usize, format: Format, nanos: u64, batch: usize) -> LabeledObservation {
        let t = mdim_matrix(m, m, nnz, m, 2);
        LabeledObservation {
            seq: 0,
            features: MatrixFeatures::from_triplets(&t),
            format,
            block: 8,
            batch,
            nanos,
        }
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let ring = ObservationRing::new(3);
        for k in 0..5 {
            ring.append(obs(64, 128, Format::Csr, 1000 + k, 1));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_appended(), 5);
        assert_eq!(ring.dropped(), 2);
        let drained = ring.drain();
        // Seqs 0 and 1 were overwritten; the newest three survive in order.
        let seqs: Vec<u64> = drained.iter().map(|o| o.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(ring.dropped(), 2, "draining does not count as dropping");
    }

    #[test]
    fn concurrent_append_while_drain_loses_nothing_below_capacity() {
        // Appenders and a drainer race; every appended observation must end
        // up either in some drain batch or still buffered — none vanish and
        // none duplicate (the ring never overflows in this test).
        let ring = Arc::new(ObservationRing::new(100_000));
        let n_threads = 4;
        let per_thread = 500;
        let drained = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for k in 0..per_thread {
                    ring.append(obs(64, 128, Format::Csr, (t * per_thread + k) as u64 + 1, 1));
                }
            }));
        }
        let drainer = {
            let ring = Arc::clone(&ring);
            let drained = Arc::clone(&drained);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let batch = ring.drain();
                    drained.lock().unwrap().extend(batch);
                    std::thread::yield_now();
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        drainer.join().unwrap();
        let mut all = drained.lock().unwrap().clone();
        all.extend(ring.drain());
        assert_eq!(all.len(), n_threads * per_thread);
        let mut seqs: Vec<u64> = all.iter().map(|o| o.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), n_threads * per_thread, "every seq exactly once");
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn observed_winner_is_labelled_measured() {
        // Same matrix observed under two formats; CSR measured much faster.
        let mut observations = vec![
            obs(128, 256, Format::Csr, 1_000, 1),
            obs(128, 256, Format::Dia, 50_000, 1),
            obs(128, 256, Format::Csr, 1_200, 1),
        ];
        for (i, o) in observations.iter_mut().enumerate() {
            o.seq = i as u64;
        }
        let samples = observations_to_samples(&observations);
        assert_eq!(samples.len(), 1, "one fingerprint group");
        let s = &samples[0];
        assert_eq!(s.label, Format::Csr);
        assert_eq!(s.source, LabelSource::Measured);
        // CSR's score is the mean of its two measurements.
        assert!((s.score_of(Format::Csr).unwrap() - 1.1e-6).abs() < 1e-12);
        // DIA keeps its own measurement rather than an analytic guess.
        assert!((s.score_of(Format::Dia).unwrap() - 5e-5).abs() < 1e-12);
    }

    #[test]
    fn derived_format_observations_are_skipped() {
        let observations = vec![obs(128, 256, Format::Csc, 1_000, 1)];
        assert!(observations_to_samples(&observations).is_empty());
    }

    #[test]
    fn forest_is_deterministic_and_votes_sensibly() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for k in 0..40 {
            let mut x = [0.0; NUM_FEATURES];
            x[3] = k as f64 / 39.0;
            xs.push(x);
            ys.push(if x[3] > 0.5 { Format::Den } else { Format::Csr });
        }
        let a = bag(&xs, &ys, 5, 7);
        assert_eq!(a, bag(&xs, &ys, 5, 7), "same seed, same forest");
        assert_eq!(a.len(), 5);
        let mut deep = [0.0; NUM_FEATURES];
        deep[3] = 0.95;
        let cfg = OnlineTrainConfig { quick_grid: true, ..Default::default() };
        let base = retrain_online(&cfg, &[], None).model;
        let (fmt, conf) = TrainedModel { ensemble: a, ..base }.predict_with_confidence(&deep);
        assert_eq!(fmt, Format::Den);
        assert!(conf >= 0.6, "far from the boundary the vote is strong: {conf}");
    }

    #[test]
    fn retrain_merges_production_and_plateau_grows_a_forest() {
        let cfg = OnlineTrainConfig { quick_grid: true, ..Default::default() };
        let base = retrain_online(&cfg, &[], None);
        assert!(base.model.ensemble.is_empty(), "no incumbent, no plateau");
        assert!(base.holdout_accuracy > 0.5);
        assert_eq!(base.production_samples, 0);

        // A fresh tree on the same data cannot beat an incumbent already at
        // its own accuracy — the plateau rule must fire.
        let upgraded = retrain_online(&cfg, &[], Some(base.holdout_accuracy));
        assert!(upgraded.ensemble_used, "plateau upgrades to the ensemble");
        assert_eq!(upgraded.model.ensemble_size(), 5);
        assert!(upgraded.holdout_accuracy >= base.holdout_accuracy);

        // Production observations land in the meta counts.
        let mut observations =
            vec![obs(200, 400, Format::Csr, 900, 1), obs(200, 400, Format::Dia, 90_000, 1)];
        for (i, o) in observations.iter_mut().enumerate() {
            o.seq = i as u64;
        }
        let with_prod = retrain_online(&cfg, &observations, None);
        assert_eq!(with_prod.production_samples, 1);
        assert!(with_prod.model.meta.measured > 0, "production samples counted as measured");
        assert_eq!(with_prod.model.meta.grid, "online");
    }

    #[test]
    fn retraining_is_deterministic() {
        let cfg = OnlineTrainConfig { quick_grid: true, ..Default::default() };
        let observations = vec![obs(96, 192, Format::Ell, 2_000, 2)];
        let a = retrain_online(&cfg, &observations, Some(0.99));
        let b = retrain_online(&cfg, &observations, Some(0.99));
        assert_eq!(a.model, b.model);
        assert_eq!(a.model.to_json(), b.model.to_json());
    }
}
