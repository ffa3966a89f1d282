//! The SLO-aware batching executor: classed per-model queues drained by a
//! worker pool under one drain rule (`discipline::decide`), with
//! predictive admission control in front.
//!
//! This is where PR 3's blocked kernels get amortised across *clients*:
//! up to [`MAX_SMSV_BLOCK`] vectors from concurrently queued requests
//! share one traversal of the model's support-vector matrix. Draining is
//! work-conserving — a free worker takes a ready lane at once — so
//! requests coalesce only when they queue behind a running sweep. The
//! pipeline per request is
//!
//! ```text
//! conn thread ──submit──► admission ──try_push──► ClassedQueue
//!      │            (Busy: queue full, OR the        │
//!      │          sweep table projects a miss)       │ discipline::decide
//!      │                                             ▼
//!      ◄──reply── worker: drain per DrainPlan, one smsv_block sweep
//! ```
//!
//! Deadlines resolve per request: an explicit `slo_us` wins, then the
//! legacy `deadline_ms`, then the per-class default. Requests still queued
//! past their deadline answer `TimedOut` without occupying kernel time;
//! answers delivered late count as SLO violations in the per-class stats.
//! Shutdown closes every queue (new pushes refuse with `ShuttingDown`),
//! lets workers drain what is queued — both classes — then joins them: no
//! accepted request is ever dropped without a response.
//!
//! **Sharding and work stealing.** Model lanes are sharded across the
//! worker pool (lane `i` is homed on worker `i % workers`): each worker
//! services its own shard first, so one hot model's long sweeps occupy at
//! most its home worker while every other model keeps its own. Only when a
//! worker's shard has nothing ready does it *steal* one ready lane from
//! another shard (counted in the stats `executor.steals` counter), so idle
//! capacity still flows to the hot model instead of spinning.

use crate::brownout::{BrownoutController, BrownoutTransition};
use crate::discipline::{decide, queue_ahead};
use crate::fault::{FaultAction, FaultInjector, FaultSite};
use crate::proto::{RequestClass, Response};
use crate::queue::{ClassedQueue, DrainPlan, JobMeta, PushError};
use crate::registry::{ModelHealth, ModelRegistry, ServedModel};
use crate::stats::{FaultCounters, ServeStats};
use dls_core::json::JsonValue;
use dls_core::{LayoutScheduler, SelectionStrategy};
use dls_sparse::{Format, SparseVec, TripletMatrix, MAX_SMSV_BLOCK};
use dls_svm::PredictWorkspace;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default SLO per request class (indexed by [`RequestClass::index`]),
/// applied to requests that carry neither `slo_us` nor `deadline_ms`:
/// interactive 5 s; batch tolerates much more in exchange for throughput.
const CLASS_SLO: [Duration; 2] = [Duration::from_secs(5), Duration::from_secs(30)];

/// Fraction of each predict queue's capacity reserved for interactive jobs
/// (batch admission stops early by this share).
const INTERACTIVE_RESERVE: f64 = 0.25;

/// Executor tuning knobs.
#[derive(Clone)]
pub struct ExecutorConfig {
    /// Worker threads draining the queues.
    pub workers: usize,
    /// Capacity of each per-model queue (and the schedule queue); the
    /// backpressure bound.
    pub queue_capacity: usize,
    /// Cap on vectors coalesced into one blocked sweep. Values above
    /// [`MAX_SMSV_BLOCK`] still execute correctly (the kernels chunk
    /// internally) but add no further amortisation.
    pub max_block: usize,
    /// Run the brown-out controller (overload-triggered partial
    /// degradation, `crate::brownout`); `false` keeps it dormant.
    pub brownout: bool,
    /// Fault injection for chaos runs; [`FaultInjector::none`] (the
    /// default) costs one branch per injection point.
    pub fault: FaultInjector,
}

impl std::fmt::Debug for ExecutorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("max_block", &self.max_block)
            .field("brownout", &self.brownout)
            .field("fault", &self.fault)
            .finish()
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 128,
            max_block: MAX_SMSV_BLOCK,
            brownout: true,
            fault: FaultInjector::none(),
        }
    }
}

/// One queued predict request (scheduling metadata lives in [`JobMeta`]).
pub(crate) struct PredictJob {
    vectors: Vec<SparseVec>,
    reply: Sender<Response>,
}

/// One queued schedule request.
pub(crate) struct ScheduleJob {
    triplets: TripletMatrix,
    /// `None` uses the server's configured scheduler.
    strategy: Option<SelectionStrategy>,
    reply: Sender<Response>,
}

struct WakeSignal {
    seq: Mutex<u64>,
    cv: Condvar,
}

impl WakeSignal {
    fn notify(&self) {
        *self.seq.lock().expect("signal poisoned") += 1;
        self.cv.notify_all();
    }

    fn wait(&self, last_seen: u64, timeout: Duration) -> u64 {
        let mut seq = self.seq.lock().expect("signal poisoned");
        if *seq == last_seen {
            let (next, _) = self.cv.wait_timeout(seq, timeout).expect("signal poisoned");
            seq = next;
        }
        *seq
    }
}

/// One served model with its queue.
struct ModelLane {
    served: Arc<ServedModel>,
    queue: Arc<ClassedQueue<PredictJob>>,
}

/// The batching executor. Shared between the acceptor side (submitting)
/// and its own worker pool (draining).
pub struct Executor {
    registry: Arc<ModelRegistry>,
    scheduler: Arc<LayoutScheduler>,
    stats: Arc<ServeStats>,
    config: ExecutorConfig,
    lanes: Vec<ModelLane>,
    model_index: HashMap<String, usize>,
    schedule_queue: Arc<ClassedQueue<ScheduleJob>>,
    /// Overload state machine; the atomic mirror below keeps hot paths
    /// lock-free.
    brownout: Mutex<BrownoutController>,
    brownout_active: AtomicBool,
    wake: Arc<WakeSignal>,
    paused: AtomicBool,
    draining: AtomicBool,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Executor {
    /// Builds the queues and spawns the worker pool.
    pub fn start(
        registry: Arc<ModelRegistry>,
        scheduler: Arc<LayoutScheduler>,
        stats: Arc<ServeStats>,
        config: ExecutorConfig,
    ) -> Arc<Self> {
        let mut lanes = Vec::new();
        let mut model_index = HashMap::new();
        for served in registry.iter() {
            model_index.insert(served.name().to_string(), lanes.len());
            lanes.push(ModelLane {
                served: Arc::clone(served),
                queue: Arc::new(ClassedQueue::new(config.queue_capacity, INTERACTIVE_RESERVE)),
            });
        }
        let exec = Arc::new(Self {
            registry,
            scheduler,
            stats,
            schedule_queue: Arc::new(ClassedQueue::new(config.queue_capacity, 0.0)),
            lanes,
            model_index,
            brownout: Mutex::new(BrownoutController::new()),
            brownout_active: AtomicBool::new(false),
            wake: Arc::new(WakeSignal { seq: Mutex::new(0), cv: Condvar::new() }),
            paused: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
            config,
        });
        let mut workers = exec.workers.lock().expect("executor poisoned");
        for k in 0..exec.config.workers.max(1) {
            let exec = Arc::clone(&exec);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dls-serve-worker-{k}"))
                    .spawn(move || exec.worker_loop(k))
                    .expect("spawn worker"),
            );
        }
        drop(workers);
        exec
    }

    /// The hosted models.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Live stats shared with the server front end.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// The fault injector threaded through the serving path (the server
    /// front end shares it for the connection I/O sites).
    pub fn fault(&self) -> &FaultInjector {
        &self.config.fault
    }

    /// Whether the brown-out controller is currently shedding load.
    pub fn is_browned_out(&self) -> bool {
        self.brownout_active.load(Ordering::Relaxed)
    }

    /// Fullest predict lane relative to its capacity, in `[0, 1]` — the
    /// pressure signal the brown-out controller watches.
    fn queue_pressure(&self) -> f64 {
        let cap = self.config.queue_capacity.max(1) as f64;
        self.lanes.iter().map(|l| l.queue.len()).max().unwrap_or(0) as f64 / cap
    }

    fn apply_brownout_transition(&self, t: BrownoutTransition) {
        match t {
            BrownoutTransition::None => {}
            BrownoutTransition::Entered => {
                self.brownout_active.store(true, Ordering::SeqCst);
                FaultCounters::bump(&self.stats.degrade.brownout_entries);
                self.stats.degrade.brownout_active.store(1, Ordering::Relaxed);
            }
            BrownoutTransition::Exited => {
                self.brownout_active.store(false, Ordering::SeqCst);
                FaultCounters::bump(&self.stats.degrade.brownout_exits);
                self.stats.degrade.brownout_active.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Feeds one interactive completion to the brown-out controller.
    fn brownout_observe(&self, violated: bool) {
        if !self.config.brownout {
            return;
        }
        let pressure = self.queue_pressure();
        let t = self.brownout.lock().expect("brownout poisoned").observe(
            violated,
            pressure,
            Instant::now(),
        );
        self.apply_brownout_transition(t);
    }

    /// Re-evaluates brown-out on queue pressure alone (called at submit,
    /// so a pressure spike engages shedding even while nothing completes).
    fn brownout_evaluate(&self) {
        if !self.config.brownout {
            return;
        }
        let pressure = self.queue_pressure();
        let t = self.brownout.lock().expect("brownout poisoned").evaluate(pressure, Instant::now());
        self.apply_brownout_transition(t);
    }

    /// Liveness and degradation summary for the `Health` endpoint: overall
    /// status, brown-out state, and every model's rung on the health
    /// ladder.
    pub(crate) fn health_json(&self) -> String {
        let models = self
            .registry
            .iter()
            .map(|served| {
                JsonValue::obj([
                    ("model", JsonValue::from(served.name())),
                    ("health", JsonValue::from(served.health().name())),
                    ("panics", JsonValue::from(served.panics())),
                ])
            })
            .collect::<Vec<_>>();
        let degraded = self.registry.iter().any(|s| s.health() != ModelHealth::Healthy);
        let brownout = self.is_browned_out();
        let status = if self.draining.load(Ordering::SeqCst) {
            "draining"
        } else if brownout || degraded {
            "degraded"
        } else {
            "ok"
        };
        JsonValue::obj([
            ("status", JsonValue::from(status)),
            ("brownout", JsonValue::from(brownout)),
            ("queue_pressure", JsonValue::from(self.queue_pressure())),
            ("models", JsonValue::Arr(models)),
        ])
        .to_json()
    }

    /// Resolves a request's effective deadline: explicit SLO first, then
    /// the legacy millisecond deadline, then the class default.
    fn deadline(
        &self,
        now: Instant,
        class: RequestClass,
        slo_us: u32,
        deadline_ms: u32,
    ) -> Instant {
        if slo_us != 0 {
            now + Duration::from_micros(u64::from(slo_us))
        } else if deadline_ms != 0 {
            now + Duration::from_millis(u64::from(deadline_ms))
        } else {
            now + CLASS_SLO[class.index()]
        }
    }

    /// Predictive admission: projected completion is the backlog that
    /// drains ahead of this request plus the request's own sweep, both
    /// from the model's measured sweep times.
    /// `true` means "refuse now" — the request is already doomed to miss
    /// its deadline.
    fn projected_miss(
        &self,
        lane: &ModelLane,
        class: RequestClass,
        weight: usize,
        now: Instant,
        deadline: Instant,
    ) -> bool {
        let Some(sweeps) = lane.served.sweeps() else {
            return false;
        };
        let ahead = queue_ahead(&lane.queue.pending(), class);
        let service = sweeps.backlog(ahead + weight, self.lane_block(lane));
        now + service > deadline
    }

    /// Enqueues a predict request. `Ok` carries the receiver the reply
    /// will arrive on; `Err` carries the immediate refusal to send back.
    pub fn submit_predict(
        &self,
        model: &str,
        vectors: Vec<SparseVec>,
        class: RequestClass,
        slo_us: u32,
        deadline_ms: u32,
    ) -> Result<Receiver<Response>, Response> {
        if let Some(action) = self.config.fault.decide(FaultSite::Registry) {
            FaultCounters::bump(&self.stats.faults.injected);
            match action {
                FaultAction::Delay(d) => std::thread::sleep(d),
                _ => {
                    FaultCounters::bump(&self.stats.faults.registry_unavailable);
                    self.stats.predict.record_error();
                    return Err(Response::Error(format!(
                        "model registry temporarily unavailable (retry): {model:?}"
                    )));
                }
            }
        }
        let Some(&idx) = self.model_index.get(model) else {
            self.stats.predict.record_error();
            return Err(Response::Error(format!("no such model: {model:?}")));
        };
        let lane = &self.lanes[idx];
        if lane.served.is_quarantined() {
            FaultCounters::bump(&self.stats.faults.registry_unavailable);
            self.stats.predict.record_error();
            return Err(Response::Error(format!(
                "model {model:?} is quarantined after repeated execution panics"
            )));
        }
        for v in &vectors {
            if let Err(msg) = lane.served.check_dim(v) {
                self.stats.predict.record_error();
                return Err(Response::Error(msg));
            }
        }
        // Re-check overload on every submission: a queue-pressure spike
        // must engage shedding even while nothing completes.
        self.brownout_evaluate();
        if class == RequestClass::Batch && self.brownout_active.load(Ordering::Relaxed) {
            FaultCounters::bump(&self.stats.degrade.batch_shed);
            self.stats.predict.record_busy();
            return Err(Response::Busy);
        }
        let now = Instant::now();
        let deadline = self.deadline(now, class, slo_us, deadline_ms);
        let weight = vectors.len().max(1);
        if self.projected_miss(lane, class, weight, now, deadline) {
            self.stats.predict.record_busy();
            self.stats.class(class).record_busy_predicted();
            return Err(Response::Busy);
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let job = PredictJob { vectors, reply: tx };
        match lane.queue.try_push(job, class, weight, now, deadline) {
            Ok(()) => {
                self.wake.notify();
                Ok(rx)
            }
            Err(PushError::Full(_)) => {
                self.stats.predict.record_busy();
                Err(Response::Busy)
            }
            Err(PushError::Closed(_)) => Err(Response::ShuttingDown),
        }
    }

    /// Enqueues a schedule request (always interactive-class bookkeeping;
    /// scheduling probes are operator actions, not batch scoring).
    pub(crate) fn submit_schedule(
        &self,
        triplets: TripletMatrix,
        strategy: Option<SelectionStrategy>,
        deadline_ms: u32,
    ) -> Result<Receiver<Response>, Response> {
        let now = Instant::now();
        let deadline = self.deadline(now, RequestClass::Interactive, 0, deadline_ms);
        let (tx, rx) = std::sync::mpsc::channel();
        let job = ScheduleJob { triplets, strategy, reply: tx };
        match self.schedule_queue.try_push(job, RequestClass::Interactive, 1, now, deadline) {
            Ok(()) => {
                self.wake.notify();
                Ok(rx)
            }
            Err(PushError::Full(_)) => {
                self.stats.schedule.record_busy();
                Err(Response::Busy)
            }
            Err(PushError::Closed(_)) => Err(Response::ShuttingDown),
        }
    }

    /// Current depth of every queue, for the stats snapshot.
    pub fn queue_depths(&self) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = self
            .lanes
            .iter()
            .map(|lane| (format!("predict:{}", lane.served.name()), lane.queue.len()))
            .collect();
        out.push(("schedule".to_string(), self.schedule_queue.len()));
        out
    }

    /// Drain control: while paused, workers leave queues untouched, so
    /// requests pile up (and overflow to `Busy`). Used by operators to
    /// quiesce kernels and by the integration tests to make queue-full
    /// and scheduling-order behaviour deterministic.
    pub fn pause(&self, paused: bool) {
        self.paused.store(paused, Ordering::SeqCst);
        self.wake.notify();
    }

    /// Graceful drain: refuse new work, finish everything queued — both
    /// classes — then join the workers. Idempotent.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.paused.store(false, Ordering::SeqCst);
        for lane in &self.lanes {
            lane.queue.close();
        }
        self.schedule_queue.close();
        self.wake.notify();
        let workers = std::mem::take(&mut *self.workers.lock().expect("executor poisoned"));
        for w in workers {
            let _ = w.join();
        }
    }

    /// Drains one sweep from a lane under the drain rule and runs it.
    /// Returns whether anything executed.
    fn service_lane(&self, lane: &ModelLane, draining: bool, ws: &mut PredictWorkspace) -> bool {
        let plan = if draining {
            // Shutdown is a drain, not a drop: no block cap.
            DrainPlan::drain_all()
        } else {
            decide(&lane.queue.pending(), self.lane_block(lane))
        };
        let batch = lane.queue.drain(&plan);
        if batch.is_empty() {
            return false;
        }
        self.run_predict(&lane.served, batch, ws);
        true
    }

    fn worker_loop(&self, worker: usize) {
        let shards = self.config.workers.max(1);
        let home: Vec<usize> = (0..self.lanes.len()).filter(|i| i % shards == worker).collect();
        let away: Vec<usize> = (0..self.lanes.len()).filter(|i| i % shards != worker).collect();
        let mut ws = PredictWorkspace::new();
        let mut seen = 0;
        loop {
            let mut worked = false;
            if !self.paused.load(Ordering::SeqCst) {
                let draining = self.draining.load(Ordering::SeqCst);
                for &i in &home {
                    worked |= self.service_lane(&self.lanes[i], draining, &mut ws);
                }
                // Work stealing: only an otherwise-idle worker crosses
                // shards (every worker helps during the shutdown drain),
                // so a hot model soaks up spare capacity without taking
                // any other model's home worker.
                if !worked || draining {
                    for &i in &away {
                        if self.service_lane(&self.lanes[i], draining, &mut ws) {
                            FaultCounters::bump(&self.stats.steals);
                            worked = true;
                            if !draining {
                                break; // one steal per pass, then re-check home
                            }
                        }
                    }
                }
                let one = DrainPlan { max_weight: 1, max_batch_weight: 1 };
                for (_, job) in self.schedule_queue.drain(&one) {
                    self.run_schedule(job);
                    worked = true;
                }
            }
            if !worked {
                if self.draining.load(Ordering::SeqCst) && self.all_drained() {
                    return;
                }
                // Every submit, pause change and shutdown notifies the
                // signal; the timeout is only a safety net.
                seen = self.wake.wait(seen, Duration::from_millis(2));
            }
        }
    }

    /// The coalescing cap for one lane: the scheduler's tuned block for the
    /// model's chosen format (when a selection report exists), clamped into
    /// `1..=MAX_SMSV_BLOCK` and never above the configured `max_block`.
    /// Constant models — no matrix, no report — fall back to the config cap.
    fn lane_block(&self, lane: &ModelLane) -> usize {
        lane.served
            .report()
            .map(|r| r.block.clamp(1, MAX_SMSV_BLOCK))
            .unwrap_or(MAX_SMSV_BLOCK)
            .min(self.config.max_block)
            .max(1)
    }

    fn all_drained(&self) -> bool {
        self.lanes.iter().all(|lane| lane.queue.is_empty()) && self.schedule_queue.is_empty()
    }

    /// Executes one drained sweep: expired jobs answer `TimedOut`; the
    /// rest share one blocked traversal of the model's support matrix and
    /// are split back per request, with per-class SLO accounting. Kernel
    /// execution runs under `catch_unwind`: a panicking model answers
    /// every live job with a typed error, walks the model's health ladder
    /// (degrade → quarantine), and never takes the worker down.
    fn run_predict(
        &self,
        served: &ServedModel,
        batch: Vec<(JobMeta, PredictJob)>,
        ws: &mut PredictWorkspace,
    ) {
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        for (meta, job) in batch {
            if meta.deadline < now {
                self.stats.predict.record_timeout();
                self.stats.class(meta.class).record_timeout();
                if meta.class == RequestClass::Interactive {
                    self.brownout_observe(true);
                }
                let _ = job.reply.send(Response::TimedOut);
            } else {
                live.push((meta, job));
            }
        }
        if live.is_empty() {
            return;
        }
        let mut vectors = Vec::with_capacity(live.iter().map(|(_, j)| j.vectors.len()).sum());
        let counts: Vec<usize> = live
            .iter_mut()
            .map(|(_, job)| {
                let n = job.vectors.len();
                vectors.append(&mut job.vectors);
                n
            })
            .collect();
        let exec_fault = self.config.fault.decide(FaultSite::Exec);
        if exec_fault.is_some() {
            FaultCounters::bump(&self.stats.faults.injected);
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            match exec_fault {
                Some(FaultAction::Delay(d)) => std::thread::sleep(d),
                Some(FaultAction::Panic) => panic!("injected model execution panic"),
                _ => {}
            }
            served.predict(&vectors, &mut *ws)
        }));
        let values = match result {
            Ok(values) => values,
            Err(_) => {
                // The workspace may hold partial state from the aborted
                // sweep; rebuild it before the next batch.
                *ws = PredictWorkspace::new();
                FaultCounters::bump(&self.stats.faults.exec_panics);
                let rung = served.note_panic();
                match rung {
                    ModelHealth::Degraded if served.panics() == 1 => {
                        FaultCounters::bump(&self.stats.degrade.models_degraded);
                    }
                    ModelHealth::Quarantined
                        if served.panics() == crate::registry::QUARANTINE_PANICS =>
                    {
                        FaultCounters::bump(&self.stats.degrade.models_quarantined);
                    }
                    _ => {}
                }
                let msg = format!(
                    "model {:?} execution panicked (now {}); retry against the fallback layout",
                    served.name(),
                    rung.name()
                );
                for (_, job) in &live {
                    self.stats.predict.record_error();
                    let _ = job.reply.send(Response::Error(msg.clone()));
                }
                return;
            }
        };
        let mut offset = 0;
        let done = Instant::now();
        for ((meta, job), n) in live.iter().zip(counts) {
            let slice = values[offset..offset + n].to_vec();
            offset += n;
            let latency = done.duration_since(meta.enqueued);
            self.stats.predict.record_ok(latency);
            let violated = done > meta.deadline;
            self.stats.class(meta.class).record_ok(latency, violated);
            if meta.class == RequestClass::Interactive {
                self.brownout_observe(violated);
            }
            let _ = job.reply.send(Response::Predictions(slice));
        }
    }

    fn run_schedule(&self, job: ScheduleJob) {
        let start = Instant::now();
        let report = match job.strategy {
            Some(strategy) => LayoutScheduler::with_strategy(strategy).select_only(&job.triplets),
            None => self.scheduler.select_only(&job.triplets),
        };
        self.stats.record_decision(report.chosen);
        let resp = Response::Scheduled {
            format: report.chosen.name().to_string(),
            reason: report.reason.clone(),
            scores: report.scores.iter().map(|s| (s.format.name().to_string(), s.score)).collect(),
        };
        self.stats.schedule.record_ok(start.elapsed());
        let _ = job.reply.send(resp);
    }
}

/// Parses a wire strategy name. Empty selects the server default.
pub fn parse_strategy(name: &str) -> Result<Option<SelectionStrategy>, String> {
    Ok(Some(match name {
        "" => return Ok(None),
        "rule" => SelectionStrategy::RuleBased,
        "rule-host" => SelectionStrategy::RuleBasedHost,
        "cost" => SelectionStrategy::CostModel,
        "empirical" => SelectionStrategy::Empirical,
        f => SelectionStrategy::Fixed(
            f.parse::<Format>().map_err(|_| format!("unknown strategy or format: {f}"))?,
        ),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::registry::ServedModel;
    use dls_svm::{KernelKind, SvmModel};

    fn small_registry() -> Arc<ModelRegistry> {
        let scheduler = LayoutScheduler::new();
        let svs: Vec<SparseVec> =
            (0..3).map(|i| SparseVec::new(6, vec![i, i + 3], vec![1.0, -0.5])).collect();
        let model = SvmModel::new(KernelKind::Linear, svs, vec![1.0, -1.0, 0.5], 0.1);
        Arc::new(ModelRegistry::new().with(ServedModel::new("toy", model, &scheduler)))
    }

    fn start(config: ExecutorConfig) -> Arc<Executor> {
        Executor::start(
            small_registry(),
            Arc::new(LayoutScheduler::new()),
            Arc::new(ServeStats::new()),
            config,
        )
    }

    fn submit_interactive(
        exec: &Executor,
        vectors: Vec<SparseVec>,
        deadline_ms: u32,
    ) -> Result<Receiver<Response>, Response> {
        exec.submit_predict("toy", vectors, RequestClass::Interactive, 0, deadline_ms)
    }

    #[test]
    fn predict_round_trip_through_the_pool() {
        let exec = start(ExecutorConfig::default());
        let x = SparseVec::new(6, vec![0], vec![2.0]);
        let rx = submit_interactive(&exec, vec![x.clone()], 0).unwrap();
        let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let served = exec.registry().get("toy").unwrap().clone();
        let want = served.model().decision_function(&x);
        assert_eq!(resp, Response::Predictions(vec![want]));
        assert_eq!(exec.stats().class(RequestClass::Interactive).completed(), 1);
        exec.shutdown();
    }

    #[test]
    fn unknown_model_and_bad_dims_are_immediate_errors() {
        let exec = start(ExecutorConfig::default());
        assert!(matches!(
            exec.submit_predict("missing", vec![], RequestClass::Interactive, 0, 0),
            Err(Response::Error(_))
        ));
        assert!(matches!(
            submit_interactive(&exec, vec![SparseVec::zeros(7)], 0),
            Err(Response::Error(_))
        ));
        exec.shutdown();
    }

    #[test]
    fn paused_queues_fill_then_refuse_with_busy() {
        let exec = start(ExecutorConfig { queue_capacity: 2, ..Default::default() });
        exec.pause(true);
        let x = || vec![SparseVec::new(6, vec![1], vec![1.0])];
        let rx1 = submit_interactive(&exec, x(), 0).unwrap();
        let rx2 = submit_interactive(&exec, x(), 0).unwrap();
        assert_eq!(submit_interactive(&exec, x(), 0).unwrap_err(), Response::Busy);
        assert_eq!(exec.queue_depths()[0].1, 2);
        exec.pause(false);
        assert!(matches!(rx1.recv_timeout(Duration::from_secs(5)), Ok(Response::Predictions(_))));
        assert!(matches!(rx2.recv_timeout(Duration::from_secs(5)), Ok(Response::Predictions(_))));
        assert_eq!(exec.stats().predict.busy.load(Ordering::Relaxed), 1);
        exec.shutdown();
    }

    #[test]
    fn batch_backlog_cannot_starve_interactive_submission() {
        let exec = start(ExecutorConfig { queue_capacity: 4, ..Default::default() });
        exec.pause(true);
        let x = || vec![SparseVec::new(6, vec![1], vec![1.0])];
        let mut rxs = Vec::new();
        for _ in 0..3 {
            rxs.push(exec.submit_predict("toy", x(), RequestClass::Batch, 0, 0).unwrap());
        }
        // The batch share (3 of 4) is exhausted …
        assert_eq!(
            exec.submit_predict("toy", x(), RequestClass::Batch, 0, 0).unwrap_err(),
            Response::Busy
        );
        // … but the interactive reserve still admits.
        rxs.push(submit_interactive(&exec, x(), 0).unwrap());
        exec.pause(false);
        for rx in rxs {
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(5)),
                Ok(Response::Predictions(_))
            ));
        }
        exec.shutdown();
    }

    #[test]
    fn expired_deadlines_get_timed_out_not_executed() {
        let exec = start(ExecutorConfig::default());
        exec.pause(true);
        let rx = submit_interactive(&exec, vec![SparseVec::new(6, vec![0], vec![1.0])], 1).unwrap();
        std::thread::sleep(Duration::from_millis(10)); // let the 1 ms deadline lapse
        exec.pause(false);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), Response::TimedOut);
        assert_eq!(exec.stats().predict.timed_out.load(Ordering::Relaxed), 1);
        let class = exec.stats().class(RequestClass::Interactive);
        assert_eq!(class.timed_out.load(Ordering::Relaxed), 1);
        assert_eq!(class.slo_violations.load(Ordering::Relaxed), 1);
        exec.shutdown();
    }

    #[test]
    fn paused_batch_coalesces_into_one_block() {
        let exec = start(ExecutorConfig::default());
        exec.pause(true);
        let rxs: Vec<_> = (0..5)
            .map(|i| {
                submit_interactive(&exec, vec![SparseVec::new(6, vec![i], vec![1.0])], 0).unwrap()
            })
            .collect();
        exec.pause(false);
        for rx in rxs {
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(5)),
                Ok(Response::Predictions(_))
            ));
        }
        let served = exec.registry().get("toy").unwrap().clone();
        assert!(
            served.counters().snapshot().multi_vector_blocks() >= 1,
            "5 queued singles should form at least one multi-vector block"
        );
        exec.shutdown();
    }

    /// Coalescing clamps to the scheduler's tuned block: with a
    /// selector reporting `block = 2`, five queued singles drain as sweeps
    /// of at most two vectors — the block histogram stays below bucket 2
    /// (B >= 4) while pairs still coalesce.
    #[test]
    fn coalescing_clamps_to_the_tuned_block() {
        #[derive(Debug)]
        struct TinyBlock;
        impl dls_core::FormatSelector for TinyBlock {
            fn select(
                &self,
                t: &TripletMatrix,
                f: &dls_sparse::MatrixFeatures,
            ) -> dls_core::SelectionReport {
                let mut r = dls_core::RuleBasedSelector::default().select(t, f);
                r.block = 2;
                r
            }
        }
        let scheduler = LayoutScheduler::with_selector(TinyBlock);
        let svs: Vec<SparseVec> =
            (0..3).map(|i| SparseVec::new(6, vec![i, i + 3], vec![1.0, -0.5])).collect();
        let model = SvmModel::new(KernelKind::Linear, svs, vec![1.0, -1.0, 0.5], 0.1);
        let registry =
            Arc::new(ModelRegistry::new().with(ServedModel::new("toy", model, &scheduler)));
        let exec = Executor::start(
            registry,
            Arc::new(LayoutScheduler::new()),
            Arc::new(ServeStats::new()),
            ExecutorConfig::default(),
        );
        let served = exec.registry().get("toy").unwrap().clone();
        assert_eq!(served.report().map(|r| r.block), Some(2), "tuned block reaches the lane");
        exec.pause(true);
        let rxs: Vec<_> = (0..5)
            .map(|i| {
                submit_interactive(&exec, vec![SparseVec::new(6, vec![i], vec![1.0])], 0).unwrap()
            })
            .collect();
        exec.pause(false);
        for rx in rxs {
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(5)),
                Ok(Response::Predictions(_))
            ));
        }
        let snap = served.counters().snapshot();
        assert!(snap.multi_vector_blocks() >= 1, "pairs still coalesce under the cap");
        for (b, &n) in snap.block_hist.iter().enumerate().skip(2) {
            assert_eq!(n, 0, "bucket {b} must stay empty under tuned block 2");
        }
        exec.shutdown();
    }

    /// Under a batch flood the late-arriving interactive request is
    /// answered before the earlier batch jobs. With one worker and a
    /// paused-then-released executor the completion *order* is
    /// deterministic, so the pin needs no cross-run timing comparisons.
    #[test]
    fn interactive_jumps_the_batch_flood() {
        let exec = start(ExecutorConfig { workers: 1, max_block: 2, ..Default::default() });
        exec.pause(true);
        let batch_rxs: Vec<_> = (0..3)
            .map(|_| {
                let vs = vec![
                    SparseVec::new(6, vec![0], vec![1.0]),
                    SparseVec::new(6, vec![1], vec![1.0]),
                ];
                exec.submit_predict("toy", vs, RequestClass::Batch, 0, 0).unwrap()
            })
            .collect();
        let int_rx =
            submit_interactive(&exec, vec![SparseVec::new(6, vec![2], vec![1.0])], 0).unwrap();
        exec.pause(false);
        // By the time the *last* batch reply exists, the interactive reply
        // must already have been sent.
        for rx in &batch_rxs {
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(5)),
                Ok(Response::Predictions(_))
            ));
        }
        assert!(
            matches!(int_rx.try_recv(), Ok(Response::Predictions(_))),
            "interactive should be answered before the batch flood"
        );
        exec.shutdown();
    }

    /// Predictive admission refuses a request whose projected completion —
    /// the measured backlog ahead of it plus its own sweep — already misses
    /// its SLO, before it ever queues. The projection compares
    /// `now + backlog` with `now + slo`, so the verdict does not depend on
    /// timing: full-block jobs parked behind the paused pool grow the
    /// backlog until one more vector no longer fits a 1 µs SLO.
    #[test]
    fn admission_refuses_doomed_requests() {
        const SLO_US: u32 = 1;
        let exec = start(ExecutorConfig::default());
        let lane = &exec.lanes[0];
        let sweeps = lane.served.sweeps().expect("a matrix model has a sweep table");
        let block = exec.lane_block(lane);
        let x = || SparseVec::new(6, vec![0], vec![1.0]);
        exec.pause(true);
        let mut parked = Vec::new();
        while sweeps.backlog(parked.len() * block + 1, block)
            <= Duration::from_micros(SLO_US.into())
        {
            parked
                .push(submit_interactive(&exec, vec![x(); block], 0).expect("parked job admitted"));
        }
        let resp = exec.submit_predict("toy", vec![x()], RequestClass::Interactive, SLO_US, 0);
        assert_eq!(resp.unwrap_err(), Response::Busy);
        let class = exec.stats().class(RequestClass::Interactive);
        assert_eq!(class.busy_predicted.load(Ordering::Relaxed), 1);
        assert_eq!(exec.stats().predict.busy.load(Ordering::Relaxed), 1);
        // A comfortable SLO passes admission behind the same backlog, and
        // everything completes once the pool resumes.
        let rx = exec.submit_predict("toy", vec![x()], RequestClass::Interactive, 2_000_000, 0);
        parked.push(rx.unwrap());
        exec.pause(false);
        for rx in parked {
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(5)),
                Ok(Response::Predictions(_))
            ));
        }
        exec.shutdown();
    }

    /// On an idle lane the projection is the request's own measured sweep
    /// alone, so an SLO well under a millisecond is admitted. Only
    /// admission is pinned, so a scheduler pause cannot make it flaky.
    #[test]
    fn idle_executor_admits_a_sub_millisecond_slo() {
        let exec = start(ExecutorConfig::default());
        let x = vec![SparseVec::new(6, vec![0], vec![1.0])];
        let admitted = exec.submit_predict("toy", x, RequestClass::Interactive, 500, 0);
        assert!(admitted.is_ok(), "500 µs SLO refused on an idle lane: {:?}", admitted.err());
        exec.shutdown();
    }

    /// The drain is work-conserving: a lone request dispatches at once, and
    /// the singles that queue while its sweep runs drain together as one
    /// multi-vector block. One worker and a scripted delay on the first
    /// sweep make "while it runs" observable without sleeping in the test.
    #[test]
    fn coalesces_what_queues_behind_a_running_sweep() {
        let held = Duration::from_millis(500);
        let plan = FaultPlan::new(0).script(FaultSite::Exec, [FaultAction::Delay(held)]);
        let exec = start(ExecutorConfig {
            workers: 1,
            fault: FaultInjector::shared(Arc::new(plan)),
            ..Default::default()
        });
        let block = exec.lane_block(&exec.lanes[0]);
        assert!(block >= 2, "the toy model's tuned block leaves no room to coalesce");
        let query = |i: usize| SparseVec::new(6, vec![i], vec![1.0]);
        let first = submit_interactive(&exec, vec![query(0)], 0).unwrap();
        // The idle worker takes the lone request without waiting for more.
        let started = Instant::now();
        while exec.queue_depths()[0].1 != 0 {
            assert!(started.elapsed() < Duration::from_secs(5), "the lone request never drained");
            std::thread::yield_now();
        }
        let rxs: Vec<_> =
            (1..6).map(|i| submit_interactive(&exec, vec![query(i)], 0).unwrap()).collect();
        assert_eq!(exec.queue_depths()[0].1, 5, "the singles queue behind the held sweep");
        assert!(first.try_recv().is_err(), "the held sweep ended before the singles queued");
        let served = exec.registry().get("toy").unwrap().clone();
        for (i, rx) in std::iter::once(first).chain(rxs).enumerate() {
            let want = Response::Predictions(vec![served.model().decision_function(&query(i))]);
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), want, "request {i}");
        }
        let snap = served.counters().snapshot();
        let next = 5.min(block);
        assert!(
            snap.block_hist[next.ilog2() as usize] >= 1,
            "the five singles did not drain as a block of {next}: {:?}",
            snap.block_hist
        );
        exec.shutdown();
    }

    /// Brown-out sheds batch load and nothing else: once queue pressure
    /// reaches 0.75 (6 of 8 jobs parked) the controller trips, a batch
    /// submission is refused `Busy` and counted as shed, and interactive
    /// work is still admitted.
    #[test]
    fn brownout_sheds_batch_and_still_admits_interactive() {
        let exec = start(ExecutorConfig { queue_capacity: 8, ..Default::default() });
        exec.pause(true);
        let x = || vec![SparseVec::new(6, vec![0], vec![1.0])];
        // Five parked jobs put pressure at 5/8: still below the threshold.
        let mut parked: Vec<_> =
            (0..5).map(|_| submit_interactive(&exec, x(), 0).unwrap()).collect();
        assert!(!exec.is_browned_out());
        // The sixth makes it 6/8, and the next submission's re-evaluation
        // enters brown-out before admission runs.
        parked.push(submit_interactive(&exec, x(), 0).unwrap());
        let batch = exec.submit_predict("toy", x(), RequestClass::Batch, 0, 0);
        assert!(exec.is_browned_out());
        assert_eq!(batch.unwrap_err(), Response::Busy);
        assert_eq!(exec.stats().degrade.batch_shed.load(Ordering::Relaxed), 1);
        assert_eq!(exec.stats().predict.busy.load(Ordering::Relaxed), 1);
        parked.push(submit_interactive(&exec, x(), 0).expect("interactive refused in brown-out"));
        exec.pause(false);
        for rx in parked {
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(5)),
                Ok(Response::Predictions(_))
            ));
        }
        exec.shutdown();
    }

    /// With the brown-out switch off, the same pressure sheds nothing.
    #[test]
    fn brownout_off_never_sheds() {
        let exec =
            start(ExecutorConfig { queue_capacity: 8, brownout: false, ..Default::default() });
        exec.pause(true);
        let x = || vec![SparseVec::new(6, vec![0], vec![1.0])];
        let parked: Vec<_> = (0..6).map(|_| submit_interactive(&exec, x(), 0).unwrap()).collect();
        let batch = exec.submit_predict("toy", x(), RequestClass::Batch, 0, 0);
        assert!(batch.is_ok(), "batch shed with brown-out off");
        assert!(!exec.is_browned_out());
        exec.pause(false);
        for rx in parked.iter().chain(batch.as_ref().ok()) {
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(5)),
                Ok(Response::Predictions(_))
            ));
        }
        assert_eq!(exec.stats().degrade.brownout_entries.load(Ordering::Relaxed), 0);
        exec.shutdown();
    }

    #[test]
    fn schedule_requests_report_the_chosen_format() {
        let exec = start(ExecutorConfig::default());
        let mut t = TripletMatrix::with_capacity(4, 4, 4);
        for i in 0..4 {
            t.push(i, i, 1.0);
        }
        // Default scheduler: some valid format with a populated scoreboard.
        let rx = exec.submit_schedule(t.clone(), None, 0).unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Response::Scheduled { format, scores, .. } => {
                assert!(format.parse::<Format>().is_ok(), "unknown format {format:?}");
                assert!(!scores.is_empty());
            }
            other => panic!("unexpected response {other:?}"),
        }
        // A fixed strategy pins the outcome and the decision counter.
        let rx = exec.submit_schedule(t, Some(SelectionStrategy::Fixed(Format::Dia)), 0).unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Response::Scheduled { format, .. } => assert_eq!(format, "DIA"),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(exec.stats().decisions()[dls_sparse::telemetry::format_index(Format::Dia)], 1);
        exec.shutdown();
    }

    /// Satellite test (c): shutdown still drains rather than drops — for
    /// *both* classes.
    #[test]
    fn shutdown_drains_queued_work_per_class_before_refusing() {
        let exec = start(ExecutorConfig::default());
        exec.pause(true);
        let rx_int =
            submit_interactive(&exec, vec![SparseVec::new(6, vec![2], vec![1.0])], 0).unwrap();
        let rx_batch = exec
            .submit_predict(
                "toy",
                vec![SparseVec::new(6, vec![3], vec![1.0])],
                RequestClass::Batch,
                0,
                0,
            )
            .unwrap();
        // Shutdown un-pauses, drains, then joins: both queued jobs complete.
        exec.shutdown();
        assert!(matches!(rx_int.try_recv(), Ok(Response::Predictions(_))));
        assert!(matches!(rx_batch.try_recv(), Ok(Response::Predictions(_))));
        assert_eq!(exec.stats().class(RequestClass::Interactive).completed(), 1);
        assert_eq!(exec.stats().class(RequestClass::Batch).completed(), 1);
        assert_eq!(
            submit_interactive(&exec, vec![SparseVec::new(6, vec![2], vec![1.0])], 0).unwrap_err(),
            Response::ShuttingDown
        );
    }

    #[test]
    fn strategy_names_parse() {
        assert_eq!(parse_strategy("").unwrap(), None);
        assert_eq!(parse_strategy("cost").unwrap(), Some(SelectionStrategy::CostModel));
        assert!(matches!(
            parse_strategy("CSR").unwrap(),
            Some(SelectionStrategy::Fixed(Format::Csr))
        ));
        assert!(parse_strategy("bogus").is_err());
    }
}
