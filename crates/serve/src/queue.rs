//! Classed, bounded job storage with explicit backpressure.
//!
//! [`ClassedQueue`] is *pure storage*: it admits, counts, and drains jobs
//! but holds **no scheduling policy**. When to drain and how much batch
//! work may ride along is the executor's drain rule; the queue just
//! executes a [`DrainPlan`] it is handed.
//!
//! Three invariants are the queue's own:
//!
//! * **Reject, don't buffer** — [`ClassedQueue::try_push`] never blocks; a
//!   full queue hands the job back so the caller can answer `Busy`.
//! * **Per-class reservation** — batch jobs may only fill the queue up to
//!   `capacity - reserved` slots, so a batch-scoring flood can never
//!   starve interactive admission (the latent unfairness of the old
//!   single-lane `BoundedQueue`). Interactive jobs may use every slot.
//! * **Interactive first** — a drain visits every queued interactive job
//!   (by arrival) before any batch job.

use crate::proto::RequestClass;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue (or the class's share of it) is at capacity.
    Full(T),
    /// The queue is closed (server draining); the job is handed back.
    Closed(T),
}

/// Scheduling-relevant facts about one queued job, visible to the drain
/// rule through [`ClassedQueue::pending`] without touching the job itself.
#[derive(Debug, Clone, Copy)]
pub struct JobMeta {
    /// Traffic class the job arrived with.
    pub class: RequestClass,
    /// Drain-budget weight (number of vectors; min 1).
    pub weight: usize,
    /// When the job entered the queue.
    pub enqueued: Instant,
    /// When the job's answer stops being useful.
    pub deadline: Instant,
}

/// The drain rule's instruction for one interactive-first drain sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainPlan {
    /// Total weight budget for the sweep (the first job is always taken,
    /// so an oversized job still makes progress).
    pub max_weight: usize,
    /// Weight budget batch-class jobs may consume within `max_weight`. A
    /// value `>= max_weight` puts no extra limit on batch; `0` excludes
    /// batch jobs from the sweep (unless no interactive job is queued and
    /// the first batch job is taken alone).
    pub max_batch_weight: usize,
}

impl DrainPlan {
    /// An unbounded plan — what shutdown drains use.
    pub(crate) fn drain_all() -> Self {
        Self { max_weight: usize::MAX, max_batch_weight: usize::MAX }
    }
}

struct Inner<T> {
    /// One FIFO lane per class, indexed by [`RequestClass::index`].
    lanes: [VecDeque<(JobMeta, T)>; 2],
    closed: bool,
}

/// A fixed-capacity two-lane queue connecting connection handlers to
/// workers. All operations are non-blocking; arrival notification is the
/// executor's concern (its wake signal), not the queue's.
pub struct ClassedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    batch_capacity: usize,
}

impl<T> ClassedQueue<T> {
    /// A queue admitting at most `capacity` jobs total (min 1), of which
    /// `ceil(capacity * interactive_reserve)` slots are reserved for
    /// interactive jobs (batch admission stops at `capacity - reserved`).
    /// The reserve is clamped so batch always keeps at least one slot.
    pub fn new(capacity: usize, interactive_reserve: f64) -> Self {
        let capacity = capacity.max(1);
        let reserved = ((capacity as f64) * interactive_reserve.clamp(0.0, 1.0)).ceil() as usize;
        let batch_capacity = capacity.saturating_sub(reserved).max(1).min(capacity);
        Self {
            inner: Mutex::new(Inner { lanes: [VecDeque::new(), VecDeque::new()], closed: false }),
            capacity,
            batch_capacity,
        }
    }

    /// Jobs currently waiting (both classes).
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("queue poisoned");
        inner.lanes.iter().map(VecDeque::len).sum()
    }

    /// Whether no jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking enqueue. A closed queue, a full queue, or a batch push
    /// beyond the batch share refuses immediately — the backpressure point.
    pub(crate) fn try_push(
        &self,
        job: T,
        class: RequestClass,
        weight: usize,
        enqueued: Instant,
        deadline: Instant,
    ) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(PushError::Closed(job));
        }
        let total: usize = inner.lanes.iter().map(VecDeque::len).sum();
        if total >= self.capacity {
            return Err(PushError::Full(job));
        }
        if class == RequestClass::Batch && inner.lanes[class.index()].len() >= self.batch_capacity {
            return Err(PushError::Full(job));
        }
        let meta = JobMeta { class, weight: weight.max(1), enqueued, deadline };
        inner.lanes[class.index()].push_back((meta, job));
        Ok(())
    }

    /// A snapshot of every queued job's metadata, interactive jobs first,
    /// each class in arrival order — what the drain rule sees.
    pub fn pending(&self) -> Vec<JobMeta> {
        let inner = self.inner.lock().expect("queue poisoned");
        inner.lanes.iter().flatten().map(|(meta, _)| *meta).collect()
    }

    /// Executes one drain sweep per `plan`: visits interactive jobs then
    /// batch jobs, each in arrival order, takes jobs while they fit the
    /// total budget (batch jobs must also fit the batch budget), and stops
    /// at the first job that does not fit. The very first candidate is
    /// always taken so oversized jobs progress. Returns the jobs in that
    /// order, or an empty vec when nothing is queued.
    pub fn drain(&self, plan: &DrainPlan) -> Vec<(JobMeta, T)> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        // Count how many to take from each lane front: the sweep takes a
        // prefix of each lane, so selection reduces to two counts.
        let mut take = [0usize; 2];
        let mut used = 0usize;
        let mut batch_used = 0usize;
        let mut taken_any = false;
        loop {
            let next_of = |lane: usize| inner.lanes[lane].get(take[lane]).map(|(m, _)| *m);
            let Some(meta) = next_of(0).or_else(|| next_of(1)) else { break };
            let w = meta.weight;
            if taken_any {
                if used.saturating_add(w) > plan.max_weight {
                    break;
                }
                if meta.class == RequestClass::Batch
                    && batch_used.saturating_add(w) > plan.max_batch_weight
                {
                    break;
                }
            }
            used = used.saturating_add(w);
            if meta.class == RequestClass::Batch {
                batch_used = batch_used.saturating_add(w);
            }
            take[meta.class.index()] += 1;
            taken_any = true;
            if used >= plan.max_weight {
                break;
            }
        }
        let mut out: Vec<(JobMeta, T)> = Vec::with_capacity(take[0] + take[1]);
        for (lane, &count) in take.iter().enumerate() {
            out.extend(inner.lanes[lane].drain(..count));
        }
        out
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// while already-queued jobs remain drainable, so a shutdown is a
    /// drain, not a drop.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn push(q: &ClassedQueue<u32>, job: u32, class: RequestClass, weight: usize) {
        let now = Instant::now();
        q.try_push(job, class, weight, now, now + Duration::from_secs(5)).unwrap();
    }

    fn drained(q: &ClassedQueue<u32>, plan: &DrainPlan) -> Vec<u32> {
        q.drain(plan).into_iter().map(|(_, j)| j).collect()
    }

    #[test]
    fn backpressure_rejects_without_blocking() {
        let q = ClassedQueue::new(2, 0.0);
        push(&q, 1, RequestClass::Interactive, 1);
        push(&q, 2, RequestClass::Interactive, 1);
        let now = Instant::now();
        assert_eq!(q.try_push(3, RequestClass::Interactive, 1, now, now), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn batch_backlog_cannot_starve_interactive_admission() {
        // Capacity 4 with a 25% interactive reserve: batch stops at 3.
        let q = ClassedQueue::new(4, 0.25);
        assert_eq!(q.batch_capacity, 3);
        for j in 0..3 {
            push(&q, j, RequestClass::Batch, 1);
        }
        let now = Instant::now();
        assert_eq!(q.try_push(9, RequestClass::Batch, 1, now, now), Err(PushError::Full(9)));
        // The reserved slot still admits interactive work …
        push(&q, 10, RequestClass::Interactive, 1);
        // … until the *total* capacity is reached.
        assert_eq!(
            q.try_push(11, RequestClass::Interactive, 1, now, now),
            Err(PushError::Full(11))
        );
        let queued = |class| q.pending().iter().filter(|m| m.class == class).count();
        assert_eq!((queued(RequestClass::Interactive), queued(RequestClass::Batch)), (1, 3));
    }

    #[test]
    fn interactive_first_reorders_across_classes() {
        let q = ClassedQueue::new(8, 0.25);
        push(&q, 0, RequestClass::Batch, 1);
        push(&q, 1, RequestClass::Batch, 1);
        push(&q, 2, RequestClass::Interactive, 1);
        let plan = DrainPlan { max_weight: 8, max_batch_weight: 8 };
        assert_eq!(drained(&q, &plan), vec![2, 0, 1]);
    }

    #[test]
    fn drain_respects_total_and_batch_budgets() {
        let q = ClassedQueue::new(16, 0.0);
        for j in 0..6 {
            push(&q, j, RequestClass::Batch, 2);
        }
        // Budget 5 with each job weighing 2: jobs 0 and 1 fit, job 2 would
        // exceed, 4 stay queued.
        let plan = DrainPlan { max_weight: 5, max_batch_weight: 5 };
        assert_eq!(drained(&q, &plan), vec![0, 1]);
        assert_eq!(q.len(), 4);
        // An oversized first job is still taken alone.
        let plan = DrainPlan { max_weight: 1, max_batch_weight: 0 };
        assert_eq!(drained(&q, &plan), vec![2]);
        // A batch budget below a job's weight stops the sweep after any
        // interactive prefix.
        let q2 = ClassedQueue::new(16, 0.0);
        push(&q2, 0, RequestClass::Interactive, 1);
        push(&q2, 1, RequestClass::Batch, 3);
        push(&q2, 2, RequestClass::Batch, 3);
        let plan = DrainPlan { max_weight: 16, max_batch_weight: 3 };
        assert_eq!(drained(&q2, &plan), vec![0, 1]);
        assert_eq!(q2.len(), 1);
    }

    #[test]
    fn pending_reports_interactive_first_metadata() {
        let q = ClassedQueue::new(8, 0.25);
        push(&q, 0, RequestClass::Batch, 4);
        push(&q, 1, RequestClass::Interactive, 1);
        push(&q, 2, RequestClass::Interactive, 2);
        let pending = q.pending();
        let seen: Vec<_> = pending.iter().map(|m| (m.class, m.weight)).collect();
        assert_eq!(
            seen,
            [
                (RequestClass::Interactive, 1),
                (RequestClass::Interactive, 2),
                (RequestClass::Batch, 4)
            ]
        );
    }

    #[test]
    fn close_drains_then_refuses() {
        let q = ClassedQueue::new(4, 0.25);
        push(&q, 7, RequestClass::Interactive, 1);
        q.close();
        let now = Instant::now();
        assert_eq!(
            q.try_push(8, RequestClass::Interactive, 1, now, now),
            Err(PushError::Closed(8))
        );
        // Queued work survives the close …
        assert_eq!(drained(&q, &DrainPlan::drain_all()), vec![7]);
        // … and only then is the queue exhausted.
        assert!(q.drain(&DrainPlan::drain_all()).is_empty());
    }
}
