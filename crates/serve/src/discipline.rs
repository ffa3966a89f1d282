//! The executor's drain rule: *when* to drain a model's queue and *what* a
//! sweep may contain.
//!
//! The executor calls [`decide`] on every pass over a non-empty queue and
//! either waits (letting the gather window coalesce more arrivals into one
//! blocked SMSV sweep) or drains per the returned [`DrainPlan`]. The rule
//! is stateless — the gather window is measured from the oldest queued
//! job's enqueue time, so a decision can be recomputed from the pending
//! snapshot alone.
//!
//! The window is held **only while no queued interactive request would
//! miss its deadline**: slack is each interactive job's `deadline - now`,
//! discounted by the model's measured full-block sweep time so the sweep
//! finishes (not merely starts) inside the SLO. Drains are interactive
//! first, and batch work may only fill the sweep capacity left over after
//! every queued interactive job, so a batch flood never displaces
//! interactive vectors from a block.

use crate::proto::RequestClass;
use crate::queue::{DrainPlan, JobMeta};
use std::time::{Duration, Instant};

/// Everything the rule consults besides the pending jobs.
#[derive(Debug, Clone, Copy)]
pub struct DisciplineCtx {
    /// The decision instant.
    pub now: Instant,
    /// Gather window in force (how long a sweep may wait for arrivals).
    pub gather: Duration,
    /// Weight budget of one sweep (vectors per blocked kernel launch).
    pub max_block: usize,
    /// Measured duration of one full sweep against this model; zero for
    /// constant models.
    pub est_block: Duration,
}

/// The verdict for one non-empty queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Leave the queue untouched for up to this long (new arrivals or the
    /// elapsed window trigger a fresh decision).
    Wait(Duration),
    /// Drain one sweep now, per the plan.
    Drain(DrainPlan),
}

fn class_weight(pending: &[JobMeta], class: RequestClass) -> usize {
    pending.iter().filter(|m| m.class == class).map(|m| m.weight).sum()
}

/// Decides for one queue; `pending` is non-empty. A `Wait` is never longer
/// than what is left of the gather window, so every queue drains.
pub fn decide(pending: &[JobMeta], ctx: &DisciplineCtx) -> Decision {
    let oldest = pending.iter().map(|m| m.enqueued).min().expect("pending is non-empty");
    let mut hold = (oldest + ctx.gather).saturating_duration_since(ctx.now);
    if pending.iter().map(|m| m.weight).sum::<usize>() >= ctx.max_block {
        hold = Duration::ZERO;
    }
    // Shrink the hold to the tightest interactive slack.
    for m in pending.iter().filter(|m| m.class == RequestClass::Interactive) {
        let slack = m.deadline.saturating_duration_since(ctx.now).saturating_sub(ctx.est_block);
        hold = hold.min(slack);
    }
    if !hold.is_zero() {
        return Decision::Wait(hold);
    }
    let interactive = class_weight(pending, RequestClass::Interactive).min(ctx.max_block);
    Decision::Drain(DrainPlan {
        max_weight: ctx.max_block,
        max_batch_weight: ctx.max_block - interactive,
    })
}

/// The queued weight that would run *before* a new job of `class`, for
/// predictive admission: an interactive arrival only queues behind other
/// interactive jobs, a batch arrival behind everything.
pub fn queue_ahead(pending: &[JobMeta], class: RequestClass) -> usize {
    match class {
        RequestClass::Interactive => class_weight(pending, RequestClass::Interactive),
        RequestClass::Batch => pending.iter().map(|m| m.weight).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LONG: Duration = Duration::from_secs(5);

    fn meta(
        now: Instant,
        class: RequestClass,
        weight: usize,
        age: Duration,
        slack: Duration,
    ) -> JobMeta {
        JobMeta { class, weight, enqueued: now - age, deadline: now + slack }
    }

    fn ctx(now: Instant, gather_ms: u64, max_block: usize, est_block: Duration) -> DisciplineCtx {
        DisciplineCtx { now, gather: Duration::from_millis(gather_ms), max_block, est_block }
    }

    #[test]
    fn holds_only_while_interactive_slack_allows() {
        // One instant every meta and context is measured from.
        let now = Instant::now();
        let ctx = ctx(now, 10, 32, Duration::from_millis(2));
        // Comfortable slack: the window is held, exactly to its end.
        let relaxed = [
            meta(now, RequestClass::Batch, 4, Duration::ZERO, LONG),
            meta(now, RequestClass::Interactive, 1, Duration::ZERO, Duration::from_secs(1)),
        ];
        assert_eq!(decide(&relaxed, &ctx), Decision::Wait(Duration::from_millis(10)));
        // The window runs from the oldest job.
        let aging = [meta(now, RequestClass::Batch, 1, Duration::from_millis(7), LONG)];
        assert_eq!(decide(&aging, &ctx), Decision::Wait(Duration::from_millis(3)));
        // Slack of 5 ms less the 2 ms sweep cuts the hold to 3 ms.
        let tight =
            [meta(now, RequestClass::Interactive, 1, Duration::ZERO, Duration::from_millis(5))];
        assert_eq!(decide(&tight, &ctx), Decision::Wait(Duration::from_millis(3)));
        // Slack inside the sweep time: drain now, and batch may only fill
        // what interactive leaves free.
        let urgent = [
            meta(now, RequestClass::Batch, 4, Duration::ZERO, LONG),
            meta(now, RequestClass::Interactive, 2, Duration::ZERO, Duration::from_millis(1)),
        ];
        assert_eq!(
            decide(&urgent, &ctx),
            Decision::Drain(DrainPlan { max_weight: 32, max_batch_weight: 30 })
        );
        // A lapsed window or a full block's worth of weight never waits.
        let aged = [meta(now, RequestClass::Batch, 1, Duration::from_millis(20), LONG)];
        assert!(matches!(decide(&aged, &ctx), Decision::Drain(_)));
        let heavy = [meta(now, RequestClass::Batch, 32, Duration::ZERO, LONG)];
        assert_eq!(
            decide(&heavy, &ctx),
            Decision::Drain(DrainPlan { max_weight: 32, max_batch_weight: 32 })
        );
    }

    #[test]
    fn queue_ahead_charges_interactive_only_for_interactive() {
        let now = Instant::now();
        let pending = [
            meta(now, RequestClass::Batch, 10, Duration::ZERO, LONG),
            meta(now, RequestClass::Interactive, 2, Duration::ZERO, LONG),
        ];
        assert_eq!(queue_ahead(&pending, RequestClass::Interactive), 2);
        assert_eq!(queue_ahead(&pending, RequestClass::Batch), 12);
    }
}
