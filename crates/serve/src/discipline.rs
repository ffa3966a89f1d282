//! The executor's drain rule: *what* one sweep of a model's queue may
//! contain.
//!
//! The rule is work-conserving: a worker that finds a non-empty queue
//! drains it at once, so a lone request on an idle lane never waits for
//! company. Coalescing comes only from what queued while the lane was busy
//! (a sweep running, or the pool paused): those jobs drain together as one
//! blocked SMSV sweep of up to `max_block` vectors. Drains are interactive
//! first, and batch work may only fill the sweep capacity left over after
//! every queued interactive job, so a batch flood never displaces
//! interactive vectors from a block.

use crate::proto::RequestClass;
use crate::queue::{DrainPlan, JobMeta};

fn class_weight(pending: &[JobMeta], class: RequestClass) -> usize {
    pending.iter().filter(|m| m.class == class).map(|m| m.weight).sum()
}

/// The plan for one sweep of a queue holding `pending`, under a weight
/// budget of `max_block` vectors.
pub(crate) fn decide(pending: &[JobMeta], max_block: usize) -> DrainPlan {
    let interactive = class_weight(pending, RequestClass::Interactive).min(max_block);
    DrainPlan { max_weight: max_block, max_batch_weight: max_block - interactive }
}

/// The queued weight that would run *before* a new job of `class`, for
/// predictive admission: an interactive arrival only queues behind other
/// interactive jobs, a batch arrival behind everything.
pub(crate) fn queue_ahead(pending: &[JobMeta], class: RequestClass) -> usize {
    match class {
        RequestClass::Interactive => class_weight(pending, RequestClass::Interactive),
        RequestClass::Batch => pending.iter().map(|m| m.weight).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn meta(class: RequestClass, weight: usize) -> JobMeta {
        let now = Instant::now();
        JobMeta { class, weight, enqueued: now, deadline: now + Duration::from_secs(5) }
    }

    #[test]
    fn batch_fills_only_what_interactive_leaves() {
        // Interactive weight 2 of a 32-vector sweep: batch may take 30.
        let mixed = [meta(RequestClass::Batch, 4), meta(RequestClass::Interactive, 2)];
        assert_eq!(decide(&mixed, 32), DrainPlan { max_weight: 32, max_batch_weight: 30 });
        // No interactive work queued: batch may fill the whole sweep.
        let batch = [meta(RequestClass::Batch, 32)];
        assert_eq!(decide(&batch, 32), DrainPlan { max_weight: 32, max_batch_weight: 32 });
        // Interactive work beyond one sweep leaves batch nothing.
        let flood = [meta(RequestClass::Interactive, 40), meta(RequestClass::Batch, 1)];
        assert_eq!(decide(&flood, 32), DrainPlan { max_weight: 32, max_batch_weight: 0 });
    }

    #[test]
    fn queue_ahead_charges_interactive_only_for_interactive() {
        let pending = [meta(RequestClass::Batch, 10), meta(RequestClass::Interactive, 2)];
        assert_eq!(queue_ahead(&pending, RequestClass::Interactive), 2);
        assert_eq!(queue_ahead(&pending, RequestClass::Batch), 12);
    }
}
