//! Brown-out: planned partial degradation under overload.
//!
//! When the interactive SLO violation rate or queue pressure crosses its
//! threshold, the controller activates and the executor **sheds
//! batch-class load**: new batch submissions are refused with `Busy` at
//! admission, freeing queue capacity and worker time for interactive
//! traffic (batch callers are built to retry).
//!
//! Entry and exit use separate thresholds (hysteresis) plus a minimum
//! dwell time, so a violation burst cannot flap the controller on and off
//! every scheduling tick. Decisions come from a sliding window of recent
//! interactive completions, not lifetime totals — a long healthy history
//! must not mask a current overload. The thresholds are constants; the
//! executor's `brownout` switch turns the whole controller off.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Enter when the windowed interactive SLO violation rate reaches this.
const ENTER_VIOLATION_RATE: f64 = 0.20;
/// Exit requires the windowed violation rate back at or under this
/// (hysteresis: strictly below [`ENTER_VIOLATION_RATE`]).
const EXIT_VIOLATION_RATE: f64 = 0.05;
/// Enter when the fullest predict queue's depth over its capacity reaches
/// this.
const ENTER_QUEUE_PRESSURE: f64 = 0.75;
/// Exit requires queue pressure back at or under this.
const EXIT_QUEUE_PRESSURE: f64 = 0.25;
/// Interactive completions in the sliding decision window.
const WINDOW: usize = 64;
/// Minimum time in either state before switching again.
const MIN_DWELL: Duration = Duration::from_millis(50);

/// What changed on one [`BrownoutController::observe`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrownoutTransition {
    /// State unchanged.
    None,
    /// The controller just activated.
    Entered,
    /// The controller just deactivated.
    Exited,
}

/// The overload state machine. One per executor, consulted under the
/// executor's existing locking (no interior synchronization needed).
#[derive(Debug, Default)]
pub struct BrownoutController {
    /// Recent interactive completions: `true` = violated its SLO.
    window: VecDeque<bool>,
    violations: usize,
    active: bool,
    last_switch: Option<Instant>,
}

impl BrownoutController {
    /// A dormant controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// SLO violation rate over the sliding window (0 while empty).
    pub(crate) fn windowed_violation_rate(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.violations as f64 / self.window.len() as f64
        }
    }

    /// Records one interactive completion (answered or timed out) and
    /// re-evaluates the state against `queue_pressure` (interactive depth
    /// over capacity, in `[0, 1]`).
    pub fn observe(
        &mut self,
        violated: bool,
        queue_pressure: f64,
        now: Instant,
    ) -> BrownoutTransition {
        self.window.push_back(violated);
        self.violations += usize::from(violated);
        while self.window.len() > WINDOW {
            if self.window.pop_front() == Some(true) {
                self.violations -= 1;
            }
        }
        self.evaluate(queue_pressure, now)
    }

    /// Re-evaluates without a new completion (e.g. on a queue-pressure
    /// spike while nothing finishes — exactly when brown-out must engage).
    pub fn evaluate(&mut self, queue_pressure: f64, now: Instant) -> BrownoutTransition {
        if let Some(t) = self.last_switch {
            if now.duration_since(t) < MIN_DWELL {
                return BrownoutTransition::None;
            }
        }
        let rate = self.windowed_violation_rate();
        if !self.active {
            if rate >= ENTER_VIOLATION_RATE || queue_pressure >= ENTER_QUEUE_PRESSURE {
                self.active = true;
                self.last_switch = Some(now);
                return BrownoutTransition::Entered;
            }
        } else if rate <= EXIT_VIOLATION_RATE && queue_pressure <= EXIT_QUEUE_PRESSURE {
            self.active = false;
            self.last_switch = Some(now);
            // Exit with a clean slate: the window's overload history would
            // otherwise re-trigger entry on the next observation.
            self.window.clear();
            self.violations = 0;
            return BrownoutTransition::Exited;
        }
        BrownoutTransition::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enters_on_violation_rate_and_exits_with_hysteresis() {
        let mut c = BrownoutController::new();
        let t = Instant::now();
        // A window of clean completions: stays dormant.
        for _ in 0..WINDOW {
            assert_eq!(c.observe(false, 0.0, t), BrownoutTransition::None);
        }
        // Violations slide into the window until the rate reaches 20%:
        // 13 of 64 (12 of 64 is 18.75%).
        for _ in 0..12 {
            assert_eq!(c.observe(true, 0.0, t), BrownoutTransition::None);
        }
        assert_eq!(c.observe(true, 0.0, t), BrownoutTransition::Entered);
        assert!(c.active);
        // Clean completions flush the violations out of the window, but
        // the state holds for the dwell time.
        for _ in 0..WINDOW {
            assert_eq!(c.observe(false, 0.0, t), BrownoutTransition::None);
        }
        assert_eq!(c.windowed_violation_rate(), 0.0);
        assert!(c.active);
        // Once the dwell lapses, the next completion releases it.
        assert_eq!(c.observe(false, 0.0, t + MIN_DWELL), BrownoutTransition::Exited);
        assert!(!c.active);
        assert_eq!(c.windowed_violation_rate(), 0.0, "window cleared on exit");
    }

    #[test]
    fn exit_needs_the_violation_rate_at_five_percent() {
        let mut c = BrownoutController::new();
        let t = Instant::now();
        assert_eq!(c.evaluate(1.0, t), BrownoutTransition::Entered);
        let later = t + MIN_DWELL;
        // 4 violations in 64 is 6.25%: still browned out …
        for k in 0..WINDOW {
            assert_eq!(c.observe(k < 4, 0.0, later), BrownoutTransition::None, "completion {k}");
        }
        // … and one more clean completion slides the window to 3 in 64.
        assert_eq!(c.observe(false, 0.0, later), BrownoutTransition::Exited);
    }

    #[test]
    fn enters_and_exits_on_queue_pressure_alone() {
        let mut c = BrownoutController::new();
        let t = Instant::now();
        assert_eq!(c.evaluate(0.74, t), BrownoutTransition::None);
        assert_eq!(c.evaluate(ENTER_QUEUE_PRESSURE, t), BrownoutTransition::Entered);
        let later = t + MIN_DWELL;
        // Pressure above the exit threshold holds it active even with a
        // clean window.
        assert_eq!(c.evaluate(0.5, later), BrownoutTransition::None);
        assert_eq!(c.evaluate(EXIT_QUEUE_PRESSURE, later), BrownoutTransition::Exited);
    }

    #[test]
    fn dwell_time_prevents_flapping() {
        let mut c = BrownoutController::new();
        let t = Instant::now();
        assert_eq!(c.evaluate(1.0, t), BrownoutTransition::Entered);
        // Pressure collapses at once, but the dwell holds the state …
        assert_eq!(c.evaluate(0.0, t), BrownoutTransition::None);
        assert_eq!(c.evaluate(0.0, t + MIN_DWELL / 2), BrownoutTransition::None);
        assert!(c.active);
        // … until it lapses; then the exit goes through, and re-entry
        // waits out a dwell of its own.
        assert_eq!(c.evaluate(0.0, t + MIN_DWELL), BrownoutTransition::Exited);
        assert_eq!(c.evaluate(1.0, t + MIN_DWELL * 3 / 2), BrownoutTransition::None);
        assert_eq!(c.evaluate(1.0, t + MIN_DWELL * 2), BrownoutTransition::Entered);
    }
}
