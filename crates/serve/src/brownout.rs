//! Brown-out: planned partial degradation under overload.
//!
//! When the interactive SLO violation rate or queue pressure crosses its
//! threshold, the controller activates and the executor responds on three
//! axes at once:
//!
//! 1. **Shed batch-class load** — new batch submissions are refused with
//!    `Busy` at admission, freeing queue capacity and worker time for
//!    interactive traffic (batch callers are built to retry).
//! 2. **Shrink the gather window** — coalescing trades latency for
//!    throughput; under overload that trade is backwards, so the window
//!    divides by `GATHER_DIVISOR`.
//! 3. **Swap the latency estimator** — predictive admission switches from
//!    the learned tree to the pessimistic closed-form
//!    [`crate::latency::AnalyticLatencyEstimator`], refusing marginal
//!    requests *before* they queue (and decoupling admission from the
//!    learned path, which overload itself may have invalidated).
//!
//! Entry and exit use separate thresholds (hysteresis) plus a minimum
//! dwell time, so a violation burst cannot flap the controller on and off
//! every scheduling tick. Decisions come from a sliding window of recent
//! interactive completions, not lifetime totals — a long healthy history
//! must not mask a current overload.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Enter when the windowed interactive SLO violation rate reaches this.
const ENTER_VIOLATION_RATE: f64 = 0.20;
/// Exit requires the windowed violation rate back at or under this
/// (hysteresis: strictly below [`ENTER_VIOLATION_RATE`]).
const EXIT_VIOLATION_RATE: f64 = 0.05;
/// While browned out, the executor's gather window divides by this.
pub(crate) const GATHER_DIVISOR: u32 = 8;

/// Thresholds and shaping for the brown-out controller.
#[derive(Debug, Clone)]
pub struct BrownoutConfig {
    /// Master switch; `false` keeps the controller dormant.
    pub enabled: bool,
    /// Enter when interactive queue pressure (depth / capacity) crosses
    /// this.
    pub enter_queue_pressure: f64,
    /// Exit requires queue pressure back under this.
    pub exit_queue_pressure: f64,
    /// Interactive completions in the sliding decision window.
    pub window: usize,
    /// Minimum time in either state before switching again.
    pub min_dwell: Duration,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            enter_queue_pressure: 0.75,
            exit_queue_pressure: 0.25,
            window: 64,
            min_dwell: Duration::from_millis(50),
        }
    }
}

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
#[derive(Debug)]
pub struct BrownoutController {
    config: BrownoutConfig,
    /// Recent interactive completions: `true` = violated its SLO.
    window: VecDeque<bool>,
    violations: usize,
    active: bool,
    last_switch: Option<Instant>,
}

impl BrownoutController {
    /// A dormant controller with the given thresholds.
    pub fn new(config: BrownoutConfig) -> Self {
        Self { config, window: VecDeque::new(), violations: 0, active: false, last_switch: None }
    }

    /// The active configuration.
    pub fn config(&self) -> &BrownoutConfig {
        &self.config
    }

    /// Whether the service is currently browned out.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// SLO violation rate over the sliding window (0 while empty).
    pub fn windowed_violation_rate(&self) -> f64 {
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
        if !self.config.enabled {
            return BrownoutTransition::None;
        }
        self.window.push_back(violated);
        self.violations += usize::from(violated);
        while self.window.len() > self.config.window.max(1) {
            if self.window.pop_front() == Some(true) {
                self.violations -= 1;
            }
        }
        self.evaluate(queue_pressure, now)
    }

    /// Re-evaluates without a new completion (e.g. on a queue-pressure
    /// spike while nothing finishes — exactly when brown-out must engage).
    pub fn evaluate(&mut self, queue_pressure: f64, now: Instant) -> BrownoutTransition {
        if !self.config.enabled {
            return BrownoutTransition::None;
        }
        if let Some(t) = self.last_switch {
            if now.duration_since(t) < self.config.min_dwell {
                return BrownoutTransition::None;
            }
        }
        let rate = self.windowed_violation_rate();
        if !self.active {
            if rate >= ENTER_VIOLATION_RATE || queue_pressure >= self.config.enter_queue_pressure {
                self.active = true;
                self.last_switch = Some(now);
                return BrownoutTransition::Entered;
            }
        } else if rate <= EXIT_VIOLATION_RATE && queue_pressure <= self.config.exit_queue_pressure {
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

    fn quick_config() -> BrownoutConfig {
        BrownoutConfig { window: 10, min_dwell: Duration::ZERO, ..Default::default() }
    }

    #[test]
    fn enters_on_violation_rate_and_exits_with_hysteresis() {
        let mut c = BrownoutController::new(quick_config());
        let t = Instant::now();
        // 10 clean completions: stays dormant.
        for _ in 0..10 {
            assert_eq!(c.observe(false, 0.0, t), BrownoutTransition::None);
        }
        // Violations push the windowed rate past 20%.
        assert_eq!(c.observe(true, 0.0, t), BrownoutTransition::None); // 1/10
        assert_eq!(c.observe(true, 0.0, t), BrownoutTransition::Entered); // 2/10
        assert!(c.is_active());
        // One clean completion is not enough to exit (rate still > 5%).
        assert_eq!(c.observe(false, 0.0, t), BrownoutTransition::None);
        // A run of clean completions flushes the violations out of the
        // window and releases the brown-out.
        let mut exited = false;
        for _ in 0..10 {
            if c.observe(false, 0.0, t) == BrownoutTransition::Exited {
                exited = true;
                break;
            }
        }
        assert!(exited);
        assert!(!c.is_active());
        assert_eq!(c.windowed_violation_rate(), 0.0, "window cleared on exit");
    }

    #[test]
    fn enters_on_queue_pressure_alone() {
        let mut c = BrownoutController::new(quick_config());
        let t = Instant::now();
        assert_eq!(c.evaluate(0.5, t), BrownoutTransition::None);
        assert_eq!(c.evaluate(0.9, t), BrownoutTransition::Entered);
        // High pressure holds it active even with a clean window.
        assert_eq!(c.evaluate(0.5, t), BrownoutTransition::None);
        assert_eq!(c.evaluate(0.1, t), BrownoutTransition::Exited);
    }

    #[test]
    fn dwell_time_prevents_flapping() {
        let config = BrownoutConfig {
            window: 10,
            min_dwell: Duration::from_secs(3600),
            ..Default::default()
        };
        let mut c = BrownoutController::new(config);
        let t = Instant::now();
        assert_eq!(c.evaluate(1.0, t), BrownoutTransition::Entered);
        // Pressure collapses immediately, but the dwell holds the state.
        assert_eq!(c.evaluate(0.0, t), BrownoutTransition::None);
        assert!(c.is_active());
        // After the dwell lapses, the exit goes through.
        assert_eq!(c.evaluate(0.0, t + Duration::from_secs(3601)), BrownoutTransition::Exited);
    }

    #[test]
    fn disabled_controller_never_activates() {
        let config = BrownoutConfig { enabled: false, ..quick_config() };
        let mut c = BrownoutController::new(config);
        let t = Instant::now();
        for _ in 0..100 {
            assert_eq!(c.observe(true, 1.0, t), BrownoutTransition::None);
        }
        assert!(!c.is_active());
    }
}
