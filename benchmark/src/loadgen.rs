//! The open-loop generator and the rate ladder.
//!
//! Independent users do not wait for each other, so requests are sent on a
//! schedule whatever the server does, and each is timed from when it was
//! *due*: a stall delays the requests behind it and every one of them
//! counts it. How late the generator itself ran is reported beside the
//! latencies, so that a slow generator cannot pass for a fast server.
//!
//! The generator does not know what a request is. The caller gives it a
//! `send` closure and a channel on which completions arrive, stamped by
//! whoever read them off the wire; the tests drive it against a fake
//! server that stalls on purpose.

use crate::stats::{quantile, quiet, summarize, Summary};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// What came back for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// The right answer.
    Right,
    /// An honest refusal: the server said it was busy, or that the request
    /// had waited past its deadline. A failed operation, not a wrong output.
    Refused,
    /// Anything else: a wrong answer, an error, an unexpected message.
    Wrong,
}

/// A reply, stamped where it was read.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The sequence number `send` was called with.
    pub seq: u64,
    /// When the reply was read.
    pub at: Instant,
    /// What it was.
    pub reply: Reply,
}

/// One request of an open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Sequence number.
    pub seq: u64,
    /// When the schedule said to send it.
    pub due: Instant,
    /// When `send` was called.
    pub sent: Instant,
    /// When its reply was read; `None` if none came before the drain ended.
    pub done: Option<Instant>,
    /// What the reply was; `None` if the send failed or no reply came.
    pub reply: Option<Reply>,
}

impl Sample {
    /// Sent and answered correctly.
    pub fn ok(&self) -> bool {
        self.reply == Some(Reply::Right)
    }
}

/// Consecutive requests per tail window. 250 samples support a p95 (twelve
/// beyond it); a p99 needs 1000, and at a few hundred requests per second
/// that leaves a handful of windows, too few to outvote the host's stalls.
pub const TAIL_WINDOW: usize = 250;

/// One open-loop phase.
#[derive(Debug)]
pub struct Phase {
    /// Requests per second offered.
    pub rate: f64,
    /// When the last request's slot ended.
    pub end: Instant,
    /// Every request, in schedule order.
    pub samples: Vec<Sample>,
}

/// Sends `rate * duration` requests numbered from `first_seq`, request `i`
/// at `start + i / rate`, then waits up to `drain` for the replies still
/// out. `send` returns whether the request went out; it must not wait for
/// the reply. A generator that falls behind sends at once and catches up:
/// the schedule never shifts.
pub fn open_loop(
    rate: f64,
    duration: Duration,
    drain: Duration,
    first_seq: u64,
    mut send: impl FnMut(u64) -> bool,
    done: &Receiver<Completion>,
) -> Phase {
    let n = (rate * duration.as_secs_f64()).floor().max(1.0) as u64;
    let start = Instant::now();
    let mut samples = Vec::with_capacity(n as usize);
    for i in 0..n {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        // A request that never went out gets no reply: skip waiting for it.
        let done = if send(first_seq + i) { None } else { Some(sent) };
        samples.push(Sample { seq: first_seq + i, due, sent, done, reply: None });
    }
    let end = start + Duration::from_secs_f64(n as f64 / rate);
    let deadline = end + drain;
    let mut missing = samples.iter().filter(|s| s.done.is_none()).count();
    while missing > 0 {
        let Some(left) = deadline.checked_duration_since(Instant::now()) else { break };
        let Ok(c) = done.recv_timeout(left) else { break };
        // Replies to an earlier phase's stragglers are not this phase's.
        let Some(s) = c.seq.checked_sub(first_seq).and_then(|i| samples.get_mut(i as usize)) else {
            continue;
        };
        if s.done.is_none() {
            s.done = Some(c.at);
            s.reply = Some(c.reply);
            missing -= 1;
        }
    }
    Phase { rate, end, samples }
}

impl Phase {
    /// Latency from due time of every answered request, in µs, in
    /// schedule order.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.reply.is_some())
            .filter_map(|s| s.done.map(|d| d.saturating_duration_since(s.due).as_secs_f64() * 1e6))
            .collect()
    }

    /// Latency read window by window: the latencies are cut into runs of
    /// [`TAIL_WINDOW`] consecutive requests, each run gives its median and
    /// its highest supported percentile, and the quiet decile of each
    /// over the windows is reported (`stats::quiet`): a stall of the host
    /// spoils the windows it falls in, not the run's numbers. A phase
    /// shorter than one window is summarised whole.
    pub fn latency(&self) -> Summary {
        let mut all = self.latencies_us();
        let windows: Vec<Summary> =
            all.chunks_exact(TAIL_WINDOW).map(|w| summarize(&mut w.to_vec())).collect();
        let whole = summarize(&mut all);
        match windows.first() {
            Some(first) => Summary {
                median: quiet(&mut windows.iter().map(|w| w.median).collect::<Vec<_>>()),
                tail_p: first.tail_p,
                tail: quiet(&mut windows.iter().map(|w| w.tail).collect::<Vec<_>>()),
                ..whole
            },
            None => whole,
        }
    }

    /// How late the generator sent, p99 over the phase, in ms.
    pub fn lateness_p99_ms(&self) -> f64 {
        let mut late: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.sent.saturating_duration_since(s.due).as_secs_f64() * 1e3)
            .collect();
        quantile(&mut late, 0.99)
    }

    /// Requests answered correctly within `limit` of their due time.
    pub fn ok_within(&self, limit: Duration) -> usize {
        self.samples
            .iter()
            .filter(|s| {
                s.ok() && s.done.is_some_and(|d| d.saturating_duration_since(s.due) <= limit)
            })
            .count()
    }

    /// Requests not answered correctly, whenever: refused, wrong, unsent
    /// or never answered.
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok()).count()
    }

    /// Requests answered wrongly.
    pub fn wrong(&self) -> usize {
        self.samples.iter().filter(|s| s.reply == Some(Reply::Wrong)).count()
    }

    /// Requests still unanswered when the last slot ended.
    pub fn backlog(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.reply.is_none() || s.done.is_some_and(|d| d > self.end))
            .count()
    }
}

/// One rung of the ladder, judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, req/s.
    pub rate: f64,
    /// Requests due.
    pub due: usize,
    /// Answered correctly within the limit.
    pub ok_in_limit: usize,
    /// Unanswered at the end of the rung.
    pub backlog: usize,
    /// Generator lateness p99, ms.
    pub lateness_p99_ms: f64,
    /// Whether the rung met all three conditions.
    pub passed: bool,
}

/// A rung passes when at least 99% of the requests due were answered
/// correctly within `limit` of their due time, the backlog at its end is
/// at most 50 ms of offered load, and the generator's lateness p99 stayed
/// under 1 ms.
pub fn judge(phase: &Phase, limit: Duration) -> Rung {
    let due = phase.samples.len();
    let ok_in_limit = phase.ok_within(limit);
    let backlog = phase.backlog();
    let lateness_p99_ms = phase.lateness_p99_ms();
    let passed = ok_in_limit as f64 >= 0.99 * due as f64
        && backlog as f64 <= 0.050 * phase.rate
        && lateness_p99_ms < 1.0;
    Rung { rate: phase.rate, due, ok_in_limit, backlog, lateness_p99_ms, passed }
}

/// Climbs `rates` in order and stops at the first rung that fails twice
/// running: the rungs above it are not run and count as failed. A rung is
/// about a second long and one pause of the host is a tenth of that, so a
/// failed rung gets one more try before it counts. Returns the highest
/// rate that passed and every rung that ran.
pub fn ladder(rates: &[f64], mut run: impl FnMut(f64) -> Rung) -> (Option<f64>, Vec<Rung>) {
    let mut rungs = Vec::new();
    let mut best = None;
    for &rate in rates {
        let mut rung = run(rate);
        rungs.push(rung);
        if !rung.passed {
            rung = run(rate);
            rungs.push(rung);
        }
        if !rung.passed {
            break;
        }
        best = Some(rate);
    }
    (best, rungs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    /// A server that answers at once, except that it freezes for `stall`
    /// when it reads request `stall_at`.
    fn fake_server(
        stall_at: u64,
        stall: Duration,
    ) -> (std::sync::mpsc::Sender<u64>, Receiver<Completion>, std::thread::JoinHandle<()>) {
        let (req_tx, req_rx) = channel::<u64>();
        let (done_tx, done_rx) = channel();
        let server = std::thread::spawn(move || {
            for seq in req_rx {
                if seq == stall_at {
                    std::thread::sleep(stall);
                }
                let _ = done_tx.send(Completion { seq, at: Instant::now(), reply: Reply::Right });
            }
        });
        (req_tx, done_rx, server)
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        // 1000 req/s for 0.4 s; the server freezes for 100 ms at request
        // 100. A closed loop would see one slow request. Here about a
        // hundred requests fall due during the freeze, each is timed from
        // its own due time, and the generator itself never ran late.
        let stall = Duration::from_millis(100);
        let (req_tx, done_rx, server) = fake_server(100, stall);
        let phase = open_loop(
            1000.0,
            Duration::from_millis(400),
            Duration::from_secs(2),
            0,
            |seq| req_tx.send(seq).is_ok(),
            &done_rx,
        );
        drop(req_tx);
        server.join().unwrap();

        assert_eq!(phase.samples.len(), 400);
        assert_eq!(phase.failed(), 0);
        let slow = phase.latencies_us().iter().filter(|&&us| us > 20_000.0).count();
        assert!((60..=140).contains(&slow), "{slow} requests saw the 100 ms stall");
        let worst = phase.latencies_us().into_iter().fold(0.0, f64::max);
        assert!(worst >= 80_000.0, "the stalled request itself took {worst} us");
        assert!(
            phase.lateness_p99_ms() < 20.0,
            "generator ran {} ms late",
            phase.lateness_p99_ms()
        );
        // The limit is missed by the stalled requests, so the rung fails.
        assert!(!judge(&phase, Duration::from_millis(5)).passed);
    }

    #[test]
    fn a_blocked_sender_shows_as_lateness_and_as_latency() {
        // The send call itself blocks for 60 ms once: the requests behind
        // it go out late, and are still timed from when they were due.
        let (req_tx, done_rx, server) = fake_server(u64::MAX, Duration::ZERO);
        let phase = open_loop(
            1000.0,
            Duration::from_millis(200),
            Duration::from_secs(2),
            7,
            |seq| {
                if seq == 7 + 50 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                req_tx.send(seq).is_ok()
            },
            &done_rx,
        );
        drop(req_tx);
        server.join().unwrap();
        assert!(phase.lateness_p99_ms() >= 40.0, "lateness p99 {} ms", phase.lateness_p99_ms());
        let late = phase.latencies_us().iter().filter(|&&us| us > 20_000.0).count();
        assert!(late >= 30, "{late} requests were timed from their due time");
        assert!(!judge(&phase, Duration::from_millis(5)).passed);
    }

    #[test]
    fn unanswered_requests_fail_and_count_as_backlog() {
        let (done_tx, done_rx) = channel();
        // Only even requests are ever answered.
        let phase = open_loop(
            2000.0,
            Duration::from_millis(50),
            Duration::from_millis(50),
            0,
            |seq| {
                if seq % 2 == 0 {
                    done_tx
                        .send(Completion { seq, at: Instant::now(), reply: Reply::Right })
                        .unwrap();
                }
                true
            },
            &done_rx,
        );
        assert_eq!(phase.samples.len(), 100);
        assert_eq!(phase.failed(), 50);
        assert_eq!(phase.backlog(), 50);
        assert_eq!(phase.latencies_us().len(), 50);
        assert_eq!(phase.wrong(), 0);
    }

    #[test]
    fn refusals_fail_without_being_wrong() {
        let (done_tx, done_rx) = channel();
        let phase = open_loop(
            2000.0,
            Duration::from_millis(50),
            Duration::from_millis(50),
            0,
            |seq| {
                let reply = match seq % 4 {
                    0 => Reply::Refused,
                    1 => Reply::Wrong,
                    _ => Reply::Right,
                };
                done_tx.send(Completion { seq, at: Instant::now(), reply }).unwrap();
                // Every tenth request cannot even be sent.
                seq % 10 != 9
            },
            &done_rx,
        );
        assert_eq!(phase.samples.len(), 100);
        assert_eq!(phase.wrong(), 25 - 5, "five of the unsent requests would have been wrong ones");
        assert_eq!(phase.failed(), 50 + 5, "refused, wrong, and the unsent right ones");
        assert_eq!(phase.ok_within(Duration::from_secs(1)), 45);
    }

    #[test]
    fn one_stalled_window_does_not_set_the_tail() {
        // Twelve windows of 250; the fifth holds a stall.
        let base = Instant::now();
        let at = |us: u64| base + Duration::from_micros(us);
        let samples = (0..3000u64)
            .map(|i| {
                let latency = if (1100..1200).contains(&i) { 50_000 } else { 1_000 + i % 100 };
                Sample {
                    seq: i,
                    due: at(i * 2_000),
                    sent: at(i * 2_000),
                    done: Some(at(i * 2_000 + latency)),
                    reply: Some(Reply::Right),
                }
            })
            .collect();
        let phase = Phase { rate: 500.0, end: at(6_000_000), samples };
        let s = phase.latency();
        assert_eq!((s.n, s.tail_p), (3000, 0.95));
        assert!(s.tail < 1_100.0, "tail {} must come from a clean window", s.tail);
        // The whole-sample p99 would have been the stall.
        assert_eq!(quantile(&mut phase.latencies_us(), 0.99), 50_000.0);
    }

    fn rung(rate: f64, passed: bool) -> Rung {
        Rung { rate, due: 100, ok_in_limit: 100, backlog: 0, lateness_p99_ms: 0.1, passed }
    }

    #[test]
    fn ladder_stops_at_the_first_rung_that_fails_twice() {
        let mut ran = Vec::new();
        let (best, rungs) = ladder(&[500.0, 1000.0, 2000.0, 4000.0, 8000.0], |rate| {
            ran.push(rate);
            // 1000 fails once and passes its second try; 2000 fails both;
            // 4000 would pass again but must never be tried.
            let first_try = ran.iter().filter(|&&r| r == rate).count() == 1;
            rung(rate, !(rate == 2000.0 || (rate == 1000.0 && first_try)))
        });
        assert_eq!(best, Some(1000.0));
        assert_eq!(ran, vec![500.0, 1000.0, 1000.0, 2000.0, 2000.0]);
        assert_eq!(rungs.len(), 5);

        let (best, rungs) = ladder(&[500.0, 1000.0], |rate| rung(rate, false));
        assert_eq!((best, rungs.len()), (None, 2));
        let (best, _) = ladder(&[500.0, 1000.0], |rate| rung(rate, true));
        assert_eq!(best, Some(1000.0));
    }
}
