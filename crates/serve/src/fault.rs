//! Seeded, deterministic fault injection for the serving path.
//!
//! Heavy traffic from real networks means misbehaving peers, stalled
//! sockets, poisoned models, and overload are the *common* case, not the
//! exception. This module gives the rest of the crate one switchboard for
//! rehearsing those failures deterministically: a [`FaultPlan`] names
//! *where* faults may fire ([`FaultSite`]), *what* kind ([`FaultKind`]),
//! and *how often*, all derived from one seed so a chaos run is exactly
//! reproducible. Production servers carry a [`FaultInjector::none`]
//! injector — a `None` behind an `Option<Arc<_>>`, so the disabled path
//! costs one branch and no allocation.
//!
//! Two configuration styles:
//!
//! * **Rate-based** ([`FaultPlan::with`]) — every `decide` at a site rolls
//!   each configured kind independently; first hit wins. This is what the
//!   `repro_chaos` harness uses, with per-seed rates from
//!   [`FaultPlan::from_seed`].
//! * **Scripted** ([`FaultPlan::script`]) — an explicit per-site action
//!   sequence consumed one `decide` at a time, for unit tests that need a
//!   fault on exactly the nth operation.
//!
//! A plan can be [`FaultPlan::disarm`]ed at runtime (e.g. so a chaos
//! scenario can end with a clean probe against the same server), and every
//! injection is counted per site for post-run assertions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where in the serving path a fault may be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Reading request bytes from a connection (server side).
    ConnRead = 0,
    /// Writing response bytes to a connection (server side).
    ConnWrite = 1,
    /// Kernel execution of a drained predict batch.
    Exec = 2,
    /// Model lookup / registry load on the submit path.
    Registry = 3,
}

impl FaultSite {
    /// Every site, index-aligned with [`FaultSite::index`].
    pub const ALL: [FaultSite; 4] =
        [FaultSite::ConnRead, FaultSite::ConnWrite, FaultSite::Exec, FaultSite::Registry];

    /// Dense index for per-site tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::ConnRead => "conn_read",
            FaultSite::ConnWrite => "conn_write",
            FaultSite::Exec => "exec",
            FaultSite::Registry => "registry",
        }
    }
}

/// The kind of failure to inject (the rate-table axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Stall the operation for a seeded duration (slow peer / slow model).
    Delay = 0,
    /// Complete only a 1-byte slice of the I/O operation (dribbling peer).
    Partial = 1,
    /// Fail the operation as a connection reset.
    Reset = 2,
    /// Flip one bit in the bytes crossing this point (corrupt frame).
    Corrupt = 3,
    /// Panic mid-operation (poisoned model / kernel bug).
    Panic = 4,
    /// Fail with a typed unavailability error (registry load failure).
    Fail = 5,
}

impl FaultKind {
    /// Every kind, index-aligned with the internal rate table.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Delay,
        FaultKind::Partial,
        FaultKind::Reset,
        FaultKind::Corrupt,
        FaultKind::Panic,
        FaultKind::Fail,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// A resolved injection: what the faulted operation must now do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sleep this long, then proceed normally.
    Delay(Duration),
    /// Complete at most one byte of the I/O operation.
    Partial,
    /// Fail as a connection reset.
    Reset,
    /// Flip one bit (the u64 picks which) in the data crossing this point.
    Corrupt(u64),
    /// Panic.
    Panic,
    /// Fail with a typed unavailability error.
    Fail,
}

/// SplitMix64: a tiny, high-quality deterministic generator. Public so the
/// chaos harness and the client's backoff jitter share one seeded source
/// without pulling in the vendored `rand` crate.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)` (`0` when `bound == 0`).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

const NUM_SITES: usize = FaultSite::ALL.len();
const NUM_KINDS: usize = FaultKind::ALL.len();

/// Upper bound on an injected delay, in microseconds (20 ms).
const MAX_DELAY_MICROS: u64 = 20_000;

/// A seeded schedule of injectable failures. Shared (`Arc`) between the
/// server front end, executor, and registry via [`FaultInjector`].
pub struct FaultPlan {
    seed: u64,
    armed: AtomicBool,
    /// Per-(site, kind) injection probability.
    rates: [[f64; NUM_KINDS]; NUM_SITES],
    /// Explicit per-site scripts, consumed before any rate roll.
    scripts: [Mutex<std::collections::VecDeque<FaultAction>>; NUM_SITES],
    /// Injections fired per site.
    counts: [AtomicU64; NUM_SITES],
    rng: Mutex<SplitMix64>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("armed", &self.armed.load(Ordering::Relaxed))
            .field("injected", &self.injected())
            .finish()
    }
}

impl FaultPlan {
    /// An armed plan with no faults configured; add them with
    /// [`FaultPlan::with`] and [`FaultPlan::script`].
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            armed: AtomicBool::new(true),
            rates: [[0.0; NUM_KINDS]; NUM_SITES],
            scripts: std::array::from_fn(|_| Mutex::new(std::collections::VecDeque::new())),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            rng: Mutex::new(SplitMix64::new(seed ^ 0xC4A5_F001)),
        }
    }

    /// A chaos preset: per-seed rates over the I/O and execution sites,
    /// moderate enough that most requests succeed but every run injects a
    /// healthy mix of delays, partial I/O, resets, and panics.
    pub fn from_seed(seed: u64) -> Self {
        let mut derive = SplitMix64::new(seed ^ 0x0DD5_EED5);
        let mut rate = |max: f64| derive.next_f64() * max;
        Self::new(seed)
            .with(FaultSite::ConnRead, FaultKind::Delay, rate(0.05))
            .with(FaultSite::ConnRead, FaultKind::Partial, rate(0.10))
            .with(FaultSite::ConnRead, FaultKind::Reset, rate(0.02))
            .with(FaultSite::ConnWrite, FaultKind::Delay, rate(0.05))
            .with(FaultSite::ConnWrite, FaultKind::Partial, rate(0.10))
            .with(FaultSite::ConnWrite, FaultKind::Reset, rate(0.02))
            .with(FaultSite::Exec, FaultKind::Delay, rate(0.05))
            .with(FaultSite::Registry, FaultKind::Fail, rate(0.05))
    }

    /// Sets the injection probability of `kind` at `site` (clamped to
    /// `[0, 1]`).
    pub fn with(mut self, site: FaultSite, kind: FaultKind, rate: f64) -> Self {
        self.rates[site.index()][kind.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// Appends explicit actions for `site`, consumed one `decide` at a
    /// time before any rate roll — deterministic "fault on the nth op".
    pub fn script(self, site: FaultSite, actions: impl IntoIterator<Item = FaultAction>) -> Self {
        self.scripts[site.index()].lock().expect("fault plan poisoned").extend(actions);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Stops all injection (counts and scripts are preserved).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Resumes injection after [`FaultPlan::disarm`].
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Total injections fired so far.
    pub fn injected(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Injections fired at one site.
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        self.counts[site.index()].load(Ordering::Relaxed)
    }

    /// One injection decision at `site`: a scripted action if one is
    /// queued, else a rate roll over the configured kinds. `None` means
    /// "proceed normally".
    pub fn decide(&self, site: FaultSite) -> Option<FaultAction> {
        if !self.armed.load(Ordering::SeqCst) {
            return None;
        }
        if let Some(action) =
            self.scripts[site.index()].lock().expect("fault plan poisoned").pop_front()
        {
            self.counts[site.index()].fetch_add(1, Ordering::Relaxed);
            return Some(action);
        }
        let rates = &self.rates[site.index()];
        if rates.iter().all(|&r| r == 0.0) {
            return None;
        }
        let mut rng = self.rng.lock().expect("fault plan poisoned");
        for kind in FaultKind::ALL {
            let rate = rates[kind.index()];
            if rate > 0.0 && rng.next_f64() < rate {
                let action = match kind {
                    FaultKind::Delay => FaultAction::Delay(Duration::from_micros(
                        1 + rng.next_below(MAX_DELAY_MICROS),
                    )),
                    FaultKind::Partial => FaultAction::Partial,
                    FaultKind::Reset => FaultAction::Reset,
                    FaultKind::Corrupt => FaultAction::Corrupt(rng.next_u64()),
                    FaultKind::Panic => FaultAction::Panic,
                    FaultKind::Fail => FaultAction::Fail,
                };
                drop(rng);
                self.counts[site.index()].fetch_add(1, Ordering::Relaxed);
                return Some(action);
            }
        }
        None
    }
}

/// The handle threaded through server, executor, and registry. The default
/// ([`FaultInjector::none`]) holds no plan: `decide` is a branch on a
/// `None` and nothing else — production builds pay nothing for the layer.
#[derive(Clone, Default)]
pub struct FaultInjector(Option<Arc<FaultPlan>>);

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("FaultInjector(none)"),
            Some(plan) => write!(f, "FaultInjector({plan:?})"),
        }
    }
}

impl FaultInjector {
    /// The no-op injector (the production default).
    pub fn none() -> Self {
        Self(None)
    }

    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self(Some(Arc::new(plan)))
    }

    /// An injector sharing an existing plan.
    pub fn shared(plan: Arc<FaultPlan>) -> Self {
        Self(Some(plan))
    }

    /// The underlying plan, when one is installed.
    pub fn plan(&self) -> Option<&Arc<FaultPlan>> {
        self.0.as_ref()
    }

    /// One injection decision at `site` (always `None` without a plan).
    pub fn decide(&self, site: FaultSite) -> Option<FaultAction> {
        self.0.as_ref()?.decide(site)
    }
}

/// Flips one seeded bit in `bytes` (no-op on an empty slice). Used by
/// `FaultStream` for [`FaultAction::Corrupt`] and by the chaos harness's
/// hostile-client frame mutator.
pub fn flip_bit(bytes: &mut [u8], which: u64) {
    if bytes.is_empty() {
        return;
    }
    let bit = which % (bytes.len() as u64 * 8);
    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
}

/// An I/O wrapper injecting faults at one [`FaultSite`]. Wraps the raw
/// `TcpStream` (under the server's `BufReader`/`BufWriter`), so partial
/// reads/writes, stalls, resets, and corrupt bytes all happen at the same
/// place a hostile network would produce them.
pub(crate) struct FaultStream<S> {
    inner: S,
    injector: FaultInjector,
    site: FaultSite,
}

impl<S> FaultStream<S> {
    /// Wraps `inner`, injecting at `site`.
    pub(crate) fn new(inner: S, injector: FaultInjector, site: FaultSite) -> Self {
        Self { inner, injector, site }
    }

    fn reset_error() -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::ConnectionReset, "injected connection reset")
    }
}

impl<S: std::io::Read> std::io::Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.injector.decide(self.site) {
            None => self.inner.read(buf),
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                self.inner.read(buf)
            }
            Some(FaultAction::Partial) => {
                let cap = buf.len().min(1);
                self.inner.read(&mut buf[..cap])
            }
            Some(FaultAction::Reset) => Err(Self::reset_error()),
            Some(FaultAction::Corrupt(which)) => {
                let n = self.inner.read(buf)?;
                flip_bit(&mut buf[..n], which);
                Ok(n)
            }
            Some(FaultAction::Panic) => panic!("injected read panic"),
            Some(FaultAction::Fail) => Err(std::io::Error::other("injected read failure")),
        }
    }
}

impl<S: std::io::Write> std::io::Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.injector.decide(self.site) {
            None => self.inner.write(buf),
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                self.inner.write(buf)
            }
            Some(FaultAction::Partial) => {
                let cap = buf.len().min(1);
                self.inner.write(&buf[..cap])
            }
            Some(FaultAction::Reset) => Err(Self::reset_error()),
            Some(FaultAction::Corrupt(which)) => {
                let mut copy = buf.to_vec();
                flip_bit(&mut copy, which);
                self.inner.write(&copy).map(|n| n.min(buf.len()))
            }
            Some(FaultAction::Panic) => panic!("injected write panic"),
            Some(FaultAction::Fail) => Err(std::io::Error::other("injected write failure")),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
            let f = a.next_f64();
            assert!((0.0..1.0).contains(&f));
            b.next_f64();
            assert!(a.next_below(10) < 10);
            b.next_below(10);
        }
        assert!(SplitMix64::new(1).next_u64() != SplitMix64::new(2).next_u64());
    }

    #[test]
    fn none_injector_never_fires() {
        let inj = FaultInjector::none();
        assert!(inj.plan().is_none());
        for site in FaultSite::ALL {
            assert_eq!(inj.decide(site), None);
        }
    }

    #[test]
    fn scripted_actions_fire_in_order_then_stop() {
        let plan = FaultPlan::new(1).script(
            FaultSite::Exec,
            [FaultAction::Panic, FaultAction::Delay(Duration::from_micros(5))],
        );
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.decide(FaultSite::Exec), Some(FaultAction::Panic));
        assert!(matches!(inj.decide(FaultSite::Exec), Some(FaultAction::Delay(_))));
        assert_eq!(inj.decide(FaultSite::Exec), None);
        assert_eq!(inj.decide(FaultSite::ConnRead), None, "other sites untouched");
        assert_eq!(inj.plan().unwrap().injected_at(FaultSite::Exec), 2);
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never() {
        let plan = FaultPlan::new(3).with(FaultSite::ConnRead, FaultKind::Reset, 1.0);
        for _ in 0..20 {
            assert_eq!(plan.decide(FaultSite::ConnRead), Some(FaultAction::Reset));
            assert_eq!(plan.decide(FaultSite::ConnWrite), None);
        }
        assert_eq!(plan.injected(), 20);
    }

    #[test]
    fn disarm_pauses_injection_and_arm_resumes() {
        let plan = FaultPlan::new(4).with(FaultSite::Exec, FaultKind::Panic, 1.0);
        assert_eq!(plan.decide(FaultSite::Exec), Some(FaultAction::Panic));
        plan.disarm();
        assert!(!plan.armed.load(Ordering::SeqCst));
        assert_eq!(plan.decide(FaultSite::Exec), None);
        plan.arm();
        assert_eq!(plan.decide(FaultSite::Exec), Some(FaultAction::Panic));
    }

    #[test]
    fn same_seed_same_decisions() {
        let decisions = |seed: u64| {
            let plan = FaultPlan::from_seed(seed);
            (0..50).map(|_| plan.decide(FaultSite::ConnRead)).collect::<Vec<_>>()
        };
        assert_eq!(decisions(11), decisions(11));
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        let mut bytes = vec![0u8; 8];
        flip_bit(&mut bytes, 13);
        let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        flip_bit(&mut bytes, 13);
        assert!(bytes.iter().all(|&b| b == 0), "same bit flips back");
        flip_bit(&mut [], 5); // empty slice is a no-op, not a panic
    }

    #[test]
    fn fault_stream_injects_partial_reset_and_corrupt() {
        // Partial: only one byte of an 8-byte read completes.
        let plan = FaultPlan::new(5).script(FaultSite::ConnRead, [FaultAction::Partial]);
        let mut s =
            FaultStream::new(&[1u8, 2, 3, 4][..], FaultInjector::new(plan), FaultSite::ConnRead);
        let mut buf = [0u8; 4];
        assert_eq!(s.read(&mut buf).unwrap(), 1);

        // Reset: the read errors with ConnectionReset.
        let plan = FaultPlan::new(6).script(FaultSite::ConnRead, [FaultAction::Reset]);
        let mut s = FaultStream::new(&[1u8, 2][..], FaultInjector::new(plan), FaultSite::ConnRead);
        let err = s.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);

        // Corrupt on write: one bit differs from the source bytes.
        let plan = FaultPlan::new(7).script(FaultSite::ConnWrite, [FaultAction::Corrupt(3)]);
        let mut out = Vec::new();
        {
            let mut s = FaultStream::new(&mut out, FaultInjector::new(plan), FaultSite::ConnWrite);
            s.write_all(&[0u8, 0, 0]).unwrap();
            s.flush().unwrap();
        }
        let ones: u32 = out.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "{out:?}");
    }
}
