//! Randomized, seeded chaos runs against a live dls-serve instance.
//!
//! For every seed the harness drives four scenarios against a real
//! loopback server, each with a watchdog armed:
//!
//! 1. **io-chaos** — the [`FaultPlan::from_seed`] preset (seeded rates of
//!    read/write delays, partial I/O, connection resets, execution
//!    delays, and registry failures) under a retrying client. Every
//!    completed predict must be bit-exact; every failure must be a typed
//!    response or a typed client error.
//! 2. **exec-chaos** — scripted kernel panics walk one model down the
//!    degradation ladder (degrade → quarantine) while its sibling keeps
//!    serving bit-exact answers.
//! 3. **hostile-client** — seeded mutated frames, truncations, oversized
//!    length prefixes, and mid-request disconnects from raw sockets; the
//!    server must classify, answer typed refusals where the protocol
//!    allows, and keep serving everyone else.
//! 4. **brown-out** — queue pressure from a paused executor trips the
//!    brown-out controller: batch submissions shed with `Busy`, the
//!    degradation counters move, and service recovers after release.
//!
//! After every scenario the plan is disarmed and a **clean probe** must
//! pass: a fresh connection gets a bit-exact predict, a well-formed stats
//! JSON exposing the `faults` and `degradation` sections, and an answered
//! `Health` frame. Any hang trips the watchdog (exit 2); any assertion
//! failure aborts the run (non-zero exit).
//!
//! Usage: `repro_chaos [--seeds N] [--base-seed S] [--smoke]` (defaults:
//! 32 seeds from base 1; `--smoke` runs 8 unless `--seeds` says otherwise
//! and trims the per-scenario request counts for CI). The contract is
//! zero hangs, zero corrupted responses and clean probes on every seed.

use dls_core::json::JsonValue;
use dls_core::LayoutScheduler;
use dls_serve::fault::{flip_bit, FaultAction, FaultInjector, FaultPlan, FaultSite, SplitMix64};
use dls_serve::{
    ClientError, ExecutorConfig, ModelRegistry, PipelinedClient, PredictRequest, Request,
    RequestClass, Response, RetryClient, RetryPolicy, ServedModel, ServerConfig, ServerHandle,
};
use dls_sparse::SparseVec;
use dls_svm::{KernelKind, SvmModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 16;
/// Scenario heartbeat staleness that counts as a hang.
const WATCHDOG: Duration = Duration::from_secs(60);

fn chaos_model(salt: usize) -> SvmModel {
    let svs: Vec<SparseVec> = (0..6)
        .map(|i| {
            SparseVec::new(
                DIM,
                vec![i, i + 5, i + 10],
                vec![1.0 + (i + salt) as f64, -0.5 * i as f64 - 1.0, 0.25],
            )
        })
        .collect();
    SvmModel::new(
        KernelKind::Gaussian { gamma: 0.125 },
        svs,
        vec![1.0, -1.0, 0.5, -0.5, 0.75, -0.25],
        0.375,
    )
}

fn query(k: usize) -> SparseVec {
    SparseVec::new(DIM, vec![k % DIM], vec![1.0 + (k % 7) as f64 * 0.5])
}

fn serve(plan: Arc<FaultPlan>, executor: ExecutorConfig) -> ServerHandle {
    let scheduler = LayoutScheduler::new();
    let registry = ModelRegistry::new()
        .with(ServedModel::new("m", chaos_model(0), &scheduler))
        .with(ServedModel::new("n", chaos_model(3), &scheduler));
    let config = ServerConfig {
        executor: ExecutorConfig { fault: FaultInjector::shared(plan), ..executor },
        // Chaos runs want prompt failure classification, not long stalls.
        read_timeout: Duration::from_millis(250),
        write_timeout: Duration::from_millis(250),
        idle_timeout: Duration::from_secs(5),
        ..Default::default()
    };
    dls_serve::start(registry, LayoutScheduler::new(), config).expect("bind loopback")
}

fn retry_client(addr: std::net::SocketAddr, seed: u64) -> RetryClient {
    let policy = RetryPolicy {
        max_attempts: 6,
        base_backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(5),
        retry_budget: 10_000,
        retry_busy: true,
        seed,
    };
    let mut c = RetryClient::with_policy(addr.to_string(), policy);
    c.set_read_timeout(Some(Duration::from_millis(400)));
    c
}

/// Per-run outcome tallies, printed in the summary line.
#[derive(Default)]
struct Tally {
    ok: u64,
    refused: u64,
    typed_client_errors: u64,
    injected: u64,
}

/// Asserts the service is fully healthy with injection off: bit-exact
/// predict, parseable stats with the fault/degradation sections, and an
/// answered Health frame.
fn clean_probe(addr: std::net::SocketAddr, stage: &str) {
    let model = chaos_model(3); // "n" is never panicked by any scenario
    let mut c =
        PipelinedClient::connect(addr).unwrap_or_else(|e| panic!("{stage}: reconnect: {e}"));
    c.set_read_timeout(Some(Duration::from_secs(5))).expect("probe read timeout");
    let q = query(11);
    match c.send(&PredictRequest::builder("n").vector(q.clone()).build()) {
        Ok(Response::Predictions(values)) => {
            assert_eq!(
                values[0].to_bits(),
                model.decision_function(&q).to_bits(),
                "{stage}: clean probe served a corrupted value"
            );
        }
        other => panic!("{stage}: clean probe got {other:?}"),
    }
    let stats = c.stats().unwrap_or_else(|e| panic!("{stage}: stats: {e}"));
    let doc = dls_core::json::parse(&stats)
        .unwrap_or_else(|e| panic!("{stage}: stats JSON invalid: {e}"));
    for section in ["faults", "degradation"] {
        assert!(doc.get(section).is_some(), "{stage}: stats JSON lacks the {section:?} section");
    }
    match c.request(&Request::Health) {
        Ok(Response::Health(json)) => {
            let doc = dls_core::json::parse(&json)
                .unwrap_or_else(|e| panic!("{stage}: health JSON invalid: {e}"));
            assert!(doc.get("status").is_some(), "{stage}: health JSON lacks status");
        }
        other => panic!("{stage}: health got {other:?}"),
    }
}

/// Scenario 1: seeded fault rates under a retrying client.
fn io_chaos(seed: u64, requests: usize, tally: &mut Tally) {
    let plan = Arc::new(FaultPlan::from_seed(seed));
    let handle = serve(Arc::clone(&plan), ExecutorConfig::default());
    let addr = handle.local_addr();
    let model = chaos_model(0);
    let mut client = retry_client(addr, seed ^ 0xC11E);

    for k in 0..requests {
        let q = query(k);
        let req = Request::from(&PredictRequest::builder("m").vector(q.clone()).build());
        match client.request(&req) {
            Ok(Response::Predictions(values)) => {
                // The io-chaos preset never corrupts payloads, so every
                // completed answer must be bit-exact.
                assert_eq!(
                    values[0].to_bits(),
                    model.decision_function(&q).to_bits(),
                    "seed {seed}: corrupted response at request {k}"
                );
                tally.ok += 1;
            }
            Ok(Response::Busy | Response::TimedOut) => tally.refused += 1,
            Ok(Response::Error(msg)) => {
                assert!(
                    msg.contains("registry temporarily unavailable"),
                    "seed {seed}: unexpected typed error {msg:?}"
                );
                tally.refused += 1;
            }
            Ok(other) => panic!("seed {seed}: unexpected response {other:?}"),
            Err(e) => {
                // Exhausted retries under heavy fault rates are legal —
                // but only as *typed* errors.
                assert!(
                    matches!(
                        e,
                        ClientError::ConnectionLost(_)
                            | ClientError::Timeout
                            | ClientError::Protocol(_)
                    ),
                    "seed {seed}: untyped failure {e:?}"
                );
                tally.typed_client_errors += 1;
            }
        }
    }
    tally.injected += plan.injected();
    plan.disarm();
    drop(client); // release the connection so shutdown's drain is instant
    clean_probe(addr, &format!("seed {seed} io-chaos"));
    handle.shutdown();
}

/// Scenario 2: scripted exec panics walk the ladder; the sibling stays
/// bit-exact throughout.
fn exec_chaos(seed: u64, tally: &mut Tally) {
    let script = vec![FaultAction::Panic; 3];
    let plan = Arc::new(FaultPlan::new(seed).script(FaultSite::Exec, script));
    let handle = serve(Arc::clone(&plan), ExecutorConfig::default());
    let addr = handle.local_addr();
    let mut c = PipelinedClient::connect(addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");

    for k in 0..3 {
        match c.send(&PredictRequest::builder("m").vector(query(k)).build()) {
            Ok(Response::Error(msg)) => {
                assert!(msg.contains("panicked"), "seed {seed}: panic {k} answered {msg:?}")
            }
            other => panic!("seed {seed}: panic {k} got {other:?}"),
        }
        tally.refused += 1;
    }
    match c.send(&PredictRequest::builder("m").vector(query(9)).build()) {
        Ok(Response::Error(msg)) => {
            assert!(msg.contains("quarantined"), "seed {seed}: expected quarantine, got {msg:?}")
        }
        other => panic!("seed {seed}: quarantine refusal got {other:?}"),
    }
    let sibling = chaos_model(3);
    match c.send(&PredictRequest::builder("n").vector(query(5)).build()) {
        Ok(Response::Predictions(values)) => {
            assert_eq!(
                values[0].to_bits(),
                sibling.decision_function(&query(5)).to_bits(),
                "seed {seed}: sibling corrupted during quarantine"
            );
            tally.ok += 1;
        }
        other => panic!("seed {seed}: sibling got {other:?}"),
    }
    tally.injected += plan.injected();
    plan.disarm();
    drop(c);
    clean_probe(addr, &format!("seed {seed} exec-chaos"));
    handle.shutdown();
}

/// Scenario 3: raw hostile frames — mutations of a valid request, lying
/// prefixes, and disconnects — must never take the service down.
fn hostile_client(seed: u64, frames: usize, tally: &mut Tally) {
    use std::io::{Read, Write};
    let plan = Arc::new(FaultPlan::new(seed));
    plan.disarm(); // this scenario's hostility is real bytes, not injection
    let handle = serve(Arc::clone(&plan), ExecutorConfig::default());
    let addr = handle.local_addr();
    let mut rng = SplitMix64::new(seed ^ 0x0571_1E11);

    let valid = Request::from(&PredictRequest::builder("m").vector(query(1)).build());
    let valid = dls_serve::encode_request_framed(&valid, dls_serve::PROTO_VERSION, 0);
    for _ in 0..frames {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect hostile");
        stream.set_read_timeout(Some(Duration::from_millis(500))).ok();
        match rng.next_below(4) {
            0 => {
                // Mutated payload under an honest prefix: typed protocol
                // error (or an accidentally-valid request's answer).
                let mut payload = valid.clone();
                for _ in 0..1 + rng.next_below(8) {
                    flip_bit(&mut payload, rng.next_u64());
                }
                let _ = stream.write_all(&(payload.len() as u32).to_le_bytes());
                let _ = stream.write_all(&payload);
                let _ = stream.flush();
                let mut buf = [0u8; 256];
                let _ = stream.read(&mut buf); // any reply or close is fine
            }
            1 => {
                // A length prefix past MAX_FRAME_LEN: the server must
                // answer a typed refusal before closing.
                let lie = (dls_serve::MAX_FRAME_LEN as u32)
                    .saturating_add(1 + rng.next_u64() as u32 % 1024);
                let _ = stream.write_all(&lie.to_le_bytes());
                let _ = stream.flush();
                let mut reader = std::io::BufReader::new(&stream);
                match dls_serve::proto::read_frame(&mut reader) {
                    Ok(Some(frame)) => {
                        let (_, _, resp) = dls_serve::decode_response_framed(&frame)
                            .unwrap_or_else(|e| panic!("seed {seed}: refusal undecodable: {e}"));
                        assert!(
                            matches!(&resp, Response::Error(m) if m.contains("exceeds")),
                            "seed {seed}: oversized prefix answered {resp:?}"
                        );
                    }
                    other => panic!(
                        "seed {seed}: oversized prefix got {other:?} instead of a typed refusal"
                    ),
                }
            }
            2 => {
                // Truncated frame, then disconnect.
                let keep = rng.next_below(valid.len() as u64) as usize;
                let _ = stream.write_all(&(valid.len() as u32).to_le_bytes());
                let _ = stream.write_all(&valid[..keep]);
                let _ = stream.flush();
            }
            _ => {
                // Pure garbage, then disconnect.
                let junk: Vec<u8> = (0..rng.next_below(64)).map(|_| rng.next_u64() as u8).collect();
                let _ = stream.write_all(&junk);
                let _ = stream.flush();
            }
        }
        drop(stream);
        tally.refused += 1;
    }

    // Everyone else is unaffected, live, and bit-exact.
    clean_probe(addr, &format!("seed {seed} hostile-client"));
    tally.ok += 1;
    handle.shutdown();
}

/// Scenario 4: queue pressure trips the brown-out controller; batch work
/// sheds, counters move, and the service recovers once released.
fn brownout_chaos(seed: u64, tally: &mut Tally) {
    let plan = Arc::new(FaultPlan::new(seed));
    plan.disarm();
    let executor = ExecutorConfig { queue_capacity: 8, ..Default::default() };
    let handle = serve(Arc::clone(&plan), executor);
    let addr = handle.local_addr();
    let exec = handle.executor();

    // Park the workers and pile up interactive work to the 0.75 pressure
    // threshold: 6 of 8 slots.
    exec.pause(true);
    let mut queued = Vec::new();
    for k in 0..6 {
        match exec.submit_predict("m", vec![query(k)], RequestClass::Interactive, 0, 0) {
            Ok(rx) => queued.push(rx),
            Err(resp) => panic!("seed {seed}: interactive admission refused early: {resp:?}"),
        }
    }
    // The pressure re-check at submit engages the brown-out; batch work
    // now sheds with Busy.
    match exec.submit_predict("m", vec![query(9)], RequestClass::Batch, 0, 0) {
        Err(Response::Busy) => tally.refused += 1,
        other => panic!("seed {seed}: batch submission under brown-out got {other:?}"),
    }
    assert!(exec.is_browned_out(), "seed {seed}: controller did not engage under pressure");

    // Release: the parked work drains and the service answers again.
    exec.pause(false);
    for rx in queued {
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Response::Predictions(_) | Response::TimedOut) => tally.ok += 1,
            other => panic!("seed {seed}: parked job resolved to {other:?}"),
        }
    }
    // The ledger recorded the episode.
    let mut c = PipelinedClient::connect(addr).expect("connect");
    let doc = dls_core::json::parse(&c.stats().expect("stats")).expect("valid stats json");
    let degrade = |key: &str| {
        doc.get("degradation").and_then(|d| d.get(key)).and_then(JsonValue::as_u64).unwrap_or(0)
    };
    assert!(degrade("brownout_entries") >= 1, "seed {seed}: no brown-out entry recorded");
    assert!(degrade("batch_shed") >= 1, "seed {seed}: no batch shed recorded");
    drop(c);
    clean_probe(addr, &format!("seed {seed} brown-out"));
    handle.shutdown();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    let seeds: u64 = flag("--seeds").unwrap_or(if smoke { 8 } else { 32 });
    let base_seed: u64 = flag("--base-seed").unwrap_or(1);
    let io_requests = if smoke { 16 } else { 40 };
    let hostile_frames = if smoke { 8 } else { 16 };

    // Injected panics are part of the plan; keep their traces out of the
    // log so a *real* panic stands out (and still aborts the run).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<&str>().copied().unwrap_or_default();
        if msg.contains("injected") {
            return;
        }
        default_hook(info);
    }));

    // The watchdog: scenarios must keep beating or the whole run is
    // declared hung. Exit code 2 distinguishes hangs from assertions.
    let heartbeat = Arc::new(AtomicU64::new(0));
    {
        let heartbeat = Arc::clone(&heartbeat);
        std::thread::spawn(move || {
            let mut last = heartbeat.load(Ordering::SeqCst);
            let mut last_change = Instant::now();
            loop {
                std::thread::sleep(Duration::from_millis(500));
                let now = heartbeat.load(Ordering::SeqCst);
                if now != last {
                    last = now;
                    last_change = Instant::now();
                } else if last_change.elapsed() > WATCHDOG {
                    eprintln!("WATCHDOG: chaos harness hung for {WATCHDOG:?}; aborting");
                    std::process::exit(2);
                }
            }
        });
    }

    println!(
        "# repro_chaos: {seeds} seeds from {base_seed} ({}), \
         watchdog {WATCHDOG:?}",
        if smoke { "smoke" } else { "full" }
    );
    let started = Instant::now();
    let mut total = Tally::default();
    for i in 0..seeds {
        let seed = base_seed + i;
        let mut tally = Tally::default();
        let mut timing = String::new();
        for (name, run) in [
            (
                "io",
                &mut (|t: &mut Tally| io_chaos(seed, io_requests, t)) as &mut dyn FnMut(&mut Tally),
            ),
            ("exec", &mut |t: &mut Tally| exec_chaos(seed, t)),
            ("hostile", &mut |t: &mut Tally| hostile_client(seed, hostile_frames, t)),
            ("brownout", &mut |t: &mut Tally| brownout_chaos(seed, t)),
        ] {
            let at = Instant::now();
            run(&mut tally);
            timing.push_str(&format!(" {name}={:.2}s", at.elapsed().as_secs_f64()));
            heartbeat.fetch_add(1, Ordering::SeqCst);
        }
        println!(
            "# seed {seed}: ok={} refused={} typed_errors={} injected={} |{timing}",
            tally.ok, tally.refused, tally.typed_client_errors, tally.injected
        );
        total.ok += tally.ok;
        total.refused += tally.refused;
        total.typed_client_errors += tally.typed_client_errors;
        total.injected += tally.injected;
    }
    println!(
        "# chaos OK: {seeds} seeds in {:.1}s — {} bit-exact answers, {} typed refusals, \
         {} typed client errors, {} injected faults, zero hangs, zero corrupted responses",
        started.elapsed().as_secs_f64(),
        total.ok,
        total.refused,
        total.typed_client_errors,
        total.injected
    );
}
