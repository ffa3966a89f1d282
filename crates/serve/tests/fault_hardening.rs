//! Failure-path integration tests: mutation-fuzzed decoders, clients
//! dying mid-request, scripted kernel panics walking the degradation
//! ladder over live TCP, idle-connection reaping, and the retry client
//! recovering from injected connection resets.
//!
//! Determinism strategy: scripted [`FaultPlan`]s (explicit per-site action
//! queues) instead of rate rolls, armed only for the phase under test, so
//! every injected fault lands on a known operation.

mod common;

use common::{query, test_model};
use dls_core::LayoutScheduler;
use dls_serve::fault::{flip_bit, FaultAction, FaultInjector, FaultPlan, FaultSite, SplitMix64};
use dls_serve::proto::{
    decode_request_framed, decode_response_framed, encode_request_framed, encode_response_framed,
    read_frame, write_frame, Request, RequestClass, Response, PROTO_VERSION,
};
use dls_serve::server::MAX_CONNECTIONS;
use dls_serve::{
    start, ClientError, ExecutorConfig, ModelRegistry, PipelinedClient, PredictRequest,
    RetryClient, RetryPolicy, ServedModel, ServerConfig, ServerHandle,
};
use dls_sparse::SparseVec;
use proptest::prelude::*;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serves models "m" and "n" with the given fault plan and timeouts.
fn serve_faulty(plan: Arc<FaultPlan>, config: ServerConfig) -> ServerHandle {
    let scheduler = LayoutScheduler::new();
    let registry = ModelRegistry::new()
        .with(ServedModel::new("m", test_model(0), &scheduler))
        .with(ServedModel::new("n", test_model(3), &scheduler));
    let config = ServerConfig {
        executor: ExecutorConfig { fault: FaultInjector::shared(plan), ..config.executor },
        ..config
    };
    start(registry, LayoutScheduler::new(), config).expect("bind loopback")
}

fn predict_one(c: &mut PipelinedClient, model: &str, seed: usize) -> Response {
    c.send(&PredictRequest::builder(model).vector(query(seed)).build()).expect("predict")
}

/// Polls the stats JSON until `probe` extracts a satisfied value.
fn wait_for_stat(addr: SocketAddr, what: &str, probe: impl Fn(&dls_core::json::JsonValue) -> bool) {
    let mut stats = PipelinedClient::connect(addr).expect("connect stats");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let doc = dls_core::json::parse(&stats.stats().expect("stats")).expect("valid stats json");
        if probe(&doc) {
            return;
        }
        assert!(Instant::now() < deadline, "stats never showed {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn fault_counter(doc: &dls_core::json::JsonValue, key: &str) -> u64 {
    doc.get("faults").and_then(|f| f.get(key)).and_then(|v| v.as_u64()).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Satellite: mutation-fuzz the decoders. Byte flips, truncations, and
// splices of valid frames must never panic and never succeed *and* panic
// downstream — every failure is a typed ProtoError.
// ---------------------------------------------------------------------------

fn arb_request() -> impl Strategy<Value = Request> {
    let vec = (1usize..16).prop_map(|d| SparseVec::new(d, vec![d - 1], vec![0.5]));
    prop_oneof![
        (proptest::collection::vec(vec, 0..4), 0u32..100_000).prop_map(|(vectors, slo_us)| {
            Request::Predict {
                model: "m".to_string(),
                deadline_ms: 0,
                class: RequestClass::Interactive,
                slo_us,
                vectors,
            }
        }),
        Just(Request::Stats),
        Just(Request::Health),
        Just(Request::Shutdown),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        proptest::collection::vec(-100i32..100, 0..8)
            .prop_map(|vs| Response::Predictions(vs.into_iter().map(f64::from).collect())),
        Just(Response::Busy),
        Just(Response::Health("{\"status\":\"ok\"}".to_string())),
        (0u32..1000).prop_map(|i| Response::Error(format!("e{i}"))),
    ]
}

/// Applies `rounds` seeded mutations: bit flips, truncations, random
/// splices, and prefix/suffix swaps.
fn mutate(payload: &mut Vec<u8>, seed: u64, rounds: u32) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..rounds {
        match rng.next_below(4) {
            0 => flip_bit(payload, rng.next_u64()),
            1 => {
                let keep = rng.next_below(payload.len() as u64 + 1) as usize;
                payload.truncate(keep);
            }
            2 => {
                let at = rng.next_below(payload.len() as u64 + 1) as usize;
                payload.insert(at, rng.next_u64() as u8);
            }
            _ => {
                if !payload.is_empty() {
                    let at = rng.next_below(payload.len() as u64) as usize;
                    payload[at] = rng.next_u64() as u8;
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn mutated_request_frames_never_panic_the_decoder(
        req in arb_request(),
        seed in 0u64..u64::MAX,
        rounds in 1u32..12,
    ) {
        let mut payload = encode_request_framed(&req, PROTO_VERSION, seed);
        mutate(&mut payload, seed, rounds);
        // Must return (typed error or an accidentally-valid message) —
        // a panic fails the test harness itself.
        let _ = decode_request_framed(&payload);
    }

    #[test]
    fn mutated_response_frames_never_panic_the_decoder(
        resp in arb_response(),
        seed in 0u64..u64::MAX,
        rounds in 1u32..12,
    ) {
        let mut payload = encode_response_framed(&resp, PROTO_VERSION, seed);
        mutate(&mut payload, seed, rounds);
        let _ = decode_response_framed(&payload);
    }

    #[test]
    fn mutated_byte_streams_never_panic_read_frame(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        // Arbitrary bytes as a framed stream: every outcome is Ok(None)
        // (clean EOF), Ok(Some) (a small frame), or a typed io error.
        let mut r = &bytes[..];
        while let Ok(Some(_)) = read_frame(&mut r) {}
    }
}

// ---------------------------------------------------------------------------
// Satellite: a client dying mid-request must not take the server (or any
// other client's request) with it.
// ---------------------------------------------------------------------------

#[test]
fn clients_dying_mid_request_leave_others_served() {
    let plan = Arc::new(FaultPlan::new(1));
    plan.disarm(); // plumbing only; this test's faults are real sockets
    let handle = serve_faulty(Arc::clone(&plan), ServerConfig::default());
    let addr = handle.local_addr();
    let model = test_model(0);

    // Victim 1: a complete request lands in the queue, then the socket
    // closes before the reply can be written.
    handle.executor().pause(true);
    {
        let mut raw = TcpStream::connect(addr).expect("connect victim");
        let req = Request::from(&PredictRequest::builder("m").vector(query(1)).build());
        write_frame(&mut raw, &encode_request_framed(&req, PROTO_VERSION, 1)).expect("frame");
        // Give the server time to enqueue it before the drop closes us.
        std::thread::sleep(Duration::from_millis(50));
    }

    // Victim 2: half a frame (the prefix promises 100 bytes, 10 arrive),
    // then the socket dies — the server sees EOF mid-frame.
    {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(&100u32.to_le_bytes()).expect("prefix");
        raw.write_all(&[0u8; 10]).expect("partial body");
        raw.flush().ok();
    }
    handle.executor().pause(false);

    // A well-behaved client is completely unaffected.
    let mut c = PipelinedClient::connect(addr).expect("connect survivor");
    match predict_one(&mut c, "m", 7) {
        Response::Predictions(values) => {
            assert_eq!(values[0].to_bits(), model.decision_function(&query(7)).to_bits());
        }
        other => panic!("survivor got {other:?}"),
    }

    // Both deaths were classified, not hung: the reset counter moved.
    wait_for_stat(addr, "conn_resets >= 1", |doc| fault_counter(doc, "conn_resets") >= 1);
    drop(c);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Tentpole: scripted kernel panics over live TCP walk the health ladder —
// degrade, quarantine, typed refusals — while the sibling model keeps
// serving bit-exact answers.
// ---------------------------------------------------------------------------

#[test]
fn scripted_exec_panics_degrade_then_quarantine_over_the_wire() {
    let plan = Arc::new(
        FaultPlan::new(2)
            .script(FaultSite::Exec, [FaultAction::Panic, FaultAction::Panic, FaultAction::Panic]),
    );
    let handle = serve_faulty(Arc::clone(&plan), ServerConfig::default());
    let addr = handle.local_addr();
    let mut c = PipelinedClient::connect(addr).expect("connect");

    // Three sequential predicts, three scripted panics: each answers a
    // typed error (never a hang, never a dead worker).
    for i in 0..3 {
        match predict_one(&mut c, "m", i) {
            Response::Error(msg) => {
                assert!(msg.contains("panicked"), "panic {i}: unexpected message {msg:?}")
            }
            other => panic!("panic {i}: unexpected response {other:?}"),
        }
    }
    assert_eq!(plan.injected_at(FaultSite::Exec), 3);

    // The fourth submission is refused at admission: quarantined.
    match predict_one(&mut c, "m", 9) {
        Response::Error(msg) => assert!(msg.contains("quarantined"), "{msg}"),
        other => panic!("expected quarantine refusal, got {other:?}"),
    }

    // The sibling model is untouched and bit-exact.
    let sibling = test_model(3);
    match predict_one(&mut c, "n", 5) {
        Response::Predictions(values) => {
            assert_eq!(values[0].to_bits(), sibling.decision_function(&query(5)).to_bits());
        }
        other => panic!("sibling got {other:?}"),
    }

    // The health endpoint reports the ladder.
    let health = match c.request(&Request::Health).expect("health") {
        Response::Health(json) => json,
        other => panic!("expected Health, got {other:?}"),
    };
    let doc = dls_core::json::parse(&health).expect("valid health json");
    assert_eq!(doc.get("status").and_then(|s| s.as_str()), Some("degraded"));
    let models = doc.get("models").and_then(|m| m.as_arr()).expect("models array");
    let rung = |name: &str| {
        models
            .iter()
            .find(|m| m.get("model").and_then(|n| n.as_str()) == Some(name))
            .and_then(|m| m.get("health"))
            .and_then(|h| h.as_str())
            .map(str::to_string)
    };
    assert_eq!(rung("m").as_deref(), Some("quarantined"));
    assert_eq!(rung("n").as_deref(), Some("healthy"));

    // And the stats JSON carries the event counters.
    let doc = dls_core::json::parse(&c.stats().expect("stats")).expect("valid stats json");
    assert_eq!(fault_counter(&doc, "exec_panics"), 3);
    let degraded =
        doc.get("degradation").and_then(|d| d.get("models_quarantined")).and_then(|v| v.as_u64());
    assert_eq!(degraded, Some(1));
    drop(c);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Tentpole: idle connections self-reap; a reaped peer gets a typed
// ConnectionLost from the client, and the server counts the reap.
// ---------------------------------------------------------------------------

#[test]
fn idle_connections_are_reaped_and_surface_as_connection_lost() {
    let plan = Arc::new(FaultPlan::new(3));
    plan.disarm();
    let config = ServerConfig { idle_timeout: Duration::from_millis(100), ..Default::default() };
    let handle = serve_faulty(Arc::clone(&plan), config);
    let addr = handle.local_addr();

    let mut idler = PipelinedClient::connect(addr).expect("connect idler");
    assert!(matches!(predict_one(&mut idler, "m", 1), Response::Predictions(_)));

    // Sit idle well past the timeout; the server reaps at the frame
    // boundary (nothing in flight, so closing is safe).
    std::thread::sleep(Duration::from_millis(400));
    wait_for_stat(addr, "conn_idle_reaped >= 1", |doc| fault_counter(doc, "conn_idle_reaped") >= 1);

    // The reaped client's next request fails typed, not hung.
    let req = Request::from(&PredictRequest::builder("m").vector(query(2)).build());
    match idler.try_request(&req) {
        Err(ClientError::ConnectionLost(_)) => {}
        other => panic!("expected ConnectionLost after reap, got {other:?}"),
    }

    // Fresh connections serve as normal.
    let mut c = PipelinedClient::connect(addr).expect("reconnect");
    assert!(matches!(predict_one(&mut c, "m", 3), Response::Predictions(_)));
    drop(c);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// The connection ceiling: a connection past MAX_CONNECTIONS is closed at
// accept, which the client sees as a typed, retryable ConnectionLost. The
// connections already open keep serving, and the refusal holds no slot,
// so shutdown is not kept waiting by it.
// ---------------------------------------------------------------------------

#[test]
fn a_connection_past_the_ceiling_is_refused_typed_and_holds_no_slot() {
    let plan = Arc::new(FaultPlan::new(8));
    plan.disarm();
    let handle = serve_faulty(plan, ServerConfig::default());
    let addr = handle.local_addr();
    // Raw sockets keep the test at one descriptor per held connection.
    let health = encode_request_framed(&Request::Health, PROTO_VERSION, 1);
    let mut held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("connect under the ceiling"))
        .collect();
    // An answer on every one proves each holds a slot before the next
    // connection arrives.
    for raw in &mut held {
        raw.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        assert!(matches!(raw_exchange(raw, &health), (_, 1, Response::Health(_))));
    }

    let mut extra = PipelinedClient::connect(addr).expect("the kernel completes the handshake");
    extra.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    match extra.try_request(&Request::Health) {
        Err(e @ ClientError::ConnectionLost(_)) => assert!(e.is_retryable()),
        other => panic!("expected ConnectionLost past the ceiling, got {other:?}"),
    }

    // The connections under the ceiling still serve, and the refusal is
    // counted.
    let predict = Request::from(&PredictRequest::builder("m").vector(query(2)).build());
    let predict = encode_request_framed(&predict, PROTO_VERSION, 2);
    let last = held.len() - 1;
    for i in [0, last] {
        assert!(matches!(raw_exchange(&mut held[i], &predict), (_, 2, Response::Predictions(_))));
    }
    let stats = encode_request_framed(&Request::Stats, PROTO_VERSION, 3);
    match raw_exchange(&mut held[0], &stats) {
        (_, 3, Response::Stats(json)) => {
            let doc = dls_core::json::parse(&json).expect("valid stats json");
            assert_eq!(fault_counter(&doc, "conn_refused"), 1);
        }
        other => panic!("stats answered {other:?}"),
    }

    // Only the held connections had slots: once they close, the drain
    // returns without waiting out its 5 s window.
    drop(held);
    let started = Instant::now();
    handle.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "shutdown took {:?}", started.elapsed());
}

/// A zero budget can mean nothing but "close everything" (every connection
/// would be reaped or cut after its first quiet tick), so `start` refuses
/// it.
#[test]
fn zero_time_budgets_are_refused() {
    for config in [
        ServerConfig { read_timeout: Duration::ZERO, ..Default::default() },
        ServerConfig { write_timeout: Duration::ZERO, ..Default::default() },
        ServerConfig { idle_timeout: Duration::ZERO, ..Default::default() },
    ] {
        let err = start(ModelRegistry::new(), LayoutScheduler::new(), config).err();
        assert_eq!(err.map(|e| e.kind()), Some(std::io::ErrorKind::InvalidInput));
    }
}

// ---------------------------------------------------------------------------
// Tentpole + satellite: scripted connection resets. The plain client
// surfaces a typed ConnectionLost; the retry client reconnects and
// completes the same request bit-exactly.
// ---------------------------------------------------------------------------

#[test]
fn retry_client_recovers_from_scripted_resets_where_plain_client_errors() {
    let plan = Arc::new(
        FaultPlan::new(4).script(FaultSite::ConnRead, [FaultAction::Reset, FaultAction::Reset]),
    );
    plan.disarm();
    let handle = serve_faulty(Arc::clone(&plan), ServerConfig::default());
    let addr = handle.local_addr();
    let model = test_model(0);
    let req = Request::from(&PredictRequest::builder("m").vector(query(4)).build());

    // Baseline with injection off: the request serves.
    let mut plain = PipelinedClient::connect(addr).expect("connect plain");
    assert!(matches!(plain.try_request(&req), Ok(Response::Predictions(_))));

    // Arm: the server's next read on this connection takes the scripted
    // reset, and the plain client sees a typed, retryable ConnectionLost
    // — the PR-6 client surfaced a raw io::Error here. The handler's
    // in-flight blocking read made its injection decision before arming,
    // so wait out one socket tick to guarantee the *next* read (which
    // pops the script) is the one that sees our frame.
    plan.arm();
    std::thread::sleep(Duration::from_millis(150));
    let err = plain.try_request(&req).expect_err("reset should fail the plain client");
    assert!(matches!(err, ClientError::ConnectionLost(_)), "got {err:?}");
    assert!(err.is_retryable());
    drop(plain);

    // The retry client eats the second scripted reset, reconnects after a
    // jittered backoff, and completes the identical request.
    let policy = RetryPolicy {
        base_backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(2),
        ..Default::default()
    };
    let mut retry = RetryClient::with_policy(addr.to_string(), policy);
    match retry.request(&req).expect("retry client should recover") {
        Response::Predictions(values) => {
            assert_eq!(values[0].to_bits(), model.decision_function(&query(4)).to_bits());
        }
        other => panic!("retry client got {other:?}"),
    }
    assert!(retry.retries_left() < RetryPolicy::default().retry_budget, "no retry was spent");
    assert_eq!(plan.injected_at(FaultSite::ConnRead), 2, "both scripted resets fired");

    // Injection spent: the service is fully healthy again.
    plan.disarm();
    wait_for_stat(addr, "conn_resets >= 2", |doc| fault_counter(doc, "conn_resets") >= 2);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Tentpole: a scripted corrupted response write surfaces as a typed
// client error (never silently-wrong data, never a hang).
// ---------------------------------------------------------------------------

#[test]
fn corrupted_response_writes_fail_typed_on_the_client() {
    // A response frame is `u32 len | u8 version | u64 frame_id | …` and
    // leaves in one write. Bit 0 lands in the length prefix, so the
    // client's framing desynchronises in a detectable way; bit 40 is the
    // frame id's low bit, so the reply to frame 1 arrives intact — as
    // frame 0.
    for bit in [0, 40] {
        let plan =
            Arc::new(FaultPlan::new(5).script(FaultSite::ConnWrite, [FaultAction::Corrupt(bit)]));
        let handle = serve_faulty(Arc::clone(&plan), ServerConfig::default());
        let addr = handle.local_addr();

        let mut c = PipelinedClient::connect(addr).expect("connect");
        c.set_read_timeout(Some(Duration::from_millis(500))).expect("read timeout");
        let req = Request::from(&PredictRequest::builder("m").vector(query(6)).build());
        match (bit, c.try_request(&req)) {
            // A shortened prefix decodes garbage (Protocol), a lengthened
            // one starves the read (Timeout), a wildly large one trips the
            // frame bound or closes — all typed, none silent.
            (0, Err(ClientError::Protocol(_) | ClientError::Timeout)) => {}
            (0, Err(ClientError::FrameTooLarge(_) | ClientError::ConnectionLost(_))) => {}
            // A reply under an id that is not in flight is refused at
            // once; stashing it and reading on would end in Timeout.
            (40, Err(ClientError::Protocol(msg))) => assert!(msg.contains("frame 0"), "{msg}"),
            (_, other) => panic!("corrupted bit {bit} produced {other:?}"),
        }
        assert_eq!(plan.injected_at(FaultSite::ConnWrite), 1);
        if bit == 40 {
            // The server kept the connection, and answers the next
            // request under its own id.
            assert!(matches!(c.try_request(&req), Ok(Response::Predictions(_))));
        }

        // The service itself is unharmed.
        plan.disarm();
        let mut fresh = PipelinedClient::connect(addr).expect("reconnect");
        assert!(matches!(predict_one(&mut fresh, "m", 6), Response::Predictions(_)));
        drop((c, fresh));
        handle.shutdown();
    }
}

// ---------------------------------------------------------------------------
// One wire format, and every refusal names its request: a frame of another
// protocol version or with an undecodable body is answered typed, counted,
// and leaves the connection serving.
// ---------------------------------------------------------------------------

/// One frame out, one frame back, on a raw socket.
fn raw_exchange(raw: &mut TcpStream, payload: &[u8]) -> (u8, u64, Response) {
    write_frame(raw, payload).expect("send frame");
    let reply = read_frame(raw).expect("read reply").expect("server closed the connection");
    decode_response_framed(&reply).expect("reply decodes")
}

#[test]
fn refused_frames_are_answered_under_their_own_id_and_the_connection_survives() {
    let mut bad_tag = encode_request_framed(&Request::Stats, PROTO_VERSION, 7);
    *bad_tag.last_mut().expect("tag byte") = 99;
    let predict = Request::from(&PredictRequest::builder("m").vector(query(1)).build());
    let mut cut_short = encode_request_framed(&predict, PROTO_VERSION, 8);
    cut_short.truncate(cut_short.len() - 5);
    // (frame, the id its refusal carries, what the refusal says).
    // `version | tag` with no frame id is what a v1/v2 client sent for
    // Stats; a header cut inside the frame id leaves no id to echo.
    let table: [(&[u8], u64, &str); 7] = [
        (&[0, 3], 0, "unsupported protocol version 0"),
        (&[1, 3], 0, "unsupported protocol version 1"),
        (&[2, 3], 0, "unsupported protocol version 2"),
        (&[4, 3], 0, "unsupported protocol version 4"),
        (&bad_tag[..8], 0, "truncated frame"),
        (&bad_tag, 7, "unknown message tag 99"),
        (&cut_short, 8, "truncated frame"),
    ];
    let handle = serve_faulty(Arc::new(FaultPlan::new(6)), ServerConfig::default());
    let mut raw = TcpStream::connect(handle.local_addr()).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    for (refused, (frame, frame_id, why)) in table.iter().enumerate() {
        match raw_exchange(&mut raw, frame) {
            (PROTO_VERSION, id, Response::Error(msg)) if id == *frame_id => {
                assert!(msg.contains(why), "{msg:?} does not say {why:?}")
            }
            other => panic!("{why}: answered {other:?}"),
        }
        // The same connection still serves a good frame, and the refusal
        // was counted exactly once.
        let stats_id = 100 + refused as u64;
        let stats = encode_request_framed(&Request::Stats, PROTO_VERSION, stats_id);
        match raw_exchange(&mut raw, &stats) {
            (PROTO_VERSION, id, Response::Stats(json)) if id == stats_id => {
                let doc = dls_core::json::parse(&json).expect("valid stats json");
                let counted = fault_counter(&doc, "protocol_errors");
                assert_eq!(counted, refused as u64 + 1, "after {why}");
            }
            other => panic!("good Stats frame after {why} answered {other:?}"),
        }
    }
    drop(raw);
    handle.shutdown();
}
