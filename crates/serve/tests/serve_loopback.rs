//! End-to-end loopback tests: a real server on 127.0.0.1, real TCP
//! clients, and the full stack in between — framing, dispatch, batching
//! executor, blocked kernels, telemetry.
//!
//! Determinism strategy: the executor's `pause` drain control lets tests
//! park the worker pool, build a known queue state (polling its depths),
//! and then release it — so queue-full and coalescing behaviour is
//! asserted, not hoped for.

mod common;

use common::{query, serve, test_model, wait_for_depth, DIM};
use dls_serve::stats::parse_block_hist;
use dls_serve::{
    FaultAction, FaultInjector, FaultPlan, FaultSite, PipelinedClient, PredictRequest, Request,
    Response, ScheduleRequest, ServerConfig,
};
use dls_sparse::SparseVec;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sends one predict through the builder API (deadline 0 = server-default
/// class SLO).
fn predict(
    c: &mut PipelinedClient,
    model: &str,
    vectors: Vec<SparseVec>,
    deadline_ms: u32,
) -> Response {
    let mut b = PredictRequest::builder(model).vectors(vectors);
    if deadline_ms > 0 {
        b = b.deadline(Duration::from_millis(u64::from(deadline_ms)));
    }
    c.send(&b.build()).expect("predict")
}

fn schedule(
    c: &mut PipelinedClient,
    strategy: &str,
    rows: u64,
    cols: u64,
    entries: Vec<(u64, u64, f64)>,
) -> Response {
    c.send(&ScheduleRequest::builder(rows, cols).strategy(strategy).entries(entries).build())
        .expect("schedule")
}

/// Registration times each model's sweeps on the bare matrix, so a server
/// that has answered nothing has metered nothing: no calls, an all-zero
/// block histogram. And a fresh server is healthy.
#[test]
fn a_fresh_server_reports_no_kernel_calls() {
    let handle = serve(ServerConfig::default());
    let mut c = PipelinedClient::connect(handle.local_addr()).expect("connect");
    let json = c.stats().expect("stats");
    let doc = dls_core::json::parse(&json).expect("valid stats json");
    let calls = doc.get("aggregate").and_then(|a| a.get("total_calls")).and_then(|v| v.as_u64());
    assert_eq!(calls, Some(0), "{json}");
    let hist = parse_block_hist(&json).expect("block hist");
    assert!(hist.iter().all(|&n| n == 0), "block histogram of a fresh server: {hist:?}");
    let Response::Health(health) = c.request(&Request::Health).expect("health") else {
        panic!("Health answered with another response kind");
    };
    let doc = dls_core::json::parse(&health).expect("valid health json");
    assert_eq!(doc.get("status").and_then(|s| s.as_str()), Some("ok"), "{health}");
    drop(c);
    handle.shutdown();
}

#[test]
fn concurrent_singles_coalesce_and_match_per_vector_predict() {
    let handle = serve(ServerConfig::default());
    let addr = handle.local_addr();
    let model = test_model(0);

    // Park the workers, let 8 independent connections each queue one
    // single-vector predict, then release the pool: the drain must fuse
    // them into multi-vector blocks.
    const CLIENTS: usize = 8;
    handle.executor().pause(true);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = PipelinedClient::connect(addr).expect("connect");
                (i, predict(&mut c, "m", vec![query(i)], 0))
            })
        })
        .collect();
    wait_for_depth(&handle, CLIENTS);
    handle.executor().pause(false);

    for client in clients {
        let (i, resp) = client.join().expect("client thread");
        match resp {
            Response::Predictions(values) => {
                assert_eq!(values.len(), 1);
                // Bit-identical to evaluating that one vector alone.
                let want = model.decision_function(&query(i));
                assert_eq!(
                    values[0].to_bits(),
                    want.to_bits(),
                    "client {i}: {} vs {want}",
                    values[0]
                );
            }
            other => panic!("client {i}: unexpected response {other:?}"),
        }
    }

    // The telemetry must prove the fusion happened: blocks of B >= 2.
    let mut c = PipelinedClient::connect(addr).expect("connect");
    let hist = parse_block_hist(&c.stats().expect("stats")).expect("block hist");
    let multi: u64 = hist[1..].iter().sum();
    assert!(multi >= 1, "8 queued singles produced no multi-vector block: {hist:?}");

    drop(c);
    handle.shutdown();
}

#[test]
fn full_queue_refuses_with_busy_immediately() {
    let config = ServerConfig {
        executor: dls_serve::ExecutorConfig { queue_capacity: 2, ..Default::default() },
        ..Default::default()
    };
    let handle = serve(config);
    let addr = handle.local_addr();

    handle.executor().pause(true);
    // Two clients fill the queue to capacity and block awaiting replies.
    let blocked: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = PipelinedClient::connect(addr).expect("connect");
                predict(&mut c, "m", vec![query(i)], 0)
            })
        })
        .collect();
    wait_for_depth(&handle, 2);

    // The third client must get Busy back immediately — not a hang, not a
    // queued wait.
    let mut c = PipelinedClient::connect(addr).expect("connect");
    let started = Instant::now();
    let resp = predict(&mut c, "m", vec![query(9)], 0);
    assert_eq!(resp, Response::Busy);
    assert!(started.elapsed() < Duration::from_secs(2), "Busy reply was not immediate");

    // Releasing the pool completes the two queued requests normally.
    handle.executor().pause(false);
    for client in blocked {
        assert!(matches!(client.join().expect("join"), Response::Predictions(_)));
    }
    drop(c);
    handle.shutdown();
}

#[test]
fn requests_queued_past_their_deadline_time_out() {
    let handle = serve(ServerConfig::default());
    let addr = handle.local_addr();

    handle.executor().pause(true);
    let waiter = std::thread::spawn(move || {
        let mut c = PipelinedClient::connect(addr).expect("connect");
        // 10 ms clears the admission projection (one tiny measured sweep)
        // but lapses while the pool stays parked below.
        predict(&mut c, "m", vec![query(0)], 10)
    });
    wait_for_depth(&handle, 1);
    std::thread::sleep(Duration::from_millis(30)); // sail past the 10 ms deadline
    handle.executor().pause(false);
    assert_eq!(waiter.join().expect("join"), Response::TimedOut);

    // The miss is on the interactive class's SLO ledger.
    let mut c = PipelinedClient::connect(addr).expect("connect");
    let doc = dls_core::json::parse(&c.stats().expect("stats")).expect("valid stats json");
    let interactive = doc.get("classes").and_then(|c| c.get("interactive")).expect("class stats");
    assert_eq!(interactive.get("slo_violations").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(interactive.get("slo_violation_rate").and_then(|v| v.as_f64()), Some(1.0));
    drop(c);
    handle.shutdown();
}

#[test]
fn schedule_and_errors_over_the_wire() {
    let handle = serve(ServerConfig::default());
    let addr = handle.local_addr();
    let mut c = PipelinedClient::connect(addr).expect("connect");

    // A fixed-format strategy is honoured end to end.
    let entries: Vec<(u64, u64, f64)> = (0..8).map(|i| (i % 4, i % 6, 1.0 + i as f64)).collect();
    match schedule(&mut c, "csr", 4, 6, entries.clone()) {
        Response::Scheduled { format, .. } => assert_eq!(format, "CSR"),
        other => panic!("unexpected response {other:?}"),
    }
    // The default scheduler returns a scored decision.
    match schedule(&mut c, "", 4, 6, entries) {
        Response::Scheduled { format, scores, .. } => {
            assert!(!format.is_empty());
            assert!(!scores.is_empty());
        }
        other => panic!("unexpected response {other:?}"),
    }
    // Malformed submissions come back as typed errors, not dropped
    // connections.
    assert!(matches!(schedule(&mut c, "no-such-strategy", 2, 2, vec![]), Response::Error(_)));
    assert!(matches!(schedule(&mut c, "", 2, 2, vec![(5, 0, 1.0)]), Response::Error(_)));
    assert!(matches!(predict(&mut c, "missing-model", vec![query(0)], 0), Response::Error(_)));
    assert!(matches!(predict(&mut c, "m", vec![SparseVec::zeros(DIM + 1)], 0), Response::Error(_)));

    // The same connection still serves good requests afterwards.
    assert!(matches!(predict(&mut c, "m", vec![query(1)], 0), Response::Predictions(_)));
    drop(c);
    handle.shutdown();
}

#[test]
fn shutdown_frame_drains_gracefully() {
    let handle = serve(ServerConfig::default());
    let addr = handle.local_addr();

    let mut c = PipelinedClient::connect(addr).expect("connect");
    assert!(matches!(predict(&mut c, "m", vec![query(3)], 0), Response::Predictions(_)));
    assert_eq!(c.shutdown().expect("shutdown"), Response::ShuttingDown);
    // Requests after the shutdown ack are refused, not dropped.
    assert_eq!(predict(&mut c, "m", vec![query(4)], 0), Response::ShuttingDown);
    drop(c);

    assert!(handle.is_shutting_down());
    handle.shutdown(); // performs the drain; idempotent with join()

    // The acceptor is gone: fresh connections cannot reach the service.
    let gone = PipelinedClient::connect(addr)
        .and_then(|mut c| c.send(&PredictRequest::builder("m").vector(query(5)).build()));
    assert!(gone.is_err(), "server still serving after drain");
}

/// With two workers and all load on one model lane, the second worker's
/// home shard is empty: it can only contribute by stealing. Several
/// connections each queue one predict behind the paused pool, and
/// scripted `Exec` delays hold every sweep for 5 ms once it is released,
/// so the idle worker finds ready work to take even on a one-core host.
#[test]
fn idle_workers_steal_from_loaded_shards() {
    const CLIENTS: usize = 16;
    let plan = FaultPlan::new(7).script(
        FaultSite::Exec,
        std::iter::repeat_n(FaultAction::Delay(Duration::from_millis(5)), CLIENTS),
    );
    let mut config = ServerConfig::default();
    config.executor.workers = 2;
    config.executor.max_block = 1; // one vector per sweep: plenty of chances to steal
    config.executor.fault = FaultInjector::shared(Arc::new(plan));
    let handle = serve(config);
    let addr = handle.local_addr();

    handle.executor().pause(true);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = PipelinedClient::connect(addr).expect("connect");
                predict(&mut c, "m", vec![query(i)], 0)
            })
        })
        .collect();
    wait_for_depth(&handle, CLIENTS);
    handle.executor().pause(false);
    for client in clients {
        let resp = client.join().expect("client thread");
        assert!(matches!(resp, Response::Predictions(_)), "got {resp:?}");
    }
    assert!(handle.stats().steals.load(Ordering::Relaxed) > 0, "worker 1 never stole");
    handle.shutdown();
}
