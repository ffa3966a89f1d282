//! The two front ends are interchangeable: a fixed smoke sequence (one of
//! every request kind, then a Shutdown frame) lands the same counters on
//! `threads` and `reactor`.

use dls_core::json::JsonValue;
use dls_core::LayoutScheduler;
use dls_serve::{
    start, Frontend, ModelRegistry, PipelinedClient, PredictRequest, Request, RequestClass,
    Response, ScheduleRequest, ServedModel, ServerConfig,
};
use dls_sparse::SparseVec;
use dls_svm::{KernelKind, SvmModel};
use std::time::Duration;

/// Counters the request sequence alone determines.
const PARITY: [&str; 9] = [
    "predict.ok",
    "schedule.ok",
    "classes.interactive.ok",
    "classes.interactive.slo_violations",
    "classes.batch.slo_violations",
    "faults.protocol_errors",
    "faults.frames_too_large",
    "faults.exec_panics",
    "faults.injected",
];

/// Runs the smoke sequence and returns the [`PARITY`] counters.
fn smoke(frontend: Frontend) -> Vec<u64> {
    let svs: Vec<SparseVec> =
        (0..5).map(|i| SparseVec::new(12, vec![i, i + 6], vec![1.0 + i as f64, -0.5])).collect();
    let model = SvmModel::new(KernelKind::Linear, svs, vec![1.0, -1.0, 0.5, -0.5, 0.25], 0.125);
    let registry =
        ModelRegistry::new().with(ServedModel::new("m", model.clone(), &LayoutScheduler::new()));
    let config = ServerConfig { frontend, ..Default::default() };
    let handle = start(registry, LayoutScheduler::new(), config).expect("bind loopback");
    let addr = handle.local_addr();
    let mut c = PipelinedClient::connect(addr).expect("connect");

    let q = SparseVec::new(12, vec![3, 7], vec![2.0, -1.5]);
    let want = model.decision_function(&q).to_bits();
    let predict = PredictRequest::builder("m")
        .vector(q)
        .class(RequestClass::Interactive)
        .slo(Duration::from_secs(5))
        .build();
    match c.send(&predict).expect("predict") {
        Response::Predictions(v) => assert_eq!((v.len(), v[0].to_bits()), (1, want)),
        other => panic!("{frontend}: unexpected predict response {other:?}"),
    }
    let sched = ScheduleRequest::builder(4, 4).entries([(0u64, 0u64, 1.0), (3, 3, 2.0)]).build();
    assert!(matches!(c.send(&sched).expect("schedule"), Response::Scheduled { .. }));
    let doc = dls_core::json::parse(&c.stats().expect("stats")).expect("valid stats json");
    let at = |path: &str| path.split('.').try_fold(&doc, |d, k| d.get(k));
    for path in ["classes.interactive.slo_violation_rate", "classes.batch.slo_violation_rate"] {
        assert!(at(path).and_then(JsonValue::as_f64).is_some(), "stats JSON lacks {path}");
    }
    assert!(at("degradation.brownout_entries").and_then(JsonValue::as_u64).is_some());
    match c.request(&Request::Health).expect("health") {
        Response::Health(json) => {
            let health = dls_core::json::parse(&json).expect("valid health json");
            assert_eq!(health.get("status").and_then(JsonValue::as_str), Some("ok"));
        }
        other => panic!("{frontend}: unexpected health response {other:?}"),
    }
    assert_eq!(c.shutdown().expect("shutdown"), Response::ShuttingDown);
    drop(c);
    handle.shutdown();
    assert!(PipelinedClient::connect(addr).is_err(), "still accepting after the drain");
    PARITY
        .iter()
        .map(|p| at(p).and_then(JsonValue::as_u64).unwrap_or_else(|| panic!("stats lacks {p}")))
        .collect()
}

#[test]
fn smoke_sequence_lands_the_same_counters_on_both_front_ends() {
    let threads = smoke(Frontend::Threads);
    let reactor = smoke(Frontend::Reactor);
    assert_eq!(threads, reactor, "stats-counter parity broken");
    assert_eq!(threads[..3], [1, 1, 1], "predict, schedule, interactive ok");
}
