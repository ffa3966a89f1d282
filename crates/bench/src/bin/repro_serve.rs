//! Closed-loop load generator for the dls-serve batching service; emits
//! `BENCH_serve.json`.
//!
//! Quick-trains SVMs on two Table-V twins, hosts them in an in-process
//! server, then runs two sweeps:
//!
//! 1. **Coalescing** — client concurrency × request coalescing; every
//!    client is closed-loop, so measured throughput reflects the service's
//!    end-to-end pipeline. The per-cell `multi_vector_blocks` column —
//!    read back from the wire `Stats` endpoint — shows how many sweeps
//!    actually fused concurrent requests.
//! 2. **Mixed workload** — a batch flood (heavy multi-vector requests)
//!    plus tight-SLO interactive clients, once per queue discipline
//!    (fifo / priority / slo). The per-class p95/p99 and SLO-violation
//!    rates come from the server's own class ledgers; the point of the
//!    redesign is that `slo` strictly cuts interactive violations vs
//!    `fifo` under the same flood. Predictive admission is off for these
//!    cells so every miss is *measured* as a violation instead of being
//!    refused at the door.
//! 3. **Brown-out** — the same overload (heavier flood, FIFO so the queue
//!    discipline cannot rescue anyone) with the brown-out controller off
//!    vs on. With it on, sustained interactive SLO violations trip the
//!    controller: batch work sheds with `Busy`, the gather window
//!    shrinks, and admission falls back to the pessimistic analytic
//!    estimator — interactive compliance should measurably recover at
//!    the cost of batch throughput.
//!
//! 4. **Connection scaling** — the closed-loop workload at 8/64/256/1024
//!    concurrent connections against both I/O front ends
//!    (thread-per-connection vs the epoll reactor). Cells a resource
//!    limit prevents from running are *logged as skipped*, never silently
//!    capped. Alongside req/s each cell records the server-side thread
//!    count and implied stack reservation — the reactor's budget is
//!    constant while the threads front end pays a stack per connection.
//!
//! Usage: `repro_serve [secs_per_cell] [out.json]
//! [--connections 8,64,256,1024]` (defaults: 0.4, `BENCH_serve.json`), or
//! `repro_serve --smoke [--discipline NAME] [--frontend threads|reactor]`
//! for the CI smoke run: one Predict + Schedule + Stats round trip under
//! the named discipline (default slo) and front end plus a graceful
//! shutdown-by-frame, printing the per-class SLO-violation rates and a
//! frontend-independent `# parity` counter line, and exiting non-zero on
//! any mismatch. `repro_serve --retrain-smoke [--frontend threads|reactor]`
//! exercises the online-learning loop instead: live traffic with a
//! feedback hub wired in, one forced retraining cycle, and a hard
//! assertion of a model-version bump with zero dropped requests.

use dls_bench::workloads::default_scale;
use dls_core::json::JsonValue;
use dls_core::LayoutScheduler;
use dls_data::labels::linear_teacher_labels;
use dls_data::{generate, DatasetSpec};
use dls_serve::{
    parse_discipline, BrownoutConfig, ExecutorConfig, FeedbackConfig, FeedbackHub, Frontend,
    ModelRegistry, PipelinedClient, PredictRequest, RequestClass, Response, RetrainOutcome,
    ScheduleRequest, ServedModel, ServerConfig, ServerHandle, DISCIPLINES,
};
use dls_sparse::{CsrMatrix, MatrixFormat, SparseVec, MAX_SMSV_BLOCK};
use dls_svm::smo::{train, SmoParams};
use dls_svm::SvmModel;
use std::time::{Duration, Instant};

/// One hosted model plus the query stream its clients replay.
struct Hosted {
    name: &'static str,
    model: SvmModel,
    queries: Vec<SparseVec>,
}

/// Quick-trains a small model on a scaled-down twin of a Table V dataset.
fn quick_model(name: &'static str, extra_scale: usize, seed: u64) -> Hosted {
    let spec = DatasetSpec::by_name(name)
        .unwrap_or_else(|| panic!("unknown dataset {name}"))
        .scaled(default_scale(name) * extra_scale);
    let t = generate(&spec, seed);
    let labels = linear_teacher_labels(&t, 0.05, seed ^ 0xBEEF);
    let x = CsrMatrix::from_triplets(&t);
    let params = SmoParams {
        tolerance: 1e-2,
        max_iterations: 2_000,
        cache_bytes: 8 << 20,
        ..Default::default()
    };
    let model = train(&x, &labels, &params).expect("train quick model");
    let queries: Vec<SparseVec> = (0..x.rows().min(64)).map(|i| x.row_sparse(i)).collect();
    Hosted { name, model, queries }
}

fn registry(hosted: &[Hosted]) -> ModelRegistry {
    let scheduler = LayoutScheduler::new();
    let mut reg = ModelRegistry::new();
    for h in hosted {
        reg.insert(ServedModel::new(h.name, h.model.clone(), &scheduler));
    }
    reg
}

fn start_server(hosted: &[Hosted], executor: ExecutorConfig) -> ServerHandle {
    start_server_on(hosted, executor, Frontend::Threads)
}

fn start_server_on(
    hosted: &[Hosted],
    executor: ExecutorConfig,
    frontend: Frontend,
) -> ServerHandle {
    let config = ServerConfig { executor, frontend, ..Default::default() };
    dls_serve::start(registry(hosted), LayoutScheduler::new(), config).expect("bind loopback")
}

struct CellResult {
    concurrency: usize,
    coalescing: bool,
    ok: u64,
    busy: u64,
    secs: f64,
    req_per_s: f64,
    multi_vector_blocks: u64,
    p50_secs: Option<f64>,
    p95_secs: Option<f64>,
}

/// Runs one sweep cell: `concurrency` closed-loop clients for `secs`.
fn run_cell(hosted: &[Hosted], concurrency: usize, coalescing: bool, secs: f64) -> CellResult {
    let executor = if coalescing {
        ExecutorConfig {
            max_block: concurrency.clamp(2, MAX_SMSV_BLOCK),
            gather: Duration::from_micros(100),
            ..Default::default()
        }
    } else {
        // One vector per sweep, no lingering: the unbatched baseline.
        ExecutorConfig { max_block: 1, gather: Duration::ZERO, ..Default::default() }
    };
    let handle = start_server(hosted, executor);
    let addr = handle.local_addr();

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let clients: Vec<_> = (0..concurrency)
        .map(|c| {
            // All clients target the first (largest) model: coalescing
            // needs concurrent requests against the SAME support matrix,
            // and the second hosted model checks the idle-queue path.
            let h = &hosted[0];
            let (model_name, queries) = (h.name, h.queries.clone());
            std::thread::spawn(move || {
                let mut client = PipelinedClient::connect(addr).expect("connect");
                let (mut ok, mut busy) = (0u64, 0u64);
                let mut k = c; // de-phase the query streams
                while Instant::now() < deadline {
                    let q = queries[k % queries.len()].clone();
                    k += 1;
                    let req = PredictRequest::builder(model_name).vector(q).build();
                    match client.send(&req).expect("predict") {
                        Response::Predictions(_) => ok += 1,
                        Response::Busy => {
                            busy += 1;
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                (ok, busy)
            })
        })
        .collect();

    let (mut ok, mut busy) = (0u64, 0u64);
    for c in clients {
        let (o, b) = c.join().expect("client thread");
        ok += o;
        busy += b;
    }
    let elapsed = started.elapsed().as_secs_f64();

    let mut c = PipelinedClient::connect(addr).expect("connect");
    let stats = c.stats().expect("stats");
    drop(c);
    let doc = dls_core::json::parse(&stats).expect("valid stats json");
    let multi = doc
        .get("aggregate")
        .and_then(|a| a.get("multi_vector_blocks"))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let quantile = |q: &str| doc.get("predict").and_then(|p| p.get(q)).and_then(JsonValue::as_f64);
    handle.shutdown();

    CellResult {
        concurrency,
        coalescing,
        ok,
        busy,
        secs: elapsed,
        req_per_s: ok as f64 / elapsed,
        multi_vector_blocks: multi,
        p50_secs: quantile("p50_secs"),
        p95_secs: quantile("p95_secs"),
    }
}

/// Worker threads the executor runs in the scaling cells (the default
/// config), used for the server-side thread/stack accounting below.
const SCALE_WORKERS: usize = 2;
/// Linux's default thread stack reservation, for the equal-memory
/// comparison (the reactor keeps connection state in buffers instead).
const DEFAULT_STACK_MIB: u64 = 8;

/// One `frontend × connections` scaling cell, or why it was skipped.
struct ScaleCell {
    frontend: Frontend,
    connections: usize,
    outcome: Result<ScaleOk, String>,
}

struct ScaleOk {
    ok: u64,
    busy: u64,
    secs: f64,
    req_per_s: f64,
    /// Threads the *server* needs for this many connections (acceptor or
    /// event loop + per-connection handlers + executor workers).
    server_threads: u64,
    /// Stack reservation implied by those threads at the platform default.
    server_stack_mib: u64,
}

/// Runs one connection-scaling cell: `connections` closed-loop clients
/// against the given front end. Client threads get 64 KiB stacks so the
/// *load generator* is never the resource ceiling being measured; any
/// spawn or connect failure skips the cell loudly instead of silently
/// capping the connection count.
fn run_scale_cell(
    hosted: &[Hosted],
    frontend: Frontend,
    connections: usize,
    secs: f64,
) -> ScaleCell {
    let executor = ExecutorConfig {
        max_block: 32,
        gather: Duration::from_micros(100),
        workers: SCALE_WORKERS,
        ..Default::default()
    };
    let handle = start_server_on(hosted, executor, frontend);
    let addr = handle.local_addr();

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let h = &hosted[0];
    let mut threads = Vec::with_capacity(connections);
    let mut spawn_err = None;
    for c in 0..connections {
        let (model_name, queries) = (h.name, h.queries.clone());
        let spawned = std::thread::Builder::new()
            .stack_size(64 * 1024)
            .name(format!("scale-client-{c}"))
            .spawn(move || -> Result<(u64, u64), String> {
                // The accept backlog is finite; under a 1k-connection
                // stampede some dials need a few tries.
                let mut client = None;
                for attempt in 0..50 {
                    match PipelinedClient::connect(addr) {
                        Ok(c) => {
                            client = Some(c);
                            break;
                        }
                        Err(e) if attempt == 49 => return Err(format!("connect: {e}")),
                        Err(_) => std::thread::sleep(Duration::from_millis(2 * (attempt + 1))),
                    }
                }
                let mut client = client.expect("connected or returned");
                client.set_read_timeout(Some(Duration::from_secs(30))).ok();
                let (mut ok, mut busy) = (0u64, 0u64);
                let mut k = c;
                while Instant::now() < deadline {
                    let q = queries[k % queries.len()].clone();
                    k += 1;
                    let req = PredictRequest::builder(model_name).vector(q).build();
                    match client.send(&req).map_err(|e| format!("predict: {e}"))? {
                        Response::Predictions(_) => ok += 1,
                        Response::Busy => {
                            busy += 1;
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        other => return Err(format!("unexpected response {other:?}")),
                    }
                }
                Ok((ok, busy))
            });
        match spawned {
            Ok(t) => threads.push(t),
            Err(e) => {
                spawn_err = Some(format!("spawning load-generator thread {c}: {e}"));
                break;
            }
        }
    }

    let (mut ok, mut busy) = (0u64, 0u64);
    let mut client_errs: Vec<String> = Vec::new();
    for t in threads {
        match t.join().expect("client thread") {
            Ok((o, b)) => {
                ok += o;
                busy += b;
            }
            Err(e) => client_errs.push(e),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    handle.shutdown();

    let outcome = if let Some(e) = spawn_err {
        Err(e)
    } else if !client_errs.is_empty() {
        Err(format!("{} clients failed (first: {})", client_errs.len(), client_errs[0]))
    } else {
        let server_threads = match frontend {
            // acceptor + one handler per connection + workers
            Frontend::Threads => 1 + connections as u64 + SCALE_WORKERS as u64,
            // one event loop + workers, independent of connection count
            Frontend::Reactor => 1 + SCALE_WORKERS as u64,
        };
        Ok(ScaleOk {
            ok,
            busy,
            secs: elapsed,
            req_per_s: ok as f64 / elapsed,
            server_threads,
            server_stack_mib: server_threads * DEFAULT_STACK_MIB,
        })
    };
    ScaleCell { frontend, connections, outcome }
}

/// Per-class tallies of one mixed-workload cell, straight off the
/// server's class ledgers.
#[derive(Debug, Clone)]
struct ClassOutcome {
    ok: u64,
    timed_out: u64,
    slo_violations: u64,
    violation_rate: f64,
    p95_secs: Option<f64>,
    p99_secs: Option<f64>,
}

struct MixedResult {
    discipline: &'static str,
    interactive: ClassOutcome,
    batch: ClassOutcome,
    batch_req_per_s: f64,
}

fn class_outcome(doc: &JsonValue, class: RequestClass) -> ClassOutcome {
    let entry = doc
        .get("classes")
        .and_then(|c| c.get(class.name()))
        .unwrap_or_else(|| panic!("stats JSON lacks classes.{class}"));
    let n = |k: &str| entry.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    ClassOutcome {
        ok: n("ok"),
        timed_out: n("timed_out"),
        slo_violations: n("slo_violations"),
        violation_rate: entry.get("slo_violation_rate").and_then(JsonValue::as_f64).unwrap_or(0.0),
        p95_secs: entry.get("p95_secs").and_then(JsonValue::as_f64),
        p99_secs: entry.get("p99_secs").and_then(JsonValue::as_f64),
    }
}

/// The interactive SLO the mixed cells are graded against.
const MIXED_INTERACTIVE_SLO: Duration = Duration::from_millis(2);
/// The tighter SLO for the brown-out cells: comfortably achievable when
/// batch work yields (the priority row's interactive p95 sits well under
/// it) but badly missed under a FIFO flood — exactly the regime the
/// controller exists for.
const BROWNOUT_INTERACTIVE_SLO: Duration = Duration::from_micros(500);
/// Vectors per batch-class request in the mixed cells.
const MIXED_BATCH_WEIGHT: usize = 32;

/// One mixed-workload cell: a sustained batch flood plus tight-SLO
/// interactive singles, under the named discipline.
fn run_mixed_cell(hosted: &[Hosted], discipline: &'static str, secs: f64) -> MixedResult {
    let executor = ExecutorConfig {
        max_block: MIXED_BATCH_WEIGHT,
        gather: Duration::from_micros(200),
        discipline: parse_discipline(discipline).expect("known discipline"),
        // Measure misses as violations instead of refusing them up front.
        predictive_admission: false,
        ..Default::default()
    };
    let handle = start_server(hosted, executor);
    let addr = handle.local_addr();

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let h = &hosted[0];

    // The flood: closed-loop batch clients, each pushing full-block
    // requests with the relaxed class-default SLO.
    let batch_clients: Vec<_> = (0..6)
        .map(|c| {
            let (model_name, queries) = (h.name, h.queries.clone());
            std::thread::spawn(move || {
                let mut client = PipelinedClient::connect(addr).expect("connect");
                let mut sent = 0u64;
                let mut k = c;
                while Instant::now() < deadline {
                    let vs: Vec<SparseVec> = (0..MIXED_BATCH_WEIGHT)
                        .map(|j| queries[(k + j) % queries.len()].clone())
                        .collect();
                    k += MIXED_BATCH_WEIGHT;
                    let req = PredictRequest::builder(model_name)
                        .vectors(vs)
                        .class(RequestClass::Batch)
                        .build();
                    match client.send(&req).expect("predict") {
                        Response::Predictions(_) | Response::TimedOut => sent += 1,
                        Response::Busy => std::thread::sleep(Duration::from_micros(200)),
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                sent
            })
        })
        .collect();

    // The victims: interactive singles with a tight explicit SLO, lightly
    // paced so each request meets a fresh backlog.
    let interactive_clients: Vec<_> = (0..2)
        .map(|c| {
            let (model_name, queries) = (h.name, h.queries.clone());
            std::thread::spawn(move || {
                let mut client = PipelinedClient::connect(addr).expect("connect");
                let mut k = c;
                while Instant::now() < deadline {
                    let q = queries[k % queries.len()].clone();
                    k += 1;
                    let req = PredictRequest::builder(model_name)
                        .vector(q)
                        .class(RequestClass::Interactive)
                        .slo(MIXED_INTERACTIVE_SLO)
                        .build();
                    match client.send(&req).expect("predict") {
                        Response::Predictions(_) | Response::TimedOut => {}
                        Response::Busy => std::thread::sleep(Duration::from_micros(200)),
                        other => panic!("unexpected response {other:?}"),
                    }
                    std::thread::sleep(Duration::from_micros(300));
                }
            })
        })
        .collect();

    let mut batch_ok = 0u64;
    for c in batch_clients {
        batch_ok += c.join().expect("batch client");
    }
    for c in interactive_clients {
        c.join().expect("interactive client");
    }
    let elapsed = started.elapsed().as_secs_f64();

    let mut c = PipelinedClient::connect(addr).expect("connect");
    let doc = dls_core::json::parse(&c.stats().expect("stats")).expect("valid stats json");
    drop(c);
    handle.shutdown();

    MixedResult {
        discipline,
        interactive: class_outcome(&doc, RequestClass::Interactive),
        batch: class_outcome(&doc, RequestClass::Batch),
        batch_req_per_s: batch_ok as f64 / elapsed,
    }
}

struct BrownoutResult {
    enabled: bool,
    interactive: ClassOutcome,
    batch: ClassOutcome,
    batch_req_per_s: f64,
    brownout_entries: u64,
    batch_shed: u64,
}

/// One brown-out cell: the mixed overload again, but heavier and under
/// FIFO (so the discipline cannot rescue interactive work), with the
/// brown-out controller off or on.
fn run_brownout_cell(hosted: &[Hosted], enabled: bool, secs: f64) -> BrownoutResult {
    let executor = ExecutorConfig {
        max_block: MIXED_BATCH_WEIGHT,
        gather: Duration::from_micros(200),
        discipline: parse_discipline("fifo").expect("known discipline"),
        predictive_admission: false,
        brownout: BrownoutConfig {
            enabled,
            // Short cells need a snappy controller: a small decision
            // window and dwell so it can engage within the run.
            window: 32,
            min_dwell: Duration::from_millis(10),
            ..Default::default()
        },
        ..Default::default()
    };
    let handle = start_server(hosted, executor);
    let addr = handle.local_addr();

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let h = &hosted[0];

    // A heavier flood than the discipline cells: the point is sustained
    // overload the controller must dig out of.
    let batch_clients: Vec<_> = (0..8)
        .map(|c| {
            let (model_name, queries) = (h.name, h.queries.clone());
            std::thread::spawn(move || {
                let mut client = PipelinedClient::connect(addr).expect("connect");
                let mut sent = 0u64;
                let mut k = c;
                while Instant::now() < deadline {
                    let vs: Vec<SparseVec> = (0..MIXED_BATCH_WEIGHT)
                        .map(|j| queries[(k + j) % queries.len()].clone())
                        .collect();
                    k += MIXED_BATCH_WEIGHT;
                    let req = PredictRequest::builder(model_name)
                        .vectors(vs)
                        .class(RequestClass::Batch)
                        .build();
                    match client.send(&req).expect("predict") {
                        Response::Predictions(_) | Response::TimedOut => sent += 1,
                        // Both queue-full refusals and brown-out sheds
                        // land here; back off briefly either way.
                        Response::Busy => std::thread::sleep(Duration::from_micros(200)),
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                sent
            })
        })
        .collect();

    let interactive_clients: Vec<_> = (0..2)
        .map(|c| {
            let (model_name, queries) = (h.name, h.queries.clone());
            std::thread::spawn(move || {
                let mut client = PipelinedClient::connect(addr).expect("connect");
                let mut k = c;
                while Instant::now() < deadline {
                    let q = queries[k % queries.len()].clone();
                    k += 1;
                    let req = PredictRequest::builder(model_name)
                        .vector(q)
                        .class(RequestClass::Interactive)
                        .slo(BROWNOUT_INTERACTIVE_SLO)
                        .build();
                    match client.send(&req).expect("predict") {
                        Response::Predictions(_) | Response::TimedOut => {}
                        Response::Busy => std::thread::sleep(Duration::from_micros(200)),
                        other => panic!("unexpected response {other:?}"),
                    }
                    std::thread::sleep(Duration::from_micros(300));
                }
            })
        })
        .collect();

    let mut batch_ok = 0u64;
    for c in batch_clients {
        batch_ok += c.join().expect("batch client");
    }
    for c in interactive_clients {
        c.join().expect("interactive client");
    }
    let elapsed = started.elapsed().as_secs_f64();

    let mut c = PipelinedClient::connect(addr).expect("connect");
    let doc = dls_core::json::parse(&c.stats().expect("stats")).expect("valid stats json");
    drop(c);
    handle.shutdown();

    let degrade = |key: &str| {
        doc.get("degradation").and_then(|d| d.get(key)).and_then(JsonValue::as_u64).unwrap_or(0)
    };
    BrownoutResult {
        enabled,
        interactive: class_outcome(&doc, RequestClass::Interactive),
        batch: class_outcome(&doc, RequestClass::Batch),
        batch_req_per_s: batch_ok as f64 / elapsed,
        brownout_entries: degrade("brownout_entries"),
        batch_shed: degrade("batch_shed"),
    }
}

/// CI smoke: one of everything over real sockets under the named queue
/// discipline, then a graceful shutdown triggered by the wire `Shutdown`
/// frame.
fn smoke(discipline: &str, frontend: Frontend) {
    let hosted = vec![quick_model("adult", 256, 42)];
    let executor = ExecutorConfig {
        discipline: parse_discipline(discipline).expect("known discipline"),
        ..Default::default()
    };
    let handle = start_server_on(&hosted, executor, frontend);
    let addr = handle.local_addr();
    let mut c = PipelinedClient::connect(addr).expect("connect");

    let q = hosted[0].queries[0].clone();
    let want = hosted[0].model.decision_function(&q);
    let req = PredictRequest::builder("adult")
        .vector(q)
        .class(RequestClass::Interactive)
        .slo(Duration::from_secs(5))
        .build();
    match c.send(&req).expect("predict") {
        Response::Predictions(values) => {
            assert_eq!(values.len(), 1);
            assert_eq!(values[0].to_bits(), want.to_bits(), "served != local decision value");
        }
        other => panic!("unexpected predict response {other:?}"),
    }
    let sched = ScheduleRequest::builder(4, 4).entries([(0u64, 0u64, 1.0), (3, 3, 2.0)]).build();
    match c.send(&sched).expect("schedule") {
        Response::Scheduled { format, .. } => println!("# schedule -> {format}"),
        other => panic!("unexpected schedule response {other:?}"),
    }
    let stats = c.stats().expect("stats");
    let doc = dls_core::json::parse(&stats).expect("stats endpoint returned invalid JSON");
    for class in RequestClass::ALL {
        let rate = doc
            .get("classes")
            .and_then(|cs| cs.get(class.name()))
            .and_then(|e| e.get("slo_violation_rate"))
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("stats JSON lacks classes.{class}.slo_violation_rate"));
        println!("# slo_violation_rate {class}={rate}");
    }
    // The robustness counters must be on the wire even on a healthy,
    // fault-free server: a `faults` section, a `degradation` section, and
    // an answering Health endpoint.
    for (section, key) in [("faults", "injected"), ("degradation", "brownout_entries")] {
        doc.get(section)
            .and_then(|s| s.get(key))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("stats JSON lacks {section}.{key}"));
    }
    match c.request(&dls_serve::Request::Health).expect("health") {
        Response::Health(json) => {
            let h = dls_core::json::parse(&json).expect("health endpoint returned invalid JSON");
            let status = h
                .get("status")
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("health JSON lacks status"));
            println!("# stats sections faults+degradation exposed, health status={status}");
        }
        other => panic!("unexpected health response {other:?}"),
    }
    // Stats-counter parity across front ends: every value on this line is
    // fully determined by the fixed smoke request sequence, so CI runs the
    // smoke against `threads` and `reactor` and diffs the two lines.
    let counter = |section: &str, key: &str| {
        doc.get(section)
            .and_then(|s| s.get(key))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("stats JSON lacks {section}.{key}"))
    };
    let class_counter = |class: &str, key: &str| {
        doc.get("classes")
            .and_then(|cs| cs.get(class))
            .and_then(|e| e.get(key))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("stats JSON lacks classes.{class}.{key}"))
    };
    println!(
        "# parity predict_ok={} schedule_ok={} interactive_ok={} interactive_viol={} \
         batch_viol={} protocol_errors={} frames_too_large={} exec_panics={} injected={}",
        counter("predict", "ok"),
        counter("schedule", "ok"),
        class_counter("interactive", "ok"),
        class_counter("interactive", "slo_violations"),
        class_counter("batch", "slo_violations"),
        counter("faults", "protocol_errors"),
        counter("faults", "frames_too_large"),
        counter("faults", "exec_panics"),
        counter("faults", "injected"),
    );
    assert_eq!(c.shutdown().expect("shutdown"), Response::ShuttingDown);
    drop(c);
    handle.shutdown();
    assert!(
        PipelinedClient::connect(addr).is_err(),
        "server still accepting connections after graceful drain"
    );
    println!(
        "# serve smoke OK ({discipline}, {frontend}): predict bit-exact, schedule + stats \
         answered, drain clean"
    );
}

/// Online-learning smoke: serve live traffic with a feedback hub wired in,
/// force a retraining cycle mid-stream, and require a model-version bump
/// with zero dropped requests. This is the end-to-end loop
/// (serving → telemetry log → retrain → hot swap) as a CI gate.
fn retrain_smoke(frontend: Frontend) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let hosted = vec![quick_model("adult", 256, 42)];
    let hub = FeedbackHub::new(FeedbackConfig {
        min_observations: 8,
        background: false, // the smoke forces the cycle deterministically
        ..FeedbackConfig::default()
    });
    let executor = ExecutorConfig { feedback: Some(Arc::clone(&hub)), ..Default::default() };
    let handle = start_server_on(&hosted, executor, frontend);
    let addr = handle.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..2)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let queries = hosted[0].queries.clone();
            std::thread::spawn(move || {
                let mut c = PipelinedClient::connect(addr).expect("connect");
                let mut sent = 0u64;
                let mut answered = 0u64;
                let mut k = t;
                while !stop.load(Ordering::Relaxed) || sent < 16 {
                    let q = queries[k % queries.len()].clone();
                    k += 1;
                    sent += 1;
                    match c.send(&PredictRequest::builder("adult").vector(q).build()) {
                        Ok(Response::Predictions(v)) => {
                            assert_eq!(v.len(), 1);
                            answered += 1;
                        }
                        other => panic!("dropped/refused request during retrain: {other:?}"),
                    }
                }
                (sent, answered)
            })
        })
        .collect();

    // Let the executor record telemetry, then force the cycle while the
    // clients above keep the wire busy across the hot swap.
    while hub.ring().total_appended() < 8 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let before = hub.version();
    let outcome = hub.force_retrain();
    assert!(
        matches!(outcome, RetrainOutcome::Accepted { .. }),
        "retrain must be accepted: {outcome:?}"
    );
    assert!(hub.version() > before, "accepted retrain must bump the model version");

    stop.store(true, Ordering::Relaxed);
    let (mut sent, mut answered) = (0u64, 0u64);
    for c in clients {
        let (s, a) = c.join().expect("client thread");
        sent += s;
        answered += a;
    }
    assert_eq!(sent, answered, "every in-flight request answered across the swap");

    let mut c = PipelinedClient::connect(addr).expect("connect");
    let doc = dls_core::json::parse(&c.stats().expect("stats")).expect("valid stats json");
    let sel = doc.get("selector").expect("stats JSON lacks selector section");
    let gauge = |key: &str| sel.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    assert_eq!(gauge("active_version"), hub.version());
    assert_eq!(gauge("retrains_accepted"), 1);
    for refusal in ["busy", "timed_out", "errors"] {
        let n = doc.get("predict").and_then(|p| p.get(refusal)).and_then(JsonValue::as_u64);
        assert_eq!(n, Some(0), "predict.{refusal} must stay zero across the swap");
    }
    println!(
        "# retrain smoke OK ({frontend}): version {before} -> {}, {} requests, 0 dropped, \
         outcome={}",
        hub.version(),
        sent,
        sel.get("last_retrain_outcome").and_then(JsonValue::as_str).unwrap_or("?"),
    );
    drop(c);
    handle.shutdown();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--retrain-smoke") {
        let frontend: Frontend = args
            .iter()
            .position(|a| a == "--frontend")
            .and_then(|i| args.get(i + 1))
            .map_or(Ok(Frontend::Threads), |v| v.parse())
            .expect("--frontend takes threads|reactor");
        retrain_smoke(frontend);
        return;
    }
    if args.iter().any(|a| a == "--smoke") {
        let discipline = args
            .iter()
            .position(|a| a == "--discipline")
            .and_then(|i| args.get(i + 1))
            .map_or("slo", String::as_str);
        let frontend: Frontend = args
            .iter()
            .position(|a| a == "--frontend")
            .and_then(|i| args.get(i + 1))
            .map_or(Ok(Frontend::Threads), |v| v.parse())
            .expect("--frontend takes threads|reactor");
        smoke(discipline, frontend);
        return;
    }
    let connections: Vec<usize> = args
        .iter()
        .position(|a| a == "--connections")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(|v| v.parse().expect("--connections takes counts")).collect())
        .unwrap_or_else(|| vec![8, 64, 256, 1024]);
    let positional: Vec<&String> = {
        let skip_value_of = args.iter().position(|a| a == "--connections").map(|i| i + 1);
        args.iter()
            .enumerate()
            .filter(|(i, a)| !a.starts_with("--") && Some(*i) != skip_value_of)
            .map(|(_, a)| a)
            .collect()
    };
    let secs: f64 = positional.first().and_then(|s| s.parse().ok()).unwrap_or(0.4);
    let out_path = positional.get(1).cloned().cloned().unwrap_or_else(|| "BENCH_serve.json".into());

    println!("# Quick-training models …");
    let hosted = vec![quick_model("adult", 8, 42), quick_model("mnist", 128, 42)];
    for h in &hosted {
        println!("#   {}: {} support vectors", h.name, h.model.n_support_vectors());
    }

    println!(
        "{:<6} {:<10} {:>9} {:>7} {:>10} {:>12} {:>10} {:>10}",
        "conc", "coalesce", "ok", "busy", "req/s", "multi-blk", "p50 ms", "p95 ms"
    );
    let mut cells = Vec::new();
    for &concurrency in &[2usize, 8] {
        for &coalescing in &[false, true] {
            let r = run_cell(&hosted, concurrency, coalescing, secs);
            println!(
                "{:<6} {:<10} {:>9} {:>7} {:>10.0} {:>12} {:>10.3} {:>10.3}",
                r.concurrency,
                if r.coalescing { "on" } else { "off" },
                r.ok,
                r.busy,
                r.req_per_s,
                r.multi_vector_blocks,
                r.p50_secs.map_or(f64::NAN, |s| s * 1e3),
                r.p95_secs.map_or(f64::NAN, |s| s * 1e3),
            );
            cells.push(r);
        }
    }

    // Connection scaling: the same closed-loop single-vector workload at
    // rising connection counts, against both front ends. The reactor
    // serves every count with a constant thread budget; the threads
    // front end pays one 8 MiB-stack thread per connection.
    println!(
        "\n{:<9} {:>6} {:>9} {:>7} {:>10} {:>11} {:>11}",
        "frontend", "conns", "ok", "busy", "req/s", "srv threads", "stack MiB"
    );
    let mut scale = Vec::new();
    for &frontend in &[Frontend::Threads, Frontend::Reactor] {
        for &conns in &connections {
            let cell = run_scale_cell(&hosted, frontend, conns, secs);
            match &cell.outcome {
                Ok(r) => println!(
                    "{:<9} {:>6} {:>9} {:>7} {:>10.0} {:>11} {:>11}",
                    cell.frontend.to_string(),
                    cell.connections,
                    r.ok,
                    r.busy,
                    r.req_per_s,
                    r.server_threads,
                    r.server_stack_mib,
                ),
                Err(reason) => {
                    println!("# SKIPPED {}×{}: {reason}", cell.frontend, cell.connections)
                }
            }
            scale.push(cell);
        }
    }
    let scale_rps = |frontend: Frontend, conns: usize| {
        scale
            .iter()
            .find(|c| c.frontend == frontend && c.connections == conns)
            .and_then(|c| c.outcome.as_ref().ok())
            .map(|r| r.req_per_s)
    };
    for &conns in &connections {
        if let (Some(t), Some(r)) =
            (scale_rps(Frontend::Threads, conns), scale_rps(Frontend::Reactor, conns))
        {
            println!(
                "# connection scaling @{conns}: threads={t:.0} req/s, reactor={r:.0} req/s ({})",
                if r > t { "reactor wins" } else { "threads wins" }
            );
        }
    }
    if let Some(c) = scale
        .iter()
        .find(|c| c.frontend == Frontend::Reactor && c.connections >= 256 && c.outcome.is_ok())
    {
        let r = c.outcome.as_ref().expect("checked ok");
        println!(
            "# reactor served {} connections on {} server threads ({} MiB stack); the threads \
             front end needs {} threads ({} MiB stack) for the same fan-in",
            c.connections,
            r.server_threads,
            r.server_stack_mib,
            1 + c.connections + SCALE_WORKERS,
            (1 + c.connections + SCALE_WORKERS) as u64 * DEFAULT_STACK_MIB,
        );
    }

    println!(
        "\n{:<10} {:>7} {:>9} {:>10} {:>10} {:>10} {:>12}",
        "disc", "int ok", "int viol", "viol rate", "int p95ms", "int p99ms", "batch req/s"
    );
    let mut mixed = Vec::new();
    for name in DISCIPLINES {
        let r = run_mixed_cell(&hosted, name, secs);
        println!(
            "{:<10} {:>7} {:>9} {:>10.3} {:>10.3} {:>10.3} {:>12.0}",
            r.discipline,
            r.interactive.ok,
            r.interactive.slo_violations,
            r.interactive.violation_rate,
            r.interactive.p95_secs.map_or(f64::NAN, |s| s * 1e3),
            r.interactive.p99_secs.map_or(f64::NAN, |s| s * 1e3),
            r.batch_req_per_s,
        );
        mixed.push(r);
    }
    let viol = |name: &str| {
        mixed.iter().find(|r| r.discipline == name).map(|r| r.interactive.slo_violations)
    };
    if let (Some(fifo), Some(slo)) = (viol("fifo"), viol("slo")) {
        println!(
            "# interactive SLO violations under batch flood: fifo={fifo} slo={slo} ({})",
            if slo < fifo { "slo-aware wins" } else { "NO IMPROVEMENT — investigate" }
        );
    }

    println!(
        "\n{:<9} {:>7} {:>9} {:>10} {:>10} {:>9} {:>9} {:>12}",
        "brownout",
        "int ok",
        "int viol",
        "viol rate",
        "int p95ms",
        "entries",
        "shed",
        "batch req/s"
    );
    let mut brownout = Vec::new();
    for enabled in [false, true] {
        let r = run_brownout_cell(&hosted, enabled, secs);
        println!(
            "{:<9} {:>7} {:>9} {:>10.3} {:>10.3} {:>9} {:>9} {:>12.0}",
            if r.enabled { "on" } else { "off" },
            r.interactive.ok,
            r.interactive.slo_violations,
            r.interactive.violation_rate,
            r.interactive.p95_secs.map_or(f64::NAN, |s| s * 1e3),
            r.brownout_entries,
            r.batch_shed,
            r.batch_req_per_s,
        );
        brownout.push(r);
    }
    if let [off, on] = &brownout[..] {
        println!(
            "# interactive SLO violation rate under overload: off={:.3} on={:.3} ({})",
            off.interactive.violation_rate,
            on.interactive.violation_rate,
            if on.interactive.violation_rate < off.interactive.violation_rate {
                "brown-out restores compliance"
            } else {
                "NO IMPROVEMENT — investigate"
            }
        );
    }

    let class_json = |o: &ClassOutcome| {
        JsonValue::obj([
            ("ok", JsonValue::from(o.ok)),
            ("timed_out", JsonValue::from(o.timed_out)),
            ("slo_violations", JsonValue::from(o.slo_violations)),
            ("slo_violation_rate", JsonValue::from(o.violation_rate)),
            ("p95_secs", o.p95_secs.map(JsonValue::from).unwrap_or(JsonValue::Null)),
            ("p99_secs", o.p99_secs.map(JsonValue::from).unwrap_or(JsonValue::Null)),
        ])
    };
    let rows: Vec<JsonValue> = cells
        .iter()
        .map(|r| {
            JsonValue::obj([
                ("concurrency", JsonValue::from(r.concurrency)),
                ("coalescing", JsonValue::from(r.coalescing)),
                ("requests_ok", JsonValue::from(r.ok)),
                ("busy", JsonValue::from(r.busy)),
                ("secs", JsonValue::from(r.secs)),
                ("req_per_s", JsonValue::from(r.req_per_s)),
                ("multi_vector_blocks", JsonValue::from(r.multi_vector_blocks)),
                ("p50_secs", r.p50_secs.map(JsonValue::from).unwrap_or(JsonValue::Null)),
                ("p95_secs", r.p95_secs.map(JsonValue::from).unwrap_or(JsonValue::Null)),
            ])
        })
        .collect();
    let mixed_rows: Vec<JsonValue> = mixed
        .iter()
        .map(|r| {
            JsonValue::obj([
                ("discipline", JsonValue::from(r.discipline)),
                ("interactive", class_json(&r.interactive)),
                ("batch", class_json(&r.batch)),
                ("batch_req_per_s", JsonValue::from(r.batch_req_per_s)),
            ])
        })
        .collect();
    let brownout_rows: Vec<JsonValue> = brownout
        .iter()
        .map(|r| {
            JsonValue::obj([
                ("brownout", JsonValue::from(r.enabled)),
                ("interactive", class_json(&r.interactive)),
                ("batch", class_json(&r.batch)),
                ("batch_req_per_s", JsonValue::from(r.batch_req_per_s)),
                ("brownout_entries", JsonValue::from(r.brownout_entries)),
                ("batch_shed", JsonValue::from(r.batch_shed)),
            ])
        })
        .collect();
    let scale_rows: Vec<JsonValue> = scale
        .iter()
        .map(|c| {
            let mut fields = vec![
                ("frontend", JsonValue::from(c.frontend.to_string())),
                ("connections", JsonValue::from(c.connections)),
            ];
            match &c.outcome {
                Ok(r) => fields.extend([
                    ("skipped", JsonValue::Null),
                    ("requests_ok", JsonValue::from(r.ok)),
                    ("busy", JsonValue::from(r.busy)),
                    ("secs", JsonValue::from(r.secs)),
                    ("req_per_s", JsonValue::from(r.req_per_s)),
                    ("server_threads", JsonValue::from(r.server_threads)),
                    ("server_stack_mib", JsonValue::from(r.server_stack_mib)),
                ]),
                Err(reason) => fields.push(("skipped", JsonValue::from(reason.as_str()))),
            }
            JsonValue::obj(fields)
        })
        .collect();
    let doc = JsonValue::obj([
        ("models", JsonValue::arr(hosted.iter().map(|h| JsonValue::from(h.name)))),
        ("secs_per_cell", JsonValue::from(secs)),
        ("results", JsonValue::Arr(rows)),
        ("connection_scaling", JsonValue::Arr(scale_rows)),
        (
            "mixed_workload",
            JsonValue::obj([
                ("interactive_slo_secs", JsonValue::from(MIXED_INTERACTIVE_SLO.as_secs_f64())),
                ("batch_request_weight", JsonValue::from(MIXED_BATCH_WEIGHT)),
                ("results", JsonValue::Arr(mixed_rows)),
            ]),
        ),
        (
            "brownout",
            JsonValue::obj([
                ("interactive_slo_secs", JsonValue::from(BROWNOUT_INTERACTIVE_SLO.as_secs_f64())),
                ("batch_request_weight", JsonValue::from(MIXED_BATCH_WEIGHT)),
                ("results", JsonValue::Arr(brownout_rows)),
            ]),
        ),
    ]);
    std::fs::write(&out_path, doc.to_json_pretty()).expect("write json");
    println!("\n# wrote {out_path}");
}
