//! `serve_small` and `serve_mixed`: an in-process `dls_serve` server under
//! load from this process.
//!
//! The server is started with `ServerConfig::default()` and nothing else:
//! no front-end, protocol, discipline, gather or block setting is touched,
//! so a changed default is measured, not fought. Closed-loop callers use
//! the shipped `PipelinedClient`. An open-loop stream needs replies
//! stamped as they arrive while requests keep going out, which a
//! synchronous client cannot do, so [`OpenConn`] drives one socket from
//! two sides with the same framed v3 codec functions `PipelinedClient` is
//! built on.
//!
//! No request states a deadline. The server drops a request that has waited
//! past its `slo_us` and answers `TimedOut`; on a two-vCPU guest whose
//! hypervisor pauses it for 100 ms at a time that turned the host's stalls
//! into failed operations, a handful per run. So requests take the server's
//! class default, and the 5 ms limit is scored here, on the caller's side,
//! from the due time.
//!
//! Hosted models are built, not trained (`inputs::hosted_model`): every
//! row of the twin is a support vector, so the kernel work per request is
//! the same at every seed. Every answer is compared, bit for bit, with
//! `SvmModel::decision_function` evaluated locally.

use crate::inputs::{derive, hosted_model, queries, twin};
use crate::loadgen::{judge, ladder, open_loop, Completion, Phase, Reply};
use crate::probes::{batched_ns, min_ns};
use crate::report::{EndToEnd, Report};
use crate::stats::{median, quiet, quiet_rate, summarize};
use crate::trace::{SpanId, Tracer};
use crate::Workload;
use dls_core::json::JsonValue;
use dls_core::LayoutScheduler;
use dls_serve::proto::{read_frame, write_frame};
use dls_serve::{
    decode_request_framed, decode_response_framed, encode_request_framed, encode_response_framed,
    ModelRegistry, PipelinedClient, PredictRequest, Request, RequestClass, Response, ServedModel,
    ServerConfig, ServerHandle, PROTO_VERSION,
};
use dls_sparse::SparseVec;
use dls_svm::{PredictWorkspace, SvmModel};
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The latency limit an Interactive request is scored against.
const LIMIT: Duration = Duration::from_micros(5_000);

/// Connections (and load-generating threads) per workload: `nproc` here.
const CONNS: u64 = 2;

/// Query vectors kept per model.
const QUERIES: usize = 64;

/// A request ready to send, with the bits of the right answer.
struct Prepared {
    request: Request,
    expected: Vec<u64>,
}

impl Prepared {
    fn new(
        model_name: &str,
        model: &SvmModel,
        vectors: Vec<SparseVec>,
        class: RequestClass,
    ) -> Self {
        let expected = vectors.iter().map(|v| model.decision_function(v).to_bits()).collect();
        let request = PredictRequest::builder(model_name).vectors(vectors).class(class).build();
        Self { request: Request::from(&request), expected }
    }

    /// Classifies what came back for this request.
    fn judge(&self, response: &Response) -> Reply {
        match response {
            Response::Predictions(got)
                if got.len() == self.expected.len()
                    && got.iter().zip(&self.expected).all(|(g, e)| g.to_bits() == *e) =>
            {
                Reply::Right
            }
            Response::Busy | Response::TimedOut => Reply::Refused,
            other => {
                // A wrong output fails the run; say what it was (the first
                // few: a broken build would repeat itself).
                static SHOWN: AtomicU64 = AtomicU64::new(0);
                if SHOWN.fetch_add(1, Ordering::Relaxed) < 5 {
                    match other {
                        Response::Predictions(_) => eprintln!("wrong decision values"),
                        other => eprintln!("unexpected response: {other:?}"),
                    }
                }
                Reply::Wrong
            }
        }
    }
}

/// A running server with what its callers send.
pub struct Inputs {
    server: ServerHandle,
    models: Vec<(&'static str, SvmModel)>,
    /// Single-vector Interactive requests, indexed by sequence number.
    small: Arc<Vec<Prepared>>,
    /// 32-vector Batch requests (`serve_mixed` only).
    batch: Arc<Vec<Prepared>>,
}

impl Drop for Inputs {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

impl Inputs {
    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// Hosts `twins` (name, extra scale) and prepares the request streams.
fn setup(seed: u64, twins: &[(&'static str, usize)], with_batch: bool) -> Inputs {
    let scheduler = LayoutScheduler::new();
    let mut registry = ModelRegistry::new();
    let mut models = Vec::new();
    let mut per_model: Vec<Vec<Prepared>> = Vec::new();
    let mut batch = Vec::new();
    for (i, &(name, extra_scale)) in twins.iter().enumerate() {
        let t = twin(name, extra_scale, derive(seed, i as u64));
        let model = hosted_model(&t, derive(seed, 100 + i as u64));
        registry.insert(ServedModel::new(name, model.clone(), &scheduler));
        let qs = queries(&t, QUERIES);
        per_model.push(
            qs.iter()
                .map(|q| Prepared::new(name, &model, vec![q.clone()], RequestClass::Interactive))
                .collect(),
        );
        if with_batch {
            batch.extend((0..QUERIES / 2).map(|k| {
                let vs = (0..32).map(|j| qs[(k * 7 + j) % qs.len()].clone()).collect();
                Prepared::new(name, &model, vs, RequestClass::Batch)
            }));
        }
        models.push((name, model));
    }
    // Interleave the models, so consecutive requests alternate between them.
    let n = per_model.iter().map(Vec::len).min().unwrap_or(0);
    let mut iters: Vec<_> = per_model.into_iter().map(Vec::into_iter).collect();
    let small: Vec<Prepared> = (0..n)
        .flat_map(|_| iters.iter_mut().filter_map(Iterator::next).collect::<Vec<_>>())
        .collect();
    let server = dls_serve::start(registry, LayoutScheduler::new(), ServerConfig::default())
        .expect("binding a loopback port");
    Inputs { server, models, small: Arc::new(small), batch: Arc::new(batch) }
}

// ---- open loop over one socket ------------------------------------------

/// One connection of an open-loop stream: this side writes frames, a
/// collector thread reads replies and stamps them as they arrive.
struct OpenConn {
    writer: BufWriter<TcpStream>,
    collector: Option<std::thread::JoinHandle<()>>,
}

impl OpenConn {
    fn connect(addr: SocketAddr, requests: Arc<Vec<Prepared>>, done: Sender<Completion>) -> Self {
        let stream = TcpStream::connect(addr).expect("connecting to the in-process server");
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone().expect("cloning a socket handle");
        let collector = std::thread::Builder::new()
            .name("bench-collector".to_string())
            .spawn(move || {
                let mut reader = BufReader::new(reader);
                while let Ok(Some(payload)) = read_frame(&mut reader) {
                    let Ok((_, seq, response)) = decode_response_framed(&payload) else { break };
                    let at = Instant::now();
                    let reply = requests[seq as usize % requests.len()].judge(&response);
                    if done.send(Completion { seq, at, reply }).is_err() {
                        break;
                    }
                }
            })
            .expect("spawning a collector thread");
        Self { writer: BufWriter::new(stream), collector: Some(collector) }
    }

    /// Writes request `seq` (the sequence number is the frame id).
    fn send(&mut self, seq: u64, request: &Request) -> bool {
        write_frame(&mut self.writer, &encode_request_framed(request, PROTO_VERSION, seq)).is_ok()
    }
}

impl Drop for OpenConn {
    fn drop(&mut self) {
        // Half-close: the server answers what is in flight, then closes,
        // and the collector sees the end of the stream.
        let _ = self.writer.get_ref().shutdown(Shutdown::Write);
        if let Some(c) = self.collector.take() {
            let _ = c.join();
        }
    }
}

/// An open-loop stream over `conns` connections, request `seq` going out
/// on connection `seq % conns`.
struct OpenStream {
    conns: Vec<OpenConn>,
    requests: Arc<Vec<Prepared>>,
    done: Receiver<Completion>,
    next_seq: u64,
}

impl OpenStream {
    fn connect(addr: SocketAddr, conns: u64, requests: &Arc<Vec<Prepared>>) -> Self {
        let (tx, done) = channel();
        let conns =
            (0..conns).map(|_| OpenConn::connect(addr, Arc::clone(requests), tx.clone())).collect();
        Self { conns, requests: Arc::clone(requests), done, next_seq: 0 }
    }

    /// One phase at `rate` for `duration`; records a span per request.
    fn phase(
        &mut self,
        rate: f64,
        duration: Duration,
        tracer: &mut Tracer,
        name: &'static str,
    ) -> Phase {
        let span = tracer.begin(name, SpanId::ROOT, self.next_seq);
        let (conns, requests) = (&mut self.conns, &self.requests);
        let n = conns.len() as u64;
        let phase = open_loop(
            rate,
            duration,
            Duration::from_secs(2),
            self.next_seq,
            |seq| {
                conns[(seq % n) as usize]
                    .send(seq, &requests[seq as usize % requests.len()].request)
            },
            &self.done,
        );
        tracer.end(span);
        self.next_seq += phase.samples.len() as u64;
        for s in &phase.samples {
            let Some(done) = s.done else { continue };
            let request = tracer.record("request", span, s.seq, s.due, done);
            tracer.record("gen.late", request, s.seq, s.due, s.sent);
            tracer.record("serve.roundtrip", request, s.seq, s.sent, done);
        }
        phase
    }
}

// ---- closed loop through PipelinedClient --------------------------------

/// What one closed-loop caller did.
#[derive(Debug, Default, Clone, Copy)]
struct Closed {
    answered: u64,
    failed: u64,
    wrong: u64,
    /// Vectors answered per second: the quiet decile (`stats::quiet_rate`)
    /// over [`RATE_WINDOW`]s of each window's count, so that a stall of the
    /// host costs the windows it falls in and not the rate.
    vectors_per_s: f64,
    /// The same windows' median, printed beside it.
    median_vectors_per_s: f64,
}

/// Window the closed-loop rate is read in.
const RATE_WINDOW: Duration = Duration::from_millis(250);

/// Keeps `depth` requests in flight on one `PipelinedClient` until `stop`
/// is set, then collects what is still out.
fn closed_loop(
    addr: SocketAddr,
    requests: &[Prepared],
    depth: usize,
    offset: usize,
    stop: &AtomicBool,
) -> Closed {
    let mut client = PipelinedClient::connect(addr).expect("connecting to the in-process server");
    client.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut out = Closed::default();
    // Frame ids are handed out in order from 1, so id k carries request
    // `offset + k - 1`.
    let at = |id: u64| &requests[(offset + id as usize - 1) % requests.len()];
    let mut next = 1u64;
    let start = Instant::now();
    let mut windows: Vec<f64> = Vec::new();
    let submit = |client: &mut PipelinedClient, next: &mut u64| {
        let ok = client.submit(&at(*next).request).is_ok();
        *next += 1;
        ok
    };
    for _ in 0..depth {
        if !submit(&mut client, &mut next) {
            out.failed += 1;
        }
    }
    let mut measured = true;
    while client.in_flight() > 0 {
        let Ok((id, response)) = client.recv() else {
            out.failed += client.in_flight() as u64;
            break;
        };
        measured &= !stop.load(Ordering::Relaxed);
        let prepared = at(id);
        match prepared.judge(&response) {
            Reply::Right if measured => {
                out.answered += 1;
                let window = (start.elapsed().as_secs_f64() / RATE_WINDOW.as_secs_f64()) as usize;
                windows.resize(windows.len().max(window + 1), 0.0);
                windows[window] += prepared.expected.len() as f64;
            }
            Reply::Right => {}
            Reply::Refused => out.failed += 1,
            Reply::Wrong => {
                out.failed += 1;
                out.wrong += 1;
            }
        }
        if measured && !submit(&mut client, &mut next) {
            out.failed += 1;
        }
    }
    // The last window is cut short by the stop; it is not a sample.
    windows.pop();
    if !windows.is_empty() {
        out.vectors_per_s = quiet_rate(&windows) / RATE_WINDOW.as_secs_f64();
        out.median_vectors_per_s = median(&mut windows) / RATE_WINDOW.as_secs_f64();
    }
    out
}

// ---- what both workloads share ------------------------------------------

fn count_phase(phase: &Phase, report: &mut Report) {
    report.attempted += phase.samples.len() as u64;
    report.failed += phase.failed() as u64;
    report.wrong += phase.wrong() as u64;
}

fn count_closed(closed: &Closed, report: &mut Report) {
    report.attempted += closed.answered + closed.failed;
    report.failed += closed.failed;
    report.wrong += closed.wrong;
}

/// The warm-up: every prepared request once, strictly one at a time, each
/// answer checked.
fn warm_up(inputs: &Inputs, report: &mut Report) {
    let mut client =
        PipelinedClient::connect(inputs.addr()).expect("connecting to the in-process server");
    for prepared in inputs.small.iter().chain(inputs.batch.iter()) {
        match client.request(&prepared.request).map(|r| prepared.judge(&r)) {
            Ok(Reply::Right) => report.count(true),
            Ok(Reply::Refused) => report.count(false),
            Ok(Reply::Wrong) | Err(_) => report.count_checked(false),
        }
    }
}

/// The server's own counters, read off the wire like any operator would.
fn server_stats(inputs: &Inputs, report: &mut Report) {
    let mut client =
        PipelinedClient::connect(inputs.addr()).expect("connecting to the in-process server");
    let Ok(Response::Stats(text)) = client.request(&Request::Stats) else {
        report.check("Stats request answered", false, "no Stats response");
        return;
    };
    let Ok(doc) = dls_core::json::parse(&text) else {
        report.check("Stats document parses", false, "dls_core::json::parse refused it");
        return;
    };
    let num = |path: &[&str]| {
        path.iter().try_fold(&doc, |v, k| v.get(k)).and_then(JsonValue::as_f64).unwrap_or(0.0)
    };
    let hist = doc.get("aggregate").and_then(|a| a.get("block_hist")).and_then(JsonValue::as_arr);
    let (mut sweeps, mut vectors) = (0.0, 0.0);
    for (k, n) in hist.unwrap_or(&[]).iter().enumerate() {
        let n = n.as_f64().unwrap_or(0.0);
        sweeps += n;
        vectors += n * (1u64 << k) as f64;
    }
    report.layer(
        "serve.stats.mean_block",
        vectors / f64::max(sweeps, 1.0),
        format!("{sweeps} sweeps, each counted at its log2 bucket's lower edge"),
    );
    report.layer("serve.stats.busy", num(&["predict", "busy"]), "wire Stats document");
    report.layer("serve.stats.timed_out", num(&["predict", "timed_out"]), "wire Stats document");
    report.layer(
        "serve.stats.brownout_entries",
        num(&["degradation", "brownout_entries"]),
        "wire Stats document",
    );
}

/// Runs `f`, pushing its wall time in µs onto `into`.
fn timed_us<T>(into: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    into.push(start.elapsed().as_nanos() as f64 / 1e3);
    out
}

/// The request path taken apart from outside, for block size 1 or 32:
/// `ServedModel::predict`, `Executor::submit_predict` to its reply, and a
/// strict one-at-a-time round trip on an otherwise idle server.
fn request_path(
    inputs: &Inputs,
    prepared: &Prepared,
    suffix: &str,
    report: &mut Report,
) -> [f64; 3] {
    let Request::Predict { model, vectors, class, slo_us, deadline_ms } = &prepared.request else {
        unreachable!("prepared requests are predicts");
    };
    let (_, svm) = inputs.models.iter().find(|(name, _)| name == model).expect("a hosted model");
    let served = ServedModel::new(model.clone(), svm.clone(), &LayoutScheduler::new());
    let mut ws = PredictWorkspace::new();

    // The three timings nest, and the outer two differ by tens of µs in a
    // millisecond. They are taken in turn, so that whatever drifts, drifts
    // under all three, and each is read at its quiet decile: the quiet
    // ends differ by the layers alone, the medians by what the neighbours
    // did meanwhile.
    let executor = inputs.server.executor();
    let mut client =
        PipelinedClient::connect(inputs.addr()).expect("connecting to the in-process server");
    let (mut predicts, mut replies, mut roundtrips) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..400 {
        timed_us(&mut predicts, || served.predict(vectors, &mut ws));
        let reply = timed_us(&mut replies, || {
            executor
                .submit_predict(model, vectors.clone(), *class, *slo_us, *deadline_ms)
                .ok()
                .and_then(|rx| rx.recv().ok())
        });
        let answer = timed_us(&mut roundtrips, || client.request(&prepared.request).ok());
        let right = [reply, answer]
            .iter()
            .all(|r| r.as_ref().is_some_and(|r| prepared.judge(r) == Reply::Right));
        report.count_checked(right);
    }
    let [predict_us, reply_us, roundtrip_us] =
        [predicts, replies, roundtrips].map(|mut t| quiet(&mut t));

    let name = |stem: &str| {
        crate::catalog::layer(&format!("{stem}.{suffix}")).expect("catalogued per block size").name
    };
    report.layer(
        name("serve.registry.predict.us"),
        predict_us,
        "ServedModel::predict, quiet decile of 400",
    );
    report.layer(
        name("serve.executor.reply.us"),
        reply_us,
        "submit_predict to reply, no socket, quiet decile of 400",
    );
    report.layer(name("serve.wire.us"), roundtrip_us - reply_us, format!("idle round trip {roundtrip_us:.1} us - executor reply, quiet deciles of 400 taken in turn"));
    report.check(
        format!("serve.registry.predict.us.{suffix} <= serve.executor.reply.us.{suffix} <= idle round trip"),
        predict_us <= reply_us && reply_us <= roundtrip_us,
        format!("{predict_us:.1} <= {reply_us:.1} <= {roundtrip_us:.1} us"),
    );
    [predict_us, reply_us, roundtrip_us]
}

/// The four codec calls on one of the workload's own frames, in ns.
fn codec(prepared: &Prepared, report: &mut Report, names: [&'static str; 3]) -> f64 {
    let payload = encode_request_framed(&prepared.request, PROTO_VERSION, 7);
    let encode = batched_ns(200, || encode_request_framed(&prepared.request, PROTO_VERSION, 7));
    let decode = batched_ns(200, || decode_request_framed(&payload));
    report.layer(names[0], encode, "encode_request_framed, min over batches of 200");
    report.layer(names[1], decode, "decode_request_framed, min over batches of 200");
    report.layer(names[2], (payload.len() + 4) as f64, "payload + length prefix");
    encode + decode
}

// ---- serve_small ---------------------------------------------------------

/// See the module documentation and `catalog::WORKLOADS`.
pub struct ServeSmall;

/// The open-loop base rate, req/s.
const BASE_RATE: f64 = 500.0;

/// In-flight requests per connection in the saturation phase.
const SAT_DEPTH: usize = 16;

impl Workload for ServeSmall {
    const NAME: &'static str = "serve_small";
    type Inputs = Inputs;
    type Warm = ();

    fn setup(seed: u64) -> Inputs {
        // The twins `repro_serve` hosts: adult/4 and mnist/2.
        setup(seed, &[("adult", 4), ("mnist", 2)], false)
    }

    fn warm_up(inputs: &Inputs, _seed: u64, report: &mut Report) {
        warm_up(inputs, report);
    }

    /// 40% of the time at the base rate, 30% climbing the ladder, 30%
    /// saturating. Ladder rungs are not counted as attempted or failed:
    /// overload there is the point, and `serve.max_rate_ok` scores it.
    fn measure(
        inputs: &Inputs,
        _seed: u64,
        budget: Duration,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> EndToEnd {
        let mut stream = OpenStream::connect(inputs.addr(), CONNS, &inputs.small);
        let base = stream.phase(BASE_RATE, budget.mul_f64(0.4), tracer, "phase.base");
        count_phase(&base, report);
        let latency = base.latency();
        report.timing("lat_ms", &scaled(&latency, 1e-3), "ms");
        report.timing(
            "lat_whole_phase_ms",
            &scaled(&summarize(&mut base.latencies_us()), 1e-3),
            "ms",
        );
        report.line("gen.lateness_p99_ms.base", base.lateness_p99_ms(), "ms", "base-rate phase");
        report.line(
            "failed.base",
            base.failed() as f64,
            "count",
            format!("of {}", base.samples.len()),
        );

        let rates: Vec<f64> = (0..6).map(|k| BASE_RATE * f64::from(1 << k)).collect();
        let rung_time = budget.mul_f64(0.3 / rates.len() as f64);
        let mut lateness = base.lateness_p99_ms();
        let (best, rungs) = ladder(&rates, |rate| {
            let phase = stream.phase(rate, rung_time, tracer, "phase.rung");
            let rung = judge(&phase, LIMIT);
            if rung.passed {
                lateness = lateness.max(rung.lateness_p99_ms);
            }
            rung
        });
        for r in &rungs {
            report.line(
                &format!("rung.{}", r.rate),
                r.ok_in_limit as f64 / r.due as f64,
                "ratio",
                format!(
                    "{} of {} in 5 ms, backlog {}, lateness p99 {:.3} ms: {}",
                    r.ok_in_limit,
                    r.due,
                    r.backlog,
                    r.lateness_p99_ms,
                    if r.passed { "ok" } else { "failed" }
                ),
            );
        }
        drop(stream);
        let max_rate_ok = best.unwrap_or(0.0);
        report.line(
            "max_rate_ok",
            max_rate_ok,
            "1/s",
            format!("rungs {rates:?}, {:.2} s each", rung_time.as_secs_f64()),
        );

        let span = tracer.begin("phase.saturate", SpanId::ROOT, 0);
        let stop = AtomicBool::new(false);
        let callers: Vec<Closed> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNS as usize)
                .map(|c| {
                    let (requests, stop) = (&inputs.small, &stop);
                    s.spawn(move || closed_loop(inputs.addr(), requests, SAT_DEPTH, c * 17, stop))
                })
                .collect();
            std::thread::sleep(budget.mul_f64(0.3));
            stop.store(true, Ordering::Relaxed);
            handles.into_iter().map(|h| h.join().expect("a closed-loop caller panicked")).collect()
        });
        tracer.end(span);
        let mut sat_rps = 0.0;
        for c in &callers {
            count_closed(c, report);
            sat_rps += c.vectors_per_s;
        }
        report.line(
            "sat_rps",
            sat_rps,
            "1/s",
            format!("{CONNS} connections x depth {SAT_DEPTH}, quiet decile of 250 ms windows"),
        );
        report.line(
            "failed.saturate",
            callers.iter().map(|c| c.failed).sum::<u64>() as f64,
            "count",
            "",
        );
        if tracer.enabled() {
            report.layer("serve.max_rate_ok", max_rate_ok, "see max_rate_ok");
            report.layer(
                "gen.lateness_p99_ms",
                lateness,
                "worst of the base phase and the rungs that passed",
            );
        }
        EndToEnd { unit_us: latency.median, tail_us: latency.tail, rate_per_s: sat_rps }
    }

    fn probe(inputs: &Inputs, _warm: &(), _seed: u64, report: &mut Report) {
        server_stats(inputs, report);
        let prepared = &inputs.small[0];
        let [predict_us, reply_us, roundtrip_us] = request_path(inputs, prepared, "b1", report);
        report.layer(
            "serve.executor.wait.us.b1",
            reply_us - predict_us,
            "executor reply - registry predict: queue + gather wait",
        );
        let request_ns = codec(
            prepared,
            report,
            [
                "serve.proto.encode_req.ns.small",
                "serve.proto.decode_req.ns.small",
                "serve.proto.req_bytes.small",
            ],
        );
        let response = Response::Predictions(vec![0.5]);
        let payload = encode_response_framed(&response, PROTO_VERSION, 7);
        let encode = batched_ns(200, || encode_response_framed(&response, PROTO_VERSION, 7));
        let decode = batched_ns(200, || decode_response_framed(&payload));
        report.layer(
            "serve.proto.encode_resp.ns",
            encode,
            "one-value Predictions, min over batches of 200",
        );
        report.layer(
            "serve.proto.decode_resp.ns",
            decode,
            "one-value Predictions, min over batches of 200",
        );
        let codec_us = (request_ns + encode + decode) / 1e3;
        let wire_us = roundtrip_us - reply_us;
        report.check(
            "the four serve.proto.* small-frame costs sum to no more than serve.wire.us.b1",
            codec_us <= wire_us,
            format!("{codec_us:.3} us of {wire_us:.1} us"),
        );
    }
}

fn scaled(s: &crate::stats::Summary, by: f64) -> crate::stats::Summary {
    crate::stats::Summary { median: s.median * by, tail: s.tail * by, ..*s }
}

// ---- serve_mixed ---------------------------------------------------------

/// See the module documentation and `catalog::WORKLOADS`.
pub struct ServeMixed;

/// The Interactive stream's rate, req/s.
const INTERACTIVE_RATE: f64 = 300.0;

/// Requests the Batch caller keeps in flight.
const BATCH_DEPTH: usize = 2;

/// Both callers at once for `duration`.
fn mixed(
    inputs: &Inputs,
    stream: &mut OpenStream,
    duration: Duration,
    tracer: &mut Tracer,
    name: &'static str,
) -> (Phase, Closed) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let caller = s.spawn(|| closed_loop(inputs.addr(), &inputs.batch, BATCH_DEPTH, 0, &stop));
        let phase = stream.phase(INTERACTIVE_RATE, duration, tracer, name);
        stop.store(true, Ordering::Relaxed);
        (phase, caller.join().expect("the batch caller panicked"))
    })
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve_mixed";
    type Inputs = Inputs;
    type Warm = ();

    fn setup(seed: u64) -> Inputs {
        setup(seed, &[("adult", 1)], true)
    }

    fn warm_up(inputs: &Inputs, _seed: u64, report: &mut Report) {
        warm_up(inputs, report);
    }

    /// Connection A is a caller that waits (Batch, 32 vectors, two in
    /// flight); connection B is users that do not (Interactive, one
    /// vector, open loop). Both for the whole budget, after a warm-up of
    /// a tenth of it under the same load.
    fn measure(
        inputs: &Inputs,
        _seed: u64,
        budget: Duration,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> EndToEnd {
        let mut stream = OpenStream::connect(inputs.addr(), 1, &inputs.small);
        mixed(inputs, &mut stream, budget.mul_f64(0.1), &mut Tracer::new(false), "phase.warm");
        let (phase, batch) = mixed(inputs, &mut stream, budget, tracer, "phase.mixed");
        drop(stream);
        count_phase(&phase, report);
        count_closed(&batch, report);
        let latency = phase.latency();
        let sent = phase.samples.len();
        let missed = sent - phase.ok_within(LIMIT);
        let batch_vps = batch.vectors_per_s;
        report.timing("interactive_ms", &scaled(&latency, 1e-3), "ms");
        report.timing(
            "interactive_whole_phase_ms",
            &scaled(&summarize(&mut phase.latencies_us()), 1e-3),
            "ms",
        );
        report.line(
            "batch_vps",
            batch_vps,
            "1/s",
            format!("{} requests of 32 vectors, quiet decile of 250 ms windows", batch.answered),
        );
        report.line(
            "batch_vps.median_window",
            batch.median_vectors_per_s,
            "1/s",
            "median 250 ms window",
        );
        report.line(
            "slo_miss_share",
            missed as f64 / sent as f64,
            "ratio",
            format!("{missed} of {sent} over 5 ms or failed"),
        );
        report.line(
            "gen.lateness_p99_ms.mixed",
            phase.lateness_p99_ms(),
            "ms",
            "Interactive stream",
        );
        report.line("failed.interactive", phase.failed() as f64, "count", format!("of {sent}"));
        report.line(
            "failed.batch",
            batch.failed as f64,
            "count",
            format!("of {}", batch.answered + batch.failed),
        );
        if tracer.enabled() {
            report.layer("serve.slo_miss_share", missed as f64 / sent as f64, "see slo_miss_share");
            report.layer("gen.lateness_p99_ms", phase.lateness_p99_ms(), "Interactive stream");
        }
        EndToEnd { unit_us: latency.median, tail_us: latency.tail, rate_per_s: batch_vps }
    }

    fn probe(inputs: &Inputs, _warm: &(), _seed: u64, report: &mut Report) {
        server_stats(inputs, report);
        let prepared = &inputs.batch[0];
        request_path(inputs, prepared, "b32", report);
        codec(
            prepared,
            report,
            [
                "serve.proto.encode_req.ns.batch",
                "serve.proto.decode_req.ns.batch",
                "serve.proto.req_bytes.batch",
            ],
        );
        let Request::Predict { vectors, .. } = &prepared.request else { unreachable!("a predict") };
        let (_, model) = &inputs.models[0];
        let mut ws = PredictWorkspace::new();
        let us = min_ns(200, || model.predict_batch(vectors, &mut ws)) / 1e3;
        report.layer("svm.predict_batch.us", us, "SvmModel::predict_batch, 32 vectors, min of 200");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole serve path at toy size: a wrong answer must be caught.
    #[test]
    fn answers_are_checked_bit_for_bit() {
        let inputs = setup(3, &[("adult", 16)], true);
        let mut report = Report::default();
        warm_up(&inputs, &mut report);
        assert_eq!(report.attempted, (inputs.small.len() + inputs.batch.len()) as u64);
        assert_eq!((report.failed, report.wrong), (0, 0));
        let p = &inputs.small[0];
        let right = f64::from_bits(p.expected[0]);
        assert_eq!(p.judge(&Response::Predictions(vec![right])), Reply::Right);
        let off_by_an_ulp = f64::from_bits(p.expected[0] ^ 1);
        assert_eq!(p.judge(&Response::Predictions(vec![off_by_an_ulp])), Reply::Wrong);
        assert_eq!(p.judge(&Response::Predictions(vec![right, right])), Reply::Wrong);
        assert_eq!(p.judge(&Response::Error("no".to_string())), Reply::Wrong);
        assert_eq!(p.judge(&Response::Busy), Reply::Refused);
        assert_eq!(p.judge(&Response::TimedOut), Reply::Refused);
    }

    #[test]
    fn open_stream_and_closed_loop_agree_with_the_server() {
        let inputs = setup(4, &[("adult", 16), ("mnist", 8)], false);
        let mut tracer = Tracer::new(true);
        let mut stream = OpenStream::connect(inputs.addr(), 2, &inputs.small);
        let phase = stream.phase(400.0, Duration::from_millis(250), &mut tracer, "phase.base");
        drop(stream);
        assert_eq!(phase.samples.len(), 100);
        assert_eq!(phase.failed(), 0);
        // One phase span and, per request, the request with its two parts.
        assert_eq!(tracer.spans().len(), 1 + 3 * 100);

        let stop = AtomicBool::new(false);
        let closed = std::thread::scope(|s| {
            let caller = s.spawn(|| closed_loop(inputs.addr(), &inputs.small, 4, 5, &stop));
            std::thread::sleep(Duration::from_millis(600));
            stop.store(true, Ordering::Relaxed);
            caller.join().unwrap()
        });
        assert!(closed.answered > 0);
        assert!(closed.vectors_per_s > 0.0, "two whole windows fit in 600 ms");
        assert_eq!(closed.failed, 0);
        assert_eq!(closed.wrong, 0);
    }
}
