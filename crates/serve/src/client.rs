//! A small synchronous client for the dls-serve protocol.
//!
//! One [`PipelinedClient`] wraps one TCP connection — it is the only type
//! in this crate that owns a socket. Used one request at a time
//! ([`PipelinedClient::send`] / [`PipelinedClient::request`]) it is a
//! strict request/response client; open several for concurrent requests
//! (that is what makes the server coalesce). Used through
//! [`PipelinedClient::submit`] / [`PipelinedClient::recv`] it keeps many
//! requests in flight on the one connection and takes the responses in
//! whatever order the server finishes them, matched by `frame_id`.
//! Methods return the server's typed [`Response`] — including `Busy` /
//! `TimedOut` — rather than flattening everything into errors, so callers
//! can implement their own retry policy.
//!
//! Requests are built with typed builders:
//!
//! ```no_run
//! # use dls_serve::client::{PipelinedClient, PredictRequest};
//! # use dls_serve::proto::RequestClass;
//! # use dls_sparse::SparseVec;
//! # use std::time::Duration;
//! let mut client = PipelinedClient::connect("127.0.0.1:7070")?;
//! let req = PredictRequest::builder("mnist")
//!     .vector(SparseVec::new(784, vec![3], vec![1.0]))
//!     .class(RequestClass::Interactive)
//!     .slo(Duration::from_millis(20))
//!     .build();
//! let resp = client.send(&req)?;
//! # let _ = resp; Ok::<(), std::io::Error>(())
//! ```
//!
//! Failures are typed: the pipelined calls and
//! [`PipelinedClient::try_request`] return a [`ClientError`] that
//! distinguishes a lost connection from a timeout from a protocol
//! violation, and says which of those are worth retrying. [`RetryClient`]
//! is a policy over that: it redials on connection loss and retries
//! retryable failures with seeded, jittered exponential backoff under a
//! per-client retry budget.

use crate::fault::SplitMix64;
use crate::proto::{
    decode_response_framed, encode_request_framed, proto_error_of, read_frame, write_frame,
    ProtoError, Request, RequestClass, Response, PROTO_VERSION,
};
use dls_sparse::SparseVec;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, ErrorKind};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a request failed, and whether trying again can help.
///
/// Returned by [`PipelinedClient::try_request`] and the pipelined calls.
/// The coarse [`PipelinedClient::request`] flattens these back into
/// `std::io::Error` (with the `ClientError` attached as the error source)
/// for callers that do not care about the distinction.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection died mid-request: broken pipe, reset, or the
    /// server closed the socket before (or while) sending the response.
    /// Retryable — reconnect and resend.
    ConnectionLost(String),
    /// The socket read timed out waiting for the response. Retryable.
    Timeout,
    /// A frame exceeded [`crate::proto::MAX_FRAME_LEN`] (ours outbound,
    /// or the server's inbound refusal). Not retryable: the same request
    /// will be refused again.
    FrameTooLarge(usize),
    /// The response arrived but did not decode, or answers a frame that
    /// is not in flight; the stream can no longer be trusted to be
    /// frame-aligned. Not retryable on this connection.
    Protocol(String),
    /// Any other I/O failure. Not retryable by default.
    Io(std::io::Error),
}

impl ClientError {
    /// Whether a reconnect-and-resend has a chance of succeeding.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::ConnectionLost(_) | ClientError::Timeout)
    }

    /// Classifies a raw I/O failure from the socket.
    fn from_io(err: std::io::Error, during: &str) -> Self {
        if let Some(ProtoError::FrameTooLarge(len)) = proto_error_of(&err) {
            return ClientError::FrameTooLarge(*len);
        }
        match err.kind() {
            ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::NotConnected
            | ErrorKind::UnexpectedEof => ClientError::ConnectionLost(format!("{during}: {err}")),
            ErrorKind::TimedOut | ErrorKind::WouldBlock => ClientError::Timeout,
            _ => ClientError::Io(err),
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::ConnectionLost(what) => write!(f, "connection lost ({what})"),
            ClientError::Timeout => write!(f, "timed out waiting for the response"),
            ClientError::FrameTooLarge(len) => {
                write!(f, "frame of {len} bytes exceeds the protocol limit")
            }
            ClientError::Protocol(what) => write!(f, "protocol error: {what}"),
            ClientError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ClientError> for std::io::Error {
    fn from(err: ClientError) -> Self {
        let kind = match &err {
            ClientError::ConnectionLost(_) => ErrorKind::ConnectionReset,
            ClientError::Timeout => ErrorKind::TimedOut,
            ClientError::FrameTooLarge(_) | ClientError::Protocol(_) => ErrorKind::InvalidData,
            ClientError::Io(e) => e.kind(),
        };
        std::io::Error::new(kind, err)
    }
}

/// A typed predict request: which model, which vectors, and how urgent.
///
/// Construct via [`PredictRequest::builder`]. The class defaults to
/// [`RequestClass::Interactive`]; with neither [`slo`] nor [`deadline`]
/// set, the server applies its per-class default SLO.
///
/// [`slo`]: PredictRequestBuilder::slo
/// [`deadline`]: PredictRequestBuilder::deadline
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Registry name of the target model.
    pub model: String,
    /// Query vectors (one response value per vector).
    pub vectors: Vec<SparseVec>,
    /// Scheduling class.
    pub class: RequestClass,
    /// Explicit SLO in microseconds; `0` defers to `deadline_ms`.
    pub slo_us: u32,
    /// Legacy whole-millisecond deadline; `0` defers to the server's
    /// per-class default.
    pub deadline_ms: u32,
}

impl PredictRequest {
    /// Starts building a predict request against `model`.
    pub fn builder(model: impl Into<String>) -> PredictRequestBuilder {
        PredictRequestBuilder {
            req: PredictRequest {
                model: model.into(),
                vectors: Vec::new(),
                class: RequestClass::Interactive,
                slo_us: 0,
                deadline_ms: 0,
            },
        }
    }
}

/// Builder for [`PredictRequest`].
#[derive(Debug, Clone)]
pub struct PredictRequestBuilder {
    req: PredictRequest,
}

impl PredictRequestBuilder {
    /// Appends one query vector.
    pub fn vector(mut self, v: SparseVec) -> Self {
        self.req.vectors.push(v);
        self
    }

    /// Appends many query vectors.
    pub fn vectors(mut self, vs: impl IntoIterator<Item = SparseVec>) -> Self {
        self.req.vectors.extend(vs);
        self
    }

    /// Sets the scheduling class.
    pub fn class(mut self, class: RequestClass) -> Self {
        self.req.class = class;
        self
    }

    /// Sets an explicit SLO. Sub-microsecond durations round up to 1 µs
    /// (so a set SLO is never silently dropped); durations beyond
    /// `u32::MAX` µs (≈ 71 min) saturate.
    pub fn slo(mut self, slo: Duration) -> Self {
        let us = slo.as_micros().clamp(1, u128::from(u32::MAX)) as u32;
        self.req.slo_us = us;
        self
    }

    /// Sets the legacy millisecond-granularity deadline (ignored by the
    /// server when an SLO is also set). Sub-millisecond durations round
    /// up to 1 ms; beyond `u32::MAX` ms saturates.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        let ms = deadline.as_millis().clamp(1, u128::from(u32::MAX)) as u32;
        self.req.deadline_ms = ms;
        self
    }

    /// Finalises the request.
    pub fn build(self) -> PredictRequest {
        self.req
    }
}

impl From<&PredictRequest> for Request {
    fn from(r: &PredictRequest) -> Self {
        Request::Predict {
            model: r.model.clone(),
            deadline_ms: r.deadline_ms,
            class: r.class,
            slo_us: r.slo_us,
            vectors: r.vectors.clone(),
        }
    }
}

/// A typed schedule request: pick a layout for an explicit matrix.
///
/// Construct via [`ScheduleRequest::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleRequest {
    /// Strategy name (empty string = server default).
    pub strategy: String,
    /// Matrix rows.
    pub rows: u64,
    /// Matrix columns.
    pub cols: u64,
    /// `(row, col, value)` triplets.
    pub entries: Vec<(u64, u64, f64)>,
}

impl ScheduleRequest {
    /// Starts building a schedule request for an `rows × cols` matrix.
    pub fn builder(rows: u64, cols: u64) -> ScheduleRequestBuilder {
        ScheduleRequestBuilder {
            req: ScheduleRequest { strategy: String::new(), rows, cols, entries: Vec::new() },
        }
    }
}

/// Builder for [`ScheduleRequest`].
#[derive(Debug, Clone)]
pub struct ScheduleRequestBuilder {
    req: ScheduleRequest,
}

impl ScheduleRequestBuilder {
    /// Selects a strategy by wire name (default: server's configured one).
    pub fn strategy(mut self, strategy: impl Into<String>) -> Self {
        self.req.strategy = strategy.into();
        self
    }

    /// Appends one matrix entry.
    pub fn entry(mut self, row: u64, col: u64, value: f64) -> Self {
        self.req.entries.push((row, col, value));
        self
    }

    /// Appends many matrix entries.
    pub fn entries(mut self, es: impl IntoIterator<Item = (u64, u64, f64)>) -> Self {
        self.req.entries.extend(es);
        self
    }

    /// Finalises the request.
    pub fn build(self) -> ScheduleRequest {
        self.req
    }
}

impl From<&ScheduleRequest> for Request {
    fn from(r: &ScheduleRequest) -> Self {
        Request::Schedule {
            strategy: r.strategy.clone(),
            rows: r.rows,
            cols: r.cols,
            entries: r.entries.clone(),
        }
    }
}

/// A connected client that multiplexes many in-flight requests over one
/// connection.
///
/// [`PipelinedClient::submit`] writes a frame tagged with a fresh
/// `frame_id` and returns immediately; [`PipelinedClient::wait`] returns
/// the response for one id, stashing any that arrive for other frames
/// first. The protocol lets a server answer in any order; `dls-serve`
/// answers each connection's frames in submission order, which is one
/// such order. [`PipelinedClient::request`] and the calls built on it are
/// the one-in-flight case: submit, then wait.
///
/// The client is synchronous and single-threaded: no background reader,
/// no locks. `wait`/`recv` block on the socket only when the wanted
/// response has not already been stashed.
pub struct PipelinedClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Ids submitted whose responses have not been read off the wire.
    awaited: Vec<u64>,
    /// Responses read off the wire while waiting for a different frame.
    stash: VecDeque<(u64, Response)>,
}

impl PipelinedClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            next_id: 1,
            awaited: Vec::new(),
            stash: VecDeque::new(),
        })
    }

    /// Bounds how long [`PipelinedClient::recv`]/[`wait`](Self::wait) may
    /// block on the socket; `None` waits indefinitely.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Frames submitted whose responses have not been returned yet.
    pub fn in_flight(&self) -> usize {
        self.awaited.len() + self.stash.len()
    }

    /// Writes one request frame and returns its `frame_id` without
    /// waiting for the response.
    pub fn submit(&mut self, req: &Request) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.writer, &encode_request_framed(req, PROTO_VERSION, id))
            .map_err(|e| ClientError::from_io(e, "sending the request"))?;
        self.awaited.push(id);
        Ok(id)
    }

    /// Returns the next available response: a stashed one if any, else
    /// the next frame off the wire, in the order the server finished them.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        match self.stash.pop_front() {
            Some(entry) => Ok(entry),
            None => self.read_one(),
        }
    }

    /// Blocks until the response for `frame_id` arrives, stashing any
    /// responses for other in-flight frames that arrive first.
    pub fn wait(&mut self, frame_id: u64) -> Result<Response, ClientError> {
        if let Some(pos) = self.stash.iter().position(|(id, _)| *id == frame_id) {
            let (_, resp) = self.stash.remove(pos).expect("position just found");
            return Ok(resp);
        }
        loop {
            let (id, resp) = self.read_one()?;
            if id == frame_id {
                return Ok(resp);
            }
            self.stash.push_back((id, resp));
        }
    }

    /// Sends one raw request and waits for its response, with failures
    /// classified as [`ClientError`]s. A broken pipe, reset, or short
    /// read mid-response surfaces as [`ClientError::ConnectionLost`]
    /// (retryable on a fresh connection); a garbled response surfaces as
    /// [`ClientError::Protocol`] (this connection is no longer
    /// frame-aligned and should be dropped).
    pub fn try_request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let id = self.submit(req)?;
        self.wait(id)
    }

    /// [`PipelinedClient::try_request`] with the typed error flattened
    /// into `std::io::Error` (the [`ClientError`] rides along as the
    /// error's inner source).
    pub fn request(&mut self, req: &Request) -> std::io::Result<Response> {
        self.try_request(req).map_err(std::io::Error::from)
    }

    /// Sends a built request ([`PredictRequest`] or [`ScheduleRequest`])
    /// and waits for its response.
    pub fn send<R>(&mut self, req: R) -> std::io::Result<Response>
    where
        Request: From<R>,
    {
        self.request(&Request::from(req))
    }

    /// Fetches the telemetry snapshot JSON.
    pub fn stats(&mut self) -> std::io::Result<String> {
        match self.request(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected Stats, got {other:?}"),
            )),
        }
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Shutdown)
    }

    /// Reads the next response off the wire. With nothing awaited the read
    /// would block forever; and a reply under an id that is not awaited
    /// means a corrupt stream — an error, never a stash entry that a caller
    /// waiting on its own id reads past.
    fn read_one(&mut self) -> Result<(u64, Response), ClientError> {
        if self.awaited.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                ErrorKind::InvalidInput,
                "no request is in flight, so no response can arrive",
            )));
        }
        let payload = read_frame(&mut self.reader)
            .map_err(|e| ClientError::from_io(e, "reading the response"))?
            .ok_or_else(|| {
                ClientError::ConnectionLost("server closed the connection mid-request".to_string())
            })?;
        let (_, id, resp) =
            decode_response_framed(&payload).map_err(|e| ClientError::Protocol(e.to_string()))?;
        match self.awaited.iter().position(|&awaited| awaited == id) {
            Some(pos) => {
                self.awaited.remove(pos);
                Ok((id, resp))
            }
            None => Err(ClientError::Protocol(format!(
                "response for frame {id}, which is not in flight: {resp:?}"
            ))),
        }
    }
}

/// Retry shaping for [`RetryClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total tries per request, including the first (so `1` = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Retries remaining across the *whole client lifetime*. A budget
    /// stops a persistent outage from multiplying every request by
    /// `max_attempts` forever; once spent, failures surface immediately.
    pub retry_budget: u32,
    /// Whether a typed [`Response::Busy`] is retried like a transient
    /// failure (the server sheds batch work with `Busy` during brown-out,
    /// so batch callers usually want this).
    pub retry_busy: bool,
    /// Seed for backoff jitter; fixed seed = reproducible schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(500),
            retry_budget: 64,
            retry_busy: true,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry number `retry` (1-based):
    /// exponential doubling capped at [`RetryPolicy::max_backoff`], then
    /// scaled into `[50%, 100%]` so synchronized clients decorrelate.
    fn backoff(&self, retry: u32, rng: &mut SplitMix64) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << retry.saturating_sub(1).min(20));
        let capped = exp.min(self.max_backoff);
        capped.mul_f64(0.5 + 0.5 * rng.next_f64())
    }
}

/// A self-healing client: reconnects on connection loss and retries
/// retryable failures under a [`RetryPolicy`].
///
/// A policy over [`PipelinedClient`]: it holds the server address rather
/// than a socket, so a dead connection is an event to recover from rather
/// than the end of the client. Only failures that [`ClientError::is_retryable`]
/// (and optionally [`Response::Busy`]) are retried; protocol violations
/// and oversized frames fail fast, since resending cannot fix them.
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    read_timeout: Option<Duration>,
    rng: SplitMix64,
    budget_left: u32,
    conn: Option<PipelinedClient>,
}

impl RetryClient {
    /// Creates a client for `addr`. Connection is lazy — the first request
    /// dials (and benefits from retry if the dial itself fails).
    pub fn with_policy(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        let rng = SplitMix64::new(policy.seed);
        let budget_left = policy.retry_budget;
        Self { addr: addr.into(), policy, read_timeout: None, rng, budget_left, conn: None }
    }

    /// Bounds how long each attempt waits on the socket for its response
    /// (a stalled read then counts as a retryable [`ClientError::Timeout`]).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
        if let Some(conn) = &self.conn {
            conn.set_read_timeout(timeout).ok();
        }
    }

    /// Retries left in the lifetime budget.
    pub fn retries_left(&self) -> u32 {
        self.budget_left
    }

    fn ensure_connected(&mut self) -> Result<&mut PipelinedClient, ClientError> {
        if self.conn.is_none() {
            let client = PipelinedClient::connect(&self.addr)
                .map_err(|e| ClientError::from_io(e, "connecting"))?;
            client
                .set_read_timeout(self.read_timeout)
                .map_err(|e| ClientError::from_io(e, "configuring the socket"))?;
            self.conn = Some(client);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// Sends one raw request, reconnecting and retrying per the policy.
    /// Returns the last failure once attempts or the budget run out.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let outcome = match self.ensure_connected() {
                Ok(conn) => conn.try_request(req),
                Err(e) => Err(e),
            };
            let may_retry = attempt < self.policy.max_attempts.max(1) && self.budget_left > 0;
            match outcome {
                Ok(Response::Busy) if self.policy.retry_busy && may_retry => {
                    // The connection is healthy — the server refused the
                    // work. Keep the socket, wait, resend.
                    self.budget_left -= 1;
                    std::thread::sleep(self.policy.backoff(attempt, &mut self.rng));
                }
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_retryable() && may_retry => {
                    // The connection can no longer be trusted (lost, or a
                    // response may still be in flight after a timeout):
                    // drop it and redial after the backoff.
                    self.conn = None;
                    self.budget_left -= 1;
                    std::thread::sleep(self.policy.backoff(attempt, &mut self.rng));
                }
                Err(e) => {
                    if matches!(e, ClientError::ConnectionLost(_) | ClientError::Protocol(_)) {
                        self.conn = None;
                    }
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_builder_defaults_and_knobs() {
        let req = PredictRequest::builder("m").build();
        assert_eq!(
            req,
            PredictRequest {
                model: "m".to_string(),
                vectors: vec![],
                class: RequestClass::Interactive,
                slo_us: 0,
                deadline_ms: 0,
            }
        );
        let req = PredictRequest::builder("m")
            .vector(SparseVec::new(4, vec![0], vec![1.0]))
            .vectors([SparseVec::zeros(4), SparseVec::zeros(4)])
            .class(RequestClass::Batch)
            .slo(Duration::from_millis(20))
            .deadline(Duration::from_secs(2))
            .build();
        assert_eq!(req.vectors.len(), 3);
        assert_eq!(req.class, RequestClass::Batch);
        assert_eq!(req.slo_us, 20_000);
        assert_eq!(req.deadline_ms, 2_000);
        // Tiny durations round up instead of vanishing; huge ones saturate.
        let req = PredictRequest::builder("m")
            .slo(Duration::from_nanos(1))
            .deadline(Duration::from_nanos(1))
            .build();
        assert_eq!((req.slo_us, req.deadline_ms), (1, 1));
        let req = PredictRequest::builder("m").slo(Duration::from_secs(1 << 40)).build();
        assert_eq!(req.slo_us, u32::MAX);
    }

    #[test]
    fn builders_lower_to_wire_requests() {
        let p = PredictRequest::builder("m")
            .vector(SparseVec::new(4, vec![1], vec![2.0]))
            .class(RequestClass::Batch)
            .slo(Duration::from_micros(500))
            .build();
        match Request::from(&p) {
            Request::Predict { model, deadline_ms, class, slo_us, vectors } => {
                assert_eq!(model, "m");
                assert_eq!(deadline_ms, 0);
                assert_eq!(class, RequestClass::Batch);
                assert_eq!(slo_us, 500);
                assert_eq!(vectors.len(), 1);
            }
            other => panic!("unexpected request {other:?}"),
        }
        let s = ScheduleRequest::builder(3, 4).strategy("cost").entry(0, 1, 5.0).build();
        match Request::from(&s) {
            Request::Schedule { strategy, rows, cols, entries } => {
                assert_eq!(strategy, "cost");
                assert_eq!((rows, cols), (3, 4));
                assert_eq!(entries, vec![(0, 1, 5.0)]);
            }
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn client_errors_classify_and_flatten() {
        for kind in [
            ErrorKind::BrokenPipe,
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
            ErrorKind::UnexpectedEof,
        ] {
            let e = ClientError::from_io(std::io::Error::new(kind, "boom"), "test");
            assert!(matches!(e, ClientError::ConnectionLost(_)), "{kind:?} -> {e:?}");
            assert!(e.is_retryable());
        }
        let e = ClientError::from_io(std::io::Error::new(ErrorKind::TimedOut, "slow"), "test");
        assert!(matches!(e, ClientError::Timeout));
        assert!(e.is_retryable());
        let e = ClientError::from_io(
            std::io::Error::new(ErrorKind::InvalidData, ProtoError::FrameTooLarge(99)),
            "test",
        );
        assert!(matches!(e, ClientError::FrameTooLarge(99)));
        assert!(!e.is_retryable());
        assert!(!ClientError::Protocol("junk".into()).is_retryable());
        // Flattening keeps the typed error as the io::Error source.
        let io: std::io::Error = ClientError::ConnectionLost("gone".into()).into();
        assert_eq!(io.kind(), ErrorKind::ConnectionReset);
        assert!(io.get_ref().unwrap().downcast_ref::<ClientError>().is_some());
    }

    #[test]
    fn receiving_with_nothing_in_flight_fails_instead_of_blocking() {
        // A bare listener: the connect completes from its backlog and no
        // byte is ever sent back. The read timeout turns a regression into
        // a failed assertion rather than a hung test.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client =
            PipelinedClient::connect(listener.local_addr().expect("addr")).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(2))).expect("read timeout");
        for err in [client.recv().unwrap_err(), client.wait(1).unwrap_err()] {
            match err {
                ClientError::Io(e) => assert_eq!(e.kind(), ErrorKind::InvalidInput),
                other => panic!("expected InvalidInput, got {other:?}"),
            }
        }
        assert_eq!(client.in_flight(), 0);
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_within_bounds() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
            ..Default::default()
        };
        let mut rng = SplitMix64::new(7);
        for retry in 1..=8u32 {
            let nominal =
                Duration::from_millis((10u64 << (retry - 1)).min(40)).min(policy.max_backoff);
            for _ in 0..16 {
                let b = policy.backoff(retry, &mut rng);
                assert!(b >= nominal.mul_f64(0.5), "retry {retry}: {b:?} under jitter floor");
                assert!(b <= nominal, "retry {retry}: {b:?} over nominal {nominal:?}");
            }
        }
        // Same seed, same schedule: determinism for reproducible chaos runs.
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let sched_a: Vec<Duration> = (1..5).map(|r| policy.backoff(r, &mut a)).collect();
        let sched_b: Vec<Duration> = (1..5).map(|r| policy.backoff(r, &mut b)).collect();
        assert_eq!(sched_a, sched_b);
    }

    #[test]
    fn retry_client_exhausts_budget_against_a_dead_address() {
        // Nothing listens on this port (bound but not accepting is racy;
        // an unroutable connect on loopback fails fast with refused).
        let policy = RetryPolicy {
            max_attempts: 3,
            retry_budget: 2,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(200),
            ..Default::default()
        };
        let mut client = RetryClient::with_policy("127.0.0.1:1", policy);
        let err = client.request(&Request::Stats).unwrap_err();
        // ConnectionRefused is not retryable (nothing is listening), so
        // the budget stays intact and the error surfaces immediately.
        assert!(matches!(err, ClientError::Io(_)), "got {err:?}");
        assert_eq!(client.retries_left(), 2);
        assert!(client.conn.is_none());
    }
}
