//! dls-serve: an SLO-aware batching SVM inference + layout-scheduling
//! service.
//!
//! The paper's §V observation — blocked SMSV kernels amortise a format's
//! per-sweep overhead across many vectors — is applied here *across
//! clients*: concurrent single-vector `Predict` requests against the same
//! model are coalesced by a batching executor into one
//! [`dls_sparse::MatrixFormat::smsv_block`] sweep (up to
//! [`dls_sparse::MAX_SMSV_BLOCK`] vectors). The drain is work-conserving:
//! a free worker sweeps a lone request at once, and requests coalesce only
//! when they queue behind a running sweep, so coalescing costs no latency
//! at rest and grows with load. Because the blocked kernels accumulate per
//! row in a composition-independent order, coalesced responses are
//! bit-identical to per-vector evaluation.
//!
//! Coalescing is great for throughput but blind to urgency, so requests
//! carry a *class* ([`proto::RequestClass`]: interactive or batch) and an
//! optional per-request SLO on the wire. One drain rule decides what a
//! sweep may contain: queues drain interactive first, and batch work
//! fills only the capacity interactive leaves. Each served model's sweep
//! times are measured when it is registered (`latency::SweepTable`: real
//! blocked sweeps of its own scheduled matrix at six batch sizes), and
//! that table feeds predictive admission control: requests whose
//! projected completion already overshoots their deadline are refused
//! with `Busy` at submit time instead of timing out in the queue.
//!
//! The service is std-only: a hand-rolled length-prefixed wire protocol
//! ([`proto`]), bounded per-model classed queues with reject-don't-buffer
//! backpressure and an interactive admission reserve (`queue`),
//! per-class SLO accounting, and graceful drain-on-shutdown. Telemetry
//! ([`stats`]) exposes request latencies, per-class SLO violation rates,
//! batch-size histograms, queue depths, and each model's scheduled layout.
//!
//! The serving path is failure-hardened end to end ([`fault`],
//! `brownout`): a seeded deterministic fault-injection plan can be
//! threaded through connection I/O, kernel execution, and the registry
//! (a no-op by default); connections carry read/write timeouts and
//! self-reap when idle; kernel panics are caught, isolated, and answered
//! with a per-model degradation ladder (healthy → degraded onto an
//! analytically-selected fallback layout → quarantined); the client side
//! classifies failures ([`client::ClientError`]) and
//! [`client::RetryClient`] reconnects with jittered exponential backoff
//! under a retry budget; and a brown-out controller sheds batch load when
//! the interactive SLO violation rate or queue pressure crosses its
//! threshold. Every fault
//! and degradation event is counted in the stats JSON, and a `Health`
//! request reports the live ladder.
//!
//! The I/O front end ([`server`]) is thread-per-connection, with a stated
//! ceiling of [`server::MAX_CONNECTIONS`] open connections; one past it
//! is closed at accept, which a client sees as a retryable lost
//! connection. There is one wire format, and every frame carries a
//! `frame_id`, so the one client ([`client::PipelinedClient`]) can
//! pipeline many requests on one socket and match each response to its
//! request by id; a frame of any other protocol version is refused with a
//! typed error. The executor runs sharded per-model lanes with idle-worker
//! work stealing, counted in the stats JSON's `executor.steals`.
//!
//! Layer map:
//!
//! ```text
//! client  ---id'd frames--->   server (acceptor + one thread per
//!    |                          |    connection, <= MAX_CONNECTIONS,
//!    |  PipelinedClient:        |    read/write/idle timeouts,
//!    |  many frames in flight   |    FaultStream I/O wrapper)
//!    |  RetryClient: a policy   |  admission: projected miss / queue
//!    |  over it, redial+backoff |  full / brown-out shed -> Busy
//!    |                          v
//!    |                       executor (sharded worker pool + stealing,
//!    |                          |       per-model ClassedQueues,
//!    |                          |       drain rule, catch_unwind
//!    |                          |       panic isolation, BrownoutController)
//!    |                          |  coalesce <= MAX_SMSV_BLOCK vectors
//!    |                          v
//!    |                       registry (ServedModel: scheduled +
//!    |                          |       instrumented support matrix,
//!    |                          |       measured sweep table,
//!    |                          |       health ladder + fallback layout)
//!    |                          v
//!    '--- typed errors      svm::predict_batch_with -> sparse::smsv_block
//! ```

#![forbid(unsafe_code)]

mod brownout;
pub mod client;
mod discipline;
pub mod executor;
pub mod fault;
mod latency;
pub mod proto;
mod queue;
pub mod registry;
pub mod server;
pub mod stats;

pub use client::{
    ClientError, PipelinedClient, PredictRequest, RetryClient, RetryPolicy, ScheduleRequest,
};
pub use executor::{Executor, ExecutorConfig};
pub use fault::{FaultAction, FaultInjector, FaultKind, FaultPlan, FaultSite, SplitMix64};
pub use proto::{
    decode_request_framed, decode_response_framed, encode_request_framed, encode_response_framed,
    proto_error_of, ProtoError, Request, RequestClass, Response, MAX_FRAME_LEN, PROTO_VERSION,
};
pub use registry::{ModelHealth, ModelRegistry, ServedModel};
pub use server::{start, ServerConfig, ServerHandle};
pub use stats::{parse_block_hist, ClassStats, DegradeCounters, FaultCounters, ServeStats};
