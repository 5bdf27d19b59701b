//! # `parallax-service`: the concurrent compile server
//!
//! Turns the deterministic Parallax pipeline into a long-running serving
//! subsystem: a multi-threaded TCP server that accepts OpenQASM (or
//! Table III workload) jobs over a newline-delimited JSON protocol,
//! schedules them through a bounded priority queue onto a worker pool,
//! and answers repeat submissions from a content-addressed, in-memory LRU
//! result cache — without ever recompiling. Everything is `std`-only: the
//! wire protocol, JSON codec, queue, cache, and metrics are hand-rolled
//! because the build environment has no registry access.
//!
//! ## Architecture
//!
//! ```text
//! client ──TCP──▶ connection thread ──▶ bounded priority JobQueue ──▶ worker pool
//!                      │    ▲                                            │
//!                      │    └──────────── reply channel ◀────────────────┤
//!                      ▼                                                 ▼
//!                 result cache ◀───────── canonical payloads ────────────┘
//! ```
//!
//! * Responses on one connection are strictly request-ordered
//!   (index-stable); concurrency comes from many connections.
//! * The cache key is (stable circuit hash, machine+config fingerprint),
//!   so a hit can only serve a payload the compiler would have reproduced
//!   bit-identically ([`cache`], [`protocol::circuit_content_hash`]).
//! * A full queue is backpressure: the submit is refused with a `queue
//!   full` error after `enqueue_timeout_ms`, never silently dropped.
//! * Shutdown drains: accepted jobs all complete and reply before the
//!   `SHUTDOWN` response is sent ([`server`]).
//! * The shard ([`server`]) and the fabric router ([`router`]) run on one
//!   connection layer ([`listener`]): the accept loop, capped line
//!   framing, one write per response, and the handle that stops them.
//! * `STATS` reports job counters, queue depth, cache hit rate, and a
//!   log-bucket latency histogram ([`metrics`]).
//! * `METRICS` serves the unified observability registry (service
//!   counters, compiler stage timers, cache gauges, latency histograms)
//!   as Prometheus text exposition; `TRACE` returns the most recent
//!   per-request span trees when the server runs with `PARALLAX_TRACE=1`.
//!   Every submit/sweep/stats response carries a `trace_id` — client
//!   supplied (echoed verbatim) or server-minted 16-hex — correlating it
//!   with those spans.
//! * `submit-sweep` serves variational parameter sweeps: one structure, N
//!   parameter vectors, answered as a streamed header + per-point lines.
//!   The structure compiles once into a process-wide
//!   [`CompiledTemplate`](parallax_core::CompiledTemplate) cache; every
//!   other point is a microsecond-scale parameter rebind, with per-point
//!   `rebind_ns` and `template_cache_hits` reported in `STATS`.
//!
//! ## Running it
//!
//! ```text
//! cargo run --release -p parallax-service --bin parallax-serve -- --addr 127.0.0.1:7878
//! cargo run --release -p parallax-service --bin parallax-client -- \
//!     --addr 127.0.0.1:7878 submit --workload QFT --seed 3
//! cargo run --release -p parallax-service --bin parallax-client -- \
//!     --addr 127.0.0.1:7878 submit path/to/circuit.qasm
//! cargo run --release -p parallax-service --bin parallax-client -- \
//!     --addr 127.0.0.1:7878 sweep --workload QAOA --points 100
//! cargo run --release -p parallax-service --bin parallax-client -- \
//!     --addr 127.0.0.1:7878 stats
//! cargo run --release -p parallax-service --bin parallax-client -- \
//!     --addr 127.0.0.1:7878 shutdown
//! ```
//!
//! Or from code:
//!
//! ```
//! use parallax_service::{start, ServerConfig, ServiceClient, SubmitRequest, SubmitSource};
//!
//! let mut server = start(ServerConfig::default()).unwrap();
//! let mut client = ServiceClient::connect(server.addr()).unwrap();
//! let reply = client
//!     .submit(SubmitRequest {
//!         source: SubmitSource::Workload("ADD".into()),
//!         quick: true,
//!         ..Default::default()
//!     })
//!     .unwrap();
//! assert_eq!(reply.result.get("swaps").and_then(|s| s.as_u64()), Some(0));
//! server.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod json;
pub mod listener;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod router;
pub mod server;
pub mod worker;

pub use cache::{CacheKey, ResultCache};
pub use client::{
    render_stats, ClientError, ServiceClient, SubmitReply, SweepPointReply, SweepReply,
};
pub use json::{Json, JsonError};
pub use listener::MAX_LINE_BYTES;
pub use metrics::{LatencyHistogram, Metrics};
pub use protocol::{
    circuit_content_hash, compile_payload, encode_request, parse_request, schedule_digest, Request,
    SubmitRequest, SubmitSource, SweepRequest, DEFAULT_TRACE_LIMIT,
};
pub use queue::{JobQueue, PushError};
pub use router::{start_router, RouterConfig, RouterHandle};
pub use server::{start, ServerConfig, ServerHandle, ServiceShared};
pub use worker::{Job, JobOutcome};
