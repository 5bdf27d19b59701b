//! The TCP compile server: accept loop, per-connection request handling,
//! and graceful drain-on-shutdown.
//!
//! Each connection gets a handler thread that processes its requests
//! strictly in order (so responses are index-stable per connection);
//! concurrency comes from many connections feeding the shared worker pool
//! through the bounded priority queue. Submissions whose content address
//! is already cached are answered inline without touching the queue.
//!
//! Shutdown (the `SHUTDOWN` command or [`ServerHandle::shutdown`]) flips
//! the server to draining: new submissions are refused, the queue closes,
//! and the caller blocks until every *accepted* job has compiled and
//! replied — nothing accepted is ever dropped.

use crate::cache::{insert_payload, CacheKey, ResultCache};
use crate::disk::DiskCache;
use crate::json::Json;
use crate::metrics::{cache_fields, Metrics};
use crate::protocol::{
    circuit_content_hash, compile_payload, error_response, parse_request, CacheOp, Request,
    SubmitRequest, SweepRequest,
};
use crate::queue::{JobQueue, PushError};
use crate::worker::{effective_workers, spawn_workers, Job, JobOutcome};
use parallax_circuit::CircuitTemplate;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (0 = available CPUs).
    pub workers: usize,
    /// Job queue capacity (backpressure bound).
    pub queue_capacity: usize,
    /// Result cache budget in **payload bytes** (0 disables caching). A
    /// giant schedule is charged what it costs; see [`ResultCache`].
    pub cache_capacity: usize,
    /// Directory for the disk-backed result-cache tier (`None` disables).
    /// Payloads written here survive restarts: a fresh process pointed at
    /// the same directory answers previously-seen keys without
    /// recompiling.
    pub disk_cache_dir: Option<String>,
    /// How long a submission may wait for queue space before it is
    /// rejected with a `queue full` error (0 = reject immediately).
    pub enqueue_timeout_ms: u64,
    /// Hard cap on one request line's length, bytes. An oversized line is
    /// consumed (to resynchronize on the next newline) and answered with a
    /// structured error instead of being buffered without bound — one
    /// hostile connection cannot balloon the server's memory.
    pub max_line_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 8 * 1024 * 1024,
            disk_cache_dir: None,
            enqueue_timeout_ms: 1000,
            max_line_bytes: 8 * 1024 * 1024,
        }
    }
}

/// State shared between connection handlers and workers.
pub struct ServiceShared {
    /// The bounded priority job queue.
    pub queue: JobQueue<Job>,
    /// Content-addressed result cache (in-memory tier, byte-budgeted).
    pub cache: Mutex<ResultCache>,
    /// Restart-surviving disk tier, when configured. Probed on an
    /// in-memory miss; compiled payloads are written through.
    pub disk: Option<DiskCache>,
    /// Live counters.
    pub metrics: Metrics,
    /// Recent (internal span id → client-supplied trace id) pairs, so the
    /// `TRACE` op can annotate a span tree with the correlation string the
    /// client actually knows. Bounded FIFO; untagged requests (the server
    /// minted the wire id from the span id) need no entry.
    trace_tags: Mutex<std::collections::VecDeque<(u64, String)>>,
}

/// How many client-tagged requests the `TRACE` annotation map remembers —
/// comfortably more than the span ring holds distinct traces.
const TRACE_TAG_CAPACITY: usize = 256;

impl ServiceShared {
    /// Remember that spans tagged with internal id `num` belong to the
    /// client-supplied trace id `tag`.
    fn record_trace_tag(&self, num: u64, tag: &str) {
        let mut tags = self.trace_tags.lock().expect("trace tags lock");
        if tags.len() == TRACE_TAG_CAPACITY {
            tags.pop_front();
        }
        tags.push_back((num, tag.to_string()));
    }

    /// The client-supplied trace id recorded for internal id `num`, if any.
    fn client_trace_tag(&self, num: u64) -> Option<String> {
        let tags = self.trace_tags.lock().expect("trace tags lock");
        tags.iter().rev().find(|(n, _)| *n == num).map(|(_, t)| t.clone())
    }

    /// Cache counters as the `STATS` sub-object. `capacity`/`weight` are
    /// payload bytes; the `disk` sub-object reports the restart-surviving
    /// tier (all-zero `len`/counters when no disk dir is configured, so
    /// the snapshot shape is stable either way).
    fn cache_json(&self) -> Json {
        let stats = self.cache.lock().expect("cache lock").stats();
        let d = self.disk.as_ref();
        let count = |f: fn(&DiskCache) -> u64| Json::Int(d.map_or(0, f));
        let disk = Json::obj(vec![
            ("enabled", Json::Bool(d.is_some())),
            ("len", count(|d| d.len() as u64)),
            ("hits", count(|d| d.hits.get())),
            ("misses", count(|d| d.misses.get())),
            ("stores", count(|d| d.stores.get())),
            ("store_errors", count(|d| d.store_errors.get())),
        ]);
        let mut fields = cache_fields(stats);
        fields.push(("disk", disk));
        Json::obj(fields)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainPhase {
    Running,
    Draining,
    Drained,
}

struct ServerCore {
    shared: Arc<ServiceShared>,
    /// Whether new *submissions* are accepted. Cleared by `DRAIN` and
    /// shutdown; stats/metrics/admin traffic keeps flowing either way.
    accepting: AtomicBool,
    /// Whether the accept loop should stop taking connections entirely.
    /// Only shutdown sets this — a drained shard still answers its admin
    /// plane on new connections.
    exiting: AtomicBool,
    workers: Mutex<Option<Vec<JoinHandle<()>>>>,
    drain: Mutex<DrainPhase>,
    drained: Condvar,
    addr: SocketAddr,
    enqueue_timeout: Duration,
    max_line_bytes: usize,
    started: Instant,
    /// Set (after the shutdown response has been written to its client)
    /// to release [`ServerHandle::wait_until_drained`]; signalling only
    /// post-write keeps the daemon from exiting before the ack leaves.
    exit_requested: Mutex<bool>,
    exit: Condvar,
}

impl ServerCore {
    /// Drive (or wait for) the graceful drain: refuse new jobs, close the
    /// queue, and block until the workers have finished every accepted job.
    fn drain(&self) {
        let mut phase = self.drain.lock().expect("drain lock");
        match *phase {
            DrainPhase::Drained => {}
            DrainPhase::Draining => {
                while *phase != DrainPhase::Drained {
                    phase = self.drained.wait(phase).expect("drain lock");
                }
            }
            DrainPhase::Running => {
                *phase = DrainPhase::Draining;
                drop(phase);
                self.accepting.store(false, Ordering::SeqCst);
                self.shared.queue.close();
                let workers = self.workers.lock().expect("workers lock").take().unwrap_or_default();
                for w in workers {
                    let _ = w.join();
                }
                *self.drain.lock().expect("drain lock") = DrainPhase::Drained;
                self.drained.notify_all();
            }
        }
    }

    /// Stop the accept loop (connected clients finish their in-flight
    /// request/response; new connections are refused). The final step of
    /// shutdown — never part of a plain `DRAIN`.
    fn stop_accepting_connections(&self) {
        self.exiting.store(true, Ordering::SeqCst);
        // Unblock the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running compile server. Dropping the handle shuts it down.
pub struct ServerHandle {
    core: Arc<ServerCore>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.core.addr
    }

    /// Shared state (queue/cache/metrics), e.g. for tests and embedding.
    pub fn shared(&self) -> &Arc<ServiceShared> {
        &self.core.shared
    }

    /// Gracefully shut down: drain accepted jobs, stop the accept loop,
    /// and join it. Idempotent.
    pub fn shutdown(&mut self) {
        self.core.drain();
        self.core.stop_accepting_connections();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until some client initiates shutdown (the `SHUTDOWN`
    /// command) and its acknowledgement has been written back, then finish
    /// the drain and stop — the serve daemon's main loop.
    pub fn wait_until_drained(&mut self) {
        {
            let mut requested = self.core.exit_requested.lock().expect("exit lock");
            while !*requested {
                requested = self.core.exit.wait(requested).expect("exit lock");
            }
        }
        self.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start a server per `config`; returns once the listener is bound.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    // Expose the compiler's cache gauges/counters through the process-wide
    // metrics registry before the first `METRICS` request can arrive.
    parallax_core::register_observability();
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let disk = match &config.disk_cache_dir {
        Some(dir) => Some(DiskCache::open(dir)?),
        None => None,
    };
    let shared = Arc::new(ServiceShared {
        queue: JobQueue::new(config.queue_capacity),
        cache: Mutex::new(ResultCache::new(config.cache_capacity)),
        disk,
        metrics: Metrics::default(),
        trace_tags: Mutex::new(std::collections::VecDeque::new()),
    });
    let workers = spawn_workers(effective_workers(config.workers), shared.clone());
    let core = Arc::new(ServerCore {
        shared,
        accepting: AtomicBool::new(true),
        exiting: AtomicBool::new(false),
        workers: Mutex::new(Some(workers)),
        drain: Mutex::new(DrainPhase::Running),
        drained: Condvar::new(),
        addr,
        enqueue_timeout: Duration::from_millis(config.enqueue_timeout_ms),
        max_line_bytes: config.max_line_bytes.max(1),
        started: Instant::now(),
        exit_requested: Mutex::new(false),
        exit: Condvar::new(),
    });
    let accept_core = core.clone();
    let accept_thread = std::thread::Builder::new()
        .name("parallax-accept".to_string())
        .spawn(move || accept_loop(&listener, &accept_core))?;
    Ok(ServerHandle { core, accept_thread: Some(accept_thread) })
}

fn accept_loop(listener: &TcpListener, core: &Arc<ServerCore>) {
    for stream in listener.incoming() {
        if core.exiting.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let core = core.clone();
        let _ = std::thread::Builder::new()
            .name("parallax-conn".to_string())
            .spawn(move || handle_connection(stream, &core));
    }
}

/// One framing read: a complete line, an oversized line (consumed through
/// its newline so the connection can resynchronize), or end of stream.
pub(crate) enum FrameRead {
    /// A complete frame (final unterminated frames before EOF included,
    /// matching `BufRead::lines`): raw bytes, newline stripped.
    Line(Vec<u8>),
    /// The line exceeded the cap; its bytes were discarded.
    Oversized,
    /// Clean end of stream.
    Eof,
}

/// Read one newline-delimited frame, buffering at most `cap` bytes. An
/// over-cap line is drained chunk by chunk (never held in memory) until
/// its newline or EOF, then reported as [`FrameRead::Oversized`] so the
/// caller can answer with a structured error and keep serving.
pub(crate) fn read_frame_capped(
    reader: &mut impl BufRead,
    cap: usize,
) -> std::io::Result<FrameRead> {
    let mut out: Vec<u8> = Vec::new();
    let mut overflowed = false;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(match (overflowed, out.is_empty()) {
                (true, _) => FrameRead::Oversized,
                (false, true) => FrameRead::Eof,
                (false, false) => FrameRead::Line(out),
            });
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(available.len());
        if !overflowed {
            if out.len() + take > cap {
                overflowed = true;
                out = Vec::new();
            } else {
                out.extend_from_slice(&available[..take]);
            }
        }
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            return Ok(if overflowed { FrameRead::Oversized } else { FrameRead::Line(out) });
        }
    }
}

fn handle_connection(stream: TcpStream, core: &Arc<ServerCore>) {
    // Interactive request/response over tiny messages: Nagle's algorithm
    // would add tens of milliseconds per roundtrip, so send each response
    // as one immediate write.
    let _ = stream.set_nodelay(true);
    let Ok(reader_stream) = stream.try_clone() else { return };
    let mut writer = stream;
    let mut reader = BufReader::new(reader_stream);
    loop {
        let (mut response, was_shutdown) = match read_frame_capped(&mut reader, core.max_line_bytes)
        {
            Err(_) | Ok(FrameRead::Eof) => break,
            Ok(FrameRead::Oversized) => {
                Metrics::inc(&core.shared.metrics.bad_requests);
                (
                    error_response(
                        &format!(
                            "request line exceeds {} bytes; split the submission or raise \
                             the server's line cap",
                            core.max_line_bytes
                        ),
                        None,
                    ),
                    false,
                )
            }
            Ok(FrameRead::Line(bytes)) => match String::from_utf8(bytes) {
                Err(_) => {
                    Metrics::inc(&core.shared.metrics.bad_requests);
                    (error_response("request line is not valid UTF-8", None), false)
                }
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => handle_request(&line, core),
            },
        };
        response.push('\n');
        let written = writer.write_all(response.as_bytes());
        if was_shutdown {
            // Only now — with the drain complete *and* the ack on the wire
            // — may the daemon's wait_until_drained() proceed to exit.
            *core.exit_requested.lock().expect("exit lock") = true;
            core.exit.notify_all();
        }
        if written.is_err() {
            break;
        }
    }
}

/// Dispatch one request line to its handler; always returns one response
/// line (never panics on malformed input). The flag marks a shutdown
/// request whose drain has completed.
fn handle_request(line: &str, core: &Arc<ServerCore>) -> (String, bool) {
    let shared = &core.shared;
    match parse_request(line) {
        Err(e) => {
            Metrics::inc(&shared.metrics.bad_requests);
            (error_response(&e, None), false)
        }
        Ok(Request::Ping) => (
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("pong", Json::Bool(true)),
                ("uptime_us", Json::Int(core.started.elapsed().as_micros() as u64)),
            ])
            .encode(),
            false,
        ),
        Ok(Request::Stats) => {
            let stats = shared.metrics.to_json(
                shared.queue.len(),
                shared.queue.capacity(),
                shared.cache_json(),
            );
            // The trace id rides the response *wrapper* so the `stats`
            // object itself keeps its pinned (golden-tested) shape.
            let trace = format!("{:016x}", parallax_trace::next_trace_id());
            (
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("trace_id", Json::Str(trace)),
                    ("stats", stats),
                ])
                .encode(),
                false,
            )
        }
        Ok(Request::Metrics) => (
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("metrics", Json::Str(parallax_trace::render_prometheus())),
            ])
            .encode(),
            false,
        ),
        Ok(Request::Trace { limit }) => (trace_response(shared, limit), false),
        Ok(Request::Shutdown) => {
            core.drain();
            (
                Json::obj(vec![("ok", Json::Bool(true)), ("drained", Json::Bool(true))]).encode(),
                true,
            )
        }
        Ok(Request::Drain) => {
            core.drain();
            (
                Json::obj(vec![("ok", Json::Bool(true)), ("drained", Json::Bool(true))]).encode(),
                false,
            )
        }
        Ok(Request::Cache(op)) => (handle_cache_op(op, core), false),
        Ok(Request::Shards) => (shard_role_response(core), false),
        Ok(Request::Submit(req)) => (handle_submit(&req, core), false),
        Ok(Request::SubmitSweep(req)) => (handle_sweep(&req, core), false),
    }
}

/// The admin `CACHE` ops: flush the in-memory tier, resize its byte
/// budget, or persist it to disk. Every response carries the post-op
/// cache snapshot so the admin sees the effect without a second round
/// trip.
fn handle_cache_op(op: CacheOp, core: &Arc<ServerCore>) -> String {
    let shared = &core.shared;
    let mut pairs = vec![("ok", Json::Bool(true))];
    match op {
        CacheOp::Flush => {
            shared.cache.lock().expect("cache lock").clear();
            pairs.push(("flushed", Json::Bool(true)));
        }
        CacheOp::Resize { bytes } => {
            shared.cache.lock().expect("cache lock").set_capacity(bytes);
            pairs.push(("resized", Json::Int(bytes as u64)));
        }
        CacheOp::Persist => {
            let Some(disk) = &shared.disk else {
                return error_response(
                    "no disk cache configured (start the server with --disk-cache DIR)",
                    None,
                );
            };
            // Copy the entries out, then write them with the lock released:
            // each store fsyncs, and submits and workers probe this cache.
            let entries: Vec<(CacheKey, String)> = {
                let cache = shared.cache.lock().expect("cache lock");
                cache.iter().map(|(key, payload)| (*key, payload.clone())).collect()
            };
            for (key, payload) in &entries {
                disk.store(key, payload);
            }
            pairs.push(("persisted", Json::Int(entries.len() as u64)));
        }
    }
    pairs.push(("cache", shared.cache_json()));
    Json::obj(pairs).encode()
}

/// A plain shard's `SHARDS` answer: its role and vitals. The router
/// overrides this with the full topology; a shard answering for itself is
/// what lets an admin point the same client at either tier.
fn shard_role_response(core: &Arc<ServerCore>) -> String {
    let shared = &core.shared;
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("role", Json::Str("shard".into())),
        ("accepting", Json::Bool(core.accepting.load(Ordering::SeqCst))),
        ("uptime_us", Json::Int(core.started.elapsed().as_micros() as u64)),
        ("queue_depth", Json::Int(shared.queue.len() as u64)),
        ("cache", shared.cache_json()),
    ])
    .encode()
}

/// The `TRACE` response: the most recent per-request span trees still in
/// the ring buffer, newest first. When tracing is disabled the list is
/// empty — the `enabled` flag tells the client which case it is seeing.
/// Trees whose request carried a client-supplied trace id additionally
/// report it as `client_trace_id`, joining the tree to the id the client
/// saw echoed in its response.
fn trace_response(shared: &ServiceShared, limit: usize) -> String {
    let traces = parallax_trace::recent_traces(limit);
    let trees: Vec<Json> = traces
        .iter()
        .map(|t| {
            let events: Vec<Json> = t
                .events
                .iter()
                .map(|e| {
                    Json::obj(vec![
                        ("name", Json::Str(e.name.to_string())),
                        ("tid", Json::Int(u64::from(e.tid))),
                        ("depth", Json::Int(u64::from(e.depth))),
                        ("ts_ns", Json::Int(e.ts_ns)),
                        ("dur_ns", Json::Int(e.dur_ns)),
                    ])
                })
                .collect();
            let mut pairs = vec![("trace_id", Json::Str(format!("{:016x}", t.trace_id)))];
            if let Some(tag) = shared.client_trace_tag(t.trace_id) {
                pairs.push(("client_trace_id", Json::Str(tag)));
            }
            pairs.push(("events", Json::Arr(events)));
            Json::obj(pairs)
        })
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("enabled", Json::Bool(parallax_trace::enabled())),
        ("dropped_events", Json::Int(parallax_trace::dropped_events())),
        ("traces", Json::Arr(trees)),
    ])
    .encode()
}

fn handle_submit(req: &SubmitRequest, core: &Arc<ServerCore>) -> String {
    let shared = &core.shared;
    let arrived = Instant::now();
    // Every submission gets a numeric trace id tagging its spans in the
    // ring buffer; the *wire* id echoed back is the client's own string
    // when supplied, else the hex rendering of the minted id.
    let trace_num = parallax_trace::next_trace_id();
    let trace = req.trace.clone().unwrap_or_else(|| format!("{trace_num:016x}"));
    if req.trace.is_some() {
        shared.record_trace_tag(trace_num, &trace);
    }
    // Tag connection-thread work (the cache probe) too, not just the
    // worker's compile.
    let _scope = parallax_trace::trace_id_scope(trace_num);
    if !core.accepting.load(Ordering::SeqCst) {
        Metrics::inc(&shared.metrics.rejected_shutdown);
        return error_response("server is shutting down", req.id);
    }
    let (compiler, circuit) = match req.resolve() {
        Ok(pair) => pair,
        Err(e) => {
            Metrics::inc(&shared.metrics.bad_requests);
            return error_response(&e, req.id);
        }
    };

    let key =
        CacheKey { circuit: circuit_content_hash(&circuit), compiler: compiler.fingerprint() };
    if let Some(payload) = shared.cache.lock().expect("cache lock").get(&key).cloned() {
        Metrics::inc(&shared.metrics.cache_hits);
        let response = ok_response(req.id, &trace, true, &payload, arrived);
        shared.metrics.latency.record(arrived.elapsed().as_micros() as u64);
        return response;
    }
    // Memory missed — probe the restart-surviving disk tier. A hit is
    // promoted into memory (warming the fresh process for its keyspace)
    // and served as cached, byte-identical to the compile that wrote it.
    if let Some(disk) = &shared.disk {
        if let Some(payload) = disk.load(&key) {
            insert_payload(&mut shared.cache.lock().expect("cache lock"), key, payload.clone());
            Metrics::inc(&shared.metrics.cache_hits);
            let response = ok_response(req.id, &trace, true, &payload, arrived);
            shared.metrics.latency.record(arrived.elapsed().as_micros() as u64);
            return response;
        }
    }

    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job { circuit, compiler, key, trace_id: trace_num, reply: reply_tx };
    match shared.queue.push_timeout(job, req.priority, core.enqueue_timeout) {
        Err(PushError::Full(_)) => {
            Metrics::inc(&shared.metrics.rejected_full);
            return error_response(
                &format!("queue full ({} jobs queued); retry later", shared.queue.capacity()),
                req.id,
            );
        }
        Err(PushError::Closed(_)) => {
            Metrics::inc(&shared.metrics.rejected_shutdown);
            return error_response("server is shutting down", req.id);
        }
        Ok(()) => {
            // Count the miss only once the job is actually accepted, so a
            // queue-full storm doesn't masquerade as a collapsing hit rate.
            Metrics::inc(&shared.metrics.cache_misses);
            Metrics::inc(&shared.metrics.submitted);
        }
    }
    let response = match reply_rx.recv() {
        Ok(JobOutcome::Done { payload, .. }) => {
            ok_response(req.id, &trace, false, &payload, arrived)
        }
        Ok(JobOutcome::Failed { error }) => {
            error_response(&format!("compilation failed: {error}"), req.id)
        }
        // Workers only exit after draining the closed queue, so an accepted
        // job always gets a reply; a broken channel means a worker died.
        Err(_) => error_response("internal error: worker disappeared", req.id),
    };
    shared.metrics.latency.record(arrived.elapsed().as_micros() as u64);
    response
}

/// Serve a parameter sweep inline on the connection thread: compile (or
/// fetch) the structure's [`parallax_core::CompiledTemplate`] once, then
/// answer every point with a parameter rebind against the shared artifact.
///
/// The response is a *stream*: one sweep header line followed by one line
/// per point, joined with `\n` (the connection loop appends the final
/// newline). Every point probes the process-wide template cache, so a cold
/// N-point sweep reports exactly 1 miss + N−1 hits; repeat sweeps are all
/// hits. Invalid sweeps (arity mismatch, non-finite angles) are refused
/// with a single structured error *before* any compilation — the server
/// keeps serving.
fn handle_sweep(req: &SweepRequest, core: &Arc<ServerCore>) -> String {
    use std::fmt::Write as _;
    let shared = &core.shared;
    let arrived = Instant::now();
    let id = req.submit.id;
    let trace_num = parallax_trace::next_trace_id();
    let trace = req.submit.trace.clone().unwrap_or_else(|| format!("{trace_num:016x}"));
    if req.submit.trace.is_some() {
        shared.record_trace_tag(trace_num, &trace);
    }
    // One trace id for the whole sweep: every per-point template probe and
    // rebind span lands in the same tree.
    let _scope = parallax_trace::trace_id_scope(trace_num);
    if !core.accepting.load(Ordering::SeqCst) {
        Metrics::inc(&shared.metrics.rejected_shutdown);
        return error_response("server is shutting down", id);
    }
    let (compiler, circuit) = match req.submit.resolve() {
        Ok(pair) => pair,
        Err(e) => {
            Metrics::inc(&shared.metrics.bad_requests);
            return error_response(&e, id);
        }
    };

    // Validate every point against the structure's slot count up front: the
    // template shape is cheap (no compile), so a bad sweep costs nothing.
    let expected = CircuitTemplate::from_circuit(&circuit).num_params();
    for (i, point) in req.params.iter().enumerate() {
        if point.len() != expected {
            Metrics::inc(&shared.metrics.bad_requests);
            return error_response(
                &format!(
                    "sweep point {i}: parameter count mismatch: template has {expected} \
                     slots, got {}",
                    point.len()
                ),
                id,
            );
        }
        if let Some(j) = point.iter().position(|v| !v.is_finite()) {
            Metrics::inc(&shared.metrics.bad_requests);
            return error_response(
                &format!("sweep point {i}: parameter {j} is not finite ({})", point[j]),
                id,
            );
        }
    }

    // Key the template cache once for the whole sweep: the key renders the
    // slot-canonical QASM text, which would otherwise be the single largest
    // per-point cost. Each point still probes the cache itself, so the
    // hit/miss accounting stays per point (1 miss + N-1 hits when cold).
    let key = parallax_core::template_key(&compiler, &circuit);

    let mut lines = vec![String::new()]; // header placeholder, filled last
    let mut payload: Option<String> = None;
    let mut hits = 0u64;
    for (i, point) in req.params.iter().enumerate() {
        let t0 = Instant::now();
        let (template, cached) = parallax_core::compiled_template_keyed(key, &compiler, &circuit);
        // Materialize the bound circuit — the artifact a backend would
        // execute — and attest it per point via its bit-exact hash
        // (`circuit_bits_hash`, not the QASM text hash: float formatting
        // would dominate the rebind and defeat the microsecond budget).
        let bound = match template.rebind(point) {
            Ok(b) => b,
            Err(e) => {
                // Unreachable after the up-front validation, but a sweep
                // must never panic the connection thread.
                Metrics::inc(&shared.metrics.bad_requests);
                return error_response(&format!("sweep point {i}: {e}"), id);
            }
        };
        let bound_hash = parallax_circuit::circuit_bits_hash(&bound);
        let ns = t0.elapsed().as_nanos() as u64;
        let payload = payload.get_or_insert_with(|| compile_payload(template.result()).encode());
        Metrics::inc(&shared.metrics.sweep_points);
        if cached {
            hits += 1;
            Metrics::inc(&shared.metrics.template_cache_hits);
            shared.metrics.rebind_ns.add(ns);
        } else {
            Metrics::inc(&shared.metrics.template_cache_misses);
        }
        let mut line = String::with_capacity(payload.len() + 96);
        let _ = write!(
            line,
            "{{\"ok\":true,\"point\":{i},\"cached\":{cached},\"rebind_ns\":{ns},\
             \"bound_hash\":\"{bound_hash:016x}\",\"result\":{payload}}}"
        );
        lines.push(line);
    }

    let total_us = arrived.elapsed().as_micros() as u64;
    let mut header = String::with_capacity(128);
    header.push_str("{\"ok\":true,\"sweep\":true,");
    if let Some(id) = id {
        let _ = write!(header, "\"id\":{id},");
    }
    let _ = write!(
        header,
        "\"trace_id\":{},\"points\":{},\"params_per_point\":{expected},\
         \"template_cache_hits\":{hits},\"total_us\":{total_us}}}",
        Json::Str(trace).encode(),
        req.params.len()
    );
    lines[0] = header;
    shared.metrics.latency.record(total_us);
    lines.join("\n")
}

fn ok_response(
    id: Option<u64>,
    trace: &str,
    cached: bool,
    payload: &str,
    arrived: Instant,
) -> String {
    // The payload is already canonically encoded, so splice it in verbatim
    // — no parse/re-encode on the serving hot path, and the served
    // `result` stays byte-identical to a direct compile's encoding.
    use std::fmt::Write as _;
    let mut out = String::with_capacity(payload.len() + 96);
    out.push_str("{\"ok\":true,");
    if let Some(id) = id {
        let _ = write!(out, "\"id\":{id},");
    }
    let _ = write!(
        out,
        "\"trace_id\":{},\"cached\":{cached},\"total_us\":{},\"result\":{payload}}}",
        Json::Str(trace.to_string()).encode(),
        arrived.elapsed().as_micros()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn test_server(workers: usize, queue: usize, cache: usize) -> ServerHandle {
        start(ServerConfig {
            workers,
            queue_capacity: queue,
            cache_capacity: cache,
            enqueue_timeout_ms: 50,
            ..Default::default()
        })
        .expect("bind ephemeral port")
    }

    fn submit_line(workload: &str, seed: u64) -> String {
        format!("{{\"cmd\":\"submit\",\"workload\":\"{workload}\",\"seed\":{seed},\"quick\":true}}")
    }

    #[test]
    fn handles_requests_in_process() {
        let server = test_server(2, 8, 1 << 20);
        let core = &server.core;
        let pong = json::parse(&handle_request("{\"cmd\":\"ping\"}", core).0).unwrap();
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

        let first = json::parse(&handle_request(&submit_line("ADD", 1), core).0).unwrap();
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
        let repeat = json::parse(&handle_request(&submit_line("ADD", 1), core).0).unwrap();
        assert_eq!(repeat.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            first.get("result").unwrap().encode(),
            repeat.get("result").unwrap().encode(),
            "cache must serve the identical payload"
        );

        let stats = json::parse(&handle_request("{\"cmd\":\"stats\"}", core).0).unwrap();
        let stats = stats.get("stats").unwrap();
        assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("cache_misses").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn responses_carry_trace_ids_and_echo_client_supplied_ones() {
        let server = test_server(1, 4, 1 << 20);
        let core = &server.core;
        // Server-minted: 16 lowercase hex digits.
        let r = json::parse(&handle_request(&submit_line("ADD", 11), core).0).unwrap();
        let minted = r.get("trace_id").and_then(Json::as_str).expect("trace_id").to_string();
        assert_eq!(minted.len(), 16, "minted ids are 16-hex: {minted}");
        assert!(minted.chars().all(|c| c.is_ascii_hexdigit()));
        // Client-supplied: echoed verbatim (and on the cached path too).
        let tagged = "{\"cmd\":\"submit\",\"workload\":\"ADD\",\"seed\":11,\"quick\":true,\
             \"trace_id\":\"corr-abc\"}";
        let r = json::parse(&handle_request(tagged, core).0).unwrap();
        assert_eq!(r.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(r.get("trace_id").and_then(Json::as_str), Some("corr-abc"));
        // Stats responses are tagged on the wrapper, not inside `stats`.
        let s = json::parse(&handle_request("{\"cmd\":\"stats\"}", core).0).unwrap();
        assert!(s.get("trace_id").and_then(Json::as_str).is_some());
        assert!(s.get("stats").unwrap().get("trace_id").is_none());
    }

    #[test]
    fn metrics_op_serves_prometheus_text() {
        let server = test_server(1, 4, 1 << 20);
        let core = &server.core;
        let _ = handle_request(&submit_line("QFT", 2), core).0;
        let r = json::parse(&handle_request("{\"cmd\":\"metrics\"}", core).0).unwrap();
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        let text = r.get("metrics").and_then(Json::as_str).expect("metrics text");
        assert!(text.contains("# TYPE parallax_service_events_total counter"), "{text}");
        assert!(text.contains("parallax_compile_stat_total"), "{text}");
        assert!(text.contains("parallax_service_latency_us_bucket"), "{text}");
    }

    /// The trace enable flag is process-global: tests that flip it must not
    /// interleave, or one test's `set_enabled(false)` lands mid-compile in
    /// the other and its spans never record.
    fn trace_flag_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn trace_op_returns_span_trees_when_enabled() {
        let _flag = trace_flag_lock();
        let server = test_server(1, 4, 1 << 20);
        let core = &server.core;
        parallax_trace::set_enabled(true);
        let r = json::parse(&handle_request(&submit_line("TFIM", 5), core).0).unwrap();
        parallax_trace::set_enabled(false);
        let wire = r.get("trace_id").and_then(Json::as_str).unwrap().to_string();
        let t = json::parse(&handle_request("{\"cmd\":\"trace\",\"limit\":64}", core).0).unwrap();
        assert_eq!(t.get("ok").and_then(Json::as_bool), Some(true));
        let traces = match t.get("traces") {
            Some(Json::Arr(a)) => a,
            other => panic!("traces must be an array, got {other:?}"),
        };
        let tree = traces
            .iter()
            .find(|tr| tr.get("trace_id").and_then(Json::as_str) == Some(wire.as_str()))
            .expect("the traced submit's tree is retrievable by its wire id");
        let events = match tree.get("events") {
            Some(Json::Arr(a)) => a,
            other => panic!("events must be an array, got {other:?}"),
        };
        let names: Vec<&str> =
            events.iter().filter_map(|e| e.get("name").and_then(Json::as_str)).collect();
        assert!(names.contains(&"compile"), "{names:?}");
        assert!(names.contains(&"stage.schedule"), "{names:?}");
    }

    #[test]
    fn trace_op_annotates_client_tagged_requests() {
        let _flag = trace_flag_lock();
        let server = test_server(1, 4, 1 << 20);
        let core = &server.core;
        parallax_trace::set_enabled(true);
        let tagged = "{\"cmd\":\"submit\",\"workload\":\"SAT\",\"seed\":9,\"quick\":true,\
                      \"trace_id\":\"corr-xyz\"}";
        let r = json::parse(&handle_request(tagged, core).0).unwrap();
        parallax_trace::set_enabled(false);
        assert_eq!(r.get("trace_id").and_then(Json::as_str), Some("corr-xyz"));
        let t = json::parse(&handle_request("{\"cmd\":\"trace\",\"limit\":64}", core).0).unwrap();
        let traces = match t.get("traces") {
            Some(Json::Arr(a)) => a,
            other => panic!("traces must be an array, got {other:?}"),
        };
        let tree = traces
            .iter()
            .find(|tr| tr.get("client_trace_id").and_then(Json::as_str) == Some("corr-xyz"))
            .expect("client-tagged tree is annotated with its correlation id");
        assert!(tree.get("trace_id").and_then(Json::as_str).is_some());
    }

    #[test]
    fn rejects_invalid_submissions_without_queueing() {
        let server = test_server(1, 4, 1 << 20);
        let core = &server.core;
        for bad in [
            "{\"cmd\":\"submit\",\"workload\":\"NOPE\"}",
            "{\"cmd\":\"submit\",\"qasm\":\"not qasm\"}",
        ] {
            let r = json::parse(&handle_request(bad, core).0).unwrap();
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
        }
        assert_eq!(server.shared().queue.len(), 0);
    }

    #[test]
    fn oversized_circuit_is_rejected_up_front() {
        let server = test_server(1, 4, 1 << 20);
        // 300 declared qubits outsize the 256-site quera machine.
        let qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[300];\nh q[0];\n";
        let req = Json::obj(vec![
            ("cmd", Json::Str("submit".into())),
            ("qasm", Json::Str(qasm.into())),
            ("quick", Json::Bool(true)),
        ])
        .encode();
        let r = json::parse(&handle_request(&req, &server.core).0).unwrap();
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        assert!(r.get("error").and_then(Json::as_str).unwrap().contains("300 qubits"));
    }

    /// A two-u3 + one-cz circuit: 6 parameter slots, structure unique to
    /// this test so its template-cache key cannot collide across the suite.
    fn sweep_qasm() -> &'static str {
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
         u3(0.1,0.2,0.3) q[0];\nu3(0.4,0.5,0.6) q[1];\ncz q[0],q[1];\n"
    }

    fn sweep_line(params: &str) -> String {
        let req = Json::obj(vec![
            ("cmd", Json::Str("submit-sweep".into())),
            ("qasm", Json::Str(sweep_qasm().into())),
            ("seed", Json::Int(0xA11CE)),
            ("quick", Json::Bool(true)),
            ("id", Json::Int(7)),
        ])
        .encode();
        // Splice the raw params array in so tests control the exact JSON.
        format!("{},\"params\":{params}}}", &req[..req.len() - 1])
    }

    #[test]
    fn sweep_streams_one_line_per_point_from_one_template() {
        let server = test_server(1, 4, 1 << 20);
        let core = &server.core;
        let line =
            sweep_line("[[0.1,0.2,0.3,0.4,0.5,0.6],[1.0,2.0,3.0,4.0,5.0,6.0],[0,0,0,0,0,0]]");
        let response = handle_request(&line, core).0;
        let lines: Vec<&str> = response.split('\n').collect();
        assert_eq!(lines.len(), 4, "header + 3 points:\n{response}");

        let header = json::parse(lines[0]).unwrap();
        assert_eq!(header.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(header.get("sweep").and_then(Json::as_bool), Some(true));
        assert_eq!(header.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(header.get("points").and_then(Json::as_u64), Some(3));
        assert_eq!(header.get("params_per_point").and_then(Json::as_u64), Some(6));
        assert_eq!(header.get("template_cache_hits").and_then(Json::as_u64), Some(2));

        let points: Vec<Json> = lines[1..].iter().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(points[0].get("cached").and_then(Json::as_bool), Some(false));
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.get("point").and_then(Json::as_u64), Some(i as u64));
            assert!(p.get("rebind_ns").and_then(Json::as_u64).is_some());
            assert_eq!(
                p.get("result").unwrap().encode(),
                points[0].get("result").unwrap().encode(),
                "every point shares the structure's payload"
            );
        }
        assert_eq!(points[1].get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(points[2].get("cached").and_then(Json::as_bool), Some(true));
        // Distinct angles → distinct bound circuits, attested per point.
        assert_ne!(
            points[0].get("bound_hash").and_then(Json::as_str),
            points[1].get("bound_hash").and_then(Json::as_str)
        );

        // A repeat sweep is all hits.
        let repeat = handle_request(&sweep_line("[[9,8,7,6,5,4]]"), core).0;
        let header = json::parse(repeat.split('\n').next().unwrap()).unwrap();
        assert_eq!(header.get("template_cache_hits").and_then(Json::as_u64), Some(1));

        let stats = json::parse(&handle_request("{\"cmd\":\"stats\"}", core).0).unwrap();
        let stats = stats.get("stats").unwrap();
        assert_eq!(stats.get("sweep_points").and_then(Json::as_u64), Some(4));
        assert_eq!(stats.get("template_cache_hits").and_then(Json::as_u64), Some(3));
        assert_eq!(stats.get("template_cache_misses").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn sweep_rejects_bad_points_with_one_structured_error() {
        let server = test_server(1, 4, 1 << 20);
        let core = &server.core;
        for (params, needle) in [
            ("[[0.1,0.2]]", "parameter count mismatch"),
            ("[[0.1,0.2,0.3,0.4,0.5,1e999]]", "not finite"),
        ] {
            let response = handle_request(&sweep_line(params), core).0;
            assert!(!response.contains('\n'), "errors are single-line: {response}");
            let r = json::parse(&response).unwrap();
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{params}");
            assert!(r.get("error").and_then(Json::as_str).unwrap().contains(needle), "{response}");
            assert_eq!(r.get("id").and_then(Json::as_u64), Some(7));
        }
        // The server keeps compiling after refused sweeps.
        let ok = json::parse(&handle_request(&submit_line("ADD", 3), core).0).unwrap();
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_new_submits() {
        let mut server = test_server(2, 8, 1 << 20);
        let ok = json::parse(&handle_request(&submit_line("MLT", 1), &server.core).0).unwrap();
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        let drained =
            json::parse(&handle_request("{\"cmd\":\"shutdown\"}", &server.core).0).unwrap();
        assert_eq!(drained.get("drained").and_then(Json::as_bool), Some(true));
        let refused = json::parse(&handle_request(&submit_line("MLT", 2), &server.core).0).unwrap();
        assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
        // Stats still served while draining/drained.
        let stats = json::parse(&handle_request("{\"cmd\":\"stats\"}", &server.core).0).unwrap();
        assert_eq!(
            stats.get("stats").and_then(|s| s.get("rejected_shutdown")).and_then(Json::as_u64),
            Some(1)
        );
        server.shutdown();
        server.shutdown(); // idempotent
    }
}
