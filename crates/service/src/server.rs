//! The TCP compile server: request handling and graceful drain-on-shutdown
//! on top of the shared connection layer ([`crate::listener`]).
//!
//! Each connection gets a handler thread that processes its requests
//! strictly in order (so responses are index-stable per connection);
//! concurrency comes from many connections feeding the shared worker pool
//! through the bounded priority queue. Submissions whose content address
//! is in the in-memory result cache are answered inline without touching
//! the queue; every other submission compiles. The cache lives and dies
//! with the process.
//!
//! Shutdown (the `SHUTDOWN` command or [`ServerHandle::shutdown`]) flips
//! the server to draining: new submissions are refused, the queue closes,
//! and the caller blocks until every *accepted* job has compiled and
//! replied — nothing accepted is ever dropped.

use crate::cache::{CacheKey, ResultCache};
use crate::json::Json;
use crate::listener::{self, span_trees, trace_response, Handle, Tier};
use crate::metrics::{cache_fields, Metrics};
use crate::protocol::{
    circuit_content_hash, compile_payload, error_response, parse_request, CacheOp, Request,
    SubmitRequest, SweepRequest,
};
use crate::queue::{JobQueue, PushError};
use crate::worker::{effective_workers, spawn_workers, Job, JobOutcome};
use parallax_circuit::CircuitTemplate;
use std::net::TcpListener;
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
    /// How long a submission may wait for queue space before it is
    /// rejected with a `queue full` error (0 = reject immediately).
    pub enqueue_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 8 * 1024 * 1024,
            enqueue_timeout_ms: 1000,
        }
    }
}

/// State shared between connection handlers and workers.
pub struct ServiceShared {
    /// The bounded priority job queue.
    pub queue: JobQueue<Job>,
    /// Content-addressed result cache (byte-budgeted).
    pub cache: Mutex<ResultCache>,
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

    /// Cache counters as the `STATS` sub-object; `capacity`/`weight` are
    /// payload bytes.
    fn cache_json(&self) -> Json {
        Json::obj(cache_fields(self.cache.lock().expect("cache lock").stats()))
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
    workers: Mutex<Option<Vec<JoinHandle<()>>>>,
    drain: Mutex<DrainPhase>,
    drained: Condvar,
    enqueue_timeout: Duration,
    started: Instant,
}

impl ServerCore {
    fn new(config: &ServerConfig) -> Self {
        let shared = Arc::new(ServiceShared {
            queue: JobQueue::new(config.queue_capacity),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            metrics: Metrics::default(),
            trace_tags: Mutex::new(std::collections::VecDeque::new()),
        });
        let workers = spawn_workers(effective_workers(config.workers), shared.clone());
        Self {
            shared,
            accepting: AtomicBool::new(true),
            workers: Mutex::new(Some(workers)),
            drain: Mutex::new(DrainPhase::Running),
            drained: Condvar::new(),
            enqueue_timeout: Duration::from_millis(config.enqueue_timeout_ms),
            started: Instant::now(),
        }
    }

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
}

impl Tier for ServerCore {
    const NAME: &'static str = "parallax";
    type Conn = ();

    fn open(&self) {}

    fn respond(&self, line: &str, _: &mut ()) -> (String, bool) {
        handle_request(line, self)
    }

    fn count_rejected_frame(&self) {
        self.shared.metrics.bad_requests.inc();
    }

    fn stop(&self) {
        self.drain();
    }
}

/// A running compile server. Dropping the handle drains and shuts it down.
pub type ServerHandle = Handle;

/// Start a server per `config`; returns once the listener is bound.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    // Expose the compiler's cache gauges/counters through the process-wide
    // metrics registry before the first `METRICS` request can arrive.
    parallax_core::register_observability();
    let listener = TcpListener::bind(&config.addr)?;
    listener::serve(listener, Arc::new(ServerCore::new(&config)))
}

/// Dispatch one request line to its handler; always returns one response
/// line (never panics on malformed input). The flag marks a shutdown
/// request whose drain has completed.
fn handle_request(line: &str, core: &ServerCore) -> (String, bool) {
    let shared = &core.shared;
    match parse_request(line) {
        Err(e) => {
            shared.metrics.bad_requests.inc();
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
            (listener::stats_response(stats), false)
        }
        Ok(Request::Metrics) => (listener::metrics_response(), false),
        Ok(Request::Trace { limit }) => {
            let traces = span_trees(limit, |id| {
                shared.client_trace_tag(id).map(|tag| ("client_trace_id", Json::Str(tag)))
            });
            let response =
                trace_response(parallax_trace::enabled(), parallax_trace::dropped_events(), traces);
            (response, false)
        }
        Ok(request @ (Request::Shutdown | Request::Drain)) => {
            core.drain();
            let drained = Json::obj(vec![("ok", Json::Bool(true)), ("drained", Json::Bool(true))]);
            (drained.encode(), request == Request::Shutdown)
        }
        Ok(Request::Cache(op)) => (handle_cache_op(op, core), false),
        Ok(Request::Shards) => (shard_role_response(core), false),
        Ok(Request::Submit(req)) => (handle_submit(&req, core), false),
        Ok(Request::SubmitSweep(req)) => (handle_sweep(&req, core), false),
    }
}

/// The admin `CACHE` ops: flush the result cache or resize its byte
/// budget. Every response carries the post-op cache snapshot so the admin
/// sees the effect without a second round trip.
fn handle_cache_op(op: CacheOp, core: &ServerCore) -> String {
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
    }
    pairs.push(("cache", shared.cache_json()));
    Json::obj(pairs).encode()
}

/// A plain shard's `SHARDS` answer: its role and vitals. The router
/// overrides this with the full topology; a shard answering for itself is
/// what lets an admin point the same client at either tier.
fn shard_role_response(core: &ServerCore) -> String {
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

fn handle_submit(req: &SubmitRequest, core: &ServerCore) -> String {
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
        shared.metrics.rejected_shutdown.inc();
        return error_response("server is shutting down", req.id);
    }
    let (compiler, circuit) = match req.resolve() {
        Ok(pair) => pair,
        Err(e) => {
            shared.metrics.bad_requests.inc();
            return error_response(&e, req.id);
        }
    };

    let key =
        CacheKey { circuit: circuit_content_hash(&circuit), compiler: compiler.fingerprint() };
    if let Some(payload) = shared.cache.lock().expect("cache lock").get(&key).cloned() {
        shared.metrics.cache_hits.inc();
        let response = ok_response(req.id, &trace, true, &payload, arrived);
        shared.metrics.latency.record(arrived.elapsed().as_micros() as u64);
        return response;
    }

    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let job = Job { circuit, compiler, key, trace_id: trace_num, reply: reply_tx };
    match shared.queue.push_timeout(job, req.priority, core.enqueue_timeout) {
        Err(PushError::Full(_)) => {
            shared.metrics.rejected_full.inc();
            return error_response(
                &format!("queue full ({} jobs queued); retry later", shared.queue.capacity()),
                req.id,
            );
        }
        Err(PushError::Closed(_)) => {
            shared.metrics.rejected_shutdown.inc();
            return error_response("server is shutting down", req.id);
        }
        Ok(()) => {
            // Count the miss only once the job is actually accepted, so a
            // queue-full storm doesn't masquerade as a collapsing hit rate.
            shared.metrics.cache_misses.inc();
            shared.metrics.submitted.inc();
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
fn handle_sweep(req: &SweepRequest, core: &ServerCore) -> String {
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
        shared.metrics.rejected_shutdown.inc();
        return error_response("server is shutting down", id);
    }
    let (compiler, circuit) = match req.submit.resolve() {
        Ok(pair) => pair,
        Err(e) => {
            shared.metrics.bad_requests.inc();
            return error_response(&e, id);
        }
    };

    // Validate every point against the structure's slot count up front: the
    // template shape is cheap (no compile), so a bad sweep costs nothing.
    let expected = CircuitTemplate::from_circuit(&circuit).num_params();
    for (i, point) in req.params.iter().enumerate() {
        if point.len() != expected {
            shared.metrics.bad_requests.inc();
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
            shared.metrics.bad_requests.inc();
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
                shared.metrics.bad_requests.inc();
                return error_response(&format!("sweep point {i}: {e}"), id);
            }
        };
        let bound_hash = parallax_circuit::circuit_bits_hash(&bound);
        let ns = t0.elapsed().as_nanos() as u64;
        let payload = payload.get_or_insert_with(|| compile_payload(template.result()).encode());
        shared.metrics.sweep_points.inc();
        if cached {
            hits += 1;
            shared.metrics.template_cache_hits.inc();
            shared.metrics.rebind_ns.add(ns);
        } else {
            shared.metrics.template_cache_misses.inc();
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

    /// A served core: the handle (draining on drop) and the core its
    /// connections answer from, for driving `handle_request` directly.
    fn test_server(workers: usize, queue: usize, cache: usize) -> (ServerHandle, Arc<ServerCore>) {
        let config = ServerConfig {
            workers,
            queue_capacity: queue,
            cache_capacity: cache,
            enqueue_timeout_ms: 50,
            ..Default::default()
        };
        let core = Arc::new(ServerCore::new(&config));
        let listener = TcpListener::bind(&config.addr).expect("bind ephemeral port");
        (listener::serve(listener, core.clone()).expect("serve"), core)
    }

    fn submit_line(workload: &str, seed: u64) -> String {
        format!("{{\"cmd\":\"submit\",\"workload\":\"{workload}\",\"seed\":{seed},\"quick\":true}}")
    }

    /// Poll `done` every 2 ms for up to 20 s; panic with `what` otherwise.
    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn full_queue_pushes_back_instead_of_accepting_silently() {
        // One worker, one queue slot, immediate rejection.
        let config = ServerConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 1 << 20,
            enqueue_timeout_ms: 0,
            ..Default::default()
        };
        let core = Arc::new(ServerCore::new(&config));
        // Occupy the worker with a job it cannot finish until the test
        // takes its outcome: the reply channel has no slot, so the worker's
        // send waits for the receive below, however fast the compile is.
        let mut b = parallax_circuit::CircuitBuilder::new(3);
        b.h(0).cx(0, 1).cx(1, 2);
        let circuit = b.build();
        let compiler = parallax_core::ParallaxCompiler::new(
            parallax_hardware::MachineSpec::quera_aquila_256(),
            parallax_core::CompilerConfig::quick(1),
        );
        let key = CacheKey { circuit: 0, compiler: 0 };
        let (hold_tx, hold_rx) = mpsc::sync_channel(0);
        let hold = Job { circuit, compiler, key, trace_id: 0, reply: hold_tx };
        assert!(core.shared.queue.try_push(hold, 0).is_ok(), "the empty queue takes the hold job");
        wait_until("the worker claims the hold job", || core.shared.queue.is_empty());

        // Fill the single queue slot through the protocol...
        let queued = {
            let core = core.clone();
            std::thread::spawn(move || handle_request(&submit_line("MLT", 7), &core).0)
        };
        wait_until("the second job is queued", || core.shared.queue.len() == 1);

        // ...then the next distinct submission must be refused with
        // backpressure.
        let refusal = {
            let core = core.clone();
            std::thread::spawn(move || handle_request(&submit_line("QAOA", 3), &core).0)
        };
        // An accepted submission would wait on the held worker.
        wait_until("the third submission is answered", || refusal.is_finished());
        let refused = refusal.join().expect("refused submission thread");
        assert!(refused.contains("queue full"), "expected a queue-full rejection, got {refused}");
        assert_eq!(core.shared.metrics.rejected_full.get(), 1);

        // Backpressure is not loss: release the worker, and both accepted
        // jobs complete.
        assert!(matches!(hold_rx.recv(), Ok(JobOutcome::Done { .. })), "the hold job compiles");
        let response = queued.join().expect("queued submission thread");
        let reply = json::parse(&response).unwrap();
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "queued job failed: {response}"
        );
        core.drain();
    }

    #[test]
    fn handles_requests_in_process() {
        let (_server, core) = test_server(2, 8, 1 << 20);
        let pong = json::parse(&handle_request("{\"cmd\":\"ping\"}", &core).0).unwrap();
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

        let first = json::parse(&handle_request(&submit_line("ADD", 1), &core).0).unwrap();
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
        let repeat = json::parse(&handle_request(&submit_line("ADD", 1), &core).0).unwrap();
        assert_eq!(repeat.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            first.get("result").unwrap().encode(),
            repeat.get("result").unwrap().encode(),
            "cache must serve the identical payload"
        );

        let stats = json::parse(&handle_request("{\"cmd\":\"stats\"}", &core).0).unwrap();
        let stats = stats.get("stats").unwrap();
        assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("cache_misses").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn responses_carry_trace_ids_and_echo_client_supplied_ones() {
        let (_server, core) = test_server(1, 4, 1 << 20);
        // Server-minted: 16 lowercase hex digits.
        let r = json::parse(&handle_request(&submit_line("ADD", 11), &core).0).unwrap();
        let minted = r.get("trace_id").and_then(Json::as_str).expect("trace_id").to_string();
        assert_eq!(minted.len(), 16, "minted ids are 16-hex: {minted}");
        assert!(minted.chars().all(|c| c.is_ascii_hexdigit()));
        // Client-supplied: echoed verbatim (and on the cached path too).
        let tagged = "{\"cmd\":\"submit\",\"workload\":\"ADD\",\"seed\":11,\"quick\":true,\
             \"trace_id\":\"corr-abc\"}";
        let r = json::parse(&handle_request(tagged, &core).0).unwrap();
        assert_eq!(r.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(r.get("trace_id").and_then(Json::as_str), Some("corr-abc"));
        // Stats responses are tagged on the wrapper, not inside `stats`.
        let s = json::parse(&handle_request("{\"cmd\":\"stats\"}", &core).0).unwrap();
        assert!(s.get("trace_id").and_then(Json::as_str).is_some());
        assert!(s.get("stats").unwrap().get("trace_id").is_none());
    }

    #[test]
    fn metrics_op_serves_prometheus_text() {
        let (_server, core) = test_server(1, 4, 1 << 20);
        let _ = handle_request(&submit_line("QFT", 2), &core).0;
        let r = json::parse(&handle_request("{\"cmd\":\"metrics\"}", &core).0).unwrap();
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
        let (_server, core) = test_server(1, 4, 1 << 20);
        parallax_trace::set_enabled(true);
        let r = json::parse(&handle_request(&submit_line("TFIM", 5), &core).0).unwrap();
        parallax_trace::set_enabled(false);
        let wire = r.get("trace_id").and_then(Json::as_str).unwrap().to_string();
        let t = json::parse(&handle_request("{\"cmd\":\"trace\",\"limit\":64}", &core).0).unwrap();
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
        let (_server, core) = test_server(1, 4, 1 << 20);
        parallax_trace::set_enabled(true);
        let tagged = "{\"cmd\":\"submit\",\"workload\":\"SAT\",\"seed\":9,\"quick\":true,\
                      \"trace_id\":\"corr-xyz\"}";
        let r = json::parse(&handle_request(tagged, &core).0).unwrap();
        parallax_trace::set_enabled(false);
        assert_eq!(r.get("trace_id").and_then(Json::as_str), Some("corr-xyz"));
        let t = json::parse(&handle_request("{\"cmd\":\"trace\",\"limit\":64}", &core).0).unwrap();
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
        let (_server, core) = test_server(1, 4, 1 << 20);
        for bad in [
            "{\"cmd\":\"submit\",\"workload\":\"NOPE\"}",
            "{\"cmd\":\"submit\",\"qasm\":\"not qasm\"}",
        ] {
            let r = json::parse(&handle_request(bad, &core).0).unwrap();
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
        }
        assert_eq!(core.shared.queue.len(), 0);
    }

    #[test]
    fn oversized_circuit_is_rejected_up_front() {
        let (_server, core) = test_server(1, 4, 1 << 20);
        // 300 declared qubits outsize the 256-site quera machine.
        let qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[300];\nh q[0];\n";
        let req = Json::obj(vec![
            ("cmd", Json::Str("submit".into())),
            ("qasm", Json::Str(qasm.into())),
            ("quick", Json::Bool(true)),
        ])
        .encode();
        let r = json::parse(&handle_request(&req, &core).0).unwrap();
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
        let (_server, core) = test_server(1, 4, 1 << 20);
        let line =
            sweep_line("[[0.1,0.2,0.3,0.4,0.5,0.6],[1.0,2.0,3.0,4.0,5.0,6.0],[0,0,0,0,0,0]]");
        let response = handle_request(&line, &core).0;
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
        let repeat = handle_request(&sweep_line("[[9,8,7,6,5,4]]"), &core).0;
        let header = json::parse(repeat.split('\n').next().unwrap()).unwrap();
        assert_eq!(header.get("template_cache_hits").and_then(Json::as_u64), Some(1));

        let stats = json::parse(&handle_request("{\"cmd\":\"stats\"}", &core).0).unwrap();
        let stats = stats.get("stats").unwrap();
        assert_eq!(stats.get("sweep_points").and_then(Json::as_u64), Some(4));
        assert_eq!(stats.get("template_cache_hits").and_then(Json::as_u64), Some(3));
        assert_eq!(stats.get("template_cache_misses").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn sweep_rejects_bad_points_with_one_structured_error() {
        let (_server, core) = test_server(1, 4, 1 << 20);
        for (params, needle) in [
            ("[[0.1,0.2]]", "parameter count mismatch"),
            ("[[0.1,0.2,0.3,0.4,0.5,1e999]]", "not finite"),
        ] {
            let response = handle_request(&sweep_line(params), &core).0;
            assert!(!response.contains('\n'), "errors are single-line: {response}");
            let r = json::parse(&response).unwrap();
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{params}");
            assert!(r.get("error").and_then(Json::as_str).unwrap().contains(needle), "{response}");
            assert_eq!(r.get("id").and_then(Json::as_u64), Some(7));
        }
        // The server keeps compiling after refused sweeps.
        let ok = json::parse(&handle_request(&submit_line("ADD", 3), &core).0).unwrap();
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_new_submits() {
        let (mut server, core) = test_server(2, 8, 1 << 20);
        let ok = json::parse(&handle_request(&submit_line("MLT", 1), &core).0).unwrap();
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        let drained = json::parse(&handle_request("{\"cmd\":\"shutdown\"}", &core).0).unwrap();
        assert_eq!(drained.get("drained").and_then(Json::as_bool), Some(true));
        let refused = json::parse(&handle_request(&submit_line("MLT", 2), &core).0).unwrap();
        assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
        // Stats still served while draining/drained.
        let stats = json::parse(&handle_request("{\"cmd\":\"stats\"}", &core).0).unwrap();
        assert_eq!(
            stats.get("stats").and_then(|s| s.get("rejected_shutdown")).and_then(Json::as_u64),
            Some(1)
        );
        server.shutdown();
        server.shutdown(); // idempotent
    }
}
