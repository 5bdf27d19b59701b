//! The fabric front end: a router process that shards compile traffic
//! across N `parallax-serve` workers by consistent hashing on the job's
//! content address.
//!
//! The router speaks the exact same newline-JSON protocol as a shard, so
//! clients (and `parallax-client`) point at either tier unchanged. For a
//! `submit`/`submit-sweep` it resolves the circuit and compiler locally —
//! the identical resolution a shard performs — folds the resulting
//! `(circuit hash, machine+config fingerprint)` cache key onto a
//! consistent-hash ring, and relays the request to the owning shard. Every
//! request for one content address therefore lands on the same shard,
//! keeping that shard's in-memory and disk cache tiers hot for its slice
//! of the keyspace; adding a shard remaps only ~1/N of the ring.
//!
//! Responses are relayed **verbatim** — the router never re-encodes a
//! shard's payload, so the byte-identical-to-direct-compile property the
//! end-to-end suite asserts survives the extra hop. Requests arriving
//! without a `trace_id` get one minted and injected before forwarding, so
//! a `TRACE` query (which fans out and merges shard trees) still yields
//! one tree per request, findable by the id the client saw.
//!
//! Admin-plane fan-out: `CACHE`/`DRAIN`/`SHUTDOWN` broadcast to every
//! shard; `SHARDS` returns the ring topology with per-shard health probes.
//! `PING`/`STATS`/`METRICS` answer locally (the router's own
//! `parallax_router_*` counters live in the process-wide registry).

use crate::json::{self, Json};
use crate::protocol::{encode_request, error_response, parse_request, Request};
use crate::server::{read_frame_capped, FrameRead};
use parallax_trace::Counter;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Shard addresses (`host:port` of running `parallax-serve` processes).
    /// Must be non-empty; ring order follows this list.
    pub shards: Vec<String>,
    /// Virtual nodes per shard on the hash ring. More vnodes smooth the
    /// keyspace split at the cost of a larger ring table.
    pub vnodes: usize,
    /// Hard cap on one request line's length, bytes (mirrors the shard's).
    pub max_line_bytes: usize,
    /// Per-shard connect timeout.
    pub connect_timeout_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            vnodes: 64,
            max_line_bytes: 8 * 1024 * 1024,
            connect_timeout_ms: 2000,
        }
    }
}

/// A consistent-hash ring: each shard owns `vnodes` pseudo-random points;
/// a key routes to the shard owning the first point at or clockwise of it.
pub struct HashRing {
    /// (ring point, shard index), sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
    vnodes: usize,
}

impl HashRing {
    /// Build the ring for `shards` shards with `vnodes` points each.
    pub fn new(shards: usize, vnodes: usize) -> Self {
        let vnodes = vnodes.max(1);
        let mut points: Vec<(u64, usize)> = (0..shards)
            .flat_map(|s| {
                (0..vnodes).map(move |r| {
                    let label = format!("shard-{s}-vnode-{r}");
                    (parallax_qasm::fnv1a_64(label.as_bytes()), s)
                })
            })
            .collect();
        points.sort_unstable();
        Self { points, shards, vnodes }
    }

    /// The shard owning `key`.
    pub fn route(&self, key: u64) -> usize {
        assert!(!self.points.is_empty(), "routing over an empty ring");
        let i = self.points.partition_point(|&(p, _)| p < key);
        self.points[if i == self.points.len() { 0 } else { i }].1
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Virtual nodes per shard.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }
}

/// Fold a two-u64 content address into the single ring key. FNV-1a over
/// the little-endian bytes, matching the hashes used everywhere else.
pub fn ring_key(circuit: u64, compiler: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&circuit.to_le_bytes());
    bytes[8..].copy_from_slice(&compiler.to_le_bytes());
    parallax_qasm::fnv1a_64(&bytes)
}

/// Per-shard observability handles, registered in the process-wide
/// metrics registry under `parallax_router_*`.
struct RouterMetrics {
    /// Requests forwarded to each shard (data plane).
    forwarded: Vec<Counter>,
    /// Transport failures talking to each shard (after the one retry).
    shard_errors: Vec<Counter>,
    /// Requests the router answered itself (ping/stats/metrics/rejects).
    local: Counter,
}

impl RouterMetrics {
    fn new(shards: usize) -> Self {
        use std::sync::atomic::AtomicU64;
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let instance = INSTANCE.fetch_add(1, Ordering::Relaxed).to_string();
        let per_shard = |name: &str| {
            (0..shards)
                .map(|s| {
                    parallax_trace::counter(
                        name,
                        &[("shard", &s.to_string()), ("instance", &instance)],
                    )
                })
                .collect()
        };
        Self {
            forwarded: per_shard("parallax_router_forwarded_total"),
            shard_errors: per_shard("parallax_router_shard_errors_total"),
            local: parallax_trace::counter(
                "parallax_router_local_answers_total",
                &[("instance", &instance)],
            ),
        }
    }
}

struct RouterCore {
    shards: Vec<String>,
    ring: HashRing,
    metrics: RouterMetrics,
    addr: SocketAddr,
    exiting: AtomicBool,
    max_line_bytes: usize,
    connect_timeout: Duration,
    started: Instant,
    exit_requested: Mutex<bool>,
    exit: Condvar,
}

/// A running router. Dropping the handle stops its accept loop (the
/// shards it fronts are owned elsewhere and keep running).
pub struct RouterHandle {
    core: Arc<RouterCore>,
    accept_thread: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.core.addr
    }

    /// Stop accepting connections and join the accept loop. Never touches
    /// the shards — a client-initiated `SHUTDOWN` is what drains the
    /// fabric. Idempotent.
    pub fn shutdown(&mut self) {
        self.core.exiting.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.core.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until some client's `SHUTDOWN` has fanned out to the shards
    /// and its acknowledgement is on the wire, then stop — the route
    /// daemon's main loop.
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

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start a router per `config`; returns once the listener is bound. Shards
/// are dialed lazily per client connection, so they may come up later.
pub fn start_router(config: RouterConfig) -> std::io::Result<RouterHandle> {
    if config.shards.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "router needs at least one shard address",
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let core = Arc::new(RouterCore {
        ring: HashRing::new(config.shards.len(), config.vnodes),
        metrics: RouterMetrics::new(config.shards.len()),
        shards: config.shards,
        addr,
        exiting: AtomicBool::new(false),
        max_line_bytes: config.max_line_bytes.max(1),
        connect_timeout: Duration::from_millis(config.connect_timeout_ms.max(1)),
        started: Instant::now(),
        exit_requested: Mutex::new(false),
        exit: Condvar::new(),
    });
    let accept_core = core.clone();
    let accept_thread = std::thread::Builder::new()
        .name("parallax-route-accept".to_string())
        .spawn(move || accept_loop(&listener, &accept_core))?;
    Ok(RouterHandle { core, accept_thread: Some(accept_thread) })
}

fn accept_loop(listener: &TcpListener, core: &Arc<RouterCore>) {
    for stream in listener.incoming() {
        if core.exiting.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let core = core.clone();
        let _ = std::thread::Builder::new()
            .name("parallax-route-conn".to_string())
            .spawn(move || handle_client(stream, &core));
    }
}

/// One pooled connection from this client's handler thread to a shard.
/// Each client connection owns its own pool, so shard links are never
/// shared across client threads and responses can't interleave.
struct ShardConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ShardConn {
    fn connect(addr: &str, timeout: Duration) -> std::io::Result<Self> {
        let resolved: Vec<SocketAddr> = std::net::ToSocketAddrs::to_socket_addrs(addr)?.collect();
        let first = resolved.first().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address resolved")
        })?;
        let stream = TcpStream::connect_timeout(first, timeout)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { reader, writer: stream })
    }

    /// Send one wire line, read one response line.
    fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        self.read_line()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "shard closed the connection",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }
}

/// The per-client pool of shard connections, dialed lazily.
struct ShardPool {
    conns: Vec<Option<ShardConn>>,
}

impl ShardPool {
    fn new(shards: usize) -> Self {
        Self { conns: (0..shards).map(|_| None).collect() }
    }

    /// One request/response exchange with shard `idx`. A transport failure
    /// drops the pooled connection and retries once on a fresh dial — a
    /// shard that restarted (the disk-tier warm-restart flow) is picked
    /// back up transparently.
    fn exchange(&mut self, core: &RouterCore, idx: usize, line: &str) -> Result<String, String> {
        for attempt in 0..2 {
            if self.conns[idx].is_none() {
                match ShardConn::connect(&core.shards[idx], core.connect_timeout) {
                    Ok(conn) => self.conns[idx] = Some(conn),
                    Err(e) => {
                        if attempt == 1 {
                            core.metrics.shard_errors[idx].inc();
                            return Err(format!(
                                "shard {idx} ({}) unreachable: {e}",
                                core.shards[idx]
                            ));
                        }
                        continue;
                    }
                }
            }
            match self.conns[idx].as_mut().expect("pooled conn").roundtrip(line) {
                Ok(response) => return Ok(response),
                Err(e) => {
                    self.conns[idx] = None;
                    if attempt == 1 {
                        core.metrics.shard_errors[idx].inc();
                        return Err(format!("shard {idx} ({}) failed: {e}", core.shards[idx]));
                    }
                }
            }
        }
        unreachable!("both exchange attempts returned")
    }

    /// Read one additional already-in-flight line from shard `idx` (sweep
    /// point lines following a header). No retry: a mid-stream failure
    /// must surface, not resend the whole sweep.
    fn read_extra_line(&mut self, core: &RouterCore, idx: usize) -> Result<String, String> {
        match self.conns[idx].as_mut() {
            Some(conn) => conn.read_line().map_err(|e| {
                self.conns[idx] = None;
                core.metrics.shard_errors[idx].inc();
                format!("shard {idx} ({}) died mid-sweep: {e}", core.shards[idx])
            }),
            None => Err(format!("shard {idx} connection lost mid-sweep")),
        }
    }
}

fn handle_client(stream: TcpStream, core: &Arc<RouterCore>) {
    let _ = stream.set_nodelay(true);
    let Ok(reader_stream) = stream.try_clone() else { return };
    let mut writer = stream;
    let mut reader = BufReader::new(reader_stream);
    let mut pool = ShardPool::new(core.shards.len());
    loop {
        let (mut response, was_shutdown) = match read_frame_capped(&mut reader, core.max_line_bytes)
        {
            Err(_) | Ok(FrameRead::Eof) => break,
            Ok(FrameRead::Oversized) => (
                error_response(
                    &format!("request line exceeds {} bytes", core.max_line_bytes),
                    None,
                ),
                false,
            ),
            Ok(FrameRead::Line(bytes)) => match String::from_utf8(bytes) {
                Err(_) => (error_response("request line is not valid UTF-8", None), false),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => route_request(&line, core, &mut pool),
            },
        };
        response.push('\n');
        let written = writer.write_all(response.as_bytes());
        if was_shutdown {
            *core.exit_requested.lock().expect("exit lock") = true;
            core.exit.notify_all();
        }
        if written.is_err() {
            break;
        }
    }
}

/// Dispatch one request line: answer locally, forward to the owning
/// shard, or fan out across all shards. Always returns one response
/// (sweeps: one header + N point lines, newline-joined like the shard's).
fn route_request(line: &str, core: &Arc<RouterCore>, pool: &mut ShardPool) -> (String, bool) {
    match parse_request(line) {
        Err(e) => {
            core.metrics.local.inc();
            (error_response(&e, None), false)
        }
        Ok(Request::Ping) => {
            core.metrics.local.inc();
            (
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("pong", Json::Bool(true)),
                    ("role", Json::Str("router".into())),
                    ("uptime_us", Json::Int(core.started.elapsed().as_micros() as u64)),
                ])
                .encode(),
                false,
            )
        }
        Ok(Request::Stats) => {
            core.metrics.local.inc();
            (router_stats_response(core), false)
        }
        Ok(Request::Metrics) => {
            core.metrics.local.inc();
            (
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("metrics", Json::Str(parallax_trace::render_prometheus())),
                ])
                .encode(),
                false,
            )
        }
        Ok(Request::Trace { limit }) => (merged_trace_response(core, pool, limit), false),
        Ok(Request::Shards) => (topology_response(core, pool), false),
        Ok(Request::Cache(op)) => (fan_out_response(core, pool, &Request::Cache(op)), false),
        Ok(Request::Drain) => (fan_out_response(core, pool, &Request::Drain), false),
        Ok(Request::Shutdown) => {
            // Drain every shard first; only then acknowledge, so "drained"
            // means the whole fabric finished its accepted work.
            let response = fan_out_response(core, pool, &Request::Shutdown);
            (response, true)
        }
        Ok(Request::Submit(mut req)) => {
            let routed = match route_key_for(&req) {
                Ok(key) => key,
                Err(e) => {
                    core.metrics.local.inc();
                    return (error_response(&e, req.id), false);
                }
            };
            inject_trace(&mut req.trace);
            let shard = core.ring.route(routed);
            core.metrics.forwarded[shard].inc();
            let wire = encode_request(&Request::Submit(req.clone()));
            match pool.exchange(core, shard, &wire) {
                Ok(response) => (response, false),
                Err(e) => (error_response(&e, req.id), false),
            }
        }
        Ok(Request::SubmitSweep(mut req)) => {
            let routed = match route_key_for(&req.submit) {
                Ok(key) => key,
                Err(e) => {
                    core.metrics.local.inc();
                    return (error_response(&e, req.submit.id), false);
                }
            };
            inject_trace(&mut req.submit.trace);
            let shard = core.ring.route(routed);
            core.metrics.forwarded[shard].inc();
            let id = req.submit.id;
            let wire = encode_request(&Request::SubmitSweep(req));
            (forward_sweep(core, pool, shard, &wire, id), false)
        }
    }
}

/// Mint and inject a wire trace id when the client did not supply one, so
/// the shard annotates its span tree with an id the router's merged
/// `TRACE` (and the client's response echo) can find.
fn inject_trace(trace: &mut Option<String>) {
    if trace.is_none() {
        *trace = Some(format!("{:016x}", parallax_trace::next_trace_id()));
    }
}

/// Resolve the submission exactly as a shard would and fold its content
/// address onto the ring. Invalid submissions fail here — the router
/// rejects them with the same error text a shard would, without burning a
/// forward.
fn route_key_for(req: &crate::protocol::SubmitRequest) -> Result<u64, String> {
    let (compiler, circuit) = req.resolve()?;
    Ok(ring_key(crate::protocol::circuit_content_hash(&circuit), compiler.fingerprint()))
}

/// Forward a sweep and relay its streamed response: the header line names
/// how many point lines follow; read and relay exactly that many.
fn forward_sweep(
    core: &RouterCore,
    pool: &mut ShardPool,
    shard: usize,
    wire: &str,
    id: Option<u64>,
) -> String {
    let header = match pool.exchange(core, shard, wire) {
        Ok(h) => h,
        Err(e) => return error_response(&e, id),
    };
    let parsed = match json::parse(&header) {
        Ok(p) => p,
        Err(e) => return error_response(&format!("shard {shard} sent invalid JSON: {e}"), id),
    };
    let is_sweep = parsed.get("ok").and_then(Json::as_bool) == Some(true)
        && parsed.get("sweep").and_then(Json::as_bool) == Some(true);
    if !is_sweep {
        return header; // single-line refusal/error: relay verbatim
    }
    let points = parsed.get("points").and_then(Json::as_u64).unwrap_or(0);
    let mut lines = Vec::with_capacity(points as usize + 1);
    lines.push(header);
    for _ in 0..points {
        match pool.read_extra_line(core, shard) {
            Ok(line) => lines.push(line),
            Err(e) => return error_response(&e, id),
        }
    }
    lines.join("\n")
}

/// The router's own `STATS`: role, topology size, and per-shard forwarding
/// counters (the richer per-shard vitals live behind `SHARDS`).
fn router_stats_response(core: &RouterCore) -> String {
    let per_shard =
        |counters: &[Counter]| Json::Arr(counters.iter().map(|c| Json::Int(c.get())).collect());
    let stats = Json::obj(vec![
        ("role", Json::Str("router".into())),
        ("shards", Json::Int(core.shards.len() as u64)),
        ("vnodes", Json::Int(core.ring.vnodes() as u64)),
        ("uptime_us", Json::Int(core.started.elapsed().as_micros() as u64)),
        ("forwarded", per_shard(&core.metrics.forwarded)),
        ("shard_errors", per_shard(&core.metrics.shard_errors)),
        ("local_answers", Json::Int(core.metrics.local.get())),
    ]);
    let trace = format!("{:016x}", parallax_trace::next_trace_id());
    Json::obj(vec![("ok", Json::Bool(true)), ("trace_id", Json::Str(trace)), ("stats", stats)])
        .encode()
}

/// Fan an admin request out to every shard and report per-shard outcomes.
fn fan_out_response(core: &RouterCore, pool: &mut ShardPool, request: &Request) -> String {
    let wire = encode_request(request);
    let mut oks = 0u64;
    let results: Vec<Json> = (0..core.shards.len())
        .map(|i| match pool.exchange(core, i, &wire) {
            Ok(response) => {
                let parsed = json::parse(&response).unwrap_or(Json::Null);
                if parsed.get("ok").and_then(Json::as_bool) == Some(true) {
                    oks += 1;
                }
                Json::obj(vec![
                    ("index", Json::Int(i as u64)),
                    ("addr", Json::Str(core.shards[i].clone())),
                    ("response", parsed),
                ])
            }
            Err(e) => Json::obj(vec![
                ("index", Json::Int(i as u64)),
                ("addr", Json::Str(core.shards[i].clone())),
                ("error", Json::Str(e)),
            ]),
        })
        .collect();
    let mut pairs = vec![
        ("ok", Json::Bool(oks == core.shards.len() as u64)),
        ("role", Json::Str("router".into())),
        ("shards_ok", Json::Int(oks)),
    ];
    if matches!(request, Request::Shutdown | Request::Drain) {
        pairs.push(("drained", Json::Bool(oks == core.shards.len() as u64)));
    }
    pairs.push(("shards", Json::Arr(results)));
    Json::obj(pairs).encode()
}

/// The `SHARDS` topology: ring parameters plus a live health probe of
/// every shard (its own `SHARDS` self-report, or the transport error).
fn topology_response(core: &RouterCore, pool: &mut ShardPool) -> String {
    let wire = encode_request(&Request::Shards);
    let shards: Vec<Json> = (0..core.shards.len())
        .map(|i| {
            let mut pairs = vec![
                ("index", Json::Int(i as u64)),
                ("addr", Json::Str(core.shards[i].clone())),
                ("forwarded", Json::Int(core.metrics.forwarded[i].get())),
                ("errors", Json::Int(core.metrics.shard_errors[i].get())),
            ];
            match pool.exchange(core, i, &wire) {
                Ok(response) => {
                    let parsed = json::parse(&response).unwrap_or(Json::Null);
                    pairs.push(("reachable", Json::Bool(true)));
                    pairs.push(("info", parsed));
                }
                Err(e) => {
                    pairs.push(("reachable", Json::Bool(false)));
                    pairs.push(("error", Json::Str(e)));
                }
            }
            Json::obj(pairs)
        })
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("role", Json::Str("router".into())),
        ("vnodes", Json::Int(core.ring.vnodes() as u64)),
        ("shards", Json::Arr(shards)),
    ])
    .encode()
}

/// The router's `TRACE`: its own recent span trees plus every shard's,
/// merged into one `traces` array. Shard trees carry the router-injected
/// wire id as `client_trace_id`, which is the id the client saw — so one
/// logical request still yields one findable tree across the fabric.
fn merged_trace_response(core: &RouterCore, pool: &mut ShardPool, limit: usize) -> String {
    let mut traces: Vec<Json> = parallax_trace::recent_traces(limit)
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
            Json::obj(vec![
                ("trace_id", Json::Str(format!("{:016x}", t.trace_id))),
                ("source", Json::Str("router".into())),
                ("events", Json::Arr(events)),
            ])
        })
        .collect();
    let mut dropped = parallax_trace::dropped_events();
    let mut enabled = parallax_trace::enabled();
    let wire = encode_request(&Request::Trace { limit });
    for i in 0..core.shards.len() {
        let Ok(response) = pool.exchange(core, i, &wire) else { continue };
        let Ok(parsed) = json::parse(&response) else { continue };
        enabled |= parsed.get("enabled").and_then(Json::as_bool).unwrap_or(false);
        dropped += parsed.get("dropped_events").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Arr(shard_traces)) = parsed.get("traces") {
            for tree in shard_traces {
                let mut pairs = vec![("source", Json::Str(format!("shard-{i}")))];
                if let Json::Obj(fields) = tree {
                    for (k, v) in fields {
                        pairs.push((k.as_str(), v.clone()));
                    }
                }
                let owned: Vec<(String, Json)> =
                    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
                traces.push(Json::Obj(owned));
            }
        }
    }
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("enabled", Json::Bool(enabled)),
        ("dropped_events", Json::Int(dropped)),
        ("traces", Json::Arr(traces)),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServiceClient;
    use crate::protocol::{SubmitRequest, SubmitSource};
    use crate::server::{start, ServerConfig};

    #[test]
    fn ring_routes_deterministically_and_covers_every_shard() {
        let ring = HashRing::new(3, 64);
        let mut owners = vec![0usize; 3];
        for i in 0..10_000u64 {
            let key = ring_key(i, i.wrapping_mul(0x9E3779B97F4A7C15));
            let shard = ring.route(key);
            assert_eq!(shard, ring.route(key), "routing must be a pure function");
            owners[shard] += 1;
        }
        for (i, n) in owners.iter().enumerate() {
            assert!(
                *n > 1000,
                "shard {i} owns {n}/10000 keys; vnodes should spread the ring: {owners:?}"
            );
        }
    }

    #[test]
    fn growing_the_ring_remaps_only_a_fraction_of_keys() {
        let two = HashRing::new(2, 64);
        let three = HashRing::new(3, 64);
        let keys: Vec<u64> = (0..4096u64).map(|i| ring_key(i, !i)).collect();
        let moved = keys
            .iter()
            .filter(|&&k| {
                let before = two.route(k);
                let after = three.route(k);
                before != after && after != 2
            })
            .count();
        // Consistent hashing: keys either stay put or move to the *new*
        // shard; cross-migration between surviving shards is rare.
        assert!(
            moved < keys.len() / 8,
            "{moved}/{} keys migrated between surviving shards",
            keys.len()
        );
    }

    #[test]
    fn route_key_matches_shard_cache_key_inputs() {
        let req = SubmitRequest {
            source: SubmitSource::Workload("ADD".into()),
            seed: 3,
            quick: true,
            ..Default::default()
        };
        let a = route_key_for(&req).unwrap();
        let b = route_key_for(&req).unwrap();
        assert_eq!(a, b);
        let other = SubmitRequest { seed: 4, ..req.clone() };
        assert_ne!(a, route_key_for(&other).unwrap(), "seed steers the key");
        let bad = SubmitRequest { machine: "ibm".into(), ..req };
        assert!(route_key_for(&bad).is_err());
    }

    /// Full in-process fabric: 2 real shards behind a router, exercised
    /// over real sockets with the library client.
    #[test]
    fn router_fronts_two_shards_transparently() {
        let shard_cfg = || ServerConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 1 << 20,
            ..Default::default()
        };
        let shard_a = start(shard_cfg()).expect("shard a");
        let shard_b = start(shard_cfg()).expect("shard b");
        let mut router = start_router(RouterConfig {
            shards: vec![shard_a.addr().to_string(), shard_b.addr().to_string()],
            ..Default::default()
        })
        .expect("router");

        let mut client = ServiceClient::connect(router.addr()).expect("connect");
        let pong = client.ping().unwrap();
        assert_eq!(pong.get("role").and_then(Json::as_str), Some("router"));

        // Several distinct jobs: all compile, repeats are cache hits on
        // whichever shard owns them, and every response carries a trace id.
        for seed in 0..4u64 {
            let submit = || SubmitRequest {
                source: SubmitSource::Workload("ADD".into()),
                seed,
                quick: true,
                id: Some(seed),
                ..Default::default()
            };
            let first = client.submit(submit()).unwrap();
            assert!(!first.cached, "seed {seed} must be cold");
            assert_eq!(first.id, Some(seed));
            assert_eq!(first.trace_id.len(), 16, "router-minted id: {}", first.trace_id);
            let repeat = client.submit(submit()).unwrap();
            assert!(repeat.cached, "seed {seed} repeat must hit its shard's cache");
            assert_eq!(repeat.result.encode(), first.result.encode());
        }

        // The keyspace actually sharded: both shards saw forwards.
        let stats = client.stats().unwrap();
        assert_eq!(stats.get("role").and_then(Json::as_str), Some("router"));
        let Some(Json::Arr(forwarded)) = stats.get("forwarded") else {
            panic!("stats must carry per-shard forwarded counters")
        };
        let counts: Vec<u64> = forwarded.iter().filter_map(Json::as_u64).collect();
        assert_eq!(counts.len(), 2);
        assert_eq!(counts.iter().sum::<u64>(), 8, "{counts:?}");

        // Topology probe reaches both shards.
        let topo = client.roundtrip(&Request::Shards).unwrap();
        let Some(Json::Arr(shards)) = topo.get("shards") else { panic!("missing shards") };
        assert_eq!(shards.len(), 2);
        for s in shards {
            assert_eq!(s.get("reachable").and_then(Json::as_bool), Some(true), "{topo:?}");
            let info = s.get("info").expect("probe payload");
            assert_eq!(info.get("role").and_then(Json::as_str), Some("shard"));
        }

        // Admin fan-out: flush both result caches, then a repeat recompiles.
        let flushed = client.roundtrip(&Request::Cache(crate::protocol::CacheOp::Flush)).unwrap();
        assert_eq!(flushed.get("shards_ok").and_then(Json::as_u64), Some(2));
        let recompiled = client
            .submit(SubmitRequest {
                source: SubmitSource::Workload("ADD".into()),
                seed: 0,
                quick: true,
                ..Default::default()
            })
            .unwrap();
        assert!(!recompiled.cached, "flush must have emptied the owning shard");

        // Sweep relays its full multi-line stream through the router.
        let sweep = client
            .submit_sweep(crate::protocol::SweepRequest {
                submit: SubmitRequest {
                    source: SubmitSource::Qasm(
                        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n\
                         u3(0.1,0.2,0.3) q[0];\ncz q[0],q[1];\n"
                            .into(),
                    ),
                    quick: true,
                    ..Default::default()
                },
                params: vec![vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]],
            })
            .unwrap();
        assert_eq!(sweep.points.len(), 2);
        assert_eq!(sweep.points[0].result.encode(), sweep.points[1].result.encode());

        // SHUTDOWN drains the whole fabric through one request.
        let drained = client.shutdown().unwrap();
        assert_eq!(drained.get("drained").and_then(Json::as_bool), Some(true));
        assert_eq!(drained.get("shards_ok").and_then(Json::as_u64), Some(2));
        router.shutdown();
        drop(shard_a);
        drop(shard_b);
    }

    #[test]
    fn router_refuses_bad_submissions_without_a_shard() {
        // No shard is listening on this address; a bad submit must still be
        // rejected locally, and transport failures must be structured.
        let mut router = start_router(RouterConfig {
            shards: vec!["127.0.0.1:1".to_string()],
            connect_timeout_ms: 200,
            ..Default::default()
        })
        .expect("router");
        let mut client = ServiceClient::connect(router.addr()).expect("connect");
        let bad = client.submit(SubmitRequest {
            source: SubmitSource::Workload("NOPE".into()),
            ..Default::default()
        });
        match bad {
            Err(crate::client::ClientError::Server(e)) => {
                assert!(e.contains("unknown workload"), "{e}")
            }
            other => panic!("expected a local rejection, got {other:?}"),
        }
        let unreachable = client.submit(SubmitRequest {
            source: SubmitSource::Workload("ADD".into()),
            quick: true,
            ..Default::default()
        });
        match unreachable {
            Err(crate::client::ClientError::Server(e)) => {
                assert!(e.contains("shard 0"), "{e}")
            }
            other => panic!("expected a shard transport error, got {other:?}"),
        }
        router.shutdown();
    }

    #[test]
    fn router_rejects_an_oversized_aod_dim_without_a_forward() {
        use std::io::{BufRead, BufReader, Write};
        // The shard address is dead, so a forward would surface as a
        // transport error; the bound must trip in the router's own
        // resolve first.
        let mut router = start_router(RouterConfig {
            shards: vec!["127.0.0.1:1".to_string()],
            connect_timeout_ms: 200,
            ..Default::default()
        })
        .expect("router");
        let mut stream = std::net::TcpStream::connect(router.addr()).expect("connect");
        stream
            .write_all(
                b"{\"cmd\":\"submit\",\"workload\":\"ADD\",\"quick\":true,\
                  \"aod_dim\":1099511627776}\n",
            )
            .expect("write");
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).expect("read");
        let reply = json::parse(&line).expect("structured reply");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        let error = reply.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(error.contains("'aod_dim'"), "{line}");

        let stats = ServiceClient::connect(router.addr()).unwrap().stats().unwrap();
        let Some(Json::Arr(forwarded)) = stats.get("forwarded") else { panic!("{stats:?}") };
        assert!(forwarded.iter().all(|n| n.as_u64() == Some(0)), "{stats:?}");
        router.shutdown();
    }

    #[test]
    fn router_rejects_a_deeply_nested_line_without_a_forward() {
        use std::io::{BufRead, BufReader, Write};
        // A line of open brackets used to overflow the router connection
        // thread's stack and abort the process. The shard address is dead,
        // so a forward would surface as a transport error; the parser's
        // nesting cap must answer first, and the connection keeps serving.
        let mut router = start_router(RouterConfig {
            shards: vec!["127.0.0.1:1".to_string()],
            connect_timeout_ms: 200,
            ..Default::default()
        })
        .expect("router");
        let mut stream = std::net::TcpStream::connect(router.addr()).expect("connect");
        let mut bytes = vec![b'['; 100_000];
        bytes.extend_from_slice(b"\n{\"cmd\":\"ping\"}\n");
        stream.write_all(&bytes).expect("write");
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let reply = json::parse(&line).expect("structured reply");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        let error = reply.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(error.contains("nesting"), "{line}");
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert!(line.contains("\"pong\":true"), "{line}");

        let stats = ServiceClient::connect(router.addr()).unwrap().stats().unwrap();
        let Some(Json::Arr(forwarded)) = stats.get("forwarded") else { panic!("{stats:?}") };
        assert!(forwarded.iter().all(|n| n.as_u64() == Some(0)), "{stats:?}");
        router.shutdown();
    }

    #[test]
    fn empty_shard_list_is_refused() {
        assert!(start_router(RouterConfig::default()).is_err());
    }
}
