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
//! keeping that shard's result cache hot for its slice of the keyspace;
//! adding a shard remaps only ~1/N of the ring.
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

use crate::client::ServiceClient;
use crate::json::{self, Json};
use crate::listener::{self, span_trees, trace_response, Handle, Tier};
use crate::protocol::{encode_request, error_response, parse_request, Request, SubmitRequest};
use parallax_trace::Counter;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
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
    /// Per-shard connect timeout.
    pub connect_timeout_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            vnodes: 64,
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
    /// Lines the router refused itself: framing rejections, parse errors
    /// and unroutable submissions (the shard's `bad_requests`).
    bad_requests: Counter,
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
            bad_requests: parallax_trace::counter(
                "parallax_router_bad_requests_total",
                &[("instance", &instance)],
            ),
        }
    }
}

struct RouterCore {
    shards: Vec<String>,
    ring: HashRing,
    metrics: RouterMetrics,
    connect_timeout: Duration,
    started: Instant,
}

impl Tier for RouterCore {
    const NAME: &'static str = "parallax-route";
    type Conn = ShardPool;

    fn open(&self) -> ShardPool {
        ShardPool { conns: (0..self.shards.len()).map(|_| None).collect() }
    }

    fn respond(&self, line: &str, pool: &mut ShardPool) -> (String, bool) {
        route_request(line, self, pool)
    }

    fn count_rejected_frame(&self) {
        self.metrics.bad_requests.inc();
    }
}

/// A running router. Dropping the handle stops its accept loop (the
/// shards it fronts are owned elsewhere and keep running).
pub type RouterHandle = Handle;

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
    let core = RouterCore {
        ring: HashRing::new(config.shards.len(), config.vnodes),
        metrics: RouterMetrics::new(config.shards.len()),
        shards: config.shards,
        connect_timeout: Duration::from_millis(config.connect_timeout_ms.max(1)),
        started: Instant::now(),
    };
    listener::serve(listener, Arc::new(core))
}

/// One client connection's links to the shards, dialed lazily. Each client
/// connection owns its own pool, so shard links are never shared across
/// client threads and responses can't interleave.
struct ShardPool {
    conns: Vec<Option<ServiceClient>>,
}

impl ShardPool {
    /// One request/response exchange with shard `idx`. A transport failure
    /// drops the pooled connection and retries once on a fresh dial — a
    /// shard restarted under the router at the same address is picked
    /// back up transparently.
    fn exchange(&mut self, core: &RouterCore, idx: usize, line: &str) -> Result<String, String> {
        let addr = &core.shards[idx];
        let mut failure = String::new();
        for _ in 0..2 {
            let mut conn = match self.conns[idx].take() {
                Some(conn) => conn,
                None => match ServiceClient::connect_timeout(addr, core.connect_timeout) {
                    Ok(conn) => conn,
                    Err(e) => {
                        failure = format!("shard {idx} ({addr}) unreachable: {e}");
                        continue;
                    }
                },
            };
            match conn.exchange_raw(line) {
                Ok(response) => {
                    self.conns[idx] = Some(conn);
                    return Ok(response);
                }
                Err(e) => failure = format!("shard {idx} ({addr}) failed: {e}"),
            }
        }
        core.metrics.shard_errors[idx].inc();
        Err(failure)
    }

    /// Read one additional already-in-flight line from shard `idx` (sweep
    /// point lines following a header). No retry: a mid-stream failure
    /// must surface, not resend the whole sweep.
    fn read_extra_line(&mut self, core: &RouterCore, idx: usize) -> Result<String, String> {
        match self.conns[idx].as_mut() {
            Some(conn) => conn.read_raw_line().map_err(|e| {
                self.conns[idx] = None;
                core.metrics.shard_errors[idx].inc();
                format!("shard {idx} ({}) died mid-sweep: {e}", core.shards[idx])
            }),
            None => Err(format!("shard {idx} connection lost mid-sweep")),
        }
    }
}

/// Dispatch one request line: answer locally, forward to the owning
/// shard, or fan out across all shards. Always returns one response
/// (sweeps: one header + N point lines, newline-joined like the shard's).
fn route_request(line: &str, core: &RouterCore, pool: &mut ShardPool) -> (String, bool) {
    match parse_request(line) {
        Err(e) => {
            core.metrics.bad_requests.inc();
            (error_response(&e, None), false)
        }
        Ok(Request::Ping) => (
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("pong", Json::Bool(true)),
                ("role", Json::Str("router".into())),
                ("uptime_us", Json::Int(core.started.elapsed().as_micros() as u64)),
            ])
            .encode(),
            false,
        ),
        Ok(Request::Stats) => (router_stats_response(core), false),
        Ok(Request::Metrics) => (listener::metrics_response(), false),
        Ok(Request::Trace { limit }) => (merged_trace_response(core, pool, limit), false),
        Ok(Request::Shards) => (topology_response(core, pool), false),
        Ok(request @ (Request::Cache(_) | Request::Drain | Request::Shutdown)) => {
            // A shutdown drains every shard first and only then is
            // acknowledged, so "drained" means the whole fabric finished
            // its accepted work.
            let shutdown = request == Request::Shutdown;
            (fan_out_response(core, pool, &request), shutdown)
        }
        Ok(Request::Submit(mut req)) => {
            let id = req.id;
            let relayed = owner(core, &mut req).and_then(|shard| {
                pool.exchange(core, shard, &encode_request(&Request::Submit(req)))
            });
            (relayed.unwrap_or_else(|e| error_response(&e, id)), false)
        }
        Ok(Request::SubmitSweep(mut req)) => {
            let id = req.submit.id;
            let relayed = owner(core, &mut req.submit).and_then(|shard| {
                forward_sweep(core, pool, shard, &encode_request(&Request::SubmitSweep(req)))
            });
            (relayed.unwrap_or_else(|e| error_response(&e, id)), false)
        }
    }
}

/// The shard owning a submission, counted as a forward to it. The
/// submission is resolved exactly as a shard would and its content address
/// folded onto the ring; an invalid one is refused here, with the error
/// text a shard would send, without burning a forward. A submission
/// without a trace id gets one minted and injected, so the shard annotates
/// its span tree with an id the router's merged `TRACE` (and the client's
/// response echo) can find.
fn owner(core: &RouterCore, req: &mut SubmitRequest) -> Result<usize, String> {
    let key = route_key_for(req).inspect_err(|_| core.metrics.bad_requests.inc())?;
    if req.trace.is_none() {
        req.trace = Some(format!("{:016x}", parallax_trace::next_trace_id()));
    }
    let shard = core.ring.route(key);
    core.metrics.forwarded[shard].inc();
    Ok(shard)
}

/// Fold a submission's content address onto the ring, resolving it
/// exactly as a shard would.
fn route_key_for(req: &SubmitRequest) -> Result<u64, String> {
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
) -> Result<String, String> {
    let header = pool.exchange(core, shard, wire)?;
    let parsed =
        json::parse(&header).map_err(|e| format!("shard {shard} sent invalid JSON: {e}"))?;
    let is_sweep = parsed.get("ok").and_then(Json::as_bool) == Some(true)
        && parsed.get("sweep").and_then(Json::as_bool) == Some(true);
    if !is_sweep {
        return Ok(header); // single-line refusal/error: relay verbatim
    }
    let points = parsed.get("points").and_then(Json::as_u64).unwrap_or(0);
    let mut lines = vec![header];
    for _ in 0..points {
        lines.push(pool.read_extra_line(core, shard)?);
    }
    Ok(lines.join("\n"))
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
        ("bad_requests", Json::Int(core.metrics.bad_requests.get())),
    ]);
    listener::stats_response(stats)
}

/// Fan an admin request out to every shard and report per-shard outcomes.
fn fan_out_response(core: &RouterCore, pool: &mut ShardPool, request: &Request) -> String {
    let wire = encode_request(request);
    let mut oks = 0u64;
    let results: Vec<Json> = (0..core.shards.len())
        .map(|i| {
            let mut pairs =
                vec![("index", Json::Int(i as u64)), ("addr", Json::Str(core.shards[i].clone()))];
            match pool.exchange(core, i, &wire) {
                Ok(response) => {
                    let parsed = json::parse(&response).unwrap_or(Json::Null);
                    oks += u64::from(parsed.get("ok").and_then(Json::as_bool) == Some(true));
                    pairs.push(("response", parsed));
                }
                Err(e) => pairs.push(("error", Json::Str(e))),
            }
            Json::obj(pairs)
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
    let mut traces = span_trees(limit, |_| Some(("source", Json::Str("router".into()))));
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
                let mut fields = vec![("source".to_string(), Json::Str(format!("shard-{i}")))];
                if let Json::Obj(tree) = tree {
                    fields.extend(tree.iter().cloned());
                }
                traces.push(Json::Obj(fields));
            }
        }
    }
    trace_response(enabled, dropped, traces)
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
    fn router_rejects_deep_qasm_expressions_without_a_forward() {
        use std::io::{BufRead, BufReader, Write};
        // Routing a submit resolves its QASM in the router, whose parser
        // used to overflow the connection thread's stack on these angles.
        // The shard is dead, so only a local rejection answers in time.
        let mut router = start_router(RouterConfig {
            shards: vec!["127.0.0.1:1".to_string()],
            connect_timeout_ms: 200,
            ..Default::default()
        })
        .expect("router");
        let n = 10_000;
        let angles = [
            format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            format!("{}1", "-".repeat(n)),
            format!("0{}", "+0".repeat(n)),
            format!("2{}", "^1".repeat(n)),
        ];
        let mut stream = std::net::TcpStream::connect(router.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for angle in angles {
            let line = format!(
                "{{\"cmd\":\"submit\",\"quick\":true,\
                 \"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\\nrz({angle}) q[0];\\n\"}}\n"
            );
            stream.write_all(line.as_bytes()).expect("write");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read");
            let parsed = json::parse(&reply).expect("structured reply");
            assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false), "{reply}");
            let error = parsed.get("error").and_then(Json::as_str).unwrap_or_default();
            assert!(error.contains("deeper than 64"), "{reply}");
        }
        stream.write_all(b"{\"cmd\":\"ping\"}\n").expect("write");
        let mut pong = String::new();
        reader.read_line(&mut pong).expect("read");
        assert!(pong.contains("\"pong\":true"), "{pong}");

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
