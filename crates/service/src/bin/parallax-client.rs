//! Command-line client for `parallax-serve`.
//!
//! ```text
//! parallax-client [--addr HOST:PORT] ping
//! parallax-client [--addr HOST:PORT] stats
//! parallax-client [--addr HOST:PORT] metrics
//! parallax-client [--addr HOST:PORT] trace [--limit N]
//! parallax-client [--addr HOST:PORT] shutdown
//! parallax-client [--addr HOST:PORT] drain
//! parallax-client [--addr HOST:PORT] shards
//! parallax-client [--addr HOST:PORT] cache-flush
//! parallax-client [--addr HOST:PORT] cache-resize BYTES
//! parallax-client [--addr HOST:PORT] submit <file.qasm|-> \
//!     [--seed N] [--machine quera|atom] [--quick] [--no-return-home]
//!     [--priority 0..9] [--aod-dim N] [--trace-id STR]
//! parallax-client [--addr HOST:PORT] submit --workload NAME [options...]
//! parallax-client [--addr HOST:PORT] sweep <file.qasm|-> | --workload NAME \
//!     [--points N] [--param-seed S] [submit options...]
//! ```
//!
//! `submit` prints the compilation metrics the server returned; repeat an
//! identical submission to watch `cached: true` come back instantly. Pass
//! `--trace-id my-request-7` to correlate the submission with the server's
//! span log; without it the server mints (and echoes) a 16-hex id.
//!
//! `metrics` prints the server's unified registry in Prometheus text
//! exposition format, ready to pipe into a scrape file.
//!
//! `trace` prints the last N per-request span trees still in the server's
//! ring buffer (requires the server to run with `PARALLAX_TRACE=1`).
//!
//! `sweep` resolves the circuit locally to count its U3 angle slots,
//! generates `--points` pseudo-random parameter vectors in [-π, π), and
//! drives the server's `submit-sweep` fast path: the structure compiles
//! once, every other point is a template-cache rebind.

use parallax_circuit::CircuitTemplate;
use parallax_service::{
    render_stats, Json, ServiceClient, SubmitRequest, SubmitSource, SweepRequest,
};
use std::io::Read;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: parallax-client [--addr HOST:PORT] \
         <ping|stats|metrics|trace|shutdown|drain|shards|\n\
         cache-flush|cache-resize|submit|sweep> ...\n\
         submit: <file.qasm|-> | --workload NAME, plus [--seed N] [--machine quera|atom]\n\
         [--quick] [--no-return-home] [--priority 0..9] [--aod-dim N] [--trace-id STR]\n\
         sweep: submit arguments plus [--points N] [--param-seed S]\n\
         trace: [--limit N] most recent compile span trees"
    );
    std::process::exit(2)
}

/// The circuit source for submit/sweep: a QASM file, stdin, or a workload.
fn resolve_source(workload: Option<String>, path: Option<String>) -> SubmitSource {
    match (workload, path) {
        (Some(w), None) => SubmitSource::Workload(w),
        (None, Some(p)) => {
            let text = if p == "-" {
                let mut buf = String::new();
                std::io::stdin().read_to_string(&mut buf).unwrap_or_else(|e| die(&e.to_string()));
                buf
            } else {
                std::fs::read_to_string(&p).unwrap_or_else(|e| die(&format!("{p}: {e}")))
            };
            SubmitSource::Qasm(text)
        }
        (Some(_), Some(_)) => die("provide a file or --workload, not both"),
        (None, None) => die("submit needs a QASM file, '-', or --workload NAME"),
    }
}

/// Deterministic angle stream in [-π, π): an splitmix-style LCG so the CLI
/// needs no RNG dependency and a given `--param-seed` replays exactly.
fn angle_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03);
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
        (2.0 * unit - 1.0) * std::f64::consts::PI
    }
}

/// Render a `TRACE` response as indented per-request span trees: one
/// header line per trace id, one line per span (depth → indentation).
fn render_trace(v: &Json) -> String {
    let traces = match v.get("traces") {
        Some(Json::Arr(a)) => a.as_slice(),
        _ => &[],
    };
    if traces.is_empty() {
        let enabled = v.get("enabled").and_then(Json::as_bool).unwrap_or(false);
        return if enabled {
            "no traces recorded yet (submit a job first)".to_string()
        } else {
            "tracing is disabled on the server (start it with PARALLAX_TRACE=1)".to_string()
        };
    }
    let mut out = String::new();
    for tree in traces {
        let id = tree.get("trace_id").and_then(Json::as_str).unwrap_or("?");
        let events = match tree.get("events") {
            Some(Json::Arr(a)) => a.as_slice(),
            _ => &[],
        };
        match tree.get("client_trace_id").and_then(Json::as_str) {
            Some(tag) => {
                out.push_str(&format!("trace {id} (client: {tag})  ({} spans)\n", events.len()))
            }
            None => out.push_str(&format!("trace {id}  ({} spans)\n", events.len())),
        }
        for e in events {
            let g = |k: &str| e.get(k).and_then(Json::as_u64).unwrap_or(0);
            let name = e.get("name").and_then(Json::as_str).unwrap_or("?");
            let indent = "  ".repeat(g("depth") as usize + 1);
            out.push_str(&format!("{indent}{name:<24} {:.3} ms\n", g("dur_ns") as f64 / 1e6));
        }
    }
    out.trim_end().to_string()
}

/// Render a `SHARDS` response: a router's topology as one line per shard,
/// or a single shard's self-report.
fn render_shards(v: &Json) -> String {
    let shards = match v.get("shards") {
        Some(Json::Arr(a)) => a.as_slice(),
        _ => {
            // A plain shard answering for itself.
            let role = v.get("role").and_then(Json::as_str).unwrap_or("?");
            let accepting = v.get("accepting").and_then(Json::as_bool).unwrap_or(false);
            let depth = v.get("queue_depth").and_then(Json::as_u64).unwrap_or(0);
            return format!("role: {role}  accepting: {accepting}  queue depth: {depth}");
        }
    };
    let mut out = format!(
        "router fronting {} shards ({} vnodes each)\n",
        shards.len(),
        v.get("vnodes").and_then(Json::as_u64).unwrap_or(0)
    );
    for s in shards {
        let idx = s.get("index").and_then(Json::as_u64).unwrap_or(0);
        let addr = s.get("addr").and_then(Json::as_str).unwrap_or("?");
        let forwarded = s.get("forwarded").and_then(Json::as_u64).unwrap_or(0);
        if s.get("reachable").and_then(Json::as_bool) == Some(true) {
            let info = s.get("info").cloned().unwrap_or(Json::Null);
            let accepting = info.get("accepting").and_then(Json::as_bool).unwrap_or(false);
            let depth = info.get("queue_depth").and_then(Json::as_u64).unwrap_or(0);
            let cache_len =
                info.get("cache").and_then(|c| c.get("len")).and_then(Json::as_u64).unwrap_or(0);
            out.push_str(&format!(
                "  shard {idx}  {addr}  up  accepting: {accepting}  queue: {depth}  \
                 cache entries: {cache_len}  forwarded: {forwarded}\n"
            ));
        } else {
            let err = s.get("error").and_then(Json::as_str).unwrap_or("unreachable");
            out.push_str(&format!("  shard {idx}  {addr}  DOWN  {err}\n"));
        }
    }
    out.trim_end().to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut command: Option<String> = None;
    let mut path: Option<String> = None;
    let mut request = SubmitRequest { quick: false, ..Default::default() };
    let mut workload: Option<String> = None;
    let mut points = 100usize;
    let mut param_seed = 0u64;
    let mut trace_limit: Option<usize> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = it.next().cloned().unwrap_or_else(|| die("--addr expects HOST:PORT"))
            }
            "--workload" => {
                workload =
                    Some(it.next().cloned().unwrap_or_else(|| die("--workload expects a name")))
            }
            "--seed" => {
                request.seed =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| die("bad --seed"))
            }
            "--machine" => {
                request.machine =
                    it.next().cloned().unwrap_or_else(|| die("--machine expects quera|atom"))
            }
            "--aod-dim" => {
                request.aod_dim = Some(
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| die("bad --aod-dim")),
                )
            }
            "--priority" => {
                request.priority =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| die("bad --priority"))
            }
            "--points" => {
                points =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| die("bad --points"))
            }
            "--param-seed" => {
                param_seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("bad --param-seed"))
            }
            "--trace-id" => {
                request.trace =
                    Some(it.next().cloned().unwrap_or_else(|| die("--trace-id expects a string")))
            }
            "--limit" => {
                trace_limit = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("bad --limit (must be >= 1)")),
                )
            }
            "--quick" => request.quick = true,
            "--no-return-home" => request.return_home = false,
            other if !other.starts_with("--") && command.is_none() => {
                command = Some(other.to_string())
            }
            other if !other.starts_with("--") && path.is_none() => path = Some(other.to_string()),
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    let command = command.unwrap_or_else(|| die("missing command"));

    let mut client = match ServiceClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => die(&format!("cannot connect to {addr}: {e}")),
    };

    let outcome = match command.as_str() {
        "ping" => client.ping().map(|v| v.encode()),
        "stats" => client.stats_response().map(|v| {
            let mut out = String::new();
            if let Some(trace) = v.get("trace_id").and_then(Json::as_str) {
                out.push_str(&format!("trace id      {trace}\n"));
            }
            out.push_str(&render_stats(v.get("stats").unwrap_or(&Json::Null)));
            out.trim_end().to_string()
        }),
        "metrics" => client.metrics().map(|text| text.trim_end().to_string()),
        "trace" => client
            .trace(trace_limit.unwrap_or(parallax_service::DEFAULT_TRACE_LIMIT))
            .map(|v| render_trace(&v)),
        "shutdown" => client.shutdown().map(|v| v.encode()),
        "drain" => client.drain().map(|v| v.encode()),
        "shards" => client.shards().map(|v| render_shards(&v)),
        "cache-flush" => client.cache_flush().map(|v| v.encode()),
        "cache-resize" => {
            let bytes = path
                .as_deref()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die("cache-resize needs a BYTES argument"));
            client.cache_resize(bytes).map(|v| v.encode())
        }
        "submit" => {
            request.source = resolve_source(workload, path);
            client.submit(request).map(|reply| {
                let mut out = format!(
                    "cached: {}  server latency: {} µs  trace id: {}\n",
                    reply.cached, reply.total_us, reply.trace_id
                );
                if let Json::Obj(pairs) = &reply.result {
                    for (k, v) in pairs {
                        out.push_str(&format!("{k:<18} {}\n", v.encode()));
                    }
                }
                out.trim_end().to_string()
            })
        }
        "sweep" => {
            request.source = resolve_source(workload, path);
            // Resolve locally only to count the structure's angle slots;
            // the server re-resolves from the same request fields.
            let circuit = request.resolve_circuit().unwrap_or_else(|e| die(&e));
            let slots = CircuitTemplate::from_circuit(&circuit).num_params();
            if slots == 0 {
                die("circuit has no U3 angle slots to sweep");
            }
            let mut next = angle_stream(param_seed);
            let params: Vec<Vec<f64>> =
                (0..points.max(1)).map(|_| (0..slots).map(|_| next()).collect()).collect();
            client.submit_sweep(SweepRequest { submit: request, params }).map(|reply| {
                let hits = reply.points.iter().filter(|p| p.cached).count();
                let hit_ns: Vec<u64> =
                    reply.points.iter().filter(|p| p.cached).map(|p| p.rebind_ns).collect();
                let mean_ns =
                    hit_ns.iter().sum::<u64>().checked_div(hit_ns.len() as u64).unwrap_or(0);
                let mut out = format!(
                    "points: {}  slots/point: {}  template hits: {hits} ({:.1}%)\n\
                     server latency: {} µs total, rebind mean {mean_ns} ns/point\n\
                     trace id: {}\n",
                    reply.points.len(),
                    reply.params_per_point,
                    100.0 * hits as f64 / reply.points.len().max(1) as f64,
                    reply.total_us,
                    reply.trace_id,
                );
                if let Some(first) = reply.points.first() {
                    if let Some(digest) = first.result.get("digest") {
                        out.push_str(&format!("shared schedule digest: {}\n", digest.encode()));
                    }
                }
                out.trim_end().to_string()
            })
        }
        other => die(&format!("unknown command '{other}'")),
    };

    match outcome {
        Ok(text) => println!("{text}"),
        Err(e) => die(&e.to_string()),
    }
}
