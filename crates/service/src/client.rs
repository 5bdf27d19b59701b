//! Blocking client for the compile service.
//!
//! One [`ServiceClient`] wraps one TCP connection; requests on a
//! connection are answered strictly in order, so a sequential caller can
//! pair every response with its request (and assert it via the `id` echo).

use crate::json::{self, Json};
use crate::protocol::{encode_request, CacheOp, Request, SubmitRequest, SweepRequest};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport problem (connect/read/write).
    Io(std::io::Error),
    /// The server's reply was not a valid response line.
    Protocol(String),
    /// The server answered `{"ok":false,...}`; payload is the error text.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A successful submit response.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitReply {
    /// Whether the result came from the server's cache.
    pub cached: bool,
    /// The client-supplied id, echoed back.
    pub id: Option<u64>,
    /// The request's trace id: the client-supplied string echoed back, or
    /// the server-minted 16-hex id tagging this compile's spans.
    pub trace_id: String,
    /// Server-side latency from arrival to response, µs.
    pub total_us: u64,
    /// The canonical compilation payload (metrics + schedule digest).
    pub result: Json,
}

/// One point of a successful sweep response.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPointReply {
    /// Zero-based index into the request's `params`.
    pub point: u64,
    /// Whether the process-wide template cache answered this point.
    pub cached: bool,
    /// Server-side nanoseconds to serve this point (template probe +
    /// parameter rebind; includes the one-time compile on a miss).
    pub rebind_ns: u64,
    /// Bit-exact hash of the bound circuit this point executes
    /// ([`parallax_circuit::circuit_bits_hash`] — recompute it from a
    /// local `CircuitTemplate::bind` to verify the materialization).
    pub bound_hash: String,
    /// The canonical compilation payload every point of the sweep shares.
    pub result: Json,
}

/// A successful submit-sweep response: the header plus every point line.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReply {
    /// The client-supplied id, echoed back.
    pub id: Option<u64>,
    /// The sweep's trace id (client-supplied or server-minted); every
    /// point of the sweep shares it.
    pub trace_id: String,
    /// Parameter slots per point (the structure's U3 angle count).
    pub params_per_point: u64,
    /// Points answered by the template cache (cold sweep: N − 1).
    pub template_cache_hits: u64,
    /// Server-side latency for the whole sweep, µs.
    pub total_us: u64,
    /// One reply per requested parameter vector, in request order.
    pub points: Vec<SweepPointReply>,
}

/// A blocking connection to a `parallax-serve` instance.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServiceClient {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::over(TcpStream::connect(addr)?)
    }

    /// Connect to the first address `addr` resolves to, giving up after
    /// `timeout`.
    pub(crate) fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> std::io::Result<Self> {
        let first = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address resolved")
        })?;
        Self::over(TcpStream::connect_timeout(&first, timeout)?)
    }

    fn over(stream: TcpStream) -> std::io::Result<Self> {
        // Tiny request/response messages: disable Nagle so each line goes
        // out immediately instead of waiting on delayed ACKs.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { reader, writer: stream })
    }

    /// Send one request line and read its response line.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Json, ClientError> {
        self.roundtrip_line(&encode_request(request))
    }

    /// Send a raw wire line (must be one line) and parse the response.
    pub fn roundtrip_line(&mut self, line: &str) -> Result<Json, ClientError> {
        self.send_line(line)?;
        self.read_response_line()
    }

    /// Send a raw wire line (must be one line) and return the response line
    /// unparsed, terminator stripped — for relaying its bytes verbatim.
    pub(crate) fn exchange_raw(&mut self, line: &str) -> std::io::Result<String> {
        self.send_line(line)?;
        self.read_raw_line()
    }

    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())
    }

    /// Read one response line off the stream unparsed, terminator stripped
    /// (e.g. a sweep point line following its header). A closed
    /// connection is an `UnexpectedEof` error.
    pub(crate) fn read_raw_line(&mut self) -> std::io::Result<String> {
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }

    /// Read and validate one `{"ok":...}` response line off the stream.
    fn read_response_line(&mut self) -> Result<Json, ClientError> {
        let response = self.read_raw_line().map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => ClientError::Protocol(e.to_string()),
            _ => ClientError::Io(e),
        })?;
        let v = json::parse(&response).map_err(|e| ClientError::Protocol(e.to_string()))?;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v),
            Some(false) => Err(ClientError::Server(
                v.get("error").and_then(Json::as_str).unwrap_or("unknown error").to_string(),
            )),
            None => Err(ClientError::Protocol(format!("response missing 'ok': {response}"))),
        }
    }

    /// Submit a compile job and wait for its result.
    pub fn submit(&mut self, request: SubmitRequest) -> Result<SubmitReply, ClientError> {
        let v = self.roundtrip(&Request::Submit(Box::new(request)))?;
        Ok(SubmitReply {
            cached: v
                .get("cached")
                .and_then(Json::as_bool)
                .ok_or_else(|| ClientError::Protocol("missing 'cached'".into()))?,
            id: v.get("id").and_then(Json::as_u64),
            trace_id: v.get("trace_id").and_then(Json::as_str).unwrap_or_default().to_string(),
            total_us: v.get("total_us").and_then(Json::as_u64).unwrap_or(0),
            result: v
                .get("result")
                .cloned()
                .ok_or_else(|| ClientError::Protocol("missing 'result'".into()))?,
        })
    }

    /// Submit a parameter sweep and collect its streamed response: the
    /// header line, then exactly `points` per-point lines. A refused sweep
    /// (validation error) surfaces as [`ClientError::Server`] from the
    /// single error line the server sent instead of a stream.
    pub fn submit_sweep(&mut self, request: SweepRequest) -> Result<SweepReply, ClientError> {
        let header = self.roundtrip(&Request::SubmitSweep(Box::new(request)))?;
        if header.get("sweep").and_then(Json::as_bool) != Some(true) {
            return Err(ClientError::Protocol("missing sweep header".into()));
        }
        let count = header
            .get("points")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("sweep header missing 'points'".into()))?;
        let mut points = Vec::with_capacity(count as usize);
        for i in 0..count {
            let v = self.read_response_line()?;
            points.push(SweepPointReply {
                point: v
                    .get("point")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ClientError::Protocol(format!("point {i} missing 'point'")))?,
                cached: v
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| ClientError::Protocol(format!("point {i} missing 'cached'")))?,
                rebind_ns: v.get("rebind_ns").and_then(Json::as_u64).unwrap_or(0),
                bound_hash: v
                    .get("bound_hash")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                result: v
                    .get("result")
                    .cloned()
                    .ok_or_else(|| ClientError::Protocol(format!("point {i} missing 'result'")))?,
            });
        }
        Ok(SweepReply {
            id: header.get("id").and_then(Json::as_u64),
            trace_id: header.get("trace_id").and_then(Json::as_str).unwrap_or_default().to_string(),
            params_per_point: header.get("params_per_point").and_then(Json::as_u64).unwrap_or(0),
            template_cache_hits: header
                .get("template_cache_hits")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            total_us: header.get("total_us").and_then(Json::as_u64).unwrap_or(0),
            points,
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(&Request::Ping)
    }

    /// Fetch the live metrics snapshot (the `stats` sub-object).
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        let v = self.roundtrip(&Request::Stats)?;
        v.get("stats").cloned().ok_or_else(|| ClientError::Protocol("missing 'stats'".into()))
    }

    /// Fetch the full `STATS` response wrapper, which also carries the
    /// response's `trace_id` (the `stats` sub-object never does).
    pub fn stats_response(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(&Request::Stats)
    }

    /// Fetch the server's unified metrics registry rendered as Prometheus
    /// text exposition (the `METRICS` op).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let v = self.roundtrip(&Request::Metrics)?;
        v.get("metrics")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("missing 'metrics'".into()))
    }

    /// Fetch the server's most recent per-request span trees (the `TRACE`
    /// op). Empty unless the server runs with tracing enabled
    /// (`PARALLAX_TRACE=1`); the response's `enabled` flag disambiguates.
    pub fn trace(&mut self, limit: usize) -> Result<Json, ClientError> {
        self.roundtrip(&Request::Trace { limit })
    }

    /// Ask the server to drain and stop accepting; returns once every
    /// accepted job has completed.
    pub fn shutdown(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(&Request::Shutdown)
    }

    /// Admin: drop every result-cache entry. Against a router this fans
    /// out to every shard.
    pub fn cache_flush(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(&Request::Cache(CacheOp::Flush))
    }

    /// Admin: change the result-cache byte budget (0 disables).
    pub fn cache_resize(&mut self, bytes: usize) -> Result<Json, ClientError> {
        self.roundtrip(&Request::Cache(CacheOp::Resize { bytes }))
    }

    /// Admin: stop accepting new submissions and finish accepted work,
    /// keeping the process alive for stats/metrics/admin traffic.
    pub fn drain(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(&Request::Drain)
    }

    /// Admin: fabric topology and health — a router's shard table, or a
    /// single shard's self-report.
    pub fn shards(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(&Request::Shards)
    }
}

fn cache_layer_line(cache: Option<&Json>) -> String {
    match cache {
        Some(c) => {
            let g = |k: &str| c.get(k).and_then(Json::as_u64).unwrap_or(0);
            // Every layer reports a `weight` gauge: qubit-units for the
            // core caches, payload bytes for the result cache. A snapshot
            // without one falls back to the entry count.
            let fill = match c.get("weight").and_then(Json::as_u64) {
                Some(w) => format!("len {}  weight {}/{}", g("len"), w, g("capacity")),
                None => format!("len {}/{}", g("len"), g("capacity")),
            };
            format!(
                "{fill}  hits {}  misses {}  evictions {}",
                g("hits"),
                g("misses"),
                g("evictions")
            )
        }
        None => "unavailable".to_string(),
    }
}

fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{:.3} s", us as f64 / 1e6)
    }
}

/// Render a `STATS` snapshot as the human-readable report that
/// `parallax-client stats` prints: job counters, queue gauge, all three
/// cache layers (per-server result cache, process-wide layout and
/// compiled-template caches), the sweep/rebind counters, the
/// stage table, and the latency histogram.
pub fn render_stats(stats: &Json) -> String {
    let n = |key: &str| stats.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!(
        "jobs          submitted {}  completed {}  failed {}  bad_requests {}\n",
        n("submitted"),
        n("completed"),
        n("failed"),
        n("bad_requests")
    ));
    out.push_str(&format!(
        "rejected      queue_full {}  shutdown {}\n",
        n("rejected_full"),
        n("rejected_shutdown")
    ));
    out.push_str(&format!("queue         depth {}/{}\n", n("queue_depth"), n("queue_capacity")));
    out.push_str(&format!("result cache  {}\n", cache_layer_line(stats.get("cache"))));
    out.push_str(&format!("layout cache  {}\n", cache_layer_line(stats.get("layout_cache"))));
    out.push_str(&format!("tmpl cache    {}\n", cache_layer_line(stats.get("template_cache"))));
    let rebind_mean_ns = n("rebind_ns").checked_div(n("template_cache_hits")).unwrap_or(0);
    out.push_str(&format!(
        "sweeps        points {}  template hits {}  misses {}  rebind mean {} ns\n",
        n("sweep_points"),
        n("template_cache_hits"),
        n("template_cache_misses"),
        rebind_mean_ns
    ));

    if let Some(latency) = stats.get("latency") {
        let g = |k: &str| latency.get(k).and_then(Json::as_u64).unwrap_or(0);
        out.push_str(&format!(
            "latency       count {}  mean {}  max {}\n",
            g("count"),
            fmt_us(g("mean_us")),
            fmt_us(g("max_us"))
        ));
        if let (Some(Json::Arr(bounds)), Some(Json::Arr(counts))) =
            (latency.get("bounds_us"), latency.get("counts"))
        {
            for (bound, count) in bounds.iter().zip(counts) {
                let count = count.as_u64().unwrap_or(0);
                if count == 0 {
                    continue;
                }
                let label = match bound.as_u64() {
                    Some(us) => format!("<= {}", fmt_us(us)),
                    None => "overflow".to_string(),
                };
                out.push_str(&format!("  {label:<12} {count}\n"));
            }
        }
    }

    if let Some(Json::Arr(stages)) = stats.get("profile").and_then(|p| p.get("stages")) {
        out.push_str("profile       stage times (cumulative)\n");
        for s in stages {
            let name = s.get("stage").and_then(Json::as_str).unwrap_or("?");
            let g = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0);
            out.push_str(&format!(
                "  {name:<12} calls {:<8} total {}\n",
                g("calls"),
                fmt_us(g("total_us"))
            ));
        }
    }
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    #[test]
    fn renders_every_section_of_a_stats_snapshot() {
        let m = Metrics::default();
        m.submitted.inc();
        m.completed.inc();
        m.cache_hits.inc();
        m.latency.record(250_000);
        let result_cache = Json::obj(vec![
            ("len", Json::Int(2)),
            ("capacity", Json::Int(64)),
            ("hits", Json::Int(1)),
            ("misses", Json::Int(2)),
            ("evictions", Json::Int(0)),
        ]);
        m.sweep_points.inc();
        m.sweep_points.inc();
        m.template_cache_hits.inc();
        m.rebind_ns.add(4200);
        let stats = m.to_json(1, 64, result_cache);
        let text = render_stats(&stats);
        assert!(text.contains("jobs          submitted 1  completed 1"), "{text}");
        assert!(text.contains("queue         depth 1/64"), "{text}");
        assert!(text.contains("result cache  len 2/64  hits 1  misses 2"), "{text}");
        assert!(text.contains("layout cache  len "), "layout-cache layer missing:\n{text}");
        assert!(text.contains("tmpl cache    len "), "template-cache layer missing:\n{text}");
        assert!(
            text.contains("sweeps        points 2  template hits 1  misses 0  rebind mean 4200 ns"),
            "{text}"
        );
        assert!(text.contains("latency       count 1  mean 250.00 ms"), "{text}");
        assert!(text.contains("<= 1.000 s"), "histogram bucket missing:\n{text}");
        assert!(text.contains("profile       stage times (cumulative)"), "{text}");
        assert!(text.contains("  placement    calls "), "{text}");
    }

    #[test]
    fn renders_gracefully_with_missing_sections() {
        let text = render_stats(&Json::obj(vec![("submitted", Json::Int(3))]));
        assert!(text.contains("submitted 3"));
        assert!(text.contains("result cache  unavailable"));
        assert!(text.contains("layout cache  unavailable"));
        assert!(text.contains("tmpl cache    unavailable"));
    }
}
