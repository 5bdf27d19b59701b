//! The connection layer a shard and a router share: bind and accept, one
//! thread per connection reading capped newline frames and writing one
//! response per request, and the handle that stops it all.
//!
//! A tier ([`crate::server`]'s shard, [`crate::router`]'s router) supplies
//! a `Tier`: how to answer one request line, what state a connection
//! carries between requests, how to count a line the framing refused, and
//! what to finish before the listener stops. The `STATS` wrapper and the
//! `METRICS` and `TRACE` encodings both tiers answer locally live here too.

use crate::json::Json;
use crate::protocol::error_response;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The cap on one request line, bytes, on both tiers. An oversized line is
/// consumed (to resynchronize on the next newline) and answered with a
/// structured error instead of being buffered without bound — one hostile
/// connection cannot balloon the process's memory.
pub const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// What a tier plugs into the shared connection layer.
pub(crate) trait Tier: Send + Sync + 'static {
    /// Thread-name prefix: `<NAME>-accept`, `<NAME>-conn`.
    const NAME: &'static str;
    /// State one client connection carries between its requests.
    type Conn;
    /// State for a newly accepted connection.
    fn open(&self) -> Self::Conn;
    /// Answer one non-blank request line; never panics on malformed input.
    /// `true` marks a completed `SHUTDOWN`: once its ack is written,
    /// [`Handle::wait_until_drained`] returns.
    fn respond(&self, line: &str, conn: &mut Self::Conn) -> (String, bool);
    /// Count a line the framing answered itself (oversized or not UTF-8).
    fn count_rejected_frame(&self);
    /// Finish before the accept loop stops (a shard drains accepted jobs).
    fn stop(&self) {}
}

/// State the accept loop, the connection threads and the handle share.
struct Listener {
    addr: SocketAddr,
    /// Whether the accept loop should stop taking connections. Only
    /// [`Handle::shutdown`] sets this — a drained shard still answers its
    /// admin plane on new connections.
    exiting: AtomicBool,
    /// Set (after the shutdown response has been written to its client)
    /// to release [`Handle::wait_until_drained`]; signalling only
    /// post-write keeps the daemon from exiting before the ack leaves.
    exit_requested: Mutex<bool>,
    exit: Condvar,
}

/// A running shard or router. Dropping the handle shuts it down.
pub struct Handle {
    listener: Arc<Listener>,
    stop: Box<dyn Fn() + Send + Sync>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Handle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr
    }

    /// Gracefully shut down: a shard drains its accepted jobs (a router
    /// never touches the shards it fronts — a client's `SHUTDOWN` drains
    /// the fabric), then the accept loop stops and is joined. Connected
    /// clients finish their in-flight request. Idempotent.
    pub fn shutdown(&mut self) {
        (self.stop)();
        self.listener.exiting.store(true, Ordering::SeqCst);
        // Unblock the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.listener.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until some client's `SHUTDOWN` has completed and its
    /// acknowledgement has been written back, then shut down — the
    /// daemons' main loop.
    pub fn wait_until_drained(&mut self) {
        {
            let mut requested = self.listener.exit_requested.lock().expect("exit lock");
            while !*requested {
                requested = self.listener.exit.wait(requested).expect("exit lock");
            }
        }
        self.shutdown();
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve `tier` on a bound `listener`, capping request lines at
/// [`MAX_LINE_BYTES`]; returns once the accept thread runs.
pub(crate) fn serve<T: Tier>(listener: TcpListener, tier: Arc<T>) -> std::io::Result<Handle> {
    let shared = Arc::new(Listener {
        addr: listener.local_addr()?,
        exiting: AtomicBool::new(false),
        exit_requested: Mutex::new(false),
        exit: Condvar::new(),
    });
    let (accept_shared, accept_tier) = (shared.clone(), tier.clone());
    let accept_thread = std::thread::Builder::new()
        .name(format!("{}-accept", T::NAME))
        .spawn(move || accept_loop(&listener, &accept_shared, &accept_tier))?;
    Ok(Handle {
        listener: shared,
        stop: Box::new(move || tier.stop()),
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop<T: Tier>(listener: &TcpListener, shared: &Arc<Listener>, tier: &Arc<T>) {
    for stream in listener.incoming() {
        if shared.exiting.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let (shared, tier) = (shared.clone(), tier.clone());
        let _ = std::thread::Builder::new()
            .name(format!("{}-conn", T::NAME))
            .spawn(move || handle_connection(stream, &shared, &*tier));
    }
}

fn handle_connection<T: Tier>(stream: TcpStream, shared: &Listener, tier: &T) {
    // Interactive request/response over tiny messages: Nagle's algorithm
    // would add tens of milliseconds per roundtrip, so send each response
    // as one immediate write.
    let _ = stream.set_nodelay(true);
    let Ok(reader_stream) = stream.try_clone() else { return };
    let mut writer = stream;
    let mut reader = BufReader::new(reader_stream);
    let mut conn = tier.open();
    while let Some(line) = read_line_capped(&mut reader, MAX_LINE_BYTES) {
        let (mut response, was_shutdown) = match line {
            Err(e) => {
                tier.count_rejected_frame();
                (error_response(&e, None), false)
            }
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => tier.respond(&line, &mut conn),
        };
        response.push('\n');
        let written = writer.write_all(response.as_bytes());
        if was_shutdown {
            // Only now — with the shutdown complete *and* the ack on the
            // wire — may the daemon's wait_until_drained() proceed to exit.
            *shared.exit_requested.lock().expect("exit lock") = true;
            shared.exit.notify_all();
        }
        if written.is_err() {
            break;
        }
    }
}

/// Read one newline-delimited request line, buffering at most `cap`
/// bytes: `None` at end of stream or on a transport error, else the line
/// (a final unterminated one included) or the error to answer for a line
/// that is oversized or not UTF-8. An oversized line is drained through its
/// newline without buffering past the cap — one hostile connection cannot
/// balloon the process's memory — and the connection resynchronizes.
fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> Option<Result<String, String>> {
    let mut bytes = Vec::new();
    if reader.take((cap as u64).saturating_add(1)).read_until(b'\n', &mut bytes).ok()? == 0 {
        return None;
    }
    if bytes.last() == Some(&b'\n') {
        bytes.pop();
    } else if bytes.len() > cap {
        reader.skip_until(b'\n').ok()?;
        return Some(Err(format!("request line exceeds {cap} bytes; split the submission")));
    }
    Some(String::from_utf8(bytes).map_err(|_| "request line is not valid UTF-8".to_string()))
}

/// The `STATS` response around a tier's snapshot. The trace id rides the
/// *wrapper* so the `stats` object keeps its pinned (golden-tested) shape.
pub(crate) fn stats_response(stats: Json) -> String {
    let trace = format!("{:016x}", parallax_trace::next_trace_id());
    Json::obj(vec![("ok", Json::Bool(true)), ("trace_id", Json::Str(trace)), ("stats", stats)])
        .encode()
}

/// The `METRICS` response: the process-wide registry as Prometheus text.
pub(crate) fn metrics_response() -> String {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("metrics", Json::Str(parallax_trace::render_prometheus())),
    ])
    .encode()
}

/// This process's most recent per-request span trees still in the ring
/// buffer, newest first, each encoded as `trace_id`, then the field
/// `annotate` returns for that id (if any), then `events`.
pub(crate) fn span_trees(
    limit: usize,
    annotate: impl Fn(u64) -> Option<(&'static str, Json)>,
) -> Vec<Json> {
    parallax_trace::recent_traces(limit)
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
            pairs.extend(annotate(t.trace_id));
            pairs.push(("events", Json::Arr(events)));
            Json::obj(pairs)
        })
        .collect()
}

/// The `TRACE` response around a `traces` array. `enabled` tells the
/// client whether an empty list means "tracing off".
pub(crate) fn trace_response(enabled: bool, dropped_events: u64, traces: Vec<Json>) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("enabled", Json::Bool(enabled)),
        ("dropped_events", Json::Int(dropped_events)),
        ("traces", Json::Arr(traces)),
    ])
    .encode()
}
