//! Open-loop load generator.
//!
//! Requests go out on a fixed schedule whether or not earlier ones were
//! answered, so a slow server builds a queue instead of slowing the
//! client down. Each request is timed from its *intended* send time,
//! which charges a stall to every request it delays (the
//! coordinated-omission correction). The generator runs on two threads —
//! the calling thread sends, one thread receives — over any number of
//! pipelined connections; replies on one connection arrive in request
//! order.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One scheduled request.
pub struct Outgoing {
    /// Intended send time, as an offset from the segment start.
    pub at: Duration,
    /// Index of the connection it goes out on.
    pub conn: usize,
    /// The wire line, newline included.
    pub line: Arc<str>,
    /// Reply lines that complete it (a sweep streams a header plus one
    /// line per point; an error is always a single line).
    pub reply_lines: usize,
}

/// What happened to one request.
pub struct Completion {
    /// When the request was actually written.
    pub sent: Option<Instant>,
    /// When its last reply line arrived.
    pub done: Option<Instant>,
    /// The reply lines, newline stripped.
    pub lines: Vec<String>,
}

/// The outcome of one open-loop segment.
pub struct Segment {
    pub start: Instant,
    pub completions: Vec<Completion>,
    /// Requests the sender reached: the whole schedule, unless a
    /// saturation segment stopped early. Each was sent or, if its
    /// connection failed, counts as unanswered.
    pub issued: usize,
    /// Most requests ever sent and not yet answered, sampled at each send.
    pub backlog_max: usize,
    /// Requests not yet answered when the last one was sent.
    pub backlog_at_end: usize,
}

impl Segment {
    /// Latency of request `i` in ms, from its intended send time.
    pub fn latency_ms(&self, schedule: &[Outgoing], i: usize) -> Option<f64> {
        let done = self.completions[i].done?;
        Some((done - (self.start + schedule[i].at)).as_secs_f64() * 1e3)
    }

    /// Requests outstanding at each send, recomputed from the recorded
    /// send and reply times.
    pub fn backlog_at_sends(&self) -> Vec<usize> {
        let mut done: Vec<Instant> = self.completions.iter().filter_map(|c| c.done).collect();
        done.sort();
        self.completions
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                c.sent.map(|s| i + 1 - done.partition_point(|&d| d <= s).min(i + 1))
            })
            .collect()
    }

    /// Round trip of request `i` from its actual send to its last reply
    /// line, ms.
    pub fn roundtrip_ms(&self, i: usize) -> Option<f64> {
        let c = &self.completions[i];
        Some((c.done? - c.sent?).as_secs_f64() * 1e3)
    }

    /// How late request `i` went out, ms.
    pub fn lag_ms(&self, schedule: &[Outgoing], i: usize) -> Option<f64> {
        let sent = self.completions[i].sent?;
        Some(sent.saturating_duration_since(self.start + schedule[i].at).as_secs_f64() * 1e3)
    }
}

/// How long the receiver keeps waiting once nothing arrives any more, and
/// how long one write may block on a server that stopped reading.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// How a segment paces its sends.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Open loop: every request goes out at its scheduled time.
    Open,
    /// Saturation: as fast as the server answers, with at most
    /// `outstanding` requests unanswered, until `stop_after` has passed or
    /// the receiver gave up (every connection closed, or no reply for
    /// [`IDLE_TIMEOUT`]); the rest of the schedule is never sent.
    Window { outstanding: usize, stop_after: Duration },
}

/// Run `schedule` (sorted by `at`) over `conns` and wait for every reply,
/// or until replies stop arriving for [`IDLE_TIMEOUT`] after the last
/// send.
pub fn run(conns: &[TcpStream], schedule: &[Outgoing], pace: Pace) -> std::io::Result<Segment> {
    let mut writers = conns.iter().map(TcpStream::try_clone).collect::<Result<Vec<_>, _>>()?;
    for w in &writers {
        w.set_write_timeout(Some(IDLE_TIMEOUT))?;
    }
    let readers = conns.iter().map(TcpStream::try_clone).collect::<Result<Vec<_>, _>>()?;
    let mut order: Vec<Vec<usize>> = vec![Vec::new(); conns.len()];
    for (i, o) in schedule.iter().enumerate() {
        order[o.conn].push(i);
    }
    let completed = AtomicUsize::new(0);
    let target = AtomicUsize::new(schedule.len());
    let sending = AtomicBool::new(true);
    let receiving = AtomicBool::new(true);
    let start = Instant::now() + Duration::from_millis(5);
    let mut sent: Vec<Option<Instant>> = vec![None; schedule.len()];
    let mut writable = vec![true; conns.len()];
    let (mut backlog_max, mut backlog_at_end, mut issued) = (0, 0, 0);

    let received = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let out = receive(readers, &order, schedule, &completed, &target, &sending);
            receiving.store(false, Ordering::Release);
            out
        });
        'send: for (i, o) in schedule.iter().enumerate() {
            let due = start + o.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if let Pace::Window { outstanding, stop_after } = pace {
                // Wait for a free slot; stop when the time is up or no
                // reply can come any more. Requests never sent are not
                // part of the segment; sent and unanswered ones are.
                loop {
                    if start.elapsed() > stop_after || !receiving.load(Ordering::Acquire) {
                        target.store(i, Ordering::Release);
                        break 'send;
                    }
                    if i - completed.load(Ordering::Acquire) < outstanding {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(20));
                }
            }
            issued = i + 1;
            let at = Instant::now();
            // A connection whose write failed (or timed out) takes no
            // more requests; its unsent ones count as unanswered.
            if writable[o.conn] {
                if writers[o.conn].write_all(o.line.as_bytes()).is_ok() {
                    sent[i] = Some(at);
                } else {
                    writable[o.conn] = false;
                }
            }
            let backlog = i + 1 - completed.load(Ordering::Acquire);
            backlog_max = backlog_max.max(backlog);
            backlog_at_end = backlog;
        }
        sending.store(false, Ordering::Release);
        receiver.join().expect("receiver thread panicked")
    });
    let completions = received
        .into_iter()
        .zip(sent)
        .map(|((done, lines), sent)| Completion { sent, done, lines })
        .collect();
    Ok(Segment { start, completions, issued, backlog_max, backlog_at_end })
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
}

const POLLIN: i16 = 0x001;

type Received = Vec<(Option<Instant>, Vec<String>)>;

fn receive(
    mut readers: Vec<TcpStream>,
    order: &[Vec<usize>],
    schedule: &[Outgoing],
    completed: &AtomicUsize,
    target: &AtomicUsize,
    sending: &AtomicBool,
) -> Received {
    let mut out: Received = (0..schedule.len()).map(|_| (None, Vec::new())).collect();
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); readers.len()];
    let mut next = vec![0usize; readers.len()];
    let mut open = vec![true; readers.len()];
    let mut chunk = vec![0u8; 1 << 16];
    let mut last_progress = Instant::now();
    loop {
        let done = completed.load(Ordering::Acquire);
        if done == target.load(Ordering::Acquire) || !open.iter().any(|&o| o) {
            break;
        }
        if !sending.load(Ordering::Acquire) && last_progress.elapsed() > IDLE_TIMEOUT {
            break;
        }
        let mut fds: Vec<PollFd> = readers
            .iter()
            .map(|r| PollFd { fd: r.as_raw_fd(), events: POLLIN, revents: 0 })
            .collect();
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` `pollfd`-layout structs (`#[repr(C)]`, matching
        // `struct pollfd`), each holding a descriptor owned by `readers`
        // for the whole call; `poll` writes only their `revents` fields.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, 50) };
        if ready <= 0 {
            continue;
        }
        for (c, fd) in fds.iter().enumerate() {
            if fd.revents == 0 || !open[c] {
                continue;
            }
            // Readable: one read returns what has arrived without blocking.
            let n = match readers[c].read(&mut chunk) {
                Ok(0) | Err(_) => {
                    open[c] = false;
                    continue;
                }
                Ok(n) => n,
            };
            let now = Instant::now();
            last_progress = now;
            bufs[c].extend_from_slice(&chunk[..n]);
            let mut consumed = 0;
            while let Some(pos) = bufs[c][consumed..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&bufs[c][consumed..consumed + pos]).into_owned();
                consumed += pos + 1;
                let Some(&req) = order[c].get(next[c]) else { continue };
                let slot = &mut out[req];
                let expected = if slot.1.is_empty() && line.contains("\"ok\":false") {
                    1
                } else {
                    schedule[req].reply_lines
                };
                slot.1.push(line);
                if slot.1.len() == expected {
                    slot.0 = Some(now);
                    next[c] += 1;
                    completed.fetch_add(1, Ordering::Release);
                }
            }
            bufs[c].drain(..consumed);
        }
    }
    out
}

/// Evenly spaced arrivals at `rate` per second for `seconds`.
pub fn arrival_offsets(rate: f64, seconds: f64) -> Vec<Duration> {
    let n = (rate * seconds).round() as usize;
    (0..n).map(|i| Duration::from_secs_f64(i as f64 / rate)).collect()
}

/// Self-check: drive the generator against a stub responder with a known
/// fixed service time and compare latency, lag and backlog with what
/// queueing arithmetic predicts, below and above saturation. Returns the
/// report lines and whether every prediction held.
pub fn self_check() -> (Vec<String>, bool) {
    let service = Duration::from_millis(2);
    let mut lines = Vec::new();
    let mut ok = true;
    let mut expect = |what: String, pass: bool| {
        lines.push(format!("{} {what}", if pass { "ok  " } else { "FAIL" }));
        ok &= pass;
    };
    let near = |got: f64, want: f64| (got - want).abs() <= 0.10 * want;

    // Half load: arrivals every 4 ms, 2 ms of service, so nothing queues:
    // every request takes one service time plus loopback overhead, and at
    // most the request in service and the next are outstanding.
    let run = stub_segment(service, 250.0, 1.0);
    let p50 = crate::stats::median(&run.latency);
    let d = service.as_secs_f64() * 1e3;
    expect(
        format!("rho=0.5: p50 {p50:.3} ms ~ service {d:.3} ms (+1 ms)"),
        p50 >= d && p50 <= d + 1.0,
    );
    expect(format!("rho=0.5: backlog p50 {} <= 1", run.backlog_p50), run.backlog_p50 <= 1);
    let lag = crate::stats::median(&run.lag);
    expect(format!("rho=0.5: lag p50 {lag:.3} ms <= 0.5"), lag <= 0.5);

    // Double load for 0.5 s: n = 500 arrivals a = 1 ms apart, one served
    // per d (about 2 ms, as the stub measured it). Request k finishes near
    // (k+1)*d and was due at k*a, so its latency is about d + k*(d-a): the
    // median near d + n/2*(d-a), the maximum near d + (n-1)*(d-a), and
    // n - 0.5 s/d requests still waiting when the last one is sent.
    let run = stub_segment(service, 1000.0, 0.5);
    let n = run.latency.len() as f64;
    let (d, a) = (run.service_ms, 1.0);
    let (want_p50, want_max) = (d + n / 2.0 * (d - a), d + (n - 1.0) * (d - a));
    let p50 = crate::stats::median(&run.latency);
    let max = crate::stats::quantile(&run.latency, 1.0);
    expect(format!("rho=2: p50 {p50:.1} ms ~ {want_p50:.1} (10%)"), near(p50, want_p50));
    expect(format!("rho=2: max {max:.1} ms ~ {want_max:.1} (10%)"), near(max, want_max));
    let want_backlog = n - 0.5 / (d / 1e3);
    expect(
        format!("rho=2: backlog at last send {} ~ {want_backlog:.0} (10%)", run.backlog_at_end),
        near(run.backlog_at_end as f64, want_backlog),
    );
    let lag = crate::stats::median(&run.lag);
    expect(
        format!("rho=2: lag p50 {lag:.3} ms <= 0.5 (the sender never waits for replies)"),
        lag <= 0.5,
    );

    // A server that reads requests, never answers and then hangs up: a
    // saturation segment must stop once the receiver gives up, long before
    // its time limit, with every sent request left unanswered.
    let (segment, took) = silent_segment(Duration::from_millis(200));
    let answered = segment.completions.iter().filter(|c| c.done.is_some()).count();
    expect(
        format!(
            "silent server: window segment ends in {:.2} s (limit 5 s) with {} of {} sent \
             requests unanswered",
            took.as_secs_f64(),
            segment.issued - answered,
            segment.issued
        ),
        took < Duration::from_secs(2) && segment.issued == 8 && answered == 0,
    );
    (lines, ok)
}

/// A window segment (8 outstanding, 5 s limit) against a stub that reads
/// every request, answers none, and closes its connections after
/// `hang_up`. Returns the segment and how long it took.
fn silent_segment(hang_up: Duration) -> (Segment, Duration) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind the stub");
    let addr = listener.local_addr().expect("stub address");
    let conns: Vec<TcpStream> =
        (0..2).map(|_| TcpStream::connect(addr).expect("connect to the stub")).collect();
    let schedule: Vec<Outgoing> = (0..100)
        .map(|i| Outgoing {
            at: Duration::ZERO,
            conn: i % 2,
            line: Arc::from("ping\n"),
            reply_lines: 1,
        })
        .collect();
    std::thread::scope(|s| {
        for _ in 0..2 {
            let (mut stream, _) = listener.accept().expect("stub accept");
            s.spawn(move || {
                stream.set_read_timeout(Some(Duration::from_millis(10))).expect("read timeout");
                let until = Instant::now() + hang_up;
                let mut sink = [0u8; 4096];
                while Instant::now() < until {
                    if let Ok(0) = stream.read(&mut sink) {
                        break;
                    }
                }
            });
        }
        let t = Instant::now();
        let pace = Pace::Window { outstanding: 8, stop_after: Duration::from_secs(5) };
        let segment = run(&conns, &schedule, pace).expect("silent segment");
        (segment, t.elapsed())
    })
}

struct StubRun {
    latency: Vec<f64>,
    lag: Vec<f64>,
    backlog_p50: usize,
    backlog_at_end: usize,
    /// The stub's first job start to last completion over its job count,
    /// ms: the service time it delivered while saturated (it includes
    /// idle gaps when it was not).
    service_ms: f64,
}

/// One segment against a fresh stub: (latencies ms, lags ms, backlog max,
/// backlog at the last send).
fn stub_segment(service: Duration, rate: f64, seconds: f64) -> StubRun {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind the stub");
    let addr = listener.local_addr().expect("stub address");
    let conns: Vec<TcpStream> = (0..2)
        .map(|_| {
            let c = TcpStream::connect(addr).expect("connect to the stub");
            c.set_nodelay(true).expect("nodelay");
            c
        })
        .collect();
    let schedule: Vec<Outgoing> = arrival_offsets(rate, seconds)
        .into_iter()
        .enumerate()
        .map(|(i, at)| Outgoing { at, conn: i % 2, line: Arc::from("ping\n"), reply_lines: 1 })
        .collect();
    let (jobs_tx, jobs_rx) = std::sync::mpsc::channel::<std::sync::mpsc::Sender<()>>();
    let (segment, service_ms) = std::thread::scope(|s| {
        // The stub's single worker: FIFO, a fixed service time per job.
        let worker = s.spawn(move || {
            let (mut first, mut last, mut jobs) = (None, Instant::now(), 0u32);
            for reply in jobs_rx {
                first.get_or_insert_with(Instant::now);
                std::thread::sleep(service);
                let _ = reply.send(());
                last = Instant::now();
                jobs += 1;
            }
            first.map_or(0.0, |f| (last - f).as_secs_f64() * 1e3 / f64::from(jobs.max(1)))
        });
        for _ in 0..2 {
            let (stream, _) = listener.accept().expect("stub accept");
            let jobs_tx = jobs_tx.clone();
            s.spawn(move || stub_connection(stream, &jobs_tx));
        }
        drop(jobs_tx);
        let segment = run(&conns, &schedule, Pace::Open).expect("stub segment");
        drop(conns);
        (segment, worker.join().expect("stub worker"))
    });
    StubRun {
        latency: (0..schedule.len()).filter_map(|i| segment.latency_ms(&schedule, i)).collect(),
        lag: (0..schedule.len()).filter_map(|i| segment.lag_ms(&schedule, i)).collect(),
        backlog_p50: {
            let mut b = segment.backlog_at_sends();
            b.sort_unstable();
            b.get(b.len() / 2).copied().unwrap_or(0)
        },
        backlog_at_end: segment.backlog_at_end,
        service_ms,
    }
}

fn stub_connection(stream: TcpStream, jobs: &std::sync::mpsc::Sender<std::sync::mpsc::Sender<()>>) {
    use std::io::BufRead;
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stub stream");
    for line in std::io::BufReader::new(stream).lines() {
        if line.is_err() {
            return;
        }
        let (tx, rx) = std::sync::mpsc::channel();
        if jobs.send(tx).is_err() || rx.recv().is_err() {
            return;
        }
        if writer.write_all(b"{\"ok\":true}\n").is_err() {
            return;
        }
    }
}
