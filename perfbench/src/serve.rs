//! The two serving workloads: one in-process `parallax-serve`
//! (`serve_mix`), or `start_router` over two shards that split the same
//! result-cache budget (`fabric_mix`). Each server runs one worker; the
//! load comes from this process on two threads over two connections.
//!
//! A run makes cold passes over the working set, then either saturates
//! the service (untraced: `capacity_rps`) or offers it an open loop at a
//! fixed rate (traced: latency and its parts). Traffic is a seeded mix
//! over a working set of Table III programs about 1.5x the result cache's
//! byte budget:
//! * `hit` — exact repeats of a working-set submission (result-cache
//!   reads, which miss once evicted);
//! * `cold` — a working-set program at a fresh seed: compile, insert,
//!   evict (writes);
//! * `near` — a working-set submission with `return_home`, `scheduling`
//!   or `aod_dim` flipped: a result-cache miss that can reuse the layout;
//! * `inline` — a working-set circuit sent as QASM text (parse and hash);
//! * `sweep` — a small `submit-sweep` (template cache and rebind).
//!
//! The class shares, the Zipf exponent of read popularity and the sweep
//! size are assumptions, not measured traffic: no recorded request log
//! exists to take them from. So the traced run also drives each class
//! alone and reports its latency and cache hit ratios separately; a claim
//! about one cache should rest on those per-class numbers, not on the
//! blend.

use crate::checks;
use crate::cold::{set_layer_metrics, set_quality};
use crate::loadgen::{self, Outgoing, Pace, Segment};
use crate::pipeline::{self, CacheCounters, Job};
use crate::span::Tracer;
use crate::stats::{geomean, median, quantile, ratio, Rng};
use crate::{peak_rss_mb, Args, Report, SERVE_RECONCILE_TOLERANCE_US};
use parallax_circuit::{Circuit, CircuitTemplate};
use parallax_core::{CompilationResult, CompiledTemplate, ParallaxCompiler, SchedulingMode};
use parallax_service::json::{self, Json};
use parallax_service::router::{ring_key, HashRing};
use parallax_service::{
    circuit_content_hash, compile_payload, encode_request, start, start_router, Request,
    RouterConfig, RouterHandle, ServerConfig, ServerHandle, ServiceClient, SubmitRequest,
    SubmitSource, SweepRequest,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
pub enum Topology {
    Single,
    Fabric,
}

/// Seed of the working-set submissions.
const WS_SEED: u64 = 0;
/// Seed of the fixed popularity order of the working set.
const POPULARITY_SEED: u64 = 0x9e37;
/// Table III programs left out of the working set. Each takes over ~20 ms
/// to compile cold, or over ~50 ms as a multi-mover near miss, so one of
/// them would set p99 alone.
const WS_EXCLUDED: [&str; 5] = ["HSB", "QGAN", "QV", "TFIM", "VQE"];
const MACHINES: [&str; 2] = ["quera", "atom"];
/// Result-cache budget in payload bytes: two thirds of the working set's
/// payloads (26 entries, 5,214 bytes at the seed commit). `fabric_mix`
/// gives each of its two shards half.
pub const RESULT_CACHE_BYTES: usize = 3476;
/// Offered rate of the traced open loop, requests/s: about half the
/// saturation throughput measured at the seed commit on 2 cores, so
/// queueing amplifies changes in service time without overloading.
pub const RATE_RPS: f64 = 360.0;
/// Share of `--seconds` spent in the measured segment: the open loop at
/// [`RATE_RPS`] in a traced run, the capacity segment otherwise.
const MEASURE_SHARE: f64 = 0.55;
/// Requests planned per second of the capacity segment: more than the
/// service completes, so the window and the time limit end it.
const CAPACITY_PLANNED_RPS: f64 = 1500.0;
/// Requests outstanding at once while measuring capacity.
const CAPACITY_WINDOW: usize = 8;
/// Traffic mix: (class, share of requests). Assumed, not measured (see
/// the module docs).
const MIX: [(Class, f64); 5] = [
    (Class::Hit, 0.64),
    (Class::Cold, 0.06),
    (Class::Near, 0.08),
    (Class::Inline, 0.12),
    (Class::Sweep, 0.10),
];
/// Exponent of the Zipf law over working-set reads. Assumed, not measured.
const ZIPF_EXPONENT: f64 = 1.2;
/// Requests per block of the stratified class draw.
const MIX_BLOCK: usize = 50;
const SWEEP_POINTS: usize = 2;
/// Sweeps use working-set programs with at most this many angle slots.
const SWEEP_MAX_SLOTS: usize = 200;
/// Times the set-up is repeated before the cold passes; one more is made
/// after every cold pass, so the samples span that part of the run.
/// `setup_s` is the median of all of them.
const SETUP_REPEATS: usize = 5;
/// Share of `--seconds` spent in cold passes over the working set
/// (`pass_s`, `compile_ms_geomean`), and the fewest passes made.
const COLD_SHARE: f64 = 0.3;
const MIN_COLD_PASSES: usize = 3;
/// Distinct compiles the traced run replays stage by stage, and how many
/// times (the per-layer numbers are medians across those passes).
const REPLAY_SAMPLE: usize = 40;
const REPLAY_PASSES: u64 = 5;
/// Served schedules per run checked by statevector simulation (the
/// cheapest to simulate first).
const SIM_SAMPLE: usize = 8;
const SIM_SEED: u64 = 7;
/// Requests in each class's solo segment, and how long one may take.
const CLASS_REQUESTS: usize = 50;
const CLASS_STOP_AFTER: std::time::Duration = std::time::Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Class {
    Hit,
    Cold,
    Near,
    Inline,
    Sweep,
}

impl Class {
    /// Every class, in the order the traced run drives them alone.
    const ALL: [Class; 5] = [Class::Hit, Class::Inline, Class::Near, Class::Cold, Class::Sweep];

    /// The class's name in its `class.<name>.*` metrics.
    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Cold => "cold",
            Class::Near => "near",
            Class::Inline => "inline",
            Class::Sweep => "sweep",
        }
    }
}

/// The near-miss variants of a working-set submission.
const NEAR_VARIANTS: usize = 3;

/// One working-set submission and its pre-encoded wire lines.
struct Entry {
    base: SubmitRequest,
    circuit: Arc<Circuit>,
    qasm: Arc<str>,
    slots: usize,
    hit_line: Arc<str>,
    inline_line: Arc<str>,
    near_lines: Vec<Arc<str>>,
}

fn near_variant(base: &SubmitRequest, v: usize) -> SubmitRequest {
    let mut r = base.clone();
    match v {
        0 => r.return_home = false,
        1 => r.scheduling = SchedulingMode::MultiMover,
        _ => r.aod_dim = Some(10),
    }
    r
}

fn line(request: &Request) -> Arc<str> {
    let mut l = encode_request(request);
    l.push('\n');
    Arc::from(l)
}

fn submit_line(r: &SubmitRequest) -> Arc<str> {
    line(&Request::Submit(Box::new(r.clone())))
}

fn build_entries() -> Vec<Entry> {
    let mut entries = Vec::new();
    for machine in MACHINES {
        for b in parallax_workloads::all_benchmarks() {
            if WS_EXCLUDED.contains(&b.name) {
                continue;
            }
            let base = SubmitRequest {
                source: SubmitSource::Workload(b.name.to_string()),
                seed: WS_SEED,
                machine: machine.to_string(),
                ..Default::default()
            };
            let circuit = Arc::new(b.circuit(WS_SEED));
            let qasm: Arc<str> = Arc::from(circuit.to_qasm());
            let inline =
                SubmitRequest { source: SubmitSource::Qasm(qasm.to_string()), ..base.clone() };
            entries.push(Entry {
                slots: CircuitTemplate::from_circuit(&circuit).num_params(),
                hit_line: submit_line(&base),
                inline_line: submit_line(&inline),
                near_lines: (0..NEAR_VARIANTS)
                    .map(|v| submit_line(&near_variant(&base, v)))
                    .collect(),
                base,
                circuit,
                qasm,
            });
        }
    }
    entries
}

/// What a planned request asks the service for, by working-set entry:
/// near-miss variant, cold seed, or sweep id (its parameters live in a
/// [`Sweeps`] table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Spec {
    Base(usize),
    Inline(usize),
    Near(usize, usize),
    Cold(usize, u64),
    Sweep(usize, u64),
}

impl Spec {
    fn class(self) -> Class {
        match self {
            Spec::Base(_) => Class::Hit,
            Spec::Inline(_) => Class::Inline,
            Spec::Near(..) => Class::Near,
            Spec::Cold(..) => Class::Cold,
            Spec::Sweep(..) => Class::Sweep,
        }
    }
}

/// Parameter points of every planned sweep, by sweep id.
type Sweeps = HashMap<u64, Vec<Vec<f64>>>;

/// Read popularity: a Zipf law over the working set in a fixed shuffled
/// order, so a few submissions are hot and the tail is rarely repeated.
struct Popularity {
    order: Vec<usize>,
    cumulative: Vec<f64>,
}

impl Popularity {
    fn new(n: usize) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        Rng::new(POPULARITY_SEED, 4).shuffle(&mut order);
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|k| {
                total += (k as f64).powf(-ZIPF_EXPONENT);
                total
            })
            .collect();
        Self { order, cumulative }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cumulative[self.cumulative.len() - 1];
        self.order[self.cumulative.partition_point(|&c| c <= u).min(self.order.len() - 1)]
    }
}

/// A seeded walk through `0..n` that visits every value once per round.
struct Cycle {
    order: Vec<usize>,
    at: usize,
}

impl Cycle {
    fn new(n: usize) -> Self {
        Self { order: (0..n).collect(), at: n }
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.at == self.order.len() {
            rng.shuffle(&mut self.order);
            self.at = 0;
        }
        self.at += 1;
        self.order[self.at - 1]
    }
}

/// A segment's schedule: `rate` requests/s for `seconds`, classes drawn
/// in `mix`'s shares and targets drawn from `rng`. `fresh` numbers cold
/// seeds and sweeps, so both are unique within a run.
fn plan(
    entries: &[Entry],
    mix: &[(Class, f64)],
    rate: f64,
    seconds: f64,
    rng: &mut Rng,
    fresh: &mut u64,
    sweeps: &mut Sweeps,
) -> (Vec<Outgoing>, Vec<Spec>) {
    let sweepable: Vec<usize> =
        (0..entries.len()).filter(|&e| (1..=SWEEP_MAX_SLOTS).contains(&entries[e].slots)).collect();
    let popularity = Popularity::new(entries.len());
    // Stratified draws keep each run's mix close to the nominal one: the
    // classes come in blocks holding exact shares, and writes walk seeded
    // permutations of their targets, so every seed offers the same work
    // in a different order.
    let mut classes: Vec<Class> = Vec::new();
    let mut colds = Cycle::new(entries.len());
    let mut nears = Cycle::new(entries.len() * NEAR_VARIANTS);
    let mut out = Vec::new();
    let mut planned = Vec::new();
    for at in loadgen::arrival_offsets(rate, seconds) {
        if classes.is_empty() {
            for &(c, share) in mix {
                classes.extend(std::iter::repeat_n(c, (share * MIX_BLOCK as f64).round() as usize));
            }
            rng.shuffle(&mut classes);
        }
        let class = classes.pop().expect("a refilled block");
        let e = match class {
            Class::Cold => colds.next(rng),
            Class::Near => nears.next(rng),
            _ => popularity.draw(rng),
        };
        let (spec, line, reply_lines) = match class {
            Class::Hit => (Spec::Base(e), entries[e].hit_line.clone(), 1),
            Class::Inline => (Spec::Inline(e), entries[e].inline_line.clone(), 1),
            Class::Near => {
                let (e, v) = (e / NEAR_VARIANTS, e % NEAR_VARIANTS);
                (Spec::Near(e, v), entries[e].near_lines[v].clone(), 1)
            }
            Class::Cold => {
                *fresh += 1;
                let r = SubmitRequest { seed: *fresh, ..entries[e].base.clone() };
                (Spec::Cold(e, *fresh), submit_line(&r), 1)
            }
            Class::Sweep => {
                let e = sweepable[rng.below(sweepable.len())];
                let params: Vec<Vec<f64>> = (0..SWEEP_POINTS)
                    .map(|_| {
                        (0..entries[e].slots).map(|_| rng.unit() * std::f64::consts::TAU).collect()
                    })
                    .collect();
                let request = Request::SubmitSweep(Box::new(SweepRequest {
                    submit: entries[e].base.clone(),
                    params: params.clone(),
                }));
                *fresh += 1;
                sweeps.insert(*fresh, params);
                (Spec::Sweep(e, *fresh), line(&request), 1 + SWEEP_POINTS)
            }
        };
        // Reads and writes travel on their own connections, as from a
        // reading and a writing client, so reads never queue behind writes.
        let conn = usize::from(matches!(class, Class::Cold | Class::Near));
        out.push(Outgoing { at, conn, line, reply_lines });
        planned.push(spec);
    }
    (out, planned)
}

/// The running servers and the benchmark's connections to them.
struct Fabric {
    shards: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    front: SocketAddr,
    conns: Vec<TcpStream>,
}

impl Fabric {
    fn start(topology: Topology) -> std::io::Result<Self> {
        let n = if topology == Topology::Fabric { 2 } else { 1 };
        let mut shards = Vec::new();
        for _ in 0..n {
            shards.push(start(ServerConfig {
                workers: 1,
                cache_capacity: RESULT_CACHE_BYTES / n,
                ..Default::default()
            })?);
        }
        let router = match topology {
            Topology::Single => None,
            Topology::Fabric => Some(start_router(RouterConfig {
                shards: shards.iter().map(|s| s.addr().to_string()).collect(),
                ..Default::default()
            })?),
        };
        let front = router.as_ref().map_or_else(|| shards[0].addr(), |r| r.addr());
        let conns = (0..2)
            .map(|_| {
                let c = TcpStream::connect(front)?;
                c.set_nodelay(true)?;
                Ok(c)
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Self { shards, router, front, conns })
    }

    fn stop(mut self) {
        self.conns.clear();
        if let Some(r) = self.router.as_mut() {
            r.shutdown();
        }
        for s in &mut self.shards {
            s.shutdown();
        }
    }

    /// Summed `STATS` counters of every shard, and each shard's request
    /// count.
    fn shard_stats(&self) -> (ServeCounters, Vec<u64>) {
        let mut total = ServeCounters::default();
        let mut per_shard = Vec::new();
        for s in &self.shards {
            let stats = ServiceClient::connect(s.addr())
                .and_then(|mut c| c.stats().map_err(|e| std::io::Error::other(e.to_string())));
            let Ok(stats) = stats else {
                per_shard.push(0);
                continue;
            };
            let get = |path: &[&str]| {
                let mut v = &stats;
                for p in path {
                    match v.get(p) {
                        Some(next) => v = next,
                        None => return 0,
                    }
                }
                v.as_u64().unwrap_or(0)
            };
            let c = ServeCounters {
                hits: get(&["cache", "hits"]),
                misses: get(&["cache", "misses"]),
                evictions: get(&["cache", "evictions"]),
            };
            per_shard.push(get(&["cache_hits"]) + get(&["cache_misses"]) + get(&["sweep_points"]));
            total.hits += c.hits;
            total.misses += c.misses;
            total.evictions += c.evictions;
        }
        (total, per_shard)
    }
}

#[derive(Default, Clone, Copy)]
struct ServeCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A closed-loop round trip on a raw connection: (reply line, ms).
fn roundtrip(stream: &mut BufReader<TcpStream>, line: &str) -> std::io::Result<(String, f64)> {
    let t = Instant::now();
    stream.get_mut().write_all(line.as_bytes())?;
    let mut reply = String::new();
    stream.read_line(&mut reply)?;
    Ok((reply.trim_end().to_string(), t.elapsed().as_secs_f64() * 1e3))
}

/// The served payload of a reply line: the raw bytes of its `result`
/// value, which every reply carries last.
fn raw_result(line: &str) -> Option<&str> {
    let at = line.find("\"result\":")?;
    line.get(at + 9..line.len().checked_sub(1)?)
}

/// A parsed reply: (ok, cached, total_us).
fn reply_meta(line: &str) -> (bool, bool, Option<u64>) {
    match json::parse(line) {
        Ok(v) => (
            v.get("ok").and_then(Json::as_bool) == Some(true),
            v.get("cached").and_then(Json::as_bool).unwrap_or(false),
            v.get("total_us").and_then(Json::as_u64),
        ),
        Err(_) => (false, false, None),
    }
}

/// A served payload to verify against the compile that must reproduce
/// it: the submission, the point of a sweep, and for a sweep point the
/// server's `bound_hash` of the circuit its rebind produced.
struct ServedReply {
    spec: Spec,
    point: Option<usize>,
    payload: String,
    bound_hash: Option<String>,
}

type Served = Vec<ServedReply>;

/// The set-up a serving run measures: build the working set and its wire
/// lines, start the servers and connect.
fn timed_setup(topology: Topology, setups: &mut Vec<f64>) -> std::io::Result<(Fabric, Vec<Entry>)> {
    let t = Instant::now();
    let entries = build_entries();
    let fabric = Fabric::start(topology)?;
    setups.push(t.elapsed().as_secs_f64());
    Ok((fabric, entries))
}

pub fn run(topology: Topology, args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((fabric, _)) = ready.take() {
            Fabric::stop(fabric);
        }
        match timed_setup(topology, &mut setups) {
            Ok(r) => ready = Some(r),
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("could not start the service: {e}"));
                return;
            }
        }
    }
    let (fabric, entries) = ready.expect("set up at least once");
    let mut served: Served = Vec::new();

    // Cold passes: each working-set submission once, closed loop, into
    // emptied result and core caches.
    let mut admin = match TcpStream::connect(fabric.front).and_then(|s| {
        s.set_nodelay(true)?;
        Ok(BufReader::new(s))
    }) {
        Ok(a) => a,
        Err(e) => {
            report.attempted += 1;
            report.fail(format!("could not connect: {e}"));
            return;
        }
    };
    let mut rng = Rng::new(args.seed, 2);
    let mut pass_s = Vec::new();
    let mut per_entry: Vec<Vec<f64>> = vec![Vec::new(); entries.len()];
    let cold_until = Instant::now() + std::time::Duration::from_secs_f64(args.seconds * COLD_SHARE);
    while pass_s.len() < MIN_COLD_PASSES || Instant::now() < cold_until {
        if roundtrip(&mut admin, "{\"cmd\":\"cache\",\"op\":\"flush\"}\n").is_err() {
            report.fail("cache flush failed");
        }
        pipeline::clear_core_caches();
        let mut order: Vec<usize> = (0..entries.len()).collect();
        rng.shuffle(&mut order);
        let start = Instant::now();
        for &e in &order {
            report.attempted += 1;
            match roundtrip(&mut admin, &entries[e].hit_line) {
                Ok((reply, ms)) => {
                    per_entry[e].push(ms);
                    match raw_result(&reply) {
                        Some(p) if reply_meta(&reply).0 => served.push(ServedReply {
                            spec: Spec::Base(e),
                            point: None,
                            payload: p.to_string(),
                            bound_hash: None,
                        }),
                        _ => report.fail(format!("cold pass: bad reply {reply:.120}")),
                    }
                }
                Err(err) => report.fail(format!("cold pass: {err}")),
            }
        }
        pass_s.push(start.elapsed().as_secs_f64());
        // One more set-up sample, outside the timed pass.
        match timed_setup(topology, &mut setups) {
            Ok((extra, _)) => Fabric::stop(extra),
            Err(e) => report.fail(format!("could not start the service: {e}")),
        }
    }
    drop(admin);
    report.set("setup_s", median(&setups));
    report.set("pass_s", median(&pass_s));
    report.set(
        "compile_ms_geomean",
        geomean(&per_entry.iter().map(|t| median(t)).collect::<Vec<_>>()),
    );

    // The main open-loop segment at the nominal rate.
    let mut fresh = 1_000_000 + args.seed.wrapping_mul(100_000);
    let mut sweeps = Sweeps::new();
    let measure_s = args.seconds * MEASURE_SHARE;
    let open_loop = if args.trace {
        // The open loop at the nominal rate: latency, its parts, and the
        // cache activity behind it.
        let (schedule, planned) =
            plan(&entries, &MIX, RATE_RPS, measure_s, &mut rng, &mut fresh, &mut sweeps);
        let (stats0, shares0) = fabric.shard_stats();
        let core0 = CacheCounters::now();
        let segment = match loadgen::run(&fabric.conns, &schedule, Pace::Open) {
            Ok(s) => s,
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("load generator: {e}"));
                return;
            }
        };
        let core = CacheCounters::now().since(&core0);
        let (stats1, shares1) = fabric.shard_stats();
        let out = collect(&segment, &schedule, &planned, report, &mut served);
        let handled: Vec<f64> = shares1.iter().zip(&shares0).map(|(a, b)| (a - b) as f64).collect();
        Some(OpenLoop {
            out,
            planned,
            core,
            result_cache: ServeCounters {
                hits: stats1.hits - stats0.hits,
                misses: stats1.misses - stats0.misses,
                evictions: stats1.evictions - stats0.evictions,
            },
            shard_share_max: handled.iter().cloned().fold(0.0, f64::max)
                / handled.iter().sum::<f64>().max(1.0),
            backlog_max: segment.backlog_max,
        })
    } else {
        // Capacity: the same mix offered faster than the service can take
        // it, with at most CAPACITY_WINDOW requests outstanding, so the
        // server stays saturated without an unbounded queue.
        let (mut schedule, planned) = plan(
            &entries,
            &MIX,
            CAPACITY_PLANNED_RPS,
            measure_s,
            &mut rng,
            &mut fresh,
            &mut sweeps,
        );
        for o in &mut schedule {
            o.at = std::time::Duration::ZERO;
        }
        let pace = Pace::Window {
            outstanding: CAPACITY_WINDOW,
            stop_after: std::time::Duration::from_secs_f64(measure_s),
        };
        match loadgen::run(&fabric.conns, &schedule, pace) {
            Ok(segment) => {
                let out = collect(&segment, &schedule, &planned, report, &mut served);
                let last = segment.completions.iter().filter_map(|c| c.done).max();
                let secs = last.map_or(0.0, |l| (l - segment.start).as_secs_f64());
                report.set(
                    "capacity_rps",
                    if secs > 0.0 { out.latency.len() as f64 / secs } else { 0.0 },
                );
            }
            Err(e) => report.fail(format!("load generator: {e}")),
        }
        None
    };
    report.set("peak_rss_mb", peak_rss_mb());

    // Each class alone, and the router overhead probes: both need the
    // fabric running.
    let classes = if args.trace {
        class_segments(&fabric, &entries, &mut rng, &mut fresh, &mut sweeps, report, &mut served)
    } else {
        Vec::new()
    };
    let router_overhead = if args.trace && topology == Topology::Fabric {
        router_probe(&fabric, &entries, report)
    } else {
        0.0
    };
    Fabric::stop(fabric);

    // Checks: every served payload against a direct compile.
    let references = verify(&entries, &sweeps, &served, report);
    let ws_results: Vec<CompilationResult> = (0..entries.len())
        .filter_map(|e| references.results.get(&(Spec::Base(e), None)).cloned())
        .collect();
    if ws_results.len() != entries.len() {
        report.fail("working-set references missing");
    }
    set_quality(report, &ws_results);

    if let Some(open) = open_loop {
        let passes = replay(&references, args.seed, tracer, report);
        set_layer_metrics(report, &passes, tracer);
        let (core, out) = (&open.core, &open.out);
        report.set("latency_ms_p50", median(&out.latency));
        report.set("latency_ms_p99", quantile(&out.latency, 0.99));
        report.set("layout_cache.hits", core.layout[0] as f64);
        report.set("layout_cache.hit_ratio", ratio(core.layout[0], core.layout[1]));
        report.set("plan_cache.hits", core.plan[0] as f64);
        report.set("plan_cache.hit_ratio", ratio(core.plan[0], core.plan[1]));
        report.set("plan_cache.evictions", core.plan[2] as f64);
        report.set("template_cache.hits", core.template[0] as f64);
        report.set("template_cache.hit_ratio", ratio(core.template[0], core.template[1]));
        report.set("template.rebind_us_p50", rebind_p50(&entries, &sweeps, &open.planned));
        report.set("serve.hit_ms_p50", median(&out.by_class.hit));
        report.set("serve.miss_ms_p50", median(&out.by_class.miss));
        report.set("serve.sweep_ms_p50", median(&out.by_class.sweep));
        report.set("serve.server_us_p50", median(&out.server_us));
        report.set("serve.outside_us_p50", median(&out.outside_us));
        let total_latency_us: f64 = out.latency.iter().sum::<f64>() * 1e3;
        report.set("serve.server_share", out.server_us.iter().sum::<f64>() / total_latency_us);
        let rc = open.result_cache;
        report.set("serve.result_cache.hit_ratio", ratio(rc.hits, rc.misses));
        report.set("serve.result_cache.evictions", rc.evictions as f64);
        report.set("router.overhead_us_p50", router_overhead);
        report.set("router.shard_share_max", open.shard_share_max);
        report.set("loadgen.lag_ms_p99", quantile(&out.lag, 0.99));
        report.set("loadgen.backlog_max", open.backlog_max as f64);
        for (class, c) in classes {
            let name = class.name();
            report.set(&format!("class.{name}.ms_p50"), median(&c.roundtrip));
            report.set(&format!("class.{name}.result_cache.hit_ratio"), c.result_hit_ratio);
            let core = &c.core;
            report.set(
                &format!("class.{name}.layout_cache.hit_ratio"),
                ratio(core.layout[0], core.layout[1]),
            );
            report.set(
                &format!("class.{name}.plan_cache.hit_ratio"),
                ratio(core.plan[0], core.plan[1]),
            );
            report.set(
                &format!("class.{name}.template_cache.hit_ratio"),
                ratio(core.template[0], core.template[1]),
            );
        }
    }
}

/// What one class's solo segment measured.
struct ClassOut {
    /// Round trips from the actual send, ms (closed loop, so no queue).
    roundtrip: Vec<f64>,
    result_hit_ratio: f64,
    core: CacheCounters,
}

/// Each traffic class alone, closed loop (one request outstanding), in
/// the caches the open loop left: per-class latency and cache hit ratios
/// that do not depend on the mix's assumed shares.
fn class_segments(
    fabric: &Fabric,
    entries: &[Entry],
    rng: &mut Rng,
    fresh: &mut u64,
    sweeps: &mut Sweeps,
    report: &mut Report,
    served: &mut Served,
) -> Vec<(Class, ClassOut)> {
    let mut outs = Vec::new();
    for class in Class::ALL {
        let (mut schedule, planned) =
            plan(entries, &[(class, 1.0)], CLASS_REQUESTS as f64, 1.0, rng, fresh, sweeps);
        for o in &mut schedule {
            o.at = std::time::Duration::ZERO;
        }
        let pace = Pace::Window { outstanding: 1, stop_after: CLASS_STOP_AFTER };
        let (stats0, _) = fabric.shard_stats();
        let core0 = CacheCounters::now();
        let segment = match loadgen::run(&fabric.conns, &schedule, pace) {
            Ok(s) => s,
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("{} segment: {e}", class.name()));
                continue;
            }
        };
        let core = CacheCounters::now().since(&core0);
        let (stats1, _) = fabric.shard_stats();
        let out = collect(&segment, &schedule, &planned, report, served);
        outs.push((
            class,
            ClassOut {
                roundtrip: out.roundtrip,
                result_hit_ratio: ratio(
                    stats1.hits.saturating_sub(stats0.hits),
                    stats1.misses.saturating_sub(stats0.misses),
                ),
                core,
            },
        ));
    }
    outs
}

/// What the traced run's open-loop segment measured.
struct OpenLoop {
    out: SegmentOut,
    planned: Vec<Spec>,
    core: CacheCounters,
    result_cache: ServeCounters,
    shard_share_max: f64,
    backlog_max: usize,
}

#[derive(Default)]
struct ByClass {
    hit: Vec<f64>,
    miss: Vec<f64>,
    sweep: Vec<f64>,
}

#[derive(Default)]
struct SegmentOut {
    /// From the intended send time, ms.
    latency: Vec<f64>,
    /// From the actual send time, ms.
    roundtrip: Vec<f64>,
    lag: Vec<f64>,
    server_us: Vec<f64>,
    outside_us: Vec<f64>,
    by_class: ByClass,
}

/// Latencies and served payloads of one segment; failed or refused
/// requests count into the report.
fn collect(
    seg: &Segment,
    schedule: &[Outgoing],
    planned: &[Spec],
    report: &mut Report,
    served: &mut Served,
) -> SegmentOut {
    let mut out = SegmentOut::default();
    for (i, &spec) in planned.iter().enumerate().take(seg.issued) {
        report.attempted += 1;
        let c = &seg.completions[i];
        let (Some(latency), Some(first)) = (seg.latency_ms(schedule, i), c.lines.first()) else {
            report.fail(format!("{spec:?} request {i} got no reply"));
            continue;
        };
        let (ok, cached, total_us) = reply_meta(first);
        if !ok {
            report.fail(format!("{spec:?} request {i} refused: {first:.160}"));
            continue;
        }
        let Some(total_us) = total_us.map(|t| t as f64) else {
            report.fail(format!("{spec:?} request {i}: reply has no total_us"));
            continue;
        };
        if spec.class() == Class::Sweep {
            for (k, point) in c.lines.iter().skip(1).enumerate() {
                let bound_hash = json::parse(point)
                    .ok()
                    .and_then(|v| v.get("bound_hash").and_then(Json::as_str).map(str::to_string));
                match (raw_result(point), bound_hash) {
                    (Some(payload), Some(hash)) => served.push(ServedReply {
                        spec,
                        point: Some(k),
                        payload: payload.to_string(),
                        bound_hash: Some(hash),
                    }),
                    _ => {
                        report.fail(format!("sweep request {i} point {k}: no result or bound_hash"))
                    }
                }
            }
            out.by_class.sweep.push(latency);
        } else {
            match raw_result(first) {
                Some(payload) => served.push(ServedReply {
                    spec,
                    point: None,
                    payload: payload.to_string(),
                    bound_hash: None,
                }),
                None => report.fail(format!("request {i} has no result")),
            }
            if cached {
                out.by_class.hit.push(latency);
            } else {
                out.by_class.miss.push(latency);
            }
        }
        // Latency = lag (actual send against intended) + the round trip
        // from the actual send, both on the client's clock. The round trip
        // splits into server time (`total_us`, on the server's clock) and
        // the rest (wire, waiting on the connection, router), which must
        // not come out negative: the server's window lies inside it.
        let lag = seg.lag_ms(schedule, i).unwrap_or(0.0);
        let roundtrip_ms = seg.roundtrip_ms(i).unwrap_or(0.0);
        let roundtrip_us = roundtrip_ms * 1e3;
        let outside_us = roundtrip_us - total_us;
        if outside_us < -SERVE_RECONCILE_TOLERANCE_US {
            report.fail(format!(
                "{spec:?} request {i}: server time {total_us} us exceeds the client round trip \
                 {roundtrip_us:.1} us (tolerance {SERVE_RECONCILE_TOLERANCE_US} us)"
            ));
        }
        out.latency.push(latency);
        out.roundtrip.push(roundtrip_ms);
        out.lag.push(lag);
        out.server_us.push(total_us);
        out.outside_us.push(outside_us);
    }
    out
}

/// A served payload's origin: the submission, and the point of a sweep.
type Key = (Spec, Option<usize>);

struct References {
    /// Direct compile per distinct submission.
    results: HashMap<Key, CompilationResult>,
    /// The (compiler, circuit, QASM text) behind each key, for the traced
    /// replay.
    inputs: HashMap<Key, (ParallaxCompiler, Arc<Circuit>, Arc<str>)>,
}

/// The submission a (non-sweep) spec stands for.
fn submit_request(entries: &[Entry], spec: Spec) -> SubmitRequest {
    match spec {
        Spec::Base(e) | Spec::Sweep(e, _) => entries[e].base.clone(),
        Spec::Inline(e) => SubmitRequest {
            source: SubmitSource::Qasm(entries[e].qasm.to_string()),
            ..entries[e].base.clone()
        },
        Spec::Near(e, v) => near_variant(&entries[e].base, v),
        Spec::Cold(e, seed) => SubmitRequest { seed, ..entries[e].base.clone() },
    }
}

/// Compile every distinct served submission directly — process-wide
/// caches disabled, so nothing the service cached can leak in — and
/// compare each served payload byte for byte. Every direct compile passes
/// the structural checks; a sample is simulated.
fn verify(entries: &[Entry], sweeps: &Sweeps, served: &Served, report: &mut Report) -> References {
    let mut keys: Vec<Key> = served.iter().map(|s| (s.spec, s.point)).collect();
    keys.sort_by_key(|k| format!("{k:?}"));
    keys.dedup();

    let inputs_of =
        |&(spec, point): &Key| -> Result<(ParallaxCompiler, Arc<Circuit>, Arc<str>), String> {
            let request = submit_request(entries, spec);
            let compiler = request.build_compiler()?;
            let circuit = match (spec, point) {
                (Spec::Sweep(e, id), Some(k)) => CircuitTemplate::from_circuit(&entries[e].circuit)
                    .bind(&sweeps[&id][k])
                    .map_err(|err| format!("bind: {err}"))?,
                _ => request.resolve_circuit()?,
            };
            let text: Arc<str> = match spec {
                Spec::Inline(e) => entries[e].qasm.clone(),
                _ => Arc::from(circuit.to_qasm()),
            };
            Ok((compiler, Arc::new(circuit), text))
        };

    parallax_core::layout_cache::resize(0);
    let computed = std::sync::Mutex::new(Vec::new());
    let errors = checks::par_check(&keys, |key| {
        let (compiler, circuit, text) = inputs_of(key)?;
        let result = compiler.compile(&circuit);
        checks::check_schedule(&circuit, &result).map_err(|e| format!("{key:?}: {e}"))?;
        computed.lock().expect("reference lock").push((*key, compiler, circuit, text, result));
        Ok(())
    });
    parallax_core::layout_cache::resize(pipeline::cache_budget());
    for e in errors {
        report.fail(e);
    }
    let mut refs = References { results: HashMap::new(), inputs: HashMap::new() };
    let mut payloads: HashMap<Key, String> = HashMap::new();
    for (key, compiler, circuit, text, result) in computed.into_inner().expect("reference lock") {
        payloads.insert(key, compile_payload(&result).encode());
        refs.results.insert(key, result);
        refs.inputs.insert(key, (compiler, circuit, text));
    }
    for s in served {
        let key = (s.spec, s.point);
        match payloads.get(&key) {
            Some(want) if *want == s.payload => {}
            Some(_) => {
                report.fail(format!("{key:?}: served payload differs from a direct compile"))
            }
            None => report.fail(format!("{key:?}: no direct compile to compare with")),
        }
        // The payload carries no angles, so a sweep point's rebind is
        // checked by its attestation: the bit-exact hash of the circuit
        // the server bound, against the one bound here independently.
        if let (Some(got), Some((_, bound, _))) = (&s.bound_hash, refs.inputs.get(&key)) {
            let want = format!("{:016x}", parallax_circuit::circuit_bits_hash(bound));
            if *got != want {
                report
                    .fail(format!("{key:?}: bound_hash {got}, the bound circuit hashes to {want}"));
            }
        }
    }

    // Statevector equivalence on the cheapest simulable schedules.
    let mut sims: Vec<&Key> =
        refs.results.keys().filter(|k| checks::simulable(&refs.inputs[*k].1)).collect();
    sims.sort_by_key(|k| {
        let c = &refs.inputs[*k].1;
        ((c.len() as u64) << c.num_qubits(), format!("{k:?}"))
    });
    sims.truncate(SIM_SAMPLE);
    let errors = checks::par_check(&sims, |key| {
        let circuit = &refs.inputs[*key].1;
        let reference = checks::reference_state(circuit, SIM_SEED);
        checks::check_equivalent(circuit, &reference, &refs.results[*key], SIM_SEED)
            .map_err(|e| format!("{key:?}: {e}"))
    });
    for e in errors {
        report.fail(e);
    }
    refs
}

/// The traced replay: a seeded sample of this run's distinct compiles,
/// stage by stage, from empty caches, [`REPLAY_PASSES`] times.
fn replay(
    refs: &References,
    seed: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Vec<pipeline::LayerPass> {
    let mut keys: Vec<&Key> = refs.inputs.keys().collect();
    keys.sort_by_key(|k| format!("{k:?}"));
    Rng::new(seed, 3).shuffle(&mut keys);
    keys.truncate(REPLAY_SAMPLE);
    let jobs: Vec<Job> = keys
        .iter()
        .map(|k| {
            let (compiler, circuit, _) = &refs.inputs[*k];
            Job {
                label: format!("{k:?}"),
                circuit: circuit.clone(),
                compiler: compiler.clone(),
                layout: None,
            }
        })
        .collect();
    let texts: Vec<&str> = keys.iter().map(|k| &*refs.inputs[*k].2).collect();
    let job_refs: Vec<&Job> = jobs.iter().collect();
    let mut errors = Vec::new();
    let passes = (0..REPLAY_PASSES)
        .map(|pass| pipeline::replay_pass(&job_refs, &texts, tracer, pass, &mut errors).0)
        .collect();
    report.attempted += (jobs.len() * REPLAY_PASSES as usize) as u64;
    for e in errors {
        report.fail(e);
    }
    passes
}

/// Median time of `CompiledTemplate::rebind` over the run's sweep points,
/// µs, each structure compiled once beforehand.
fn rebind_p50(entries: &[Entry], sweeps: &Sweeps, planned: &[Spec]) -> f64 {
    let mut templates: HashMap<usize, CompiledTemplate> = HashMap::new();
    let mut times = Vec::new();
    for &spec in planned {
        let Spec::Sweep(e, id) = spec else { continue };
        let Ok(compiler) = entries[e].base.build_compiler() else { continue };
        let template = templates
            .entry(e)
            .or_insert_with(|| CompiledTemplate::compile(&compiler, &entries[e].circuit));
        for point in &sweeps[&id] {
            let t = Instant::now();
            let bound = template.rebind(point);
            times.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(bound.is_ok());
        }
    }
    median(&times)
}

/// Router overhead: closed-loop round trips of cached submissions through
/// the router against the same submissions sent straight to the shard
/// that owns them; the difference of the medians, µs.
fn router_probe(fabric: &Fabric, entries: &[Entry], report: &mut Report) -> f64 {
    let ring = HashRing::new(fabric.shards.len(), RouterConfig::default().vnodes);
    let connect = |addr: SocketAddr| -> std::io::Result<BufReader<TcpStream>> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(BufReader::new(s))
    };
    let (Ok(mut via), Ok(mut direct0), Ok(mut direct1)) = (
        connect(fabric.front),
        connect(fabric.shards[0].addr()),
        connect(fabric.shards[1 % fabric.shards.len()].addr()),
    ) else {
        report.fail("router probe: connect failed");
        return 0.0;
    };
    let (mut routed, mut straight) = (Vec::new(), Vec::new());
    for e in entries.iter().take(8) {
        let Ok(compiler) = e.base.build_compiler() else { continue };
        let shard = ring.route(ring_key(circuit_content_hash(&e.circuit), compiler.fingerprint()));
        let direct = if shard == 0 { &mut direct0 } else { &mut direct1 };
        // Make sure the owning shard holds it, then time both paths.
        let _ = roundtrip(&mut via, &e.hit_line);
        for _ in 0..25 {
            if let (Ok((_, a)), Ok((_, b))) =
                (roundtrip(&mut via, &e.hit_line), roundtrip(direct, &e.hit_line))
            {
                routed.push(a * 1e3);
                straight.push(b * 1e3);
            }
        }
    }
    median(&routed) - median(&straight)
}
