//! The repository benchmark: one command, four workloads, every metric
//! printed by name with its unit, every output checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_suite --seed 1 --seconds 15 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-check
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (and writes the spans to `perfbench/out/` as a Chrome trace).
//! See `perfbench/README.md` for the workloads and what each metric means.

mod checks;
mod cold;
mod loadgen;
mod pipeline;
mod serve;
mod span;
mod stats;

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the compiler or the service sees.
/// Printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compile_ms_geomean", "ms"),
    ("pass_s", "s"),
    ("capacity_rps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_prob_geomean", "prob"),
    ("circuit_runtime_us_geomean", "model_us"),
    ("layers_total", "count"),
    ("moves_total", "count"),
    ("trap_changes_total", "count"),
];

/// Per-layer metrics. Printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("qasm.parse_us_p50", "us"),
    ("qasm.hash_us_p50", "us"),
    ("circuit.lower_ms", "ms"),
    ("circuit.dag_ms", "ms"),
    ("circuit.gates", "count"),
    ("placement.graph_ms", "ms"),
    ("placement.anneal_ms", "ms"),
    ("placement.anneal_evals", "count"),
    ("discretize.ms", "ms"),
    ("discretize.radius_ms", "ms"),
    ("aod_select.ms", "ms"),
    ("schedule.ms", "ms"),
    ("schedule.failed_moves", "count"),
    ("schedule.blockade_ejections", "count"),
    ("schedule.plan_memo_hits", "count"),
    ("schedule.failed_move_memo_hits", "count"),
    ("schedule.home_return_skips", "count"),
    ("stage.discretize_aod_share", "ratio"),
    ("pass.untraced_ms", "ms"),
    ("pass.post_placement_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.reconcile_err_pct", "%"),
    ("layout_cache.hits", "count"),
    ("layout_cache.hit_ratio", "ratio"),
    ("plan_cache.hits", "count"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.evictions", "count"),
    ("template_cache.hits", "count"),
    ("template_cache.hit_ratio", "ratio"),
    ("template.rebind_us_p50", "us"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.sweep_ms_p50", "ms"),
    ("serve.server_us_p50", "us"),
    ("serve.outside_us_p50", "us"),
    ("serve.server_share", "ratio"),
    ("serve.result_cache.hit_ratio", "ratio"),
    ("serve.result_cache.evictions", "count"),
    ("router.overhead_us_p50", "us"),
    ("router.shard_share_max", "ratio"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.backlog_max", "count"),
    ("error_rate", "ratio"),
    // Each serving traffic class driven alone, closed loop (serving
    // workloads only): client latency and the cache hit ratios behind it.
    ("class.hit.ms_p50", "ms"),
    ("class.hit.result_cache.hit_ratio", "ratio"),
    ("class.hit.layout_cache.hit_ratio", "ratio"),
    ("class.hit.plan_cache.hit_ratio", "ratio"),
    ("class.hit.template_cache.hit_ratio", "ratio"),
    ("class.inline.ms_p50", "ms"),
    ("class.inline.result_cache.hit_ratio", "ratio"),
    ("class.inline.layout_cache.hit_ratio", "ratio"),
    ("class.inline.plan_cache.hit_ratio", "ratio"),
    ("class.inline.template_cache.hit_ratio", "ratio"),
    ("class.near.ms_p50", "ms"),
    ("class.near.result_cache.hit_ratio", "ratio"),
    ("class.near.layout_cache.hit_ratio", "ratio"),
    ("class.near.plan_cache.hit_ratio", "ratio"),
    ("class.near.template_cache.hit_ratio", "ratio"),
    ("class.cold.ms_p50", "ms"),
    ("class.cold.result_cache.hit_ratio", "ratio"),
    ("class.cold.layout_cache.hit_ratio", "ratio"),
    ("class.cold.plan_cache.hit_ratio", "ratio"),
    ("class.cold.template_cache.hit_ratio", "ratio"),
    ("class.sweep.ms_p50", "ms"),
    ("class.sweep.result_cache.hit_ratio", "ratio"),
    ("class.sweep.layout_cache.hit_ratio", "ratio"),
    ("class.sweep.plan_cache.hit_ratio", "ratio"),
    ("class.sweep.template_cache.hit_ratio", "ratio"),
];

/// Largest share by which the traced stage self-times may miss the
/// untraced post-placement compile time of the same programs.
pub const RECONCILE_TOLERANCE_PCT: f64 = 20.0;

/// Largest amount, µs, by which a reply's server time (`total_us`) may
/// exceed the client's round trip from the actual send: the server's
/// window lies inside the client's, and `total_us` is truncated to whole
/// µs, so any excess means a broken `total_us` or a broken client clock.
pub const SERVE_RECONCILE_TOLERANCE_US: f64 = 1.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Metrics and outcome counts of one run.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Failures printed per run; the rest are only counted.
const FAILURES_SHOWN: u64 = 20;

impl Report {
    fn new() -> Self {
        Self { attempted: 0, failed: 0, metrics: BTreeMap::new() }
    }

    /// Record a failed check or request; the run carries on.
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        self.failed += 1;
        if self.failed <= FAILURES_SHOWN {
            eprintln!("check failed: {why}");
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name.to_string(), value);
    }

    /// The result line: every metric of `table`, by name, with its unit.
    fn result_json(&mut self, table: &[(&'static str, &'static str)]) -> String {
        let mut fields = Vec::new();
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    self.fail(format!("metric {name} was not measured"));
                    0.0
                }
            };
            fields.push(format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", number(value)));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// keeps; exponent form for very large or small magnitudes.
fn number(v: f64) -> String {
    if v == 0.0 || (1e-6..1e15).contains(&v.abs()) {
        format!("{v}")
    } else {
        format!("{v:e}")
    }
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 15.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args { workload, seed, seconds, trace }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            let (lines, ok) = loadgen::self_check();
            for l in &lines {
                println!("{l}");
            }
            println!("open-loop generator self-check: {}", if ok { "passed" } else { "FAILED" });
            std::process::exit(if ok { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <paper_suite|cold_scale|serve_mix|\
                 fabric_mix> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-check"
            );
            std::process::exit(2);
        }
    };
    // Fix the cache budget before anything resizes the caches.
    pipeline::cache_budget();
    let mut report = Report::new();
    let mut tracer = span::Tracer::new();
    match args.workload.as_str() {
        "paper_suite" => cold::run(cold::Kind::PaperSuite, &args, &mut report, &mut tracer),
        "cold_scale" => cold::run(cold::Kind::ColdScale, &args, &mut report, &mut tracer),
        "serve_mix" => serve::run(serve::Topology::Single, &args, &mut report, &mut tracer),
        "fabric_mix" => serve::run(serve::Topology::Fabric, &args, &mut report, &mut tracer),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    }
    report.set("error_rate", report.failed as f64 / report.attempted.max(1) as f64);
    if args.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tracer.chrome_json()))
        {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let line = report.result_json(table);
    for &(name, unit) in table {
        eprintln!(
            "{name:>40} {:>14} {unit}",
            number(report.metrics.get(name).copied().unwrap_or(0.0))
        );
    }
    println!("{line}");
}
