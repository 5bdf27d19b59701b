//! The two cold workloads: every compile starts from empty caches.
//!
//! * `paper_suite` — the 18 Table III programs on QuEra-256 and
//!   Atom-1225 through `ParallaxCompiler::compile`, with the
//!   `placement_for` presets and the default config: the paper's traffic,
//!   a new program compiled once. Placement and scheduling dominate.
//! * `cold_scale` — the post-placement pipeline (`compile_with_layout`)
//!   on the `scale_arms()` machines with a fixed list of jittered layouts
//!   per arm: no anneal, discretize dominates. The mirror image of
//!   `paper_suite`.
//!
//! The compiled inputs are fixed, so the quality metrics repeat exactly;
//! `--seed` orders the programs within each pass.

use crate::checks;
use crate::pipeline::{self, CacheCounters, Job, LayerPass};
use crate::span::Tracer;
use crate::stats::{geomean, median, quantile, ratio, Rng};
use crate::{peak_rss_mb, Args, Report, RECONCILE_TOLERANCE_PCT};
use parallax_core::{CompilationResult, CompilerConfig, ParallaxCompiler};
use parallax_graphine::PlacementConfig;
use parallax_hardware::MachineSpec;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    PaperSuite,
    ColdScale,
}

/// The seed the Table III programs are generated and compiled at.
const PAPER_SEED: u64 = 0;

/// Jittered layouts per `cold_scale` arm; each snaps to a distinct array.
const JITTER_SEEDS: [u64; 3] = [101, 102, 103];

/// Times the set-up is repeated before the first pass. An untraced run
/// repeats it once more after every pass, so its samples span the whole
/// run; `setup_s` is the median of all of them.
const SETUP_REPEATS: usize = 5;

/// Fewest measured passes in a run, however long a pass takes.
const MIN_PASSES: usize = 3;

/// Seed of the statevector checks' random input preparation.
const SIM_SEED: u64 = 7;

fn build_jobs(kind: Kind) -> Vec<Job> {
    let mut jobs = Vec::new();
    match kind {
        Kind::PaperSuite => {
            let benches = parallax_workloads::all_benchmarks();
            let circuits: Vec<Arc<_>> =
                benches.iter().map(|b| Arc::new(b.circuit(PAPER_SEED))).collect();
            for machine in [MachineSpec::quera_aquila_256(), MachineSpec::atom_1225()] {
                for (b, circuit) in benches.iter().zip(&circuits) {
                    let placement = parallax_bench::placement_for(b.qubits, PAPER_SEED);
                    let config =
                        CompilerConfig { seed: PAPER_SEED, placement, ..Default::default() };
                    jobs.push(Job {
                        label: format!("{}/{}", b.name, machine.name),
                        circuit: circuit.clone(),
                        compiler: ParallaxCompiler::new(machine, config),
                        layout: None,
                    });
                }
            }
        }
        Kind::ColdScale => {
            for (machine, qubits) in parallax_bench::scale::scale_arms() {
                let circuit = Arc::new(parallax_bench::scale::scale_circuit(qubits));
                for seed in JITTER_SEEDS {
                    // The same config `scale_cold_compile` uses.
                    let config = CompilerConfig {
                        seed,
                        placement: PlacementConfig::quick(seed),
                        ..Default::default()
                    };
                    jobs.push(Job {
                        label: format!("{}/{qubits}q/jitter{seed}", machine.name),
                        circuit: circuit.clone(),
                        compiler: ParallaxCompiler::new(machine, config),
                        layout: Some(Arc::new(parallax_bench::scale::scale_layout(qubits, seed))),
                    });
                }
            }
        }
    }
    jobs
}

pub fn run(kind: Kind, args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let mut setups = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        jobs = timed_setup(kind, &mut setups);
    }
    if kind == Kind::ColdScale {
        check_distinct_arrays(&jobs, report);
    }
    if args.trace {
        run_traced(&jobs, args, report, tracer);
    } else {
        run_untraced(kind, &jobs, args, report, &mut setups);
    }
    report.set("setup_s", median(&setups));
}

/// Build the compile jobs once, recording how long it took.
fn timed_setup(kind: Kind, setups: &mut Vec<f64>) -> Vec<Job> {
    let t = Instant::now();
    let jobs = build_jobs(kind);
    setups.push(t.elapsed().as_secs_f64());
    jobs
}

/// One cold pass: every job compiled once, in seeded order, from empty
/// caches. Returns (pass wall time s, per-job ms, per-job result).
fn cold_pass(
    jobs: &[Job],
    rng: &mut Rng,
    report: &mut Report,
) -> (f64, Vec<f64>, Vec<CompilationResult>) {
    pipeline::clear_core_caches();
    if !pipeline::core_caches_empty() {
        report.fail("core caches not empty at the start of a cold pass");
    }
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    rng.shuffle(&mut order);
    let mut times = vec![0.0; jobs.len()];
    let mut results: Vec<Option<CompilationResult>> = (0..jobs.len()).map(|_| None).collect();
    let start = Instant::now();
    for &i in &order {
        let t = Instant::now();
        let r = std::hint::black_box(jobs[i].compile());
        times[i] = t.elapsed().as_secs_f64() * 1e3;
        results[i] = Some(r);
    }
    let wall = start.elapsed().as_secs_f64();
    (wall, times, results.into_iter().map(|r| r.expect("every job compiled")).collect())
}

fn run_untraced(kind: Kind, jobs: &[Job], args: &Args, report: &mut Report, setups: &mut Vec<f64>) {
    let mut rng = Rng::new(args.seed, 1);
    // Warm-up: page in code and let the allocator settle; not measured.
    cold_pass(jobs, &mut rng, report);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut pass_s = Vec::new();
    let mut per_job: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut first: Option<Vec<CompilationResult>> = None;
    let mut hits = CacheCounters::default();
    while pass_s.len() < MIN_PASSES || Instant::now() < deadline {
        let before = CacheCounters::now();
        let (wall, times, results) = cold_pass(jobs, &mut rng, report);
        hits.add(&CacheCounters::now().since(&before));
        pass_s.push(wall);
        std::hint::black_box(timed_setup(kind, setups));
        for (i, t) in times.into_iter().enumerate() {
            per_job[i].push(t);
        }
        // Checks, outside the timed pass.
        report.attempted += jobs.len() as u64;
        match &first {
            None => {
                for (job, r) in jobs.iter().zip(&results) {
                    if let Err(e) = checks::check_schedule(&job.circuit, r) {
                        report.fail(format!("{}: {e}", job.label));
                    }
                }
                first = Some(results);
            }
            Some(first) => {
                for ((job, r), f) in jobs.iter().zip(&results).zip(first) {
                    if r.schedule != f.schedule || r.home_positions != f.home_positions {
                        report.fail(format!("{}: schedule changed between passes", job.label));
                    }
                }
            }
        }
    }
    report.set("peak_rss_mb", peak_rss_mb());
    if hits.layout[0] + hits.plan[0] + hits.template[0] > 0 {
        eprintln!(
            "note: cold passes hit a core cache (layout {}, plan {}, template {})",
            hits.layout[0], hits.plan[0], hits.template[0]
        );
    }
    let first = first.expect("at least one pass");
    statevector_checks(jobs, &first, report);

    let total_s: f64 = pass_s.iter().sum();
    report.set("pass_s", median(&pass_s));
    report
        .set("compile_ms_geomean", geomean(&per_job.iter().map(|t| median(t)).collect::<Vec<_>>()));
    report.set("capacity_rps", per_job.iter().map(Vec::len).sum::<usize>() as f64 / total_s);
    set_quality(report, &first);
    eprintln!("{} passes of {} compiles", pass_s.len(), jobs.len());
}

/// The paper's quality metrics over one pass's schedules.
pub fn set_quality(report: &mut Report, results: &[CompilationResult]) {
    let (mut success, mut runtime) = (Vec::new(), Vec::new());
    let (mut layers, mut moves, mut traps) = (0, 0, 0);
    for r in results {
        let inputs = parallax_sim::parallax_fidelity_inputs(r);
        success.push(
            parallax_sim::success_probability(&inputs, &r.machine.params).max(f64::MIN_POSITIVE),
        );
        runtime.push(inputs.runtime_us);
        layers += r.schedule.stats.layer_count;
        moves += r.schedule.stats.moves_planned;
        traps += r.schedule.stats.trap_changes;
    }
    report.set("success_prob_geomean", geomean(&success));
    report.set("circuit_runtime_us_geomean", geomean(&runtime));
    report.set("layers_total", layers as f64);
    report.set("moves_total", moves as f64);
    report.set("trap_changes_total", traps as f64);
}

/// Statevector equivalence for every schedule of at most
/// `MAX_SIM_QUBITS` qubits, against a reference simulated from the input
/// alone (one reference per distinct circuit).
fn statevector_checks(jobs: &[Job], results: &[CompilationResult], report: &mut Report) {
    let mut groups: Vec<(Arc<parallax_circuit::Circuit>, Vec<usize>)> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        if !checks::simulable(&job.circuit) {
            continue;
        }
        match groups.iter_mut().find(|(c, _)| Arc::ptr_eq(c, &job.circuit)) {
            Some((_, members)) => members.push(i),
            None => groups.push((job.circuit.clone(), vec![i])),
        }
    }
    let errors = checks::par_check(&groups, |(circuit, members)| {
        let reference = checks::reference_state(circuit, SIM_SEED);
        for &i in members {
            checks::check_equivalent(circuit, &reference, &results[i], SIM_SEED)
                .map_err(|e| format!("{}: {e}", jobs[i].label))?;
        }
        Ok(())
    });
    for e in errors {
        report.fail(e);
    }
}

/// `cold_scale` honesty guard: within an arm, every jitter seed must snap
/// to a different array, or a cache could serve one seed from another.
fn check_distinct_arrays(jobs: &[Job], report: &mut Report) {
    let mut arrays = std::collections::HashSet::new();
    for job in jobs {
        let layout = job.layout.as_ref().expect("cold_scale jobs carry a layout");
        let disc = parallax_core::discretize(&job.circuit, layout, *job.compiler.machine());
        let mut h = parallax_hardware::StableHasher::new();
        h.write_u64(job.compiler.machine().fingerprint());
        for q in 0..job.circuit.num_qubits() as u32 {
            let p = disc.array.position(q);
            h.write_f64(p.x).write_f64(p.y);
        }
        if !arrays.insert(h.finish()) {
            report.fail(format!("{}: snaps to the same array as another seed", job.label));
        }
    }
}

fn run_traced(jobs: &[Job], args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let refs: Vec<&Job> = jobs.iter().collect();
    let texts: Vec<String> = jobs.iter().map(|j| j.circuit.to_qasm()).collect();
    let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
    let mut rng = Rng::new(args.seed, 1);
    let mut errors = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes: Vec<LayerPass> = Vec::new();
    let mut first = None;
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        rng.shuffle(&mut order);
        let pass_jobs: Vec<&Job> = order.iter().map(|&i| refs[i]).collect();
        let pass_texts: Vec<&str> = order.iter().map(|&i| texts[i]).collect();
        let (pass, results) = pipeline::replay_pass(
            &pass_jobs,
            &pass_texts,
            tracer,
            passes.len() as u64,
            &mut errors,
        );
        report.attempted += jobs.len() as u64;
        if first.is_none() {
            let mut by_job: Vec<Option<CompilationResult>> =
                (0..jobs.len()).map(|_| None).collect();
            for (&i, r) in order.iter().zip(results) {
                by_job[i] = Some(r);
            }
            first = Some(
                by_job.into_iter().map(|r| r.expect("every job replayed")).collect::<Vec<_>>(),
            );
        }
        passes.push(pass);
    }
    for e in errors {
        report.fail(e);
    }
    let first = first.expect("at least one pass");
    statevector_checks(jobs, &first, report);
    set_layer_metrics(report, &passes, tracer);
}

/// Per-layer metrics from traced replay passes: each time is a layer's
/// self time summed over a pass, the median taken across passes; counts
/// are per-pass totals.
pub fn set_layer_metrics(report: &mut Report, passes: &[LayerPass], tracer: &Tracer) {
    let per_pass =
        |f: &dyn Fn(&LayerPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let layer =
        |name: &'static str| move |p: &LayerPass| p.self_ms.get(name).copied().unwrap_or(0.0);
    let stat = |f: fn(&parallax_core::CompileStats) -> usize| {
        move |p: &LayerPass| p.stats.iter().map(|s| f(s) as f64).sum::<f64>()
    };
    let compiles: Vec<f64> = passes.iter().flat_map(|p| p.compile_ms.iter().copied()).collect();
    report.set("latency_ms_p50", median(&compiles));
    report.set("latency_ms_p99", quantile(&compiles, 0.99));
    report.set("circuit.lower_ms", per_pass(&layer("circuit.lower")));
    report.set("circuit.dag_ms", per_pass(&layer("circuit.dag")));
    report.set("circuit.gates", per_pass(&|p| p.gates as f64));
    report.set("qasm.parse_us_p50", median(&tracer.durations_us("qasm.parse")));
    report.set("qasm.hash_us_p50", median(&tracer.durations_us("qasm.hash")));
    report.set("placement.graph_ms", per_pass(&layer("placement.graph")));
    report.set("placement.anneal_ms", per_pass(&layer("placement.anneal")));
    report.set("placement.anneal_evals", per_pass(&|p| p.anneal_evals as f64));
    report.set("discretize.ms", per_pass(&layer("discretize")));
    report.set("discretize.radius_ms", per_pass(&layer("discretize.radius")));
    report.set("aod_select.ms", per_pass(&layer("aod_select")));
    report.set("schedule.ms", per_pass(&layer("schedule")));
    report.set("schedule.failed_moves", per_pass(&stat(|s| s.failed_moves)));
    report.set("schedule.blockade_ejections", per_pass(&stat(|s| s.blockade_ejections)));
    report.set("schedule.plan_memo_hits", per_pass(&stat(|s| s.plan_cache_hits)));
    report.set("schedule.failed_move_memo_hits", per_pass(&stat(|s| s.failed_move_memo_hits)));
    report.set("schedule.home_return_skips", per_pass(&stat(|s| s.home_return_skips)));
    report.set("pass.untraced_ms", per_pass(&|p| p.untraced_ms));
    report.set("pass.post_placement_ms", per_pass(&|p| p.post_placement_ms));
    report.set(
        "stage.discretize_aod_share",
        per_pass(&|p| (layer("discretize")(p) + layer("aod_select")(p)) / p.untraced_ms),
    );
    report.set(
        "trace.overhead_pct",
        per_pass(&|p| 100.0 * (p.traced_ms - p.untraced_ms) / p.untraced_ms),
    );
    // Reconcile per job: the median across passes of its staged stage
    // self times against the median of its untraced post-placement time,
    // each summed over jobs. Per-job medians keep one stall of the box in
    // one pass from moving the comparison.
    let mut by_job: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (label, stages, post) in passes.iter().flat_map(|p| &p.reconcile) {
        let e = by_job.entry(label).or_default();
        e.0.push(*stages);
        e.1.push(*post);
    }
    let stages: f64 = by_job.values().map(|(s, _)| median(s)).sum();
    let post: f64 = by_job.values().map(|(_, p)| median(p)).sum();
    let reconcile = 100.0 * (stages - post).abs() / post;
    report.set("trace.reconcile_err_pct", reconcile);
    if reconcile > RECONCILE_TOLERANCE_PCT {
        report.fail(format!(
            "stage self-times miss the untraced post-placement time by {reconcile:.1}% \
             (tolerance {RECONCILE_TOLERANCE_PCT}%)"
        ));
    }
    let mut caches = CacheCounters::default();
    for p in passes {
        caches.add(&p.caches);
    }
    report.set("layout_cache.hits", caches.layout[0] as f64);
    report.set("layout_cache.hit_ratio", ratio(caches.layout[0], caches.layout[1]));
    report.set("plan_cache.hits", caches.plan[0] as f64);
    report.set("plan_cache.hit_ratio", ratio(caches.plan[0], caches.plan[1]));
    report.set("plan_cache.evictions", caches.plan[2] as f64);
    report.set("template_cache.hits", caches.template[0] as f64);
    report.set("template_cache.hit_ratio", ratio(caches.template[0], caches.template[1]));
    for name in [
        "template.rebind_us_p50",
        "serve.hit_ms_p50",
        "serve.miss_ms_p50",
        "serve.sweep_ms_p50",
        "serve.server_us_p50",
        "serve.outside_us_p50",
        "serve.server_share",
        "serve.result_cache.hit_ratio",
        "serve.result_cache.evictions",
        "router.overhead_us_p50",
        "router.shard_share_max",
        "loadgen.lag_ms_p99",
        "loadgen.backlog_max",
    ] {
        report.set(name, 0.0);
    }
    for (name, _) in crate::PER_LAYER.iter().filter(|(n, _)| n.starts_with("class.")) {
        report.set(name, 0.0);
    }
}
