//! Compile jobs, the process-wide cache controls, and the traced replay
//! that times each compiler layer through its public entry point.

use crate::checks;
use crate::span::Tracer;
use parallax_circuit::{from_qasm, optimize, Circuit, DependencyDag};
use parallax_core::{
    discretize, layout_cache, layout_cache_stats, plan_cache_stats, schedule_gates,
    select_aod_qubits, template_cache_stats, CompilationResult, CompileStats, ParallaxCompiler,
};
use parallax_graphine::{connecting_radius, GraphineLayout, InteractionGraph};
use parallax_hardware::Point;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One compilation the benchmark asks for.
pub struct Job {
    pub label: String,
    pub circuit: Arc<Circuit>,
    pub compiler: ParallaxCompiler,
    /// A pre-computed placement: the job runs the post-placement pipeline
    /// (`compile_with_layout`). Without one it runs `compile`.
    pub layout: Option<Arc<GraphineLayout>>,
}

impl Job {
    pub fn compile(&self) -> CompilationResult {
        match &self.layout {
            Some(layout) => self.compiler.compile_with_layout(&self.circuit, layout),
            None => self.compiler.compile(&self.circuit),
        }
    }
}

/// The budget the process-wide core caches started with.
pub fn cache_budget() -> usize {
    static BUDGET: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *BUDGET.get_or_init(|| layout_cache_stats().capacity)
}

/// Empty the layout, plan and template caches, keeping their budget.
pub fn clear_core_caches() {
    let budget = cache_budget();
    layout_cache::resize(0);
    layout_cache::resize(budget);
}

/// Whether all three process-wide core caches hold nothing.
pub fn core_caches_empty() -> bool {
    layout_cache_stats().len == 0 && plan_cache_stats().len == 0 && template_cache_stats().len == 0
}

/// Hit, miss and eviction counters of the three core caches.
#[derive(Clone, Copy, Default)]
pub struct CacheCounters {
    pub layout: [u64; 3],
    pub plan: [u64; 3],
    pub template: [u64; 3],
}

impl CacheCounters {
    pub fn now() -> Self {
        let l = layout_cache_stats();
        let p = plan_cache_stats();
        let t = template_cache_stats();
        Self {
            layout: [l.hits, l.misses, l.evictions],
            plan: [p.hits, p.misses, p.evictions],
            template: [t.hits, t.misses, t.evictions],
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Self) -> Self {
        let d = |a: [u64; 3], b: [u64; 3]| [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
        Self {
            layout: d(self.layout, earlier.layout),
            plan: d(self.plan, earlier.plan),
            template: d(self.template, earlier.template),
        }
    }

    pub fn add(&mut self, other: &Self) {
        for (a, b) in [
            (&mut self.layout, other.layout),
            (&mut self.plan, other.plan),
            (&mut self.template, other.template),
        ] {
            for i in 0..3 {
                a[i] += b[i];
            }
        }
    }
}

/// Run `job` stage by stage, each stage a span around its public entry
/// point: placement (interaction graph, anneal) unless the job carries a
/// layout, then discretize, AOD selection and scheduling. Afterwards,
/// `connecting_radius` runs again on the discretized points, as its own
/// span outside the compile, to size that part of discretize. Returns the
/// assembled result, the layout used, and the anneal's evaluation count.
pub fn staged_compile(job: &Job, tracer: &mut Tracer) -> (CompilationResult, GraphineLayout, u64) {
    let config = job.compiler.config();
    let machine = *job.compiler.machine();
    let circuit = &*job.circuit;
    let root = tracer.open("compile");
    let layout = match &job.layout {
        Some(layout) => (**layout).clone(),
        None => {
            let graph = tracer.time("placement.graph", || InteractionGraph::from_circuit(circuit));
            tracer
                .time("placement.anneal", || GraphineLayout::from_graph(&graph, &config.placement))
        }
    };
    let mut disc = tracer.time("discretize", || discretize(circuit, &layout, machine));
    let points: Vec<(f64, f64)> = (0..circuit.num_qubits() as u32)
        .map(|q| {
            let p = disc.array.position(q);
            (p.x, p.y)
        })
        .collect();
    let selection = tracer.time("aod_select", || select_aod_qubits(circuit, &mut disc, config));
    let home_positions: Vec<Point> =
        (0..circuit.num_qubits() as u32).map(|q| disc.array.position(q)).collect();
    let schedule =
        tracer.time("schedule", || schedule_gates(circuit, &mut disc, &selection, config));
    tracer.close(root);
    tracer.time("discretize.radius", || connecting_radius(&points));
    let evals = if job.layout.is_some() { 0 } else { layout.anneal_evals as u64 };
    let result = CompilationResult {
        machine,
        interaction_radius_um: disc.interaction_radius_um,
        schedule,
        aod_selection: selection,
        home_positions,
        num_qubits: circuit.num_qubits(),
    };
    (result, layout, evals)
}

/// The spans that make up `compile_with_layout`.
pub const POST_PLACEMENT_STAGES: [&str; 3] = ["discretize", "aod_select", "schedule"];

/// Per-layer totals of one traced replay pass.
#[derive(Default)]
pub struct LayerPass {
    /// Self time per span name, ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Untraced `compile`/`compile_with_layout` wall time, summed.
    pub untraced_ms: f64,
    /// The same, per job.
    pub compile_ms: Vec<f64>,
    /// Untraced post-placement `compile_with_layout` wall time, summed.
    pub post_placement_ms: f64,
    /// Per job, by label: the staged post-placement stages' self time
    /// (discretize, AOD selection, schedule) and the untraced
    /// `compile_with_layout` time, ms.
    pub reconcile: Vec<(String, f64, f64)>,
    /// The staged replay's `compile` spans, summed.
    pub traced_ms: f64,
    pub stats: Vec<CompileStats>,
    pub anneal_evals: u64,
    pub gates: u64,
    /// Core-cache activity during the untraced compiles.
    pub caches: CacheCounters,
}

/// The traced replay of `jobs`: for each, an untraced compile (timed
/// whole), the staged compile under spans, an untraced
/// `compile_with_layout` on the same layout (the reconciliation base),
/// and the front end (parse, lower, content hash, DAG) on its QASM text.
/// Every call starts from empty core caches. The staged schedule must
/// equal the untraced one; mismatches and failed checks go to `errors`.
pub fn replay_pass(
    jobs: &[&Job],
    qasm: &[&str],
    tracer: &mut Tracer,
    pass: u64,
    errors: &mut Vec<String>,
) -> (LayerPass, Vec<CompilationResult>) {
    tracer.set_trace(pass);
    let mut out = LayerPass::default();
    let mut results = Vec::with_capacity(jobs.len());
    for (job, text) in jobs.iter().zip(qasm) {
        clear_core_caches();
        let before = CacheCounters::now();
        let t = Instant::now();
        let untraced = job.compile();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.untraced_ms += ms;
        out.compile_ms.push(ms);
        out.caches.add(&CacheCounters::now().since(&before));

        clear_core_caches();
        let mark = tracer.mark();
        let (staged, layout, evals) = staged_compile(job, tracer);
        out.anneal_evals += evals;
        let stages_ms = tracer.self_ms_since(mark, &POST_PLACEMENT_STAGES);

        clear_core_caches();
        let t = Instant::now();
        let post = job.compiler.compile_with_layout(&job.circuit, &layout);
        let post_ms = t.elapsed().as_secs_f64() * 1e3;
        out.post_placement_ms += post_ms;
        out.reconcile.push((job.label.clone(), stages_ms, post_ms));

        if staged.schedule != untraced.schedule
            || staged.home_positions != untraced.home_positions
            || post.schedule != untraced.schedule
        {
            errors.push(format!("{}: staged replay differs from compile", job.label));
        }
        if let Err(e) = checks::check_schedule(&job.circuit, &untraced) {
            errors.push(format!("{}: {e}", job.label));
        }

        let front = tracer.open("frontend");
        match tracer.time("qasm.parse", || parallax_qasm::parse(text)) {
            Ok(program) => {
                match tracer.time("circuit.lower", || from_qasm(&program).map(|c| optimize(&c))) {
                    Ok(lowered) => {
                        tracer
                            .time("qasm.hash", || parallax_service::circuit_content_hash(&lowered));
                    }
                    Err(e) => errors.push(format!("{}: lowering failed: {e}", job.label)),
                }
            }
            Err(e) => errors.push(format!("{}: QASM parse failed: {e}", job.label)),
        }
        tracer.time("circuit.dag", || DependencyDag::build(&job.circuit));
        tracer.close(front);

        out.gates += job.circuit.len() as u64;
        out.stats.push(untraced.schedule.stats.clone());
        results.push(untraced);
    }
    out.self_ms = tracer.self_ms_by_name(pass);
    out.traced_ms = tracer.total_ms(pass, "compile");
    (out, results)
}
