//! # Parallax: a zero-SWAP compiler for neutral-atom quantum computers
//!
//! Rust reproduction of *"Parallax: A Compiler for Neutral Atom Quantum
//! Computers under Hardware Constraints"* (Ludmir & Patel, SC 2024). The
//! compiler takes a circuit in the {U3, CZ} basis and produces an
//! executable schedule of gate layers and AOD atom movements that never
//! inserts a SWAP gate, via the paper's four-step pipeline (Fig. 4):
//!
//! 1. **Placement** — GRAPHINE dual-annealed layout (`parallax-graphine`).
//! 2. **Discretization** — snap to the machine's site grid under the
//!    minimum-separation/padding rule ([`discretize`](mod@discretize)).
//! 3. **AOD selection** — score atoms by out-of-range interactions (0.99)
//!    and blockade serialization (0.01); one atom per AOD row/column pair
//!    ([`aod_select`]).
//! 4. **Scheduling** — Algorithm 1: layered execution with one recursive
//!    move per layer, trap-change fallback, shuffled blockade-interference
//!    ejection, and home-return ([`scheduler`], [`movement`]).
//!
//! Logical shots are parallelized by tiling circuit copies that share the
//! AOD movement scheme ([`parallelize`], Section II-E).
//!
//! # Performance
//!
//! Two layers make repeat and near-miss traffic cheap. The process-wide
//! [`layout_cache`] skips the anneal for known (interaction graph,
//! placement-params) keys, on any machine, with size-aware eviction
//! (entries are charged their qubit count; `PARALLAX_LAYOUT_CACHE` sets
//! the budget in qubit-units). Within a compile, the scheduler's per-compile move memo
//! answers the home-return steady state with an epoch fast path; move
//! plans are not cached across compiles.
//! Downstream, the [`scheduler`] — the whole cost of a warm-cache compile
//! — runs on an incremental dependency frontier, a spatial blockade
//! index, failed-move memoization, pruned endpoint cascades
//! ([`movement`]), and a reusable layer scratch, all bit-identical to the
//! reference implementations (proptested against the naive oracles).
//! Measured on TFIM-128 (10-sample means, one machine): the schedule
//! stage fell 192.7 ms → 52.8 ms (3.7x) in PR 4 and 55.2 ms → 10.4 ms
//! (5.3x, re-measured same machine) in PR 5 — movement planning itself
//! 50.8 ms → 6.4 ms — on top of PR 3's 1.22 s → 0.19 s.
//! Every compile records its four pipeline-stage timers ([`profile`]);
//! the per-layer scheduler sub-stage timers fill in under
//! `PARALLAX_TRACE=1`. The `profile_stages` example prints them for any
//! workload.
//!
//! At 1000+ qubits the bottleneck shifts from algorithms to memory
//! layout, so the structures every compile walks are flat SoA/CSR arrays
//! (`docs/DATA_LAYOUT.md`): CSR dependency DAG and per-qubit gate lists,
//! CSR interaction-graph adjacency, and packed sentinel-encoded
//! `AtomArray` lanes, each proven bit-identical against its retained
//! nested oracle. Measured cold post-placement compiles (10-sample
//! means, one machine, `experiments scale`): Atom-1225 at 1000 qubits
//! 21.9 ms → 12.2 ms (−44%), Synthetic-2048 at 2000 qubits 54.2 ms →
//! 44.3 ms, Synthetic-4096 at 4000 qubits 161.5 ms → 154.8 ms.
//!
//! For variational traffic, a third layer skips the pipeline entirely:
//! placement and scheduling read circuit *structure* only, never U3
//! angles, so a [`CompiledTemplate`] compiles a structure once and
//! [`rebind`](CompiledTemplate::rebind)s each parameter set in
//! microseconds (~2 µs for a 372-slot QAOA ansatz vs ~285 µs for a warm
//! full compile, bench-isolated). Templates share the process through
//! [`compiled_template`], keyed by (structural hash, compiler
//! fingerprint) under the same `PARALLAX_LAYOUT_CACHE` budget; sweep
//! loops precompute the key once with [`template_key`] and probe via
//! [`compiled_template_keyed`]. The umbrella differential suite proves
//! every rebind byte-identical to an independent cold compile of the
//! bound circuit.
//!
//! # Example
//! ```
//! use parallax_circuit::CircuitBuilder;
//! use parallax_core::{CompilerConfig, ParallaxCompiler};
//! use parallax_hardware::MachineSpec;
//!
//! let mut b = CircuitBuilder::new(3);
//! b.h(0).cx(0, 1).cx(1, 2);
//! let circuit = b.build();
//!
//! let compiler = ParallaxCompiler::new(
//!     MachineSpec::quera_aquila_256(),
//!     CompilerConfig::quick(0),
//! );
//! let result = compiler.compile(&circuit);
//! assert_eq!(result.schedule.stats.swap_count, 0); // zero SWAPs, always
//! assert_eq!(result.cz_count(), circuit.cz_count());
//! ```

pub mod aod_select;
pub mod compiler;
pub mod config;
pub mod discretize;
pub mod layout_cache;
pub mod movement;
pub mod multi_mover;
pub mod parallelize;
pub mod profile;
pub mod scheduler;
pub mod template;

pub use aod_select::{select_aod_qubits, AodSelection};
pub use compiler::{CompilationResult, ParallaxCompiler, SharedCompiler};
pub use config::{CompilerConfig, SchedulingMode};
pub use discretize::{discretize, DiscretizedLayout};
pub use layout_cache::{
    cached_layout, layout_cache_stats, plan_cache_stats, template_cache_stats, CacheStats,
    LayoutCache, PlanCacheStats, TemplateCache, TemplateKey, WeightedLru,
};
pub use movement::{plan_move_into_range, plan_return_home, MoveFailure, MovePlan};
#[cfg(any(test, debug_assertions))]
pub use multi_mover::moves_conflict_naive;
pub use multi_mover::{corridors_conflict, Corridor};

/// Register core's pull-model metrics (the two cache layers) with the
/// process-wide `parallax-trace` registry. Once per process; every entry
/// point calls it — compiler construction, the compile service, the bench
/// harness — so exposition always includes the cache gauges no matter
/// which surface scraped first.
pub fn register_observability() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(layout_cache::register_cache_metrics);
}
pub use parallelize::{replication_plan, ReplicationPlan};
pub use scheduler::{schedule_gates, CompileStats, MultiMoverStats, Schedule, ScheduledLayer};
pub use template::{compiled_template, compiled_template_keyed, template_key, CompiledTemplate};
