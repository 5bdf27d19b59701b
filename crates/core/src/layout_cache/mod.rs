//! Process-wide caches of the expensive per-compile intermediates: annealed
//! GRAPHINE **layouts** and compiled **templates**.
//!
//! The service's result cache can only answer *exact* repeats: the same
//! circuit with different scheduling knobs (home-return, move recursion,
//! AOD weights) re-paid the full placement cost even though the layout is
//! untouched by those knobs. This cache keys the layout stage alone, by
//!
//! * the **interaction-graph** stable hash (placement sees only the graph,
//!   so different circuits with equal graphs share layouts), and
//! * the **placement-parameter** fingerprint (seed, iteration budget,
//!   local-search budget, repulsion scale — everything that steers the
//!   anneal).
//!
//! The machine is not in the key: [`GraphineLayout::from_graph`] reads only
//! the graph and the placement parameters, so one anneal serves every
//! machine a circuit is compiled for (discretization, which does read the
//! machine, runs after the cache).
//!
//! A hit returns a clone of a layout that is bit-identical to what a fresh
//! anneal would produce (the whole placement stage is deterministic per
//! key), so compilations through the cache are byte-identical to cold
//! compilations. The cache is a process global guarded by one mutex —
//! generation happens *outside* the lock, so concurrent compiles never
//! serialize on the anneal, only on the map probe. Both direct
//! [`crate::ParallaxCompiler::compile`] calls and the compile service
//! share it; `PARALLAX_LAYOUT_CACHE=<qubit-units>` resizes it and `0`
//! disables it. Eviction is size-aware: an entry costs its qubit count,
//! so a 256-qubit layout is charged 256 units while a 4-qubit one costs
//! 4, and large stale layouts are displaced before hordes of small ones.
//!
//! Move plans are not cached across compiles. The scheduler's per-compile
//! move memo answers every repeat within a compile, and the layers above
//! (this layout cache, the template cache, the service's result cache)
//! answer repeats across compiles before scheduling runs.
//!
//! Every in-memory reuse layer — these two and the service's result cache —
//! is one [`WeightedLru`] at its own key and value type: one eviction
//! policy, one [`CacheStats`]. A layer module keeps only what differs: its
//! key, its weight function and its oversized-entry warning.
//!
//! * [`lru`] — the shared size-aware LRU and its counters;
//! * this module — the **layout** cache plus the shared budget plumbing
//!   ([`resize`], `PARALLAX_LAYOUT_CACHE`, [`register_cache_metrics`]);
//! * [`template`] — the compiled-**template** cache for variational sweeps.

pub mod lru;
pub mod template;

pub use lru::{CacheStats, Oversized, WeightedLru};
pub use template::{
    lookup_template, record_template, template_cache_stats, TemplateCache, TemplateKey,
};

use crate::profile::{self, Stage};
use parallax_graphine::{GraphineLayout, InteractionGraph, PlacementConfig};
use std::sync::{Mutex, OnceLock};

/// Content address of one layout computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayoutKey {
    /// [`InteractionGraph::stable_hash`] of the circuit's graph.
    pub graph: u64,
    /// [`PlacementConfig::fingerprint`] of the placement parameters.
    pub placement: u64,
}

impl LayoutKey {
    /// Build the key for (graph, placement parameters).
    pub fn new(graph: &InteractionGraph, placement: &PlacementConfig) -> Self {
        Self { graph: graph.stable_hash(), placement: placement.fingerprint() }
    }
}

/// Bounded LRU map from [`LayoutKey`] to annealed layouts, charged in
/// qubit-units.
pub type LayoutCache = WeightedLru<LayoutKey, GraphineLayout>;

/// A layout is charged its qubit count (its position count): a 256-qubit
/// layout holds 256x the data of a 1-qubit one, so large stale layouts are
/// displaced before hordes of small ones.
fn weight_of(layout: &GraphineLayout) -> usize {
    layout.positions.len().max(1)
}

/// Insert (or refresh) a layout. An entry outweighing the whole budget is
/// not cached and warns once per process, because an operator carrying a
/// small entry-count-era `PARALLAX_LAYOUT_CACHE` value would otherwise see
/// their hit rate silently drop to zero.
fn insert_layout(cache: &mut LayoutCache, key: LayoutKey, layout: GraphineLayout) {
    let weight = weight_of(&layout);
    if let Err(Oversized { weight, capacity }) = cache.insert(key, layout, weight) {
        static OVERSIZED: std::sync::Once = std::sync::Once::new();
        OVERSIZED.call_once(|| {
            eprintln!(
                "warning: a {weight}-qubit layout exceeds the whole layout-cache budget \
                 ({capacity} qubit-units) and will not be cached; PARALLAX_LAYOUT_CACHE \
                 is measured in qubit-units (it used to count entries) — raise it to \
                 at least the largest circuit's qubit count"
            );
        });
    }
}

/// Default capacity: `PARALLAX_LAYOUT_CACHE` (qubit-units; `0` disables)
/// or 8192 — room for e.g. 64 layouts of 128 qubits or thousands of small
/// ones. An unparsable value warns and keeps the default rather than
/// silently re-enabling a cache someone tried to turn off with e.g. `=off`.
const DEFAULT_CAPACITY: usize = 8192;

pub(crate) fn configured_capacity() -> usize {
    match std::env::var("PARALLAX_LAYOUT_CACHE") {
        Err(_) => DEFAULT_CAPACITY,
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!(
                    "warning: PARALLAX_LAYOUT_CACHE={v:?} is not a number of qubit-units \
                     (use 0 to disable); keeping the default capacity {DEFAULT_CAPACITY}"
                );
                DEFAULT_CAPACITY
            }
        },
    }
}

fn global() -> &'static Mutex<LayoutCache> {
    static CACHE: OnceLock<Mutex<LayoutCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(LayoutCache::new(configured_capacity())))
}

/// Fetch or anneal the layout for `graph` under the given placement
/// parameters.
///
/// Misses anneal **outside** the cache lock and publish afterwards; if two
/// threads race the same key both anneal the identical (deterministic)
/// layout, so last-write-wins is harmless.
pub fn lookup_or_generate(graph: &InteractionGraph, placement: &PlacementConfig) -> GraphineLayout {
    let key = LayoutKey::new(graph, placement);
    let probe = {
        let _s = parallax_trace::span!("cache.layout.probe");
        global().lock().expect("layout cache lock").get(&key).cloned()
    };
    if let Some(layout) = probe {
        return layout;
    }
    let layout = GraphineLayout::from_graph(graph, placement);
    insert_layout(&mut global().lock().expect("layout cache lock"), key, layout.clone());
    layout
}

/// [`lookup_or_generate`] starting from a circuit, with the placement
/// stage profiled — the bench harness's entry point.
pub fn cached_layout(
    circuit: &parallax_circuit::Circuit,
    placement: &PlacementConfig,
) -> GraphineLayout {
    cached_layout_and_graph(circuit, placement).1
}

/// [`cached_layout`], also returning the interaction graph that keyed the
/// lookup, so `ParallaxCompiler::compile` discretizes from the same graph
/// instead of building it a second time.
pub(crate) fn cached_layout_and_graph(
    circuit: &parallax_circuit::Circuit,
    placement: &PlacementConfig,
) -> (InteractionGraph, GraphineLayout) {
    let _t = profile::stage(Stage::Placement);
    let graph = InteractionGraph::from_circuit(circuit);
    let layout = lookup_or_generate(&graph, placement);
    (graph, layout)
}

/// Snapshot of the process-wide layout cache counters.
pub fn layout_cache_stats() -> CacheStats {
    global().lock().expect("layout cache lock").stats()
}

/// Counters of the deleted cross-compile move-plan cache, kept so the
/// benchmark harness, which reads them, still builds. Always zero: no
/// process-wide plan cache exists. Goes in the next benchmark change,
/// together with the harness's per-layer plan-cache metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub evictions: u64,
    /// Always 0.
    pub len: usize,
}

/// Always-zero [`PlanCacheStats`]; see there. Goes in the next benchmark
/// change.
pub fn plan_cache_stats() -> PlanCacheStats {
    PlanCacheStats::default()
}

/// Resize **both** process-wide cache layers at runtime (the same
/// effect as restarting with `PARALLAX_LAYOUT_CACHE=<units>`): shrinking
/// evicts least-recently-used first down to the new budget, `0` disables
/// and clears every layer. Concurrent compiles stay correct at any
/// capacity — caches only ever change *when* work is recomputed, never its
/// result.
pub fn resize(capacity: usize) {
    global().lock().expect("layout cache lock").set_capacity(capacity);
    template::set_global_capacity(capacity);
}

/// Register the two cache layers with the process-wide metrics registry
/// as a pull-model collector: the caches keep their own counters under
/// their own locks, and exposition samples them on demand instead of
/// mirroring every probe into a second atomic. Idempotent — safe to call
/// from every entry point (compiler construction, service start,
/// `experiments --metrics`).
pub fn register_cache_metrics() {
    parallax_trace::register_collector(
        "parallax_core.caches",
        Box::new(|out| {
            for (cache, s) in
                [("layout", layout_cache_stats()), ("template", template_cache_stats())]
            {
                let l = [("cache", cache)];
                let count = |name, n: u64| parallax_trace::Sample::counter(name, &l, n);
                let gauge = |name, n: usize| parallax_trace::Sample::gauge(name, &l, n as u64);
                out.push(count("parallax_cache_hits_total", s.hits));
                out.push(count("parallax_cache_misses_total", s.misses));
                out.push(count("parallax_cache_evictions_total", s.evictions));
                out.push(gauge("parallax_cache_entries", s.len));
                out.push(gauge("parallax_cache_capacity_units", s.capacity));
                out.push(gauge("parallax_cache_weight_units", s.weight));
            }
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_circuit::CircuitBuilder;
    use parallax_hardware::MachineSpec;

    fn sized_layout(tag: f64, qubits: usize) -> GraphineLayout {
        GraphineLayout {
            positions: vec![(tag, tag); qubits],
            interaction_radius: tag,
            energy: tag,
            anneal_evals: 1,
        }
    }

    fn key(n: u64) -> LayoutKey {
        LayoutKey { graph: n, placement: 1 }
    }

    #[test]
    fn eviction_is_weighted_by_qubit_count() {
        // Capacity 280 qubit-units: a 256-qubit layout plus one 20-qubit
        // layout fit; the second 20-qubit layout displaces the (stale)
        // large one — not a small one — because the large entry is charged
        // its real size instead of a flat 1.
        let mut c = LayoutCache::new(280);
        insert_layout(&mut c, key(1), sized_layout(1.0, 256));
        insert_layout(&mut c, key(2), sized_layout(2.0, 20));
        assert_eq!(c.stats().weight, 276);
        insert_layout(&mut c, key(3), sized_layout(3.0, 20));
        assert_eq!(c.get(&key(1)), None, "the large layout must be evicted first");
        assert!(c.get(&key(2)).is_some() && c.get(&key(3)).is_some());
        let s = c.stats();
        assert_eq!((s.evictions, s.len, s.weight), (1, 2, 40));
        // A layout with no positions still occupies one unit.
        insert_layout(&mut c, key(4), sized_layout(4.0, 0));
        assert_eq!(c.stats().weight, 41);
    }

    #[test]
    fn distinct_key_components_do_not_collide() {
        let mut c = LayoutCache::new(8);
        let layout = |tag| sized_layout(tag, 1);
        insert_layout(&mut c, LayoutKey { graph: 1, placement: 1 }, layout(1.0));
        insert_layout(&mut c, LayoutKey { graph: 2, placement: 1 }, layout(2.0));
        insert_layout(&mut c, LayoutKey { graph: 1, placement: 2 }, layout(3.0));
        assert_eq!(c.get(&LayoutKey { graph: 1, placement: 1 }).unwrap().energy, 1.0);
        assert_eq!(c.get(&LayoutKey { graph: 2, placement: 1 }).unwrap().energy, 2.0);
        assert_eq!(c.get(&LayoutKey { graph: 1, placement: 2 }).unwrap().energy, 3.0);
    }

    #[test]
    fn global_near_miss_shares_the_layout_and_counts_a_hit() {
        // Unique seed so this test's keys cannot collide with other tests
        // hitting the shared global cache; assertions are delta-based.
        let mut b = CircuitBuilder::new(4);
        b.cx(0, 1).cx(1, 2).cx(2, 3);
        let circuit = b.build();
        let placement = PlacementConfig::quick(0xC0FFEE);

        let before = layout_cache_stats();
        let cold = cached_layout(&circuit, &placement);
        let warm = cached_layout(&circuit, &placement);
        let after = layout_cache_stats();
        assert_eq!(cold, warm, "cache hit must be bit-identical to the anneal");
        assert!(after.hits > before.hits, "{before:?} -> {after:?}");
        assert!(after.misses > before.misses);

        // Another machine hits the same entry (placement reads no machine
        // input), and the compile through the hit matches one from the
        // fresh anneal bit for bit.
        let config = crate::CompilerConfig { placement, ..Default::default() };
        let compiler = crate::ParallaxCompiler::new(MachineSpec::atom_1225(), config);
        let hits = layout_cache_stats().hits;
        let via_cache = compiler.compile(&circuit);
        assert!(layout_cache_stats().hits > hits, "another machine must hit");
        let fresh = compiler.compile_with_layout(&circuit, &cold);
        assert_eq!(
            via_cache.interaction_radius_um.to_bits(),
            fresh.interaction_radius_um.to_bits()
        );
        assert_eq!(via_cache.home_positions, fresh.home_positions);
    }
}
