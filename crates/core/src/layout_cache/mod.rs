//! Process-wide caches of the expensive per-compile intermediates: annealed
//! GRAPHINE **layouts** and successful AOD **move plans**.
//!
//! The service's result cache can only answer *exact* repeats: the same
//! circuit with different scheduling knobs (home-return, move recursion,
//! AOD weights) re-paid the full placement cost even though the layout is
//! untouched by those knobs. This cache keys the layout stage alone, by
//!
//! * the **interaction-graph** stable hash (placement sees only the graph,
//!   so different circuits with equal graphs share layouts),
//! * the **machine** fingerprint, and
//! * the **placement-parameter** fingerprint (seed, iteration budget,
//!   repulsion scale, restart count — everything that steers the anneal;
//!   the worker count is excluded because it never changes the result).
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
//! The **move-plan cache** ([`PlanCache`]) rides the same layer: the
//! scheduler's movement planner is a pure function of the array state and
//! its `(mover, target, radius, recursion)` arguments, and under
//! home-return the effective AOD configuration repeats — not only layer to
//! layer within a compile (the scheduler's per-compile memo handles that),
//! but across *compiles* of the same layout, which is exactly the repeat
//! traffic a serving deployment sees after a layout-cache hit. Entries are
//! keyed by ([`AtomArray::static_fingerprint`],
//! [`AtomArray::aod_fingerprint`], mover, target) and store the complete
//! placed-atom snapshot plus the radius/recursion knobs; a hit is honoured
//! only after an **exact** state comparison
//! ([`AtomArray::placed_state_matches`]), so a reused plan is bit-identical
//! to what a fresh cascade would produce — by planner purity, not by
//! trust in a 64-bit hash. The same `PARALLAX_LAYOUT_CACHE` budget governs
//! both layers (plan entries are charged their snapshot + move counts in
//! the same position-sized units; `0` disables both), and [`resize`]
//! adjusts both at runtime.
//!
//! The cache layer is decomposed into one module per family — mirroring
//! the engine-module split the ROADMAP cites from formualizer — so each
//! family's key discipline and eviction semantics live (and are tested)
//! next to their implementation:
//!
//! * this module — the **layout** cache plus the shared budget plumbing
//!   ([`resize`], `PARALLAX_LAYOUT_CACHE`, [`register_cache_metrics`]);
//! * [`plan`] — the sharded cross-compile **move-plan** cache;
//! * [`template`] — the compiled-**template** cache for variational sweeps;
//! * [`persist`] — the **disk tier**: a content-addressed, versioned,
//!   corruption-tolerant file store ([`persist::DiskStore`]) that gives any
//!   in-memory cache layer a restart-surviving life (the service's result
//!   cache rides it today; template persistence is the designed next user).
//!
//! [`AtomArray::static_fingerprint`]: parallax_hardware::AtomArray::static_fingerprint
//! [`AtomArray::aod_fingerprint`]: parallax_hardware::AtomArray::aod_fingerprint
//! [`AtomArray::placed_state_matches`]: parallax_hardware::AtomArray::placed_state_matches

pub mod persist;
pub mod plan;
pub mod template;

pub use persist::{DiskStore, DISK_FORMAT_VERSION};
pub use plan::{
    lookup_plan, plan_cache_stats, record_plan, PlanCache, PlanCacheStats, PlanKey, PLAN_SHARDS,
};
pub use template::{
    lookup_template, record_template, template_cache_stats, TemplateCache, TemplateCacheStats,
    TemplateKey,
};

use crate::profile::{self, Stage};
use parallax_graphine::{GraphineLayout, InteractionGraph, PlacementConfig};
use parallax_hardware::MachineSpec;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Content address of one layout computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayoutKey {
    /// [`InteractionGraph::stable_hash`] of the circuit's graph.
    pub graph: u64,
    /// [`MachineSpec::fingerprint`] of the target machine.
    pub machine: u64,
    /// [`PlacementConfig::fingerprint`] of the placement parameters.
    pub placement: u64,
}

impl LayoutKey {
    /// Build the key for (graph, machine, placement parameters).
    pub fn new(
        graph: &InteractionGraph,
        machine: &MachineSpec,
        placement: &PlacementConfig,
    ) -> Self {
        Self {
            graph: graph.stable_hash(),
            machine: machine.fingerprint(),
            placement: placement.fingerprint(),
        }
    }
}

/// Counters and gauges of the layout cache (the `STATS` sub-object).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to anneal.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum total weight in qubit-units (0 = disabled).
    pub capacity: usize,
    /// Total weight of the cached entries, qubit-units.
    pub weight: usize,
}

struct Entry {
    layout: GraphineLayout,
    /// Last-touch tick for LRU eviction.
    tick: u64,
    /// Size of this entry in qubit-units (its position count): a
    /// 256-qubit layout holds 256x the data of a 1-qubit one and is
    /// charged accordingly.
    weight: usize,
}

fn weight_of(layout: &GraphineLayout) -> usize {
    layout.positions.len().max(1)
}

/// Bounded LRU map from [`LayoutKey`] to annealed layouts. Capacity is
/// **size-aware**: entries are charged their qubit count rather than a
/// flat 1, so one giant layout cannot silently occupy as little budget as
/// a trivial one. Eviction scans for the stalest tick — O(entries), which
/// is noise next to the anneal the cache avoids.
pub struct LayoutCache {
    map: HashMap<LayoutKey, Entry>,
    tick: u64,
    capacity: usize,
    weight: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl LayoutCache {
    /// Create a cache holding at most `capacity` qubit-units of layouts
    /// (0 disables).
    pub fn new(capacity: usize) -> Self {
        Self { map: HashMap::new(), tick: 0, capacity, weight: 0, hits: 0, misses: 0, evictions: 0 }
    }

    /// Look up `key`, refreshing its recency and counting the hit/miss.
    pub fn get(&mut self, key: &LayoutKey) -> Option<GraphineLayout> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.tick = self.tick;
                self.hits += 1;
                Some(entry.layout.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting least-recently-used layouts
    /// until the new entry's weight fits. No-op when the cache is disabled
    /// or the layout alone exceeds the whole budget (caching it would
    /// wipe everything else for an entry that can never share) — the
    /// latter warns once per process, because an operator carrying a
    /// small entry-count-era `PARALLAX_LAYOUT_CACHE` value would
    /// otherwise see their hit rate silently drop to zero.
    pub fn insert(&mut self, key: LayoutKey, layout: GraphineLayout) {
        if self.capacity == 0 {
            return;
        }
        let weight = weight_of(&layout);
        if weight > self.capacity {
            static OVERSIZED: std::sync::Once = std::sync::Once::new();
            let capacity = self.capacity;
            OVERSIZED.call_once(|| {
                eprintln!(
                    "warning: a {weight}-qubit layout exceeds the whole layout-cache budget \
                     ({capacity} qubit-units) and will not be cached; PARALLAX_LAYOUT_CACHE \
                     is measured in qubit-units (it used to count entries) — raise it to \
                     at least the largest circuit's qubit count"
                );
            });
            return;
        }
        self.tick += 1;
        if let Some(old) = self.map.remove(&key) {
            self.weight -= old.weight;
        }
        while self.weight + weight > self.capacity {
            self.evict_stalest();
        }
        self.weight += weight;
        self.map.insert(key, Entry { layout, tick: self.tick, weight });
    }

    /// Current counters and gauges.
    pub fn stats(&self) -> LayoutCacheStats {
        LayoutCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.map.len(),
            capacity: self.capacity,
            weight: self.weight,
        }
    }

    /// Drop the least-recently-touched entry (callers guarantee the cache
    /// is non-empty whenever they loop on this).
    fn evict_stalest(&mut self) {
        let stalest = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.tick)
            .map(|(k, _)| *k)
            .expect("nonzero weight implies an entry to evict");
        self.weight -= self.map.remove(&stalest).expect("stalest key present").weight;
        self.evictions += 1;
    }

    /// Change the budget at runtime: shrinking evicts stalest-first down
    /// to the new capacity, `0` disables and clears.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        if capacity == 0 {
            self.weight = 0;
            self.map.clear();
            return;
        }
        while self.weight > capacity {
            self.evict_stalest();
        }
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

/// Fetch or anneal the layout for `graph` under the given machine and
/// placement parameters; the boolean reports whether the cache answered.
///
/// Misses anneal **outside** the cache lock and publish afterwards; if two
/// threads race the same key both anneal the identical (deterministic)
/// layout, so last-write-wins is harmless.
pub fn lookup_or_generate(
    graph: &InteractionGraph,
    machine: &MachineSpec,
    placement: &PlacementConfig,
) -> (GraphineLayout, bool) {
    let key = LayoutKey::new(graph, machine, placement);
    let probe = {
        let _s = parallax_trace::span!("cache.layout.probe");
        global().lock().expect("layout cache lock").get(&key)
    };
    if let Some(layout) = probe {
        return (layout, true);
    }
    let layout = GraphineLayout::from_graph(graph, placement);
    global().lock().expect("layout cache lock").insert(key, layout.clone());
    (layout, false)
}

/// [`lookup_or_generate`] starting from a circuit, with the placement
/// stage profiled — the entry point `ParallaxCompiler::compile` and the
/// bench harness share.
pub fn cached_layout(
    circuit: &parallax_circuit::Circuit,
    machine: &MachineSpec,
    placement: &PlacementConfig,
) -> GraphineLayout {
    let mut t = profile::stage(Stage::Placement);
    let graph = InteractionGraph::from_circuit(circuit);
    let (layout, hit) = lookup_or_generate(&graph, machine, placement);
    t.set_allocs(if hit { 0 } else { layout.anneal_allocs as u64 });
    layout
}

/// Snapshot of the process-wide layout cache counters.
pub fn layout_cache_stats() -> LayoutCacheStats {
    global().lock().expect("layout cache lock").stats()
}

/// Resize **all three** process-wide cache layers at runtime (the same
/// effect as restarting with `PARALLAX_LAYOUT_CACHE=<units>`): shrinking
/// evicts stalest-first down to the new budget, `0` disables and clears
/// every layer. Concurrent compiles stay correct at any capacity — caches
/// only ever change *when* work is recomputed, never its result.
pub fn resize(capacity: usize) {
    global().lock().expect("layout cache lock").set_capacity(capacity);
    plan::set_global_capacity(capacity);
    template::set_global_capacity(capacity);
}

/// Register the three cache layers with the process-wide metrics registry
/// as a pull-model collector: the caches keep their own counters under
/// their own locks, and exposition samples them on demand instead of
/// mirroring every probe into a second atomic. Idempotent — safe to call
/// from every entry point (compiler construction, service start,
/// `experiments --metrics`).
pub fn register_cache_metrics() {
    parallax_trace::register_collector(
        "parallax_core.caches",
        Box::new(|out| {
            let push = |out: &mut Vec<parallax_trace::Sample>,
                        cache: &str,
                        hits: u64,
                        misses: u64,
                        evictions: u64,
                        len: usize,
                        capacity: usize,
                        weight: usize| {
                let l = [("cache", cache)];
                out.push(parallax_trace::Sample::counter("parallax_cache_hits_total", &l, hits));
                out.push(parallax_trace::Sample::counter(
                    "parallax_cache_misses_total",
                    &l,
                    misses,
                ));
                out.push(parallax_trace::Sample::counter(
                    "parallax_cache_evictions_total",
                    &l,
                    evictions,
                ));
                out.push(parallax_trace::Sample::gauge("parallax_cache_entries", &l, len as u64));
                out.push(parallax_trace::Sample::gauge(
                    "parallax_cache_capacity_units",
                    &l,
                    capacity as u64,
                ));
                out.push(parallax_trace::Sample::gauge(
                    "parallax_cache_weight_units",
                    &l,
                    weight as u64,
                ));
            };
            let s = layout_cache_stats();
            push(out, "layout", s.hits, s.misses, s.evictions, s.len, s.capacity, s.weight);
            let s = plan_cache_stats();
            push(out, "plan", s.hits, s.misses, s.evictions, s.len, s.capacity, s.weight);
            out.push(parallax_trace::Sample::counter(
                "parallax_cache_lock_contended_total",
                &[("cache", "plan")],
                s.contended,
            ));
            let s = template_cache_stats();
            push(out, "template", s.hits, s.misses, s.evictions, s.len, s.capacity, s.weight);
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_circuit::CircuitBuilder;

    fn layout(tag: f64) -> GraphineLayout {
        GraphineLayout {
            positions: vec![(tag, tag)],
            interaction_radius: tag,
            energy: tag,
            anneal_evals: 1,
            anneal_allocs: 1,
        }
    }

    fn sized_layout(tag: f64, qubits: usize) -> GraphineLayout {
        GraphineLayout { positions: vec![(tag, tag); qubits], ..layout(tag) }
    }

    fn key(n: u64) -> LayoutKey {
        LayoutKey { graph: n, machine: 1, placement: 1 }
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut c = LayoutCache::new(2);
        assert_eq!(c.get(&key(1)), None);
        c.insert(key(1), layout(1.0));
        c.insert(key(2), layout(2.0));
        assert_eq!(c.get(&key(1)).unwrap().energy, 1.0); // 1 now MRU
        c.insert(key(3), layout(3.0)); // evicts 2
        assert_eq!(c.get(&key(2)), None);
        assert!(c.get(&key(1)).is_some() && c.get(&key(3)).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (3, 2, 1, 2));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = LayoutCache::new(0);
        c.insert(key(1), layout(1.0));
        assert_eq!(c.get(&key(1)), None);
        assert_eq!(c.stats().len, 0);
    }

    #[test]
    fn eviction_is_weighted_by_qubit_count() {
        // Capacity 280 qubit-units: a 256-qubit layout plus one 20-qubit
        // layout fit; the second 20-qubit layout displaces the (stale)
        // large one — not a small one — because the large entry is charged
        // its real size instead of a flat 1.
        let mut c = LayoutCache::new(280);
        c.insert(key(1), sized_layout(1.0, 256));
        c.insert(key(2), sized_layout(2.0, 20));
        assert_eq!(c.stats().weight, 276);
        c.insert(key(3), sized_layout(3.0, 20));
        assert_eq!(c.get(&key(1)), None, "the large layout must be evicted first");
        assert!(c.get(&key(2)).is_some() && c.get(&key(3)).is_some());
        let s = c.stats();
        assert_eq!((s.evictions, s.len, s.weight), (1, 2, 40));
    }

    #[test]
    fn oversized_layout_is_not_cached_and_evicts_nothing() {
        let mut c = LayoutCache::new(100);
        c.insert(key(1), sized_layout(1.0, 60));
        c.insert(key(2), sized_layout(2.0, 101)); // exceeds the whole budget
        assert_eq!(c.get(&key(2)), None);
        assert!(c.get(&key(1)).is_some(), "existing entries must survive");
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn reinserting_a_key_replaces_its_weight() {
        let mut c = LayoutCache::new(100);
        c.insert(key(1), sized_layout(1.0, 80));
        c.insert(key(1), sized_layout(1.5, 40));
        let s = c.stats();
        assert_eq!((s.len, s.weight, s.evictions), (1, 40, 0));
        assert_eq!(c.get(&key(1)).unwrap().positions.len(), 40);
    }

    #[test]
    fn distinct_key_components_do_not_collide() {
        let mut c = LayoutCache::new(8);
        c.insert(LayoutKey { graph: 1, machine: 1, placement: 1 }, layout(1.0));
        c.insert(LayoutKey { graph: 1, machine: 2, placement: 1 }, layout(2.0));
        c.insert(LayoutKey { graph: 1, machine: 1, placement: 2 }, layout(3.0));
        assert_eq!(c.get(&LayoutKey { graph: 1, machine: 1, placement: 1 }).unwrap().energy, 1.0);
        assert_eq!(c.get(&LayoutKey { graph: 1, machine: 2, placement: 1 }).unwrap().energy, 2.0);
        assert_eq!(c.get(&LayoutKey { graph: 1, machine: 1, placement: 2 }).unwrap().energy, 3.0);
    }

    #[test]
    fn global_near_miss_shares_the_layout_and_counts_a_hit() {
        // Unique seed so this test's keys cannot collide with other tests
        // hitting the shared global cache; assertions are delta-based.
        let mut b = CircuitBuilder::new(4);
        b.cx(0, 1).cx(1, 2).cx(2, 3);
        let circuit = b.build();
        let machine = MachineSpec::quera_aquila_256();
        let placement = PlacementConfig::quick(0xC0FFEE);

        let before = layout_cache_stats();
        let cold = cached_layout(&circuit, &machine, &placement);
        let warm = cached_layout(&circuit, &machine, &placement);
        let after = layout_cache_stats();
        assert_eq!(cold, warm, "cache hit must be bit-identical to the anneal");
        assert!(after.hits > before.hits, "{before:?} -> {after:?}");
        assert!(after.misses > before.misses);

        // A different machine is a different key (per the cache contract).
        let other = cached_layout(&circuit, &MachineSpec::atom_1225(), &placement);
        assert_eq!(other, cold, "layout itself is machine-independent");
        assert!(layout_cache_stats().misses > after.misses);
    }
}
