//! The **compiled-template cache**: the process-wide map from
//! ([`parallax_circuit::structural_hash`], compiler fingerprint) to shared
//! [`CompiledTemplate`]s, serving variational sweeps.
//!
//! Entries are `Arc`-shared — a hit is a pointer clone, never a schedule
//! copy — and weighed in the same qubit-sized units as the layout layer
//! under the shared `PARALLAX_LAYOUT_CACHE` budget. Most callers
//! reach this layer through the [`crate::template::compiled_template`]
//! front door rather than the raw [`lookup_template`]/[`record_template`]
//! pair.

use super::configured_capacity;
use crate::template::CompiledTemplate;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Content address of one compiled template: the circuit's structural
/// fingerprint (angles canonicalized to ordinal slots) and the
/// machine+config fingerprint of the compiler. Two sweep members that
/// differ only in rotation angles share a key; any structural or
/// configuration change does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TemplateKey {
    /// [`parallax_circuit::structural_hash`] of the circuit.
    pub structural: u64,
    /// [`crate::ParallaxCompiler::fingerprint`] (machine + config).
    pub compiler: u64,
}

/// Counters and gauges of the template cache (the `STATS` sub-object).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
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

struct TemplateEntry {
    template: Arc<CompiledTemplate>,
    tick: u64,
    weight: usize,
}

/// A template entry holds a full compiled artifact, so it is charged its
/// qubit count plus one unit per scheduled gate index and move — the same
/// qubit-sized units as the layout layer.
fn template_weight(template: &CompiledTemplate) -> usize {
    let result = template.result();
    let schedule: usize =
        result.schedule.layers.iter().map(|l| l.gate_indices.len() + l.moves.len()).sum();
    (result.num_qubits + schedule).max(1)
}

/// Bounded LRU map from [`TemplateKey`] to shared compiled templates —
/// same size-aware eviction discipline as [`super::LayoutCache`]. Entries
/// are `Arc`-shared: a hit is a pointer clone, so sweep traffic never
/// copies the schedule.
pub struct TemplateCache {
    map: HashMap<TemplateKey, TemplateEntry>,
    tick: u64,
    capacity: usize,
    weight: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl TemplateCache {
    /// Create a cache holding at most `capacity` qubit-units of compiled
    /// templates (0 disables).
    pub fn new(capacity: usize) -> Self {
        Self { map: HashMap::new(), tick: 0, capacity, weight: 0, hits: 0, misses: 0, evictions: 0 }
    }

    /// Look up `key`, refreshing its recency and counting the hit/miss.
    pub fn get(&mut self, key: &TemplateKey) -> Option<Arc<CompiledTemplate>> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.tick = self.tick;
                self.hits += 1;
                Some(Arc::clone(&entry.template))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting least-recently-used templates
    /// until the new entry fits. Like the other layers: disabled at
    /// capacity 0, and an entry outweighing the whole budget warns once
    /// per process and is not cached.
    pub fn insert(&mut self, key: TemplateKey, template: Arc<CompiledTemplate>) {
        if self.capacity == 0 {
            return;
        }
        let weight = template_weight(&template);
        if weight > self.capacity {
            static OVERSIZED: std::sync::Once = std::sync::Once::new();
            let capacity = self.capacity;
            OVERSIZED.call_once(|| {
                eprintln!(
                    "warning: a {weight}-unit compiled template exceeds the whole \
                     template-cache budget ({capacity} qubit-units) and will not be cached; \
                     PARALLAX_LAYOUT_CACHE sizes the layout and template caches — \
                     raise it to at least the largest sweep circuit's schedule size"
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
        self.map.insert(key, TemplateEntry { template, tick: self.tick, weight });
    }

    /// Current counters and gauges.
    pub fn stats(&self) -> TemplateCacheStats {
        TemplateCacheStats {
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

fn template_global() -> &'static Mutex<TemplateCache> {
    static CACHE: OnceLock<Mutex<TemplateCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(TemplateCache::new(configured_capacity())))
}

/// Look up a process-wide compiled template. `None` means the caller must
/// compile (and should [`record_template`] the result). Most callers want
/// the [`crate::template::compiled_template`] front door instead.
pub fn lookup_template(key: &TemplateKey) -> Option<Arc<CompiledTemplate>> {
    template_global().lock().expect("template cache lock").get(key)
}

/// Publish a freshly compiled template for process-wide reuse. Compilation
/// happens outside the lock ([`crate::template::compiled_template`]), so
/// concurrent sweeps contend only on the map insert itself.
pub fn record_template(key: TemplateKey, template: Arc<CompiledTemplate>) {
    template_global().lock().expect("template cache lock").insert(key, template);
}

/// Snapshot of the process-wide template cache counters.
pub fn template_cache_stats() -> TemplateCacheStats {
    template_global().lock().expect("template cache lock").stats()
}

/// Apply the shared budget to the process-wide instance (the
/// [`super::resize`] hook for this layer).
pub(super) fn set_global_capacity(capacity: usize) {
    template_global().lock().expect("template cache lock").set_capacity(capacity);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_circuit::CircuitBuilder;
    use parallax_hardware::MachineSpec;

    #[test]
    fn template_cache_lifecycle_hit_lru_oversized_disable() {
        use crate::{CompilerConfig, ParallaxCompiler};
        let compiler =
            ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(21));
        let mut b = CircuitBuilder::new(3);
        b.h(0).cx(0, 1).cx(1, 2);
        let tpl = Arc::new(CompiledTemplate::compile(&compiler, &b.build()));
        let key = |n: u64| TemplateKey { structural: n, compiler: 1 };

        // Weight probe: one entry's weight under a roomy budget.
        let mut probe = TemplateCache::new(1 << 20);
        probe.insert(key(0), Arc::clone(&tpl));
        let w = probe.stats().weight;
        assert!(w >= 3, "3 qubits plus scheduled gates, got {w}");

        // Hit returns the shared Arc and LRU eviction is size-aware.
        let mut c = TemplateCache::new(2 * w);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), Arc::clone(&tpl));
        c.insert(key(2), Arc::clone(&tpl));
        assert!(Arc::ptr_eq(&c.get(&key(1)).unwrap(), &tpl)); // 1 now MRU
        c.insert(key(3), Arc::clone(&tpl)); // evicts 2
        assert!(c.get(&key(2)).is_none());
        assert!(c.get(&key(1)).is_some() && c.get(&key(3)).is_some());
        let s = c.stats();
        assert_eq!((s.evictions, s.len, s.weight), (1, 2, 2 * w));
        assert_eq!((s.hits, s.misses), (3, 2));

        // An entry outweighing the whole budget is skipped, nothing evicted.
        let mut tiny = TemplateCache::new(w - 1);
        tiny.insert(key(1), Arc::clone(&tpl));
        assert_eq!((tiny.stats().len, tiny.stats().evictions), (0, 0));

        // Capacity 0 disables; set_capacity(0) clears.
        let mut off = TemplateCache::new(0);
        off.insert(key(1), Arc::clone(&tpl));
        assert!(off.get(&key(1)).is_none());
        c.set_capacity(0);
        assert_eq!((c.stats().len, c.stats().weight), (0, 0));
    }
}
