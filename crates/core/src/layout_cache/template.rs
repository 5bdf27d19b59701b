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

use super::{configured_capacity, CacheStats, Oversized, WeightedLru};
use crate::template::CompiledTemplate;
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

/// A template entry holds a full compiled artifact, so it is charged its
/// qubit count plus one unit per scheduled gate index and move — the same
/// qubit-sized units as the layout layer.
fn template_weight(template: &CompiledTemplate) -> usize {
    let result = template.result();
    let schedule: usize =
        result.schedule.layers.iter().map(|l| l.gate_indices.len() + l.moves.len()).sum();
    (result.num_qubits + schedule).max(1)
}

/// Bounded LRU map from [`TemplateKey`] to shared compiled templates,
/// charged in qubit-units. Entries are `Arc`-shared: a hit is a pointer
/// clone, so sweep traffic never copies the schedule.
pub type TemplateCache = WeightedLru<TemplateKey, Arc<CompiledTemplate>>;

/// Insert (or refresh) a template. An entry outweighing the whole budget is
/// not cached and warns once per process.
fn insert_template(cache: &mut TemplateCache, key: TemplateKey, template: Arc<CompiledTemplate>) {
    let weight = template_weight(&template);
    if let Err(Oversized { weight, capacity }) = cache.insert(key, template, weight) {
        static OVERSIZED: std::sync::Once = std::sync::Once::new();
        OVERSIZED.call_once(|| {
            eprintln!(
                "warning: a {weight}-unit compiled template exceeds the whole \
                 template-cache budget ({capacity} qubit-units) and will not be cached; \
                 PARALLAX_LAYOUT_CACHE sizes the layout and template caches — \
                 raise it to at least the largest sweep circuit's schedule size"
            );
        });
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
    template_global().lock().expect("template cache lock").get(key).cloned()
}

/// Publish a freshly compiled template for process-wide reuse. Compilation
/// happens outside the lock ([`crate::template::compiled_template`]), so
/// concurrent sweeps contend only on the map insert itself.
pub fn record_template(key: TemplateKey, template: Arc<CompiledTemplate>) {
    insert_template(&mut template_global().lock().expect("template cache lock"), key, template);
}

/// Snapshot of the process-wide template cache counters.
pub fn template_cache_stats() -> CacheStats {
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
    use crate::{CompilerConfig, ParallaxCompiler};
    use parallax_circuit::CircuitBuilder;
    use parallax_hardware::MachineSpec;

    fn template() -> Arc<CompiledTemplate> {
        let compiler =
            ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(21));
        let mut b = CircuitBuilder::new(3);
        b.h(0).cx(0, 1).cx(1, 2);
        Arc::new(CompiledTemplate::compile(&compiler, &b.build()))
    }

    #[test]
    fn template_is_charged_its_schedule_volume_and_hits_share_the_arc() {
        let tpl = template();
        let key = TemplateKey { structural: 1, compiler: 1 };
        let w = template_weight(&tpl);
        assert!(w >= 3, "3 qubits plus scheduled gates, got {w}");

        let mut c = TemplateCache::new(2 * w);
        insert_template(&mut c, key, Arc::clone(&tpl));
        assert_eq!(c.stats().weight, w);
        assert!(Arc::ptr_eq(c.get(&key).unwrap(), &tpl), "a hit is a pointer clone");

        // One unit short of the entry's weight: not cached.
        let mut tiny = TemplateCache::new(w - 1);
        insert_template(&mut tiny, key, tpl);
        assert_eq!(tiny.stats().len, 0);
    }

    #[test]
    fn distinct_key_components_do_not_collide() {
        let (a, b) = (template(), template());
        let mut c = TemplateCache::new(1 << 20);
        insert_template(&mut c, TemplateKey { structural: 1, compiler: 1 }, Arc::clone(&a));
        insert_template(&mut c, TemplateKey { structural: 1, compiler: 2 }, Arc::clone(&b));
        insert_template(&mut c, TemplateKey { structural: 2, compiler: 1 }, Arc::clone(&b));
        assert!(Arc::ptr_eq(c.get(&TemplateKey { structural: 1, compiler: 1 }).unwrap(), &a));
        assert!(Arc::ptr_eq(c.get(&TemplateKey { structural: 1, compiler: 2 }).unwrap(), &b));
        assert!(Arc::ptr_eq(c.get(&TemplateKey { structural: 2, compiler: 1 }).unwrap(), &b));
        assert_eq!(c.stats().len, 3);
    }
}
