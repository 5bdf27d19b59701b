//! Cache-invalidation edges of the process-wide compiled-template cache
//! (the variational-sweep layer). This suite lives in its own
//! integration-test binary (its own process) because it resizes and
//! disables the process-global caches via
//! [`parallax_core::layout_cache::resize`] — inside the shared lib-test
//! process that would race sibling tests asserting hit/miss deltas. The
//! whole sequence runs as ONE test function for the same reason: the test
//! harness runs sibling `#[test]`s of a binary concurrently.

use parallax_circuit::CircuitTemplate;
use parallax_core::{compiled_template, layout_cache, CompilerConfig, ParallaxCompiler};
use parallax_hardware::MachineSpec;
use parallax_testkit::parameterized_circuit_family;
use proptest::strategy::Strategy;
use std::sync::Arc;

#[test]
fn template_cache_lifecycle_across_resize_and_disable() {
    // One deterministic draw from the shared sweep-family strategy: a
    // seeded {U3, CZ} structure plus angle vectors sized to its slots.
    let mut rng = proptest::seeded_rng(proptest::stream_seed("template_cache_lifecycle"));
    let (structure, sets) = parameterized_circuit_family(6, 24, 3).new_value(&mut rng);
    let circuit_template = CircuitTemplate::from_circuit(&structure);
    assert!(circuit_template.num_params() > 0, "family structures carry U3 slots");
    let variant = |scale: f64| {
        let params: Vec<f64> =
            (0..circuit_template.num_params()).map(|i| scale * (i as f64) / 10.0).collect();
        circuit_template.bind(&params).expect("finite params bind")
    };

    let compiler =
        ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(0xFEED43));

    // Cold, then exact structural reuse: every angle variant of the same
    // structure answers from the one compiled artifact (a pointer clone),
    // with the bit-identical schedule and home positions.
    let (cold, cold_hit) = compiled_template(&compiler, &structure);
    assert!(!cold_hit, "first compile of the structure must miss");
    let shared = (cold.result().schedule.layers.clone(), cold.result().home_positions.clone());
    let same_artifact = |r: &parallax_core::CompilationResult| {
        (&r.schedule.layers, &r.home_positions) == (&shared.0, &shared.1)
    };
    for (i, set) in sets.iter().enumerate() {
        let bound = cold.rebind(set).expect("family sets bind");
        let (warm, hit) = compiled_template(&compiler, &bound);
        assert!(hit, "angle variant {i} must be a structural hit");
        assert!(Arc::ptr_eq(&cold, &warm), "hits share the artifact");
        assert!(same_artifact(warm.result()));
    }
    let stats = parallax_core::template_cache_stats();
    assert!(stats.len >= 1 && stats.hits >= sets.len() as u64, "{stats:?}");

    // A different machine and a different config are different keys: both
    // miss, and the entries coexist with the original (capacity allowing).
    let other_machine = ParallaxCompiler::new(MachineSpec::atom_1225(), compiler.config().clone());
    let (_, hit) = compiled_template(&other_machine, &structure);
    assert!(!hit, "machine change must miss");
    let other_config = ParallaxCompiler::new(*compiler.machine(), CompilerConfig::quick(0xFEED44));
    let (_, hit) = compiled_template(&other_config, &structure);
    assert!(!hit, "config change must miss");
    let (_, hit) = compiled_template(&compiler, &variant(1.0));
    assert!(hit, "original key must survive sibling insertions");

    // Resize to a budget too small for any entry: stored templates are
    // evicted, new ones warn-once and are not stored — every probe
    // recompiles, results stay byte-identical.
    layout_cache::resize(1);
    let stats = parallax_core::template_cache_stats();
    assert_eq!((stats.len, stats.weight, stats.capacity), (0, 0, 1), "{stats:?}");
    let (resized, hit) = compiled_template(&compiler, &structure);
    assert!(!hit, "evicted templates must miss");
    assert!(same_artifact(resized.result()), "re-plans stay bit-identical");
    let (again, hit) = compiled_template(&compiler, &variant(2.0));
    assert!(!hit, "oversized entries are not stored, so the re-probe misses too");
    assert!(same_artifact(again.result()));
    assert_eq!(parallax_core::template_cache_stats().len, 0);

    // Disable outright: nothing is stored or served.
    layout_cache::resize(0);
    let (disabled, hit) = compiled_template(&compiler, &structure);
    assert!(!hit);
    assert!(same_artifact(disabled.result()));
    let stats = parallax_core::template_cache_stats();
    assert_eq!((stats.len, stats.weight, stats.capacity), (0, 0, 0), "{stats:?}");

    // Re-enable: the first probe repopulates, the second reuses again.
    layout_cache::resize(1 << 20);
    let (repopulated, hit) = compiled_template(&compiler, &structure);
    assert!(!hit, "cache was empty");
    let (reused, hit) = compiled_template(&compiler, &variant(3.0));
    assert!(hit, "repopulated entry must serve variants again");
    assert!(Arc::ptr_eq(&repopulated, &reused));
    assert!(same_artifact(reused.result()));
}
