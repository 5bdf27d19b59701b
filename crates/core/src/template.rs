//! Compiled parameterized templates: the variational-sweep fast path.
//!
//! Placement and movement scheduling read a circuit's *structure* only —
//! CZ topology, gate kinds, operand order — never its U3 rotation angles
//! (the angles flow through to execution, not to the planner). A
//! [`CompiledTemplate`] exploits that: it pairs the structural
//! [`CircuitTemplate`] of a circuit with its full [`CompilationResult`],
//! so every other member of a parameter sweep is served by
//! [`CompiledTemplate::rebind`] — parameter validation plus a circuit
//! materialization, microseconds instead of a placement + scheduling run.
//!
//! This is a *fast path that intentionally skips the compiler*, so its
//! guarantee is carried by the workspace differential layer rather than by
//! construction: the umbrella `tests/differential.rs` proves, per sweep
//! member, that the template's payload is byte-identical to an independent
//! cold compile of the bound circuit and statevector-equivalent via
//! `parallax-sim`.
//!
//! Templates are shared process-wide through the
//! [`crate::layout_cache`] layer ([`compiled_template`]),
//! keyed by (structural hash, machine+config fingerprint) and budgeted by
//! the same `PARALLAX_LAYOUT_CACHE` knob as the layout cache.

use crate::layout_cache::{self, TemplateKey};
use crate::{CompilationResult, ParallaxCompiler};
use parallax_circuit::{structural_hash, BindError, Circuit, CircuitTemplate};
use std::sync::Arc;

/// A fully compiled artifact for one circuit *structure*: the angle-slot
/// template plus the schedule every angle assignment shares.
#[derive(Debug, Clone)]
pub struct CompiledTemplate {
    template: CircuitTemplate,
    result: CompilationResult,
}

impl CompiledTemplate {
    /// Compile `circuit` (through the regular pipeline, layout cache
    /// included) and abstract its angles into a template.
    pub fn compile(compiler: &ParallaxCompiler, circuit: &Circuit) -> Self {
        Self { template: CircuitTemplate::from_circuit(circuit), result: compiler.compile(circuit) }
    }

    /// The angle-slot template (slot count, structural hash, gate list).
    pub fn template(&self) -> &CircuitTemplate {
        &self.template
    }

    /// The compiled artifact shared by every parameter assignment.
    pub fn result(&self) -> &CompilationResult {
        &self.result
    }

    /// Number of parameter slots a [`rebind`](Self::rebind) must fill.
    pub fn num_params(&self) -> usize {
        self.template.num_params()
    }

    /// Structural fingerprint of the compiled structure.
    pub fn structural_hash(&self) -> u64 {
        self.template.structural_hash()
    }

    /// Bind `params` into the template, returning the concrete circuit
    /// this artifact executes for them. Fails (never panics) on arity
    /// mismatch or non-finite parameters; on success the caller pairs the
    /// returned circuit with [`result`](Self::result) — the schedule and
    /// payload are identical for every binding, which the differential
    /// suite proves against independent cold compiles.
    pub fn rebind(&self, params: &[f64]) -> Result<Circuit, BindError> {
        self.template.bind(params)
    }
}

/// The template cache key for compiling `circuit` under `compiler`.
///
/// Computing the structural hash renders the slot-canonical QASM text, so
/// sweep loops should build the key **once** and probe with
/// [`compiled_template_keyed`] per point — re-keying every point would
/// put a text rendering inside the microsecond rebind budget.
pub fn template_key(compiler: &ParallaxCompiler, circuit: &Circuit) -> TemplateKey {
    TemplateKey { structural: structural_hash(circuit), compiler: compiler.fingerprint() }
}

/// Fetch or compile the process-wide template for `circuit` under
/// `compiler`; the boolean reports whether the template cache answered.
///
/// Misses compile **outside** the cache lock and publish afterwards; if
/// two threads race the same structure both compile the identical
/// (deterministic) artifact, so last-write-wins is harmless.
pub fn compiled_template(
    compiler: &ParallaxCompiler,
    circuit: &Circuit,
) -> (Arc<CompiledTemplate>, bool) {
    compiled_template_keyed(template_key(compiler, circuit), compiler, circuit)
}

/// [`compiled_template`] with a precomputed [`template_key`]: a hit is a
/// lock + map probe + pointer clone, nothing else.
pub fn compiled_template_keyed(
    key: TemplateKey,
    compiler: &ParallaxCompiler,
    circuit: &Circuit,
) -> (Arc<CompiledTemplate>, bool) {
    let probe = {
        let _s = parallax_trace::span!("cache.template.probe");
        layout_cache::lookup_template(&key)
    };
    if let Some(template) = probe {
        return (template, true);
    }
    let template = Arc::new(CompiledTemplate::compile(compiler, circuit));
    layout_cache::record_template(key, Arc::clone(&template));
    (template, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompilerConfig;
    use parallax_hardware::MachineSpec;

    fn ansatz(theta: f64) -> Circuit {
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.push(parallax_circuit::Gate::u3(q, theta, theta / 2.0, -theta));
        }
        for q in 0..3 {
            c.push(parallax_circuit::Gate::cz(q, q + 1));
        }
        c
    }

    #[test]
    fn rebind_validates_and_materializes() {
        let compiler =
            ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(11));
        let t = CompiledTemplate::compile(&compiler, &ansatz(0.3));
        assert_eq!(t.num_params(), 12);
        let params: Vec<f64> = (0..12).map(|i| i as f64 / 7.0).collect();
        let bound = t.rebind(&params).unwrap();
        assert_eq!(parallax_circuit::structural_hash(&bound), t.structural_hash());
        assert!(t.rebind(&params[..5]).is_err());
        assert_eq!(t.result().num_qubits, 4);
    }

    #[test]
    fn global_template_cache_answers_angle_variants() {
        // Unique seed so this test's keys cannot collide with other tests
        // hitting the shared global cache; assertions are delta-based.
        let compiler =
            ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(0xBEEF01));
        let before = layout_cache::template_cache_stats();
        let (cold, cold_hit) = compiled_template(&compiler, &ansatz(0.25));
        let (warm, warm_hit) = compiled_template(&compiler, &ansatz(1.75));
        let after = layout_cache::template_cache_stats();
        assert!(!cold_hit && warm_hit, "angle variant must be a structural hit");
        assert!(Arc::ptr_eq(&cold, &warm), "hit returns the shared artifact");
        assert!(after.hits > before.hits && after.misses > before.misses);

        // A different config fingerprint is a different key.
        let other =
            ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(0xBEEF02));
        let (_, hit) = compiled_template(&other, &ansatz(0.25));
        assert!(!hit, "different compiler fingerprint must miss");
    }
}
