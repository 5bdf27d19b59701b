//! Execution simulator and metric models for the Parallax evaluation.
//!
//! Implements the paper's Section III simulator functions:
//!
//! * [`runtime`] — circuit runtime (Table IV) and total execution time for
//!   parallelized shots (Fig. 11) from layer structure, movement distances,
//!   and trap changes;
//! * [`fidelity`] — analytic probability of success (Fig. 10): gate-error
//!   product times T1/T2 decoherence decay;
//! * [`statevector`] / [`equivalence`] — a dense simulator used to verify
//!   that every compiler's output implements the input circuit's unitary
//!   (up to the SWAP-routing permutation for baselines).

pub mod equivalence;
pub mod fidelity;
pub mod runtime;
pub mod statevector;

pub use equivalence::{
    assert_equivalent, baseline_routed_fidelity, parallax_schedule_fidelity, EQUIV_TOL,
};
pub use fidelity::{
    decoherence_factor, gate_success, success_probability, success_probability_with_readout,
    FidelityInputs,
};
pub use runtime::{baseline_runtime_us, parallax_runtime_us, ShotModel};
pub use statevector::{simulate, StateVector, MAX_SIM_QUBITS};

use parallax_baselines::BaselineResult;
use parallax_core::CompilationResult;

/// Build [`FidelityInputs`] for a Parallax compilation.
pub fn parallax_fidelity_inputs(result: &CompilationResult) -> FidelityInputs {
    FidelityInputs {
        cz_count: result.cz_count(),
        u3_count: result.u3_count(),
        num_qubits: result.num_qubits,
        runtime_us: parallax_runtime_us(result),
    }
}

/// Build [`FidelityInputs`] for a baseline compilation.
pub fn baseline_fidelity_inputs(
    result: &BaselineResult,
    params: &parallax_hardware::HardwareParams,
) -> FidelityInputs {
    FidelityInputs {
        cz_count: result.cz_count(),
        u3_count: result.u3_count(),
        num_qubits: result.routed.num_qubits(),
        runtime_us: baseline_runtime_us(result, params),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_baselines::{compile_eldi, EldiConfig};
    use parallax_circuit::CircuitBuilder;
    use parallax_core::{CompilerConfig, ParallaxCompiler};
    use parallax_hardware::{HardwareParams, MachineSpec};

    #[test]
    fn end_to_end_metrics_pipeline() {
        let mut b = CircuitBuilder::new(5);
        b.h(0);
        for i in 0..4u32 {
            b.cx(i, i + 1);
        }
        let c = b.build();
        let machine = MachineSpec::quera_aquila_256();

        let px = ParallaxCompiler::new(machine, CompilerConfig::quick(1)).compile(&c);
        let el = compile_eldi(&c, &machine, &EldiConfig::default());

        let pi = parallax_fidelity_inputs(&px);
        let ei = baseline_fidelity_inputs(&el, &HardwareParams::table2());

        // Parallax never has more CZs than a SWAP-routing baseline, so its
        // gate-error product is never worse.
        assert!(pi.cz_count <= ei.cz_count);
        assert!(gate_success(&pi, &machine.params) >= gate_success(&ei, &machine.params) - 1e-12);
        // Decoherence can differ slightly (trap changes cost runtime — the
        // paper sees the same on TFIM), but not by much at µs scales.
        let ps = success_probability(&pi, &machine.params);
        let es = success_probability(&ei, &machine.params);
        assert!(ps >= es * 0.99, "ps {ps} vs es {es}");
        assert!(ps > 0.0 && ps <= 1.0);
    }
}
