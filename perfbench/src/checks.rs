//! Output checks, run outside every timed region. A failed check is
//! counted, never fatal: the run goes on and reports `correct: false`.

use crate::stats::Rng;
use parallax_circuit::{Circuit, DependencyDag, Gate};
use parallax_core::CompilationResult;
use parallax_sim::{simulate, StateVector, MAX_SIM_QUBITS};

/// Fidelity below which two states count as different.
const EQUIV_TOL: f64 = 1e-9;

/// The structural checks every compiled schedule must pass: zero SWAPs,
/// the input's CZ and U3 counts, and a gate order that is a permutation
/// respecting every dependency of the input.
pub fn check_schedule(circuit: &Circuit, result: &CompilationResult) -> Result<(), String> {
    let stats = &result.schedule.stats;
    if stats.swap_count != 0 {
        return Err(format!("{} SWAPs inserted", stats.swap_count));
    }
    if stats.cz_count != circuit.cz_count() || stats.u3_count != circuit.u3_count() {
        return Err(format!(
            "gate counts changed: CZ {} -> {}, U3 {} -> {}",
            circuit.cz_count(),
            stats.cz_count,
            circuit.u3_count(),
            stats.u3_count
        ));
    }
    if !DependencyDag::build(circuit).respects_order(&result.schedule.gate_order()) {
        return Err("gate order breaks a dependency of the input".into());
    }
    Ok(())
}

/// Whether the statevector check applies to `circuit`.
pub fn simulable(circuit: &Circuit) -> bool {
    circuit.num_qubits() <= MAX_SIM_QUBITS
}

/// The reference state: a seeded product-state preparation followed by
/// the input circuit, simulated gate by gate. It depends on the input
/// alone, never on the compiler.
pub fn reference_state(circuit: &Circuit, seed: u64) -> StateVector {
    let mut prepared = prefix(circuit.num_qubits(), seed);
    prepared.extend_from(circuit);
    simulate(&prepared)
}

/// Replay the schedule's gate order after the same preparation and
/// compare it with the reference state.
pub fn check_equivalent(
    circuit: &Circuit,
    reference: &StateVector,
    result: &CompilationResult,
    seed: u64,
) -> Result<(), String> {
    let mut replay = prefix(circuit.num_qubits(), seed);
    for idx in result.schedule.gate_order() {
        replay.push(circuit.gates()[idx]);
    }
    let fidelity = reference.fidelity(&simulate(&replay));
    if (1.0 - fidelity).abs() > EQUIV_TOL {
        return Err(format!("schedule is not equivalent to its input (fidelity {fidelity})"));
    }
    Ok(())
}

fn prefix(n: usize, seed: u64) -> Circuit {
    let mut rng = Rng::new(seed, 0x5eed);
    let mut c = Circuit::new(n);
    for q in 0..n as u32 {
        let pi = std::f64::consts::PI;
        c.push(Gate::u3(q, rng.unit() * pi, rng.unit() * 2.0 * pi, rng.unit() * 2.0 * pi));
    }
    c
}

/// Run `check` over `items` on two threads (the checks are independent
/// and outside any timed region), collecting every error.
pub fn par_check<T: Sync>(
    items: &[T],
    check: impl Fn(&T) -> Result<(), String> + Sync,
) -> Vec<String> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let errors = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(item) = items.get(i) else { return };
                if let Err(e) = check(item) {
                    errors.lock().expect("error list lock").push(e);
                }
            });
        }
    });
    errors.into_inner().expect("error list lock")
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_circuit::CircuitBuilder;
    use parallax_core::{CompilerConfig, ParallaxCompiler};
    use parallax_hardware::MachineSpec;

    #[test]
    fn checks_accept_a_compile_and_reject_a_reordering() {
        let mut b = CircuitBuilder::new(4);
        b.h(0).cx(0, 1).cx(1, 2).cx(2, 3).h(3);
        let c = b.build();
        let compiler =
            ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(1));
        let mut r = compiler.compile(&c);
        check_schedule(&c, &r).unwrap();
        let reference = reference_state(&c, 3);
        check_equivalent(&c, &reference, &r, 3).unwrap();
        // Reverse the layers: counts still match, the order does not.
        r.schedule.layers.reverse();
        assert!(check_schedule(&c, &r).is_err());
        assert!(check_equivalent(&c, &reference, &r, 3).is_err());
    }
}
