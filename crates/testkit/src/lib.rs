//! # `parallax-testkit`: shared test generators for the workspace
//!
//! Every crate's tests used to carry its own ad-hoc random-circuit
//! generator (an LCG here, a proptest strategy there), each with slightly
//! different gate mixes and no shared shrink/replay story. This dev-only
//! crate centralizes them: seeded [`proptest`](mod@proptest) strategies over {U3, CZ}
//! circuits, OpenQASM sources, machine specs, and sweep families, plus
//! the deterministic LCG generator for tests that want plain loops instead
//! of a proptest harness.
//!
//! The crate depends only on leaf crates (`parallax-circuit`,
//! `parallax-hardware`), so every other crate — including ones those
//! leaves dev-depend on transitively — can pull it in as a dev-dependency
//! without creating a build cycle.
//!
//! ```
//! use parallax_testkit::lcg_circuit;
//! let c = lcg_circuit(5, 40, 7);
//! assert_eq!(c.num_qubits(), 5);
//! assert_eq!(c.len(), 40);
//! ```

use parallax_circuit::{Circuit, CircuitBuilder, CircuitTemplate, Gate};
use parallax_hardware::MachineSpec;
use proptest::prelude::*;
use proptest::strategy::Union;
use proptest::TestRng;

/// Strategy: a random {U3, CZ} circuit on `n` qubits with `1..=max_len`
/// gates — U3s with bounded angles, CZs on distinct qubits. The historical
/// umbrella-test gate mix, now shared by every crate.
pub fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    let gate = arb_gate(n);
    proptest::collection::vec(gate, 1..=max_len).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(g);
        }
        c
    })
}

/// Strategy: one random gate on `n` qubits (U3 with angles in ±3.2, or a
/// CZ between distinct qubits).
pub fn arb_gate(n: usize) -> Union<Gate> {
    assert!(n >= 2, "need at least two qubits for CZ gates");
    prop_oneof![
        (0..n as u32, -3.2f64..3.2, -3.2f64..3.2, -3.2f64..3.2)
            .prop_map(|(q, t, p, l)| Gate::u3(q, t, p, l)),
        (0..n as u32, 1..n as u32).prop_map(move |(a, d)| {
            let b = (a + d) % n as u32;
            if a == b {
                Gate::cz(a, (a + 1) % n as u32)
            } else {
                Gate::cz(a, b)
            }
        }),
    ]
}

/// Strategy: a random H/CZ circuit on `n` qubits with `min_len..max_len`
/// gates — the scheduler-shaped mix (no parametrized rotations), useful
/// when the test wants many structurally distinct dependency graphs
/// rather than angle coverage.
pub fn arb_hcz_circuit(n: u32, min_len: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    assert!(n >= 2, "need at least two qubits for CZ gates");
    let gate = prop_oneof![
        (0..n).prop_map(|q| (q, None)),
        (0..n, 1..n).prop_map(move |(a, d)| (a, Some((a + d) % n))),
    ];
    proptest::collection::vec(gate, min_len..max_len).prop_map(move |gates| {
        let mut b = CircuitBuilder::new(n as usize);
        for (q, partner) in gates {
            match partner {
                Some(p) if p != q => {
                    b.cz(q, p);
                }
                _ => {
                    b.h(q);
                }
            }
        }
        b.build()
    })
}

/// Strategy: an OpenQASM 2.0 source for a random circuit — the canonical
/// rendering of [`arb_circuit`], for tests that exercise the text
/// front end (parsers, the service protocol) rather than the IR.
pub fn arb_qasm(n: usize, max_len: usize) -> impl Strategy<Value = String> {
    arb_circuit(n, max_len).prop_map(|c| c.to_qasm())
}

/// Strategy: one of the paper's machines, sometimes with a non-default
/// AOD dimension (the Fig. 13 knob).
pub fn arb_machine() -> impl Strategy<Value = MachineSpec> {
    prop_oneof![
        Just(MachineSpec::quera_aquila_256()),
        Just(MachineSpec::atom_1225()),
        (3usize..12).prop_map(|dim| MachineSpec::quera_aquila_256().with_aod_dim(dim)),
    ]
}

/// Strategy: a large machine plus a sparse qubit count — synthetic square
/// grids from 256 up to 4096 sites ([`MachineSpec::synthetic_grid`]) and
/// the paper's Atom-1225, occupied at no more than ~6% of the sites
/// (capped at 64 qubits so annealed placement stays test-fast). This is
/// the regime the flat SoA/CSR data layouts target: site-indexed lanes
/// far larger than the occupied set, where per-entity allocations and
/// pointer-chasing used to dominate.
pub fn large_machine() -> impl Strategy<Value = (MachineSpec, usize)> {
    let spec = prop_oneof![
        (16usize..=64).prop_map(MachineSpec::synthetic_grid),
        Just(MachineSpec::atom_1225()),
    ];
    (spec, 0usize..1 << 16).prop_map(|(m, roll)| {
        let max_qubits = (m.num_sites() / 16).min(64);
        (m, 8 + roll % (max_qubits - 7))
    })
}

/// Strategy: a variational sweep family — one seeded {U3, CZ} structure
/// plus `1..=max_sets` angle vectors sized to the structure's parameter
/// slot count (3 per U3). Angle values mix uniform draws in ±3.2 with the
/// rebind edge cases `{0, π, -π, 2π}`, so template differential tests see
/// both generic and boundary bindings. Shrinking drops angle vectors
/// (keeping at least one) and zeroes them one at a time; the structure
/// itself does not shrink.
pub fn parameterized_circuit_family(
    n: usize,
    max_len: usize,
    max_sets: usize,
) -> CircuitFamilyStrategy {
    assert!(max_sets >= 1, "a sweep family needs at least one angle vector");
    CircuitFamilyStrategy { circuit: arb_circuit(n, max_len).boxed(), max_sets }
}

/// The [`parameterized_circuit_family`] strategy. A custom [`Strategy`]
/// impl because the angle-vector length depends on the generated
/// structure's slot count — a dependency `prop_map` cannot express.
pub struct CircuitFamilyStrategy {
    circuit: BoxedStrategy<Circuit>,
    max_sets: usize,
}

impl Strategy for CircuitFamilyStrategy {
    type Value = (Circuit, Vec<Vec<f64>>);

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        use std::f64::consts::PI;
        let circuit = self.circuit.new_value(rng);
        let slots = CircuitTemplate::from_circuit(&circuit).num_params();
        let k = (1..=self.max_sets).new_value(rng);
        let kind = 0usize..8;
        let uniform = -3.2f64..3.2;
        let sets = (0..k)
            .map(|_| {
                (0..slots)
                    .map(|_| match kind.new_value(rng) {
                        0 => 0.0,
                        1 => PI,
                        2 => -PI,
                        3 => 2.0 * PI,
                        _ => uniform.new_value(rng),
                    })
                    .collect()
            })
            .collect();
        (circuit, sets)
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let (circuit, sets) = value;
        let mut out = Vec::new();
        if sets.len() > 1 {
            out.push((circuit.clone(), sets[..1].to_vec()));
            for i in 0..sets.len() {
                let mut next = sets.clone();
                next.remove(i);
                out.push((circuit.clone(), next));
            }
        }
        for (i, set) in sets.iter().enumerate() {
            if set.iter().any(|&a| a != 0.0) {
                let mut next = sets.clone();
                next[i] = vec![0.0; set.len()];
                out.push((circuit.clone(), next));
            }
        }
        out
    }
}

/// A deterministic pseudo-random circuit without any RNG dependency (LCG
/// over the gate choice), exercising U3/H/CZ interleavings — for plain
/// `for seed in 0..k` test loops. Exactly `len` gates on `n` qubits.
pub fn lcg_circuit(n: u32, len: usize, seed: u64) -> Circuit {
    assert!(n >= 2, "need at least two qubits for CZ gates");
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut c = Circuit::new(n as usize);
    for _ in 0..len {
        let a = next() % n;
        match next() % 3 {
            0 => {
                let t = (next() % 628) as f64 / 100.0;
                c.push(Gate::u3(a, t, t / 2.0, -t / 3.0));
            }
            1 => c.push(Gate::h(a)),
            _ => {
                let b = (a + 1 + next() % (n - 1)) % n;
                c.push(Gate::cz(a.min(b), a.max(b)));
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic_and_sized() {
        let a = lcg_circuit(6, 48, 3);
        let b = lcg_circuit(6, 48, 3);
        assert_eq!(a.len(), 48);
        assert_eq!(a.to_qasm(), b.to_qasm(), "same seed, same circuit");
        let c = lcg_circuit(6, 48, 4);
        assert_ne!(a.to_qasm(), c.to_qasm(), "different seed, different circuit");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn circuits_stay_in_bounds(c in arb_circuit(5, 30)) {
            prop_assert_eq!(c.num_qubits(), 5);
            prop_assert!(!c.is_empty() && c.len() <= 30);
            for g in c.gates() {
                for &q in g.qubits().as_slice() {
                    prop_assert!(q < 5);
                }
            }
        }

        #[test]
        fn hcz_circuits_have_no_rotations(c in arb_hcz_circuit(4, 2, 20)) {
            prop_assert!(c.len() >= 2 && c.len() < 20);
            // CZ operands are always distinct.
            for g in c.gates() {
                if let parallax_circuit::Gate::Cz { a, b } = g {
                    prop_assert!(a != b);
                }
            }
        }

        #[test]
        fn qasm_sources_parse_back(src in arb_qasm(4, 12)) {
            let back = parallax_circuit::circuit_from_qasm_str(&src).map_err(|e| {
                TestCaseError::fail(format!("generated QASM must parse: {e}"))
            })?;
            prop_assert_eq!(back.num_qubits(), 4);
        }

        #[test]
        fn machines_are_valid(m in arb_machine()) {
            prop_assert!(m.aod_dim >= 3);
            prop_assert!(m.num_sites() >= 256);
        }

        #[test]
        fn large_machines_are_large_and_sparse((m, q) in large_machine()) {
            prop_assert!(m.num_sites() >= 256 && m.num_sites() <= 4096);
            prop_assert!(q >= 8 && q <= (m.num_sites() / 16).min(64),
                "{q} of {}", m.num_sites());
            prop_assert!(m.aod_dim >= 3);
        }

        #[test]
        fn families_bind_cleanly(family in parameterized_circuit_family(4, 16, 5)) {
            let (circuit, sets) = family;
            let template = CircuitTemplate::from_circuit(&circuit);
            prop_assert!(!sets.is_empty() && sets.len() <= 5);
            for set in &sets {
                prop_assert_eq!(set.len(), template.num_params());
                let bound = template.bind(set).map_err(|e| {
                    TestCaseError::fail(format!("family set must bind: {e}"))
                })?;
                // Binding preserves the structure, by construction.
                prop_assert_eq!(
                    parallax_circuit::structural_hash(&bound),
                    template.structural_hash()
                );
            }
        }
    }
}
