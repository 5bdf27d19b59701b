//! Property-based tests over the core invariants of the suite, driven by
//! proptest-generated random circuits and layouts.

use parallax_baselines::{compile_eldi, EldiConfig};
use parallax_circuit::{optimize, Circuit, DependencyDag};
use parallax_circuit::{zyz_decompose, Mat2};
use parallax_core::{CompilerConfig, ParallaxCompiler};
use parallax_graphine::{connecting_radius, is_geometrically_connected, GraphineLayout};
use parallax_hardware::MachineSpec;
use parallax_sim::{baseline_routed_fidelity, parallax_schedule_fidelity, simulate};
use parallax_testkit::arb_circuit;
use proptest::prelude::*;
use std::f64::consts::PI;

/// Strategy: a random circuit on `n` qubits with up to `len` gates (the
/// workspace-shared generator from `parallax-testkit`).
fn random_circuit(n: usize, len: usize) -> impl Strategy<Value = Circuit> {
    arb_circuit(n, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The optimizer never changes circuit semantics.
    #[test]
    fn optimizer_preserves_unitary(circuit in random_circuit(4, 24)) {
        let optimized = optimize(&circuit);
        let a = simulate(&circuit);
        let b = simulate(&optimized);
        prop_assert!((a.fidelity(&b) - 1.0).abs() < 1e-6,
            "fidelity {} after optimizing {} -> {} gates",
            a.fidelity(&b), circuit.len(), optimized.len());
        // And it never grows the circuit.
        prop_assert!(optimized.len() <= circuit.len());
    }

    /// ZYZ extraction reproduces any product of two random U3 matrices.
    #[test]
    fn zyz_roundtrip_products(
        t1 in 0.0f64..PI, p1 in -PI..PI, l1 in -PI..PI,
        t2 in 0.0f64..PI, p2 in -PI..PI, l2 in -PI..PI,
    ) {
        let m = Mat2::u3(t2, p2, l2).mul(&Mat2::u3(t1, p1, l1));
        let (t, p, l) = zyz_decompose(&m);
        prop_assert!(Mat2::u3(t, p, l).phase_distance(&m) < 1e-7);
    }

    /// Parallax schedules are dependency-correct permutations with exact
    /// semantics, regardless of circuit shape or seed.
    #[test]
    fn parallax_schedule_invariants(circuit in random_circuit(5, 20), seed in 0u64..32) {
        let circuit = optimize(&circuit);
        if circuit.is_empty() {
            return Ok(());
        }
        let r = ParallaxCompiler::new(
            MachineSpec::quera_aquila_256(),
            CompilerConfig::quick(seed),
        ).compile(&circuit);
        // Permutation of the input gate indices.
        let order = r.schedule.gate_order();
        prop_assert_eq!(order.len(), circuit.len());
        // Dependency-respecting.
        prop_assert!(DependencyDag::build(&circuit).respects_order(&order));
        // Zero SWAPs: CZ count preserved exactly.
        prop_assert_eq!(r.cz_count(), circuit.cz_count());
        // Exact unitary.
        let f = parallax_schedule_fidelity(&circuit, &r, seed ^ 0xabc);
        prop_assert!((f - 1.0).abs() < 1e-7, "fidelity {}", f);
    }

    /// SWAP routing preserves semantics up to its reported permutation and
    /// adds exactly three CZ per SWAP.
    #[test]
    fn eldi_routing_invariants(circuit in random_circuit(5, 16)) {
        let circuit = optimize(&circuit);
        if circuit.is_empty() {
            return Ok(());
        }
        let r = compile_eldi(&circuit, &MachineSpec::quera_aquila_256(), &EldiConfig::default());
        prop_assert_eq!(r.cz_count(), circuit.cz_count() + 3 * r.swap_count);
        let f = baseline_routed_fidelity(&circuit, &r, 99);
        prop_assert!((f - 1.0).abs() < 1e-7, "fidelity {}", f);
        // final_mapping is a permutation.
        let mut seen = vec![false; circuit.num_qubits()];
        for &p in &r.final_mapping {
            prop_assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
    }

    /// The connecting radius really is minimal for connectivity.
    #[test]
    fn connecting_radius_is_tight(
        points in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..12)
    ) {
        let r = connecting_radius(&points);
        prop_assert!(is_geometrically_connected(&points, r));
        if r > 1e-9 {
            prop_assert!(!is_geometrically_connected(&points, r * 0.999));
        }
    }

    /// Statevector simulation is norm-preserving for arbitrary circuits.
    #[test]
    fn simulation_preserves_norm(circuit in random_circuit(4, 30)) {
        let sv = simulate(&circuit);
        prop_assert!((sv.norm() - 1.0).abs() < 1e-9);
    }

    /// Compiling through the process-wide layout cache (cold miss or warm
    /// hit) is bit-identical to compiling with a freshly annealed layout.
    #[test]
    fn layout_cache_path_is_bit_identical_to_direct_anneal(
        circuit in random_circuit(4, 12), seed in 0u64..64
    ) {
        let circuit = optimize(&circuit);
        if circuit.is_empty() {
            return Ok(());
        }
        let cfg = CompilerConfig::quick(seed);
        let compiler = ParallaxCompiler::new(MachineSpec::quera_aquila_256(), cfg.clone());
        let cold = compiler.compile(&circuit); // miss (or hit from an equal case)
        let warm = compiler.compile(&circuit); // guaranteed hit
        let layout = GraphineLayout::generate(&circuit, &cfg.placement); // cache bypassed
        let direct = compiler.compile_with_layout(&circuit, &layout);
        prop_assert_eq!(&cold.home_positions, &direct.home_positions);
        prop_assert_eq!(&warm.home_positions, &direct.home_positions);
        prop_assert_eq!(warm.schedule.gate_order(), direct.schedule.gate_order());
        prop_assert_eq!(warm.schedule.stats.trap_changes, direct.schedule.stats.trap_changes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whole-pipeline compiles on large sparse machines — synthetic grids
    /// up to 4096 sites at a few percent occupancy — stay dependency
    /// correct and SWAP-free. Few cases, because each one anneals; the
    /// point is that every site-indexed lane in the packed `AtomArray`
    /// (and every CSR walk over it) is exercised at 46x46 and 64x64
    /// extents, not just the paper machines' 16x16 and 35x35.
    #[test]
    fn large_machine_compiles_are_dependency_correct(
        (machine, qubits) in parallax_testkit::large_machine(),
        seed in 0u64..16,
    ) {
        let circuit = parallax_testkit::lcg_circuit(qubits as u32, 3 * qubits, seed);
        let r = ParallaxCompiler::new(machine, CompilerConfig::quick(seed)).compile(&circuit);
        prop_assert!(DependencyDag::build(&circuit).respects_order(&r.schedule.gate_order()));
        prop_assert_eq!(r.schedule.stats.cz_count, circuit.cz_count());
        prop_assert_eq!(r.schedule.stats.swap_count, 0);
        prop_assert_eq!(r.num_qubits, circuit.num_qubits());
    }
}
