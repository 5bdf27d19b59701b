//! Workspace-wide differential test layer: every fast path the compiler
//! grew (pruned endpoint cascades, move memos, parallel placement) is
//! diffed against its reference implementation on random inputs from
//! `parallax-testkit`, and schedules are cross-checked against the
//! statevector simulator — the oracle style every future optimization PR
//! inherits for free.
//!
//! The naive-oracle comparisons live in a `#[cfg(debug_assertions)]`
//! module because the oracles themselves are only compiled into debug
//! builds of `parallax-core`; the cache-path and simulator equivalences
//! run in every profile.

use parallax_core::{CompiledTemplate, CompilerConfig, ParallaxCompiler};
use parallax_graphine::GraphineLayout;
use parallax_hardware::MachineSpec;
use parallax_service::compile_payload;
use parallax_sim::parallax_schedule_fidelity;
use parallax_testkit::{
    arb_circuit, arb_hcz_circuit, arb_machine, arb_quick_placement, parameterized_circuit_family,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Repeat compiles of the same (circuit, config) are byte-identical —
    /// the second run answers from the layout cache, and the canonical
    /// payload (which digests the full schedule, every move included)
    /// must not budge. Statevector equivalence closes the loop: the
    /// cached-path schedule still implements the circuit exactly.
    #[test]
    fn cached_recompiles_are_byte_identical_and_exact(
        circuit in arb_circuit(5, 24),
        seed in 0u64..64,
    ) {
        let circuit = parallax_circuit::optimize(&circuit);
        if circuit.is_empty() {
            return Ok(());
        }
        let compiler = ParallaxCompiler::new(
            MachineSpec::quera_aquila_256(),
            CompilerConfig::quick(seed),
        );
        let cold = compiler.compile(&circuit);
        let warm = compiler.compile(&circuit);
        prop_assert_eq!(
            compile_payload(&cold).encode(),
            compile_payload(&warm).encode(),
            "cache-assisted recompile must be byte-identical"
        );
        prop_assert_eq!(&cold.schedule.layers, &warm.schedule.layers);
        let f = parallax_schedule_fidelity(&circuit, &warm, seed ^ 0x5eed);
        prop_assert!((f - 1.0).abs() < 1e-7, "fidelity {}", f);
    }

    /// The variational fast path on trial: a [`CompiledTemplate`] built
    /// from one sweep member must serve *every* member. Each rebind's
    /// payload is diffed byte-for-byte against an independent cold compile
    /// of the bound circuit — fresh `GraphineLayout::generate`, no layout
    /// cache — and the shared schedule is statevector-checked against the
    /// bound circuit, across machines and seeds. This is the guarantee
    /// `parallax_core::template` documents as "carried by the differential
    /// layer": placement and scheduling never read a U3 angle.
    #[test]
    fn template_rebinds_match_independent_cold_compiles(
        family in parameterized_circuit_family(5, 20, 3),
        seed in 0u64..32,
        machine in arb_machine(),
    ) {
        let (structure, sets) = family;
        let config = CompilerConfig::quick(seed);
        let template =
            CompiledTemplate::compile(&ParallaxCompiler::new(machine, config.clone()), &structure);
        let shared = compile_payload(template.result()).encode();
        for set in &sets {
            let bound = template.rebind(set).map_err(|e| {
                TestCaseError::fail(format!("family set must rebind: {e}"))
            })?;
            let layout = GraphineLayout::generate(&bound, &config.placement);
            let cold = ParallaxCompiler::new(machine, config.clone())
                .compile_with_layout(&bound, &layout);
            prop_assert_eq!(
                &shared,
                &compile_payload(&cold).encode(),
                "rebind payload must be byte-identical to a cold compile of the bound member"
            );
            let f = parallax_schedule_fidelity(&bound, template.result(), seed ^ 0x7e31);
            prop_assert!((f - 1.0).abs() < 1e-7, "fidelity {}", f);
        }
    }

    /// The placement worker count changes wall-clock time only, never the
    /// compilation — asserted around the caches (fresh layouts each side)
    /// so the parallel annealer itself is on trial, not the cache.
    #[test]
    fn placement_worker_count_never_steers_the_compile(
        circuit in arb_hcz_circuit(6, 2, 18),
        placement in arb_quick_placement(),
    ) {
        let circuit = parallax_circuit::optimize(&circuit);
        if circuit.is_empty() {
            return Ok(());
        }
        let machine = MachineSpec::quera_aquila_256();
        let config_at = |workers: usize| {
            let placement = parallax_graphine::PlacementConfig { workers, ..placement.clone() };
            CompilerConfig { seed: placement.seed, placement, ..CompilerConfig::default() }
        };
        let serial = config_at(1);
        let parallel = config_at(8);
        let layout_serial = GraphineLayout::generate(&circuit, &serial.placement);
        let layout_parallel = GraphineLayout::generate(&circuit, &parallel.placement);
        prop_assert_eq!(&layout_serial, &layout_parallel, "layouts must be bit-identical");
        let a = ParallaxCompiler::new(machine, serial).compile_with_layout(&circuit, &layout_serial);
        let b = ParallaxCompiler::new(machine, parallel)
            .compile_with_layout(&circuit, &layout_parallel);
        prop_assert_eq!(compile_payload(&a).encode(), compile_payload(&b).encode());
    }

    /// The flat CSR data layouts against their nested-Vec oracles, row for
    /// row: the interaction graph's adjacency (neighbor/weight/edge-id
    /// order plus precomputed degrees, where the CSR build shares the
    /// energy table's `b != a` incidence guard) and the circuit's
    /// per-qubit gate-index lists the scheduler frontier walks.
    #[test]
    fn csr_layouts_match_nested_oracles(circuit in arb_circuit(8, 48)) {
        let g = parallax_graphine::InteractionGraph::from_circuit(&circuit);
        let csr = g.csr();
        let mut nested: Vec<Vec<(u32, f64, u32)>> = vec![Vec::new(); g.num_qubits];
        for (e, &(a, b, w)) in g.edges.iter().enumerate() {
            nested[a as usize].push((b, w, e as u32));
            if b != a {
                nested[b as usize].push((a, w, e as u32));
            }
        }
        let degrees = g.weighted_degrees();
        for q in 0..g.num_qubits {
            let row: Vec<(u32, f64, u32)> = csr
                .neighbors(q)
                .iter()
                .zip(csr.weights(q))
                .zip(csr.edge_ids(q))
                .map(|((&n, &w), &e)| (n, w, e))
                .collect();
            prop_assert_eq!(&row, &nested[q], "adjacency row {}", q);
            prop_assert_eq!(csr.degree(q).to_bits(), degrees[q].to_bits(), "degree {}", q);
        }

        let gates_csr = circuit.qubit_gates_csr();
        let nested_gates = circuit.qubit_gate_indices();
        for (q, nested_row) in nested_gates.iter().enumerate().take(circuit.num_qubits()) {
            let row: Vec<usize> = gates_csr.row(q).iter().map(|&i| i as usize).collect();
            prop_assert_eq!(&row, nested_row, "gate row {}", q);
        }
    }
}

/// The rebind boundary angles, pinned deterministically: a QAOA-shaped
/// ansatz bound with every slot at 0, π, 2π, and a negative angle, on both
/// paper machines. Random sweeps above cover these values probabilistically;
/// this test guarantees they are exercised on every run, because 0-angle
/// U3s are exactly what `optimize` elides — the template fast path must
/// stay byte-faithful even where the circuit-level optimizer would not.
#[test]
fn rebind_edge_angles_stay_byte_faithful() {
    use parallax_circuit::Gate;
    use std::f64::consts::PI;

    let mut structure = parallax_circuit::Circuit::new(4);
    for q in 0..4u32 {
        structure.push(Gate::u3(q, 0.7, 0.1, -0.4));
    }
    for q in 0..3u32 {
        structure.push(Gate::cz(q, q + 1));
    }
    for q in 0..4u32 {
        structure.push(Gate::u3(q, -1.2, 0.9, 0.2));
    }
    let slots = 24;
    let edge_sets: Vec<Vec<f64>> = vec![
        vec![0.0; slots],
        vec![PI; slots],
        vec![2.0 * PI; slots],
        vec![-PI; slots],
        (0..slots).map(|i| if i % 2 == 0 { 0.0 } else { -2.0 * PI }).collect(),
    ];

    for machine in [MachineSpec::quera_aquila_256(), MachineSpec::atom_1225()] {
        for seed in [3u64, 17] {
            let config = CompilerConfig::quick(seed);
            let template = CompiledTemplate::compile(
                &ParallaxCompiler::new(machine, config.clone()),
                &structure,
            );
            assert_eq!(template.num_params(), slots);
            let shared = compile_payload(template.result()).encode();
            for set in &edge_sets {
                let bound = template.rebind(set).expect("edge angles are finite");
                let layout = GraphineLayout::generate(&bound, &config.placement);
                let cold = ParallaxCompiler::new(machine, config.clone())
                    .compile_with_layout(&bound, &layout);
                assert_eq!(
                    shared,
                    compile_payload(&cold).encode(),
                    "edge-angle rebind must match a cold compile (seed {seed})"
                );
                let f = parallax_schedule_fidelity(&bound, template.result(), seed ^ 0xedce);
                assert!((f - 1.0).abs() < 1e-7, "fidelity {f} (seed {seed})");
            }
        }
    }
}

/// Full-schedule byte-equality against the naive Algorithm 1 oracle (only
/// compiled in debug builds, like the oracle itself).
#[cfg(debug_assertions)]
mod against_naive_oracles {
    use super::*;
    use parallax_core::scheduler::schedule_gates_naive;
    use parallax_core::{discretize, schedule_gates, select_aod_qubits};
    use parallax_testkit::arb_machine;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The production scheduler — incremental frontier, spatial
        /// indexes, memos, pruned endpoint cascades — against
        /// the verbatim naive implementation, across machines, seeds, and
        /// home-return arms: identical layers, moves, stats (modulo the
        /// cache counters the naive path cannot have), and final array
        /// state.
        #[test]
        fn full_schedules_are_bit_identical(
            circuit in arb_hcz_circuit(8, 4, 30),
            seed in 0u64..32,
            machine in arb_machine(),
            return_home in (0u8..2).prop_map(|b| b == 1),
        ) {
            let mut cfg = CompilerConfig::quick(seed);
            cfg.return_home = return_home;
            let layout = GraphineLayout::generate(&circuit, &cfg.placement);
            let mut fast = discretize(&circuit, &layout, machine);
            let sel = select_aod_qubits(&circuit, &mut fast, &cfg);
            let mut naive = fast.clone();
            let s_fast = schedule_gates(&circuit, &mut fast, &sel, &cfg);
            let s_naive = schedule_gates_naive(&circuit, &mut naive, &sel, &cfg);
            prop_assert_eq!(&s_fast.layers, &s_naive.layers);
            let mut stats = s_fast.stats.clone();
            stats.failed_move_memo_hits = 0;
            stats.plan_cache_hits = 0;
            stats.bucket_scratch_allocs = 0;
            stats.home_return_skips = 0;
            prop_assert_eq!(&stats, &s_naive.stats);
            for q in 0..circuit.num_qubits() as u32 {
                prop_assert_eq!(fast.array.position(q), naive.array.position(q));
                prop_assert_eq!(fast.array.trap(q), naive.array.trap(q));
            }
        }

        /// The CSR dependency DAG against the retained nested-Vec builder:
        /// predecessor and successor lists must match element for element,
        /// in the exact discovery order the nested construction produced.
        #[test]
        fn dag_csr_matches_nested_oracle(circuit in arb_hcz_circuit(10, 4, 60)) {
            use parallax_circuit::DependencyDag;
            let dag = DependencyDag::build(&circuit);
            let (preds, succs) = DependencyDag::build_nested(&circuit);
            for g in 0..circuit.len() {
                let p: Vec<usize> = dag.predecessors(g).iter().map(|&x| x as usize).collect();
                prop_assert_eq!(&p, &preds[g], "preds of gate {}", g);
                let s: Vec<usize> = dag.successors(g).iter().map(|&x| x as usize).collect();
                prop_assert_eq!(&s, &succs[g], "succs of gate {}", g);
            }
        }
    }

    /// One deterministic large-machine arm: a sparse 40-qubit circuit on
    /// the 2116-site Synthetic-2048 grid, fast scheduler vs the naive
    /// Algorithm 1. The proptest arms above stay on the paper machines
    /// (256/1225 sites); this pins the packed-lane `AtomArray` and CSR
    /// walks at a 46x46 grid where the site-indexed lanes dwarf the
    /// occupied set.
    #[test]
    fn synthetic_2048_schedule_matches_naive() {
        let machine = MachineSpec::synthetic_grid(46);
        let circuit = parallax_testkit::lcg_circuit(40, 120, 2048);
        let cfg = CompilerConfig::quick(9);
        let layout = GraphineLayout::generate(&circuit, &cfg.placement);
        let mut fast = discretize(&circuit, &layout, machine);
        let sel = select_aod_qubits(&circuit, &mut fast, &cfg);
        let mut naive = fast.clone();
        let s_fast = schedule_gates(&circuit, &mut fast, &sel, &cfg);
        let s_naive = schedule_gates_naive(&circuit, &mut naive, &sel, &cfg);
        assert_eq!(s_fast.layers, s_naive.layers);
        let mut stats = s_fast.stats.clone();
        stats.failed_move_memo_hits = 0;
        stats.plan_cache_hits = 0;
        stats.bucket_scratch_allocs = 0;
        stats.home_return_skips = 0;
        assert_eq!(stats, s_naive.stats);
        for q in 0..40u32 {
            assert_eq!(fast.array.position(q), naive.array.position(q), "q{q} position");
            assert_eq!(fast.array.trap(q), naive.array.trap(q), "q{q} trap");
        }
    }
}
