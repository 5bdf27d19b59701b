//! Deterministic-seed regression tests for the full compiler pipeline:
//! equal seeds must reproduce bit-identical circuits, layouts, and
//! schedules, across repeated runs and across thread counts.

use parallax_circuit::{circuit_from_qasm_str, optimize};
use parallax_core::{CompilationResult, CompilerConfig, ParallaxCompiler};
use parallax_graphine::{GraphineLayout, PlacementConfig};
use parallax_hardware::MachineSpec;
use parallax_sim::parallax_schedule_fidelity;

fn assert_same_compilation(a: &CompilationResult, b: &CompilationResult, what: &str) {
    assert_eq!(a.schedule.gate_order(), b.schedule.gate_order(), "{what}: gate order");
    assert_eq!(a.home_positions, b.home_positions, "{what}: home positions");
    assert_eq!(a.aod_selection.selected, b.aod_selection.selected, "{what}: AOD selection");
    assert_eq!(a.schedule.stats.trap_changes, b.schedule.stats.trap_changes, "{what}: traps");
    assert_eq!(a.interaction_radius_um, b.interaction_radius_um, "{what}: radius");
}

#[test]
fn workload_generators_are_seed_deterministic() {
    for bench in parallax_workloads::all_benchmarks() {
        if bench.qubits > 32 {
            continue;
        }
        let a = bench.circuit(7);
        let b = bench.circuit(7);
        assert_eq!(a.gates(), b.gates(), "{} regenerated differently", bench.name);
        assert_eq!(a.cz_count(), b.cz_count());
    }
}

#[test]
fn placement_is_seed_deterministic() {
    let bench = parallax_workloads::benchmark("QAOA").unwrap();
    let circuit = bench.circuit(3);
    let cfg = PlacementConfig::quick(3);
    let a = GraphineLayout::generate(&circuit, &cfg);
    let b = GraphineLayout::generate(&circuit, &cfg);
    assert_eq!(a, b, "identical seeds must give identical layouts");
}

#[test]
fn compilation_is_seed_deterministic() {
    let machine = MachineSpec::quera_aquila_256();
    for name in ["GCM", "ADD", "QEC"] {
        let bench = parallax_workloads::benchmark(name).unwrap();
        let circuit = optimize(&bench.circuit(5));
        let compile = || ParallaxCompiler::new(machine, CompilerConfig::quick(5)).compile(&circuit);
        assert_same_compilation(&compile(), &compile(), name);
    }
}

#[test]
fn batch_compilation_matches_sequential_at_any_thread_count() {
    let machine = MachineSpec::quera_aquila_256();
    let jobs: Vec<_> = ["GCM", "QAOA", "ADD", "WST"]
        .iter()
        .map(|n| optimize(&parallax_workloads::benchmark(n).unwrap().circuit(2)))
        .collect();
    let compiler = ParallaxCompiler::shared(machine, CompilerConfig::quick(2));
    let sequential: Vec<_> = jobs.iter().map(|c| compiler.compile(c)).collect();
    for threads in [2usize, 4, 8] {
        // Every thread compiles every job on the one shared compiler, in a
        // thread-dependent order, so the threads race on its caches.
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (compiler, jobs) = (&compiler, &jobs);
                    scope.spawn(move || {
                        (0..jobs.len())
                            .map(|k| (k + t) % jobs.len())
                            .map(|i| (i, compiler.compile(&jobs[i])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for (t, worker) in workers.into_iter().enumerate() {
                for (i, result) in worker.join().expect("compile thread panicked") {
                    let what = format!("job {i} on thread {t} of {threads}");
                    assert_same_compilation(&sequential[i], &result, &what);
                }
            }
        });
    }
}

#[test]
fn qasm_text_pipeline_is_reproducible_and_exact() {
    // A second front-end program (distinct from end_to_end's) through the
    // whole stack: parse, transpile, optimize, compile, verify, repeat.
    let src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg a[3];\nqreg b[2];\ncreg m[5];\n\
               h a[0];\ncx a[0],a[1];\nt a[1];\ncx a[1],b[0];\nswap a[2],b[1];\n\
               ccx a[0],a[1],b[0];\nmeasure a -> m;\n";
    let circuit = optimize(&circuit_from_qasm_str(src).unwrap());
    assert_eq!(circuit.num_qubits(), 5);
    let machine = MachineSpec::quera_aquila_256();
    let run = || ParallaxCompiler::new(machine, CompilerConfig::quick(9)).compile(&circuit);
    let (r1, r2) = (run(), run());
    assert_same_compilation(&r1, &r2, "qasm pipeline");
    assert_eq!(r1.schedule.stats.swap_count, 0);
    assert_eq!(r1.cz_count(), circuit.cz_count());
    let f = parallax_schedule_fidelity(&circuit, &r1, 77);
    assert!((f - 1.0).abs() < 1e-9, "fidelity {f}");
}

#[test]
fn distinct_seeds_explore_distinct_placements() {
    // Sanity check that the seed actually steers the stochastic stages:
    // annealed layouts for different seeds should not coincide.
    let bench = parallax_workloads::benchmark("QAOA").unwrap();
    let circuit = bench.circuit(0);
    let a = GraphineLayout::generate(&circuit, &PlacementConfig::quick(1));
    let b = GraphineLayout::generate(&circuit, &PlacementConfig::quick(2));
    assert_ne!(a.positions, b.positions, "seeds 1 and 2 gave identical layouts");
}

/// Every cache key below the service — placement and compiler
/// fingerprints, the interaction-graph hash — is FNV-1a: graphine's
/// private `WordHasher` (it sits below `parallax-hardware`) and
/// `parallax_hardware::StableHasher` above it. Layout, template and
/// result caches are keyed by these values.
#[test]
fn stable_cache_keys_are_pinned() {
    assert_eq!(PlacementConfig::quick(1).fingerprint(), 0x273e_61fd_a8fa_9f5f);
    assert_eq!(PlacementConfig::default().fingerprint(), 0x1d11_2337_0e46_a911);
    assert_eq!(CompilerConfig::quick(7).fingerprint(), 0x23d4_1a0d_f835_1d11);
    let compiler = ParallaxCompiler::new(MachineSpec::atom_1225(), CompilerConfig::default());
    assert_eq!(compiler.fingerprint(), 0xab71_a530_f70c_3c40);

    let mut b = parallax_circuit::CircuitBuilder::new(4);
    b.h(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(0, 3);
    let graph = parallax_graphine::InteractionGraph::from_circuit(&b.build());
    assert_eq!(graph.stable_hash(), 0xbed9_63b9_a873_13bd);

    for bytes in [&b""[..], b"a", b"foobar", &[0xff; 9], b"OPENQASM 2.0;\nqreg q[2];\n"] {
        let stable = parallax_hardware::StableHasher::new().write_bytes(bytes).finish();
        assert_eq!(stable, parallax_qasm::fnv1a_64(bytes), "{bytes:?}");
    }
}

/// Golden `(schedule_digest, interaction_radius_um bits)` of the nine
/// fleet-scale cold compiles `perfbench`'s `cold_scale` workload runs:
/// each `scale_arms()` machine × jitter seeds 101/102/103 through
/// `compile_with_layout`. Captured at commit `cea686a`, before the
/// sub-quadratic discretize/radius/blockade-score kernels replaced their
/// quadratic twins; these are the only pinned inputs where the
/// nearest-free-site early stop and the radius's cell doubling do real
/// work.
const SCALE_GOLDEN: &[(usize, u64, u64, u64)] = &[
    (1000, 101, 0x713621e9c1135bdd, 0x4023cc8a99af5453),
    (1000, 102, 0x9016863649bfe763, 0x4023cc8a99af5453),
    (1000, 103, 0xcab3d8cc711a1871, 0x4023cc8a99af5453),
    (2000, 101, 0xba20de134ca0dcc1, 0x4023cc8a99af5453),
    (2000, 102, 0xb714b50c532daddb, 0x4023cc8a99af5453),
    (2000, 103, 0x6820b28e4a58d4dc, 0x4023cc8a99af5453),
    (4000, 101, 0x360a085f8220e74a, 0x4023cc8a99af5453),
    (4000, 102, 0x2a1052d8a5ccd1a1, 0x4023cc8a99af5453),
    (4000, 103, 0x26ab3cea7ee83787, 0x4021f283081ec027),
];

#[test]
fn scale_cold_compiles_match_golden_digests() {
    let mut got = Vec::new();
    for (machine, qubits) in parallax_bench::scale::scale_arms() {
        let circuit = parallax_bench::scale::scale_circuit(qubits);
        for seed in [101u64, 102, 103] {
            let config = CompilerConfig {
                seed,
                placement: PlacementConfig::quick(seed),
                ..Default::default()
            };
            let layout = parallax_bench::scale::scale_layout(qubits, seed);
            let r = ParallaxCompiler::new(machine, config).compile_with_layout(&circuit, &layout);
            got.push((
                qubits,
                seed,
                parallax_service::schedule_digest(&r),
                r.interaction_radius_um.to_bits(),
            ));
        }
    }
    let rows: Vec<String> =
        got.iter().map(|(q, s, d, r)| format!("    ({q}, {s}, 0x{d:016x}, 0x{r:016x}),")).collect();
    assert_eq!(got, SCALE_GOLDEN, "scale goldens moved; now:\n{}", rows.join("\n"));
}
