//! Microbenchmarks of the individual compiler stages (not a paper figure;
//! supports the paper's compile-time complexity discussion in Section III).

use criterion::{criterion_group, criterion_main, Criterion};
use parallax_bench::placement_for;
use parallax_bench::scale::{scale_arms, scale_circuit, scale_layout};
use parallax_circuit::optimize;
use parallax_core::{
    discretize, schedule_gates, select_aod_qubits, CompiledTemplate, CompilerConfig,
    ParallaxCompiler,
};
use parallax_graphine::{GraphineLayout, InteractionGraph, PlacementConfig};
use parallax_hardware::MachineSpec;

fn bench_stages(c: &mut Criterion) {
    let bench = parallax_workloads::benchmark("SQRT").unwrap();
    let raw = bench.raw_circuit(0);
    let circuit = bench.circuit(0);
    let placement = PlacementConfig::quick(0);
    let layout = GraphineLayout::generate(&circuit, &placement);
    let machine = MachineSpec::quera_aquila_256();

    let mut group = c.benchmark_group("stages");
    group.sample_size(10);
    group.bench_function("transpile/SQRT", |b| b.iter(|| optimize(&raw)));
    group.bench_function("interaction_graph/SQRT", |b| {
        b.iter(|| InteractionGraph::from_circuit(&circuit))
    });
    group.bench_function("placement_anneal/SQRT", |b| {
        b.iter(|| GraphineLayout::generate(&circuit, &placement))
    });
    group.bench_function("discretize/SQRT", |b| b.iter(|| discretize(&circuit, &layout, machine)));
    group.bench_function("aod_select/SQRT", |b| {
        b.iter(|| {
            let mut d = discretize(&circuit, &layout, machine);
            select_aod_qubits(&circuit, &mut d, &CompilerConfig::quick(0))
        })
    });

    // The cold post-placement kernels at fleet scale: the 4000-qubit
    // scale circuit on Synthetic-4096 with its first `cold_scale` jitter
    // layout. Neither stage caches anything, so every iteration is cold;
    // the SQRT arms above are too small to show the site search, the MST
    // radius or the blockade scores. `aod_select` clones the discretized
    // layout it mutates (O(atoms), noise next to the selection itself).
    let (machine, qubits) = scale_arms()
        .into_iter()
        .find(|&(_, q)| q == 4000)
        .expect("scale arms include the 4000-qubit machine");
    let circuit = scale_circuit(qubits);
    let layout = scale_layout(qubits, 101);
    group.bench_function(format!("discretize/{}", machine.name), |b| {
        b.iter(|| discretize(&circuit, &layout, machine))
    });
    let discretized = discretize(&circuit, &layout, machine);
    let config =
        CompilerConfig { seed: 101, placement: PlacementConfig::quick(101), ..Default::default() };
    group.bench_function(format!("aod_select/{}", machine.name), |b| {
        b.iter(|| {
            let mut d = discretized.clone();
            select_aod_qubits(&circuit, &mut d, &config)
        })
    });

    // The scheduling stage alone (Algorithm 1), at the paper-fidelity
    // placement settings the tables use. The prepared (post-AOD-selection)
    // layout is cloned per iteration because scheduling mutates it; the
    // clone is O(atoms) and noise next to the scheduling loop itself.
    // TFIM-128 is the large-circuit extreme where the scheduler dominates
    // the warm-cache compile; SQRT tracks the mid-size behaviour.
    for (name, machine) in
        [("SQRT", MachineSpec::quera_aquila_256()), ("TFIM", MachineSpec::atom_1225())]
    {
        let bench = parallax_workloads::benchmark(name).unwrap();
        let circuit = bench.circuit(0);
        let placement = placement_for(bench.qubits, 0);
        let config = CompilerConfig { placement, ..CompilerConfig::default() };
        let layout = GraphineLayout::generate(&circuit, &config.placement);
        let mut prepared = discretize(&circuit, &layout, machine);
        let selection = select_aod_qubits(&circuit, &mut prepared, &config);
        group.bench_function(format!("schedule/{name}"), |b| {
            b.iter(|| {
                let mut d = prepared.clone();
                schedule_gates(&circuit, &mut d, &selection, &config)
            })
        });
    }

    // The multi-mover ablation arm, on the workloads where it batches
    // (`experiments multi-mover` posts −14.3% layers on GCM and −21.5% on
    // QV at seed 0). Same prepared-layout clone pattern as above; the
    // entries bound the cost of the corridor index + ALAP ordering against
    // the layers the batching saves (GCM's runtime lands *below* the
    // single-mover compile because 76 fewer layers also mean fewer
    // home-return rounds).
    for name in ["GCM", "QV"] {
        let bench = parallax_workloads::benchmark(name).unwrap();
        let circuit = bench.circuit(0);
        let placement = placement_for(bench.qubits, 0);
        let config = CompilerConfig { placement, ..CompilerConfig::default() }.with_multi_mover();
        let machine = MachineSpec::quera_aquila_256();
        let layout = GraphineLayout::generate(&circuit, &config.placement);
        let mut prepared = discretize(&circuit, &layout, machine);
        let selection = select_aod_qubits(&circuit, &mut prepared, &config);
        group.bench_function(format!("schedule/multi_mover/{name}"), |b| {
            b.iter(|| {
                let mut d = prepared.clone();
                schedule_gates(&circuit, &mut d, &selection, &config)
            })
        });
    }
    group.finish();
}

/// The variational fast path against the path it replaces: rebinding a
/// 100-point QAOA sweep from one [`CompiledTemplate`] versus 100 warm
/// full compiles (layout cache hot — the best the per-point
/// pipeline can do). The per-point speedup recorded in
/// `benches/baseline/README.md` is `warm_compile` divided by a hundredth
/// of `rebind_100`.
fn bench_sweep(c: &mut Criterion) {
    let bench = parallax_workloads::benchmark("QAOA").unwrap();
    let circuit = bench.circuit(0);
    let compiler = ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(0));
    let template = CompiledTemplate::compile(&compiler, &circuit);
    let slots = template.num_params();
    let points: Vec<Vec<f64>> = (0..100)
        .map(|p| (0..slots).map(|s| ((p * slots + s) % 571) as f64 * 0.011 - 3.1).collect())
        .collect();
    compiler.compile(&circuit); // warm the layout cache

    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("rebind_100/QAOA", |b| {
        b.iter(|| {
            points
                .iter()
                .map(|p| template.rebind(p).expect("grid angles bind").len())
                .sum::<usize>()
        })
    });
    group.bench_function("warm_compile/QAOA", |b| b.iter(|| compiler.compile(&circuit)));
    group.finish();
}

criterion_group!(benches, bench_stages, bench_sweep);
criterion_main!(benches);
