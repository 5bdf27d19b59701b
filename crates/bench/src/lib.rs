//! Experiment harness regenerating every table and figure of the Parallax
//! paper's evaluation (Section IV).
//!
//! The library half computes results; the `experiments` binary and the
//! Criterion benches print/measure them. Every experiment is deterministic
//! per seed and fans out over worker threads.
//!
//! | Paper artifact | Function |
//! |----------------|----------|
//! | Table II (hardware parameters) | [`table2_rows`] |
//! | Table III (benchmarks)         | [`table3_rows`] |
//! | Fig. 9 (CZ gate counts)        | [`run_comparison`] -> [`fig9_rows`] |
//! | Fig. 10 (probability of success) | [`run_comparison`] -> [`fig10_rows`] |
//! | Table IV (circuit runtimes, 256 & 1,225) | [`table4_rows`] |
//! | Fig. 11 (parallel shots vs execution time) | [`fig11_rows`] |
//! | Fig. 12 (home-return ablation) | [`fig12_rows`] |
//! | Fig. 13 (AOD count ablation)   | [`fig13_rows`] |

use parallax_baselines::{compile_eldi, compile_graphine_with_layout, EldiConfig};
use parallax_circuit::Circuit;
use parallax_core::{cached_layout, replication_plan, CompilerConfig, ParallaxCompiler};
use parallax_graphine::{GraphineLayout, PlacementConfig};

pub mod compare;
pub mod scale;
use parallax_hardware::{HardwareParams, MachineSpec};
use parallax_sim::equivalence::parallax_schedule_fidelity;
use parallax_sim::statevector::MAX_SIM_QUBITS;
use parallax_sim::{
    baseline_fidelity_inputs, parallax_fidelity_inputs, success_probability, ShotModel,
};
use parallax_workloads::{all_benchmarks, Benchmark};

/// Metrics of one compiler on one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct CompiledMetrics {
    /// Executed CZ gates.
    pub cz: usize,
    /// Executed U3 gates.
    pub u3: usize,
    /// SWAPs inserted (0 for Parallax).
    pub swaps: usize,
    /// Single-shot circuit runtime, µs.
    pub runtime_us: f64,
    /// Probability of success (gate errors x decoherence).
    pub success: f64,
    /// Executed layers.
    pub layers: usize,
    /// Trap changes (Parallax only; 0 for baselines).
    pub trap_changes: usize,
}

/// Three-way comparison on one benchmark.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Benchmark acronym.
    pub name: String,
    /// Qubit count.
    pub qubits: usize,
    /// GRAPHINE baseline metrics.
    pub graphine: CompiledMetrics,
    /// ELDI baseline metrics.
    pub eldi: CompiledMetrics,
    /// Parallax metrics.
    pub parallax: CompiledMetrics,
}

/// Which benchmarks to evaluate.
pub fn selected_benchmarks(quick: bool) -> Vec<Benchmark> {
    let all = all_benchmarks();
    if quick {
        all.into_iter()
            .filter(|b| ["ADD", "ADV", "HLF", "QAOA", "QEC", "SECA"].contains(&b.name))
            .collect()
    } else {
        all
    }
}

/// Placement settings: the full anneal is expensive for 128-qubit TFIM, so
/// the iteration budget shrinks with qubit count.
pub fn placement_for(qubits: usize, seed: u64) -> PlacementConfig {
    let max_iter = if qubits > 64 {
        120
    } else if qubits > 24 {
        250
    } else {
        400
    };
    PlacementConfig { seed, max_iter, local_search_evals: 800, ..Default::default() }
}

fn parallax_metrics(
    circuit: &Circuit,
    layout: &GraphineLayout,
    machine: MachineSpec,
    config: &CompilerConfig,
) -> CompiledMetrics {
    let result =
        ParallaxCompiler::new(machine, config.clone()).compile_with_layout(circuit, layout);
    let inputs = parallax_fidelity_inputs(&result);
    CompiledMetrics {
        cz: result.cz_count(),
        u3: result.u3_count(),
        swaps: 0,
        runtime_us: inputs.runtime_us,
        success: success_probability(&inputs, &machine.params),
        layers: result.schedule.layers.len(),
        trap_changes: result.schedule.stats.trap_changes,
    }
}

fn eldi_metrics(circuit: &Circuit, machine: &MachineSpec) -> CompiledMetrics {
    let result = compile_eldi(circuit, machine, &EldiConfig::default());
    let inputs = baseline_fidelity_inputs(&result, &machine.params);
    CompiledMetrics {
        cz: result.cz_count(),
        u3: result.u3_count(),
        swaps: result.swap_count,
        runtime_us: inputs.runtime_us,
        success: success_probability(&inputs, &machine.params),
        layers: result.layer_count(),
        trap_changes: 0,
    }
}

fn graphine_metrics(
    circuit: &Circuit,
    layout: &GraphineLayout,
    machine: &MachineSpec,
) -> CompiledMetrics {
    let result = compile_graphine_with_layout(circuit, machine, layout);
    let inputs = baseline_fidelity_inputs(&result, &machine.params);
    CompiledMetrics {
        cz: result.cz_count(),
        u3: result.u3_count(),
        swaps: result.swap_count,
        runtime_us: inputs.runtime_us,
        success: success_probability(&inputs, &machine.params),
        layers: result.layer_count(),
        trap_changes: 0,
    }
}

/// Run the three compilers on one benchmark. Parallax and the GRAPHINE
/// baseline share the identical annealed layout, as in the paper; the
/// layout comes through the process-wide layout cache, so repeated
/// measurements of the same (benchmark, seed) skip the anneal. Placement
/// reads no machine input, so the second machine of a Table IV sweep
/// reuses the first machine's layout.
pub fn compare_benchmark(bench: &Benchmark, machine: MachineSpec, seed: u64) -> ComparisonRow {
    let circuit = bench.circuit(seed);
    let placement = placement_for(bench.qubits, seed);
    let layout = cached_layout(&circuit, &placement);
    let config = CompilerConfig { seed, placement: placement.clone(), ..Default::default() };
    ComparisonRow {
        name: bench.name.to_string(),
        qubits: bench.qubits,
        graphine: graphine_metrics(&circuit, &layout, &machine),
        eldi: eldi_metrics(&circuit, &machine),
        parallax: parallax_metrics(&circuit, &layout, machine, &config),
    }
}

/// Run the full three-way comparison across `benches`, fanned out over
/// worker threads.
pub fn run_comparison(
    benches: &[Benchmark],
    machine: MachineSpec,
    seed: u64,
) -> Vec<ComparisonRow> {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let next_task = std::sync::atomic::AtomicUsize::new(0);
    let (result_tx, result_rx) = std::sync::mpsc::channel::<(usize, ComparisonRow)>();
    let mut slots: Vec<Option<ComparisonRow>> = vec![None; benches.len()];
    std::thread::scope(|scope| {
        for _ in 0..threads.min(benches.len().max(1)) {
            let result_tx = result_tx.clone();
            let next_task = &next_task;
            scope.spawn(move || loop {
                let i = next_task.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= benches.len() {
                    return;
                }
                let row = compare_benchmark(&benches[i], machine, seed);
                if result_tx.send((i, row)).is_err() {
                    return;
                }
            });
        }
        drop(result_tx);
        while let Ok((i, row)) = result_rx.recv() {
            slots[i] = Some(row);
        }
    });
    slots.into_iter().map(|s| s.expect("all rows computed")).collect()
}

// ---------------------------------------------------------------------------
// Table rendering
// ---------------------------------------------------------------------------

/// Render an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Fig. 9: CZ gate counts per benchmark per compiler.
pub fn fig9_rows(rows: &[ComparisonRow]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers =
        vec!["Bench", "Qubits", "Graphine CZ", "Eldi CZ", "Parallax CZ", "vs Graphine", "vs Eldi"];
    let data = rows
        .iter()
        .map(|r| {
            let vs_g = 100.0 * (1.0 - r.parallax.cz as f64 / r.graphine.cz.max(1) as f64);
            let vs_e = 100.0 * (1.0 - r.parallax.cz as f64 / r.eldi.cz.max(1) as f64);
            vec![
                r.name.clone(),
                r.qubits.to_string(),
                r.graphine.cz.to_string(),
                r.eldi.cz.to_string(),
                r.parallax.cz.to_string(),
                format!("{vs_g:+.1}%"),
                format!("{vs_e:+.1}%"),
            ]
        })
        .collect();
    (headers, data)
}

/// Fig. 10: probability of success per benchmark per compiler.
pub fn fig10_rows(rows: &[ComparisonRow]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec!["Bench", "Graphine", "Eldi", "Parallax"];
    let data = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.2e}", r.graphine.success),
                format!("{:.2e}", r.eldi.success),
                format!("{:.2e}", r.parallax.success),
            ]
        })
        .collect();
    (headers, data)
}

/// Table IV: circuit runtimes on both machines.
pub fn table4_rows(benches: &[Benchmark], seed: u64) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let quera = run_comparison(benches, MachineSpec::quera_aquila_256(), seed);
    let atom = run_comparison(benches, MachineSpec::atom_1225(), seed);
    let headers = vec![
        "Bench",
        "Eldi-256",
        "Graphine-256",
        "Parallax-256",
        "Eldi-1225",
        "Graphine-1225",
        "Parallax-1225",
    ];
    let data = quera
        .iter()
        .zip(&atom)
        .map(|(q, a)| {
            vec![
                q.name.clone(),
                format!("{:.0}", q.eldi.runtime_us),
                format!("{:.0}", q.graphine.runtime_us),
                format!("{:.0}", q.parallax.runtime_us),
                format!("{:.0}", a.eldi.runtime_us),
                format!("{:.0}", a.graphine.runtime_us),
                format!("{:.0}", a.parallax.runtime_us),
            ]
        })
        .collect();
    (headers, data)
}

/// Fig. 11: total execution time of 8,000 shots vs parallelization factor
/// on the 1,225-qubit machine, for the paper's six showcased benchmarks.
pub fn fig11_rows(seed: u64, quick: bool) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let names: &[&str] =
        if quick { &["ADV", "SECA"] } else { &["ADV", "KNN", "QV", "SECA", "SQRT", "WST"] };
    let machine = MachineSpec::atom_1225();
    let shot_model = ShotModel::default();
    let headers = vec!["Bench", "Factor", "PhysShots", "TotalExec (s)"];
    let mut data = Vec::new();
    for name in names {
        let bench = parallax_workloads::benchmark(name).expect("known benchmark");
        let circuit = bench.circuit(seed);
        let placement = placement_for(bench.qubits, seed);
        let config = CompilerConfig { seed, placement: placement.clone(), ..Default::default() };
        let result = ParallaxCompiler::new(machine, config).compile(&circuit);
        let runtime = parallax_sim::parallax_runtime_us(&result);
        let max_plan = replication_plan(&result, &machine);
        let mut factors: Vec<usize> = Vec::new();
        for k in 1..=max_plan.copies_x.min(max_plan.copies_y) {
            factors.push(k * k);
        }
        let full = max_plan.factor();
        if factors.last() != Some(&full) {
            factors.push(full);
        }
        for f in factors {
            let total = shot_model.total_execution_time_us(runtime, f);
            data.push(vec![
                bench.name.to_string(),
                f.to_string(),
                shot_model.logical_shots.div_ceil(f).to_string(),
                format!("{:.4}", total * 1e-6),
            ]);
        }
    }
    (headers, data)
}

/// Fig. 12: circuit runtime with vs without AOD home-return.
pub fn fig12_rows(benches: &[Benchmark], seed: u64) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let machine = MachineSpec::atom_1225();
    let headers = vec!["Bench", "NoReturn (µs)", "Return (µs)", "Return saves"];
    let mut data = Vec::new();
    for bench in benches {
        let circuit = bench.circuit(seed);
        let placement = placement_for(bench.qubits, seed);
        let layout = cached_layout(&circuit, &placement);
        let cfg_home = CompilerConfig { seed, placement: placement.clone(), ..Default::default() };
        let cfg_stay = cfg_home.clone().without_home_return();
        let home = parallax_metrics(&circuit, &layout, machine, &cfg_home);
        let stay = parallax_metrics(&circuit, &layout, machine, &cfg_stay);
        let saving = 100.0 * (1.0 - home.runtime_us / stay.runtime_us.max(1e-9));
        data.push(vec![
            bench.name.to_string(),
            format!("{:.0}", stay.runtime_us),
            format!("{:.0}", home.runtime_us),
            format!("{saving:+.1}%"),
        ]);
    }
    (headers, data)
}

/// One benchmark's arm of the multi-mover scheduling ablation
/// (`experiments multi-mover`): the same circuit and cached layout
/// compiled with the default single-mover Algorithm 1 and with
/// `SchedulingMode::MultiMover`, side by side.
#[derive(Debug, Clone)]
pub struct MultiMoverRow {
    /// Benchmark acronym.
    pub name: String,
    /// Qubit count.
    pub qubits: usize,
    /// Executed layers, default single-mover path.
    pub layers_single: usize,
    /// Executed layers, multi-mover path.
    pub layers_multi: usize,
    /// Multi-mover layers that batched two or more move plans.
    pub batched_layers: usize,
    /// Layers saved by batching (movers beyond the first per layer).
    pub layers_saved: usize,
    /// Largest number of move plans any layer committed.
    pub max_movers: usize,
    /// Candidates deferred by the interference rule.
    pub conflicts: usize,
    /// Single-shot circuit runtime, µs, default path.
    pub runtime_single_us: f64,
    /// Single-shot circuit runtime, µs, multi-mover path.
    pub runtime_multi_us: f64,
    /// Probability of success, default path.
    pub success_single: f64,
    /// Probability of success, multi-mover path.
    pub success_multi: f64,
    /// Statevector fidelity of the multi-mover schedule's gate order
    /// against the input circuit (`None` beyond the simulator's
    /// [`MAX_SIM_QUBITS`] cap). Anything but ~1.0 is a compiler bug.
    pub fidelity: Option<f64>,
}

/// Compile each benchmark twice — default and multi-mover — on one shared
/// cached layout, and statevector-verify every multi-mover schedule the
/// simulator can hold. The compile-side invariants for the larger circuits
/// (dependency order, per-layer plan disjointness, batch replay) are
/// enforced by the scheduler's debug assertions and the umbrella
/// `multi_mover` suite.
pub fn multi_mover_ablation(
    benches: &[Benchmark],
    machine: MachineSpec,
    seed: u64,
) -> Vec<MultiMoverRow> {
    benches
        .iter()
        .map(|bench| {
            let circuit = bench.circuit(seed);
            let placement = placement_for(bench.qubits, seed);
            let layout = cached_layout(&circuit, &placement);
            let cfg_single =
                CompilerConfig { seed, placement: placement.clone(), ..Default::default() };
            let cfg_multi = cfg_single.clone().with_multi_mover();
            let single =
                ParallaxCompiler::new(machine, cfg_single).compile_with_layout(&circuit, &layout);
            let multi =
                ParallaxCompiler::new(machine, cfg_multi).compile_with_layout(&circuit, &layout);
            let fidelity = (circuit.num_qubits() <= MAX_SIM_QUBITS)
                .then(|| parallax_schedule_fidelity(&circuit, &multi, seed));
            let inputs_single = parallax_fidelity_inputs(&single);
            let inputs_multi = parallax_fidelity_inputs(&multi);
            let mm = &multi.schedule.stats.multi_mover;
            MultiMoverRow {
                name: bench.name.to_string(),
                qubits: bench.qubits,
                layers_single: single.schedule.stats.layer_count,
                layers_multi: multi.schedule.stats.layer_count,
                batched_layers: mm.movers_per_layer[1..].iter().sum(),
                layers_saved: mm.layers_saved,
                max_movers: mm.movers_per_layer.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1),
                conflicts: mm.conflict_rejections,
                runtime_single_us: inputs_single.runtime_us,
                runtime_multi_us: inputs_multi.runtime_us,
                success_single: success_probability(&inputs_single, &machine.params),
                success_multi: success_probability(&inputs_multi, &machine.params),
                fidelity,
            }
        })
        .collect()
}

/// Render [`multi_mover_ablation`] results: layer counts and their delta,
/// batching evidence, runtime/success movement, and the statevector
/// verdict per benchmark.
pub fn multi_mover_rows(rows: &[MultiMoverRow]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec![
        "Bench",
        "Qubits",
        "Single",
        "Multi",
        "Layers",
        "Batched",
        "MaxMovers",
        "Runtime",
        "Success",
        "Statevector",
    ];
    let data = rows
        .iter()
        .map(|r| {
            let layers_delta =
                100.0 * (r.layers_multi as f64 / r.layers_single.max(1) as f64 - 1.0);
            let runtime_delta = 100.0 * (r.runtime_multi_us / r.runtime_single_us.max(1e-9) - 1.0);
            let success_delta = 100.0 * (r.success_multi - r.success_single);
            vec![
                r.name.clone(),
                r.qubits.to_string(),
                r.layers_single.to_string(),
                r.layers_multi.to_string(),
                format!("{layers_delta:+.1}%"),
                r.batched_layers.to_string(),
                r.max_movers.to_string(),
                format!("{runtime_delta:+.1}%"),
                format!("{success_delta:+.2}pp"),
                match r.fidelity {
                    Some(f) => format!("{f:.6}"),
                    None => format!("n/a (>{MAX_SIM_QUBITS}q)"),
                },
            ]
        })
        .collect();
    (headers, data)
}

/// Fig. 13: circuit runtime across AOD row/column counts {1, 5, 10, 20, 40}.
pub fn fig13_rows(benches: &[Benchmark], seed: u64) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let counts = [1usize, 5, 10, 20, 40];
    let headers = vec!["Bench", "AOD=1", "AOD=5", "AOD=10", "AOD=20", "AOD=40"];
    let mut data = Vec::new();
    for bench in benches {
        let circuit = bench.circuit(seed);
        let placement = placement_for(bench.qubits, seed);
        // The AOD sweep reuses ONE layout across all five machine variants
        // (as the paper does); `GraphineLayout::from_graph` takes no
        // machine input, so the shared layout is exact.
        let layout = cached_layout(&circuit, &placement);
        let mut row = vec![bench.name.to_string()];
        for &count in &counts {
            let machine = MachineSpec::atom_1225().with_aod_dim(count);
            let cfg = CompilerConfig { seed, placement: placement.clone(), ..Default::default() };
            let m = parallax_metrics(&circuit, &layout, machine, &cfg);
            row.push(format!("{:.0}", m.runtime_us));
        }
        data.push(row);
    }
    (headers, data)
}

/// Measure the variational-sweep serving shape per benchmark: one
/// structure compile into a [`parallax_core::CompiledTemplate`] (through
/// the process-wide template cache), then `points` rebinds on a
/// deterministic angle grid, against a warm full compile of the same
/// circuit (layout cache hot — the best the per-point pipeline
/// can do). Columns report per-point rebind time and the resulting
/// speedup; benchmarks without U3 slots are skipped.
pub fn variational_sweep_rows(
    benches: &[Benchmark],
    seed: u64,
    points: usize,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec![
        "Bench",
        "Qubits",
        "Slots",
        "Points",
        "Compile (ms)",
        "Warm (µs)",
        "Rebind (µs)",
        "Speedup",
    ];
    let mut data = Vec::new();
    for bench in benches {
        let circuit = bench.circuit(seed);
        let placement = placement_for(bench.qubits, seed);
        let config = CompilerConfig { seed, placement, ..Default::default() };
        let compiler =
            parallax_core::ParallaxCompiler::new(MachineSpec::quera_aquila_256(), config);

        let t0 = std::time::Instant::now();
        let (template, _) = parallax_core::compiled_template(&compiler, &circuit);
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
        let slots = template.num_params();
        if slots == 0 {
            continue;
        }

        compiler.compile(&circuit); // ensure the layout cache is hot
        let t0 = std::time::Instant::now();
        let warm = compiler.compile(&circuit);
        let warm_us = t0.elapsed().as_secs_f64() * 1e6;
        assert_eq!(warm.schedule.layers, template.result().schedule.layers);

        let grid: Vec<Vec<f64>> = (0..points)
            .map(|p| (0..slots).map(|s| ((p * slots + s) % 571) as f64 * 0.011 - 3.1).collect())
            .collect();
        let t0 = std::time::Instant::now();
        let mut bound_gates = 0usize;
        for point in &grid {
            bound_gates += template.rebind(point).expect("grid angles bind").len();
        }
        let rebind_us = t0.elapsed().as_secs_f64() * 1e6 / points.max(1) as f64;
        assert_eq!(bound_gates, circuit.len() * points);

        data.push(vec![
            bench.name.to_string(),
            bench.qubits.to_string(),
            slots.to_string(),
            points.to_string(),
            format!("{compile_ms:.1}"),
            format!("{warm_us:.0}"),
            format!("{rebind_us:.2}"),
            format!("{:.0}x", warm_us / rebind_us.max(1e-9)),
        ]);
    }
    (headers, data)
}

/// Table II as printable rows.
pub fn table2_rows() -> (Vec<&'static str>, Vec<Vec<String>>) {
    let p = HardwareParams::table2();
    let headers = vec!["Parameter", "Value"];
    let data = vec![
        vec!["Number of Qubits".into(), "256 & 1,225".into()],
        vec!["Time to Switch Traps (µs)".into(), format!("{}", p.trap_switch_time_us)],
        vec!["AOD Movement Speed (µm/µs)".into(), format!("{}", p.aod_move_speed_um_per_us)],
        vec!["T1 Coherence Time (s)".into(), format!("{}", p.t1_seconds)],
        vec!["T2 Coherence Time (s)".into(), format!("{}", p.t2_seconds)],
        vec!["SWAP Gate Error".into(), format!("{}", p.swap_gate_error)],
        vec!["Atom Loss Rate".into(), format!("{}", p.atom_loss_rate)],
        vec!["U3 Gate Error".into(), format!("{}", p.u3_gate_error)],
        vec!["U3 Gate Time (µs)".into(), format!("{}", p.u3_gate_time_us)],
        vec!["CZ Gate Error".into(), format!("{}", p.cz_gate_error)],
        vec!["CZ Gate Time (µs)".into(), format!("{}", p.cz_gate_time_us)],
        vec!["Readout Error".into(), format!("{}", p.readout_error)],
    ];
    (headers, data)
}

/// Table III as printable rows.
pub fn table3_rows(seed: u64) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec!["Acronym", "Qubits", "CZ (transpiled)", "Description"];
    let data = all_benchmarks()
        .iter()
        .map(|b| {
            vec![
                b.name.to_string(),
                b.qubits.to_string(),
                b.circuit(seed).cz_count().to_string(),
                b.description.to_string(),
            ]
        })
        .collect();
    (headers, data)
}

/// Headline aggregate numbers (abstract / Section IV claims).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Mean CZ reduction vs GRAPHINE (paper: 39%).
    pub cz_reduction_vs_graphine: f64,
    /// Mean CZ reduction vs ELDI (paper: 25%).
    pub cz_reduction_vs_eldi: f64,
    /// Mean relative success improvement vs GRAPHINE (paper: 46%).
    pub success_gain_vs_graphine: f64,
    /// Mean relative success improvement vs ELDI (paper: 28%).
    pub success_gain_vs_eldi: f64,
    /// Mean trap changes per CZ gate (paper: ~1.3%).
    pub trap_change_rate: f64,
}

/// Compute the headline aggregates from comparison rows.
pub fn summarize(rows: &[ComparisonRow]) -> Summary {
    let n = rows.len() as f64;
    let mean = |f: &dyn Fn(&ComparisonRow) -> f64| rows.iter().map(f).sum::<f64>() / n;
    Summary {
        cz_reduction_vs_graphine: mean(&|r| {
            1.0 - r.parallax.cz as f64 / r.graphine.cz.max(1) as f64
        }),
        cz_reduction_vs_eldi: mean(&|r| 1.0 - r.parallax.cz as f64 / r.eldi.cz.max(1) as f64),
        success_gain_vs_graphine: mean(&|r| relative_gain(r.parallax.success, r.graphine.success)),
        success_gain_vs_eldi: mean(&|r| relative_gain(r.parallax.success, r.eldi.success)),
        trap_change_rate: mean(&|r| r.parallax.trap_changes as f64 / r.parallax.cz.max(1) as f64),
    }
}

/// Bounded relative improvement: how much closer to ideal success Parallax
/// lands, capped so near-zero baselines don't produce absurd ratios.
fn relative_gain(ours: f64, theirs: f64) -> f64 {
    if theirs <= 1e-30 {
        return 1.0;
    }
    ((ours - theirs) / theirs).clamp(-1.0, 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_comparison_shapes_hold() {
        let benches = selected_benchmarks(true);
        assert_eq!(benches.len(), 6);
        let rows = run_comparison(&benches, MachineSpec::quera_aquila_256(), 1);
        for r in &rows {
            // Zero SWAPs: Parallax CZ never exceeds either baseline's.
            assert!(r.parallax.cz <= r.eldi.cz, "{}: {} > {}", r.name, r.parallax.cz, r.eldi.cz);
            assert!(r.parallax.cz <= r.graphine.cz, "{}", r.name);
            assert_eq!(r.parallax.swaps, 0);
            // Success ordering follows gate counts.
            assert!(r.parallax.success > 0.0);
        }
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(&["A", "Long"], &[vec!["1".into(), "2".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('A'));
        assert!(lines[2].ends_with('2'));
    }

    #[test]
    fn table2_and_3_render() {
        let (h2, d2) = table2_rows();
        assert_eq!(h2.len(), 2);
        assert_eq!(d2.len(), 12);
        let (h3, d3) = table3_rows(0);
        assert_eq!(h3.len(), 4);
        assert_eq!(d3.len(), 18);
    }

    #[test]
    fn summary_of_synthetic_rows() {
        let m = |cz: usize, success: f64| CompiledMetrics {
            cz,
            u3: 0,
            swaps: 0,
            runtime_us: 1.0,
            success,
            layers: 1,
            trap_changes: 0,
        };
        let rows = vec![ComparisonRow {
            name: "X".into(),
            qubits: 2,
            graphine: m(200, 0.2),
            eldi: m(100, 0.5),
            parallax: m(80, 0.6),
        }];
        let s = summarize(&rows);
        assert!((s.cz_reduction_vs_graphine - 0.6).abs() < 1e-12);
        assert!((s.cz_reduction_vs_eldi - 0.2).abs() < 1e-12);
        assert!((s.success_gain_vs_eldi - 0.2).abs() < 1e-12);
    }
}
