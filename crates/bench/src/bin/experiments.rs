//! Regenerate the Parallax paper's tables and figures.
//!
//! Usage:
//! ```text
//! experiments [table2|table3|fig9|fig10|table4|fig11|fig12|fig13|summary|all]
//!             [--quick] [--seed N] [--trace FILE] [--metrics]
//! experiments multi-mover [--quick] [--seed N]
//! experiments variational-sweep [--quick] [--seed N]
//! experiments scale [--samples N] [--seed N]
//! ```
//!
//! `--quick` restricts to six small benchmarks (useful in debug builds);
//! the full suite is intended for `cargo run --release -p parallax-bench
//! --bin experiments -- all`. `multi-mover` (outside `all`) is the
//! scheduling ablation. `variational-sweep` (also outside `all`) measures
//! the parameterized-template fast path: per benchmark, one structure
//! compile followed by a 100-point rebind sweep, reporting the per-point
//! rebind time against a warm full compile. `scale` (also
//! outside `all`) measures the post-placement cold pipeline at
//! 1,000–4,000 qubits on Atom-1225 and the synthetic 2,048/4,096-site
//! grids, `--samples` cold compiles per arm (default 3), and splits each
//! arm's mean into per-stage columns (discretize, AOD selection,
//! schedule and its frontier/movement/blockade/return sub-stages; it
//! turns span tracing on for its compiles so the sub-stages count). Any
//! other subcommand prints this usage to stderr and exits with status 2.
//!
//! Every run ends with the cumulative stage table and the core cache
//! lines on stderr, so stdout holds only the tables.
//!
//! `--trace FILE` enables span tracing for the run and exports every
//! recorded span as Chrome trace-event JSON (open in `chrome://tracing`
//! or Perfetto). The export summary goes to stderr, so stdout stays
//! byte-identical to an untraced run — tracing must never change results.
//! `--metrics` appends the unified metrics registry (Prometheus text) to
//! stdout after the tables.

use parallax_bench::*;
use parallax_hardware::MachineSpec;

const USAGE: &str = "\
usage: experiments [table2|table3|fig9|fig10|table4|fig11|fig12|fig13|summary|all]
                   [--quick] [--seed N] [--trace FILE] [--metrics]
       experiments multi-mover [--quick] [--seed N]
       experiments variational-sweep [--quick] [--seed N]
       experiments scale [--samples N] [--seed N]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let metrics = args.iter().any(|a| a == "--metrics");
    let flag_value =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned();
    let seed = flag_value("--seed").and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    let samples = flag_value("--samples").and_then(|v| v.parse::<usize>().ok()).unwrap_or(3);
    let trace_path = flag_value("--trace");
    // The subcommand is the first argument that is neither a flag nor the
    // value consumed by a value-taking flag (`--seed N`, `--trace FILE`).
    let mut which: Option<String> = None;
    let mut skip_value = false;
    for a in &args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if a == "--seed" || a == "--trace" || a == "--samples" {
            skip_value = true;
            continue;
        }
        if a.starts_with("--") {
            continue;
        }
        which = Some(a.clone());
        break;
    }
    let which = which.unwrap_or_else(|| "all".to_string());

    if trace_path.is_some() {
        parallax_trace::set_enabled(true);
    }
    parallax_core::register_observability();

    // `dispatched` records whether any mode ran, so an unknown subcommand
    // is caught by the dispatch itself rather than by a second name list.
    let dispatched = std::cell::Cell::new(false);
    let matches = |hit: bool| {
        dispatched.set(dispatched.get() || hit);
        hit
    };
    let run = |name: &str| matches(which == name || which == "all");
    // Modes outside `all`.
    let run_alone = |name: &str| matches(which == name);

    if run("table2") {
        let (h, d) = table2_rows();
        println!("== Table II: hardware parameters ==\n{}", render_table(&h, &d));
    }
    if run("table3") {
        let (h, d) = table3_rows(seed);
        println!("== Table III: benchmarks ==\n{}", render_table(&h, &d));
    }

    if run("fig9") || run("fig10") || run("summary") {
        let benches = selected_benchmarks(quick);
        eprintln!("[experiments] compiling {} benchmarks x 3 compilers...", benches.len());
        let rows = run_comparison(&benches, MachineSpec::quera_aquila_256(), seed);
        if run("fig9") {
            let (h, d) = fig9_rows(&rows);
            println!("== Fig. 9: CZ gate counts (QuEra-256) ==\n{}", render_table(&h, &d));
        }
        if run("fig10") {
            let (h, d) = fig10_rows(&rows);
            println!("== Fig. 10: probability of success (QuEra-256) ==\n{}", render_table(&h, &d));
        }
        if run("summary") {
            let s = summarize(&rows);
            println!("== Headline summary (paper: -39%/-25% CZ, +46%/+28% success, 1.3% trap changes) ==");
            println!(
                "CZ reduction vs Graphine: {:.1}%   (paper: 39%)",
                100.0 * s.cz_reduction_vs_graphine
            );
            println!(
                "CZ reduction vs Eldi:     {:.1}%   (paper: 25%)",
                100.0 * s.cz_reduction_vs_eldi
            );
            println!(
                "Success gain vs Graphine: {:.1}%   (paper: 46%)",
                100.0 * s.success_gain_vs_graphine
            );
            println!(
                "Success gain vs Eldi:     {:.1}%   (paper: 28%)",
                100.0 * s.success_gain_vs_eldi
            );
            println!(
                "Trap changes per CZ:      {:.2}%   (paper: ~1.3%)\n",
                100.0 * s.trap_change_rate
            );
        }
    }

    if run("table4") {
        let benches = selected_benchmarks(quick);
        eprintln!("[experiments] Table IV: compiling on both machines...");
        let (h, d) = table4_rows(&benches, seed);
        println!("== Table IV: circuit runtime (µs) ==\n{}", render_table(&h, &d));
    }

    if run("fig11") {
        let (h, d) = fig11_rows(seed, quick);
        println!(
            "== Fig. 11: total execution time vs parallelization (Atom-1225, 8000 shots) ==\n{}",
            render_table(&h, &d)
        );
    }

    if run("fig12") {
        let benches = selected_benchmarks(quick);
        let (h, d) = fig12_rows(&benches, seed);
        println!("== Fig. 12: home-return ablation (Atom-1225) ==\n{}", render_table(&h, &d));
    }

    if run("fig13") {
        let benches = selected_benchmarks(quick);
        let (h, d) = fig13_rows(&benches, seed);
        println!("== Fig. 13: AOD count ablation (Atom-1225) ==\n{}", render_table(&h, &d));
    }

    // The ROADMAP item 3 scheduling ablation (outside `all`, so the
    // paper-preset outputs stay byte-identical): default vs multi-mover
    // layers on the Table III workloads, statevector-verified where the
    // simulator can hold the circuit.
    if run_alone("multi-mover") {
        let benches = selected_benchmarks(quick);
        eprintln!("[experiments] multi-mover ablation: {} benchmarks x 2 arms...", benches.len());
        let rows = multi_mover_ablation(&benches, MachineSpec::quera_aquila_256(), seed);
        let (h, d) = multi_mover_rows(&rows);
        println!(
            "== Multi-mover scheduling ablation (QuEra-256, seed {seed}) ==\n{}",
            render_table(&h, &d)
        );
    }

    // The variational-sweep scenario (outside `all`, like multi-mover):
    // the QAOA/VQE serving shape — one structure, many angle bindings.
    if run_alone("variational-sweep") {
        let benches = selected_benchmarks(quick);
        eprintln!("[experiments] variational sweep: {} benchmarks x 100 points...", benches.len());
        let (h, d) = variational_sweep_rows(&benches, seed, 100);
        println!(
            "== Variational sweep: template rebind vs warm full compile (QuEra-256) ==\n{}",
            render_table(&h, &d)
        );
        let tc = parallax_core::template_cache_stats();
        println!(
            "template cache: len {} weight {}/{} hits {} misses {} evictions {}",
            tc.len, tc.weight, tc.capacity, tc.hits, tc.misses, tc.evictions
        );
    }

    // Fleet-scale cold-compile mode (outside `all`, like multi-mover:
    // the table prints wall-clock times, so it can never join the
    // byte-identity set). Post-placement pipeline, fresh jittered layout
    // per sample — every cache key cold.
    if run_alone("scale") {
        eprintln!("[experiments] scale: 3 machine arms x {samples} cold compiles...");
        let (h, d) = scale::scale_rows(samples.max(1), seed);
        println!(
            "== Scale: post-placement cold compile at 1k-4k qubits ==\n{}",
            render_table(&h, &d)
        );
    }

    if !dispatched.get() {
        eprintln!("error: unknown subcommand `{which}`\n{USAGE}");
        std::process::exit(2);
    }

    // Wall-clock numbers, so stderr: stdout stays byte-identical across
    // runs, traced or not.
    eprintln!("== cumulative pipeline stage costs ==\n{}", parallax_core::profile::render());
    let lc = parallax_core::layout_cache_stats();
    let tc = parallax_core::template_cache_stats();
    eprintln!(
        "layout cache: len {} weight {}/{} hits {} misses {} evictions {}",
        lc.len, lc.weight, lc.capacity, lc.hits, lc.misses, lc.evictions
    );
    eprintln!(
        "tmpl cache:   len {} weight {}/{} hits {} misses {} evictions {}",
        tc.len, tc.weight, tc.capacity, tc.hits, tc.misses, tc.evictions
    );

    // Opt-in registry dump: everything the run recorded (stage timers,
    // compile stats, cache gauges) in Prometheus text exposition.
    if metrics {
        println!("== Metrics registry (Prometheus text exposition) ==");
        print!("{}", parallax_trace::render_prometheus());
    }

    // The Chrome trace export goes last so it captures every span of the
    // run; its summary goes to stderr so a traced run's *stdout* stays
    // byte-identical to an untraced one (the determinism contract).
    if let Some(path) = trace_path {
        let events = parallax_trace::snapshot_events();
        let json = parallax_trace::export_chrome(&events);
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("[experiments] cannot write trace file {path}: {e}");
            std::process::exit(1);
        }
        let dropped = parallax_trace::dropped_events();
        eprintln!(
            "[experiments] wrote {} spans to {path} (open in chrome://tracing or Perfetto){}",
            events.len(),
            if dropped > 0 {
                format!("; {dropped} dropped by the ring buffer")
            } else {
                String::new()
            }
        );
    }
}
