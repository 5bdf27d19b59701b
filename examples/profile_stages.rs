//! Per-stage compile profiling for one workload: compiles it N times and
//! prints the stage table. The pipeline stages count on every compile; the
//! scheduler sub-stage rows count through their spans, so this turns span
//! tracing on for the process (no env var needed). This is the
//! measurement behind the scheduler-stage numbers in ROADMAP.md:
//!
//! ```text
//! cargo run --release --example profile_stages -- TFIM 10
//! ```
//!
//! The first compile anneals (cold layout); later ones hit the layout
//! cache, so with N > 1 the `schedule` row's mean is the warm serving cost.

use parallax_core::{profile, CompilerConfig, ParallaxCompiler};
use parallax_hardware::MachineSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("TFIM");
    let samples: usize = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(10);
    let bench = parallax_workloads::benchmark(name).unwrap_or_else(|| {
        eprintln!("unknown workload {name:?}");
        std::process::exit(2);
    });
    let circuit = bench.circuit(0);
    let placement = parallax_bench::placement_for(bench.qubits, 0);
    let config = CompilerConfig { placement, ..CompilerConfig::default() };
    let compiler = ParallaxCompiler::new(MachineSpec::atom_1225(), config);

    // Trace so the scheduler sub-stage rows fill in too.
    parallax_trace::set_enabled(true);
    for _ in 0..samples {
        let r = compiler.compile(&circuit);
        assert_eq!(r.cz_count(), circuit.cz_count());
    }
    println!(
        "== {} ({} qubits) x {samples} compiles on Atom-1225 ==\n{}",
        bench.name,
        bench.qubits,
        profile::render()
    );
}
