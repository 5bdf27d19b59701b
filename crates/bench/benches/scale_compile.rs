//! `scale/*` benches: the post-placement cold pipeline at fleet scale.
//!
//! Each iteration re-jitters the layout with a fresh seed, so the
//! discretized array (and every layout-cache fingerprint) differs and
//! the compiler pays the genuinely cold path — this is the data-layout
//! trajectory bench for the SoA/CSR core. CI's smoke step runs it at
//! `PARALLAX_BENCH_SAMPLES=1` (one Synthetic-2048 cold compile) under the
//! absolute baseline backstop; the committed baseline is recorded at 10
//! samples.

use criterion::{criterion_group, criterion_main, Criterion};
use parallax_bench::scale::scale_cold_compile;
use parallax_hardware::MachineSpec;

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    for (machine, qubits) in
        [(MachineSpec::atom_1225(), 1000usize), (MachineSpec::synthetic_grid(46), 2000)]
    {
        let mut seed = 0u64;
        group.bench_function(format!("cold_compile/{}", machine.name), |b| {
            b.iter(|| {
                seed = seed.wrapping_add(1);
                scale_cold_compile(machine, qubits, seed)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
