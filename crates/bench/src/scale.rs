//! Fleet-scale cold-compile measurement (`experiments scale` and the
//! `scale/*` benches).
//!
//! The annealed placement objective is O(q²) per full evaluation, so a
//! paper-fidelity anneal at 4,096 qubits would dwarf every other stage and
//! measure nothing the data-layout work touches. Scale mode therefore hands
//! the compiler a deterministic jittered-grid layout and measures the
//! **post-placement cold pipeline** — interaction-graph build,
//! discretization, AOD selection, and Algorithm 1 scheduling — which is
//! exactly where the SoA/CSR layouts live. Every sample re-jitters the
//! layout with a fresh seed, so the discretized array differs, every
//! layout-cache key misses, and each sample pays the full cold path.

use parallax_circuit::{Circuit, CircuitBuilder};
use parallax_core::{CompilationResult, CompilerConfig, ParallaxCompiler};
use parallax_graphine::{GraphineLayout, PlacementConfig};
use parallax_hardware::MachineSpec;

/// The machine arms scale mode exercises: the paper's largest machine plus
/// the two synthetic fleet-scale grids, each near capacity.
pub fn scale_arms() -> Vec<(MachineSpec, usize)> {
    vec![
        (MachineSpec::atom_1225(), 1000),
        (MachineSpec::synthetic_grid(46), 2000),
        (MachineSpec::synthetic_grid(64), 4000),
    ]
}

/// Deterministic ring-plus-chords circuit on `qubits`: an H layer, the
/// TFIM-style nearest-neighbour CZ ring, periodic vertical chords one grid
/// stride away, a few cross-machine chords that force long AOD moves, and
/// a closing H layer. The structure is fixed per qubit count so arms stay
/// comparable; cold-path cache misses come from the layout jitter instead.
pub fn scale_circuit(qubits: usize) -> Circuit {
    assert!(qubits >= 4, "scale circuits start at 4 qubits");
    let n = qubits as u32;
    let stride = (qubits as f64).sqrt().ceil() as u32;
    let mut b = CircuitBuilder::new(qubits);
    for q in 0..n {
        b.h(q);
    }
    for q in (0..n - 1).step_by(2) {
        b.cz(q, q + 1);
    }
    for q in (1..n - 1).step_by(2) {
        b.cz(q, q + 1);
    }
    for q in (0..n.saturating_sub(stride)).step_by(7) {
        b.cz(q, q + stride);
    }
    for q in (0..n / 2).step_by(97) {
        b.cz(q, q + n / 2);
    }
    for q in 0..n {
        b.h(q);
    }
    b.build()
}

/// Deterministic jittered-grid layout in `[0,1]²`: qubit `i` sits near
/// grid cell `(i % side, i / side)` with a ±0.45-cell xorshift jitter
/// keyed by `seed`. The jitter never flips a cell on its own, but
/// discretization renormalizes the bounding box, so per-seed rounding
/// flips make each seed's snapped array (and therefore every
/// layout-cache fingerprint) distinct.
pub fn scale_layout(qubits: usize, seed: u64) -> GraphineLayout {
    let side = (qubits as f64).sqrt().ceil().max(2.0) as usize;
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x2545_f491_4f6c_dd1d);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let scale = 1.0 / (side - 1).max(1) as f64;
    let positions = (0..qubits)
        .map(|i| {
            let (gx, gy) = ((i % side) as f64, (i / side) as f64);
            let jx = (next() - 0.5) * 0.9;
            let jy = (next() - 0.5) * 0.9;
            ((gx + jx) * scale, (gy + jy) * scale)
        })
        .collect();
    GraphineLayout {
        positions,
        interaction_radius: 1.3 * scale,
        energy: 0.0,
        anneal_evals: 0,
        anneal_allocs: 0,
    }
}

/// One cold compile of the scale circuit on `machine`: wall milliseconds
/// plus the result (for shape sanity and byte-level comparisons).
pub fn scale_cold_compile(
    machine: MachineSpec,
    qubits: usize,
    seed: u64,
) -> (f64, CompilationResult) {
    let circuit = scale_circuit(qubits);
    let layout = scale_layout(qubits, seed);
    let config =
        CompilerConfig { seed, placement: PlacementConfig::quick(seed), ..Default::default() };
    let compiler = ParallaxCompiler::new(machine, config);
    let t0 = std::time::Instant::now();
    let result = compiler.compile_with_layout(&circuit, &layout);
    (t0.elapsed().as_secs_f64() * 1e3, result)
}

/// `experiments scale` rows: per machine arm, `samples` cold compiles at
/// distinct seeds. Wall-clock columns, so this mode stays outside `all`
/// (like `sweep-restarts`); the shape columns are seed-stable.
pub fn scale_rows(samples: usize, seed: u64) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers =
        vec!["Machine", "Sites", "Qubits", "Samples", "Mean (ms)", "Min (ms)", "Layers", "Moves"];
    let mut data = Vec::new();
    for (machine, qubits) in scale_arms() {
        let mut times = Vec::with_capacity(samples);
        let (mut layers, mut moves) = (0usize, 0usize);
        for s in 0..samples as u64 {
            let (ms, result) =
                scale_cold_compile(machine, qubits, seed ^ s.wrapping_mul(0x9e37_79b9));
            times.push(ms);
            layers = result.schedule.layers.len();
            moves = result.schedule.stats.moves_planned;
        }
        let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        data.push(vec![
            machine.name.to_string(),
            machine.num_sites().to_string(),
            qubits.to_string(),
            samples.to_string(),
            format!("{mean:.1}"),
            format!("{min:.1}"),
            layers.to_string(),
            moves.to_string(),
        ]);
    }
    (headers, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_circuit_is_deterministic_and_shaped() {
        let a = scale_circuit(100);
        let b = scale_circuit(100);
        assert_eq!(a, b);
        assert_eq!(a.num_qubits(), 100);
        // Two H layers plus the CZ ring at minimum.
        assert!(a.len() > 250, "len {}", a.len());
        assert!(a.cz_count() >= 99);
    }

    #[test]
    fn scale_layout_jitters_by_seed_but_stays_in_unit_square() {
        let a = scale_layout(200, 1);
        let b = scale_layout(200, 1);
        let c = scale_layout(200, 2);
        assert_eq!(a, b, "same seed, same layout");
        assert_ne!(a.positions, c.positions, "seed must move positions");
        for &(x, y) in &a.positions {
            assert!((-0.1..=1.1).contains(&x) && (-0.1..=1.1).contains(&y), "({x},{y})");
        }
    }

    #[test]
    fn small_scale_compile_works_cold() {
        // A miniature arm (the real arms are release-bench material): the
        // cold pipeline must produce a valid schedule on a synthetic grid.
        let (ms, result) = scale_cold_compile(MachineSpec::synthetic_grid(8), 36, 3);
        assert!(ms >= 0.0);
        assert!(!result.schedule.layers.is_empty());
        assert_eq!(result.cz_count(), scale_circuit(36).cz_count());
    }

    #[test]
    fn distinct_seeds_discretize_to_distinct_arrays() {
        // The cold-path premise: per-seed jitter must change the snapped
        // array, otherwise later samples would warm-start from the plan
        // cache and the "cold mean" would be a lie.
        let a = scale_cold_compile(MachineSpec::synthetic_grid(8), 36, 10).1;
        let b = scale_cold_compile(MachineSpec::synthetic_grid(8), 36, 11).1;
        assert_ne!(a.home_positions, b.home_positions, "jitter failed to move any atom");
    }
}
