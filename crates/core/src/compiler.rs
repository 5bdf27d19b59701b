//! The four-step Parallax pipeline (Fig. 4).

use crate::aod_select::{select_aod_qubits, AodSelection};
use crate::config::CompilerConfig;
use crate::discretize::{discretize, discretize_graph, DiscretizedLayout};
use crate::profile::{self, Stage};
use crate::scheduler::{schedule_gates, Schedule};
use parallax_circuit::Circuit;
use parallax_graphine::{GraphineLayout, InteractionGraph};
use parallax_hardware::{MachineSpec, Point};

/// The output of a Parallax compilation.
#[derive(Debug, Clone)]
pub struct CompilationResult {
    /// Machine the circuit was compiled for.
    pub machine: MachineSpec,
    /// Rydberg interaction radius used, µm.
    pub interaction_radius_um: f64,
    /// The executable schedule with statistics.
    pub schedule: Schedule,
    /// Which qubits were placed in the AOD.
    pub aod_selection: AodSelection,
    /// Home positions of all atoms after AOD selection (µm).
    pub home_positions: Vec<Point>,
    /// Number of circuit qubits.
    pub num_qubits: usize,
}

impl CompilationResult {
    /// Executed CZ count — the paper's primary metric. Parallax adds zero
    /// SWAPs, so this equals the input circuit's CZ count.
    pub fn cz_count(&self) -> usize {
        self.schedule.stats.cz_count
    }

    /// Executed U3 count.
    pub fn u3_count(&self) -> usize {
        self.schedule.stats.u3_count
    }

    /// Trap-change fraction relative to CZ gates (the paper reports ~1.3%
    /// across its benchmark suite).
    pub fn trap_change_rate(&self) -> f64 {
        if self.cz_count() == 0 {
            0.0
        } else {
            self.schedule.stats.trap_changes as f64 / self.cz_count() as f64
        }
    }

    /// Bounding box of the atom footprint in grid sites `(width, height)`,
    /// used to decide how many circuit copies fit on the machine.
    pub fn footprint_sites(&self) -> (usize, usize) {
        if self.home_positions.is_empty() {
            return (0, 0);
        }
        let pitch = self.machine.site_pitch_um();
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in &self.home_positions {
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        let w = ((max_x - min_x) / pitch).round() as usize + 1;
        let h = ((max_y - min_y) / pitch).round() as usize + 1;
        (w, h)
    }
}

/// The Parallax compiler for a fixed machine and configuration.
#[derive(Debug, Clone)]
pub struct ParallaxCompiler {
    machine: MachineSpec,
    config: CompilerConfig,
}

/// A cheap, shareable compiler handle: [`ParallaxCompiler`] is immutable
/// after construction and `compile` takes `&self`, so one instance behind an
/// `Arc` can serve any number of worker threads concurrently.
pub type SharedCompiler = std::sync::Arc<ParallaxCompiler>;

impl ParallaxCompiler {
    /// Create a compiler for `machine` with `config`.
    pub fn new(machine: MachineSpec, config: CompilerConfig) -> Self {
        crate::register_observability();
        Self { machine, config }
    }

    /// Create a compiler wrapped for sharing across threads (the handle the
    /// compile service's worker pool clones per job).
    pub fn shared(machine: MachineSpec, config: CompilerConfig) -> SharedCompiler {
        std::sync::Arc::new(Self::new(machine, config))
    }

    /// Wrap this compiler into a [`SharedCompiler`] handle.
    pub fn into_shared(self) -> SharedCompiler {
        std::sync::Arc::new(self)
    }

    /// The machine this compiler targets.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// The configuration this compiler applies.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// Stable fingerprint of the (machine, config) pair; combined with a
    /// stable circuit hash it content-addresses a compilation, since equal
    /// fingerprints plus equal circuits give bit-identical results.
    pub fn fingerprint(&self) -> u64 {
        let mut h = parallax_hardware::StableHasher::new();
        h.write_u64(self.machine.fingerprint()).write_u64(self.config.fingerprint());
        h.finish()
    }

    /// Compile `circuit` end to end: GRAPHINE placement (step 1),
    /// discretization (step 2), AOD selection (step 3), scheduling (step 4).
    ///
    /// Placement goes through the process-wide [`crate::layout_cache`]: a
    /// submission that differs from a previous one only in scheduling
    /// knobs (or an exact repeat from a fresh compiler) skips the anneal
    /// and re-runs only the cheap downstream stages. Cached layouts are
    /// bit-identical to fresh anneals, so results never depend on the
    /// cache's state.
    pub fn compile(&self, circuit: &Circuit) -> CompilationResult {
        let (graph, layout) =
            crate::layout_cache::cached_layout_and_graph(circuit, &self.config.placement);
        self.compile_placed(circuit, Some(&graph), &layout)
    }

    /// Compile with a pre-computed GRAPHINE layout (mirrors the paper's CLI
    /// option to load pre-obtained Graphine results and skip annealing).
    pub fn compile_with_layout(
        &self,
        circuit: &Circuit,
        layout: &GraphineLayout,
    ) -> CompilationResult {
        self.compile_placed(circuit, None, layout)
    }

    /// Steps 2-4 after placement. `graph` is the circuit's interaction
    /// graph when the caller already built it; otherwise discretization
    /// builds it (inside its stage, where it is timed).
    fn compile_placed(
        &self,
        circuit: &Circuit,
        graph: Option<&InteractionGraph>,
        layout: &GraphineLayout,
    ) -> CompilationResult {
        // The root span lives here, not in `compile`, so every entry point
        // — full compiles, pre-placed bench runs, template structure
        // compiles — traces the same `compile → stage.*` tree. Placement
        // (`stage.placement`, inside the layout cache) precedes this call
        // in `compile` and records as a sibling root of the same trace.
        let _root = parallax_trace::span!("compile");
        let t = profile::stage(Stage::Discretize);
        let mut disc: DiscretizedLayout = match graph {
            Some(graph) => discretize_graph(graph, layout, self.machine),
            None => discretize(circuit, layout, self.machine),
        };
        drop(t);
        let t = profile::stage(Stage::AodSelect);
        let aod_selection = select_aod_qubits(circuit, &mut disc, &self.config);
        drop(t);
        let home_positions: Vec<Point> =
            (0..circuit.num_qubits() as u32).map(|q| disc.array.position(q)).collect();
        let t = profile::stage(Stage::Schedule);
        let schedule = schedule_gates(circuit, &mut disc, &aod_selection, &self.config);
        drop(t);
        CompilationResult {
            machine: self.machine,
            interaction_radius_um: disc.interaction_radius_um,
            schedule,
            aod_selection,
            home_positions,
            num_qubits: circuit.num_qubits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_circuit::{CircuitBuilder, DependencyDag};

    fn ghz(n: usize) -> Circuit {
        let mut b = CircuitBuilder::new(n);
        b.h(0);
        for i in 0..(n as u32 - 1) {
            b.cx(i, i + 1);
        }
        b.build()
    }

    #[test]
    fn end_to_end_ghz() {
        let c = ghz(5);
        let compiler =
            ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(1));
        let r = compiler.compile(&c);
        assert_eq!(r.cz_count(), c.cz_count());
        assert_eq!(r.u3_count(), c.u3_count());
        assert_eq!(r.schedule.stats.swap_count, 0);
        assert!(DependencyDag::build(&c).respects_order(&r.schedule.gate_order()));
        assert_eq!(r.home_positions.len(), 5);
    }

    #[test]
    fn footprint_is_positive_and_bounded() {
        let c = ghz(6);
        let compiler =
            ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(2));
        let r = compiler.compile(&c);
        let (w, h) = r.footprint_sites();
        assert!(w >= 1 && h >= 1);
        assert!(w <= 16 && h <= 16, "footprint {w}x{h}");
    }

    #[test]
    fn compile_with_layout_reuses_positions() {
        let c = ghz(4);
        let cfg = CompilerConfig::quick(3);
        let layout = GraphineLayout::generate(&c, &cfg.placement);
        let compiler = ParallaxCompiler::new(MachineSpec::quera_aquila_256(), cfg);
        let a = compiler.compile_with_layout(&c, &layout);
        let b = compiler.compile_with_layout(&c, &layout);
        assert_eq!(a.home_positions, b.home_positions);
        assert_eq!(a.schedule.gate_order(), b.schedule.gate_order());
    }

    #[test]
    fn trap_change_rate_is_small_for_local_circuits() {
        let c = ghz(8);
        let compiler =
            ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(4));
        let r = compiler.compile(&c);
        // GHZ chains are nearest-neighbour after a good placement; the
        // trap-change rate should be far below 100%.
        assert!(r.trap_change_rate() < 0.5, "rate {}", r.trap_change_rate());
    }

    #[test]
    fn shared_handle_compiles_from_many_threads() {
        let compiler =
            ParallaxCompiler::shared(MachineSpec::quera_aquila_256(), CompilerConfig::quick(6));
        assert_ne!(compiler.fingerprint(), 0);
        let c = ghz(4);
        let baseline = compiler.compile(&c);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let compiler = compiler.clone();
                let c = &c;
                let baseline = &baseline;
                s.spawn(move || {
                    let r = compiler.compile(c);
                    assert_eq!(r.home_positions, baseline.home_positions);
                    assert_eq!(r.schedule.gate_order(), baseline.schedule.gate_order());
                });
            }
        });
    }

    #[test]
    fn fingerprint_separates_machine_and_config() {
        let quick = CompilerConfig::quick(1);
        let a = ParallaxCompiler::new(MachineSpec::quera_aquila_256(), quick.clone());
        let b = ParallaxCompiler::new(MachineSpec::atom_1225(), quick.clone());
        let c = ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(2));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(
            a.fingerprint(),
            ParallaxCompiler::new(MachineSpec::quera_aquila_256(), quick).fingerprint()
        );
    }

    #[test]
    fn works_on_large_machine() {
        let c = ghz(10);
        let compiler = ParallaxCompiler::new(MachineSpec::atom_1225(), CompilerConfig::quick(5));
        let r = compiler.compile(&c);
        assert_eq!(r.cz_count(), c.cz_count());
        assert_eq!(r.machine.num_sites(), 1225);
    }
}
