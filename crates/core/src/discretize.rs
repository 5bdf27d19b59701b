//! Step 2: discretize the annealed layout onto the machine's site grid.
//!
//! Section II-A: the `[0,1]^2` positions from GRAPHINE are snapped to grid
//! sites whose pitch is twice the minimum separation plus padding. When the
//! ideal site is taken (or the machine is small relative to the circuit),
//! the atom goes to the nearest free site — the paper notes this is exactly
//! what degrades TFIM-128 on the 256-site machine.

use parallax_circuit::Circuit;
use parallax_graphine::{connecting_radius, GraphineLayout, InteractionGraph};
use parallax_hardware::{AtomArray, MachineSpec};

/// Result of discretization: a populated atom array (all atoms in the SLM)
/// plus the interaction radius in µm.
#[derive(Debug, Clone)]
pub struct DiscretizedLayout {
    /// Atom array with every circuit qubit placed in an SLM site.
    pub array: AtomArray,
    /// Rydberg interaction radius, µm, recomputed over the discretized
    /// positions so the placed atoms always form a connected graph.
    pub interaction_radius_um: f64,
}

/// Snap the annealed layout onto `spec`'s grid.
///
/// Qubits are placed in descending order of weighted interaction degree so
/// the busiest atoms win contended sites (their placement matters most for
/// avoiding movement).
pub fn discretize(
    circuit: &Circuit,
    layout: &GraphineLayout,
    spec: MachineSpec,
) -> DiscretizedLayout {
    discretize_graph(&InteractionGraph::from_circuit(circuit), layout, spec)
}

/// [`discretize`] from the circuit's interaction graph, for callers that
/// already built it (a full compile builds it once, to key the layout
/// cache, and hands it on here).
pub(crate) fn discretize_graph(
    graph: &InteractionGraph,
    layout: &GraphineLayout,
    spec: MachineSpec,
) -> DiscretizedLayout {
    let n = graph.num_qubits;
    assert_eq!(layout.positions.len(), n, "layout/circuit qubit-count mismatch");
    let mut array = AtomArray::new(spec, n);

    let adj = graph.csr();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        adj.degree(b as usize).partial_cmp(&adj.degree(a as usize)).unwrap().then(a.cmp(&b))
    });

    // Compact the annealed layout onto a sub-grid sized to the circuit:
    // a q-qubit circuit needs ~2*sqrt(q) sites per side, leaving the rest
    // of the machine free for replicated logical shots (Section II-E). The
    // unit-square layout is normalized to its bounding box first so the
    // relative structure survives the rescale.
    let target_dim = ((2.0 * (n as f64).sqrt()).ceil() as usize + 1).min(spec.grid_dim).max(2);
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &layout.positions {
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    let span_x = (max_x - min_x).max(1e-9);
    let span_y = (max_y - min_y).max(1e-9);
    let scale = (target_dim - 1) as f64;

    for &q in &order {
        let (x, y) = layout.positions[q as usize];
        let nx = (x - min_x) / span_x;
        let ny = (y - min_y) / span_y;
        let target = ((nx * scale).round() as u16, (ny * scale).round() as u16);
        let site = array
            .grid()
            .nearest_free_site(target)
            .expect("machine has at least as many sites as qubits");
        array.place_in_slm(q, site);
    }

    let points: Vec<(f64, f64)> = (0..n as u32)
        .map(|q| {
            let p = array.position(q);
            (p.x, p.y)
        })
        .collect();
    // The scaled annealed radius is the "ideal" choice (scaled to the
    // compacted sub-grid); the discretized MST radius guarantees
    // connectivity after snapping; a one-pitch floor lets grid neighbours
    // always interact.
    let scaled = layout.interaction_radius / span_x.max(span_y) * scale * array.grid().pitch_um();
    let mst = connecting_radius(&points);
    let interaction_radius_um = scaled.max(mst).max(array.grid().pitch_um());

    DiscretizedLayout { array, interaction_radius_um }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_circuit::CircuitBuilder;
    use parallax_graphine::PlacementConfig;

    fn chain_circuit(n: usize) -> Circuit {
        let mut b = CircuitBuilder::new(n);
        for i in 0..(n as u32 - 1) {
            b.cx(i, i + 1);
        }
        b.build()
    }

    fn layout_for(c: &Circuit, seed: u64) -> GraphineLayout {
        GraphineLayout::generate(c, &PlacementConfig::quick(seed))
    }

    #[test]
    fn all_atoms_placed_without_violations() {
        let c = chain_circuit(6);
        let d = discretize(&c, &layout_for(&c, 1), MachineSpec::quera_aquila_256());
        assert_eq!(d.array.grid().occupied_count(), 6);
        assert!(d.array.validate().is_empty());
        for q in 0..6 {
            assert!(!d.array.is_aod(q));
        }
    }

    #[test]
    fn radius_keeps_discretized_atoms_connected() {
        let c = chain_circuit(8);
        let d = discretize(&c, &layout_for(&c, 2), MachineSpec::quera_aquila_256());
        let pts: Vec<(f64, f64)> = (0..8u32)
            .map(|q| {
                let p = d.array.position(q);
                (p.x, p.y)
            })
            .collect();
        assert!(parallax_graphine::is_geometrically_connected(&pts, d.interaction_radius_um));
    }

    #[test]
    fn radius_at_least_one_pitch() {
        let c = chain_circuit(3);
        let d = discretize(&c, &layout_for(&c, 3), MachineSpec::quera_aquila_256());
        assert!(d.interaction_radius_um >= d.array.grid().pitch_um());
    }

    #[test]
    fn collisions_spill_to_nearest_free_site() {
        // A layout that puts every qubit at the same normalized point.
        let c = chain_circuit(5);
        let layout = GraphineLayout {
            positions: vec![(0.5, 0.5); 5],
            interaction_radius: 0.0,
            energy: 0.0,
            anneal_evals: 0,
        };
        let d = discretize(&c, &layout, MachineSpec::quera_aquila_256());
        assert_eq!(d.array.grid().occupied_count(), 5);
        assert!(d.array.validate().is_empty());
        // A degenerate (single-point) layout compacts to the grid origin;
        // all five spill to a tight cluster there.
        for q in 0..5u32 {
            let p = d.array.position(q);
            let centre = d.array.grid().site_position((0, 0));
            assert!(p.distance(&centre) <= 2.0 * d.array.grid().pitch_um() * 1.5);
        }
    }

    #[test]
    fn dense_circuit_fills_small_machine() {
        // 256 qubits on the 256-site machine: every site used.
        let c = chain_circuit(256);
        let layout = GraphineLayout {
            positions: (0..256).map(|i| ((i % 16) as f64 / 15.0, (i / 16) as f64 / 15.0)).collect(),
            interaction_radius: 1.0 / 15.0,
            energy: 0.0,
            anneal_evals: 0,
        };
        let d = discretize(&c, &layout, MachineSpec::quera_aquila_256());
        assert_eq!(d.array.grid().occupied_count(), 256);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_layout_panics() {
        let c = chain_circuit(4);
        let layout = GraphineLayout {
            positions: vec![(0.1, 0.1)],
            interaction_radius: 0.0,
            energy: 0.0,
            anneal_evals: 0,
        };
        let _ = discretize(&c, &layout, MachineSpec::quera_aquila_256());
    }
}
