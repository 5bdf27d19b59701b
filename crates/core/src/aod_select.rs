//! Step 3: select which atoms to trap in the AOD.
//!
//! Section II-C: each atom is scored by (1) how many of its CZ interactions
//! are out of the Rydberg interaction radius at the initial layout (weight
//! 0.99), and (2) how much Rydberg-blockade serialization it would cause
//! within parallel layers (weight 0.01, a tie-breaker). The top-scoring
//! atoms (at most one per AOD row/column pair) move to the AOD as close to
//! their initial positions as possible; shared row/column coordinates are
//! resolved by recursively nudging rows up and columns right.

use crate::config::CompilerConfig;
use crate::discretize::DiscretizedLayout;
use parallax_circuit::{layers, Circuit, Gate};
use parallax_hardware::{violates_separation, within_blockade, CellGeometry, Point, Trap};

/// Outcome of AOD qubit selection.
#[derive(Debug, Clone)]
pub struct AodSelection {
    /// Qubits now trapped in the AOD, in row order.
    pub selected: Vec<u32>,
    /// Candidates that could not be transferred (kept in the SLM).
    pub dropped: Vec<u32>,
    /// Per-qubit selection score (diagnostic).
    pub scores: Vec<f64>,
}

/// Count, per qubit, CZ interactions whose partners are out of range `r`.
pub fn out_of_range_counts(circuit: &Circuit, layout: &DiscretizedLayout) -> Vec<f64> {
    let mut oor = vec![0.0; circuit.num_qubits()];
    let r = layout.interaction_radius_um;
    for ((a, b), w) in circuit.cz_pair_counts() {
        if layout.array.distance(a, b) > r + 1e-9 {
            oor[a as usize] += w as f64;
            oor[b as usize] += w as f64;
        }
    }
    oor
}

/// Count, per qubit, how often its gate blockades another CZ gate scheduled
/// in the same ASAP layer (at initial positions).
///
/// Each layer's CZ endpoints are bucketed by cell as the layer is walked,
/// so gate `i` tests only the earlier gates with an endpoint in the cells
/// its own endpoints can blockade, instead of every other gate; a per-`i`
/// stamp counts each blockading pair once, exactly as the all-pairs
/// `blockade_interference_counts_naive` does. Every count is a sum of
/// `1.0`s, so the order the pairs are found in cannot change a bit.
pub fn blockade_interference_counts(circuit: &Circuit, layout: &DiscretizedLayout) -> Vec<f64> {
    let mut counts = vec![0.0; circuit.num_qubits()];
    let r = layout.interaction_radius_um;
    let spec = layout.array.spec();
    let factor = spec.blockade_factor;
    let pitch = layout.array.grid().pitch_um();
    // Slack over the blockade radius for `within_blockade`'s `+1e-9`
    // squared-distance epsilon, as in the scheduler's blockade index. The
    // one-pitch floor on the cell keeps `r = 0` from asking for a grid of
    // 1e-3 µm cells.
    let reach = r * factor + 1e-3;
    let cells = CellGeometry::new(spec.extent_um(), pitch, reach.max(pitch));
    let mut buckets: Vec<Vec<(u32, Point)>> = vec![Vec::new(); cells.num_cells()];
    let mut filled: Vec<usize> = Vec::new();
    let mut seen: Vec<u32> = Vec::new();
    let gates = circuit.gates();
    for layer in layers(circuit) {
        let czs: Vec<(u32, u32)> = layer
            .iter()
            .filter_map(|&i| match gates[i] {
                Gate::Cz { a, b } => Some((a, b)),
                _ => None,
            })
            .collect();
        if czs.len() < 2 {
            continue;
        }
        for &cell in &filled {
            buckets[cell].clear();
        }
        filled.clear();
        seen.clear();
        seen.resize(czs.len(), 0);
        // Gate `i` meets only the gates before it in the buckets, then
        // joins them: each unordered pair is tested from one side.
        for (i, &(a1, b1)) in czs.iter().enumerate() {
            let stamp = i as u32 + 1;
            let ends = [layout.array.position(a1), layout.array.position(b1)];
            for p in ends {
                cells.for_each_cell_within(p, reach, |cell| {
                    for &(j, q) in &buckets[cell] {
                        let j = j as usize;
                        if seen[j] != stamp && within_blockade(&p, &q, r, factor) {
                            seen[j] = stamp;
                            let (a2, b2) = czs[j];
                            for qubit in [a1, b1, a2, b2] {
                                counts[qubit as usize] += 1.0;
                            }
                        }
                    }
                });
            }
            for p in ends {
                let cell = cells.cell_of(p);
                if buckets[cell].is_empty() {
                    filled.push(cell);
                }
                buckets[cell].push((i as u32, p));
            }
        }
    }
    #[cfg(debug_assertions)]
    assert_eq!(
        counts,
        blockade_interference_counts_naive(circuit, layout),
        "cell-indexed blockade scores disagree with the all-pairs oracle"
    );
    counts
}

/// The all-pairs scan [`blockade_interference_counts`] replaced, kept as
/// its oracle.
#[cfg(any(test, debug_assertions))]
pub fn blockade_interference_counts_naive(
    circuit: &Circuit,
    layout: &DiscretizedLayout,
) -> Vec<f64> {
    let mut counts = vec![0.0; circuit.num_qubits()];
    let r = layout.interaction_radius_um;
    let factor = layout.array.spec().blockade_factor;
    let gates = circuit.gates();
    for layer in layers(circuit) {
        let czs: Vec<(u32, u32)> = layer
            .iter()
            .filter_map(|&i| match gates[i] {
                Gate::Cz { a, b } => Some((a, b)),
                _ => None,
            })
            .collect();
        for i in 0..czs.len() {
            for j in (i + 1)..czs.len() {
                let (a1, b1) = czs[i];
                let (a2, b2) = czs[j];
                let conflict = [a1, b1].iter().any(|&p| {
                    [a2, b2].iter().any(|&q| {
                        within_blockade(
                            &layout.array.position(p),
                            &layout.array.position(q),
                            r,
                            factor,
                        )
                    })
                });
                if conflict {
                    for q in [a1, b1, a2, b2] {
                        counts[q as usize] += 1.0;
                    }
                }
            }
        }
    }
    counts
}

/// Compute selection scores: `0.99 * norm(out-of-range) + 0.01 * norm(blockade)`.
pub fn selection_scores(
    circuit: &Circuit,
    layout: &DiscretizedLayout,
    config: &CompilerConfig,
) -> Vec<f64> {
    let oor = out_of_range_counts(circuit, layout);
    let blk = blockade_interference_counts(circuit, layout);
    let max_oor = oor.iter().cloned().fold(0.0f64, f64::max).max(1.0);
    let max_blk = blk.iter().cloned().fold(0.0f64, f64::max).max(1.0);
    oor.iter()
        .zip(&blk)
        .map(|(&o, &b)| config.oor_weight * o / max_oor + config.blockade_weight * b / max_blk)
        .collect()
}

/// Select and transfer AOD qubits, mutating `layout.array`.
pub fn select_aod_qubits(
    circuit: &Circuit,
    layout: &mut DiscretizedLayout,
    config: &CompilerConfig,
) -> AodSelection {
    let scores = selection_scores(circuit, layout, config);
    let aod_dim = layout.array.spec().aod_dim;
    let candidates = greedy_cover_selection(circuit, layout, &scores, aod_dim);

    let mut dropped = Vec::new();
    let mut active = candidates.clone();

    // Iterate: compute nudged coordinates for the active set; drop atoms
    // whose coordinates cannot be made valid; retry with the smaller set.
    let coords = loop {
        match resolve_coordinates(&active, layout) {
            Ok(coords) => break coords,
            Err(bad) => {
                active.retain(|&q| q != bad);
                dropped.push(bad);
            }
        }
    };

    // Transfer in row order. Row/col indices are the ranks in the nudged
    // coordinate orders, so ordering always holds at transfer time.
    let mut selected = Vec::with_capacity(active.len());
    for (q, row, col, x, y) in coords {
        match layout.array.transfer_to_aod_at(q, row, col, x, y) {
            Ok(()) => selected.push(q),
            Err(_) => dropped.push(q),
        }
    }
    debug_assert!(layout.array.validate().is_empty());
    AodSelection { selected, dropped, scores }
}

/// Greedy out-of-range-pair coverage: repeatedly select the qubit whose
/// remaining uncovered out-of-range interaction weight is highest (blockade
/// score breaks ties per the paper's 0.99/0.01 weighting), then mark every
/// pair it participates in as covered — one mobile endpoint per pair is all
/// Algorithm 1 needs. This keeps the AOD population small, which is exactly
/// the paper's argument for not placing every atom in the AOD
/// (Section II-B).
fn greedy_cover_selection(
    circuit: &Circuit,
    layout: &DiscretizedLayout,
    scores: &[f64],
    aod_dim: usize,
) -> Vec<u32> {
    let r = layout.interaction_radius_um;
    let mut pairs: Vec<(u32, u32, f64)> = circuit
        .cz_pair_counts()
        .into_iter()
        .filter(|&((a, b), _)| layout.array.distance(a, b) > r + 1e-9)
        .map(|((a, b), w)| (a, b, w as f64))
        .collect();
    let mut selected = Vec::new();
    while selected.len() < aod_dim && !pairs.is_empty() {
        let mut weight = vec![0.0f64; circuit.num_qubits()];
        for &(a, b, w) in &pairs {
            weight[a as usize] += w;
            weight[b as usize] += w;
        }
        let best = (0..circuit.num_qubits() as u32)
            .filter(|&q| weight[q as usize] > 0.0 && !selected.contains(&q))
            .max_by(|&a, &b| {
                weight[a as usize]
                    .partial_cmp(&weight[b as usize])
                    .unwrap()
                    .then(scores[a as usize].partial_cmp(&scores[b as usize]).unwrap())
                    .then(b.cmp(&a))
            });
        let Some(q) = best else { break };
        selected.push(q);
        pairs.retain(|&(a, b, _)| a != q && b != q);
    }
    selected
}

type ResolvedCoords = Vec<(u32, u16, u16, f64, f64)>;

/// Compute per-atom AOD coordinates: rows in y-rank order nudged upward,
/// columns in x-rank order nudged rightward, plus separation repair against
/// static SLM atoms. Returns `Err(q)` naming an atom to drop when repair
/// cannot converge within bounds.
fn resolve_coordinates(active: &[u32], layout: &DiscretizedLayout) -> Result<ResolvedCoords, u32> {
    let array = &layout.array;
    let gap = array.line_gap();
    let min_sep = array.spec().min_separation_um;
    let max_coord = array.spec().extent_um() + array.grid().pitch_um();

    // y ranks -> row indices.
    let mut by_y: Vec<u32> = active.to_vec();
    by_y.sort_by(|&a, &b| {
        let (pa, pb) = (array.position(a), array.position(b));
        pa.y.partial_cmp(&pb.y).unwrap().then(pa.x.partial_cmp(&pb.x).unwrap()).then(a.cmp(&b))
    });
    let mut ys: Vec<f64> = by_y.iter().map(|&q| array.position(q).y).collect();
    cascade(&mut ys, gap);

    // x ranks -> column indices.
    let mut by_x: Vec<u32> = active.to_vec();
    by_x.sort_by(|&a, &b| {
        let (pa, pb) = (array.position(a), array.position(b));
        pa.x.partial_cmp(&pb.x).unwrap().then(pa.y.partial_cmp(&pb.y).unwrap()).then(a.cmp(&b))
    });
    let mut xs: Vec<f64> = by_x.iter().map(|&q| array.position(q).x).collect();
    cascade(&mut xs, gap);

    let row_of = |q: u32| by_y.iter().position(|&v| v == q).unwrap();
    let col_of = |q: u32| by_x.iter().position(|&v| v == q).unwrap();

    // Static atoms the selection must avoid: everything not being moved.
    let statics: Vec<Point> = (0..array.num_qubits() as u32)
        .filter(|q| !active.contains(q))
        .filter(|&q| matches!(array.trap(q), Some(Trap::Slm(_))))
        .map(|q| array.position(q))
        .collect();

    // Separation repair: push the offending atom's column right (the
    // "chosen direction" rule) and re-cascade; bounded retries.
    for _ in 0..32 {
        let mut violator: Option<u32> = None;
        'scan: for &q in active {
            let p = Point::new(xs[col_of(q)], ys[row_of(q)]);
            for s in &statics {
                if violates_separation(&p, s, min_sep) {
                    violator = Some(q);
                    break 'scan;
                }
            }
        }
        let Some(q) = violator else {
            // All clear; also verify bounds.
            for &q in active {
                if xs[col_of(q)] > max_coord || ys[row_of(q)] > max_coord {
                    return Err(q);
                }
            }
            let coords = active
                .iter()
                .map(|&q| (q, row_of(q) as u16, col_of(q) as u16, xs[col_of(q)], ys[row_of(q)]))
                .collect();
            return Ok(coords);
        };
        let c = col_of(q);
        xs[c] += gap * 0.5;
        cascade(&mut xs, gap);
        if xs[c] > max_coord {
            return Err(q);
        }
    }
    // Did not converge: drop the first active atom that still violates.
    for &q in active {
        let p = Point::new(xs[col_of(q)], ys[row_of(q)]);
        if statics.iter().any(|s| violates_separation(&p, s, min_sep)) {
            return Err(q);
        }
    }
    Err(active[0])
}

/// Forward cascade: make `coords` strictly increasing with at least `gap`
/// between consecutive entries, only ever pushing values up (the paper's
/// "always move the rows up" recursion).
fn cascade(coords: &mut [f64], gap: f64) {
    for i in 1..coords.len() {
        if coords[i] < coords[i - 1] + gap {
            coords[i] = coords[i - 1] + gap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretize::discretize;
    use parallax_circuit::CircuitBuilder;
    use parallax_graphine::{GraphineLayout, PlacementConfig};
    use parallax_hardware::MachineSpec;

    fn setup(n: usize, build: impl Fn(&mut CircuitBuilder)) -> (Circuit, DiscretizedLayout) {
        let mut b = CircuitBuilder::new(n);
        build(&mut b);
        let c = b.build();
        let layout = GraphineLayout::generate(&c, &PlacementConfig::quick(1));
        let d = discretize(&c, &layout, MachineSpec::quera_aquila_256());
        (c, d)
    }

    #[test]
    fn cascade_enforces_gaps() {
        let mut v = vec![1.0, 1.0, 2.0, 10.0];
        cascade(&mut v, 3.0);
        assert_eq!(v, vec![1.0, 4.0, 7.0, 10.0]);
    }

    #[test]
    fn no_out_of_range_interactions_means_no_selection() {
        // A 2-qubit circuit: the two atoms are within radius by construction.
        let (c, mut d) = setup(2, |b| {
            b.cx(0, 1);
        });
        // Force a generous radius so nothing is out of range.
        d.interaction_radius_um = 1e6;
        let sel = select_aod_qubits(&c, &mut d, &CompilerConfig::quick(0));
        assert!(sel.selected.is_empty());
        assert!(sel.dropped.is_empty());
    }

    #[test]
    fn out_of_range_counts_use_distance() {
        let (c, mut d) = setup(4, |b| {
            b.cx(0, 1).cx(2, 3).cx(0, 3);
        });
        d.interaction_radius_um = 0.0; // everything out of range
        let oor = out_of_range_counts(&c, &d);
        assert_eq!(oor.iter().sum::<f64>() as usize, 6); // 3 pairs x 2 endpoints
        assert!(oor[0] >= 2.0);
    }

    #[test]
    fn selection_respects_aod_capacity() {
        // Star circuit: centre interacts with many leaves spread out.
        let (c, mut d) = setup(12, |b| {
            for i in 1..12u32 {
                b.cx(0, i);
            }
        });
        d.interaction_radius_um = d.array.grid().pitch_um(); // tight radius
        let spec_cap = d.array.spec().aod_dim;
        let sel = select_aod_qubits(&c, &mut d, &CompilerConfig::quick(0));
        assert!(sel.selected.len() <= spec_cap);
        assert!(!sel.selected.is_empty());
        assert!(d.array.validate().is_empty());
    }

    #[test]
    fn selected_atoms_are_in_aod_and_near_home() {
        let (c, mut d) = setup(8, |b| {
            b.cx(0, 7).cx(1, 6).cx(2, 5);
        });
        d.interaction_radius_um = d.array.grid().pitch_um();
        let homes: Vec<Point> = (0..8u32).map(|q| d.array.position(q)).collect();
        let sel = select_aod_qubits(&c, &mut d, &CompilerConfig::quick(0));
        for &q in &sel.selected {
            assert!(d.array.is_aod(q));
            // "as close to their initial locations as possible"
            let drift = d.array.position(q).distance(&homes[q as usize]);
            assert!(drift < 4.0 * d.array.grid().pitch_um(), "drift {drift} µm for q{q}");
        }
    }

    #[test]
    fn scores_weight_oor_over_blockade() {
        let (c, mut d) = setup(6, |b| {
            b.cx(0, 5).cx(1, 2).cx(3, 4);
        });
        d.interaction_radius_um = 0.0;
        let cfg = CompilerConfig::quick(0);
        let scores = selection_scores(&c, &d, &cfg);
        // Every involved qubit has oor > 0, so every score is close to the
        // 0.99-weighted term.
        for &s in &scores {
            assert!(s <= 1.0 + 1e-9);
        }
        let max = scores.iter().cloned().fold(0.0f64, f64::max);
        assert!(max >= 0.99 - 1e-9);
    }

    #[test]
    fn blockade_counts_flag_colocated_parallel_gates() {
        let (c, d) = setup(4, |b| {
            // Two CZs in the same ASAP layer.
            b.cz(0, 1).cz(2, 3);
        });
        // Any realistic radius: atoms are packed closely, so the pairs
        // blockade each other at 2.5x the radius.
        let blk = blockade_interference_counts(&c, &d);
        assert!(blk.iter().all(|&b| b >= 1.0), "{blk:?}");
    }

    mod cell_index_matches_naive {
        use super::*;
        use proptest::prelude::*;

        /// A random CZ-heavy circuit on `n` qubits discretized from a
        /// random layout, both drawn from one seed.
        fn random_setup(
            n: usize,
            gates: usize,
            seed: u64,
            big: bool,
        ) -> (Circuit, DiscretizedLayout) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut b = CircuitBuilder::new(n);
            for _ in 0..gates {
                let a = (next() % n as u64) as u32;
                let o = (next() % (n as u64 - 1)) as u32;
                if next() % 4 == 0 {
                    b.h(a);
                } else {
                    b.cz(a, (a + 1 + o) % n as u32);
                }
            }
            let unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64;
            let layout = GraphineLayout {
                positions: (0..n).map(|_| (unit(next()), unit(next()))).collect(),
                interaction_radius: 0.2,
                energy: 0.0,
                anneal_evals: 0,
            };
            let spec = if big { MachineSpec::atom_1225() } else { MachineSpec::quera_aquila_256() };
            let c = b.build();
            let d = discretize(&c, &layout, spec);
            (c, d)
        }

        proptest! {
            /// Identical counts to the all-pairs scan, from `r = 0` through
            /// radii past the machine's extent.
            #[test]
            fn on_random_layouts(
                n in 2usize..60,
                gates in 1usize..120,
                seed in 0u64..u64::MAX,
                radius_kind in 0u8..4,
                r_scale in 0.0f64..3.0,
                big in 0u8..2,
            ) {
                let (c, mut d) = random_setup(n, gates, seed, big == 1);
                let pitch = d.array.grid().pitch_um();
                let extent = d.array.spec().extent_um();
                d.interaction_radius_um = match radius_kind {
                    0 => 0.0,
                    1 => r_scale * pitch,
                    2 => extent * (1.0 + r_scale),
                    _ => d.interaction_radius_um,
                };
                prop_assert_eq!(
                    blockade_interference_counts(&c, &d),
                    blockade_interference_counts_naive(&c, &d)
                );
            }
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let build = |b: &mut CircuitBuilder| {
            b.cx(0, 7).cx(1, 6).cx(2, 5).cx(3, 4).cx(0, 4);
        };
        let (c1, mut d1) = setup(8, build);
        let (c2, mut d2) = setup(8, build);
        d1.interaction_radius_um = d1.array.grid().pitch_um();
        d2.interaction_radius_um = d2.array.grid().pitch_um();
        let s1 = select_aod_qubits(&c1, &mut d1, &CompilerConfig::quick(0));
        let s2 = select_aod_qubits(&c2, &mut d2, &CompilerConfig::quick(0));
        assert_eq!(s1.selected, s2.selected);
    }
}
