//! The multi-mover scheduling ablation ([`SchedulingMode::MultiMover`]).
//!
//! The paper's Algorithm 1 commits at most one AOD move batch per layer
//! (lines 16-17); every additional out-of-range gate defers. This module is
//! the ROADMAP item 3 "beyond the paper" arm: a layer may commit *several*
//! move plans when their interference regions are pairwise disjoint, so the
//! parallel motions cannot collide and the moved gates cannot blockade each
//! other when the Rydberg pulse fires. Candidates are ordered by ALAP
//! deadline ([`SlackTable`]): a gate's ALAP level is its static slack plus
//! its ASAP level, so zero-slack gates carry the earliest deadlines of
//! their dependency chain and claim the layer's movement budget first,
//! while slack-rich gates batch opportunistically into whatever disjoint
//! regions remain. Deadlines, unlike raw slack, stay meaningful as the
//! frontier advances: the frontier gate with the smallest ALAP level heads
//! the longest dependency chain still outstanding, even when an earlier
//! ejection has already consumed its nominal slack.
//!
//! A plan's interference region has two parts, checked separately because
//! they act in different phases of the layer:
//!
//! * **Transit** — the movement corridor, the segment each atom of the
//!   plan sweeps. Two corridors must keep the minimum atom separation:
//!   atoms in one AOD batch move simultaneously, and for points `p(t)`,
//!   `q(t)` interpolating along two segments, `|p(t) - q(t)|` is bounded
//!   below by the segment-to-segment distance, so disjoint corridors prove
//!   separation throughout the motion. Blockade does not constrain
//!   transit: no pulse is applied while atoms move.
//! * **Execution** — the Rydberg blockade disc around each atom of the
//!   gate pair at its *final* position. Pairs of distinct committed gates
//!   must be mutually outside the blockade radius
//!   (`r * blockade_factor`), or the downstream ejection pass would kick
//!   one gate out and its move would be wasted.
//!
//! There is one layer loop, [`schedule_gates`]; this module holds only the
//! multi-mover policy's state (`MultiMover`) and its corridor geometry.
//! The loop's incremental frontier, move memo, bucketed blockade pass and
//! batched home return serve both modes, so they differ only in frontier
//! order, mover budget and ejection order, and every paper preset still
//! compiles byte-identically in the default mode.
//!
//! # Corridor disjointness
//!
//! Two move plans conflict when any corridor pair across them comes within
//! the transit clearance (the machine's minimum separation) — measured as
//! segment-to-segment distance — or names the same atom (a plan computed
//! after another committed this layer must not re-move its atoms, or the
//! concatenated layer batch would no longer replay from the layer-start
//! configuration). The fast path buckets committed corridors in a
//! [`CellGeometry`] grid: each corridor is inserted into every cell of its
//! clearance-inflated bounding box, and a candidate queries only the cells
//! of its raw bounding box. Any pair within clearance shares a cell — for
//! points `p`, `q` on the two segments with `|p - q| <` clearance, `p`'s
//! cell lies inside the other corridor's inflated box componentwise — so
//! the bucket sweep is a strict superset of the naive all-pairs predicate.
//! [`moves_conflict_naive`] is that all-pairs predicate, retained under
//! `#[cfg(any(test, debug_assertions))]` per the `docs/DATA_LAYOUT.md`
//! oracle convention; debug builds differentially assert every fast-path
//! decision against it, and the umbrella suite replays compiled schedules
//! through it.
//!
//! [`SchedulingMode::MultiMover`]: crate::config::SchedulingMode::MultiMover
//! [`schedule_gates`]: crate::scheduler::schedule_gates

use crate::discretize::DiscretizedLayout;
use crate::movement::MovePlan;
use parallax_circuit::{Circuit, DependencyDag, Gate, SlackTable};
use parallax_hardware::{
    segment_distance, within_blockade, AodMove, AtomArray, CellGeometry, Point,
};

/// The interference region of one atom's motion within a move plan: the
/// segment it sweeps from its pre-move position to its target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corridor {
    /// The moved atom.
    pub q: u32,
    /// Position before the plan commits, µm.
    pub from: Point,
    /// Move target, µm.
    pub to: Point,
}

/// Whether two corridors interfere: same atom, or swept segments closer
/// than `clearance_um` (the scheduler passes the machine's minimum
/// separation — parallel motions nearer than that could collide
/// mid-flight).
pub fn corridors_conflict(a: &Corridor, b: &Corridor, clearance_um: f64) -> bool {
    a.q == b.q || segment_distance(&a.from, &a.to, &b.from, &b.to) < clearance_um
}

/// Final positions of gate `(a, b)`'s atoms once `plan` commits: a plan
/// move's target if the atom is in the plan (chain pushes can relocate
/// either operand), its current position otherwise.
fn plan_pair(array: &AtomArray, moves: &[AodMove], a: u32, b: u32) -> [Point; 2] {
    let fp = |q: u32| {
        moves
            .iter()
            .find(|m| m.q == q)
            .map(|m| Point::new(m.x, m.y))
            .unwrap_or_else(|| array.position(q))
    };
    [fp(a), fp(b)]
}

/// Whether `pair` lands within the blockade radius of any previously
/// committed gate pair — the ejection pass would then drop one of the two
/// gates, wasting its move.
fn pair_blockaded(pair: &[Point; 2], committed: &[[Point; 2]], r: f64, factor: f64) -> bool {
    committed
        .iter()
        .any(|other| pair.iter().any(|p| other.iter().any(|q| within_blockade(p, q, r, factor))))
}

/// All-pairs conflict test between two move plans' corridor sets — the
/// differential oracle for `CorridorIndex`'s bucketed fast path (same
/// predicate, every pair checked). Kept per the `docs/DATA_LAYOUT.md`
/// oracle-retention convention.
#[cfg(any(test, debug_assertions))]
pub fn moves_conflict_naive(a: &[Corridor], b: &[Corridor], clearance_um: f64) -> bool {
    a.iter().any(|ca| b.iter().any(|cb| corridors_conflict(ca, cb, clearance_um)))
}

/// Bucketed index over the corridors committed so far this layer.
///
/// Insertion covers the corridor's bounding box inflated by the clearance;
/// queries sweep only the candidate's raw bounding box, which the module
/// docs prove sufficient. Buckets are cleared (not freed) per layer, and a
/// per-corridor query stamp dedupes corridors spanning several cells.
struct CorridorIndex {
    cells: CellGeometry,
    clearance_um: f64,
    buckets: Vec<Vec<u32>>,
    occupied: Vec<usize>,
    corridors: Vec<Corridor>,
    /// Last query that visited each corridor (bucket-dedupe stamp).
    seen: Vec<u64>,
    query: u64,
}

impl CorridorIndex {
    fn new(extent_um: f64, margin_um: f64, clearance_um: f64) -> Self {
        let cells = CellGeometry::new(extent_um, margin_um, clearance_um);
        Self {
            buckets: vec![Vec::new(); cells.num_cells()],
            cells,
            clearance_um,
            occupied: Vec::new(),
            corridors: Vec::new(),
            seen: Vec::new(),
            query: 0,
        }
    }

    fn clear(&mut self) {
        for &b in &self.occupied {
            self.buckets[b].clear();
        }
        self.occupied.clear();
        self.corridors.clear();
        self.seen.clear();
    }

    fn bbox(c: &Corridor) -> (Point, Point) {
        (
            Point::new(c.from.x.min(c.to.x), c.from.y.min(c.to.y)),
            Point::new(c.from.x.max(c.to.x), c.from.y.max(c.to.y)),
        )
    }

    fn insert(&mut self, c: Corridor) {
        let id = self.corridors.len() as u32;
        let (min, max) = Self::bbox(&c);
        self.corridors.push(c);
        self.seen.push(0);
        let (buckets, occupied) = (&mut self.buckets, &mut self.occupied);
        self.cells.for_each_cell_in_box(min, max, self.clearance_um, |cell| {
            if buckets[cell].is_empty() {
                occupied.push(cell);
            }
            buckets[cell].push(id);
        });
    }

    /// Whether `c` interferes with any committed corridor.
    fn probe(&mut self, c: &Corridor) -> bool {
        self.query += 1;
        let (min, max) = Self::bbox(c);
        let mut hit = false;
        let (buckets, corridors, seen) = (&self.buckets, &self.corridors, &mut self.seen);
        let (clearance, query) = (self.clearance_um, self.query);
        self.cells.for_each_cell_in_box(min, max, 0.0, |cell| {
            if hit {
                return;
            }
            for &id in &buckets[cell] {
                if seen[id as usize] == query {
                    continue;
                }
                seen[id as usize] = query;
                if corridors_conflict(c, &corridors[id as usize], clearance) {
                    hit = true;
                    return;
                }
            }
        });
        hit
    }

    /// Whether a candidate plan's corridor set interferes with any
    /// committed corridor. Debug builds diff the bucketed answer against
    /// the all-pairs oracle.
    fn conflicts_any(&mut self, candidate: &[Corridor]) -> bool {
        let mut fast = false;
        for c in candidate {
            if self.probe(c) {
                fast = true;
                break;
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            fast,
            moves_conflict_naive(candidate, &self.corridors, self.clearance_um),
            "corridor index disagrees with the all-pairs oracle"
        );
        fast
    }
}

/// The multi-mover layer policy's state: the ALAP deadlines that order the
/// frontier, plus the corridors and final gate pairs committed so far this
/// layer. [`crate::scheduler::schedule_gates`] owns the loop; this type
/// only answers "which frontier order?" and "may this plan commit too?".
pub(crate) struct MultiMover {
    slack: SlackTable,
    corridors: CorridorIndex,
    committed_pairs: Vec<[Point; 2]>,
    /// The last plan checked by [`MultiMover::disjoint`]: its corridors and
    /// its gate's final pair, inserted if that plan commits.
    candidate: Vec<Corridor>,
    pair: [Point; 2],
    r_um: f64,
    blockade_factor: f64,
}

impl MultiMover {
    pub(crate) fn new(circuit: &Circuit, layout: &DiscretizedLayout) -> Self {
        let spec = layout.array.spec();
        Self {
            slack: SlackTable::compute(&DependencyDag::build(circuit)),
            corridors: CorridorIndex::new(
                spec.extent_um(),
                layout.array.grid().pitch_um(),
                spec.min_separation_um,
            ),
            committed_pairs: Vec::new(),
            candidate: Vec::new(),
            pair: [Point::default(); 2],
            r_um: layout.interaction_radius_um,
            blockade_factor: spec.blockade_factor,
        }
    }

    /// Start a layer: forget the previous layer's regions and order the
    /// frontier earliest ALAP deadline first, so the gate heading the
    /// longest outstanding dependency chain claims the movement budget and
    /// blockade space before anything else. Within a deadline class, gates
    /// whose operands are closest go first: their corridors are shortest,
    /// so they foreclose the least area for the candidates after them.
    /// Whole-µm distance buckets keep the order robust; gate index breaks
    /// the remaining ties deterministically.
    pub(crate) fn begin_layer(&mut self, curr: &mut [usize], gates: &[Gate], array: &AtomArray) {
        self.corridors.clear();
        self.committed_pairs.clear();
        curr.sort_unstable_by_key(|&g| {
            let span = match gates[g] {
                Gate::Cz { a, b } => array.distance(a, b) as u64,
                Gate::U3 { .. } => 0,
            };
            (self.slack.alap(g), span, g)
        });
    }

    /// Decide whether gate `(a, b)`'s `plan` may join the layer's committed
    /// plans. If its region meets a committed one, the reverse-mover plan
    /// from `reverse` gets a chance: it starts from a different home, so
    /// its corridor may clear what the forward one crossed. Returns the
    /// plan to commit and records its region, or `None` (a conflict
    /// rejection; the gate defers).
    pub(crate) fn admit(
        &mut self,
        array: &AtomArray,
        plan: MovePlan,
        a: u32,
        b: u32,
        reverse: impl FnOnce() -> Option<MovePlan>,
    ) -> Option<MovePlan> {
        let plan = if self.disjoint(array, &plan, a, b) {
            plan
        } else {
            reverse().filter(|p| self.disjoint(array, p, a, b))?
        };
        // No atom of the plan was moved by an earlier plan this layer (that
        // would be a same-qubit conflict), so its pre-move positions are the
        // layer-start positions and the concatenated layer batch replays
        // from the layer boundary.
        for c in self.candidate.drain(..) {
            self.corridors.insert(c);
        }
        self.committed_pairs.push(self.pair);
        Some(plan)
    }

    /// Whether `plan`'s transit corridors and its gate's final pair are
    /// disjoint from everything committed this layer.
    fn disjoint(&mut self, array: &AtomArray, plan: &MovePlan, a: u32, b: u32) -> bool {
        self.candidate.clear();
        self.candidate.extend(plan.moves.iter().map(|m| Corridor {
            q: m.q,
            from: array.position(m.q),
            to: Point::new(m.x, m.y),
        }));
        self.pair = plan_pair(array, &plan.moves, a, b);
        !self.corridors.conflicts_any(&self.candidate)
            && !pair_blockaded(&self.pair, &self.committed_pairs, self.r_um, self.blockade_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aod_select::select_aod_qubits;
    use crate::config::CompilerConfig;
    use crate::discretize::discretize;
    use crate::scheduler::{schedule_gates, Schedule};
    use parallax_circuit::CircuitBuilder;
    use parallax_graphine::GraphineLayout;
    use parallax_hardware::MachineSpec;

    fn corridor(q: u32, fx: f64, fy: f64, tx: f64, ty: f64) -> Corridor {
        Corridor { q, from: Point::new(fx, fy), to: Point::new(tx, ty) }
    }

    #[test]
    fn conflict_predicate() {
        let a = corridor(0, 0.0, 0.0, 20.0, 0.0);
        // Parallel corridor beyond clearance: disjoint.
        assert!(!corridors_conflict(&a, &corridor(1, 0.0, 9.0, 20.0, 9.0), 5.0));
        // Parallel corridor inside clearance: conflict.
        assert!(corridors_conflict(&a, &corridor(1, 0.0, 4.0, 20.0, 4.0), 5.0));
        // Crossing corridors always conflict.
        assert!(corridors_conflict(&a, &corridor(1, 10.0, -8.0, 10.0, 8.0), 1.0));
        // Same atom conflicts regardless of geometry.
        assert!(corridors_conflict(&a, &corridor(0, 500.0, 500.0, 510.0, 500.0), 1.0));
    }

    #[test]
    fn index_matches_all_pairs_oracle() {
        // LCG-driven corridors across the extent; every probe's bucketed
        // answer must equal the naive all-pairs scan (the debug_assert in
        // conflicts_any re-checks, but assert explicitly for release-mode
        // coverage of this test).
        let extent = 180.0;
        let clearance = 10.0;
        let mut state = 0x5eed_cafe_u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (u32::MAX as f64 / 2.0)) * extent
        };
        let mut index = CorridorIndex::new(extent, 10.0, clearance);
        let mut committed: Vec<Corridor> = Vec::new();
        for i in 0..200u32 {
            let c = corridor(i, next(), next(), next(), next());
            let naive = moves_conflict_naive(std::slice::from_ref(&c), &committed, clearance);
            assert_eq!(index.conflicts_any(std::slice::from_ref(&c)), naive, "corridor {i}");
            if !naive {
                index.insert(c);
                committed.push(c);
            }
        }
        assert!(committed.len() > 2, "degenerate test: everything conflicted");
        // Clearing empties the committed set.
        index.clear();
        assert!(!index.conflicts_any(&[corridor(0, 0.0, 0.0, extent, extent)]));
    }

    fn compile_both(
        n: usize,
        build: impl Fn(&mut CircuitBuilder),
        seed: u64,
    ) -> (Schedule, Schedule) {
        let mut b = CircuitBuilder::new(n);
        build(&mut b);
        let c = b.build();
        let single_cfg = CompilerConfig::quick(seed);
        let multi_cfg = CompilerConfig::quick(seed).with_multi_mover();
        let layout = GraphineLayout::generate(&c, &single_cfg.placement);
        let mut d_single = discretize(&c, &layout, MachineSpec::quera_aquila_256());
        let mut d_multi = d_single.clone();
        let sel = select_aod_qubits(&c, &mut d_single, &single_cfg);
        let sel_multi = select_aod_qubits(&c, &mut d_multi, &multi_cfg);
        let s_single = schedule_gates(&c, &mut d_single, &sel, &single_cfg);
        let s_multi = schedule_gates(&c, &mut d_multi, &sel_multi, &multi_cfg);
        (s_single, s_multi)
    }

    fn ring_workload(b: &mut CircuitBuilder, n: usize, rounds: usize) {
        for _ in 0..rounds {
            for q in 0..n {
                b.h(q as u32);
            }
            for q in 0..n {
                b.cx(q as u32, ((q + 1) % n) as u32);
            }
        }
    }

    #[test]
    fn multi_mover_executes_every_gate_once_and_saves_layers() {
        let n = 24;
        let (s_single, s_multi) = compile_both(n, |b| ring_workload(b, 24, 3), 3);
        // Every gate exactly once.
        let mut order = s_multi.gate_order();
        order.sort_unstable();
        assert_eq!(order, (0..order.len()).collect::<Vec<_>>());
        // Stats wired up.
        assert!(s_multi.stats.multi_mover.enabled);
        assert!(!s_single.stats.multi_mover.enabled);
        assert_eq!(
            s_multi.stats.multi_mover.movers_per_layer.iter().sum::<usize>(),
            s_multi.layers.iter().filter(|l| !l.mover_plans.is_empty()).count(),
        );
        // The whole point of the ablation: no more layers than the default.
        assert!(
            s_multi.stats.layer_count <= s_single.stats.layer_count,
            "multi {} > single {}",
            s_multi.stats.layer_count,
            s_single.stats.layer_count
        );
        // mover_plans boundaries partition the move list.
        for l in &s_multi.layers {
            assert_eq!(l.mover_plans.iter().map(|&k| k as usize).sum::<usize>(), l.moves.len());
        }
    }

    /// Quantum-volume-style rounds: an LCG-shuffled perfect matching of
    /// CZs per round. Random pairings keep distant atoms interacting, so
    /// the multi-mover path finds disjoint-region batches (ring workloads
    /// never batch: consecutive ring CZs blockade each other on a compact
    /// placement).
    fn qv_workload(b: &mut CircuitBuilder, n: usize, rounds: usize) {
        let mut state = 0x51ed_0b5e_u64;
        let mut next = |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for _ in 0..rounds {
            for q in 0..n {
                b.h(q as u32);
            }
            for i in (1..n).rev() {
                perm.swap(i, next(i + 1));
            }
            for pair in perm.chunks_exact(2) {
                b.cx(pair[0], pair[1]);
            }
        }
    }

    /// Compiles `c` in multi-mover mode at `seed`, replays the schedule
    /// layer by layer, and checks every layer's plan set against the
    /// all-pairs oracle. Returns the number of layers that batched more
    /// than one plan.
    fn replay_and_count_multi_layers(c: &Circuit, seed: u64) -> usize {
        let cfg = CompilerConfig::quick(seed).with_multi_mover();
        let layout = GraphineLayout::generate(c, &cfg.placement);
        let mut d = discretize(c, &layout, MachineSpec::quera_aquila_256());
        let sel = select_aod_qubits(c, &mut d, &cfg);
        let mut replay = d.clone();
        let s = schedule_gates(c, &mut d, &sel, &cfg);
        let clearance = replay.array.spec().min_separation_um;

        let mut homes: Vec<Option<Point>> = vec![None; c.num_qubits()];
        let mut multi_layers = 0usize;
        for layer in &s.layers {
            let plans: Vec<Vec<Corridor>> = {
                let mut out = Vec::new();
                let mut offset = 0usize;
                for &k in &layer.mover_plans {
                    let group = &layer.moves[offset..offset + k as usize];
                    out.push(
                        group
                            .iter()
                            .map(|m| Corridor {
                                q: m.q,
                                from: replay.array.position(m.q),
                                to: Point::new(m.x, m.y),
                            })
                            .collect(),
                    );
                    offset += k as usize;
                }
                assert_eq!(offset, layer.moves.len());
                out
            };
            for i in 0..plans.len() {
                for j in i + 1..plans.len() {
                    assert!(
                        !moves_conflict_naive(&plans[i], &plans[j], clearance),
                        "plans {i} and {j} interfere"
                    );
                }
            }
            if plans.len() > 1 {
                multi_layers += 1;
            }
            // The concatenated batch replays from the layer boundary.
            assert!(replay.array.check_aod_moves(&layer.moves).is_empty());
            for m in &layer.moves {
                if homes[m.q as usize].is_none() {
                    homes[m.q as usize] = Some(replay.array.position(m.q));
                }
            }
            replay.array.apply_aod_moves(&layer.moves).unwrap();
            // Home return, as the scheduler does after each layer.
            let returns: Vec<AodMove> = layer
                .moves
                .iter()
                .filter_map(|m| {
                    let home = homes[m.q as usize].unwrap();
                    (replay.array.position(m.q).distance(&home) > 1e-9).then_some(AodMove {
                        q: m.q,
                        x: home.x,
                        y: home.y,
                    })
                })
                .collect();
            replay.array.apply_aod_moves(&returns).unwrap();
        }
        multi_layers
    }

    #[test]
    fn committed_plans_are_pairwise_disjoint() {
        // Replay compiled schedules: per layer, reconstruct each plan's
        // corridors from the layer-start configuration (plans touch
        // disjoint qubits, so pre-move positions are layer-start
        // positions) and check pairwise disjointness with the oracle.
        // Batching depends on the placement's geometry, so sweep a few
        // placement seeds — every compile is replay-verified, and at
        // least one must actually batch for the sweep to prove anything.
        let mut b = CircuitBuilder::new(32);
        qv_workload(&mut b, 32, 6);
        let c = b.build();
        let mut batched = 0usize;
        for seed in 0..5 {
            batched += replay_and_count_multi_layers(&c, seed);
        }
        assert!(batched > 0, "no placement seed ever batched two plans in one layer");
    }
}
