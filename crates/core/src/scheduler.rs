//! Step 4: gate and movement scheduling (Algorithm 1 of the paper).
//!
//! Layers are built greedily from the dependency frontier; out-of-range CZ
//! gates trigger at most one recursive AOD move per layer (others defer);
//! gates whose operands are both static and out of range fall back to a
//! trap change (release/retrap, 100 µs); the layer is shuffled before the
//! Rydberg-blockade interference pass ejects conflicting gates back to the
//! unexecuted list; and moved AOD atoms return to their pre-layer homes
//! after execution (the Fig. 12 ablation toggles this off).
//!
//! [`schedule_gates`] is the one layer loop for both scheduling modes. The
//! multi-mover ablation ([`crate::multi_mover`]) changes three things
//! through a private `LayerPolicy`: frontier order, how many plans a layer
//! may commit, and ejection order. `docs/SCHEDULING.md` records the design.
//!
//! # The hot path
//!
//! On large circuits the scheduler dominates warm-cache compiles, so its
//! per-layer loop is engineered around five structures, each bit-identical
//! to the straightforward implementation it replaces (`schedule_gates_naive`
//! is kept under `#[cfg(any(test, debug_assertions))]` as the oracle, and
//! proptests diff the two on random circuits):
//!
//! * an **incremental dependency frontier** — the ready set is updated from
//!   the qubits whose gate pointer advanced in the previous layer instead
//!   of rescanning every qubit, and emits gates in the same
//!   ascending-qubit order by construction;
//! * a **per-gate trap-change stamp** — each gate's trap change of the
//!   current layer is a `(layer stamp, moved qubit)` pair (8 bytes per
//!   gate), so the range re-check, the effective-position lookup and the
//!   undo on blockade ejection are O(1) instead of linear searches of the
//!   layer's trap-change list (those searches were over half of the
//!   blockade sub-stage on the 1000–4000-qubit scale arms);
//! * a **bucketed blockade pass** — accepted CZ endpoints go into a
//!   uniform grid with blockade-diameter cells, so each candidate gate is
//!   tested only against endpoints in the neighbouring cells instead of
//!   all accepted gates (the conflict predicate is unchanged, so the
//!   accept/eject decisions are identical);
//! * a **move memo** (`MoveMemo`) — each `(mover, target)` probe
//!   cascade's outcome, success or failure, is reused while the AOD
//!   configuration is the one it was computed against (position-epoch fast
//!   path, exact position comparison fallback), because the planner is a
//!   pure function of the array state; a miss runs the cascade;
//! * per-compile scratch vectors, cleared between layers, so the loop
//!   performs no allocations beyond the `ScheduledLayer` outputs themselves.
//!
//! Each sub-stage interval (frontier / movement / blockade / return-home)
//! is one [`crate::profile::stage`] guard: under `PARALLAX_TRACE=1` a span
//! whose duration also feeds the stage counters; otherwise no clock read.

use crate::aod_select::AodSelection;
use crate::config::{CompilerConfig, SchedulingMode};
use crate::discretize::DiscretizedLayout;
#[cfg(any(test, debug_assertions))]
use crate::movement::plan_return_home;
use crate::movement::{plan_move_into_range, MovePlan};
use crate::multi_mover::MultiMover;
use crate::profile::{self, Stage};
use parallax_circuit::{Circuit, DependencyDag, Gate, QubitGatesCsr};
use parallax_hardware::{within_blockade, AodMove, AtomArray, CellGeometry, Point};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::rc::Rc;

/// One executed layer of the compiled schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledLayer {
    /// Indices (into the input circuit's gate list) executed in this layer.
    pub gate_indices: Vec<usize>,
    /// AOD moves committed before the layer's gates fire.
    pub moves: Vec<AodMove>,
    /// Longest single-atom displacement of the move batch, µm (atoms move
    /// in parallel, so this bounds the movement time).
    pub move_distance_um: f64,
    /// Longest displacement of the home-return batch, µm.
    pub return_distance_um: f64,
    /// Trap changes (release/retrap) performed for this layer's gates.
    pub trap_changes: usize,
    /// Whether any U3 gate executes in this layer.
    pub has_u3: bool,
    /// Whether any CZ gate executes in this layer.
    pub has_cz: bool,
    /// How many of [`ScheduledLayer::moves`] each committed move plan
    /// contributed, in commit order. The default scheduler emits at most
    /// one plan per layer; the multi-mover ablation emits several, and the
    /// differential suite uses these boundaries to re-check pairwise
    /// corridor disjointness between concurrent plans.
    pub mover_plans: Vec<u32>,
}

/// Aggregate statistics of a compilation (the paper's evaluation metrics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileStats {
    /// Two-qubit CZ gates executed — identical to the input circuit's count
    /// because Parallax introduces zero SWAPs.
    pub cz_count: usize,
    /// One-qubit U3 gates executed.
    pub u3_count: usize,
    /// SWAP gates inserted (always 0 for Parallax; baselines differ).
    pub swap_count: usize,
    /// Number of executed layers.
    pub layer_count: usize,
    /// Total trap-change operations (the paper observes ~1.3% of CZ gates).
    pub trap_changes: usize,
    /// Successfully planned into-range AOD moves.
    pub moves_planned: usize,
    /// Moves that failed (recursion limit / no endpoint) and fell back to a
    /// trap change.
    pub failed_moves: usize,
    /// Sum of per-layer maximum move distances, µm.
    pub total_move_distance_um: f64,
    /// Gates deferred because the layer's single move was already spent.
    pub deferred_gates: usize,
    /// Gates ejected by the Rydberg blockade interference check.
    pub blockade_ejections: usize,
    /// Move-direction queries answered by a failure recorded in the
    /// per-compile move memo instead of a fresh probe cascade (a gate that
    /// fails in both directions counts twice). A scheduling-cost counter:
    /// the compiled schedule is identical with the memo off.
    pub failed_move_memo_hits: usize,
    /// Successful move plans answered by the **per-compile** move memo
    /// (the home-return steady state: the same gate re-planned against an
    /// AOD configuration that returned to a recorded one). Like the failure
    /// hits, a scheduling-cost counter — reused plans are bit-identical
    /// to fresh cascades by planner purity, so the schedule is unchanged.
    pub plan_cache_hits: usize,
    /// Home-return entries skipped because the atom's position epoch is
    /// unchanged since the layer that last moved it — it is already parked
    /// at home, so the batched return pass drops it without a distance
    /// re-check. A scheduling-cost counter: the emitted return moves are
    /// identical with the skip off, and the naive twin (which rebuilds its
    /// per-layer home list from scratch) reports 0.
    pub home_return_skips: usize,
    /// Multi-mover ablation counters (all zero on the default path).
    pub multi_mover: MultiMoverStats,
}

/// Counters specific to the [`SchedulingMode::MultiMover`] ablation path.
///
/// [`SchedulingMode::MultiMover`]: crate::config::SchedulingMode::MultiMover
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiMoverStats {
    /// Whether this compile ran the multi-mover path at all.
    pub enabled: bool,
    /// Movers-per-layer histogram: `movers_per_layer[k-1]` counts layers
    /// that committed exactly `k` move plans (the last bucket absorbs 8+).
    pub movers_per_layer: [usize; 8],
    /// Extra move plans committed beyond the first of each layer — each
    /// one is a layer the single-mover rule would have needed on its own,
    /// so this is the layers-saved estimate the `METRICS` exposition
    /// reports.
    pub layers_saved: usize,
    /// Movement candidates rejected because their corridor came within the
    /// blockade radius of an already-committed plan's corridor.
    pub conflict_rejections: usize,
}

impl CompileStats {
    /// Accumulate this compile's statistics into the process-wide metrics
    /// registry (`parallax_compile_stat_total{stat=...}`), so fleet-level
    /// gate/move/trap-change totals show up in the `METRICS` exposition
    /// alongside the stage timers. Registry handles resolve once per
    /// process; afterwards this is a dozen relaxed adds per compile —
    /// noise next to the compile itself. Distances are rounded to whole
    /// µm (counters are integral).
    pub fn publish_metrics(&self) {
        type StatRow = (parallax_trace::Counter, fn(&CompileStats) -> u64);
        struct Handles {
            table: [StatRow; 16],
        }
        static HANDLES: std::sync::OnceLock<Handles> = std::sync::OnceLock::new();
        let h = HANDLES.get_or_init(|| {
            let c = |stat: &str| {
                parallax_trace::counter("parallax_compile_stat_total", &[("stat", stat)])
            };
            Handles {
                table: [
                    (c("compiles"), |_| 1),
                    (c("cz_gates"), |s| s.cz_count as u64),
                    (c("u3_gates"), |s| s.u3_count as u64),
                    (c("layers"), |s| s.layer_count as u64),
                    (c("trap_changes"), |s| s.trap_changes as u64),
                    (c("moves_planned"), |s| s.moves_planned as u64),
                    (c("failed_moves"), |s| s.failed_moves as u64),
                    (c("move_distance_um"), |s| s.total_move_distance_um.round() as u64),
                    (c("deferred_gates"), |s| s.deferred_gates as u64),
                    (c("blockade_ejections"), |s| s.blockade_ejections as u64),
                    (c("plan_memo_hits"), |s| s.plan_cache_hits as u64),
                    (c("home_return_skips"), |s| s.home_return_skips as u64),
                    (c("multi_mover_compiles"), |s| u64::from(s.multi_mover.enabled)),
                    (c("multi_mover_layers_saved"), |s| s.multi_mover.layers_saved as u64),
                    (c("multi_mover_conflicts"), |s| s.multi_mover.conflict_rejections as u64),
                    (c("multi_mover_multi_layers"), |s| {
                        s.multi_mover.movers_per_layer[1..].iter().sum::<usize>() as u64
                    }),
                ],
            }
        });
        for (counter, extract) in &h.table {
            counter.add(extract(self));
        }
        if self.multi_mover.enabled {
            // Movers-per-layer histogram (bucket k holds layers that
            // committed k move plans; 8+ overflows).
            static MOVERS: std::sync::OnceLock<parallax_trace::Histogram> =
                std::sync::OnceLock::new();
            let h = MOVERS.get_or_init(|| {
                parallax_trace::histogram(
                    "parallax_multi_mover_movers_per_layer",
                    &[],
                    &[1, 2, 3, 4, 5, 6, 7],
                )
            });
            for (i, &count) in self.multi_mover.movers_per_layer.iter().enumerate() {
                for _ in 0..count {
                    h.record(i as u64 + 1);
                }
            }
        }
    }
}

/// A compiled schedule: executable layers plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Executed layers in order.
    pub layers: Vec<ScheduledLayer>,
    /// Aggregate statistics.
    pub stats: CompileStats,
}

impl Schedule {
    /// Flattened gate execution order (indices into the input circuit).
    pub fn gate_order(&self) -> Vec<usize> {
        self.layers.iter().flat_map(|l| l.gate_indices.iter().copied()).collect()
    }
}

/// Safety factor on scheduling iterations before declaring livelock.
fn iteration_cap(num_gates: usize) -> usize {
    10 * num_gates + 1000
}

// ---------------------------------------------------------------------------
// Incremental dependency frontier
// ---------------------------------------------------------------------------

/// The ready set of Algorithm 1's lines 7-11, maintained incrementally.
///
/// A qubit *emits* its head gate (`qubit_gates[q][ptr[q]]`) into the layer
/// when the gate is a U3, or a CZ that is at the head of **both** operands
/// with `q` the smaller one (the dedupe rule of the naive scan). Emission
/// can only change for a qubit whose pointer advanced, or for the operands
/// of such a qubit's new head gate — a CZ waiting on its partner becomes
/// ready exactly when the partner's pointer reaches it. Rebuilding `curr`
/// from the sorted emitter list therefore reproduces the naive full scan's
/// gate order at every layer by construction.
struct Frontier {
    emits: Vec<bool>,
    /// Emitting qubits, ascending (the naive scan's visit order).
    emitters: Vec<u32>,
}

impl Frontier {
    fn new(num_qubits: usize) -> Self {
        Self { emits: vec![false; num_qubits], emitters: Vec::with_capacity(num_qubits) }
    }

    fn emission(q: usize, gates: &[Gate], qubit_gates: &QubitGatesCsr, ptr: &[usize]) -> bool {
        let Some(g) = qubit_gates.gate_at(q, ptr[q]) else { return false };
        match gates[g] {
            Gate::U3 { .. } => true,
            Gate::Cz { a, b } => {
                let (ai, bi) = (a as usize, b as usize);
                q == ai.min(bi)
                    && qubit_gates.gate_at(ai, ptr[ai]) == Some(g)
                    && qubit_gates.gate_at(bi, ptr[bi]) == Some(g)
            }
        }
    }

    fn refresh(&mut self, q: usize, gates: &[Gate], qubit_gates: &QubitGatesCsr, ptr: &[usize]) {
        let e = Self::emission(q, gates, qubit_gates, ptr);
        if e != self.emits[q] {
            self.emits[q] = e;
            match self.emitters.binary_search(&(q as u32)) {
                Ok(i) if !e => {
                    self.emitters.remove(i);
                }
                Err(i) if e => self.emitters.insert(i, q as u32),
                _ => {}
            }
        }
    }

    /// Initial population: one full scan, identical to the naive rebuild.
    fn seed(&mut self, gates: &[Gate], qubit_gates: &QubitGatesCsr, ptr: &[usize]) {
        for q in 0..self.emits.len() {
            self.refresh(q, gates, qubit_gates, ptr);
        }
    }

    /// Update after a layer advanced the pointers of `advanced` qubits.
    fn advance(
        &mut self,
        advanced: &[u32],
        gates: &[Gate],
        qubit_gates: &QubitGatesCsr,
        ptr: &[usize],
    ) {
        for &q in advanced {
            let q = q as usize;
            self.refresh(q, gates, qubit_gates, ptr);
            if let Some(g) = qubit_gates.gate_at(q, ptr[q]) {
                if let Gate::Cz { a, b } = gates[g] {
                    self.refresh(a as usize, gates, qubit_gates, ptr);
                    self.refresh(b as usize, gates, qubit_gates, ptr);
                }
            }
        }
    }

    /// Write the current layer's gate list into `curr` (ascending emitter
    /// order, one gate per emitter — a gate's emitter is unique).
    fn collect(&self, qubit_gates: &QubitGatesCsr, ptr: &[usize], curr: &mut Vec<usize>) {
        curr.clear();
        for &q in &self.emitters {
            curr.push(qubit_gates.row(q as usize)[ptr[q as usize]] as usize);
        }
    }
}

// ---------------------------------------------------------------------------
// Bucketed blockade-interference index
// ---------------------------------------------------------------------------

/// Uniform grid over the *effective* endpoints of the layer's accepted CZ
/// gates, with cells the size of the blockade radius: any endpoint within
/// blockade range of a query point lies in one of the 3×3 neighbouring
/// cells, so the interference test probes a local neighbourhood instead
/// of every accepted gate. The cell math is the hardware crate's
/// [`CellGeometry`] — the same clamped-superset guarantees as the atom
/// occupancy index. Cleared per layer via the occupied-cell list.
struct BlockadeIndex {
    cells: CellGeometry,
    /// Query reach, µm: the blockade radius plus slack covering
    /// [`within_blockade`]'s `+1e-9` squared-distance epsilon — the
    /// predicate accepts pairs up to `sqrt(br² + 1e-9)`, a hair beyond
    /// `br`, and the cell sweep must remain a strict superset of its
    /// acceptance region or a boundary pair could slip between cells.
    reach_um: f64,
    buckets: Vec<Vec<Point>>,
    occupied: Vec<usize>,
}

impl BlockadeIndex {
    fn new(extent_um: f64, margin_um: f64, blockade_um: f64) -> Self {
        let cells = CellGeometry::new(extent_um, margin_um, blockade_um);
        Self {
            buckets: vec![Vec::new(); cells.num_cells()],
            cells,
            reach_um: blockade_um + 1e-3,
            occupied: Vec::new(),
        }
    }

    fn clear(&mut self) {
        for &b in &self.occupied {
            self.buckets[b].clear();
        }
        self.occupied.clear();
    }

    fn insert(&mut self, p: Point) {
        let b = self.cells.cell_of(p);
        if self.buckets[b].is_empty() {
            self.occupied.push(b);
        }
        self.buckets[b].push(p);
    }

    /// Whether any stored endpoint blockades `p` (exactly the naive
    /// all-pairs predicate, restricted to the cells that can contain hits).
    fn conflicts(&self, p: Point, r: f64, factor: f64) -> bool {
        let mut hit = false;
        self.cells.for_each_cell_within(p, self.reach_um, |cell| {
            if !hit {
                hit = self.buckets[cell].iter().any(|q| within_blockade(&p, q, r, factor));
            }
        });
        hit
    }
}

// ---------------------------------------------------------------------------
// Move memoization
// ---------------------------------------------------------------------------

/// Per-compile memo of movement plans, successes and failures alike.
///
/// [`plan_move_into_range`] is a pure function of the array state and its
/// `(mover, target)` arguments, and the only array mutations during
/// scheduling are AOD move batches — SLM atoms never move (trap changes
/// are virtual). An outcome recorded against an AOD configuration is
/// therefore exactly what a fresh probe cascade would produce whenever
/// that configuration recurs. Each entry holds one direction's outcome
/// (`Some` plan or `None` for a failed cascade) plus every AOD atom's
/// position at record time (one snapshot per epoch, shared by the entries
/// recorded in it); a later query reuses it when the array's
/// position epoch is unchanged (nothing at all moved) or, after the epoch
/// moved on, when an exact comparison shows the AOD configuration returned
/// to the recorded one — the home-return steady state, where every layer's
/// moves are undone — and then re-arms the epoch fast path.
///
/// The interaction radius and recursion budget are fixed for a compile, so
/// they are not part of the key. A memo miss runs the cascade.
#[derive(Default)]
struct MoveMemo {
    entries: HashMap<(u32, u32), MemoEntry>,
    /// The AOD snapshot of the latest epoch that missed, taken once per
    /// epoch and shared by every entry recorded in it.
    aod: Option<(u64, AodSnapshot)>,
    /// Queries answered by a recorded success.
    ok_hits: usize,
    /// Queries answered by a recorded failure.
    err_hits: usize,
}

/// Every AOD atom's `(qubit, position)`, ascending id.
type AodSnapshot = Rc<[(u32, Point)]>;

struct MemoEntry {
    epoch: u64,
    aod_snapshot: AodSnapshot,
    plan: Option<MovePlan>,
}

impl MoveMemo {
    /// [`plan_move_into_range`] behind the memo; `None` when the probe
    /// cascade fails. Bit-identical to calling the planner directly, by
    /// purity plus the exact-configuration check on every reuse.
    fn plan(
        &mut self,
        array: &AtomArray,
        mover: u32,
        target: u32,
        r_um: f64,
        max_recursion: usize,
    ) -> Option<MovePlan> {
        let epoch = array.positions_epoch();
        if let Some(entry) = self.entries.get_mut(&(mover, target)) {
            if entry.epoch == epoch || array.aod_config_matches(&entry.aod_snapshot) {
                entry.epoch = epoch;
                *if entry.plan.is_some() { &mut self.ok_hits } else { &mut self.err_hits } += 1;
                return entry.plan.clone();
            }
        }
        let aod_snapshot = match &self.aod {
            Some((e, snapshot)) if *e == epoch => Rc::clone(snapshot),
            _ => {
                let mut snapshot = Vec::new();
                array.aod_snapshot(&mut snapshot);
                let snapshot: AodSnapshot = snapshot.into();
                self.aod = Some((epoch, Rc::clone(&snapshot)));
                snapshot
            }
        };
        let plan = plan_move_into_range(array, mover, target, r_um, max_recursion).ok();
        self.entries.insert((mover, target), MemoEntry { epoch, aod_snapshot, plan: plan.clone() });
        plan
    }
}

// ---------------------------------------------------------------------------
// The layer loop
// ---------------------------------------------------------------------------

/// The per-layer movement rule of a [`SchedulingMode`] — the only place
/// the modes differ. Everything else in [`schedule_gates`] is shared.
enum LayerPolicy {
    /// The paper's rule: the frontier as built, at most one move plan per
    /// layer (later out-of-range AOD gates defer before any memo probe),
    /// and a shuffled ejection order.
    Single(StdRng),
    /// The ablation: the frontier in ALAP-deadline order, every
    /// corridor-disjoint plan commits, and ejection keeps deadline order.
    MultiMover(Box<MultiMover>),
}

/// The layer's surviving trap changes as `(gate, moved qubit)`, in
/// frontier order (the order they were made), for diagnostics.
fn layer_trap_changes(
    curr: &[usize],
    trap_changed: &[(u32, u32)],
    stamp: u32,
) -> Vec<(usize, u32)> {
    curr.iter().filter(|&&g| trap_changed[g].0 == stamp).map(|&g| (g, trap_changed[g].1)).collect()
}

/// Run Algorithm 1. Mutates `layout.array` (atom motion and trap state).
///
/// One layer loop serves both [`CompilerConfig::scheduling`] modes: the
/// default [`SchedulingMode::Single`] is the paper's one-move-per-layer
/// rule, byte-identical to every pre-ablation build; the
/// [`SchedulingMode::MultiMover`] ablation batches disjoint-corridor moves
/// (see [`crate::multi_mover`]). A private `LayerPolicy` carries the three
/// differences: frontier order, mover budget and ejection order.
pub fn schedule_gates(
    circuit: &Circuit,
    layout: &mut DiscretizedLayout,
    _selection: &AodSelection,
    config: &CompilerConfig,
) -> Schedule {
    let gates = circuit.gates();
    let num_gates = gates.len();
    let num_qubits = circuit.num_qubits();
    let qubit_gates = circuit.qubit_gates_csr();
    let mut ptr = vec![0usize; num_qubits];
    let mut executed_count = 0usize;
    let r = layout.interaction_radius_um;
    let blockade_factor = layout.array.spec().blockade_factor;
    let max_recursion = config.max_move_recursion;

    let mut layers = Vec::new();
    let mut stats = CompileStats {
        cz_count: circuit.cz_count(),
        u3_count: circuit.u3_count(),
        ..Default::default()
    };
    let mut policy = match config.scheduling {
        SchedulingMode::Single => LayerPolicy::Single(StdRng::seed_from_u64(
            config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5eed,
        )),
        SchedulingMode::MultiMover => {
            stats.multi_mover.enabled = true;
            LayerPolicy::MultiMover(Box::new(MultiMover::new(circuit, layout)))
        }
    };

    // Per-compile scratch, cleared (not freed) between layers, so the loop
    // allocates nothing beyond the `ScheduledLayer` outputs themselves.
    let mut frontier = Frontier::new(num_qubits);
    frontier.seed(gates, &qubit_gates, &ptr);
    let mut curr = Vec::new();
    let mut kept = Vec::new();
    let mut accepted = Vec::new();
    let mut advanced = Vec::new();
    // Per-gate layer state, live when its stamp matches the current layer
    // (index-keyed stand-ins for a per-layer `HashMap` or list): the
    // effective operand positions of the blockade pass, and the layer's
    // trap change as `(stamp, virtually moved qubit)`. Stamps start at 1,
    // so stamp 0 marks "none" (an ejected trap change is reset to it).
    let mut eff_pos = vec![[Point::default(); 2]; num_gates];
    let mut eff_stamp = vec![0u32; num_gates];
    let mut trap_changed = vec![(0u32, 0u32); num_gates];
    let mut blockade = BlockadeIndex::new(
        layout.array.spec().extent_um(),
        layout.array.grid().pitch_um(),
        r * blockade_factor,
    );
    let mut memo = MoveMemo::default();
    // Home-return bookkeeping: each AOD atom's home is recorded once, the
    // first layer that ever moves it (under home-return it is back at that
    // exact position at every layer boundary, so the record never goes
    // stale), and `moved_stamp` marks the layer that last displaced it.
    // The return pass walks the ever-moved list instead of rebuilding a
    // per-layer home list.
    let mut home_pos = vec![Point::default(); num_qubits];
    let mut moved_list: Vec<u32> = Vec::new();
    let mut moved_stamp = vec![0u32; num_qubits];
    let mut return_moves = Vec::new();

    let mut guard = 0usize;
    let cap = iteration_cap(num_gates);
    while executed_count < num_gates {
        guard += 1;
        assert!(guard <= cap, "scheduler livelock: {executed_count}/{num_gates} gates executed");
        let stamp = u32::try_from(guard).expect("layer stamps fit in u32");

        // ---- Lines 7-11: build the dependency frontier layer. ----
        let t = profile::stage(Stage::ScheduleFrontier);
        frontier.collect(&qubit_gates, &ptr, &mut curr);
        drop(t);
        assert!(!curr.is_empty(), "dependency frontier is empty before completion");
        if let LayerPolicy::MultiMover(mm) = &mut policy {
            mm.begin_layer(&mut curr, gates, &layout.array);
        }

        // ---- Lines 12-19: movement resolution for out-of-range CZs. ----
        let t = profile::stage(Stage::ScheduleMovement);
        let mut moves: Vec<AodMove> = Vec::new();
        let mut mover_plans: Vec<u32> = Vec::new();
        let mut move_distance_um = 0.0f64;
        let mut trap_changes = 0usize;
        kept.clear();
        for &g in &curr {
            let Gate::Cz { a, b } = gates[g] else {
                kept.push(g);
                continue;
            };
            if layout.array.distance(a, b) <= r + 1e-9 {
                kept.push(g);
                continue;
            }
            let mover = if layout.array.is_aod(a) {
                a
            } else if layout.array.is_aod(b) {
                b
            } else {
                // Lines 18-19: neither operand is mobile — release and
                // retrap one of them (the ~1.3% case).
                trap_changes += 1;
                trap_changed[g] = (stamp, a);
                kept.push(g);
                continue;
            };
            if matches!(policy, LayerPolicy::Single(_)) && !mover_plans.is_empty() {
                // Lines 16-17: one move per layer; defer this gate.
                stats.deferred_gates += 1;
                continue;
            }
            let target = if mover == a { b } else { a };
            // With both operands mobile, either may be the mover; retry in
            // the other direction before giving up.
            let reversible = layout.array.is_aod(target);
            let mut plan = memo.plan(&layout.array, mover, target, r, max_recursion);
            if plan.is_none() && reversible {
                plan = memo.plan(&layout.array, target, mover, r, max_recursion);
            }
            let Some(mut plan) = plan else {
                // Failed move: resolve with a trap change (Section III:
                // "Failed moves are resolved using trap changes").
                stats.failed_moves += 1;
                trap_changes += 1;
                trap_changed[g] = (stamp, mover);
                kept.push(g);
                continue;
            };
            if let LayerPolicy::MultiMover(mm) = &mut policy {
                let reverse = || {
                    reversible.then(|| memo.plan(&layout.array, target, mover, r, max_recursion))?
                };
                let Some(admitted) = mm.admit(&layout.array, plan, a, b, reverse) else {
                    stats.multi_mover.conflict_rejections += 1;
                    stats.deferred_gates += 1;
                    continue;
                };
                plan = admitted;
            }
            for m in &plan.moves {
                let q = m.q as usize;
                if moved_stamp[q] == 0 {
                    home_pos[q] = layout.array.position(m.q);
                    moved_list.push(m.q);
                }
                moved_stamp[q] = stamp;
            }
            // The planner validated this batch against this very array
            // state (a memo hit only answers for an identical AOD
            // configuration), so it commits without a second scan.
            layout.array.commit_validated_moves(&plan.moves);
            mover_plans.push(plan.moves.len() as u32);
            moves.extend_from_slice(&plan.moves);
            move_distance_um = move_distance_um.max(plan.max_distance_um);
            stats.moves_planned += 1;
            stats.total_move_distance_um += plan.max_distance_um;
            kept.push(g);
        }

        // The committed moves may have displaced atoms of *other* kept CZ
        // gates out of range; those defer too (they cannot move again).
        if !mover_plans.is_empty() {
            kept.retain(|&g| match gates[g] {
                Gate::Cz { a, b } => {
                    let in_range =
                        layout.array.distance(a, b) <= r + 1e-9 || trap_changed[g].0 == stamp;
                    if !in_range {
                        stats.deferred_gates += 1;
                    }
                    in_range
                }
                _ => true,
            });
        }

        // ---- Line 20: shuffle to avoid starving any one qubit. ----
        // The multi-mover keeps `kept` in deadline order instead: the first
        // gate lands in an empty blockade index and can never be ejected,
        // so every layer still makes progress on the most critical chain.
        if let LayerPolicy::Single(rng) = &mut policy {
            kept.shuffle(rng);
        }
        drop(t);

        // ---- Lines 21-22: Rydberg blockade interference ejection. ----
        // A trap-changed atom spends the gate adjacent to its partner, so
        // its effective position is its partner's side.
        let t = profile::stage(Stage::ScheduleBlockade);
        for &g in &kept {
            if let Gate::Cz { a, b } = gates[g] {
                let mut pa = layout.array.position(a);
                let mut pb = layout.array.position(b);
                let (tc_stamp, moved) = trap_changed[g];
                if tc_stamp == stamp {
                    if moved == a {
                        pa = pb;
                    } else if moved == b {
                        pb = pa;
                    }
                }
                eff_pos[g] = [pa, pb];
                eff_stamp[g] = stamp;
            }
        }
        accepted.clear();
        blockade.clear();
        for &g in &kept {
            match gates[g] {
                Gate::U3 { .. } => accepted.push(g),
                Gate::Cz { .. } => {
                    debug_assert_eq!(eff_stamp[g], stamp);
                    let mine = eff_pos[g];
                    if mine.iter().any(|p| blockade.conflicts(*p, r, blockade_factor)) {
                        stats.blockade_ejections += 1;
                        // If this was a trap-changed gate, the trap change
                        // did not happen after all.
                        if trap_changed[g].0 == stamp {
                            trap_changed[g].0 = 0;
                            trap_changes -= 1;
                        }
                    } else {
                        accepted.push(g);
                        blockade.insert(mine[0]);
                        blockade.insert(mine[1]);
                    }
                }
            }
        }
        drop(t);
        assert!(
            !accepted.is_empty(),
            "blockade pass emptied a layer: curr={curr:?} kept={kept:?} movers={} trap_changed={:?}",
            mover_plans.len(),
            layer_trap_changes(&curr, &trap_changed, stamp)
        );

        // ---- Line 23: execute. ----
        let mut has_u3 = false;
        let mut has_cz = false;
        advanced.clear();
        for &g in &accepted {
            executed_count += 1;
            match gates[g] {
                Gate::U3 { q, .. } => {
                    has_u3 = true;
                    ptr[q as usize] += 1;
                    advanced.push(q);
                }
                Gate::Cz { a, b } => {
                    has_cz = true;
                    ptr[a as usize] += 1;
                    ptr[b as usize] += 1;
                    advanced.push(a);
                    advanced.push(b);
                }
            }
        }
        let t = profile::stage(Stage::ScheduleFrontier);
        frontier.advance(&advanced, gates, &qubit_gates, &ptr);
        drop(t);

        // ---- Line 24: return moved atoms home. ----
        // One return move per atom moved this layer; every ever-moved atom
        // whose stamp is older is parked at home already and is skipped
        // (and counted) without a distance re-check.
        let t = profile::stage(Stage::ScheduleReturn);
        let mut return_distance_um = 0.0f64;
        if config.return_home {
            return_moves.clear();
            for &q in &moved_list {
                if moved_stamp[q as usize] != stamp {
                    stats.home_return_skips += 1;
                    continue;
                }
                let home = home_pos[q as usize];
                let distance = layout.array.position(q).distance(&home);
                // Same sub-nanometre filter as `plan_return_home`, so the
                // emitted moves (and the serialized max distance) stay
                // byte-identical to the per-layer oracle path.
                if distance <= 1e-9 {
                    continue;
                }
                return_distance_um = return_distance_um.max(distance);
                return_moves.push(AodMove { q, x: home.x, y: home.y });
            }
            if !return_moves.is_empty() {
                // Every atom moved this layer goes back to where it stood
                // before the layer, and the rest never left: the batch
                // restores a configuration the array already held.
                layout.array.commit_validated_moves(&return_moves);
            }
        }
        drop(t);

        stats.layer_count += 1;
        stats.trap_changes += trap_changes;
        if let LayerPolicy::MultiMover(_) = policy {
            if let Some(extra) = mover_plans.len().checked_sub(1) {
                stats.multi_mover.movers_per_layer[extra.min(7)] += 1;
                stats.multi_mover.layers_saved += extra;
            }
        }
        layers.push(ScheduledLayer {
            gate_indices: accepted.clone(),
            moves,
            mover_plans,
            move_distance_um,
            return_distance_um,
            trap_changes,
            has_u3,
            has_cz,
        });
    }
    stats.failed_move_memo_hits = memo.err_hits;
    stats.plan_cache_hits = memo.ok_hits;
    stats.publish_metrics();

    let schedule = Schedule { layers, stats };
    debug_assert!(
        DependencyDag::build(circuit).respects_order(&schedule.gate_order()),
        "schedule violates gate dependencies"
    );
    schedule
}

/// The pre-optimization Algorithm 1 implementation, verbatim: full frontier
/// rescan per layer, `HashMap` effective positions, all-pairs blockade
/// pass, no memoization. Kept as the test oracle — the
/// proptests (in-crate and in the umbrella differential suite, which is
/// why this is `pub` in debug builds) assert [`schedule_gates`] produces
/// bit-identical layers, moves, and stats (modulo the memo hit counters,
/// which the naive path cannot have) on random circuits.
#[cfg(any(test, debug_assertions))]
pub fn schedule_gates_naive(
    circuit: &Circuit,
    layout: &mut DiscretizedLayout,
    _selection: &AodSelection,
    config: &CompilerConfig,
) -> Schedule {
    let gates = circuit.gates();
    let num_gates = gates.len();
    let qubit_gates = circuit.qubit_gate_indices();
    let mut ptr = vec![0usize; circuit.num_qubits()];
    let mut executed = vec![false; num_gates];
    let mut executed_count = 0usize;
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5eed);
    let r = layout.interaction_radius_um;
    let blockade_factor = layout.array.spec().blockade_factor;

    let mut layers = Vec::new();
    let mut stats = CompileStats {
        cz_count: circuit.cz_count(),
        u3_count: circuit.u3_count(),
        ..Default::default()
    };

    let mut guard = 0usize;
    let cap = iteration_cap(num_gates);
    while executed_count < num_gates {
        guard += 1;
        assert!(guard <= cap, "scheduler livelock: {executed_count}/{num_gates} gates executed");

        let mut curr: Vec<usize> = Vec::new();
        for q in 0..circuit.num_qubits() {
            let Some(&g) = qubit_gates[q].get(ptr[q]) else { continue };
            match gates[g] {
                Gate::U3 { .. } => curr.push(g),
                Gate::Cz { a, b } => {
                    let (ai, bi) = (a as usize, b as usize);
                    let ready = qubit_gates[ai].get(ptr[ai]) == Some(&g)
                        && qubit_gates[bi].get(ptr[bi]) == Some(&g);
                    if ready && q == ai.min(bi) {
                        curr.push(g);
                    }
                }
            }
        }
        assert!(!curr.is_empty(), "dependency frontier is empty before completion");

        let mut moved_this_layer = false;
        let mut committed_moves: Vec<AodMove> = Vec::new();
        let mut move_distance_um = 0.0f64;
        let mut moved_homes: Vec<(u32, Point)> = Vec::new();
        let mut trap_changes = 0usize;
        let mut trap_changed: Vec<(usize, u32)> = Vec::new();
        let mut kept: Vec<usize> = Vec::new();
        let mut deferred = 0usize;

        for &g in &curr {
            let Gate::Cz { a, b } = gates[g] else {
                kept.push(g);
                continue;
            };
            if layout.array.distance(a, b) <= r + 1e-9 {
                kept.push(g);
                continue;
            }
            let aod_operand = if layout.array.is_aod(a) {
                Some(a)
            } else if layout.array.is_aod(b) {
                Some(b)
            } else {
                None
            };
            match aod_operand {
                Some(mover) if !moved_this_layer => {
                    let target = if mover == a { b } else { a };
                    let mut attempt = plan_move_into_range(
                        &layout.array,
                        mover,
                        target,
                        r,
                        config.max_move_recursion,
                    );
                    if attempt.is_err() && layout.array.is_aod(target) {
                        attempt = plan_move_into_range(
                            &layout.array,
                            target,
                            mover,
                            r,
                            config.max_move_recursion,
                        );
                    }
                    match attempt {
                        Ok(plan) => {
                            for m in &plan.moves {
                                moved_homes.push((m.q, layout.array.position(m.q)));
                            }
                            layout
                                .array
                                .apply_aod_moves(&plan.moves)
                                .expect("validated plan must commit");
                            committed_moves = plan.moves;
                            move_distance_um = plan.max_distance_um;
                            moved_this_layer = true;
                            stats.moves_planned += 1;
                            stats.total_move_distance_um += plan.max_distance_um;
                            kept.push(g);
                        }
                        Err(_) => {
                            stats.failed_moves += 1;
                            trap_changes += 1;
                            trap_changed.push((g, mover));
                            kept.push(g);
                        }
                    }
                }
                Some(_) => {
                    deferred += 1;
                    continue;
                }
                None => {
                    trap_changes += 1;
                    trap_changed.push((g, a));
                    kept.push(g);
                }
            }
        }
        stats.deferred_gates += deferred;

        if moved_this_layer {
            kept.retain(|&g| match gates[g] {
                Gate::Cz { a, b } => {
                    let in_range = layout.array.distance(a, b) <= r + 1e-9
                        || trap_changed.iter().any(|&(tg, _)| tg == g);
                    if !in_range {
                        stats.deferred_gates += 1;
                    }
                    in_range
                }
                _ => true,
            });
        }

        kept.shuffle(&mut rng);

        let mut effective: HashMap<usize, [Point; 2]> = HashMap::new();
        for &g in &kept {
            if let Gate::Cz { a, b } = gates[g] {
                let mut pa = layout.array.position(a);
                let mut pb = layout.array.position(b);
                if let Some(&(_, moved)) = trap_changed.iter().find(|&&(tg, _)| tg == g) {
                    if moved == a {
                        pa = pb;
                    } else if moved == b {
                        pb = pa;
                    }
                }
                effective.insert(g, [pa, pb]);
            }
        }
        let mut accepted: Vec<usize> = Vec::new();
        let mut accepted_cz: Vec<usize> = Vec::new();
        for &g in &kept {
            match gates[g] {
                Gate::U3 { .. } => accepted.push(g),
                Gate::Cz { .. } => {
                    let mine = effective[&g];
                    let conflict = accepted_cz.iter().any(|&other| {
                        let theirs = effective[&other];
                        mine.iter().any(|p| {
                            theirs.iter().any(|q| within_blockade(p, q, r, blockade_factor))
                        })
                    });
                    if conflict {
                        stats.blockade_ejections += 1;
                        if let Some(pos) = trap_changed.iter().position(|&(tg, _)| tg == g) {
                            trap_changed.remove(pos);
                            trap_changes -= 1;
                        }
                    } else {
                        accepted.push(g);
                        accepted_cz.push(g);
                    }
                }
            }
        }
        assert!(
            !accepted.is_empty(),
            "blockade pass emptied a layer: curr={curr:?} kept={kept:?} moved={moved_this_layer} trap_changed={trap_changed:?}"
        );

        let mut has_u3 = false;
        let mut has_cz = false;
        for &g in &accepted {
            executed[g] = true;
            executed_count += 1;
            match gates[g] {
                Gate::U3 { q, .. } => {
                    has_u3 = true;
                    ptr[q as usize] += 1;
                }
                Gate::Cz { a, b } => {
                    has_cz = true;
                    ptr[a as usize] += 1;
                    ptr[b as usize] += 1;
                }
            }
        }

        let mut return_distance_um = 0.0;
        if config.return_home && !moved_homes.is_empty() {
            let plan = plan_return_home(&layout.array, &moved_homes);
            return_distance_um = plan.max_distance_um;
            if !plan.moves.is_empty() {
                layout
                    .array
                    .apply_aod_moves(&plan.moves)
                    .expect("home configuration is always valid");
            }
        }

        stats.layer_count += 1;
        stats.trap_changes += trap_changes;
        let mover_plans =
            if moved_this_layer { vec![committed_moves.len() as u32] } else { Vec::new() };
        layers.push(ScheduledLayer {
            gate_indices: accepted,
            moves: committed_moves,
            mover_plans,
            move_distance_um,
            return_distance_um,
            trap_changes,
            has_u3,
            has_cz,
        });
    }

    Schedule { layers, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aod_select::select_aod_qubits;
    use crate::discretize::discretize;
    use parallax_circuit::CircuitBuilder;
    use parallax_graphine::GraphineLayout;
    use parallax_hardware::MachineSpec;

    fn compile_with(
        n: usize,
        build: impl Fn(&mut CircuitBuilder),
        cfg: &CompilerConfig,
    ) -> (Circuit, Schedule) {
        let mut b = CircuitBuilder::new(n);
        build(&mut b);
        let c = b.build();
        let layout = GraphineLayout::generate(&c, &cfg.placement);
        let mut d = discretize(&c, &layout, MachineSpec::quera_aquila_256());
        let sel = select_aod_qubits(&c, &mut d, cfg);
        let s = schedule_gates(&c, &mut d, &sel, cfg);
        (c, s)
    }

    #[test]
    fn all_gates_execute_exactly_once() {
        let cfg = CompilerConfig::quick(1);
        let (c, s) = compile_with(
            4,
            |b| {
                b.h(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(0, 3).h(3);
            },
            &cfg,
        );
        let order = s.gate_order();
        assert_eq!(order.len(), c.len());
        let mut seen = vec![false; c.len()];
        for g in order {
            assert!(!seen[g], "gate {g} executed twice");
            seen[g] = true;
        }
    }

    #[test]
    fn schedule_respects_dependencies() {
        let cfg = CompilerConfig::quick(2);
        let (c, s) = compile_with(
            5,
            |b| {
                b.h(0).cx(0, 1).cx(1, 2).rz(0.4, 2).cx(2, 3).cx(3, 4).cx(0, 4);
            },
            &cfg,
        );
        let dag = DependencyDag::build(&c);
        assert!(dag.respects_order(&s.gate_order()));
    }

    #[test]
    fn zero_swaps_always() {
        let cfg = CompilerConfig::quick(3);
        let (c, s) = compile_with(
            6,
            |b| {
                for i in 0..6u32 {
                    for j in (i + 1)..6 {
                        b.cx(i, j);
                    }
                }
            },
            &cfg,
        );
        assert_eq!(s.stats.swap_count, 0);
        assert_eq!(s.stats.cz_count, c.cz_count());
    }

    #[test]
    fn stats_account_for_every_gate() {
        let cfg = CompilerConfig::quick(4);
        let (c, s) = compile_with(
            3,
            |b| {
                b.h(0).h(1).h(2).cx(0, 1).cx(1, 2).ccx(0, 1, 2);
            },
            &cfg,
        );
        assert_eq!(s.stats.cz_count + s.stats.u3_count, c.len());
        assert_eq!(s.stats.layer_count, s.layers.len());
        let executed: usize = s.layers.iter().map(|l| l.gate_indices.len()).sum();
        assert_eq!(executed, c.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let build = |b: &mut CircuitBuilder| {
            b.h(0).cx(0, 3).cx(1, 2).cx(0, 2).cx(1, 3).ccx(0, 1, 2);
        };
        let cfg = CompilerConfig::quick(7);
        let (_, s1) = compile_with(4, build, &cfg);
        let (_, s2) = compile_with(4, build, &cfg);
        assert_eq!(s1.gate_order(), s2.gate_order());
        assert_eq!(s1.stats.trap_changes, s2.stats.trap_changes);
    }

    #[test]
    fn array_state_stays_valid_throughout() {
        let cfg = CompilerConfig::quick(5);
        let mut b = CircuitBuilder::new(8);
        for i in 0..8u32 {
            b.h(i);
        }
        for i in 0..8u32 {
            b.cx(i, (i + 3) % 8);
        }
        let c = b.build();
        let layout = GraphineLayout::generate(&c, &cfg.placement);
        let mut d = discretize(&c, &layout, MachineSpec::quera_aquila_256());
        let sel = select_aod_qubits(&c, &mut d, &cfg);
        let _ = schedule_gates(&c, &mut d, &sel, &cfg);
        assert!(d.array.validate().is_empty());
    }

    #[test]
    fn home_return_restores_aod_positions() {
        let cfg = CompilerConfig::quick(6);
        let mut b = CircuitBuilder::new(6);
        for i in 0..6u32 {
            b.cx(i, (i + 2) % 6);
        }
        let c = b.build();
        let layout = GraphineLayout::generate(&c, &cfg.placement);
        let mut d = discretize(&c, &layout, MachineSpec::quera_aquila_256());
        let sel = select_aod_qubits(&c, &mut d, &cfg);
        let homes: Vec<(u32, Point)> =
            sel.selected.iter().map(|&q| (q, d.array.position(q))).collect();
        let _ = schedule_gates(&c, &mut d, &sel, &cfg);
        for (q, home) in homes {
            assert!(d.array.position(q).distance(&home) < 1e-6, "q{q} did not return home");
        }
    }

    #[test]
    fn without_home_return_atoms_may_stay_displaced() {
        // Same circuit twice; the no-return variant accumulates movement
        // savings (Fig. 12 shows lower *total* distance is NOT guaranteed,
        // only that the toggle changes behaviour).
        let cfg_home = CompilerConfig::quick(8);
        let cfg_stay = CompilerConfig::quick(8).without_home_return();
        let build = |b: &mut CircuitBuilder| {
            for i in 0..6u32 {
                b.cx(i, (i + 2) % 6);
            }
            for i in 0..6u32 {
                b.cx(i, (i + 3) % 6);
            }
        };
        let (_, s_home) = compile_with(6, build, &cfg_home);
        let (_, s_stay) = compile_with(6, build, &cfg_stay);
        let return_home_total: f64 = s_home.layers.iter().map(|l| l.return_distance_um).sum();
        let return_stay_total: f64 = s_stay.layers.iter().map(|l| l.return_distance_um).sum();
        assert!(return_stay_total <= return_home_total);
        assert_eq!(s_stay.stats.cz_count, s_home.stats.cz_count);
    }

    #[test]
    fn single_qubit_circuit_schedules() {
        let cfg = CompilerConfig::quick(9);
        let (c, s) = compile_with(
            1,
            |b| {
                b.h(0).rz(0.5, 0).h(0);
            },
            &cfg,
        );
        assert_eq!(s.gate_order().len(), c.len());
        assert_eq!(s.stats.trap_changes, 0);
        assert_eq!(s.stats.moves_planned, 0);
    }

    #[test]
    fn parallel_u3_gates_share_a_layer() {
        let cfg = CompilerConfig::quick(10);
        let (_, s) = compile_with(
            4,
            |b| {
                b.h(0).h(1).h(2).h(3);
            },
            &cfg,
        );
        assert_eq!(s.layers.len(), 1);
        assert_eq!(s.layers[0].gate_indices.len(), 4);
    }

    // -- Oracle comparisons: fast scheduler vs the naive implementation --

    /// Run both schedulers from identical starting states and assert the
    /// results are bit-identical (layers, moves, distances, stats — the
    /// memo-hit counter excluded, since the naive path has no memo) and
    /// that both leave the array in the same final state.
    fn assert_matches_naive(n: usize, build: impl Fn(&mut CircuitBuilder), cfg: &CompilerConfig) {
        let mut b = CircuitBuilder::new(n);
        build(&mut b);
        let c = b.build();
        let layout = GraphineLayout::generate(&c, &cfg.placement);
        let mut fast = discretize(&c, &layout, MachineSpec::quera_aquila_256());
        let sel = select_aod_qubits(&c, &mut fast, cfg);
        assert_layout_matches_naive(&c, fast, &sel, cfg);
    }

    /// [`assert_matches_naive`] from a prepared layout; returns the fast
    /// schedule for scenario-specific checks.
    fn assert_layout_matches_naive(
        c: &Circuit,
        mut fast: DiscretizedLayout,
        sel: &AodSelection,
        cfg: &CompilerConfig,
    ) -> Schedule {
        let n = c.num_qubits();
        let mut naive = fast.clone();
        let s_fast = schedule_gates(c, &mut fast, sel, cfg);
        let s_naive = schedule_gates_naive(c, &mut naive, sel, cfg);
        assert_eq!(s_fast.layers, s_naive.layers);
        let mut stats = s_fast.stats.clone();
        stats.failed_move_memo_hits = 0;
        stats.plan_cache_hits = 0;
        stats.home_return_skips = 0;
        assert_eq!(stats, s_naive.stats);
        for q in 0..n as u32 {
            assert_eq!(fast.array.position(q), naive.array.position(q), "q{q} position");
            assert_eq!(fast.array.trap(q), naive.array.trap(q), "q{q} trap");
        }
        s_fast
    }

    #[test]
    fn matches_naive_on_dense_all_to_all() {
        let cfg = CompilerConfig::quick(11);
        assert_matches_naive(
            8,
            |b| {
                for i in 0..8u32 {
                    for j in (i + 1)..8 {
                        b.cx(i, j);
                    }
                }
            },
            &cfg,
        );
    }

    #[test]
    fn matches_naive_with_tight_recursion_budget() {
        // A tiny recursion budget forces failed moves, exercising the memo
        // path against the naive re-probing path.
        let mut cfg = CompilerConfig::quick(12);
        cfg.max_move_recursion = 1;
        assert_matches_naive(
            10,
            |b| {
                for i in 0..10u32 {
                    b.cx(i, (i + 4) % 10);
                }
                for i in 0..10u32 {
                    b.cx(i, (i + 5) % 10);
                }
            },
            &cfg,
        );
    }

    #[test]
    fn matches_naive_without_home_return() {
        // With home-return off the AOD configuration drifts layer to
        // layer, exercising the memo's exact-position staleness check.
        let cfg = CompilerConfig::quick(13).without_home_return();
        assert_matches_naive(
            9,
            |b| {
                for i in 0..9u32 {
                    b.h(i).cx(i, (i + 3) % 9);
                }
                for i in 0..9u32 {
                    b.cx(i, (i + 4) % 9);
                }
            },
            &cfg,
        );
    }

    #[test]
    fn matches_naive_when_most_gates_trap_change() {
        // A hand-built scene: 40 atoms two sites apart in x and three in y
        // (14 µm and 21 µm, beyond the 7.5 µm interaction radius), so no
        // CZ starts in range. Four diagonal atoms are in the AOD; every CZ
        // between two other atoms is static–static and trap-changes (and
        // a failed move trap-changes too). A trap-changed gate's
        // effective endpoints both sit at its partner, 14 µm from the next
        // column's, inside the 18.75 µm blockade reach: many trap changes
        // per layer are ejected again (the undo path), and layers with a
        // committed move re-check the surviving trap changes in range.
        let n = 40u32;
        let mut array = AtomArray::new(MachineSpec::quera_aquila_256(), n as usize);
        for q in 0..n {
            array.place_in_slm(q, ((q % 8 * 2) as u16, (q / 8 * 3) as u16));
        }
        let selected = vec![0, 9, 18, 27];
        for (line, &q) in selected.iter().enumerate() {
            array.transfer_to_aod(q, line as u16, line as u16).unwrap();
        }
        let layout = DiscretizedLayout { array, interaction_radius_um: 7.5 };
        let sel = AodSelection { selected, dropped: Vec::new(), scores: vec![0.0; n as usize] };
        let mut b = CircuitBuilder::new(n as usize);
        for shift in [20, 13, 7, 29] {
            for q in 0..n {
                let p = (q + shift) % n;
                if q < p {
                    b.cz(q, p);
                }
            }
            b.h(shift % n);
        }
        let c = b.build();
        for seed in 0..4 {
            let s =
                assert_layout_matches_naive(&c, layout.clone(), &sel, &CompilerConfig::quick(seed));
            let widest = s.layers.iter().map(|l| l.trap_changes).max().unwrap_or(0);
            assert!(widest >= 5, "layers must carry many trap changes: widest {widest}");
            assert!(s.stats.blockade_ejections > 0, "some trap changes must be ejected");
            assert!(s.stats.moves_planned > 0, "some layers must commit a move");
            assert!(
                s.stats.trap_changes * 2 > s.stats.cz_count,
                "most CZs must trap-change: {:?}",
                s.stats
            );
        }
    }

    #[test]
    fn empty_layer_panic_lists_the_layer_trap_changes() {
        let curr = [4, 7, 2, 9];
        let mut trap_changed = vec![(0u32, 0u32); 10];
        trap_changed[7] = (3, 5);
        trap_changed[2] = (3, 1);
        trap_changed[9] = (2, 8); // an earlier layer's trap change
        trap_changed[4] = (0, 6); // ejected this layer
        assert_eq!(layer_trap_changes(&curr, &trap_changed, 3), vec![(7, 5), (2, 1)]);
    }

    // -- Move memo unit tests --

    fn memo_array() -> AtomArray {
        // Same shape as movement.rs's zero-budget test: q0 is the mover,
        // q1 the target, q2 an AOD blocker parked next to the target.
        let mut a = AtomArray::new(MachineSpec::quera_aquila_256(), 3);
        a.place_in_slm(0, (2, 2));
        a.place_in_slm(1, (12, 3));
        a.place_in_slm(2, (11, 3));
        a.transfer_to_aod(0, 0, 0).unwrap();
        a.transfer_to_aod(2, 1, 1).unwrap();
        a
    }

    /// An array where the q0 -> q1 move plans successfully.
    fn plannable_array() -> AtomArray {
        let mut a = AtomArray::new(MachineSpec::quera_aquila_256(), 2);
        a.place_in_slm(0, (2, 2));
        a.place_in_slm(1, (12, 12));
        a.transfer_to_aod(0, 0, 0).unwrap();
        a
    }

    #[test]
    fn memo_reuses_a_failure_until_the_blocker_moves() {
        let mut a = memo_array();
        let r = 7.5;
        let mut memo = MoveMemo::default();
        // With zero recursion budget the blocked approach cannot resolve.
        assert!(memo.plan(&a, 0, 1, r, 0).is_none());
        assert_eq!(memo.err_hits, 0, "the first query runs the cascade");
        assert!(memo.plan(&a, 0, 1, r, 0).is_none());
        assert_eq!(memo.err_hits, 1, "identical state must hit");

        // The blocker moves well clear of the target (its column stays
        // right of any approach endpoint): the entry must go stale, and the
        // re-probe now succeeds — the gate became plannable.
        a.apply_aod_moves(&[AodMove { q: 2, x: 98.0, y: 70.0 }]).unwrap();
        let plan = memo.plan(&a, 0, 1, r, 0).expect("stale failure must re-probe");
        assert_eq!(memo.err_hits, 1);
        assert_eq!(plan.moves, plan_move_into_range(&a, 0, 1, r, 0).unwrap().moves);
    }

    #[test]
    fn memo_reuses_a_plan_only_on_the_exact_configuration() {
        let mut a = plannable_array();
        let plan = plan_move_into_range(&a, 0, 1, 7.0, 80).unwrap();
        let mut memo = MoveMemo::default();
        assert_eq!(memo.plan(&a, 0, 1, 7.0, 80).unwrap().moves, plan.moves);
        assert_eq!(memo.ok_hits, 0, "the first query is a memo miss");

        // Identical state: epoch fast path.
        let hit = memo.plan(&a, 0, 1, 7.0, 80).expect("identical state must hit");
        assert_eq!(hit.moves, plan.moves);
        assert_eq!(memo.ok_hits, 1);

        // Commit the plan: the configuration changed, the memo must not
        // serve the stale plan.
        a.apply_aod_moves(&plan.moves).unwrap();
        let moved = memo.plan(&a, 0, 1, 7.0, 80);
        assert_eq!(memo.ok_hits, 1, "moved state must miss");
        assert_eq!(
            moved.map(|p| p.moves),
            plan_move_into_range(&a, 0, 1, 7.0, 80).ok().map(|p| p.moves)
        );
    }

    #[test]
    fn memo_rearms_the_epoch_when_the_configuration_returns() {
        // Err entry: move the blocker away and back without querying in
        // between. The epoch moved on, but the exact-position comparison
        // recognises the configuration; the next query takes the re-armed
        // epoch fast path.
        let mut a = memo_array();
        let mut memo = MoveMemo::default();
        assert!(memo.plan(&a, 0, 1, 7.5, 0).is_none());
        let home = a.position(2);
        a.apply_aod_moves(&[AodMove { q: 2, x: 77.0, y: 70.0 }]).unwrap();
        a.apply_aod_moves(&[AodMove { q: 2, x: home.x, y: home.y }]).unwrap();
        assert!(memo.plan(&a, 0, 1, 7.5, 0).is_none(), "returned configuration must hit");
        assert!(memo.plan(&a, 0, 1, 7.5, 0).is_none());
        assert_eq!((memo.err_hits, memo.ok_hits), (2, 0));

        // Ok entry: the home-return steady state, mover out and back.
        let mut a = plannable_array();
        let mut memo = MoveMemo::default();
        let plan = memo.plan(&a, 0, 1, 7.0, 80).unwrap();
        let home = a.position(0);
        a.apply_aod_moves(&plan.moves).unwrap();
        a.apply_aod_moves(&[AodMove { q: 0, x: home.x, y: home.y }]).unwrap();
        let back = memo.plan(&a, 0, 1, 7.0, 80).expect("returned configuration must hit");
        assert_eq!(back.moves, plan.moves);
        assert!(memo.plan(&a, 0, 1, 7.0, 80).is_some(), "re-armed epoch fast path");
        assert_eq!((memo.err_hits, memo.ok_hits), (0, 2));
    }

    #[test]
    fn memo_misses_for_an_unknown_pair() {
        // A recorded failure answers only its own (mover, target) key.
        let a = memo_array();
        let mut memo = MoveMemo::default();
        assert!(memo.plan(&a, 0, 1, 7.5, 0).is_none());
        let _ = memo.plan(&a, 2, 1, 7.5, 0);
        assert_eq!((memo.err_hits, memo.ok_hits), (0, 0));

        // A recorded success likewise, even for its reversed pair.
        let a = plannable_array();
        let mut memo = MoveMemo::default();
        assert!(memo.plan(&a, 0, 1, 7.0, 80).is_some());
        assert!(memo.plan(&a, 1, 0, 7.0, 80).is_none(), "q1 is not in the AOD");
        assert_eq!((memo.err_hits, memo.ok_hits), (0, 0));
    }

    #[test]
    fn memo_serves_bit_identical_plans() {
        // Cold and warm, the memo must hand back exactly what the planner
        // would produce.
        let a = plannable_array();
        let direct = plan_move_into_range(&a, 0, 1, 7.0, 80).unwrap();
        let mut memo = MoveMemo::default();
        let cold = memo.plan(&a, 0, 1, 7.0, 80).unwrap();
        assert_eq!(cold.moves, direct.moves);
        let warm = memo.plan(&a, 0, 1, 7.0, 80).unwrap();
        assert_eq!(warm.moves, direct.moves);
        assert_eq!(warm.max_distance_um.to_bits(), direct.max_distance_um.to_bits());
        assert_eq!(memo.ok_hits, 1, "second query answers from the per-compile memo");
    }

    /// A scene captured from a SECA compile on QuEra-256: gate (q8, q6)
    /// with both operands in the AOD, where q8 cannot be brought to q6 but
    /// q6 can be brought to q8.
    fn reverse_only_array() -> (AtomArray, f64) {
        let mut a = AtomArray::new(MachineSpec::quera_aquila_256(), 11);
        let slm = [(1, (4, 2)), (2, (6, 0)), (5, (6, 7)), (7, (4, 6)), (9, (2, 0)), (10, (0, 5))];
        for (q, site) in slm {
            a.place_in_slm(q, site);
        }
        let aod = [
            (0, (4, 4), 2, 2, 28.0, 28.0),
            (3, (2, 3), 1, 1, 14.0, 21.0),
            (4, (7, 2), 0, 3, 49.0, 14.0),
            (6, (7, 5), 3, 4, 52.0, 35.0),
            (8, (1, 7), 4, 0, 7.0, 49.0),
        ];
        for (q, site, row, col, x, y) in aod {
            a.place_in_slm(q, site);
            a.transfer_to_aod_at(q, row, col, x, y).unwrap();
        }
        (a, 14.0 * 2f64.sqrt())
    }

    #[test]
    fn forward_fail_reverse_success_is_answered_by_the_memo_both_ways() {
        let (a, r) = reverse_only_array();
        assert!(a.is_aod(6) && a.is_aod(8) && a.distance(8, 6) > r);
        assert!(plan_move_into_range(&a, 8, 6, r, 80).is_err(), "forward must fail");
        let reverse = plan_move_into_range(&a, 6, 8, r, 80).expect("reverse must plan");

        // The scheduler's query pair, twice against the same configuration.
        let mut memo = MoveMemo::default();
        let query =
            |memo: &mut MoveMemo| memo.plan(&a, 8, 6, r, 80).or_else(|| memo.plan(&a, 6, 8, r, 80));
        assert_eq!(query(&mut memo).unwrap().moves, reverse.moves);
        assert_eq!((memo.err_hits, memo.ok_hits), (0, 0));
        // The second query never reaches the cascade: the forward failure
        // and the reverse plan are both memo hits.
        assert_eq!(query(&mut memo).unwrap().moves, reverse.moves);
        assert_eq!((memo.err_hits, memo.ok_hits), (1, 1));
    }

    #[test]
    fn repetitive_circuit_reuses_plans_and_recompiles_identically() {
        // A Trotter-style circuit: the same long-range interactions repeat
        // step after step, so under home-return the scheduler re-plans the
        // same (mover, target) against the same configuration every step.
        let mut b = CircuitBuilder::new(10);
        for _step in 0..4 {
            for i in 0..10u32 {
                b.cx(i, (i + 5) % 10);
            }
        }
        let c = b.build();
        let cfg = CompilerConfig::quick(0xCAFE01);
        let layout = GraphineLayout::generate(&c, &cfg.placement);
        let mut first = discretize(&c, &layout, MachineSpec::quera_aquila_256());
        let sel = select_aod_qubits(&c, &mut first, &cfg);
        let mut second = first.clone();

        let s1 = schedule_gates(&c, &mut first, &sel, &cfg);
        assert!(s1.stats.moves_planned > 0, "circuit must exercise the movement planner");
        assert!(
            s1.stats.plan_cache_hits > 0,
            "repeating steps must reuse plans within the compile: {:?}",
            s1.stats
        );

        // The identical schedule again: a fresh memo re-plans from
        // scratch, and the schedule is bit-identical.
        let s2 = schedule_gates(&c, &mut second, &sel, &cfg);
        assert_eq!(s1.layers, s2.layers);
    }

    mod matches_naive_on_random_circuits {
        use super::*;
        use parallax_testkit::arb_hcz_circuit;
        use proptest::prelude::*;

        /// A random circuit interleaving H and CZ over `n` qubits (the
        /// workspace-shared generator).
        fn random_circuit(n: u32) -> impl Strategy<Value = Circuit> {
            arb_hcz_circuit(n, 4, 40)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// The incremental-frontier + bucketed-blockade + memoized
            /// scheduler must be bit-identical to the naive Algorithm 1
            /// on random circuits: same layers, same moves, same stats,
            /// same final array state.
            #[test]
            fn full_schedules_are_bit_identical(
                circuit in random_circuit(10),
                seed in 0u64..32,
            ) {
                let cfg = CompilerConfig::quick(seed);
                let layout = GraphineLayout::generate(&circuit, &cfg.placement);
                let mut fast = discretize(&circuit, &layout, MachineSpec::quera_aquila_256());
                let sel = select_aod_qubits(&circuit, &mut fast, &cfg);
                let mut naive = fast.clone();
                let s_fast = schedule_gates(&circuit, &mut fast, &sel, &cfg);
                let s_naive = schedule_gates_naive(&circuit, &mut naive, &sel, &cfg);
                prop_assert_eq!(&s_fast.layers, &s_naive.layers);
                let mut stats = s_fast.stats.clone();
                stats.failed_move_memo_hits = 0;
                stats.plan_cache_hits = 0;
                stats.home_return_skips = 0;
                prop_assert_eq!(&stats, &s_naive.stats);
                for q in 0..10u32 {
                    prop_assert_eq!(fast.array.position(q), naive.array.position(q));
                    prop_assert_eq!(fast.array.trap(q), naive.array.trap(q));
                }
            }

            /// Same property under a starved move budget (forces the
            /// failed-move memo) and with home-return disabled (forces the
            /// memo's exact-position staleness checks as the AOD drifts).
            #[test]
            fn bit_identical_under_failure_heavy_configs(
                circuit in random_circuit(8),
                seed in 0u64..16,
                recursion in 0usize..3,
                return_home in (0u8..2).prop_map(|b| b == 1),
            ) {
                let mut cfg = CompilerConfig::quick(seed);
                cfg.max_move_recursion = recursion;
                cfg.return_home = return_home;
                let layout = GraphineLayout::generate(&circuit, &cfg.placement);
                let mut fast = discretize(&circuit, &layout, MachineSpec::quera_aquila_256());
                let sel = select_aod_qubits(&circuit, &mut fast, &cfg);
                let mut naive = fast.clone();
                let s_fast = schedule_gates(&circuit, &mut fast, &sel, &cfg);
                let s_naive = schedule_gates_naive(&circuit, &mut naive, &sel, &cfg);
                prop_assert_eq!(&s_fast.layers, &s_naive.layers);
                let mut stats = s_fast.stats.clone();
                stats.failed_move_memo_hits = 0;
                stats.plan_cache_hits = 0;
                stats.home_return_skips = 0;
                prop_assert_eq!(&stats, &s_naive.stats);
            }
        }
    }
}
