//! Mutable atom-array state: which trap holds each atom and where it is.
//!
//! This models the machine of Fig. 2/3: static SLM sites on the discretized
//! grid plus mobile AOD rows/columns. The Parallax discipline of *one atom
//! per AOD row/column pair* (Section II-B) is enforced here. All mutating
//! operations validate the paper's hardware constraints:
//!
//! 1. minimum atom separation,
//! 2. AOD rows/columns never cross (index order == coordinate order),
//! 3. atoms on a row/column move in tandem (trivially satisfied with one
//!    atom per line; the parallelized copies share the same line motion by
//!    construction, Section II-E).

use crate::geometry::{violates_separation, Point};
use crate::grid::{Site, SiteGrid};
use crate::params::MachineSpec;
use std::fmt;

mod batch;
pub use batch::MoveBatch;

/// Which trap currently holds an atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Static SLM site.
    Slm(Site),
    /// Mobile AOD crossing: the atom sits at `(col_x, row_y)`.
    Aod {
        /// AOD row index.
        row: u16,
        /// AOD column index.
        col: u16,
    },
}

/// A hardware-constraint violation detected during validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Violation {
    /// Two owned AOD rows would cross (or sit closer than the line gap).
    RowOrdering {
        /// Lower-indexed row.
        row_a: u16,
        /// Higher-indexed row.
        row_b: u16,
    },
    /// Two owned AOD columns would cross.
    ColOrdering {
        /// Lower-indexed column.
        col_a: u16,
        /// Higher-indexed column.
        col_b: u16,
    },
    /// Two atoms violate the minimum separation distance.
    Separation {
        /// First atom (qubit id).
        q1: u32,
        /// Second atom (qubit id).
        q2: u32,
        /// Their distance, µm.
        distance: f64,
    },
    /// An atom left the machine's addressable area.
    OutOfBounds {
        /// Offending atom (qubit id).
        q: u32,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::RowOrdering { row_a, row_b } => {
                write!(f, "AOD rows {row_a} and {row_b} would cross")
            }
            Violation::ColOrdering { col_a, col_b } => {
                write!(f, "AOD columns {col_a} and {col_b} would cross")
            }
            Violation::Separation { q1, q2, distance } => {
                write!(f, "atoms q{q1} and q{q2} at distance {distance:.3} µm violate separation")
            }
            Violation::OutOfBounds { q } => write!(f, "atom q{q} is out of bounds"),
        }
    }
}

/// A requested AOD move: place qubit `q` at `(x, y)` µm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AodMove {
    /// Qubit to move (must be AOD-trapped).
    pub q: u32,
    /// Target x, µm.
    pub x: f64,
    /// Target y, µm.
    pub y: f64,
}

/// Uniform-bucket spatial index over the committed positions of placed
/// atoms. One cell per site pitch; an atom lives in exactly one cell's
/// intrusive singly-linked chain (`heads`/`next` — two flat arrays, no
/// per-cell allocations, O(1) insert, O(chain) unlink), maintained
/// through every position-changing operation. A radius query visits only
/// the cells overlapping the query disc's bounding box, so the movement
/// planner's obstruction scans touch a handful of nearby atoms instead of
/// sweeping the whole array.
#[derive(Debug, Clone)]
struct SpatialIndex {
    cells: crate::grid::CellGeometry,
    /// Per cell: first qubit id in the chain, or `EMPTY`.
    heads: Vec<i32>,
    /// Per qubit: next qubit in its cell's chain, or `EMPTY`.
    next: Vec<i32>,
}

const EMPTY: i32 = -1;

impl SpatialIndex {
    fn new(extent_um: f64, margin_um: f64, cell_um: f64, num_qubits: usize) -> Self {
        let cells = crate::grid::CellGeometry::new(extent_um, margin_um, cell_um);
        Self { heads: vec![EMPTY; cells.num_cells()], next: vec![EMPTY; num_qubits], cells }
    }

    fn insert(&mut self, q: u32, p: Point) {
        let c = self.cells.cell_of(p);
        self.next[q as usize] = self.heads[c];
        self.heads[c] = q as i32;
    }

    fn remove(&mut self, q: u32, p: Point) {
        let c = self.cells.cell_of(p);
        let mut link = self.heads[c];
        if link == q as i32 {
            self.heads[c] = self.next[q as usize];
            return;
        }
        while link != EMPTY {
            let cur = link as usize;
            if self.next[cur] == q as i32 {
                self.next[cur] = self.next[q as usize];
                return;
            }
            link = self.next[cur];
        }
        panic!("atom q{q} is not indexed at its position");
    }

    fn relocate(&mut self, q: u32, from: Point, to: Point) {
        let (a, b) = (self.cells.cell_of(from), self.cells.cell_of(to));
        if a != b {
            self.remove(q, from);
            self.next[q as usize] = self.heads[b];
            self.heads[b] = q as i32;
        }
    }

    /// Visit every indexed atom in the cells overlapping the disc's
    /// bounding box (a superset of the atoms within `radius`; callers
    /// filter by exact distance).
    fn for_each_within(&self, center: Point, radius: f64, mut f: impl FnMut(u32)) {
        self.cells.for_each_cell_within(center, radius, |cell| {
            let mut link = self.heads[cell];
            while link != EMPTY {
                f(link as u32);
                link = self.next[link as usize];
            }
        });
    }
}

/// Per-qubit trap tag: unplaced.
const TAG_NONE: u8 = 0;
/// Per-qubit trap tag: static SLM site (payload lanes hold the site).
const TAG_SLM: u8 = 1;
/// Per-qubit trap tag: mobile AOD crossing (payload lanes hold row/col).
const TAG_AOD: u8 = 2;
/// Sentinel for an unowned AOD line in the packed owner lanes.
const NO_OWNER: u32 = u32::MAX;

/// The full atom-array state for one machine.
///
/// The per-qubit and per-line state is stored as packed parallel lanes
/// (structure-of-arrays) rather than `Vec<Option<…>>`: a one-byte tag lane
/// plus two `u32` payload lanes per qubit, and sentinel-encoded flat
/// `f64`/`u32` arrays per AOD line. The blockade/occupancy scans and the
/// AOD snapshot walks iterate contiguous dense memory, which is what keeps
/// them cheap at 4,096 sites.
#[derive(Debug, Clone)]
pub struct AtomArray {
    spec: MachineSpec,
    grid: SiteGrid,
    /// Per qubit: [`TAG_NONE`] | [`TAG_SLM`] | [`TAG_AOD`].
    trap_tags: Vec<u8>,
    /// Per qubit: SLM site column, or AOD row (meaning chosen by the tag).
    trap_a: Vec<u32>,
    /// Per qubit: SLM site row, or AOD column (meaning chosen by the tag).
    trap_b: Vec<u32>,
    positions: Vec<Point>,
    /// Per AOD row: line y-coordinate; meaningful only while owned.
    row_y: Vec<f64>,
    /// Per AOD column: line x-coordinate; meaningful only while owned.
    col_x: Vec<f64>,
    /// Per AOD row: owning qubit, or [`NO_OWNER`].
    row_owner: Vec<u32>,
    /// Per AOD column: owning qubit, or [`NO_OWNER`].
    col_owner: Vec<u32>,
    index: SpatialIndex,
    /// Number of AOD-trapped qubits.
    aod_count: usize,
    positions_epoch: u64,
}

impl AtomArray {
    /// Create an array for `num_qubits` logical atoms on machine `spec`.
    pub fn new(spec: MachineSpec, num_qubits: usize) -> Self {
        assert!(
            num_qubits <= spec.num_sites(),
            "{num_qubits} qubits exceed the {} sites of {}",
            spec.num_sites(),
            spec.name
        );
        let grid = SiteGrid::new(&spec);
        let index =
            SpatialIndex::new(spec.extent_um(), grid.pitch_um(), grid.pitch_um(), num_qubits);
        Self {
            grid,
            trap_tags: vec![TAG_NONE; num_qubits],
            trap_a: vec![0; num_qubits],
            trap_b: vec![0; num_qubits],
            positions: vec![Point::default(); num_qubits],
            row_y: vec![0.0; spec.aod_dim],
            col_x: vec![0.0; spec.aod_dim],
            row_owner: vec![NO_OWNER; spec.aod_dim],
            col_owner: vec![NO_OWNER; spec.aod_dim],
            index,
            aod_count: 0,
            positions_epoch: 0,
            spec,
        }
    }

    /// The machine specification.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The underlying site grid.
    pub fn grid(&self) -> &SiteGrid {
        &self.grid
    }

    /// Number of logical atoms.
    pub fn num_qubits(&self) -> usize {
        self.trap_tags.len()
    }

    /// Current physical position of qubit `q`, µm.
    pub fn position(&self, q: u32) -> Point {
        self.positions[q as usize]
    }

    /// Reconstruct the trap enum for qubit index `q` from the packed lanes.
    #[inline]
    fn trap_of(&self, q: usize) -> Option<Trap> {
        match self.trap_tags[q] {
            TAG_NONE => None,
            TAG_SLM => Some(Trap::Slm((self.trap_a[q] as u16, self.trap_b[q] as u16))),
            _ => Some(Trap::Aod { row: self.trap_a[q] as u16, col: self.trap_b[q] as u16 }),
        }
    }

    /// Current trap of qubit `q` (`None` until placed).
    pub fn trap(&self, q: u32) -> Option<Trap> {
        self.trap_of(q as usize)
    }

    /// Whether qubit `q` is AOD-trapped.
    pub fn is_aod(&self, q: u32) -> bool {
        self.trap_tags[q as usize] == TAG_AOD
    }

    /// The qubit currently owning AOD row `row`, if any. O(1) against the
    /// packed owner lane — the movement planner resolves line ownership on
    /// every recursive displacement probe.
    pub fn row_owner(&self, row: u16) -> Option<u32> {
        let q = self.row_owner[row as usize];
        (q != NO_OWNER).then_some(q)
    }

    /// The qubit currently owning AOD column `col`, if any (O(1)).
    pub fn col_owner(&self, col: u16) -> Option<u32> {
        let q = self.col_owner[col as usize];
        (q != NO_OWNER).then_some(q)
    }

    /// All AOD-trapped qubits.
    pub fn aod_qubits(&self) -> Vec<u32> {
        (0..self.trap_tags.len() as u32).filter(|&q| self.is_aod(q)).collect()
    }

    /// Visit every AOD-trapped qubit in ascending id order without
    /// allocating (the failed-move memoization snapshots positions through
    /// this on every probe decision).
    pub fn for_each_aod(&self, mut f: impl FnMut(u32)) {
        for (q, &tag) in self.trap_tags.iter().enumerate() {
            if tag == TAG_AOD {
                f(q as u32);
            }
        }
    }

    /// Monotone counter bumped by every state mutation (placements,
    /// transfers, releases, committed move batches). Equal epochs guarantee
    /// identical atom positions; after the epoch moved on, only an exact
    /// position comparison can tell whether the configuration really
    /// changed (e.g. atoms moved out and back home between layers).
    pub fn positions_epoch(&self) -> u64 {
        self.positions_epoch
    }

    /// Write every AOD-trapped qubit's `(id, position)` into `out`
    /// (cleared first), ascending id — the mobile half of the array state.
    /// The movement caches snapshot this on every record/verify.
    pub fn aod_snapshot(&self, out: &mut Vec<(u32, Point)>) {
        out.clear();
        self.for_each_aod(|q| out.push((q, self.positions[q as usize])));
    }

    /// Whether the current AOD configuration is exactly `snapshot`, a
    /// value [`Self::aod_snapshot`] wrote (ascending, distinct ids): the
    /// same qubits in the AOD at equal positions. Equivalent to
    /// `{ let mut s = vec![]; self.aod_snapshot(&mut s); s == snapshot }`
    /// without the allocation — the hot staleness check of the movement
    /// caches, where a stale epoch usually means "moved out and back home".
    /// It walks the snapshot, not the qubits: every entry must still be
    /// AOD-trapped at its position, and the AOD must hold no other atom,
    /// which the AOD-atom count settles.
    pub fn aod_config_matches(&self, snapshot: &[(u32, Point)]) -> bool {
        snapshot.len() == self.aod_count
            && snapshot.iter().all(|&(q, p)| {
                self.trap_tags[q as usize] == TAG_AOD && self.positions[q as usize] == p
            })
    }

    /// Visit every placed atom in the spatial-index cells overlapping the
    /// disc of `radius` around `center` — a superset of the atoms within
    /// `radius`; callers filter by exact distance. Visit order follows the
    /// index's bucket layout and is deterministic for a given operation
    /// history, but is *not* sorted by qubit id.
    pub fn for_each_atom_within(&self, center: Point, radius: f64, f: impl FnMut(u32)) {
        self.index.for_each_within(center, radius, f);
    }

    /// Euclidean distance between two qubits, µm.
    pub fn distance(&self, a: u32, b: u32) -> f64 {
        self.positions[a as usize].distance(&self.positions[b as usize])
    }

    /// Place an unplaced qubit into the SLM at `site`.
    pub fn place_in_slm(&mut self, q: u32, site: Site) {
        assert!(self.trap_tags[q as usize] == TAG_NONE, "qubit {q} is already placed");
        self.grid.occupy(site);
        self.set_trap_slm(q as usize, site);
        self.positions[q as usize] = self.grid.site_position(site);
        self.index.insert(q, self.positions[q as usize]);
        self.positions_epoch += 1;
    }

    #[inline]
    fn set_trap_slm(&mut self, q: usize, site: Site) {
        self.trap_tags[q] = TAG_SLM;
        self.trap_a[q] = u32::from(site.0);
        self.trap_b[q] = u32::from(site.1);
    }

    #[inline]
    fn set_trap_aod(&mut self, q: usize, row: u16, col: u16) {
        self.trap_tags[q] = TAG_AOD;
        self.trap_a[q] = u32::from(row);
        self.trap_b[q] = u32::from(col);
    }

    /// Transfer a SLM-trapped qubit into the AOD at line pair `(row, col)`,
    /// keeping its current position (line coordinates snap to the atom).
    ///
    /// Fails (without mutating) if the lines are taken or the resulting
    /// line coordinates would break row/column ordering.
    pub fn transfer_to_aod(&mut self, q: u32, row: u16, col: u16) -> Result<(), Violation> {
        let site = match self.trap_of(q as usize) {
            Some(Trap::Slm(site)) => site,
            other => panic!("qubit {q} is not SLM-trapped (trap = {other:?})"),
        };
        assert!(self.row_owner[row as usize] == NO_OWNER, "AOD row {row} is already owned");
        assert!(self.col_owner[col as usize] == NO_OWNER, "AOD column {col} is already owned");
        let pos = self.positions[q as usize];
        if let Some(v) = self.check_line_orders(row, pos.y, col, pos.x) {
            return Err(v);
        }
        self.grid.vacate(site);
        self.set_trap_aod(q as usize, row, col);
        self.aod_count += 1;
        self.row_owner[row as usize] = q;
        self.col_owner[col as usize] = q;
        self.row_y[row as usize] = pos.y;
        self.col_x[col as usize] = pos.x;
        self.positions_epoch += 1;
        Ok(())
    }

    /// Like [`AtomArray::transfer_to_aod`], but place the atom at explicit
    /// coordinates `(x, y)` instead of its current position. Parallax uses
    /// this when resolving shared row/column coordinates by nudging
    /// (Section II-C). Validates line ordering and atom separation at the
    /// target; on error nothing changes.
    pub fn transfer_to_aod_at(
        &mut self,
        q: u32,
        row: u16,
        col: u16,
        x: f64,
        y: f64,
    ) -> Result<(), Violation> {
        let site = match self.trap_of(q as usize) {
            Some(Trap::Slm(site)) => site,
            other => panic!("qubit {q} is not SLM-trapped (trap = {other:?})"),
        };
        assert!(self.row_owner[row as usize] == NO_OWNER, "AOD row {row} is already owned");
        assert!(self.col_owner[col as usize] == NO_OWNER, "AOD column {col} is already owned");
        if let Some(v) = self.check_line_orders(row, y, col, x) {
            return Err(v);
        }
        let target = Point::new(x, y);
        for (other, &tag) in self.trap_tags.iter().enumerate() {
            if tag == TAG_NONE || other as u32 == q {
                continue;
            }
            if violates_separation(&target, &self.positions[other], self.spec.min_separation_um) {
                return Err(Violation::Separation {
                    q1: q,
                    q2: other as u32,
                    distance: target.distance(&self.positions[other]),
                });
            }
        }
        self.grid.vacate(site);
        self.set_trap_aod(q as usize, row, col);
        self.aod_count += 1;
        self.row_owner[row as usize] = q;
        self.col_owner[col as usize] = q;
        self.row_y[row as usize] = y;
        self.col_x[col as usize] = x;
        self.index.relocate(q, self.positions[q as usize], target);
        self.positions[q as usize] = target;
        self.positions_epoch += 1;
        Ok(())
    }

    /// Release an AOD-trapped qubit back into the SLM at `site` (the second
    /// half of a trap-change; the paper's release/retrap fallback).
    pub fn release_to_slm(&mut self, q: u32, site: Site) {
        let (row, col) = match self.trap_of(q as usize) {
            Some(Trap::Aod { row, col }) => (row, col),
            other => panic!("qubit {q} is not AOD-trapped (trap = {other:?})"),
        };
        self.grid.occupy(site);
        self.aod_count -= 1;
        self.row_owner[row as usize] = NO_OWNER;
        self.col_owner[col as usize] = NO_OWNER;
        self.row_y[row as usize] = 0.0;
        self.col_x[col as usize] = 0.0;
        self.set_trap_slm(q as usize, site);
        let home = self.grid.site_position(site);
        self.index.relocate(q, self.positions[q as usize], home);
        self.positions[q as usize] = home;
        self.positions_epoch += 1;
    }

    /// Validate a batch of AOD moves against the final configuration and, if
    /// clean, commit them atomically. On error nothing changes and the first
    /// detected violation is returned.
    ///
    /// Batch commits model the paper's recursive movement resolution: the
    /// primary move plus all recursive displacements of obstructing atoms
    /// land together.
    pub fn apply_aod_moves(&mut self, moves: &[AodMove]) -> Result<(), Violation> {
        if let Some(v) = self.first_aod_move_violation(moves) {
            return Err(v);
        }
        self.commit_validated_moves(moves);
        Ok(())
    }

    /// Commit a batch of AOD moves that the caller has already validated
    /// against this exact array state — the scheduler's planned batches,
    /// which a [`MoveBatch`] cleared before they were returned, and its
    /// home-return batches, which restore a configuration
    /// the array held before. Release builds skip the scan that
    /// [`Self::apply_aod_moves`] runs; debug builds still run it and panic
    /// on a violation (the inline-diff convention of `docs/DATA_LAYOUT.md`).
    ///
    /// Panics if a mover is not AOD-trapped.
    pub fn commit_validated_moves(&mut self, moves: &[AodMove]) {
        #[cfg(debug_assertions)]
        if let Some(v) = self.first_aod_move_violation(moves) {
            panic!("commit_validated_moves: the batch violates {v:?}");
        }
        for m in moves {
            let (row, col) = match self.trap_of(m.q as usize) {
                Some(Trap::Aod { row, col }) => (row, col),
                other => panic!("qubit {} is not AOD-trapped (trap = {other:?})", m.q),
            };
            self.row_y[row as usize] = m.y;
            self.col_x[col as usize] = m.x;
            let to = Point::new(m.x, m.y);
            self.index.relocate(m.q, self.positions[m.q as usize], to);
            self.positions[m.q as usize] = to;
        }
        if !moves.is_empty() {
            self.positions_epoch += 1;
        }
    }

    /// Check a batch of AOD moves, returning every violation of the *final*
    /// configuration (empty = the batch is safe to commit), in the order
    /// [`MoveBatch`] reports them. A qubit the batch repeats is reported
    /// once per move, at its last move's position.
    /// Debug builds diff the result against the naive sweep.
    pub fn check_aod_moves(&self, moves: &[AodMove]) -> Vec<Violation> {
        let violations = MoveBatch::from_moves(self, moves).violations_in_order_of(moves);
        #[cfg(debug_assertions)]
        assert_eq!(violations, self.check_aod_moves_naive(moves), "on {moves:?}");
        violations
    }

    /// First violation of a batch of AOD moves, or `None` when the batch is
    /// safe. Exactly `check_aod_moves(moves).first().copied()`. Debug
    /// builds diff the result against the naive sweep.
    pub fn first_aod_move_violation(&self, moves: &[AodMove]) -> Option<Violation> {
        let first = MoveBatch::from_moves(self, moves).first_violation();
        #[cfg(debug_assertions)]
        assert_eq!(first, self.first_aod_move_violation_naive(moves), "on {moves:?}");
        first
    }

    /// Naive full-sweep twin of [`Self::check_aod_moves`]: identical
    /// semantics, O(moves × atoms) pairwise separation scan with no
    /// spatial index. Kept as the oracle of [`MoveBatch`]: debug builds
    /// diff every check and every cascade step against it, and the
    /// proptests assert both agree violation-for-violation on random
    /// batches and move sequences. Deliberately not cfg-gated: the movement
    /// planner's naive twin in `parallax-core` checks with it, and
    /// release-profile test builds of that crate compile against this
    /// crate's release build.
    pub fn check_aod_moves_naive(&self, moves: &[AodMove]) -> Vec<Violation> {
        let mut out = Vec::new();
        self.scan_aod_moves_naive(moves, |v| {
            out.push(v);
            true
        });
        out
    }

    /// The naive sweep's first violation: [`Self::check_aod_moves_naive`]
    /// stopped at its first entry.
    pub fn first_aod_move_violation_naive(&self, moves: &[AodMove]) -> Option<Violation> {
        let mut first = None;
        self.scan_aod_moves_naive(moves, |v| {
            first = Some(v);
            false
        });
        first
    }

    /// The pre-index traversal behind [`Self::check_aod_moves_naive`].
    fn scan_aod_moves_naive(&self, moves: &[AodMove], mut emit: impl FnMut(Violation) -> bool) {
        let mut moved: Vec<(u32, Point)> = Vec::with_capacity(moves.len());
        let mut row_over: Vec<(u16, f64)> = Vec::with_capacity(moves.len());
        let mut col_over: Vec<(u16, f64)> = Vec::with_capacity(moves.len());
        fn upsert<K: PartialEq, V>(list: &mut Vec<(K, V)>, key: K, value: V) {
            match list.iter_mut().find(|(k, _)| *k == key) {
                Some(entry) => entry.1 = value,
                None => list.push((key, value)),
            }
        }
        for m in moves {
            match self.trap_of(m.q as usize) {
                Some(Trap::Aod { row, col }) => {
                    upsert(&mut moved, m.q, Point::new(m.x, m.y));
                    upsert(&mut row_over, row, m.y);
                    upsert(&mut col_over, col, m.x);
                }
                other => panic!("qubit {} is not AOD-trapped (trap = {other:?})", m.q),
            }
        }
        let pos_of = |q: usize| -> Point {
            moved
                .iter()
                .find(|&&(mq, _)| mq as usize == q)
                .map(|&(_, p)| p)
                .unwrap_or(self.positions[q])
        };

        let margin = self.grid.pitch_um();
        let max = self.spec.extent_um() + margin;
        for m in moves {
            let p = pos_of(m.q as usize);
            if (p.x < -margin || p.y < -margin || p.x > max || p.y > max)
                && !emit(Violation::OutOfBounds { q: m.q })
            {
                return;
            }
        }
        let gap = self.line_gap();
        let mut prev: Option<(u16, f64)> = None;
        for (i, &owner) in self.row_owner.iter().enumerate() {
            if owner == NO_OWNER {
                continue;
            }
            let y = row_over
                .iter()
                .find(|&&(r, _)| r as usize == i)
                .map(|&(_, y)| y)
                .unwrap_or(self.row_y[i]);
            if let Some((pi, py)) = prev {
                if y - py < gap - 1e-9
                    && !emit(Violation::RowOrdering { row_a: pi, row_b: i as u16 })
                {
                    return;
                }
            }
            prev = Some((i as u16, y));
        }
        let mut prev: Option<(u16, f64)> = None;
        for (i, &owner) in self.col_owner.iter().enumerate() {
            if owner == NO_OWNER {
                continue;
            }
            let x = col_over
                .iter()
                .find(|&&(c, _)| c as usize == i)
                .map(|&(_, x)| x)
                .unwrap_or(self.col_x[i]);
            if let Some((pi, px)) = prev {
                if x - px < gap - 1e-9
                    && !emit(Violation::ColOrdering { col_a: pi, col_b: i as u16 })
                {
                    return;
                }
            }
            prev = Some((i as u16, x));
        }
        let min_sep = self.spec.min_separation_um;
        for m in moves {
            let p = pos_of(m.q as usize);
            for (other, &tag) in self.trap_tags.iter().enumerate() {
                if tag == TAG_NONE || other as u32 == m.q {
                    continue;
                }
                if other as u32 > m.q && moved.iter().any(|&(mq, _)| mq as usize == other) {
                    continue;
                }
                let po = pos_of(other);
                if violates_separation(&p, &po, min_sep)
                    && !emit(Violation::Separation {
                        q1: m.q,
                        q2: other as u32,
                        distance: p.distance(&po),
                    })
                {
                    return;
                }
            }
        }
    }

    /// Full-state invariant check (used by tests and debug assertions).
    pub fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let gap = self.line_gap();
        let rows: Vec<(u16, f64)> = self
            .row_owner
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o != NO_OWNER)
            .map(|(i, _)| (i as u16, self.row_y[i]))
            .collect();
        for w in rows.windows(2) {
            if w[1].1 - w[0].1 < gap - 1e-9 {
                out.push(Violation::RowOrdering { row_a: w[0].0, row_b: w[1].0 });
            }
        }
        let cols: Vec<(u16, f64)> = self
            .col_owner
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o != NO_OWNER)
            .map(|(i, _)| (i as u16, self.col_x[i]))
            .collect();
        for w in cols.windows(2) {
            if w[1].1 - w[0].1 < gap - 1e-9 {
                out.push(Violation::ColOrdering { col_a: w[0].0, col_b: w[1].0 });
            }
        }
        let min_sep = self.spec.min_separation_um;
        for a in 0..self.trap_tags.len() {
            if self.trap_tags[a] == TAG_NONE {
                continue;
            }
            for b in (a + 1)..self.trap_tags.len() {
                if self.trap_tags[b] == TAG_NONE {
                    continue;
                }
                if violates_separation(&self.positions[a], &self.positions[b], min_sep) {
                    out.push(Violation::Separation {
                        q1: a as u32,
                        q2: b as u32,
                        distance: self.positions[a].distance(&self.positions[b]),
                    });
                }
            }
        }
        out
    }

    /// Minimum coordinate gap between adjacent owned AOD lines. Using the
    /// atom separation distance keeps crossing and trap-interference
    /// constraints aligned.
    pub fn line_gap(&self) -> f64 {
        self.spec.min_separation_um
    }

    fn check_line_orders(&self, row: u16, y: f64, col: u16, x: f64) -> Option<Violation> {
        let gap = self.line_gap();
        for (i, &owner) in self.row_owner.iter().enumerate() {
            if owner == NO_OWNER {
                continue;
            }
            let other_y = self.row_y[i];
            let i = i as u16;
            if i < row && other_y > y - gap + 1e-9 {
                return Some(Violation::RowOrdering { row_a: i, row_b: row });
            }
            if i > row && other_y < y + gap - 1e-9 {
                return Some(Violation::RowOrdering { row_a: row, row_b: i });
            }
        }
        for (i, &owner) in self.col_owner.iter().enumerate() {
            if owner == NO_OWNER {
                continue;
            }
            let other_x = self.col_x[i];
            let i = i as u16;
            if i < col && other_x > x - gap + 1e-9 {
                return Some(Violation::ColOrdering { col_a: i, col_b: col });
            }
            if i > col && other_x < x + gap - 1e-9 {
                return Some(Violation::ColOrdering { col_a: col, col_b: i });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> AtomArray {
        AtomArray::new(MachineSpec::quera_aquila_256(), 8)
    }

    #[test]
    fn placement_sets_position() {
        let mut a = array();
        a.place_in_slm(0, (2, 3));
        assert_eq!(a.position(0), Point::new(14.0, 21.0));
        assert_eq!(a.trap(0), Some(Trap::Slm((2, 3))));
        assert!(!a.is_aod(0));
        assert!(a.validate().is_empty());
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_placement_panics() {
        let mut a = array();
        a.place_in_slm(0, (0, 0));
        a.place_in_slm(0, (1, 1));
    }

    #[test]
    fn transfer_to_aod_keeps_position() {
        let mut a = array();
        a.place_in_slm(0, (4, 4));
        let before = a.position(0);
        a.transfer_to_aod(0, 3, 3).unwrap();
        assert_eq!(a.position(0), before);
        assert!(a.is_aod(0));
        assert_eq!(a.aod_qubits(), vec![0]);
        // The SLM site is free again.
        assert!(!a.grid().is_occupied((4, 4)));
    }

    #[test]
    fn owner_lookup_tracks_transfers_and_releases() {
        let mut a = array();
        a.place_in_slm(0, (4, 4));
        assert_eq!(a.row_owner(3), None);
        assert_eq!(a.col_owner(3), None);
        a.transfer_to_aod(0, 3, 3).unwrap();
        assert_eq!(a.row_owner(3), Some(0));
        assert_eq!(a.col_owner(3), Some(0));
        a.release_to_slm(0, (4, 4));
        assert_eq!(a.row_owner(3), None);
        assert_eq!(a.col_owner(3), None);
    }

    #[test]
    fn aod_ordering_enforced_on_transfer() {
        let mut a = array();
        a.place_in_slm(0, (4, 4)); // (28, 28)
        a.place_in_slm(1, (8, 8)); // (56, 56)
        a.transfer_to_aod(0, 3, 3).unwrap();
        // Row 2 < row 3 requires y(2) < y(3) = 28; qubit 1 has y = 56 -> violation.
        let err = a.transfer_to_aod(1, 2, 5).unwrap_err();
        assert!(matches!(err, Violation::RowOrdering { row_a: 2, row_b: 3 }));
        // Using a higher row index works.
        a.transfer_to_aod(1, 5, 5).unwrap();
        assert!(a.validate().is_empty());
    }

    #[test]
    fn moves_validate_and_commit() {
        let mut a = array();
        a.place_in_slm(0, (4, 4));
        a.place_in_slm(1, (10, 10));
        a.transfer_to_aod(0, 0, 0).unwrap();
        a.apply_aod_moves(&[AodMove { q: 0, x: 35.0, y: 35.0 }]).unwrap();
        assert_eq!(a.position(0), Point::new(35.0, 35.0));
        assert!(a.validate().is_empty());
    }

    #[test]
    fn move_into_separation_violation_rejected() {
        let mut a = array();
        a.place_in_slm(0, (4, 4));
        a.place_in_slm(1, (10, 10)); // (70, 70)
        a.transfer_to_aod(0, 0, 0).unwrap();
        let err = a.apply_aod_moves(&[AodMove { q: 0, x: 69.0, y: 70.0 }]).unwrap_err();
        assert!(matches!(err, Violation::Separation { .. }));
        // State unchanged.
        assert_eq!(a.position(0), Point::new(28.0, 28.0));
    }

    #[test]
    fn batch_move_can_resolve_mutual_obstruction() {
        let mut a = array();
        a.place_in_slm(0, (2, 2)); // (14, 14)
        a.place_in_slm(1, (6, 3)); // (42, 21)
        a.transfer_to_aod(0, 0, 0).unwrap();
        a.transfer_to_aod(1, 1, 1).unwrap();
        // Moving q0's column right next to q1's alone violates the column
        // gap constraint…
        let solo = a.check_aod_moves(&[AodMove { q: 0, x: 41.0, y: 14.0 }]);
        assert!(!solo.is_empty());
        // …but displacing q1 further right in the same batch resolves it.
        let batch = [AodMove { q: 0, x: 41.0, y: 14.0 }, AodMove { q: 1, x: 47.0, y: 21.0 }];
        assert!(a.check_aod_moves(&batch).is_empty());
        a.apply_aod_moves(&batch).unwrap();
        assert!(a.validate().is_empty());
    }

    #[test]
    fn crossing_rows_rejected_in_moves() {
        let mut a = array();
        a.place_in_slm(0, (2, 2)); // y=14
        a.place_in_slm(1, (6, 6)); // y=42
        a.transfer_to_aod(0, 0, 0).unwrap();
        a.transfer_to_aod(1, 1, 1).unwrap();
        // Move q0 (row 0) above q1 (row 1): rows would cross.
        let vs = a.check_aod_moves(&[AodMove { q: 0, x: 14.0, y: 60.0 }]);
        assert!(vs.iter().any(|v| matches!(v, Violation::RowOrdering { .. })), "{vs:?}");
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut a = array();
        a.place_in_slm(0, (2, 2));
        a.transfer_to_aod(0, 0, 0).unwrap();
        let vs = a.check_aod_moves(&[AodMove { q: 0, x: 1e4, y: 14.0 }]);
        assert!(vs.iter().any(|v| matches!(v, Violation::OutOfBounds { q: 0 })));
    }

    #[test]
    fn first_violation_matches_full_scan_on_every_batch_shape() {
        // The movement planner's resolution cascade is steered exclusively
        // by the first violation, so the early-exit scan must agree with
        // the full scan everywhere: clean batches, single violations of
        // each kind, and batches violating several constraints at once.
        let mut a = array();
        a.place_in_slm(0, (2, 2)); // (14, 14)
        a.place_in_slm(1, (6, 3)); // (42, 21)
        a.place_in_slm(2, (10, 10)); // (70, 70) static
        a.place_in_slm(3, (12, 4)); // (84, 28) static
        a.transfer_to_aod(0, 0, 0).unwrap();
        a.transfer_to_aod(1, 1, 1).unwrap();
        let batches: Vec<Vec<AodMove>> = vec![
            vec![],
            vec![AodMove { q: 0, x: 35.0, y: 35.0 }], // clean
            vec![AodMove { q: 0, x: 1e4, y: 14.0 }],  // out of bounds
            vec![AodMove { q: 0, x: 14.0, y: 60.0 }], // row crossing
            vec![AodMove { q: 0, x: 41.0, y: 14.0 }], // column gap
            vec![AodMove { q: 0, x: 69.0, y: 70.0 }], // separation
            vec![AodMove { q: 0, x: 41.0, y: 14.0 }, AodMove { q: 1, x: 47.0, y: 21.0 }],
            vec![AodMove { q: 0, x: 84.0, y: 27.0 }, AodMove { q: 1, x: 43.0, y: 60.0 }],
            vec![AodMove { q: 0, x: -1e4, y: 60.0 }, AodMove { q: 1, x: 69.5, y: 69.5 }],
            // Duplicate move of one qubit: the last write wins, as in a
            // sequential commit.
            vec![AodMove { q: 0, x: 69.0, y: 70.0 }, AodMove { q: 0, x: 35.0, y: 35.0 }],
        ];
        for batch in &batches {
            assert_eq!(
                a.first_aod_move_violation(batch),
                a.check_aod_moves(batch).first().copied(),
                "batch {batch:?}"
            );
        }
    }

    #[test]
    fn release_to_slm_frees_lines() {
        let mut a = array();
        a.place_in_slm(0, (2, 2));
        a.transfer_to_aod(0, 4, 4).unwrap();
        a.release_to_slm(0, (3, 3));
        assert!(!a.is_aod(0));
        assert!(a.grid().is_occupied((3, 3)));
        // Lines are reusable.
        a.place_in_slm(1, (8, 8));
        a.transfer_to_aod(1, 4, 4).unwrap();
    }

    #[test]
    fn validate_detects_separation_of_static_atoms() {
        // Two SLM atoms are always >= pitch apart by construction, so build
        // a violation through an AOD move bypass: directly place atoms on
        // adjacent sites is fine (7 µm >= 3 µm).
        let mut a = array();
        a.place_in_slm(0, (0, 0));
        a.place_in_slm(1, (0, 1));
        assert!(a.validate().is_empty());
    }

    #[test]
    fn transfer_at_nudged_coordinates() {
        let mut a = array();
        a.place_in_slm(0, (2, 2)); // (14, 14)
        a.place_in_slm(1, (2, 4)); // (14, 28): same x as q0
        a.transfer_to_aod_at(0, 0, 0, 14.0, 14.0).unwrap();
        // Same column coordinate would cross; nudged x resolves it.
        let err = a.transfer_to_aod_at(1, 1, 1, 14.0, 28.0).unwrap_err();
        assert!(matches!(err, Violation::ColOrdering { .. }));
        a.transfer_to_aod_at(1, 1, 1, 17.5, 28.0).unwrap();
        assert_eq!(a.position(1), Point::new(17.5, 28.0));
        assert!(a.validate().is_empty());
    }

    #[test]
    fn transfer_at_rejects_separation_violation() {
        let mut a = array();
        a.place_in_slm(0, (2, 2));
        a.place_in_slm(1, (4, 2)); // (28, 14)
        let err = a.transfer_to_aod_at(0, 0, 0, 26.5, 14.0).unwrap_err();
        assert!(matches!(err, Violation::Separation { .. }));
        // Unchanged: q0 still in SLM.
        assert!(!a.is_aod(0));
        assert!(a.grid().is_occupied((2, 2)));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_qubits_rejected() {
        let _ = AtomArray::new(MachineSpec::quera_aquila_256(), 257);
    }

    #[test]
    fn spatial_index_query_finds_every_nearby_atom() {
        let mut a = array();
        a.place_in_slm(0, (2, 2));
        a.place_in_slm(1, (3, 2));
        a.place_in_slm(2, (10, 10));
        a.transfer_to_aod(0, 0, 0).unwrap();
        a.apply_aod_moves(&[AodMove { q: 0, x: 66.0, y: 70.0 }]).unwrap();
        // Query around q2 (70, 70): must see q2 and the moved q0 at its
        // *new* position, not the far-away q1.
        let mut seen = Vec::new();
        a.for_each_atom_within(Point::new(70.0, 70.0), 5.0, |q| seen.push(q));
        seen.sort_unstable();
        assert!(seen.contains(&0) && seen.contains(&2), "{seen:?}");
        assert!(!seen.contains(&1), "{seen:?}");
    }

    #[test]
    fn aod_snapshot_and_matcher_agree() {
        let mut a = array();
        a.place_in_slm(0, (2, 2));
        a.place_in_slm(1, (6, 6));
        a.place_in_slm(2, (10, 2));
        a.place_in_slm(3, (10, 10));
        a.transfer_to_aod(0, 0, 0).unwrap();
        a.transfer_to_aod(1, 1, 1).unwrap();
        let mut snap = Vec::new();
        a.aod_snapshot(&mut snap);
        assert_eq!(snap.len(), 2);
        assert!(a.aod_config_matches(&snap));
        // Any divergence breaks the match: a move, a shorter snapshot, a
        // position nudge.
        let mut moved = a.clone();
        moved.apply_aod_moves(&[AodMove { q: 0, x: 15.0, y: 15.0 }]).unwrap();
        assert!(!moved.aod_config_matches(&snap));
        assert!(!a.aod_config_matches(&snap[..1]));
        let mut nudged = snap.clone();
        nudged[1].1.x += 1e-12;
        assert!(!a.aod_config_matches(&nudged));
        // Moving out and back home restores the match (the steady state
        // the movement caches exploit).
        let home = a.position(0);
        a.apply_aod_moves(&[AodMove { q: 0, x: 15.0, y: 15.0 }]).unwrap();
        a.apply_aod_moves(&[AodMove { q: 0, x: home.x, y: home.y }]).unwrap();
        assert!(a.aod_config_matches(&snap));
        // A qubit entering the AOD outside the snapshot breaks the match,
        // though every snapshot entry still matches; releasing it back
        // restores the match.
        a.transfer_to_aod(3, 2, 2).unwrap();
        assert!(!a.aod_config_matches(&snap));
        a.release_to_slm(3, (10, 10));
        assert!(a.aod_config_matches(&snap));
    }

    #[test]
    fn positions_epoch_tracks_mutations() {
        let mut a = array();
        let e0 = a.positions_epoch();
        a.place_in_slm(0, (2, 2));
        assert!(a.positions_epoch() > e0);
        a.transfer_to_aod(0, 0, 0).unwrap();
        let e1 = a.positions_epoch();
        a.apply_aod_moves(&[]).unwrap(); // empty batch: no change
        assert_eq!(a.positions_epoch(), e1);
        a.apply_aod_moves(&[AodMove { q: 0, x: 35.0, y: 35.0 }]).unwrap();
        assert!(a.positions_epoch() > e1);
    }

    /// Debug builds keep the scan behind the unchecked commit: a batch
    /// that the checked path refuses panics instead of committing.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "commit_validated_moves")]
    fn commit_validated_moves_panics_on_a_violating_batch_in_debug() {
        let mut a = array();
        a.place_in_slm(0, (2, 2));
        a.place_in_slm(1, (6, 6));
        a.transfer_to_aod(0, 0, 0).unwrap();
        // Onto the static atom 1.
        let onto = a.position(1);
        a.commit_validated_moves(&[AodMove { q: 0, x: onto.x, y: onto.y }]);
    }

    mod indexed_scan_matches_naive {
        use super::*;
        use proptest::prelude::*;

        /// A crowded array: eight AOD atoms on the grid diagonal (so the
        /// row/column orders are valid at transfer time) interleaved with
        /// sixteen static SLM atoms.
        fn crowded_array() -> AtomArray {
            let mut a = AtomArray::new(MachineSpec::quera_aquila_256(), 24);
            for q in 0..8u16 {
                a.place_in_slm(q as u32, (2 * q, 2 * q));
            }
            for q in 8..24u32 {
                let i = (q - 8) as u16;
                a.place_in_slm(q, ((i % 4) * 4 + 1, (i / 4) * 4 + 1));
            }
            for q in 0..8u32 {
                a.transfer_to_aod(q, q as u16, q as u16).unwrap();
            }
            a
        }

        proptest! {
            /// The batch check must agree with the naive full sweep
            /// violation-for-violation — the first violation steers every
            /// recursive move plan, and any divergence would change
            /// compiled schedules.
            #[test]
            fn on_random_move_batches(
                batch in proptest::collection::vec(
                    (0..8u32, -10.0f64..120.0, -10.0f64..120.0),
                    1..5,
                )
            ) {
                let a = crowded_array();
                let moves: Vec<AodMove> =
                    batch.into_iter().map(|(q, x, y)| AodMove { q, x, y }).collect();
                let naive = a.check_aod_moves_naive(&moves);
                let indexed = a.check_aod_moves(&moves);
                prop_assert_eq!(&indexed, &naive);
                prop_assert_eq!(a.first_aod_move_violation(&moves), naive.first().copied());
            }

            /// Near-separation batches (targets clustered around existing
            /// atoms) hit the separation branch far more often than the
            /// uniform batches above.
            #[test]
            fn on_colliding_move_batches(
                q in 0..8u32,
                dx in -4.0f64..4.0,
                dy in -4.0f64..4.0,
                victim in 8..24u32,
            ) {
                let a = crowded_array();
                let target = a.position(victim);
                let moves = [AodMove { q, x: target.x + dx, y: target.y + dy }];
                let naive = a.check_aod_moves_naive(&moves);
                prop_assert_eq!(&a.check_aod_moves(&moves), &naive);
                prop_assert_eq!(a.first_aod_move_violation(&moves), naive.first().copied());
            }

            /// Planner-sized batches: 17–64 moves over 35 AOD atoms, so
            /// qubits (and with them their rows and columns) repeat within
            /// a batch, with every endpoint clustered around some atom.
            /// This is where the batch's line pairs, its moved separation
            /// pairs and the duplicate-move reporting do real work.
            #[test]
            fn on_large_move_batches(
                batch in proptest::collection::vec(
                    (0..LARGE_AOD, 0..LARGE_AOD + LARGE_STATIC, -4.0f64..4.0, -4.0f64..4.0),
                    17..65,
                )
            ) {
                let a = large_array();
                let moves: Vec<AodMove> = batch
                    .into_iter()
                    .map(|(q, victim, dx, dy)| {
                        let target = a.position(victim);
                        AodMove { q, x: target.x + dx, y: target.y + dy }
                    })
                    .collect();
                let naive = a.check_aod_moves_naive(&moves);
                prop_assert_eq!(&a.check_aod_moves(&moves), &naive);
                prop_assert_eq!(a.first_aod_move_violation(&moves), naive.first().copied());
            }
        }

        /// One step of a random cascade-like sequence: move AOD atom `q`
        /// by `(dx, dy)` from where `kind` says — 0: a neighbour's
        /// committed position (`victim`, static or AOD), 1: its own
        /// planned position (a re-move or a nudge), 2: a neighbour's
        /// planned position (possibly another moved atom).
        type Step = (u32, u32, u8, f64, f64);

        /// Apply `steps` to one batch; after every step its violations must
        /// equal the naive sweep over its moves, in order and bit for bit.
        fn replay_against_naive(a: &AtomArray, steps: &[Step]) -> Result<(), TestCaseError> {
            let mut batch = MoveBatch::new(a);
            for &(q, victim, kind, dx, dy) in steps {
                let from = match kind {
                    0 => a.position(victim),
                    1 => batch.position(q),
                    _ => batch.position(victim),
                };
                batch.move_atom(q, Point::new(from.x + dx, from.y + dy));
                let moves: Vec<AodMove> = batch.moves().collect();
                let naive = a.check_aod_moves_naive(&moves);
                let bits = |vs: &[Violation]| format!("{vs:?}");
                prop_assert_eq!(bits(&batch.violations_in_order_of(&moves)), bits(&naive));
                prop_assert_eq!(batch.first_violation(), naive.first().copied());
            }
            Ok(())
        }

        proptest! {
            /// The incremental batch on the crowded array: eight AOD atoms,
            /// so steps re-move atoms already in the batch all the time.
            #[test]
            fn incremental_batch_on_crowded_sequences(
                steps in proptest::collection::vec(
                    (0..8u32, 0..24u32, 0..3u8, -4.0f64..4.0, -4.0f64..4.0),
                    1..24,
                )
            ) {
                replay_against_naive(&crowded_array(), &steps)?;
            }

            /// The same on Atom-1225 with 35 owned lines per axis, where a
            /// step's line neighbours are mostly unmoved.
            #[test]
            fn incremental_batch_on_large_sequences(
                steps in proptest::collection::vec(
                    (0..LARGE_AOD, 0..LARGE_AOD + LARGE_STATIC, 0..3u8, -4.0f64..4.0, -4.0f64..4.0),
                    1..32,
                )
            ) {
                replay_against_naive(&large_array(), &steps)?;
            }
        }

        const LARGE_AOD: u32 = 35;
        const LARGE_STATIC: u32 = 64;

        /// Atom-1225 with 35 AOD lines per axis: AOD atom `q` sits at site
        /// `(q, 12q mod 35)` (a permutation, so it owns column `q` and row
        /// `12q mod 35` in coordinate order), and 64 static atoms fill
        /// free sites between them.
        fn large_array() -> AtomArray {
            let spec = MachineSpec::atom_1225().with_aod_dim(35);
            let mut a = AtomArray::new(spec, (LARGE_AOD + LARGE_STATIC) as usize);
            let row_of = |q: u32| (12 * q % 35) as u16;
            for q in 0..LARGE_AOD {
                a.place_in_slm(q, (q as u16, row_of(q)));
            }
            let free: Vec<(u16, u16)> = (0..35u16)
                .flat_map(|y| (0..35u16).map(move |x| (x, y)))
                .filter(|&(x, y)| (x + 2 * y) % 17 == 0 && row_of(u32::from(x)) != y)
                .take(LARGE_STATIC as usize)
                .collect();
            assert_eq!(free.len(), LARGE_STATIC as usize);
            for (q, site) in (LARGE_AOD..).zip(free) {
                a.place_in_slm(q, site);
            }
            for q in 0..LARGE_AOD {
                a.transfer_to_aod(q, row_of(q), q as u16).unwrap();
            }
            a
        }
    }
}
