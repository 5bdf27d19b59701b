//! Incremental validation of one AOD move batch.
//!
//! A [`MoveBatch`] is the hypothetical post-move configuration of an
//! [`AtomArray`]: an overlay of moved atoms over the committed state, plus
//! every violation that configuration holds. Moving one atom re-evaluates
//! only what that atom touches — its bounds, the adjacent-line pairs
//! around its row and its column, and its separation pairs — so the
//! movement planner's displacement cascade pays per step for the step,
//! not for the whole batch (`docs/DATA_LAYOUT.md`).

use super::{AtomArray, NO_OWNER, TAG_AOD};
use crate::array::{AodMove, Violation};
use crate::geometry::{violates_separation, Point};

/// One moved atom of a [`MoveBatch`] (its id lives in `MoveBatch::qs`).
#[derive(Debug, Clone, Copy)]
struct Mover {
    at: Point,
    row: u16,
    col: u16,
    /// The owned rows next below and above `row`. Line ownership cannot
    /// change while a batch is alive (the batch borrows the array), so
    /// these are found once, when the atom enters the batch.
    row_nbrs: [Option<u16>; 2],
    /// The owned columns next below and above `col`.
    col_nbrs: [Option<u16>; 2],
    out_of_bounds: bool,
}

/// A batch of AOD moves validated incrementally against the array it
/// borrows.
///
/// The batch reports the violations of its final configuration in the
/// order the naive sweep (`AtomArray::check_aod_moves_naive`) emits them:
/// out-of-bounds movers in batch order, then violating adjacent row pairs
/// and column pairs in line order, then separation pairs by mover in
/// batch order and partner id. A move of an atom already in the batch
/// replaces its position and keeps its place in the batch order, as a
/// sequential commit would.
///
/// The batch relies on the array's committed line order being valid,
/// which every mutation of the array keeps: pairs of lines that no moved
/// atom owns are never re-checked. Debug builds diff the batch against
/// the naive sweep after every move.
#[derive(Debug)]
pub struct MoveBatch<'a> {
    array: &'a AtomArray,
    /// The moved atoms' ids in batch order: the lane every "is this atom
    /// moved?" lookup searches.
    qs: Vec<u32>,
    /// Per moved atom, in the order of `qs`.
    movers: Vec<Mover>,
    /// Violating adjacent owned row pairs `(lower, higher)`, ascending.
    rows: Vec<(u16, u16)>,
    /// Violating adjacent owned column pairs `(lower, higher)`, ascending.
    cols: Vec<(u16, u16)>,
    /// Separation pairs `(mover slot, partner, distance)`, ascending by
    /// slot and then partner id. A pair of moved atoms is listed under
    /// the higher id, so a mover lists every unmoved atom too close to it
    /// and every moved atom of lower id.
    separation: Vec<(u32, u32, f64)>,
}

impl<'a> MoveBatch<'a> {
    /// An empty batch over `array`'s committed configuration.
    pub fn new(array: &'a AtomArray) -> Self {
        Self {
            array,
            qs: Vec::new(),
            movers: Vec::new(),
            rows: Vec::new(),
            cols: Vec::new(),
            separation: Vec::new(),
        }
    }

    /// Empty the batch, keeping its buffers: the movement planner reuses
    /// one batch for every endpoint it probes.
    pub fn clear(&mut self) {
        self.qs.clear();
        self.movers.clear();
        self.rows.clear();
        self.cols.clear();
        self.separation.clear();
    }

    /// The batch of `moves`, applied in order.
    pub(super) fn from_moves(array: &'a AtomArray, moves: &[AodMove]) -> Self {
        let mut batch = Self::new(array);
        for m in moves {
            batch.place(m.q, Point::new(m.x, m.y));
        }
        batch
    }

    /// Move atom `q` to `to` in the batch and re-evaluate the violations
    /// it takes part in. Debug builds diff the first violation, the one
    /// that steers a move plan, against the naive sweep after every move.
    ///
    /// Panics if `q` is not AOD-trapped.
    pub fn move_atom(&mut self, q: u32, to: Point) {
        self.place(q, to);
        #[cfg(debug_assertions)]
        assert_eq!(
            self.first_violation(),
            self.first_violation_naive(),
            "incremental batch check diverged from the naive sweep on {:?}",
            self.moves().collect::<Vec<_>>()
        );
    }

    fn place(&mut self, q: u32, to: Point) {
        let array = self.array;
        let slot = match self.slot(q) {
            Some(slot) => slot,
            None => {
                if array.trap_tags[q as usize] != TAG_AOD {
                    let trap = array.trap_of(q as usize);
                    panic!("qubit {q} is not AOD-trapped (trap = {trap:?})");
                }
                let row = array.trap_a[q as usize] as u16;
                let col = array.trap_b[q as usize] as u16;
                self.qs.push(q);
                self.movers.push(Mover {
                    at: to,
                    row,
                    col,
                    row_nbrs: owned_neighbours(&array.row_owner, row),
                    col_nbrs: owned_neighbours(&array.col_owner, col),
                    out_of_bounds: false,
                });
                self.qs.len() - 1
            }
        };
        let margin = array.grid.pitch_um();
        let max = array.spec.extent_um() + margin;
        let m = &mut self.movers[slot];
        m.at = to;
        m.out_of_bounds = to.x < -margin || to.y < -margin || to.x > max || to.y > max;
        self.update_lines(slot);
        self.update_separation(slot);
    }

    /// Where atom `q` stands in the batch's final configuration.
    pub fn position(&self, q: u32) -> Point {
        match self.slot(q) {
            Some(slot) => self.movers[slot].at,
            None => self.array.positions[q as usize],
        }
    }

    /// The batch's moves, one per moved atom, in batch order.
    pub fn moves(&self) -> impl Iterator<Item = AodMove> + '_ {
        self.qs.iter().zip(&self.movers).map(|(&q, m)| AodMove { q, x: m.at.x, y: m.at.y })
    }

    /// The first violation of the final configuration, or `None` when the
    /// batch is safe to commit.
    pub fn first_violation(&self) -> Option<Violation> {
        let mut first = None;
        self.report(0..self.qs.len(), |v| {
            first = Some(v);
            false
        });
        first
    }

    /// [`Self::first_violation`] by the naive sweep over the batch's
    /// moves: the movement planner's oracle (not cfg-gated, like
    /// [`AtomArray::check_aod_moves_naive`]).
    pub fn first_violation_naive(&self) -> Option<Violation> {
        let moves: Vec<AodMove> = self.moves().collect();
        self.array.first_aod_move_violation_naive(&moves)
    }

    /// Every violation, reporting movers in the order of `moves`, which
    /// must be the moves this batch was built from. A qubit that `moves`
    /// repeats is reported once per occurrence, at its final position.
    pub(super) fn violations_in_order_of(&self, moves: &[AodMove]) -> Vec<Violation> {
        let mut out = Vec::new();
        let order = moves.iter().map(|m| self.slot(m.q).expect("a batch mover"));
        self.report(order, |v| {
            out.push(v);
            true
        });
        out
    }

    /// Emit the violations in report order, the movers in `order` (batch
    /// slots); `emit` returns `false` to stop.
    fn report(
        &self,
        order: impl Iterator<Item = usize> + Clone,
        mut emit: impl FnMut(Violation) -> bool,
    ) {
        for slot in order.clone() {
            if self.movers[slot].out_of_bounds && !emit(Violation::OutOfBounds { q: self.qs[slot] })
            {
                return;
            }
        }
        for &(row_a, row_b) in &self.rows {
            if !emit(Violation::RowOrdering { row_a, row_b }) {
                return;
            }
        }
        for &(col_a, col_b) in &self.cols {
            if !emit(Violation::ColOrdering { col_a, col_b }) {
                return;
            }
        }
        if self.separation.is_empty() {
            return;
        }
        for slot in order {
            let q1 = self.qs[slot];
            let from = self.separation.partition_point(|&(s, _, _)| (s as usize) < slot);
            for &(s, q2, distance) in &self.separation[from..] {
                if s as usize != slot {
                    break;
                }
                if !emit(Violation::Separation { q1, q2, distance }) {
                    return;
                }
            }
        }
    }

    /// The batch slot of atom `q`. A linear find: planner batches hold
    /// about five moves.
    fn slot(&self, q: u32) -> Option<usize> {
        self.qs.iter().position(|&mq| mq == q)
    }

    /// Re-check the two adjacent row pairs around the mover's row and the
    /// two column pairs around its column.
    fn update_lines(&mut self, slot: usize) {
        let m = self.movers[slot];
        let gap = self.array.line_gap();
        let [below, above] = m.row_nbrs;
        if let Some(lo) = below {
            let bad = m.at.y - self.row_y(lo) < gap - 1e-9;
            set_pair(&mut self.rows, (lo, m.row), bad);
        }
        if let Some(hi) = above {
            let bad = self.row_y(hi) - m.at.y < gap - 1e-9;
            set_pair(&mut self.rows, (m.row, hi), bad);
        }
        let [below, above] = m.col_nbrs;
        if let Some(lo) = below {
            let bad = m.at.x - self.col_x(lo) < gap - 1e-9;
            set_pair(&mut self.cols, (lo, m.col), bad);
        }
        if let Some(hi) = above {
            let bad = self.col_x(hi) - m.at.x < gap - 1e-9;
            set_pair(&mut self.cols, (m.col, hi), bad);
        }
    }

    /// Row `row`'s coordinate in the final configuration.
    fn row_y(&self, row: u16) -> f64 {
        match self.slot(self.array.row_owner[row as usize]) {
            Some(slot) => self.movers[slot].at.y,
            None => self.array.row_y[row as usize],
        }
    }

    /// Column `col`'s coordinate in the final configuration.
    fn col_x(&self, col: u16) -> f64 {
        match self.slot(self.array.col_owner[col as usize]) {
            Some(slot) => self.movers[slot].at.x,
            None => self.array.col_x[col as usize],
        }
    }

    /// Re-list the mover's separation pairs: one spatial-index query for
    /// the unmoved atoms near it, plus every other moved atom. Dropping
    /// every pair that names it first also retires the pairs that named
    /// its committed position before it joined the batch.
    fn update_separation(&mut self, slot: usize) {
        let array = self.array;
        let min_sep = array.spec.min_separation_um;
        let (q, p) = (self.qs[slot], self.movers[slot].at);
        let seps = &mut self.separation;
        if !seps.is_empty() {
            seps.retain(|&(s, partner, _)| s as usize != slot && partner != q);
        }
        let listed = seps.len();
        let qs = &self.qs;
        array.index.for_each_within(p, min_sep, |other| {
            let po = array.positions[other as usize];
            if violates_separation(&p, &po, min_sep) && !qs.contains(&other) {
                seps.push((slot as u32, other, p.distance(&po)));
            }
        });
        for (i, (&other, m)) in qs.iter().zip(&self.movers).enumerate() {
            if other < q {
                if violates_separation(&p, &m.at, min_sep) {
                    seps.push((slot as u32, other, p.distance(&m.at)));
                }
            } else if i != slot && violates_separation(&m.at, &p, min_sep) {
                seps.push((i as u32, q, m.at.distance(&p)));
            }
        }
        if seps.len() > listed {
            seps.sort_unstable_by_key(|&(s, partner, _)| (s, partner));
        }
    }
}

/// The owned lines next below and next above `line` on one axis.
fn owned_neighbours(owner: &[u32], line: u16) -> [Option<u16>; 2] {
    let owned = |i: &usize| owner[*i] != NO_OWNER;
    let below = (0..line as usize).rev().find(owned).map(|i| i as u16);
    let above = (line as usize + 1..owner.len()).find(owned).map(|i| i as u16);
    [below, above]
}

/// Make `pair` a member of the ascending pair list `set` iff `bad`.
fn set_pair(set: &mut Vec<(u16, u16)>, pair: (u16, u16), bad: bool) {
    match (set.binary_search(&pair), bad) {
        (Err(at), true) => set.insert(at, pair),
        (Ok(at), false) => {
            set.remove(at);
        }
        _ => {}
    }
}
