//! Step 4a: recursive AOD movement planning.
//!
//! Section II-D: to execute an out-of-range CZ, Parallax moves an
//! AOD-trapped operand within the interaction radius of its partner. If the
//! destination violates the minimum separation against another AOD atom,
//! that atom is recursively displaced; if the mover's row/column would get
//! too close to another AOD row/column, those lines are recursively pushed
//! away. Recursion is capped (80 iterations in the paper); a failed plan is
//! resolved by the scheduler with a trap change. Static SLM atoms are never
//! show-stoppers — the discretization pitch guarantees navigable space, so
//! the planner simply picks a different approach angle around the target.
//!
//! The endpoint-candidate cascade is **pruned**: candidates that are
//! provably infeasible — out of bounds, or within the minimum separation
//! of an atom the cascade may never displace (a static atom or the pinned
//! target), found through the hardware crate's spatial occupancy index —
//! are skipped without probing (`endpoint_provably_blocked`). The first
//! accepted plan is identical to the unpruned cascade's by construction;
//! `plan_move_into_range_naive` is kept in test/debug builds as the
//! oracle the differential proptests diff against.
//!
//! Each endpoint's cascade grows one [`MoveBatch`], which re-checks only
//! the atom a step moved. The naive oracle re-checks its whole batch with
//! the naive sweep on every step instead.

use parallax_hardware::{
    violates_separation, AodMove, AtomArray, MoveBatch, Point, Trap, Violation,
};

/// How a cascade step finds its batch's first violation.
type FirstViolation = fn(&MoveBatch) -> Option<Violation>;

/// The buffers one plan's endpoint cascades reuse, and how they check.
struct Cascade<'a> {
    batch: MoveBatch<'a>,
    /// Violation signatures the current cascade has met.
    seen: Vec<(u8, u32, u32)>,
    first_violation: FirstViolation,
}

/// Why a movement plan could not be produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveFailure {
    /// The mover is not AOD-trapped.
    NotInAod,
    /// The recursive displacement budget was exhausted.
    RecursionLimit,
    /// No approach angle produced a valid configuration.
    NoValidEndpoint,
}

/// A validated batch of AOD moves ready to commit.
#[derive(Debug, Clone)]
pub struct MovePlan {
    /// The mover plus every recursively displaced atom.
    pub moves: Vec<AodMove>,
    /// Maximum displacement among all moved atoms, µm. Atoms move in
    /// parallel, so this determines the movement time of the layer.
    pub max_distance_um: f64,
    /// Number of recursive resolution iterations consumed (diagnostic).
    pub recursion_used: usize,
}

impl MovePlan {
    fn from_moves(array: &AtomArray, moves: Vec<AodMove>, recursion_used: usize) -> Self {
        let max_distance_um = moves
            .iter()
            .map(|m| array.position(m.q).distance(&Point::new(m.x, m.y)))
            .fold(0.0, f64::max);
        Self { moves, max_distance_um, recursion_used }
    }
}

/// Whether `endpoint` can be rejected without running the probe cascade.
///
/// Two conditions prove infeasibility outright, because the mover is
/// pinned at the endpoint and the conflicting party can never be
/// displaced by the cascade:
///
/// * the endpoint is outside the machine's addressable area (the same
///   bounds rule the violation scan applies), or
/// * an atom that the cascade may not move — a static SLM atom, or the
///   pinned `target` — sits within the minimum separation distance of the
///   endpoint (found through the spatial occupancy index, exactness
///   re-checked with [`violates_separation`]).
///
/// Every displaced atom in a cascade is AOD-trapped and non-pinned, so a
/// final configuration containing such a conflict can never validate: the
/// probe would fail after however many resolution iterations it burned.
/// Skipping it leaves the set of *successful* endpoints — and therefore
/// the first accepted plan — untouched. The only observable difference is
/// the failure **variant** of an all-endpoints-fail query: a pruned
/// endpoint cannot report `RecursionLimit`, so a query the naive cascade
/// answers `RecursionLimit` may answer `NoValidEndpoint` instead (the
/// scheduler treats every failure identically).
fn endpoint_provably_blocked(array: &AtomArray, mover: u32, target: u32, endpoint: Point) -> bool {
    let margin = array.grid().pitch_um();
    let max = array.spec().extent_um() + margin;
    if endpoint.x < -margin || endpoint.y < -margin || endpoint.x > max || endpoint.y > max {
        return true;
    }
    let min_sep = array.spec().min_separation_um;
    let mut blocked = false;
    array.for_each_atom_within(endpoint, min_sep, |q| {
        if !blocked
            && q != mover
            && (q == target || !array.is_aod(q))
            && violates_separation(&endpoint, &array.position(q), min_sep)
        {
            blocked = true;
        }
    });
    blocked
}

/// Plan to bring `mover` (AOD-trapped) within radius `r_um` of `target`.
///
/// The returned plan has already been validated against the array; the
/// scheduler commits it with [`AtomArray::commit_validated_moves`].
///
/// Endpoint candidates that are provably infeasible (see
/// `endpoint_provably_blocked`) are skipped without probing; the first
/// accepted plan is identical to the unpruned cascade's by construction,
/// and [`plan_move_into_range_naive`] is kept as the oracle the
/// differential tests diff against.
pub fn plan_move_into_range(
    array: &AtomArray,
    mover: u32,
    target: u32,
    r_um: f64,
    max_recursion: usize,
) -> Result<MovePlan, MoveFailure> {
    plan_move_impl(array, mover, target, r_um, max_recursion, true, |b| b.first_violation())
}

/// The unpruned probe cascade: every endpoint candidate is probed, none
/// pre-filtered, and every cascade step re-checks its whole batch with the
/// naive sweep. Test oracle for [`plan_move_into_range`] — successful
/// plans must be bit-identical, failures must agree modulo the
/// `RecursionLimit`/`NoValidEndpoint` variant (see
/// `endpoint_provably_blocked`).
#[cfg(any(test, debug_assertions))]
pub fn plan_move_into_range_naive(
    array: &AtomArray,
    mover: u32,
    target: u32,
    r_um: f64,
    max_recursion: usize,
) -> Result<MovePlan, MoveFailure> {
    plan_move_impl(array, mover, target, r_um, max_recursion, false, |b| b.first_violation_naive())
}

fn plan_move_impl(
    array: &AtomArray,
    mover: u32,
    target: u32,
    r_um: f64,
    max_recursion: usize,
    prune: bool,
    first_violation: FirstViolation,
) -> Result<MovePlan, MoveFailure> {
    if !array.is_aod(mover) {
        return Err(MoveFailure::NotInAod);
    }
    let target_pos = array.position(target);
    let mover_pos = array.position(mover);
    let min_sep = array.spec().min_separation_um;
    let mut cascade = Cascade { batch: MoveBatch::new(array), seen: Vec::new(), first_violation };
    // Candidate approach distances, closest first: the discretization
    // pitch (2 x min separation + padding) guarantees clearance right next
    // to any SLM atom, so parking just outside the separation distance
    // nearly always works; wider stops are fallbacks for crowded AOD
    // neighbourhoods.
    let approaches = [
        (min_sep + 0.5).min(r_um - 1e-6),
        (0.5 * r_um).max(min_sep + 0.5).min(r_um - 1e-6),
        (0.9 * r_um).max(min_sep + 0.5).min(r_um - 1e-6),
    ];

    // Approach angles, nearest-to-current-direction first.
    let base = (mover_pos.y - target_pos.y).atan2(mover_pos.x - target_pos.x);
    let offsets = [
        0.0,
        std::f64::consts::FRAC_PI_8,
        -std::f64::consts::FRAC_PI_8,
        std::f64::consts::FRAC_PI_4,
        -std::f64::consts::FRAC_PI_4,
        3.0 * std::f64::consts::FRAC_PI_8,
        -3.0 * std::f64::consts::FRAC_PI_8,
        std::f64::consts::FRAC_PI_2,
        -std::f64::consts::FRAC_PI_2,
        5.0 * std::f64::consts::FRAC_PI_8,
        -5.0 * std::f64::consts::FRAC_PI_8,
        3.0 * std::f64::consts::FRAC_PI_4,
        -3.0 * std::f64::consts::FRAC_PI_4,
        7.0 * std::f64::consts::FRAC_PI_8,
        -7.0 * std::f64::consts::FRAC_PI_8,
        std::f64::consts::PI,
    ];

    // When both operands are AOD-trapped, line ordering imposes hard side
    // constraints: rows (columns) strictly between the two atoms' line
    // indices keep at least `gap` per index step between their
    // coordinates. Try the tightest corner satisfying those constraints
    // first; fail fast when no point within the radius can satisfy them.
    if let (Some(Trap::Aod { row: mr, col: mc }), Some(Trap::Aod { row: tr, col: tc })) =
        (array.trap(mover), array.trap(target))
    {
        let gap = array.line_gap();
        let dr = i32::from(mr) - i32::from(tr);
        let dc = i32::from(mc) - i32::from(tc);
        let dy_req = gap * dr.unsigned_abs() as f64 + 0.3;
        let dx_req = gap * dc.unsigned_abs() as f64 + 0.3;
        if dx_req * dx_req + dy_req * dy_req > r_um * r_um {
            return Err(MoveFailure::NoValidEndpoint);
        }
        // Sample the feasible quadrant (offsets at least the index-implied
        // minima, within the radius), nearest corners first, so an SLM atom
        // sitting on one candidate does not kill the move.
        let step = gap * 0.55;
        let mut candidates: Vec<(f64, f64, f64)> = Vec::new();
        for k in 0..5 {
            for j in 0..5 {
                let dx = dx_req + k as f64 * step;
                let dy = dy_req + j as f64 * step;
                if dx * dx + dy * dy <= r_um * r_um {
                    candidates.push((dx + dy, dx, dy));
                }
            }
        }
        candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (_, dx, dy) in candidates {
            let corner = Point::new(
                target_pos.x + dx * dc.signum() as f64,
                target_pos.y + dy * dr.signum() as f64,
            );
            if prune && endpoint_provably_blocked(array, mover, target, corner) {
                continue;
            }
            let mut budget = max_recursion;
            if let Ok(moves) = try_endpoint(array, &mut cascade, mover, target, corner, &mut budget)
            {
                let used = max_recursion - budget;
                return Ok(MovePlan::from_moves(array, moves, used));
            }
        }
    }

    let mut saw_recursion_limit = false;
    for approach in approaches {
        for off in offsets {
            // Each attempt gets its own recursion allowance (the paper's
            // 80-iteration cap applies per resolution attempt).
            let mut recursion_budget = max_recursion;
            let angle = base + off;
            let endpoint = Point::new(
                target_pos.x + approach * angle.cos(),
                target_pos.y + approach * angle.sin(),
            );
            if prune && endpoint_provably_blocked(array, mover, target, endpoint) {
                continue;
            }
            match try_endpoint(array, &mut cascade, mover, target, endpoint, &mut recursion_budget)
            {
                Ok(moves) => {
                    debug_assert!(
                        !moves.iter().any(|m| m.q == target),
                        "plan displaced the gate's target atom"
                    );
                    let used = max_recursion - recursion_budget;
                    return Ok(MovePlan::from_moves(array, moves, used));
                }
                Err(EndpointFailure::Recursion) => {
                    saw_recursion_limit = true;
                    continue;
                }
                Err(EndpointFailure::Angle) => continue,
            }
        }
    }
    if saw_recursion_limit {
        Err(MoveFailure::RecursionLimit)
    } else {
        Err(MoveFailure::NoValidEndpoint)
    }
}

enum EndpointFailure {
    /// This approach angle cannot work (e.g. a static atom sits there).
    Angle,
    /// The shared recursion budget ran out.
    Recursion,
}

/// Attempt one endpoint, recursively displacing obstructing AOD atoms and
/// lines until the batch validates or the budget dies.
fn try_endpoint(
    array: &AtomArray,
    cascade: &mut Cascade<'_>,
    mover: u32,
    target: u32,
    endpoint: Point,
    budget: &mut usize,
) -> Result<Vec<AodMove>, EndpointFailure> {
    let gap = array.line_gap();
    let min_sep = array.spec().min_separation_um;
    // Neither the mover (its endpoint is the point of the move) nor the
    // target (the gate needs it where it is) may be displaced.
    let pinned = |q: u32| q == mover || q == target;
    let Cascade { batch, seen, first_violation } = cascade;
    batch.clear();
    batch.move_atom(mover, endpoint);
    // Oscillation guard: a violation signature recurring means the cascade
    // is geometrically infeasible for this endpoint (e.g. an atom squeezed
    // between two pinned lines) — bail to the next angle instead of
    // burning the whole recursion budget.
    seen.clear();

    loop {
        // Only the first violation steers the resolution; the batch
        // re-checked only what the last step moved.
        let Some(v) = first_violation(batch) else {
            return Ok(batch.moves().collect());
        };
        if *budget == 0 {
            return Err(EndpointFailure::Recursion);
        }
        *budget -= 1;
        let signature = match v {
            Violation::Separation { q1, q2, .. } => (0u8, q1, q2),
            Violation::RowOrdering { row_a, row_b } => (1, row_a as u32, row_b as u32),
            Violation::ColOrdering { col_a, col_b } => (2, col_a as u32, col_b as u32),
            Violation::OutOfBounds { q } => (3, q, 0),
        };
        if seen.iter().filter(|&&s| s == signature).count() >= 2 {
            return Err(EndpointFailure::Angle);
        }
        seen.push(signature);

        match v {
            Violation::Separation { q1, q2, .. } => {
                // q1 is always a moved (hence AOD) atom; q2 may be a static
                // SLM atom, a parked AOD atom, or another moved atom.
                // Displace an AOD party that is not the mover; if the only
                // conflict partner is static, this approach angle is dead.
                let push_q = if array.is_aod(q2) && !pinned(q2) {
                    q2
                } else if !pinned(q1) {
                    q1
                } else {
                    return Err(EndpointFailure::Angle);
                };
                let anchor_q = if push_q == q1 { q2 } else { q1 };
                let anchor = batch.position(anchor_q);
                let current = batch.position(push_q);
                // Axis-aligned displacement along the dominant separation
                // axis: keeps the push consistent with AOD line ordering
                // (the axis gap also satisfies the line-gap constraint), so
                // separation and ordering fixes converge instead of
                // oscillating.
                let dx = current.x - anchor.x;
                let dy = current.y - anchor.y;
                let dist = min_sep.max(gap) + 0.6;
                let new = if dx.abs() >= dy.abs() {
                    let dir = if dx != 0.0 { dx.signum() } else { 1.0 };
                    Point::new(anchor.x + dir * dist, current.y)
                } else {
                    let dir = if dy != 0.0 { dy.signum() } else { 1.0 };
                    Point::new(current.x, anchor.y + dir * dist)
                };
                batch.move_atom(push_q, new);
            }
            Violation::RowOrdering { row_a, row_b } => {
                // Push whichever line's owner is not pinned.
                let qa = owner_of_row(array, row_a);
                let qb = owner_of_row(array, row_b);
                let (push_q, fixed_q, push_up) =
                    if pinned(qa) { (qb, qa, true) } else { (qa, qb, false) };
                if pinned(push_q) {
                    return Err(EndpointFailure::Angle);
                }
                let fixed_y = batch.position(fixed_q).y;
                let cur = batch.position(push_q);
                let new_y = if push_up { fixed_y + gap + 0.25 } else { fixed_y - gap - 0.25 };
                batch.move_atom(push_q, Point::new(cur.x, new_y));
            }
            Violation::ColOrdering { col_a, col_b } => {
                let qa = owner_of_col(array, col_a);
                let qb = owner_of_col(array, col_b);
                let (push_q, fixed_q, push_right) =
                    if pinned(qa) { (qb, qa, true) } else { (qa, qb, false) };
                if pinned(push_q) {
                    return Err(EndpointFailure::Angle);
                }
                let fixed_x = batch.position(fixed_q).x;
                let cur = batch.position(push_q);
                let new_x = if push_right { fixed_x + gap + 0.25 } else { fixed_x - gap - 0.25 };
                batch.move_atom(push_q, Point::new(new_x, cur.y));
            }
            // The mover's endpoint or a displaced atom left the grid; this
            // angle's cascade will not settle.
            Violation::OutOfBounds { .. } => return Err(EndpointFailure::Angle),
        }
    }
}

fn owner_of_row(array: &AtomArray, row: u16) -> u32 {
    array.row_owner(row).expect("ordering violation names an owned row")
}

fn owner_of_col(array: &AtomArray, col: u16) -> u32 {
    array.col_owner(col).expect("ordering violation names an owned column")
}

/// Plan the reverse (home-return) batch for the given `(qubit, home)` pairs.
/// The home configuration was valid when recorded, so this plan always
/// validates; it is returned as a plan for uniform commit/accounting.
pub fn plan_return_home(array: &AtomArray, homes: &[(u32, Point)]) -> MovePlan {
    let moves: Vec<AodMove> = homes
        .iter()
        .filter(|(q, home)| array.position(*q).distance(home) > 1e-9)
        .map(|&(q, home)| AodMove { q, x: home.x, y: home.y })
        .collect();
    MovePlan::from_moves(array, moves, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_hardware::MachineSpec;

    /// Build an array with the given SLM sites; returns it with all atoms
    /// static.
    fn array_with(sites: &[(u16, u16)]) -> AtomArray {
        let mut a = AtomArray::new(MachineSpec::quera_aquila_256(), sites.len());
        for (q, &s) in sites.iter().enumerate() {
            a.place_in_slm(q as u32, s);
        }
        a
    }

    #[test]
    fn simple_move_into_range() {
        let mut a = array_with(&[(2, 2), (12, 12)]);
        a.transfer_to_aod(0, 0, 0).unwrap();
        let r = 7.0;
        assert!(a.distance(0, 1) > r);
        let plan = plan_move_into_range(&a, 0, 1, r, 80).unwrap();
        assert_eq!(plan.moves.len(), 1);
        a.apply_aod_moves(&plan.moves).unwrap();
        assert!(a.distance(0, 1) <= r);
        assert!(a.validate().is_empty());
        assert!(plan.max_distance_um > 0.0);
    }

    #[test]
    fn non_aod_mover_fails() {
        let a = array_with(&[(2, 2), (12, 12)]);
        match plan_move_into_range(&a, 0, 1, 7.0, 80) {
            Err(MoveFailure::NotInAod) => {}
            other => panic!("expected NotInAod, got {other:?}"),
        }
    }

    #[test]
    fn navigates_around_static_obstruction() {
        // Target at (8,8); a static atom sits directly on the straight-line
        // approach point; the planner must pick a different angle.
        let mut a = array_with(&[(2, 8), (8, 8), (7, 8)]);
        a.transfer_to_aod(0, 0, 0).unwrap();
        let r = 7.5; // approach distance ~6.75 µm: site (7,8) is 7 µm from target
        let plan = plan_move_into_range(&a, 0, 1, r, 80).unwrap();
        let mut b = a.clone();
        b.apply_aod_moves(&plan.moves).unwrap();
        assert!(b.distance(0, 1) <= r);
        assert!(b.validate().is_empty());
    }

    #[test]
    fn recursively_displaces_aod_obstructor() {
        // q2 is an AOD atom parked near the approach point of q0 -> q1
        // (distinct row/column coordinates so the transfers are legal).
        let mut a = array_with(&[(2, 2), (12, 3), (11, 3)]);
        a.transfer_to_aod(0, 0, 0).unwrap();
        a.transfer_to_aod(2, 1, 1).unwrap();
        let r = 7.5;
        let plan = plan_move_into_range(&a, 0, 1, r, 80).unwrap();
        let mut b = a.clone();
        b.apply_aod_moves(&plan.moves).unwrap();
        assert!(b.distance(0, 1) <= r, "distance {}", b.distance(0, 1));
        assert!(b.validate().is_empty());
    }

    #[test]
    fn zero_budget_reports_recursion_limit_or_endpoint() {
        let mut a = array_with(&[(2, 2), (12, 3), (11, 3)]);
        a.transfer_to_aod(0, 0, 0).unwrap();
        a.transfer_to_aod(2, 1, 1).unwrap();
        // With no recursion budget the obstructed approach cannot resolve.
        let res = plan_move_into_range(&a, 0, 1, 7.5, 0);
        assert!(res.is_err());
    }

    #[test]
    fn return_home_restores_positions() {
        let mut a = array_with(&[(2, 2), (12, 12)]);
        a.transfer_to_aod(0, 0, 0).unwrap();
        let home = a.position(0);
        let plan = plan_move_into_range(&a, 0, 1, 7.0, 80).unwrap();
        a.apply_aod_moves(&plan.moves).unwrap();
        let back = plan_return_home(&a, &[(0, home)]);
        assert_eq!(back.moves.len(), 1);
        a.apply_aod_moves(&back.moves).unwrap();
        assert_eq!(a.position(0), home);
    }

    #[test]
    fn return_home_skips_unmoved_atoms() {
        let mut a = array_with(&[(2, 2), (12, 12)]);
        a.transfer_to_aod(0, 0, 0).unwrap();
        let home = a.position(0);
        let plan = plan_return_home(&a, &[(0, home)]);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.max_distance_um, 0.0);
    }

    #[test]
    fn plan_never_moves_static_atoms() {
        let mut a = array_with(&[(2, 2), (12, 12), (8, 8), (6, 10)]);
        a.transfer_to_aod(0, 0, 0).unwrap();
        let plan = plan_move_into_range(&a, 0, 1, 7.0, 80).unwrap();
        for m in &plan.moves {
            assert!(a.is_aod(m.q), "plan moved non-AOD atom q{}", m.q);
        }
    }

    // -- Pruned cascade vs the naive oracle --

    /// Both planners from the same state: successful plans must be
    /// bit-identical (the first accepted endpoint is the same by
    /// construction); failures must agree on failing, though the pruned
    /// path may report `NoValidEndpoint` where the naive one burned its
    /// budget into `RecursionLimit`.
    fn assert_matches_naive_plan(a: &AtomArray, mover: u32, target: u32, r: f64, rec: usize) {
        let pruned = plan_move_into_range(a, mover, target, r, rec);
        let naive = plan_move_into_range_naive(a, mover, target, r, rec);
        match (&pruned, &naive) {
            (Ok(p), Ok(n)) => {
                assert_eq!(p.moves, n.moves, "plans must be bit-identical");
                assert_eq!(p.max_distance_um.to_bits(), n.max_distance_um.to_bits());
                assert_eq!(p.recursion_used, n.recursion_used);
            }
            (Err(_), Err(_)) => {}
            other => panic!("pruned/naive success disagreement: {other:?}"),
        }
    }

    #[test]
    fn pruned_cascade_matches_naive_on_obstructed_scenes() {
        // Static obstruction on the direct approach, an AOD blocker, and a
        // clean corridor — the three cascade shapes.
        let scenes: &[&[(u16, u16)]] = &[
            &[(2, 8), (8, 8), (7, 8)],
            &[(2, 2), (12, 3), (11, 3)],
            &[(2, 2), (12, 12)],
            &[(2, 8), (8, 8), (7, 8), (7, 9), (7, 7), (9, 8)],
        ];
        for sites in scenes {
            for rec in [0usize, 1, 3, 80] {
                let mut a = array_with(sites);
                a.transfer_to_aod(0, 0, 0).unwrap();
                assert_matches_naive_plan(&a, 0, 1, 7.5, rec);
            }
        }
    }

    #[test]
    fn pruning_skips_statically_blocked_endpoints() {
        // The straight-line approach point of q0 -> q1 is occupied by the
        // static q2, so that endpoint is provably blocked…
        let mut a = array_with(&[(2, 8), (8, 8), (7, 8)]);
        a.transfer_to_aod(0, 0, 0).unwrap();
        let target = a.position(1);
        let mover = a.position(0);
        let base = (mover.y - target.y).atan2(mover.x - target.x);
        let blocked = Point::new(target.x + 6.75 * base.cos(), target.y + 6.75 * base.sin());
        assert!(endpoint_provably_blocked(&a, 0, 1, blocked));
        // …an in-bounds clear point is not, and out-of-bounds always is.
        assert!(!endpoint_provably_blocked(&a, 0, 1, Point::new(42.0, 63.0)));
        assert!(endpoint_provably_blocked(&a, 0, 1, Point::new(-1e4, 0.0)));
        // The planner still finds the same plan as the oracle.
        assert_matches_naive_plan(&a, 0, 1, 7.5, 80);
    }

    /// A VQE/QV-like scene built from `seed`: `28 + seed % 5` qubits on
    /// random sites of a 6x6 block of QuEra-256 (78–89% of its sites
    /// filled), 8–14 of them in the AOD on rows and columns in coordinate
    /// order, and a few plans committed first, as mid-schedule. Movement in
    /// such crowds mostly fails: most probes exhaust every endpoint.
    fn crowded_scene(seed: u64) -> AtomArray {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 28 + (seed % 5) as usize;
        let mut sites: Vec<(u16, u16)> = (0..36u16).map(|i| (4 + i % 6, 4 + i / 6)).collect();
        sites.shuffle(&mut rng);
        let mut a = AtomArray::new(MachineSpec::quera_aquila_256(), n);
        for (q, &site) in sites[..n].iter().enumerate() {
            a.place_in_slm(q as u32, site);
        }
        // AOD atoms on distinct grid rows and columns, so line order can
        // follow coordinate order.
        let want = rng.random_range(8..15usize);
        let mut aod: Vec<u32> = Vec::new();
        for (q, &(x, y)) in sites[..n].iter().enumerate() {
            if aod.len() < want
                && aod.iter().all(|&o| sites[o as usize].0 != x && sites[o as usize].1 != y)
            {
                aod.push(q as u32);
            }
        }
        let line_of = |key: fn((u16, u16)) -> u16| {
            let mut by: Vec<u32> = aod.clone();
            by.sort_by_key(|&q| key(sites[q as usize]));
            by
        };
        let (by_y, by_x) = (line_of(|s| s.1), line_of(|s| s.0));
        for &q in &aod {
            let row = by_y.iter().position(|&o| o == q).unwrap() as u16;
            let col = by_x.iter().position(|&o| o == q).unwrap() as u16;
            a.transfer_to_aod(q, row, col).unwrap();
        }
        for _ in 0..3 {
            let mover = aod[rng.random_range(0..aod.len())];
            let target = rng.random_range(0..n as u32);
            if mover != target {
                if let Ok(plan) = plan_move_into_range(&a, mover, target, 7.5, 80) {
                    a.apply_aod_moves(&plan.moves).unwrap();
                }
            }
        }
        a
    }

    /// Eight probes from `seed` on a crowded scene: `(mover, target, r)`.
    fn crowded_probes(a: &AtomArray, seed: u64) -> Vec<(u32, u32, f64)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let aod: Vec<u32> = (0..a.num_qubits() as u32).filter(|&q| a.is_aod(q)).collect();
        (0..8)
            .filter_map(|_| {
                let mover = aod[rng.random_range(0..aod.len())];
                let target = rng.random_range(0..a.num_qubits() as u32);
                (mover != target).then(|| (mover, target, rng.random_range(4.5..10.0)))
            })
            .collect()
    }

    #[test]
    fn crowded_scenes_fail_most_probes() {
        let (mut probes, mut failed) = (0, 0);
        for seed in 0..16 {
            let a = crowded_scene(seed);
            for (mover, target, r) in crowded_probes(&a, seed) {
                probes += 1;
                failed += usize::from(plan_move_into_range(&a, mover, target, r, 80).is_err());
            }
        }
        assert!(2 * failed > probes, "{failed} of {probes} probes failed");
    }

    mod crowded_scenes_match_naive {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            /// The incremental cascade against the naive oracle, which
            /// re-checks its whole batch with the naive sweep on every
            /// step and probes every endpoint, on crowded scenes where
            /// most probes fail: plans bit-identical, failures shared.
            #[test]
            fn on_vqe_like_scenes(seed in 0u64..1 << 40) {
                let a = crowded_scene(seed);
                for (mover, target, r) in crowded_probes(&a, seed) {
                    let pruned = plan_move_into_range(&a, mover, target, r, 80);
                    let naive = plan_move_into_range_naive(&a, mover, target, r, 80);
                    match (&pruned, &naive) {
                        (Ok(p), Ok(n)) => {
                            prop_assert_eq!(&p.moves, &n.moves);
                            prop_assert_eq!(p.max_distance_um.to_bits(), n.max_distance_um.to_bits());
                            prop_assert_eq!(p.recursion_used, n.recursion_used);
                        }
                        (Err(_), Err(_)) => {}
                        other => {
                            return Err(TestCaseError::fail(format!(
                                "success disagreement: {other:?}"
                            )));
                        }
                    }
                }
            }
        }
    }

    mod pruned_matches_naive_on_random_scenes {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Random crowded scenes: static atoms scattered on the grid,
            /// a handful of AOD atoms on the diagonal, random (mover,
            /// target) pairs and radii. The pruned planner must agree
            /// with the naive oracle everywhere.
            #[test]
            fn on_random_arrays(
                extra in proptest::collection::vec((0u16..14, 0u16..14), 0..10),
                mover in 0u32..4,
                target in 0u32..8,
                r in 5.0f64..12.0,
                rec in 0usize..6,
            ) {
                let mut a = AtomArray::new(MachineSpec::quera_aquila_256(), 8 + extra.len());
                // Four AOD atoms on the diagonal, four static anchors.
                for q in 0..4u16 {
                    a.place_in_slm(q as u32, (3 * q, 3 * q));
                }
                a.place_in_slm(4, (13, 1));
                a.place_in_slm(5, (1, 13));
                a.place_in_slm(6, (13, 13));
                a.place_in_slm(7, (7, 10));
                let mut next = 8u32;
                for &site in &extra {
                    if !a.grid().is_occupied(site) {
                        a.place_in_slm(next, site);
                        next += 1;
                    }
                }
                for q in 0..4u32 {
                    a.transfer_to_aod(q, q as u16, q as u16).unwrap();
                }
                if mover != target {
                    let pruned = plan_move_into_range(&a, mover, target, r, rec);
                    let naive = plan_move_into_range_naive(&a, mover, target, r, rec);
                    match (&pruned, &naive) {
                        (Ok(p), Ok(n)) => {
                            prop_assert_eq!(&p.moves, &n.moves);
                            prop_assert_eq!(
                                p.max_distance_um.to_bits(),
                                n.max_distance_um.to_bits()
                            );
                        }
                        (Err(_), Err(_)) => {}
                        other => {
                            return Err(TestCaseError::fail(format!(
                                "success disagreement: {other:?}"
                            )));
                        }
                    }
                }
            }
        }
    }
}
