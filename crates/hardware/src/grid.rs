//! The discretized SLM site grid.
//!
//! Section II-A: Parallax discretizes the `[0,1]^2` plane GRAPHINE places
//! qubits on into machine sites whose pitch is twice the minimum separation
//! plus padding, guaranteeing (1) the separation constraint holds for any
//! static layout, and (2) AOD atoms can always navigate between SLM atoms.

use crate::geometry::Point;
use crate::params::MachineSpec;
use std::collections::VecDeque;

/// A site index on the SLM grid, `(column, row)` with `0 <= x, y < dim`.
pub type Site = (u16, u16);

/// Geometry of a uniform square cell grid laid over the machine plane —
/// the shared cell math behind every bucketed spatial structure (the
/// atom-occupancy index in [`crate::AtomArray`], the scheduler's blockade
/// index). Covers `[-margin, extent + margin]` per axis; coordinates
/// outside clamp into the border cells, so every point maps to a cell and
/// a bounding-box query is always a superset of the disc it covers (the
/// clamp is monotone, so box corners clamp outward-inclusively).
#[derive(Debug, Clone)]
pub struct CellGeometry {
    cell_um: f64,
    offset_um: f64,
    dim: usize,
}

impl CellGeometry {
    /// Grid over `[-margin_um, extent_um + margin_um]` with `cell_um`
    /// cells (floored at a tiny positive size so degenerate inputs cannot
    /// divide by zero).
    pub fn new(extent_um: f64, margin_um: f64, cell_um: f64) -> Self {
        let cell = cell_um.max(1e-6);
        let span = extent_um + 2.0 * margin_um;
        let dim = ((span / cell).ceil() as usize).max(1) + 1;
        Self { cell_um: cell, offset_um: margin_um, dim }
    }

    /// Cells per side.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total cell count (`dim²`) — the bucket-array length for users.
    pub fn num_cells(&self) -> usize {
        self.dim * self.dim
    }

    /// Cell coordinate along one axis, clamped into `[0, dim)`.
    pub fn axis_cell(&self, coord: f64) -> usize {
        let c = ((coord + self.offset_um) / self.cell_um).floor();
        (c.max(0.0) as usize).min(self.dim - 1)
    }

    /// Flat cell index of a point.
    pub fn cell_of(&self, p: Point) -> usize {
        self.axis_cell(p.y) * self.dim + self.axis_cell(p.x)
    }

    /// Visit the flat index of every cell overlapping the bounding box of
    /// the disc of `radius` around `center` — a superset of the cells
    /// containing points within `radius`.
    pub fn for_each_cell_within(&self, center: Point, radius: f64, mut f: impl FnMut(usize)) {
        let (x0, x1) = (self.axis_cell(center.x - radius), self.axis_cell(center.x + radius));
        let (y0, y1) = (self.axis_cell(center.y - radius), self.axis_cell(center.y + radius));
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                f(cy * self.dim + cx);
            }
        }
    }

    /// Visit the flat index of every cell overlapping the axis-aligned box
    /// `[min, max]` grown by `margin` on all sides — a superset of the
    /// cells containing points within `margin` of the box. The clamp is
    /// monotone, so out-of-range boxes collapse onto the border cells
    /// rather than missing anything.
    pub fn for_each_cell_in_box(
        &self,
        min: Point,
        max: Point,
        margin: f64,
        mut f: impl FnMut(usize),
    ) {
        let (x0, x1) = (self.axis_cell(min.x - margin), self.axis_cell(max.x + margin));
        let (y0, y1) = (self.axis_cell(min.y - margin), self.axis_cell(max.y + margin));
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                f(cy * self.dim + cx);
            }
        }
    }
}

/// The discrete site grid of a machine.
#[derive(Debug, Clone)]
pub struct SiteGrid {
    dim: usize,
    pitch_um: f64,
    occupied: Vec<bool>,
}

impl SiteGrid {
    /// Create an empty grid for `spec`.
    pub fn new(spec: &MachineSpec) -> Self {
        Self {
            dim: spec.grid_dim,
            pitch_um: spec.site_pitch_um(),
            occupied: vec![false; spec.grid_dim * spec.grid_dim],
        }
    }

    /// Grid dimension (sites per side).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Grid pitch, µm.
    pub fn pitch_um(&self) -> f64 {
        self.pitch_um
    }

    fn index(&self, site: Site) -> usize {
        site.1 as usize * self.dim + site.0 as usize
    }

    /// Whether `site` is inside the grid.
    pub fn contains(&self, site: Site) -> bool {
        (site.0 as usize) < self.dim && (site.1 as usize) < self.dim
    }

    /// Whether `site` currently holds an atom.
    pub fn is_occupied(&self, site: Site) -> bool {
        self.occupied[self.index(site)]
    }

    /// Mark `site` occupied. Panics if already occupied or out of range.
    pub fn occupy(&mut self, site: Site) {
        assert!(self.contains(site), "site {site:?} outside {0}x{0} grid", self.dim);
        let idx = self.index(site);
        assert!(!self.occupied[idx], "site {site:?} is already occupied");
        self.occupied[idx] = true;
    }

    /// Clear `site`. Panics if it was not occupied.
    pub fn vacate(&mut self, site: Site) {
        let idx = self.index(site);
        assert!(self.occupied[idx], "site {site:?} is not occupied");
        self.occupied[idx] = false;
    }

    /// Number of occupied sites.
    pub fn occupied_count(&self) -> usize {
        self.occupied.iter().filter(|&&b| b).count()
    }

    /// Physical position of a site's centre, µm.
    pub fn site_position(&self, site: Site) -> Point {
        Point::new(site.0 as f64 * self.pitch_um, site.1 as f64 * self.pitch_um)
    }

    /// Map a normalized `[0,1]^2` coordinate to the nearest site (no
    /// occupancy check).
    pub fn nearest_site(&self, x: f64, y: f64) -> Site {
        let scale = (self.dim - 1) as f64;
        let sx = (x.clamp(0.0, 1.0) * scale).round() as u16;
        let sy = (y.clamp(0.0, 1.0) * scale).round() as u16;
        (sx, sy)
    }

    /// Find the free site closest to `target` ("places atoms wherever there
    /// is free space" when the ideal cell is taken). Returns `None` when the
    /// grid is full.
    ///
    /// For a target inside the grid the result is the exact Euclidean-nearest
    /// free site; among equidistant ones, the first reached by an 8-connected
    /// BFS that expands only through occupied sites wins. The BFS stops once
    /// no unpopped site can be nearer: a nearest free site `f` is reached
    /// along a diagonal-then-axial path whose sites are all strictly closer
    /// to the target, hence occupied, so its BFS level equals its Chebyshev
    /// ring, at most `dist(f) / pitch`. Once the level `L` about to be
    /// popped has `((L - 1)·pitch)²` beyond the best squared distance found
    /// (one ring of slack against rounding), every tie at that distance was
    /// already popped, in the order the full walk pops them. An out-of-grid
    /// target starts from a clamped site, where that argument fails, so it
    /// walks the whole occupied component.
    pub fn nearest_free_site(&self, target: Site) -> Option<Site> {
        if self.contains(target) && !self.is_occupied(target) {
            return Some(target);
        }
        let stop_early = self.contains(target);
        let mut visited = vec![false; self.dim * self.dim];
        let mut queue = VecDeque::new();
        let start = (target.0.min(self.dim as u16 - 1), target.1.min(self.dim as u16 - 1));
        visited[self.index(start)] = true;
        queue.push_back((start, 0u32));
        let mut best: Option<(f64, Site)> = None;
        let target_pos =
            Point::new(target.0 as f64 * self.pitch_um, target.1 as f64 * self.pitch_um);
        while let Some((site, level)) = queue.pop_front() {
            if let (true, Some((bd, _))) = (stop_early, best) {
                let ring = level.saturating_sub(1) as f64 * self.pitch_um;
                if ring * ring > bd {
                    break;
                }
            }
            if !self.is_occupied(site) {
                let d = self.site_position(site).distance_sq(&target_pos);
                match best {
                    Some((bd, _)) if bd <= d => {}
                    _ => best = Some((d, site)),
                }
                continue;
            }
            for (dx, dy) in
                [(0i32, 1i32), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)]
            {
                let nx = site.0 as i32 + dx;
                let ny = site.1 as i32 + dy;
                if nx < 0 || ny < 0 || nx >= self.dim as i32 || ny >= self.dim as i32 {
                    continue;
                }
                let n = (nx as u16, ny as u16);
                let idx = self.index(n);
                if !visited[idx] {
                    visited[idx] = true;
                    queue.push_back((n, level + 1));
                }
            }
        }
        let found = best.map(|(_, s)| s);
        #[cfg(debug_assertions)]
        assert_eq!(
            found,
            self.nearest_free_site_naive(target),
            "early-stopped BFS disagrees with the full-walk oracle at {target:?}"
        );
        found
    }

    /// The full-walk BFS [`Self::nearest_free_site`] replaced: it pops every
    /// site of the occupied component around the target. Kept as the oracle
    /// the early-stopped search is diffed against.
    #[cfg(any(test, debug_assertions))]
    pub fn nearest_free_site_naive(&self, target: Site) -> Option<Site> {
        if self.contains(target) && !self.is_occupied(target) {
            return Some(target);
        }
        let mut visited = vec![false; self.dim * self.dim];
        let mut queue = VecDeque::new();
        let start = (target.0.min(self.dim as u16 - 1), target.1.min(self.dim as u16 - 1));
        visited[self.index(start)] = true;
        queue.push_back(start);
        let mut best: Option<(f64, Site)> = None;
        let target_pos =
            Point::new(target.0 as f64 * self.pitch_um, target.1 as f64 * self.pitch_um);
        while let Some(site) = queue.pop_front() {
            if !self.is_occupied(site) {
                let d = self.site_position(site).distance_sq(&target_pos);
                match best {
                    Some((bd, _)) if bd <= d => {}
                    _ => best = Some((d, site)),
                }
                continue;
            }
            for (dx, dy) in
                [(0i32, 1i32), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)]
            {
                let nx = site.0 as i32 + dx;
                let ny = site.1 as i32 + dy;
                if nx < 0 || ny < 0 || nx >= self.dim as i32 || ny >= self.dim as i32 {
                    continue;
                }
                let n = (nx as u16, ny as u16);
                let idx = self.index(n);
                if !visited[idx] {
                    visited[idx] = true;
                    queue.push_back(n);
                }
            }
        }
        best.map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SiteGrid {
        SiteGrid::new(&MachineSpec::quera_aquila_256())
    }

    #[test]
    fn occupancy_lifecycle() {
        let mut g = grid();
        assert!(!g.is_occupied((3, 4)));
        g.occupy((3, 4));
        assert!(g.is_occupied((3, 4)));
        assert_eq!(g.occupied_count(), 1);
        g.vacate((3, 4));
        assert!(!g.is_occupied((3, 4)));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_occupy_panics() {
        let mut g = grid();
        g.occupy((0, 0));
        g.occupy((0, 0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_occupy_panics() {
        let mut g = grid();
        g.occupy((16, 0));
    }

    #[test]
    fn site_positions_scale_with_pitch() {
        let g = grid();
        let p = g.site_position((2, 3));
        assert_eq!(p, Point::new(14.0, 21.0)); // pitch 7 µm
    }

    #[test]
    fn nearest_site_maps_unit_square_corners() {
        let g = grid();
        assert_eq!(g.nearest_site(0.0, 0.0), (0, 0));
        assert_eq!(g.nearest_site(1.0, 1.0), (15, 15));
        assert_eq!(g.nearest_site(0.5, 0.5), (8, 8));
        // Out-of-range inputs are clamped.
        assert_eq!(g.nearest_site(-2.0, 7.0), (0, 15));
    }

    #[test]
    fn nearest_free_site_prefers_target() {
        let g = grid();
        assert_eq!(g.nearest_free_site((5, 5)), Some((5, 5)));
    }

    #[test]
    fn nearest_free_site_spills_to_neighbor() {
        let mut g = grid();
        g.occupy((5, 5));
        let s = g.nearest_free_site((5, 5)).unwrap();
        assert_ne!(s, (5, 5));
        let d = g.site_position(s).distance(&g.site_position((5, 5)));
        assert!(d <= g.pitch_um() * 2f64.sqrt() + 1e-9);
    }

    #[test]
    fn nearest_free_site_none_when_full() {
        let spec = MachineSpec { grid_dim: 2, ..MachineSpec::quera_aquila_256() };
        let mut g = SiteGrid::new(&spec);
        for x in 0..2 {
            for y in 0..2 {
                g.occupy((x, y));
            }
        }
        assert_eq!(g.nearest_free_site((0, 0)), None);
    }

    #[test]
    fn bfs_escapes_occupied_cluster() {
        let mut g = grid();
        for x in 0..4u16 {
            for y in 0..4u16 {
                g.occupy((x, y));
            }
        }
        let s = g.nearest_free_site((1, 1)).unwrap();
        assert!(!g.is_occupied(s));
    }

    #[test]
    fn nearest_free_site_breaks_ties_by_bfs_order() {
        // A 3×3 occupied block: the four axial sites two away are all
        // nearest, and the BFS reaches (5, 7) first (via (5, 6), the first
        // neighbour it expands).
        let mut g = grid();
        for x in 4..7u16 {
            for y in 4..7u16 {
                g.occupy((x, y));
            }
        }
        assert_eq!(g.nearest_free_site((5, 5)), Some((5, 7)));
        assert_eq!(g.nearest_free_site_naive((5, 5)), Some((5, 7)));
    }

    #[test]
    fn nearest_free_site_finds_the_last_free_site() {
        let spec = MachineSpec { grid_dim: 9, ..MachineSpec::quera_aquila_256() };
        let mut g = SiteGrid::new(&spec);
        for x in 0..9u16 {
            for y in 0..9u16 {
                if (x, y) != (8, 0) {
                    g.occupy((x, y));
                }
            }
        }
        for target in [(0, 8), (4, 4), (8, 1), (0, 0), (20, 20)] {
            assert_eq!(g.nearest_free_site(target), Some((8, 0)), "{target:?}");
        }
    }

    mod early_stop_matches_naive {
        use super::*;
        use proptest::prelude::*;

        /// A `dim`-sided grid filled from one seed: `shape` 0 fills each site
        /// with probability `fill_pct`, 1 fills every site, 2 leaves a single
        /// site free, 3 occupies a square block around `around` (so the
        /// nearest free sites form an equidistant ring), 4 occupies a
        /// Euclidean disc around `around` (so a far-ring axial site can beat
        /// a near-ring diagonal one, which a too-early stop would miss).
        fn filled_grid(dim: usize, seed: u64, fill_pct: u64, shape: u8, around: Site) -> SiteGrid {
            let spec = MachineSpec { grid_dim: dim, ..MachineSpec::quera_aquila_256() };
            let mut g = SiteGrid::new(&spec);
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let sites = dim * dim;
            let lone = (next() % sites as u64) as usize;
            let half = (next() % 4) as i32 + 1;
            let disc_sq = (next() % 60) as i32;
            for idx in 0..sites {
                let site = ((idx % dim) as u16, (idx / dim) as u16);
                let fill = match shape {
                    0 => next() % 100 < fill_pct,
                    1 => true,
                    2 => idx != lone,
                    3 => {
                        (site.0 as i32 - around.0 as i32).abs() < half
                            && (site.1 as i32 - around.1 as i32).abs() < half
                    }
                    _ => {
                        let (dx, dy) =
                            (site.0 as i32 - around.0 as i32, site.1 as i32 - around.1 as i32);
                        dx * dx + dy * dy <= disc_sq
                    }
                };
                if fill {
                    g.occupy(site);
                }
            }
            g
        }

        /// Target kinds: 0 anywhere, 1 a corner, 2 an edge, 3 off the grid.
        fn pick_target(dim: usize, kind: u8, u: u16, v: u16) -> Site {
            let last = dim as u16 - 1;
            let (u, v) = (u % dim as u16, v % dim as u16);
            match kind {
                0 => (u, v),
                1 => ([0, last][(u % 2) as usize], [0, last][(v % 2) as usize]),
                2 => [(0, v), (last, v), (u, 0), (u, last)][((u ^ v) % 4) as usize],
                _ => (last + 1 + u % 3, v),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The early-stopped BFS returns exactly the full walk's site
            /// (or `None`) for every occupancy, target and tie pattern.
            #[test]
            fn on_random_grids(
                dim in 1usize..65,
                seed in 0u64..u64::MAX,
                fill_pct in 0u64..101,
                shape in 0u8..5,
                target_kind in 0u8..4,
                uv in (0u16..64, 0u16..64),
            ) {
                let target = pick_target(dim, target_kind, uv.0, uv.1);
                let around = (target.0.min(dim as u16 - 1), target.1.min(dim as u16 - 1));
                let g = filled_grid(dim, seed, fill_pct, shape, around);
                prop_assert_eq!(
                    g.nearest_free_site(target),
                    g.nearest_free_site_naive(target),
                    "dim {} target {:?}",
                    dim,
                    target
                );
            }
        }

        /// Every in-grid target of dense small grids, exhaustively.
        #[test]
        fn on_every_target_of_dense_small_grids() {
            for dim in 1..=12 {
                for seed in 1..=20u64 {
                    let g = filled_grid(dim, seed, 85, 0, (0, 0));
                    for x in 0..dim as u16 {
                        for y in 0..dim as u16 {
                            let t = (x, y);
                            assert_eq!(g.nearest_free_site(t), g.nearest_free_site_naive(t));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cell_geometry_clamps_out_of_span_points_into_border_cells() {
        let c = CellGeometry::new(100.0, 7.0, 7.0);
        assert_eq!(c.axis_cell(-1e6), 0);
        assert_eq!(c.axis_cell(1e6), c.dim() - 1);
        assert!(c.cell_of(Point::new(-50.0, 1e9)) < c.num_cells());
    }

    #[test]
    fn cell_geometry_box_query_covers_margin_around_box() {
        let c = CellGeometry::new(100.0, 7.0, 7.0);
        let (min, max) = (Point::new(20.0, 30.0), Point::new(45.0, 38.0));
        let margin = 5.0;
        let mut visited = vec![false; c.num_cells()];
        c.for_each_cell_in_box(min, max, margin, |cell| visited[cell] = true);
        // Every point within `margin` of the box lies in a visited cell.
        for dx in 0..=70 {
            for dy in 0..=40 {
                let p = Point::new(min.x - 5.0 + dx as f64 * 0.5, min.y - 5.0 + dy as f64 * 0.5);
                let cx = p.x.clamp(min.x, max.x);
                let cy = p.y.clamp(min.y, max.y);
                if p.distance(&Point::new(cx, cy)) <= margin {
                    assert!(visited[c.cell_of(p)], "{p:?} missed");
                }
            }
        }
    }

    #[test]
    fn cell_geometry_box_query_is_a_superset_of_the_disc() {
        let c = CellGeometry::new(100.0, 7.0, 7.0);
        let center = Point::new(33.0, 41.0);
        let radius = 6.5;
        // Every point within `radius` of the centre lies in a visited cell.
        let mut visited = vec![false; c.num_cells()];
        c.for_each_cell_within(center, radius, |cell| visited[cell] = true);
        for dx in -13..=13 {
            for dy in -13..=13 {
                let p = Point::new(center.x + dx as f64 * 0.5, center.y + dy as f64 * 0.5);
                if p.distance(&center) <= radius {
                    assert!(visited[c.cell_of(p)], "{p:?} missed");
                }
            }
        }
    }

    #[test]
    fn cell_geometry_degenerate_cell_size_does_not_divide_by_zero() {
        let c = CellGeometry::new(10.0, 1.0, 0.0);
        assert!(c.dim() >= 1);
        let _ = c.cell_of(Point::new(5.0, 5.0));
    }
}
