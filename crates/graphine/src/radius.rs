//! Interaction-radius selection.
//!
//! GRAPHINE picks the Rydberg interaction radius "large enough to ensure
//! that all of the qubits are reachable from all other qubits". The minimal
//! such radius over a set of points is the longest edge of their Euclidean
//! minimum spanning tree; any smaller radius disconnects the geometric
//! graph at that edge.

fn dist_sq(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    dx * dx + dy * dy
}

/// Longest edge of the Euclidean MST of `points`. Returns 0 for fewer than
/// two points. Coordinates must be finite.
///
/// Kruskal over near pairs, O(n log n) on spread-out points: the points
/// are bucketed into square cells of side `c` (first `2·span/√n`, a few
/// points per cell), and the pairs closer than `c` — all of which lie in
/// 3×3 cell neighbourhoods — are merged shortest first with union-find. If
/// they leave the points disconnected, `c` doubles and the pass reruns.
/// Once they connect, every pair up to the longest merged edge was among
/// them, so that edge is the bottleneck every MST shares: the value Prim's
/// O(n²) `connecting_radius_naive` returns, bit for bit, because `dist_sq`
/// gives the same bits in either operand order.
pub fn connecting_radius(points: &[(f64, f64)]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let (mut lo, mut hi) = ((f64::INFINITY, f64::INFINITY), (f64::NEG_INFINITY, f64::NEG_INFINITY));
    for &(x, y) in points {
        lo = (lo.0.min(x), lo.1.min(y));
        hi = (hi.0.max(x), hi.1.max(y));
    }
    let extent = (hi.0 - lo.0, hi.1 - lo.1);
    let span = extent.0.max(extent.1);
    assert!(span.is_finite(), "connecting_radius needs finite coordinates");
    let longest_sq = if span == 0.0 {
        0.0
    } else {
        let mut cell = 2.0 * span / (points.len() as f64).sqrt();
        loop {
            match near_pair_bottleneck(points, lo, extent, cell) {
                Some(longest_sq) => break longest_sq,
                None => cell *= 2.0,
            }
        }
    };
    #[cfg(debug_assertions)]
    assert_eq!(
        longest_sq.sqrt().to_bits(),
        connecting_radius_naive(points).to_bits(),
        "bucketed Kruskal disagrees with Prim's oracle"
    );
    longest_sq.sqrt()
}

/// The squared bottleneck of the pairs closer than `cell` (less a 1e-9
/// relative hair, which keeps floor-division rounding from splitting such a
/// pair across non-adjacent cells), or `None` when those pairs leave the
/// points disconnected.
fn near_pair_bottleneck(
    points: &[(f64, f64)],
    lo: (f64, f64),
    extent: (f64, f64),
    cell: f64,
) -> Option<f64> {
    let n = points.len();
    let cols = (extent.0 / cell) as usize + 1;
    let rows = (extent.1 / cell) as usize + 1;
    // `x - lo.0 <= extent.0` after rounding too, so a cell index never
    // reaches `cols` (likewise for rows).
    let cell_xy = |(x, y): (f64, f64)| (((x - lo.0) / cell) as usize, ((y - lo.1) / cell) as usize);
    // Counting sort of point ids by cell: `members[start[c]..start[c + 1]]`.
    let mut start = vec![0u32; cols * rows + 1];
    for &p in points {
        let (cx, cy) = cell_xy(p);
        start[cy * cols + cx + 1] += 1;
    }
    for c in 1..start.len() {
        start[c] += start[c - 1];
    }
    let mut fill = start.clone();
    let mut members = vec![0u32; n];
    for (i, &p) in points.iter().enumerate() {
        let (cx, cy) = cell_xy(p);
        let slot = &mut fill[cy * cols + cx];
        members[*slot as usize] = i as u32;
        *slot += 1;
    }

    let safe = cell * (1.0 - 1e-9);
    let limit = safe * safe;
    let mut edges: Vec<(f64, u32, u32)> = Vec::new();
    for (i, &p) in points.iter().enumerate() {
        let (cx, cy) = cell_xy(p);
        for ny in cy.saturating_sub(1)..=(cy + 1).min(rows - 1) {
            for nx in cx.saturating_sub(1)..=(cx + 1).min(cols - 1) {
                let c = ny * cols + nx;
                for &j in &members[start[c] as usize..start[c + 1] as usize] {
                    if j as usize > i {
                        let d = dist_sq(p, points[j as usize]);
                        if d <= limit {
                            edges.push((d, i as u32, j));
                        }
                    }
                }
            }
        }
    }
    edges.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

    let mut parent: Vec<u32> = (0..n as u32).collect();
    let find = |parent: &mut [u32], mut v: u32| {
        while parent[v as usize] != v {
            let grand = parent[parent[v as usize] as usize];
            parent[v as usize] = grand;
            v = grand;
        }
        v
    };
    let mut components = n;
    for (d, i, j) in edges {
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        if ri != rj {
            parent[ri as usize] = rj;
            components -= 1;
            if components == 1 {
                return Some(d);
            }
        }
    }
    None
}

/// Prim's O(n²) longest MST edge: the body [`connecting_radius`] replaced,
/// kept as its oracle.
#[cfg(any(test, debug_assertions))]
pub fn connecting_radius_naive(points: &[(f64, f64)]) -> f64 {
    let n = points.len();
    if n < 2 {
        return 0.0;
    }
    let mut in_tree = vec![false; n];
    let mut best_sq = vec![f64::INFINITY; n];
    in_tree[0] = true;
    for (j, bsq) in best_sq.iter_mut().enumerate().skip(1) {
        *bsq = dist_sq(points[0], points[j]);
    }
    let mut longest_sq: f64 = 0.0;
    for _ in 1..n {
        let mut next = usize::MAX;
        let mut next_d = f64::INFINITY;
        for j in 0..n {
            if !in_tree[j] && best_sq[j] < next_d {
                next_d = best_sq[j];
                next = j;
            }
        }
        debug_assert!(next != usize::MAX);
        in_tree[next] = true;
        longest_sq = longest_sq.max(next_d);
        for j in 0..n {
            if !in_tree[j] {
                let d = dist_sq(points[next], points[j]);
                if d < best_sq[j] {
                    best_sq[j] = d;
                }
            }
        }
    }
    longest_sq.sqrt()
}

/// Whether the geometric graph over `points` with edge radius `r` is
/// connected (used to verify the radius choice).
pub fn is_geometrically_connected(points: &[(f64, f64)], r: f64) -> bool {
    let n = points.len();
    if n <= 1 {
        return true;
    }
    let r_sq = r * r + 1e-12;
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1;
    while let Some(v) = stack.pop() {
        for j in 0..n {
            if !seen[j] {
                let dx = points[v].0 - points[j].0;
                let dy = points[v].1 - points[j].1;
                if dx * dx + dy * dy <= r_sq {
                    seen[j] = true;
                    count += 1;
                    stack.push(j);
                }
            }
        }
    }
    count == n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_cases() {
        assert_eq!(connecting_radius(&[]), 0.0);
        assert_eq!(connecting_radius(&[(0.5, 0.5)]), 0.0);
        assert!((connecting_radius(&[(0.0, 0.0), (0.0, 1.0)]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chain_radius_is_largest_gap() {
        let pts = [(0.0, 0.0), (1.0, 0.0), (2.5, 0.0), (3.0, 0.0)];
        assert!((connecting_radius(&pts) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn radius_connects_and_smaller_disconnects() {
        let pts = [(0.0, 0.0), (0.2, 0.9), (1.1, 0.4), (0.7, 1.6), (2.0, 2.0)];
        let r = connecting_radius(&pts);
        assert!(is_geometrically_connected(&pts, r));
        assert!(!is_geometrically_connected(&pts, r * 0.99));
    }

    #[test]
    fn identical_points_have_zero_radius() {
        assert_eq!(connecting_radius(&[(0.3, 0.7); 5]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn far_outlier_forces_the_cells_to_grow() {
        // A tight cluster sets the first cell side far below the gap to the
        // outlier, so the pass reruns with doubled cells until it connects.
        let mut pts: Vec<(f64, f64)> =
            (0..200).map(|i| (0.001 * (i % 20) as f64, 0.001 * (i / 20) as f64)).collect();
        pts.push((50.0, 40.0));
        let r = connecting_radius(&pts);
        assert_eq!(r.to_bits(), connecting_radius_naive(&pts).to_bits());
        assert!(r > 60.0);
    }

    #[test]
    fn longer_pair_in_adjacent_cells_does_not_stand_in_for_the_bottleneck() {
        // 16 points over a unit span give first cells of side 0.5. The
        // bottleneck pair (0.49, 0)–(1, 0) spans cells 0 and 2, so this
        // pass cannot see it; the longer (0.5, 0.4)–(1, 0) pair lies in
        // adjacent cells but beyond the cell side, so it must not connect
        // the points either. The pass reruns with doubled cells instead.
        let mut pts: Vec<(f64, f64)> = (0..14).map(|k| (0.49 * k as f64 / 13.0, 0.0)).collect();
        pts.extend([(0.5, 0.4), (1.0, 0.0)]);
        let r = connecting_radius(&pts);
        assert_eq!(r.to_bits(), connecting_radius_naive(&pts).to_bits());
        assert!((r - 0.51).abs() < 1e-12, "{r}");
    }

    mod bucketed_matches_prim {
        use super::*;
        use proptest::prelude::*;

        /// `n` points drawn from one seed: `shape` 0 uniform, 1 rounded onto
        /// a coarse lattice (duplicates and ties), 2 collinear, 3 a unit
        /// lattice, 4 a tight cluster plus one far outlier, 5 two unit
        /// squares a random gap apart (a bottleneck anywhere relative to
        /// the cell side, so every doubling step gets exercised).
        fn points(n: usize, seed: u64, shape: u8, scale: f64) -> Vec<(f64, f64)> {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let side = (n as f64).sqrt().ceil() as usize;
            let gap = 1.0 + 3.0 * next();
            let mut pts: Vec<(f64, f64)> = (0..n)
                .map(|i| match shape {
                    0 => (next() * scale, next() * scale),
                    1 => ((next() * 4.0).round() * scale, (next() * 4.0).round() * scale),
                    2 => {
                        let t = next() * scale;
                        (0.5 + 2.0 * t, -1.0 + 0.75 * t)
                    }
                    3 => ((i % side) as f64 * scale, (i / side) as f64 * scale),
                    4 => (1e-3 * next() * scale, 1e-3 * next() * scale),
                    _ => ((next() + (i % 2) as f64 * gap) * scale, next() * scale),
                })
                .collect();
            if shape == 4 {
                pts[n - 1] = (1e3 * scale, -7e2 * scale);
            }
            pts
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Bit-identical to Prim on every point shape.
            #[test]
            fn on_random_point_sets(
                n in 0usize..160,
                seed in 0u64..u64::MAX,
                shape in 0u8..6,
                scale in 1e-6f64..1e4,
            ) {
                let pts = points(n.max(1), seed, shape, scale);
                prop_assert_eq!(
                    connecting_radius(&pts).to_bits(),
                    connecting_radius_naive(&pts).to_bits(),
                    "n {} shape {}",
                    n,
                    shape
                );
            }
        }
    }

    #[test]
    fn grid_of_points() {
        let mut pts = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                pts.push((x as f64, y as f64));
            }
        }
        assert!((connecting_radius(&pts) - 1.0).abs() < 1e-12);
    }
}
