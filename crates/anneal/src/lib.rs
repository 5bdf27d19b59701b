//! Dual annealing global optimization.
//!
//! GRAPHINE (and therefore step 1 of Parallax) places qubits on a 2D plane
//! with SciPy's `dual_annealing`. This crate is the Rust substitute: a
//! generalized simulated annealing (GSA) engine ([`gsa`]) with the
//! Tsallis/Stariolo visiting distribution and acceptance rule, periodic
//! bounded local refinement ([`local`]), and reheating restarts — the same
//! structure as the SciPy optimizer, fully seeded and deterministic.
//!
//! One hot-path property beyond the SciPy shape: **allocation-free inner
//! loops.** The visiting/acceptance loop and every pattern-search probe
//! reuse scratch buffers, so heap traffic is a setup-only constant that
//! stays flat as `evals` grows (`tests/allocations.rs` counts it with a
//! counting global allocator). Placement runs one seeded [`dual_annealing`] per
//! layout, as the paper does; the reheats inside that run are counted in
//! [`AnnealResult::restarts`].
//!
//! # Example
//! ```
//! use parallax_anneal::{dual_annealing, AnnealParams};
//!
//! // Minimize a shifted sphere over [-2, 2]^2.
//! let f = |x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] + 0.5).powi(2);
//! let bounds = vec![(-2.0, 2.0), (-2.0, 2.0)];
//! let result = dual_annealing(f, &bounds, &AnnealParams { seed: 1, ..Default::default() });
//! assert!(result.energy < 1e-4);
//! ```

pub mod gsa;
pub mod local;
pub mod special;

pub use local::{pattern_search, LocalResult};

use gsa::{acceptance_probability, temperature, VisitingDistribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for [`dual_annealing`]. Defaults mirror SciPy's.
#[derive(Debug, Clone)]
pub struct AnnealParams {
    /// Visiting distribution shape, in `(1, 3)`.
    pub qv: f64,
    /// Acceptance distribution shape, `< 1`.
    pub qa: f64,
    /// Initial temperature.
    pub initial_temp: f64,
    /// Reheat when temperature falls below `restart_temp_ratio * initial_temp`.
    pub restart_temp_ratio: f64,
    /// Number of annealing iterations (outer steps).
    pub max_iter: usize,
    /// Objective-evaluation budget for each local refinement (0 disables
    /// local search entirely).
    pub local_search_evals: usize,
    /// RNG seed; equal seeds give bit-identical results.
    pub seed: u64,
}

impl Default for AnnealParams {
    fn default() -> Self {
        Self {
            qv: 2.62,
            qa: -5.0,
            initial_temp: 5230.0,
            restart_temp_ratio: 2e-5,
            max_iter: 1000,
            local_search_evals: 2000,
            seed: 0,
        }
    }
}

/// Result of a [`dual_annealing`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at the best point.
    pub energy: f64,
    /// Total objective evaluations.
    pub evals: usize,
    /// Outer annealing iterations performed.
    pub iterations: usize,
    /// Number of reheating restarts taken.
    pub restarts: usize,
}

/// Global minimization of `f` over the box `bounds`.
///
/// Runs GSA with per-dimension visiting moves; every time a new global best
/// is found, a bounded pattern search polishes it (the "dual" phase).
pub fn dual_annealing<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    bounds: &[(f64, f64)],
    params: &AnnealParams,
) -> AnnealResult {
    let dim = bounds.len();
    assert!(dim > 0, "dual_annealing requires at least one dimension");
    for &(lo, hi) in bounds {
        assert!(hi > lo, "invalid bounds: ({lo}, {hi})");
    }
    let mut rng = StdRng::seed_from_u64(params.seed);
    let visiting = VisitingDistribution::new(params.qv);

    // Random start.
    let mut current: Vec<f64> =
        bounds.iter().map(|&(lo, hi)| lo + (hi - lo) * rng.random::<f64>()).collect();
    let mut current_e = f(&current);
    let mut evals = 1usize;
    let mut best = current.clone();
    let mut best_e = current_e;
    let mut restarts = 0usize;

    let restart_threshold = params.initial_temp * params.restart_temp_ratio;
    let mut step_within_cycle = 1usize;
    let mut iterations = 0usize;

    let mut candidate = vec![0.0f64; dim];
    for _ in 0..params.max_iter {
        iterations += 1;
        let t = temperature(params.initial_temp, params.qv, step_within_cycle);
        if t < restart_threshold {
            // Reheat: restart the schedule from the best known point.
            step_within_cycle = 1;
            restarts += 1;
            current.copy_from_slice(&best);
            current_e = best_e;
            continue;
        }
        step_within_cycle += 1;

        // Visit: perturb all dimensions, then (as in SciPy) also try
        // single-dimension moves on alternating steps for fine exploration.
        candidate.copy_from_slice(&current);
        if step_within_cycle.is_multiple_of(2) {
            let x_base = visiting.x_base(t);
            for (d, c) in candidate.iter_mut().enumerate() {
                let delta = visiting.sample_at(&mut rng, x_base);
                *c = wrap_into_bounds(*c + delta, bounds[d]);
            }
        } else {
            let d = rng.random_range(0..dim);
            let delta = visiting.sample(&mut rng, t);
            candidate[d] = wrap_into_bounds(candidate[d] + delta, bounds[d]);
        }

        let cand_e = f(&candidate);
        evals += 1;
        let accept = if cand_e <= current_e {
            true
        } else {
            // Acceptance temperature decays with the step index, as in GSA.
            let t_accept = t / step_within_cycle as f64;
            let p = acceptance_probability(params.qa, cand_e - current_e, t_accept);
            rng.random::<f64>() <= p
        };
        if accept {
            current.copy_from_slice(&candidate);
            current_e = cand_e;
            if cand_e < best_e {
                best.copy_from_slice(&candidate);
                best_e = cand_e;
                if params.local_search_evals > 0 {
                    let refined = pattern_search(&mut f, &best, bounds, params.local_search_evals);
                    evals += refined.evals;
                    if refined.energy < best_e {
                        best.copy_from_slice(&refined.x);
                        best_e = refined.energy;
                        current.copy_from_slice(&refined.x);
                        current_e = refined.energy;
                    }
                }
            }
        }
    }

    // Final polish from the overall best.
    if params.local_search_evals > 0 {
        let refined = pattern_search(&mut f, &best, bounds, params.local_search_evals);
        evals += refined.evals;
        if refined.energy < best_e {
            best = refined.x;
            best_e = refined.energy;
        }
    }

    AnnealResult { x: best, energy: best_e, evals, iterations, restarts }
}

/// Reflect/wrap a value into `(lo, hi)` the way SciPy folds visiting moves
/// back into the search box (modulo the box size, offset from the lower
/// bound).
fn wrap_into_bounds(v: f64, (lo, hi): (f64, f64)) -> f64 {
    let range = hi - lo;
    let wrapped = (v - lo).rem_euclid(range) + lo;
    wrapped.clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    /// Multimodal test function with the global minimum 0 at the origin.
    fn rastrigin(x: &[f64]) -> f64 {
        let a = 10.0;
        a * x.len() as f64
            + x.iter().map(|v| v * v - a * (2.0 * std::f64::consts::PI * v).cos()).sum::<f64>()
    }

    #[test]
    fn minimizes_sphere() {
        let bounds = vec![(-5.0, 5.0); 3];
        let r = dual_annealing(sphere, &bounds, &AnnealParams::default());
        assert!(r.energy < 1e-6, "energy {}", r.energy);
    }

    #[test]
    fn minimizes_rastrigin_2d() {
        let bounds = vec![(-5.12, 5.12); 2];
        let params = AnnealParams { max_iter: 2000, seed: 3, ..Default::default() };
        let r = dual_annealing(rastrigin, &bounds, &params);
        // Global optimum is 0; local minima sit at ~1, ~2, ... — require
        // we found the global basin.
        assert!(r.energy < 0.5, "energy {}", r.energy);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let bounds = vec![(-1.0, 1.0); 4];
        let p = AnnealParams { max_iter: 200, seed: 99, ..Default::default() };
        let a = dual_annealing(sphere, &bounds, &p);
        let b = dual_annealing(sphere, &bounds, &p);
        assert_eq!(a.x, b.x);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.evals, b.evals);
    }

    #[test]
    fn different_seeds_generally_differ() {
        let bounds = vec![(-1.0, 1.0); 2];
        let a = dual_annealing(
            rastrigin,
            &bounds,
            &AnnealParams { max_iter: 50, local_search_evals: 0, seed: 1, ..Default::default() },
        );
        let b = dual_annealing(
            rastrigin,
            &bounds,
            &AnnealParams { max_iter: 50, local_search_evals: 0, seed: 2, ..Default::default() },
        );
        assert_ne!(a.x, b.x);
    }

    #[test]
    fn result_stays_in_bounds() {
        let bounds = vec![(0.25, 0.75); 5];
        let r = dual_annealing(sphere, &bounds, &AnnealParams::default());
        for (v, (lo, hi)) in r.x.iter().zip(&bounds) {
            assert!(v >= lo && v <= hi);
        }
        // Sphere min within this box is at the lower corner.
        assert!((r.energy - 5.0 * 0.25 * 0.25).abs() < 1e-6);
    }

    #[test]
    fn disabled_local_search_still_optimizes() {
        let bounds = vec![(-2.0, 2.0); 2];
        let p = AnnealParams { local_search_evals: 0, max_iter: 3000, ..Default::default() };
        let r = dual_annealing(sphere, &bounds, &p);
        assert!(r.energy < 0.05, "energy {}", r.energy);
    }

    #[test]
    fn wrap_into_bounds_behaviour() {
        assert!((wrap_into_bounds(1.5, (0.0, 1.0)) - 0.5).abs() < 1e-12);
        assert!((wrap_into_bounds(-0.25, (0.0, 1.0)) - 0.75).abs() < 1e-12);
        let inside = wrap_into_bounds(0.3, (0.0, 1.0));
        assert!((inside - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid bounds")]
    fn rejects_inverted_bounds() {
        let _ = dual_annealing(sphere, &[(1.0, -1.0)], &AnnealParams::default());
    }

    #[test]
    fn reports_restarts_on_long_runs() {
        let bounds = vec![(-1.0, 1.0); 2];
        let p = AnnealParams {
            max_iter: 5000,
            local_search_evals: 0,
            restart_temp_ratio: 0.5, // force frequent reheats
            ..Default::default()
        };
        let r = dual_annealing(sphere, &bounds, &p);
        assert!(r.restarts > 0);
    }
}
