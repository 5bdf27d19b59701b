//! Generalized simulated annealing core: visiting distribution, temperature
//! schedule, and acceptance rule, following the formulation used by SciPy's
//! `dual_annealing` (Tsallis/Stariolo GSA).

use crate::special::ln_gamma;
use rand::Rng;

/// The distorted Cauchy-Lorentz visiting distribution of GSA.
///
/// Samples displacements whose tails widen with temperature, enabling both
/// broad exploration at high temperature and fine moves near convergence.
#[derive(Debug, Clone)]
pub struct VisitingDistribution {
    qv: f64,
    factor2: f64,
    factor4_base: f64,
    factor5: f64,
    d1: f64,
    factor6: f64,
}

/// Displacements are clipped to this magnitude (matching SciPy's tail
/// truncation) so one sample cannot jump arbitrarily far.
const TAIL_LIMIT: f64 = 1e8;

impl VisitingDistribution {
    /// Create the distribution for visiting parameter `qv` (SciPy default
    /// 2.62; must be in `(1, 3)`).
    pub fn new(qv: f64) -> Self {
        assert!(qv > 1.0 && qv < 3.0, "visiting parameter must be in (1, 3)");
        let factor2 = ((4.0 - qv) * (qv - 1.0).ln()).exp();
        let factor3 = ((2.0 - qv) * std::f64::consts::LN_2 / (qv - 1.0)).exp();
        let factor4_base = std::f64::consts::PI.sqrt() * factor2 / (factor3 * (3.0 - qv));
        let factor5 = 1.0 / (qv - 1.0) - 0.5;
        let d1 = 2.0 - factor5;
        let factor6 = std::f64::consts::PI * (1.0 - factor5)
            / (std::f64::consts::PI * (1.0 - factor5)).sin()
            / (ln_gamma(d1)).exp();
        Self { qv, factor2, factor4_base, factor5, d1, factor6 }
    }

    /// Sample one visiting displacement at `temperature`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, temperature: f64) -> f64 {
        self.sample_at(rng, self.x_base(temperature))
    }

    /// The temperature-only scale of a visit (two `ln` and two `exp`).
    /// A full-dimensional visit samples every coordinate at one
    /// temperature, so it computes this once and calls
    /// [`Self::sample_at`] per coordinate.
    pub fn x_base(&self, temperature: f64) -> f64 {
        let factor1 = (temperature.ln() / (self.qv - 1.0)).exp();
        let factor4 = self.factor4_base * factor1;
        ((-(self.qv - 1.0)) * (self.factor6 / factor4).ln() / (3.0 - self.qv)).exp()
    }

    /// Sample one visiting displacement at the temperature whose
    /// [`Self::x_base`] is `x_base`.
    pub fn sample_at<R: Rng + ?Sized>(&self, rng: &mut R, x_base: f64) -> f64 {
        let x = x_base * gaussian(rng);
        let y: f64 = gaussian(rng);
        let den = ((self.qv - 1.0) * y.abs().ln() / (3.0 - self.qv)).exp();
        let visit = x / den;
        visit.clamp(-TAIL_LIMIT, TAIL_LIMIT)
    }

    /// Visiting parameter.
    pub fn qv(&self) -> f64 {
        self.qv
    }

    /// Internal normalization constants (exposed for tests).
    pub fn constants(&self) -> (f64, f64, f64) {
        (self.factor2, self.factor5, self.d1)
    }
}

/// Standard normal sample via Box-Muller (keeps us independent of
/// `rand_distr`, which is outside the offline allowlist).
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// GSA temperature schedule:
/// `t(k) = t0 * (2^(qv-1) - 1) / ((1 + k)^(qv-1) - 1)`.
pub fn temperature(t0: f64, qv: f64, step: usize) -> f64 {
    let s = qv - 1.0;
    t0 * (2f64.powf(s) - 1.0) / ((1.0 + step as f64).powf(s) - 1.0)
}

/// GSA acceptance probability for an energy increase `delta > 0` at
/// acceptance temperature `t_accept` with acceptance parameter `qa < 1`
/// (SciPy default -5.0). Improvements are always accepted by the caller.
pub fn acceptance_probability(qa: f64, delta: f64, t_accept: f64) -> f64 {
    let base = 1.0 - (1.0 - qa) * delta / t_accept.max(f64::MIN_POSITIVE);
    if base <= 0.0 {
        0.0
    } else {
        (base.ln() / (1.0 - qa)).exp().min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn temperature_schedule_decreases() {
        let t0 = 5230.0;
        let qv = 2.62;
        assert!((temperature(t0, qv, 1) - t0).abs() < 1e-9); // k=1 gives t0
        let mut prev = f64::INFINITY;
        for k in 1..100 {
            let t = temperature(t0, qv, k);
            assert!(t <= prev);
            assert!(t > 0.0);
            prev = t;
        }
    }

    #[test]
    fn acceptance_always_for_zero_delta() {
        assert!((acceptance_probability(-5.0, 0.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn acceptance_decreases_with_delta() {
        let t = 10.0;
        let p1 = acceptance_probability(-5.0, 1.0, t);
        let p2 = acceptance_probability(-5.0, 5.0, t);
        let p3 = acceptance_probability(-5.0, 500.0, t);
        assert!(p1 > p2);
        assert!(p2 >= p3);
        assert!((0.0..=1.0).contains(&p1));
    }

    #[test]
    fn acceptance_increases_with_temperature() {
        let p_cold = acceptance_probability(-5.0, 1.0, 0.01);
        let p_hot = acceptance_probability(-5.0, 1.0, 100.0);
        assert!(p_hot > p_cold);
    }

    #[test]
    fn visiting_samples_widen_with_temperature() {
        let vd = VisitingDistribution::new(2.62);
        let mut rng = StdRng::seed_from_u64(7);
        let spread = |t: f64, rng: &mut StdRng| {
            let mut acc = 0.0;
            for _ in 0..2000 {
                acc += vd.sample(rng, t).abs().min(1e6);
            }
            acc / 2000.0
        };
        let cold = spread(1e-6, &mut rng);
        let hot = spread(5230.0, &mut rng);
        assert!(hot > cold, "hot {hot} <= cold {cold}");
    }

    #[test]
    fn visiting_samples_are_finite() {
        let vd = VisitingDistribution::new(2.62);
        let mut rng = StdRng::seed_from_u64(42);
        for k in 1..500 {
            let t = temperature(5230.0, 2.62, k);
            let s = vd.sample(&mut rng, t);
            assert!(s.is_finite());
            assert!(s.abs() <= TAIL_LIMIT);
        }
    }

    #[test]
    fn sample_at_hoisted_x_base_matches_sample() {
        // The full visit's hoisted form draws the same numbers in the same
        // order, bit for bit, over a whole temperature schedule.
        let vd = VisitingDistribution::new(2.62);
        let mut direct = StdRng::seed_from_u64(2024);
        let mut hoisted = StdRng::seed_from_u64(2024);
        for k in 1..=400 {
            let t = temperature(5230.0, 2.62, k);
            let x_base = vd.x_base(t);
            for _ in 0..3 {
                let a = vd.sample(&mut direct, t);
                let b = vd.sample_at(&mut hoisted, x_base);
                assert_eq!(a.to_bits(), b.to_bits(), "step {k}: {a} != {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "visiting parameter")]
    fn invalid_qv_rejected() {
        let _ = VisitingDistribution::new(3.5);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
