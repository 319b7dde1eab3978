//! Taylor-series approximation evaluated with Horner's rule.
//!
//! The baseline from Section 2.2.3: each term's coefficient is pre-computed at
//! an expansion centre and the polynomial is evaluated as a chain of
//! multiply-accumulate operations (Horner form), which vectorises well but
//! loses accuracy as inputs drift from the centre.

use crate::Approximator;
use mugi_numerics::nonlinear::NonlinearOp;

/// Configuration of a Taylor-series approximator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaylorConfig {
    /// Polynomial degree (number of expansion terms minus one). The paper's
    /// baseline uses up to 9 degrees.
    pub degree: usize,
    /// Expansion centre.
    pub center: f32,
}

impl Default for TaylorConfig {
    fn default() -> Self {
        TaylorConfig { degree: 9, center: -1.0 }
    }
}

/// A Taylor-series approximator for one nonlinear op.
#[derive(Clone, Debug)]
pub struct TaylorSeries {
    op: NonlinearOp,
    config: TaylorConfig,
    /// Polynomial coefficients in ascending-power order around the centre.
    coefficients: Vec<f64>,
}

impl TaylorSeries {
    /// Builds the approximator by computing derivatives of the exact function
    /// at the centre (via numerically-stable closed forms for exp, and finite
    /// differences of the smooth reference for SiLU/GELU).
    ///
    /// # Panics
    /// Panics if `degree` is zero or larger than 16 (beyond which the finite
    /// differences lose all precision and no hardware baseline goes anyway).
    pub fn new(op: NonlinearOp, config: TaylorConfig) -> Self {
        assert!(
            (1..=16).contains(&config.degree),
            "degree must be in 1..=16, got {}",
            config.degree
        );
        let coefficients = match op {
            NonlinearOp::Exp | NonlinearOp::Softmax => {
                // exp(c + d) = exp(c) * sum d^k / k!
                let base = (config.center as f64).exp();
                let mut factorial = 1.0f64;
                (0..=config.degree)
                    .map(|k| {
                        if k > 0 {
                            factorial *= k as f64;
                        }
                        base / factorial
                    })
                    .collect()
            }
            NonlinearOp::Silu | NonlinearOp::Gelu => {
                // Derivatives via central finite differences on a fine grid.
                Self::finite_difference_coefficients(op, config.center as f64, config.degree)
            }
        };
        TaylorSeries { op, config, coefficients }
    }

    fn finite_difference_coefficients(op: NonlinearOp, center: f64, degree: usize) -> Vec<f64> {
        // Use a Taylor-table fit: sample the function at Chebyshev-like points
        // around the centre and solve a least-squares polynomial via normal
        // equations on a small Vandermonde system. For the small degrees used
        // here this is numerically adequate and keeps the construction simple.
        let samples = (degree + 1) * 8;
        let radius = 2.0f64;
        let xs: Vec<f64> = (0..samples)
            .map(|i| center + radius * ((i as f64 / (samples - 1) as f64) * 2.0 - 1.0))
            .collect();
        let ys: Vec<f64> = xs.iter().map(|&x| op.eval(x as f32) as f64).collect();
        // Build normal equations A^T A c = A^T y with A[i][k] = (x_i - center)^k.
        let n = degree + 1;
        let mut ata = vec![vec![0.0f64; n]; n];
        let mut aty = vec![0.0f64; n];
        for (&x, &y) in xs.iter().zip(&ys) {
            let d = x - center;
            let mut powers = vec![1.0f64; n];
            for k in 1..n {
                powers[k] = powers[k - 1] * d;
            }
            for r in 0..n {
                aty[r] += powers[r] * y;
                for c in 0..n {
                    ata[r][c] += powers[r] * powers[c];
                }
            }
        }
        // Gaussian elimination with partial pivoting.
        let mut m = ata;
        let mut b = aty;
        for col in 0..n {
            let pivot = (col..n)
                .max_by(|&a, &bb| m[a][col].abs().partial_cmp(&m[bb][col].abs()).unwrap())
                .unwrap();
            m.swap(col, pivot);
            b.swap(col, pivot);
            let p = m[col][col];
            if p.abs() < 1e-12 {
                continue;
            }
            for row in (col + 1)..n {
                let (upper, lower) = m.split_at_mut(row);
                let (pivot_row, target) = (&upper[col], &mut lower[0]);
                let f = target[col] / p;
                for (x, &pv) in target[col..n].iter_mut().zip(&pivot_row[col..n]) {
                    *x -= f * pv;
                }
                b[row] -= f * b[col];
            }
        }
        let mut coeffs = vec![0.0f64; n];
        for row in (0..n).rev() {
            let mut acc = b[row];
            for c2 in (row + 1)..n {
                acc -= m[row][c2] * coeffs[c2];
            }
            coeffs[row] = if m[row][row].abs() < 1e-12 { 0.0 } else { acc / m[row][row] };
        }
        coeffs
    }

    /// The configuration used to build this approximator.
    pub fn config(&self) -> &TaylorConfig {
        &self.config
    }

    /// The stored coefficients (ascending powers of `x - center`).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Storage cost in bits (one BF16 coefficient register per degree).
    pub fn storage_bits(&self) -> usize {
        self.coefficients.len() * 16
    }
}

impl Approximator for TaylorSeries {
    fn op(&self) -> NonlinearOp {
        self.op
    }

    fn eval(&self, x: f32) -> f32 {
        if x.is_nan() {
            return f32::NAN;
        }
        let d = (x - self.config.center) as f64;
        // Horner's rule.
        let mut acc = 0.0f64;
        for &c in self.coefficients.iter().rev() {
            acc = acc * d + c;
        }
        let result = acc as f32;
        match self.op {
            // exp must stay non-negative; the truncated series can dip below
            // zero far from the centre, which hardware clamps.
            NonlinearOp::Exp | NonlinearOp::Softmax => result.max(0.0),
            NonlinearOp::Silu | NonlinearOp::Gelu => {
                // Outside a generous trust region the polynomial diverges;
                // hardware baselines clamp to the identity / zero tails.
                let trust = 2.0 + self.config.degree as f32;
                if x > self.config.center + trust {
                    x
                } else if x < self.config.center - trust {
                    0.0
                } else {
                    result
                }
            }
        }
    }

    fn label(&self) -> String {
        format!("Taylor(degree {}, center {})", self.config.degree, self.config.center)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi_numerics::nonlinear::silu;

    #[test]
    fn exp_series_is_accurate_near_center() {
        let t = TaylorSeries::new(NonlinearOp::Exp, TaylorConfig { degree: 9, center: -1.0 });
        for x in [-2.0f32, -1.5, -1.0, -0.5, 0.0] {
            let exact = x.exp();
            assert!(
                (t.eval(x) - exact).abs() / exact < 0.01,
                "x={x} approx={} exact={exact}",
                t.eval(x)
            );
        }
    }

    #[test]
    fn exp_series_degrades_far_from_center() {
        let t = TaylorSeries::new(NonlinearOp::Exp, TaylorConfig { degree: 5, center: 0.0 });
        let near = (t.eval(-0.5) - (-0.5f32).exp()).abs() / (-0.5f32).exp();
        let far = (t.eval(-8.0) - (-8.0f32).exp()).abs() / (-8.0f32).exp();
        assert!(far > near, "far error {far} should exceed near error {near}");
    }

    #[test]
    fn exp_series_never_negative() {
        let t = TaylorSeries::new(NonlinearOp::Exp, TaylorConfig { degree: 3, center: 0.0 });
        for i in 0..100 {
            let x = -10.0 + i as f32 * 0.1;
            assert!(t.eval(x) >= 0.0, "negative output at {x}");
        }
    }

    #[test]
    fn silu_series_reasonable_near_center() {
        let t = TaylorSeries::new(NonlinearOp::Silu, TaylorConfig { degree: 7, center: 0.0 });
        for x in [-1.5f32, -0.5, 0.0, 0.5, 1.5] {
            assert!((t.eval(x) - silu(x)).abs() < 0.05, "x={x}");
        }
        // Tails are clamped to identity / zero.
        assert_eq!(t.eval(100.0), 100.0);
        assert_eq!(t.eval(-100.0), 0.0);
    }

    #[test]
    fn higher_degree_improves_accuracy() {
        let xs: Vec<f32> = (-30..=0).map(|i| i as f32 / 10.0).collect();
        let exact: Vec<f32> = xs.iter().map(|&x| x.exp()).collect();
        let low = TaylorSeries::new(NonlinearOp::Exp, TaylorConfig { degree: 3, center: -1.5 });
        let high = TaylorSeries::new(NonlinearOp::Exp, TaylorConfig { degree: 9, center: -1.5 });
        let err =
            |t: &TaylorSeries| -> f32 { mugi_numerics::error::rmse(&exact, &t.eval_slice(&xs)) };
        assert!(err(&high) < err(&low));
    }

    #[test]
    fn metadata() {
        let t = TaylorSeries::new(NonlinearOp::Exp, TaylorConfig::default());
        assert_eq!(t.coefficients().len(), 10);
        assert!(t.label().contains("Taylor"));
        assert_eq!(t.storage_bits(), 160);
        assert!(t.eval(f32::NAN).is_nan());
    }

    #[test]
    #[should_panic(expected = "degree must be in 1..=16")]
    fn zero_degree_rejected() {
        TaylorSeries::new(NonlinearOp::Exp, TaylorConfig { degree: 0, center: 0.0 });
    }
}
