//! Piecewise-linear (PWL) approximation.
//!
//! The baseline from Section 2.2.2: the function curve is split into uniform
//! segments over a configured input range; each input is located in its
//! segment by comparison and evaluated on that segment's line (`a·x + b`).
//! Outside the range the approximation clamps to the boundary behaviour:
//! softmax/exp inputs below the range flush toward 0, activations above the
//! range follow the identity tail.

use crate::Approximator;
use mugi_numerics::nonlinear::NonlinearOp;

/// Configuration of a piecewise-linear approximator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PwlConfig {
    /// Number of linear segments (the paper's baseline uses 22).
    pub segments: usize,
    /// Approximation range half-width `sr`: softmax/exp is approximated over
    /// `[-sr, 0]`, SiLU/GELU over `[-sr, sr]` (as described under Figure 6).
    pub segment_range: f32,
}

impl Default for PwlConfig {
    fn default() -> Self {
        PwlConfig { segments: 22, segment_range: 20.0 }
    }
}

/// A piecewise-linear approximator for one nonlinear op.
#[derive(Clone, Debug)]
pub struct PiecewiseLinear {
    op: NonlinearOp,
    config: PwlConfig,
    /// Segment boundaries (length `segments + 1`).
    breakpoints: Vec<f32>,
    /// Per-segment slope / intercept pairs.
    coefficients: Vec<(f32, f32)>,
}

impl PiecewiseLinear {
    /// Builds the approximator by sampling the exact function at the segment
    /// boundaries (chord interpolation).
    ///
    /// # Panics
    /// Panics if `segments` is zero or `segment_range` is not positive/finite.
    pub fn new(op: NonlinearOp, config: PwlConfig) -> Self {
        assert!(config.segments > 0, "segments must be non-zero");
        assert!(
            config.segment_range > 0.0 && config.segment_range.is_finite(),
            "segment_range must be positive and finite"
        );
        let (lo, hi) = Self::range(op, config.segment_range);
        let n = config.segments;
        let mut breakpoints = Vec::with_capacity(n + 1);
        for i in 0..=n {
            breakpoints.push(lo + (hi - lo) * i as f32 / n as f32);
        }
        let mut coefficients = Vec::with_capacity(n);
        for i in 0..n {
            let x0 = breakpoints[i];
            let x1 = breakpoints[i + 1];
            let y0 = op.eval(x0);
            let y1 = op.eval(x1);
            let slope = (y1 - y0) / (x1 - x0);
            let intercept = y0 - slope * x0;
            coefficients.push((slope, intercept));
        }
        PiecewiseLinear { op, config, breakpoints, coefficients }
    }

    /// The approximation range for an op given the half-width parameter.
    fn range(op: NonlinearOp, sr: f32) -> (f32, f32) {
        match op {
            // Softmax inputs are non-positive after max subtraction.
            NonlinearOp::Exp | NonlinearOp::Softmax => (-sr, 0.0),
            NonlinearOp::Silu | NonlinearOp::Gelu => (-sr, sr),
        }
    }

    /// The configuration used to build this approximator.
    pub fn config(&self) -> &PwlConfig {
        &self.config
    }

    /// Number of stored coefficient pairs.
    pub fn num_segments(&self) -> usize {
        self.coefficients.len()
    }

    /// Storage cost in bits (two BF16 coefficients plus one BF16 breakpoint
    /// per segment), used by the area model.
    pub fn storage_bits(&self) -> usize {
        self.num_segments() * 3 * 16
    }
}

impl Approximator for PiecewiseLinear {
    fn op(&self) -> NonlinearOp {
        self.op
    }

    fn eval(&self, x: f32) -> f32 {
        if x.is_nan() {
            return f32::NAN;
        }
        let lo = *self.breakpoints.first().expect("non-empty breakpoints");
        let hi = *self.breakpoints.last().expect("non-empty breakpoints");
        if x < lo {
            // Below the range: softmax flushes toward zero, activations follow
            // their negative tail (which is ~0 for SiLU/GELU as well).
            return match self.op {
                NonlinearOp::Exp | NonlinearOp::Softmax => 0.0,
                NonlinearOp::Silu | NonlinearOp::Gelu => 0.0,
            };
        }
        if x > hi {
            return match self.op {
                NonlinearOp::Exp | NonlinearOp::Softmax => self.op.eval(hi),
                // Identity tail for large positive activations.
                NonlinearOp::Silu | NonlinearOp::Gelu => x,
            };
        }
        // Locate the segment by uniform index (hardware uses a comparator
        // tree; uniform segments make it a simple divide).
        let n = self.coefficients.len();
        let t = ((x - lo) / (hi - lo) * n as f32).floor() as usize;
        let idx = t.min(n - 1);
        let (a, b) = self.coefficients[idx];
        a * x + b
    }

    fn label(&self) -> String {
        format!("PWL({} segments, range {})", self.config.segments, self.config.segment_range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi_numerics::error::max_abs_error;
    use mugi_numerics::nonlinear::{gelu_erf, silu};

    #[test]
    fn pwl_is_exact_at_breakpoints() {
        let pwl =
            PiecewiseLinear::new(NonlinearOp::Silu, PwlConfig { segments: 10, segment_range: 5.0 });
        for i in 0..=10 {
            let x = -5.0 + i as f32;
            assert!((pwl.eval(x) - silu(x)).abs() < 1e-5, "breakpoint {x}");
        }
    }

    #[test]
    fn more_segments_reduce_error() {
        let xs: Vec<f32> = (-50..=50).map(|i| i as f32 / 10.0).collect();
        let exact: Vec<f32> = xs.iter().map(|&x| gelu_erf(x)).collect();
        let coarse =
            PiecewiseLinear::new(NonlinearOp::Gelu, PwlConfig { segments: 4, segment_range: 5.0 });
        let fine =
            PiecewiseLinear::new(NonlinearOp::Gelu, PwlConfig { segments: 32, segment_range: 5.0 });
        let coarse_err = max_abs_error(&exact, &coarse.eval_slice(&xs));
        let fine_err = max_abs_error(&exact, &fine.eval_slice(&xs));
        assert!(fine_err < coarse_err);
        assert!(fine_err < 0.02);
    }

    #[test]
    fn out_of_range_behaviour() {
        let sm = PiecewiseLinear::new(
            NonlinearOp::Softmax,
            PwlConfig { segments: 22, segment_range: 20.0 },
        );
        assert_eq!(sm.eval(-100.0), 0.0);
        assert!((sm.eval(0.0) - 1.0).abs() < 1e-5);
        let silu_pwl =
            PiecewiseLinear::new(NonlinearOp::Silu, PwlConfig { segments: 22, segment_range: 8.0 });
        assert_eq!(silu_pwl.eval(50.0), 50.0);
        assert_eq!(silu_pwl.eval(-50.0), 0.0);
        assert!(sm.eval(f32::NAN).is_nan());
    }

    #[test]
    fn default_config_matches_paper_baseline() {
        let cfg = PwlConfig::default();
        assert_eq!(cfg.segments, 22);
        let pwl = PiecewiseLinear::new(NonlinearOp::Softmax, cfg);
        assert_eq!(pwl.num_segments(), 22);
        assert!(pwl.label().contains("PWL"));
        assert!(pwl.storage_bits() > 0);
    }

    #[test]
    fn softmax_through_trait_is_distribution() {
        let pwl = PiecewiseLinear::new(NonlinearOp::Softmax, PwlConfig::default());
        let probs = pwl.softmax(&[1.0, -2.0, 0.3]);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "segments must be non-zero")]
    fn zero_segments_rejected() {
        PiecewiseLinear::new(NonlinearOp::Silu, PwlConfig { segments: 0, segment_range: 1.0 });
    }
}
