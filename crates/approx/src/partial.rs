//! Partial approximation (PA) of SiLU / GELU.
//!
//! The MobileNetV3-style "hard" approximation the paper cites as PA in
//! Figure 8: the sigmoid inside SiLU is replaced with the piecewise-linear
//! "hard sigmoid" `clamp((x + 3) / 6, 0, 1)`, which is exact in the saturated
//! tails and a single multiply-add in the middle. GELU is handled with the
//! analogous hard-tanh form.

use crate::Approximator;
use mugi_numerics::nonlinear::NonlinearOp;

/// The partial (hard) approximation of SiLU / GELU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartialApprox {
    op: NonlinearOp,
}

impl PartialApprox {
    /// Creates the approximator.
    ///
    /// # Panics
    /// Panics if the op is not SiLU or GELU — the paper only evaluates PA on
    /// activations.
    pub fn new(op: NonlinearOp) -> Self {
        assert!(
            matches!(op, NonlinearOp::Silu | NonlinearOp::Gelu),
            "partial approximation is only defined for SiLU/GELU"
        );
        PartialApprox { op }
    }

    fn hard_sigmoid(x: f32) -> f32 {
        ((x + 3.0) / 6.0).clamp(0.0, 1.0)
    }
}

impl Approximator for PartialApprox {
    fn op(&self) -> NonlinearOp {
        self.op
    }

    fn eval(&self, x: f32) -> f32 {
        if x.is_nan() {
            return f32::NAN;
        }
        match self.op {
            NonlinearOp::Silu => x * Self::hard_sigmoid(x),
            NonlinearOp::Gelu => {
                // Hard GELU: x * clamp(0.5 + 0.25 * 1.702 * x, 0, 1) uses the
                // sigmoid-GELU identity GELU(x) ≈ x * sigmoid(1.702 x).
                x * ((0.5 + 0.4255 * x).clamp(0.0, 1.0))
            }
            _ => unreachable!("constructor rejects other ops"),
        }
    }

    fn label(&self) -> String {
        format!("PA({})", self.op.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi_numerics::nonlinear::{gelu_erf, silu};

    #[test]
    fn exact_in_saturated_tails() {
        let pa = PartialApprox::new(NonlinearOp::Silu);
        assert_eq!(pa.eval(10.0), 10.0);
        assert_eq!(pa.eval(-10.0), 0.0);
        assert_eq!(pa.eval(0.0), 0.0);
    }

    #[test]
    fn bounded_error_in_transition_region() {
        let pa = PartialApprox::new(NonlinearOp::Silu);
        for i in -30..=30 {
            let x = i as f32 / 10.0;
            let err = (pa.eval(x) - silu(x)).abs();
            assert!(err < 0.3, "x={x} err={err}");
        }
        let pa = PartialApprox::new(NonlinearOp::Gelu);
        for i in -30..=30 {
            let x = i as f32 / 10.0;
            let err = (pa.eval(x) - gelu_erf(x)).abs();
            assert!(err < 0.3, "x={x} err={err}");
        }
    }

    #[test]
    fn metadata() {
        let pa = PartialApprox::new(NonlinearOp::Gelu);
        assert!(pa.label().contains("PA"));
        assert!(pa.eval(f32::NAN).is_nan());
    }

    #[test]
    #[should_panic(expected = "only defined for SiLU/GELU")]
    fn softmax_rejected() {
        PartialApprox::new(NonlinearOp::Softmax);
    }
}
