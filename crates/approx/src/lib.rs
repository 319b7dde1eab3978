//! # mugi-approx
//!
//! Baseline hardware approximations of the nonlinear operations, used in the
//! paper's accuracy (Figures 6–8) and architecture (Figures 11, 13, 15, 16)
//! comparisons:
//!
//! * [`pwl`] — piecewise-linear approximation (MobileNetV3 / C-LSTM style):
//!   the curve is split into segments over a configured range and each input
//!   is evaluated on its segment's line.
//! * [`taylor`] — Taylor-series approximation evaluated with Horner's rule,
//!   with a configurable degree and expansion centre.
//! * [`partial`] — partial approximation (PA) of SiLU/GELU: exact behaviour in
//!   the saturating tails plus a cheap approximation in the middle.
//! * [`lut_direct`] — a direct (non-VLP) lookup table, the `Mugi-L` baseline.
//!
//! All approximators implement the common [`Approximator`] trait so the
//! accuracy sweeps in `mugi` can treat them uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lut_direct;
pub mod partial;
pub mod pwl;
pub mod taylor;

use mugi_numerics::nonlinear::NonlinearOp;

/// A hardware nonlinear approximator: maps inputs to approximate outputs.
pub trait Approximator {
    /// The operation being approximated.
    fn op(&self) -> NonlinearOp;

    /// Approximates the op for a single input.
    fn eval(&self, x: f32) -> f32;

    /// Approximates the op element-wise for a slice.
    fn eval_slice(&self, xs: &[f32]) -> Vec<f32> {
        xs.iter().map(|&x| self.eval(x)).collect()
    }

    /// A short human-readable label for reports.
    fn label(&self) -> String;

    /// Approximate softmax built on this element-wise approximator: exact max
    /// subtraction and normalisation, approximate `exp`.
    ///
    /// Only meaningful when [`Approximator::op`] is `Exp`/`Softmax`.
    fn softmax(&self, logits: &[f32]) -> Vec<f32> {
        if logits.is_empty() {
            return Vec::new();
        }
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|&x| self.eval(x - max)).collect();
        let sum: f32 = exps.iter().sum();
        if sum <= 0.0 || !sum.is_finite() {
            return vec![1.0 / logits.len() as f32; logits.len()];
        }
        exps.iter().map(|&e| e / sum).collect()
    }
}

pub use lut_direct::DirectLut;
pub use partial::PartialApprox;
pub use pwl::PiecewiseLinear;
pub use taylor::TaylorSeries;
