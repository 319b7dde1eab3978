//! Exact reference implementations of the nonlinear operations the paper
//! approximates (Section 2.2.1, Equations 1–5).
//!
//! These are the "software implementation" ground truth against which every
//! hardware approximation (VLP, PWL, Taylor, partial approximation, direct
//! LUT) is compared in Figures 6 and 8.

/// Error function `erf(x)`, computed with the Abramowitz–Stegun 7.1.26
/// rational polynomial (max absolute error ≈ 1.5e-7, well below BF16
/// resolution, so it is an adequate reference for the GELU erf form).
pub fn erf(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs() as f64;
    let a1 = 0.254829592;
    let a2 = -0.284496736;
    let a3 = 1.421413741;
    let a4 = -1.453152027;
    let a5 = 1.061405429;
    let p = 0.3275911;
    let t = 1.0 / (1.0 + p * x);
    let y = 1.0 - (((((a5 * t + a4) * t) + a3) * t + a2) * t + a1) * t * (-x * x).exp();
    sign * y as f32
}

/// Logistic sigmoid `1 / (1 + e^-x)`.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// SiLU (sigmoid-weighted linear unit), Equation 2: `x / (1 + e^-x)`.
pub fn silu(x: f32) -> f32 {
    x * sigmoid(x)
}

/// GELU using the exact error-function form, Equation 3.
pub fn gelu_erf(x: f32) -> f32 {
    0.5 * x * (1.0 + erf(x / std::f32::consts::SQRT_2))
}

/// GELU using the tanh approximation with the cubic inner term (Equation 4).
pub fn gelu_tanh(x: f32) -> f32 {
    let c = (2.0 / std::f32::consts::PI).sqrt();
    0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
}

/// Natural exponential. Thin wrapper so call sites document intent.
#[inline]
pub fn exp(x: f32) -> f32 {
    x.exp()
}

/// Numerically stable softmax (Equation 1): inputs are shifted by their
/// maximum before exponentiation.
///
/// Returns a vector of the same length. An empty input returns an empty
/// vector. If all inputs are `-inf` the result is a uniform distribution,
/// matching common framework behaviour.
pub fn softmax(inputs: &[f32]) -> Vec<f32> {
    if inputs.is_empty() {
        return Vec::new();
    }
    let max = inputs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        return vec![1.0 / inputs.len() as f32; inputs.len()];
    }
    let exps: Vec<f32> = inputs.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

/// Softmax applied independently to each row of a row-major matrix.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `cols`.
pub fn softmax_rows(data: &[f32], cols: usize) -> Vec<f32> {
    assert!(cols > 0, "cols must be non-zero");
    assert_eq!(data.len() % cols, 0, "data length must be a multiple of cols");
    let mut out = Vec::with_capacity(data.len());
    for row in data.chunks(cols) {
        out.extend(softmax(row));
    }
    out
}

/// Hyperbolic tangent. Thin wrapper for symmetry with [`exp`].
#[inline]
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

/// The nonlinear operations studied in the paper (Figures 4, 6, 8, 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NonlinearOp {
    /// `exp(x)` as used inside softmax (inputs are ≤ 0 after max-subtraction).
    Exp,
    /// Row-wise softmax.
    Softmax,
    /// SiLU / swish activation (Llama FFN).
    Silu,
    /// GELU activation (Whisper / SwinV2 / ViViT FFN).
    Gelu,
}

impl NonlinearOp {
    /// Evaluates the exact element-wise function (softmax is handled at the
    /// vector level by [`softmax`]; element-wise it reduces to `exp`).
    pub fn eval(self, x: f32) -> f32 {
        match self {
            NonlinearOp::Exp | NonlinearOp::Softmax => exp(x),
            NonlinearOp::Silu => silu(x),
            NonlinearOp::Gelu => gelu_erf(x),
        }
    }

    /// Whether inputs to this op are non-positive by construction
    /// (softmax/exp after max subtraction).
    pub fn inputs_non_positive(self) -> bool {
        matches!(self, NonlinearOp::Exp | NonlinearOp::Softmax)
    }

    /// Short display label matching the paper's figure abbreviations.
    pub fn label(self) -> &'static str {
        match self {
            NonlinearOp::Exp => "EXP",
            NonlinearOp::Softmax => "SM",
            NonlinearOp::Silu => "S",
            NonlinearOp::Gelu => "G",
        }
    }
}

impl std::fmt::Display for NonlinearOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32, tol: f32) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn erf_matches_known_values() {
        assert!(close(erf(0.0), 0.0, 1e-6));
        assert!(close(erf(1.0), 0.8427008, 2e-6));
        assert!(close(erf(-1.0), -0.8427008, 2e-6));
        assert!(close(erf(2.0), 0.9953223, 2e-6));
        assert!(close(erf(10.0), 1.0, 1e-6));
    }

    #[test]
    fn sigmoid_properties() {
        assert!(close(sigmoid(0.0), 0.5, 1e-7));
        assert!(close(sigmoid(100.0), 1.0, 1e-6));
        assert!(close(sigmoid(-100.0), 0.0, 1e-6));
        // Symmetry: sigmoid(-x) = 1 - sigmoid(x).
        for x in [-3.0f32, -1.0, 0.5, 2.0, 7.7] {
            assert!(close(sigmoid(-x), 1.0 - sigmoid(x), 1e-6));
        }
    }

    #[test]
    fn silu_known_values() {
        assert!(close(silu(0.0), 0.0, 1e-7));
        assert!(close(silu(1.0), 0.7310586, 1e-6));
        assert!(close(silu(-1.0), -0.26894143, 1e-6));
        // For large x SiLU approaches identity; for very negative x it approaches 0.
        assert!(close(silu(20.0), 20.0, 1e-3));
        assert!(close(silu(-20.0), 0.0, 1e-3));
    }

    #[test]
    fn gelu_forms_agree_near_zero() {
        for x in [-3.0f32, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0] {
            let exact = gelu_erf(x);
            assert!(close(gelu_tanh(x), exact, 5e-3), "tanh form at {x}");
        }
        assert!(close(gelu_erf(0.0), 0.0, 1e-7));
        assert!(close(gelu_erf(1.0), 0.8413447, 1e-5));
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let probs = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = probs.iter().sum();
        assert!(close(sum, 1.0, 1e-6));
        assert!(probs[2] > probs[1] && probs[1] > probs[0]);
        // Large inputs must not overflow thanks to max subtraction.
        let probs = softmax(&[1000.0, 1000.0]);
        assert!(close(probs[0], 0.5, 1e-6));
        // Shift invariance (tolerance accounts for f32 rounding of the
        // shifted inputs themselves).
        let a = softmax(&[0.1, 0.2, 0.3]);
        let b = softmax(&[100.1, 100.2, 100.3]);
        for (x, y) in a.iter().zip(&b) {
            assert!(close(*x, *y, 1e-4));
        }
    }

    #[test]
    fn softmax_edge_cases() {
        assert!(softmax(&[]).is_empty());
        let uniform = softmax(&[f32::NEG_INFINITY, f32::NEG_INFINITY]);
        assert!(close(uniform[0], 0.5, 1e-6));
        let single = softmax(&[42.0]);
        assert!(close(single[0], 1.0, 1e-6));
    }

    #[test]
    fn softmax_rows_is_per_row() {
        let out = softmax_rows(&[1.0, 1.0, 0.0, 10.0], 2);
        assert!(close(out[0], 0.5, 1e-6));
        assert!(close(out[1], 0.5, 1e-6));
        assert!(out[3] > 0.999);
    }

    #[test]
    #[should_panic(expected = "multiple of cols")]
    fn softmax_rows_rejects_ragged_input() {
        softmax_rows(&[1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn nonlinear_op_dispatch() {
        assert!(close(NonlinearOp::Silu.eval(1.0), silu(1.0), 1e-7));
        assert!(close(NonlinearOp::Gelu.eval(1.0), gelu_erf(1.0), 1e-7));
        assert!(close(NonlinearOp::Exp.eval(1.0), 1f32.exp(), 1e-7));
        assert!(NonlinearOp::Softmax.inputs_non_positive());
        assert!(!NonlinearOp::Gelu.inputs_non_positive());
        assert_eq!(NonlinearOp::Softmax.label(), "SM");
    }
}
