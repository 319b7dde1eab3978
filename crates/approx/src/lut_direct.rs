//! Direct (non-VLP) lookup-table approximation — the `Mugi-L` baseline.
//!
//! Unlike the VLP approximation, a direct LUT quantizes the *input value*
//! uniformly over a range and looks up a pre-computed output per bin. Every
//! lane needs its own read port (or the LUT must be replicated / banked),
//! which is why the paper's Mugi-L design spends far more area on LUT storage
//! (Figure 13) even though its accuracy is similar.

use crate::Approximator;
use mugi_numerics::nonlinear::NonlinearOp;

/// Configuration of a direct LUT approximator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DirectLutConfig {
    /// Number of LUT entries.
    pub entries: usize,
    /// Lower bound of the covered input range.
    pub min_input: f32,
    /// Upper bound of the covered input range.
    pub max_input: f32,
    /// How many lanes share one LUT copy (8 in the paper, to match Mugi's
    /// throughput).
    pub lanes_per_lut: usize,
}

impl Default for DirectLutConfig {
    fn default() -> Self {
        DirectLutConfig { entries: 1024, min_input: -16.0, max_input: 16.0, lanes_per_lut: 8 }
    }
}

/// A direct lookup-table approximator.
#[derive(Clone, Debug)]
pub struct DirectLut {
    op: NonlinearOp,
    config: DirectLutConfig,
    table: Vec<f32>,
}

impl DirectLut {
    /// Builds the LUT by sampling the exact function at bin centres.
    ///
    /// # Panics
    /// Panics if `entries` is zero or the range is empty / non-finite.
    pub fn new(op: NonlinearOp, config: DirectLutConfig) -> Self {
        assert!(config.entries > 0, "entries must be non-zero");
        assert!(
            config.max_input > config.min_input
                && config.min_input.is_finite()
                && config.max_input.is_finite(),
            "invalid input range"
        );
        assert!(config.lanes_per_lut > 0, "lanes_per_lut must be non-zero");
        let table = (0..config.entries)
            .map(|i| {
                let t = (i as f32 + 0.5) / config.entries as f32;
                let x = config.min_input + t * (config.max_input - config.min_input);
                op.eval(x)
            })
            .collect();
        DirectLut { op, config, table }
    }

    /// The configuration used to build this LUT.
    pub fn config(&self) -> &DirectLutConfig {
        &self.config
    }

    /// Storage cost in bits assuming BF16 entries.
    pub fn storage_bits(&self) -> usize {
        self.table.len() * 16
    }
}

impl Approximator for DirectLut {
    fn op(&self) -> NonlinearOp {
        self.op
    }

    fn eval(&self, x: f32) -> f32 {
        if x.is_nan() {
            return f32::NAN;
        }
        if x < self.config.min_input {
            return match self.op {
                NonlinearOp::Exp | NonlinearOp::Softmax => 0.0,
                NonlinearOp::Silu | NonlinearOp::Gelu => 0.0,
            };
        }
        if x > self.config.max_input {
            return match self.op {
                NonlinearOp::Exp | NonlinearOp::Softmax => self.op.eval(self.config.max_input),
                NonlinearOp::Silu | NonlinearOp::Gelu => x,
            };
        }
        let t = (x - self.config.min_input) / (self.config.max_input - self.config.min_input);
        let idx = ((t * self.config.entries as f32) as usize).min(self.config.entries - 1);
        self.table[idx]
    }

    fn label(&self) -> String {
        format!(
            "DirectLUT({} entries, [{}, {}])",
            self.config.entries, self.config.min_input, self.config.max_input
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi_numerics::error::max_abs_error;
    use mugi_numerics::nonlinear::silu;

    #[test]
    fn lut_error_shrinks_with_entries() {
        let xs: Vec<f32> = (-80..=80).map(|i| i as f32 / 10.0).collect();
        let exact: Vec<f32> = xs.iter().map(|&x| silu(x)).collect();
        let small = DirectLut::new(
            NonlinearOp::Silu,
            DirectLutConfig { entries: 64, ..Default::default() },
        );
        let large = DirectLut::new(
            NonlinearOp::Silu,
            DirectLutConfig { entries: 4096, ..Default::default() },
        );
        let small_err = max_abs_error(&exact, &small.eval_slice(&xs));
        let large_err = max_abs_error(&exact, &large.eval_slice(&xs));
        assert!(large_err < small_err);
        assert!(large_err < 0.01);
    }

    #[test]
    fn out_of_range_behaviour() {
        let lut = DirectLut::new(
            NonlinearOp::Softmax,
            DirectLutConfig { entries: 256, min_input: -20.0, max_input: 0.0, lanes_per_lut: 8 },
        );
        assert_eq!(lut.eval(-100.0), 0.0);
        assert!((lut.eval(5.0) - 1.0).abs() < 0.05);
        let lut = DirectLut::new(NonlinearOp::Gelu, DirectLutConfig::default());
        assert_eq!(lut.eval(100.0), 100.0);
        assert!(lut.eval(f32::NAN).is_nan());
    }

    #[test]
    fn storage_grows_with_entries() {
        let small = DirectLut::new(
            NonlinearOp::Silu,
            DirectLutConfig { entries: 64, ..Default::default() },
        );
        let large = DirectLut::new(
            NonlinearOp::Silu,
            DirectLutConfig { entries: 1024, ..Default::default() },
        );
        assert_eq!(small.storage_bits(), 64 * 16);
        assert!(large.storage_bits() > small.storage_bits());
        assert!(large.label().contains("DirectLUT"));
    }

    #[test]
    #[should_panic(expected = "invalid input range")]
    fn empty_range_rejected() {
        DirectLut::new(
            NonlinearOp::Silu,
            DirectLutConfig { entries: 8, min_input: 1.0, max_input: 1.0, lanes_per_lut: 8 },
        );
    }
}
