//! VLP nonlinear approximation (Section 3 of the paper).
//!
//! The key idea is *input approximation with value-centric accuracy*:
//!
//! 1. **Input field split** — a BF16 input is split into sign, mantissa and
//!    exponent; the mantissa is rounded to a small number of bits (3 by
//!    default) so that its temporal spike fits in an 8-cycle sweep.
//! 2. **Value reuse** — a LUT stores, for every (sign, rounded mantissa) pair,
//!    a *row* of pre-computed outputs covering a window of exponents. Rows are
//!    streamed out one per cycle and shared by every lane in the array.
//! 3. **Mantissa temporal subscription** — each lane latches the LUT row whose
//!    index matches its own rounded mantissa, at the cycle encoded by that
//!    mantissa.
//! 4. **Exponent temporal subscription** — a second spike (the exponent)
//!    selects the final element out of the latched row.
//!
//! Accuracy is *value-centric* because the LUT window only covers the
//! exponents where inputs actually cluster (Figure 4); a sliding window picks
//! the most useful sub-range per mapping.

use crate::temporal::sweep_cycles;
use mugi_numerics::fields::{FloatFields, Special};
use mugi_numerics::nonlinear::NonlinearOp;
use serde::{Deserialize, Serialize};

/// How the sliding window places itself inside the full LUT window for each
/// mapping (a batch of inputs processed together).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WindowStrategy {
    /// Anchor the top of the window at the maximum observed exponent
    /// (the E-proc "Max" mode; natural for softmax where what matters most is
    /// the largest magnitudes).
    AnchorMax,
    /// Anchor the bottom of the window at the minimum observed exponent.
    AnchorMin,
    /// Use a fixed window starting at the given exponent regardless of the
    /// inputs (used for ablation and for per-layer tuned configurations).
    Fixed(i32),
}

/// Configuration of the VLP nonlinear approximation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct VlpApproxConfig {
    /// Mantissa bits kept by input approximation (Section 3.2). 3 in the paper.
    pub mantissa_bits: u8,
    /// Lowest exponent stored in the full LUT window.
    pub lut_min_exp: i32,
    /// Highest exponent stored in the full LUT window.
    pub lut_max_exp: i32,
    /// Sliding-window size in exponents; fixed to the array width (8) in the
    /// paper so one LUT row fills one row of the array.
    pub window_size: usize,
    /// Sliding-window placement strategy.
    pub strategy: WindowStrategy,
}

impl VlpApproxConfig {
    /// A reasonable default window per nonlinear op, following the profiling
    /// insight of Figure 4 (softmax exponents cluster in roughly [-3, 4];
    /// SiLU/GELU inputs cluster around 0 so their exponents sit lower).
    pub fn recommended_for(op: NonlinearOp) -> Self {
        match op {
            NonlinearOp::Exp | NonlinearOp::Softmax => VlpApproxConfig {
                mantissa_bits: 3,
                lut_min_exp: -6,
                lut_max_exp: 5,
                window_size: 8,
                strategy: WindowStrategy::AnchorMax,
            },
            NonlinearOp::Silu | NonlinearOp::Gelu => VlpApproxConfig {
                mantissa_bits: 3,
                lut_min_exp: -5,
                lut_max_exp: 4,
                window_size: 8,
                strategy: WindowStrategy::AnchorMax,
            },
        }
    }

    /// Number of exponents stored in the full LUT window.
    pub fn lut_exponents(&self) -> usize {
        (self.lut_max_exp - self.lut_min_exp + 1).max(0) as usize
    }

    /// Validates invariants; returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=7).contains(&self.mantissa_bits) {
            return Err(format!("mantissa_bits must be in 1..=7, got {}", self.mantissa_bits));
        }
        if self.lut_min_exp > self.lut_max_exp {
            return Err(format!(
                "lut_min_exp {} must not exceed lut_max_exp {}",
                self.lut_min_exp, self.lut_max_exp
            ));
        }
        if self.window_size == 0 {
            return Err("window_size must be non-zero".to_string());
        }
        if self.window_size > self.lut_exponents() {
            return Err(format!(
                "window_size {} exceeds stored LUT exponents {}",
                self.window_size,
                self.lut_exponents()
            ));
        }
        Ok(())
    }
}

impl Default for VlpApproxConfig {
    fn default() -> Self {
        VlpApproxConfig::recommended_for(NonlinearOp::Softmax)
    }
}

/// The pre-computed LUT: one row per (sign, mantissa) pair, one column per
/// exponent in the full window.
#[derive(Clone, Debug)]
pub struct NonlinearLut {
    op: NonlinearOp,
    config: VlpApproxConfig,
    /// Row-major storage: `rows[sign][mantissa][exp_index]`.
    rows: Vec<Vec<f32>>,
    signs: usize,
}

impl NonlinearLut {
    /// Builds the LUT for `op` under `config`.
    ///
    /// The LUT doubles in size when the op takes both positive and negative
    /// inputs (Section 4.1): softmax/exp inputs are always non-positive after
    /// max subtraction, so only the negative half is stored for them.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn build(op: NonlinearOp, config: VlpApproxConfig) -> Self {
        config.validate().expect("invalid VLP approximation config");
        let signs = if op.inputs_non_positive() { 1 } else { 2 };
        let mantissas = 1usize << config.mantissa_bits;
        let exps = config.lut_exponents();
        let mut rows = Vec::with_capacity(signs * mantissas);
        for sign_idx in 0..signs {
            // For the single-sign (non-positive) case the stored sign is negative.
            let sign = if signs == 1 { true } else { sign_idx == 1 };
            for m in 0..mantissas {
                let mut row = Vec::with_capacity(exps);
                for e in config.lut_min_exp..=config.lut_max_exp {
                    let frac = 1.0 + m as f32 / mantissas as f32;
                    let magnitude = frac * 2f32.powi(e);
                    let x = if sign { -magnitude } else { magnitude };
                    row.push(op.eval(x));
                }
                rows.push(row);
            }
        }
        NonlinearLut { op, config, rows, signs }
    }

    /// The nonlinear op this LUT approximates.
    pub fn op(&self) -> NonlinearOp {
        self.op
    }

    /// The configuration used to build the LUT.
    pub fn config(&self) -> &VlpApproxConfig {
        &self.config
    }

    /// Number of LUT rows (signs × mantissas).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of stored entries (rows × exponents).
    pub fn num_entries(&self) -> usize {
        self.rows.len() * self.config.lut_exponents()
    }

    /// Size in bits assuming BF16 entries, used by the cost model.
    pub fn size_bits(&self) -> usize {
        self.num_entries() * 16
    }

    /// Looks up the row for a (sign, mantissa) pair.
    ///
    /// # Panics
    /// Panics if the mantissa is out of range for the configured width.
    pub fn row(&self, sign: bool, mantissa: u8) -> &[f32] {
        let mantissas = 1usize << self.config.mantissa_bits;
        assert!((mantissa as usize) < mantissas, "mantissa {mantissa} out of range");
        let sign_idx = if self.signs == 1 { 0 } else { usize::from(sign) };
        &self.rows[sign_idx * mantissas + mantissa as usize]
    }

    /// Looks up a single entry by (sign, mantissa, exponent); the exponent is
    /// clamped into the stored window. Returns `None` if the exponent is
    /// outside the stored window (callers decide how to saturate).
    pub fn entry(&self, sign: bool, mantissa: u8, exponent: i32) -> Option<f32> {
        if exponent < self.config.lut_min_exp || exponent > self.config.lut_max_exp {
            return None;
        }
        let idx = (exponent - self.config.lut_min_exp) as usize;
        Some(self.row(sign, mantissa)[idx])
    }
}

/// The sliding window chosen for one mapping: a contiguous range of exponents
/// of length `window_size` within the full LUT window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlidingWindow {
    /// Lowest exponent covered by the window.
    pub lo: i32,
    /// Highest exponent covered by the window (inclusive).
    pub hi: i32,
}

impl SlidingWindow {
    /// Width in exponents.
    pub fn len(&self) -> usize {
        (self.hi - self.lo + 1).max(0) as usize
    }

    /// Whether the window is empty (never true for valid configurations).
    pub fn is_empty(&self) -> bool {
        self.hi < self.lo
    }

    /// Whether `exponent` falls inside the window.
    pub fn contains(&self, exponent: i32) -> bool {
        exponent >= self.lo && exponent <= self.hi
    }
}

/// Selects the sliding window for a set of inputs following the configured
/// strategy, clamping so the window stays inside the full LUT range.
pub fn select_window(config: &VlpApproxConfig, exponents: &[i32]) -> SlidingWindow {
    let size = config.window_size as i32;
    let full_lo = config.lut_min_exp;
    let full_hi = config.lut_max_exp;
    let clamp_lo = |lo: i32| -> SlidingWindow {
        let lo = lo.clamp(full_lo, (full_hi - size + 1).max(full_lo));
        SlidingWindow { lo, hi: (lo + size - 1).min(full_hi) }
    };
    match config.strategy {
        WindowStrategy::Fixed(lo) => clamp_lo(lo),
        WindowStrategy::AnchorMax => {
            let max = exponents.iter().copied().max().unwrap_or(full_hi);
            clamp_lo(max.min(full_hi) - size + 1)
        }
        WindowStrategy::AnchorMin => {
            let min = exponents.iter().copied().min().unwrap_or(full_lo);
            clamp_lo(min.max(full_lo))
        }
    }
}

/// Per-call statistics of a VLP approximation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ApproxStats {
    /// Number of elements approximated.
    pub elements: usize,
    /// Total latency in cycles for one mapping (mantissa sweep + exponent
    /// subscription), i.e. the pipeline fill latency.
    pub latency_cycles: u64,
    /// Steady-state cycles per mapping of `rows` elements (the mantissa sweep
    /// length, since mappings are pipelined back to back — Figure 10).
    pub cycles_per_mapping: u64,
    /// Number of mappings (groups of up to `array_rows` elements).
    pub mappings: u64,
    /// Elements whose exponent underflowed the sliding window.
    pub underflows: usize,
    /// Elements whose exponent overflowed the sliding window.
    pub overflows: usize,
    /// Elements that hit IEEE specials (NaN / infinity) and were handled by
    /// the post-processing block.
    pub specials: usize,
}

/// The VLP nonlinear approximation engine.
///
/// One engine owns the pre-computed LUT for a single nonlinear op and applies
/// it to arbitrary input slices, reporting both the approximated values and
/// the cycle statistics of the mapping.
#[derive(Clone, Debug)]
pub struct VlpNonlinear {
    lut: NonlinearLut,
    /// Number of array rows available for mapping inputs in parallel. Only
    /// affects the statistics, not the functional result.
    array_rows: usize,
}

impl VlpNonlinear {
    /// Builds the engine (and its LUT) for `op` under `config`, assuming a
    /// 256-row array (the paper's largest single-node Mugi configuration).
    pub fn new(op: NonlinearOp, config: VlpApproxConfig) -> Self {
        Self::with_array_rows(op, config, 256)
    }

    /// Builds the engine with an explicit number of array rows.
    ///
    /// # Panics
    /// Panics if `array_rows` is zero or the configuration is invalid.
    pub fn with_array_rows(op: NonlinearOp, config: VlpApproxConfig, array_rows: usize) -> Self {
        assert!(array_rows > 0, "array_rows must be non-zero");
        VlpNonlinear { lut: NonlinearLut::build(op, config), array_rows }
    }

    /// The nonlinear op this engine approximates.
    pub fn op(&self) -> NonlinearOp {
        self.lut.op()
    }

    /// The underlying LUT.
    pub fn lut(&self) -> &NonlinearLut {
        &self.lut
    }

    /// The configuration in use.
    pub fn config(&self) -> &VlpApproxConfig {
        self.lut.config()
    }

    /// Approximates `op(x)` element-wise for every input, returning the
    /// outputs and the mapping statistics.
    ///
    /// Inputs are processed in mappings of `array_rows` elements; each mapping
    /// selects its own sliding window (value-centric adaptation).
    pub fn apply(&self, inputs: &[f32]) -> (Vec<f32>, ApproxStats) {
        let config = *self.lut.config();
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut stats = ApproxStats { elements: inputs.len(), ..ApproxStats::default() };
        let mantissa_sweep = sweep_cycles(config.mantissa_bits as u32);
        let exponent_sweep = config.window_size as u64;
        let rows = self.array_rows.min(inputs.len());
        let mut fields = Vec::with_capacity(rows);
        let mut exponents = Vec::with_capacity(rows);
        for mapping in inputs.chunks(self.array_rows) {
            fields.clear();
            fields.extend(mapping.iter().map(|&x| FloatFields::split_f32(x, config.mantissa_bits)));
            exponents.clear();
            exponents.extend(
                fields.iter().filter(|f| !f.is_zero && f.special.is_none()).map(|f| f.exponent),
            );
            let window = select_window(&config, &exponents);
            for f in &fields {
                outputs.push(self.approximate_one(f, &window, &mut stats));
            }
            stats.mappings += 1;
        }
        // Latency: the mantissa spike sweep followed by the exponent spike
        // sweep (Section 3.1: "the full VLP approximation requires the total
        // duration of both mantissa and exponent temporal spike timing").
        stats.latency_cycles = mantissa_sweep + exponent_sweep;
        stats.cycles_per_mapping = mantissa_sweep;
        (outputs, stats)
    }

    /// Approximates a single pre-split input against a chosen window.
    fn approximate_one(
        &self,
        fields: &FloatFields,
        window: &SlidingWindow,
        stats: &mut ApproxStats,
    ) -> f32 {
        let op = self.lut.op();
        // Post-processing special paths (Section 4, PP block).
        if let Some(special) = fields.special {
            stats.specials += 1;
            return match (special, op) {
                (Special::Nan, _) => f32::NAN,
                (Special::Infinity, NonlinearOp::Exp | NonlinearOp::Softmax) => {
                    if fields.sign {
                        0.0
                    } else {
                        f32::INFINITY
                    }
                }
                (Special::Infinity, NonlinearOp::Silu | NonlinearOp::Gelu) => {
                    if fields.sign {
                        0.0
                    } else {
                        f32::INFINITY
                    }
                }
            };
        }
        if fields.is_zero {
            return op.eval(0.0);
        }
        let saturate_high = matches!(op, NonlinearOp::Exp | NonlinearOp::Softmax);
        let clamped = fields.clamp_exponent(window.lo, window.hi, saturate_high);
        if clamped.underflowed {
            stats.underflows += 1;
            // Exponent underflow: the magnitude is below everything the window
            // stores. The E-proc "underflows to 0" (Section 4 phase 1) — the
            // input is treated as zero, so exp/softmax emit 1 and SiLU/GELU
            // emit 0, which is also the numerically correct limit.
            return op.eval(0.0);
        }
        if clamped.overflowed {
            stats.overflows += 1;
            return match op {
                // Softmax overflow saturates to the largest stored value.
                NonlinearOp::Exp | NonlinearOp::Softmax => self
                    .lut
                    .entry(fields.sign, fields.mantissa, window.hi)
                    .unwrap_or_else(|| op.eval(fields.reconstruct())),
                // SiLU/GELU pass large magnitudes through: SiLU(x)→x for
                // x ≫ 0 and →0 for x ≪ 0 (the PP block reproduces the tails).
                NonlinearOp::Silu | NonlinearOp::Gelu => {
                    let x = fields.reconstruct();
                    if fields.sign {
                        0.0
                    } else {
                        x
                    }
                }
            };
        }
        self.lut
            .entry(fields.sign, fields.mantissa, clamped.exponent)
            .unwrap_or_else(|| op.eval(fields.reconstruct()))
    }

    /// Full softmax pipeline (Section 4.1): max subtraction, VLP exp
    /// approximation, accumulation of the exponentials in the output
    /// accumulator and a final reciprocal multiply in the vector array.
    ///
    /// Returns the probabilities and the statistics of the exp approximation
    /// (the division adds `rows` extra vector-array cycles, reported in the
    /// architecture model, not here).
    pub fn softmax(&self, logits: &[f32]) -> (Vec<f32>, ApproxStats) {
        assert!(
            matches!(self.op(), NonlinearOp::Softmax | NonlinearOp::Exp),
            "softmax pipeline requires an exp/softmax engine"
        );
        if logits.is_empty() {
            return (Vec::new(), ApproxStats::default());
        }
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let shifted: Vec<f32> = logits.iter().map(|&x| x - max).collect();
        let (exps, stats) = self.apply(&shifted);
        let sum: f32 = exps.iter().sum();
        if sum <= 0.0 || !sum.is_finite() {
            let uniform = 1.0 / logits.len() as f32;
            return (vec![uniform; logits.len()], stats);
        }
        let inv = 1.0 / sum;
        (exps.iter().map(|&e| e * inv).collect(), stats)
    }

    /// Row-wise softmax over a row-major matrix of `cols` columns.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `cols`.
    pub fn softmax_rows(&self, data: &[f32], cols: usize) -> (Vec<f32>, ApproxStats) {
        assert!(cols > 0, "cols must be non-zero");
        assert_eq!(data.len() % cols, 0, "data length must be a multiple of cols");
        let mut out = Vec::with_capacity(data.len());
        let mut total = ApproxStats::default();
        for row in data.chunks(cols) {
            let (probs, stats) = self.softmax(row);
            out.extend(probs);
            total.elements += stats.elements;
            total.mappings += stats.mappings;
            total.underflows += stats.underflows;
            total.overflows += stats.overflows;
            total.specials += stats.specials;
            total.latency_cycles = stats.latency_cycles;
            total.cycles_per_mapping = stats.cycles_per_mapping;
        }
        (out, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi_numerics::error::{max_abs_error, mean_relative_error};
    use mugi_numerics::nonlinear::{gelu_erf, silu, softmax};

    #[test]
    fn lut_stores_expected_entries() {
        let cfg = VlpApproxConfig::recommended_for(NonlinearOp::Softmax);
        let lut = NonlinearLut::build(NonlinearOp::Softmax, cfg);
        // Softmax inputs are non-positive: single sign, 8 mantissas.
        assert_eq!(lut.num_rows(), 8);
        assert_eq!(lut.num_entries(), 8 * cfg.lut_exponents());
        // Entry (m=0, e=0) is exp(-1.0).
        let e = lut.entry(true, 0, 0).unwrap();
        assert!((e - (-1.0f32).exp()).abs() < 1e-6);
        // SiLU takes both signs: double the rows.
        let cfg = VlpApproxConfig::recommended_for(NonlinearOp::Silu);
        let lut = NonlinearLut::build(NonlinearOp::Silu, cfg);
        assert_eq!(lut.num_rows(), 16);
    }

    #[test]
    fn window_selection_strategies() {
        let cfg = VlpApproxConfig {
            mantissa_bits: 3,
            lut_min_exp: -6,
            lut_max_exp: 5,
            window_size: 8,
            strategy: WindowStrategy::AnchorMax,
        };
        let w = select_window(&cfg, &[-4, -1, 3]);
        assert_eq!(w.hi, 3);
        assert_eq!(w.lo, -4);
        assert_eq!(w.len(), 8);
        let cfg_min = VlpApproxConfig { strategy: WindowStrategy::AnchorMin, ..cfg };
        let w = select_window(&cfg_min, &[-4, -1, 3]);
        assert_eq!(w.lo, -4);
        let cfg_fixed = VlpApproxConfig { strategy: WindowStrategy::Fixed(-3), ..cfg };
        let w = select_window(&cfg_fixed, &[]);
        assert_eq!(w.lo, -3);
        assert_eq!(w.hi, 4);
        // Windows never leave the stored LUT range.
        let w = select_window(&cfg, &[40]);
        assert!(w.hi <= cfg.lut_max_exp);
    }

    #[test]
    fn exp_approximation_is_accurate_in_window() {
        let engine =
            VlpNonlinear::new(NonlinearOp::Exp, VlpApproxConfig::recommended_for(NonlinearOp::Exp));
        // Typical softmax inputs after max subtraction: [-8, 0].
        let inputs: Vec<f32> = (0..200).map(|i| -8.0 * i as f32 / 200.0).collect();
        let (approx, stats) = engine.apply(&inputs);
        let exact: Vec<f32> = inputs.iter().map(|&x| x.exp()).collect();
        // 3-bit mantissa rounding gives ~3% input error; exp amplifies it by
        // |x| so allow a generous but still tight bound on mean relative error.
        assert!(mean_relative_error(&exact, &approx) < 0.20);
        assert_eq!(stats.elements, 200);
        assert!(stats.latency_cycles >= 16);
    }

    #[test]
    fn silu_and_gelu_accuracy_near_zero() {
        for op in [NonlinearOp::Silu, NonlinearOp::Gelu] {
            let engine = VlpNonlinear::new(op, VlpApproxConfig::recommended_for(op));
            let inputs: Vec<f32> = (-40..=40).map(|i| i as f32 / 10.0).collect();
            let (approx, _) = engine.apply(&inputs);
            let exact: Vec<f32> = inputs
                .iter()
                .map(|&x| if op == NonlinearOp::Silu { silu(x) } else { gelu_erf(x) })
                .collect();
            assert!(max_abs_error(&exact, &approx) < 0.35, "op {op:?} error too large");
        }
    }

    #[test]
    fn softmax_pipeline_produces_distribution_close_to_exact() {
        let engine = VlpNonlinear::new(
            NonlinearOp::Softmax,
            VlpApproxConfig::recommended_for(NonlinearOp::Softmax),
        );
        let logits = vec![0.3, -1.2, 2.5, 0.0, -0.7, 1.1];
        let (probs, _) = engine.softmax(&logits);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        let exact = softmax(&logits);
        assert!(max_abs_error(&exact, &probs) < 0.05);
        // The argmax is preserved.
        let argmax = |v: &[f32]| {
            v.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0
        };
        assert_eq!(argmax(&probs), argmax(&exact));
    }

    #[test]
    fn specials_are_handled_by_post_processing() {
        let engine = VlpNonlinear::new(
            NonlinearOp::Silu,
            VlpApproxConfig::recommended_for(NonlinearOp::Silu),
        );
        let (out, stats) = engine.apply(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0]);
        assert!(out[0].is_nan());
        assert_eq!(out[1], f32::INFINITY);
        assert_eq!(out[2], 0.0);
        assert_eq!(out[3], 0.0);
        assert_eq!(stats.specials, 3);
    }

    #[test]
    fn overflow_passthrough_for_activations() {
        // Large positive inputs to SiLU pass through as identity-ish.
        let engine = VlpNonlinear::new(
            NonlinearOp::Silu,
            VlpApproxConfig::recommended_for(NonlinearOp::Silu),
        );
        let (out, stats) = engine.apply(&[100.0, -100.0]);
        assert!((out[0] - 100.0).abs() / 100.0 < 0.05);
        assert_eq!(out[1], 0.0);
        assert_eq!(stats.overflows, 2);
    }

    #[test]
    fn softmax_rows_matches_per_row_pipeline() {
        let engine = VlpNonlinear::new(
            NonlinearOp::Softmax,
            VlpApproxConfig::recommended_for(NonlinearOp::Softmax),
        );
        let data = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        let (rows, stats) = engine.softmax_rows(&data, 3);
        let (first, _) = engine.softmax(&data[..3]);
        assert_eq!(&rows[..3], first.as_slice());
        assert_eq!(stats.elements, 6);
    }

    #[test]
    fn stats_count_mappings_by_array_rows() {
        let engine = VlpNonlinear::with_array_rows(
            NonlinearOp::Exp,
            VlpApproxConfig::recommended_for(NonlinearOp::Exp),
            32,
        );
        let inputs = vec![-0.5f32; 100];
        let (_, stats) = engine.apply(&inputs);
        assert_eq!(stats.mappings, 4); // ceil(100 / 32)
    }

    #[test]
    fn mappings_are_independent_of_earlier_mappings() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // `a` fills one mapping with large exponents; `b` holds small ones,
        // zeros and specials, so a window leaking from `a` would change `b`.
        let a = [12.0f32, -9.5, 7.25, -15.0];
        let b = [0.03f32, -0.02, 0.0, f32::NAN, 0.045, f32::INFINITY, -0.0, f32::NEG_INFINITY];
        let ab: Vec<f32> = a.iter().chain(&b).copied().collect();
        for op in [NonlinearOp::Silu, NonlinearOp::Gelu] {
            for strategy in [WindowStrategy::AnchorMax, WindowStrategy::AnchorMin] {
                let config = VlpApproxConfig { strategy, ..VlpApproxConfig::recommended_for(op) };
                let engine = VlpNonlinear::with_array_rows(op, config, a.len());
                let (whole, stats) = engine.apply(&ab);
                let (head, head_stats) = engine.apply(&a);
                let (tail, tail_stats) = engine.apply(&b);
                let split: Vec<f32> = head.iter().chain(&tail).copied().collect();
                assert_eq!(bits(&whole), bits(&split), "{op:?} {strategy:?}");
                assert_eq!(stats.mappings, head_stats.mappings + tail_stats.mappings);
                assert_eq!(stats.underflows, head_stats.underflows + tail_stats.underflows);
                assert_eq!(stats.overflows, head_stats.overflows + tail_stats.overflows);
                assert_eq!(stats.specials, 3);
                if strategy == WindowStrategy::AnchorMax {
                    // Sharing one mapping with `a` does change `b`'s outputs.
                    let wide = VlpNonlinear::with_array_rows(op, config, ab.len());
                    let (shared, _) = wide.apply(&ab);
                    assert_ne!(bits(&shared[a.len()..]), bits(&tail), "{op:?}");
                }
            }
        }
    }

    #[test]
    fn config_validation_errors() {
        let invalid = [
            VlpApproxConfig { window_size: 50, ..VlpApproxConfig::default() },
            VlpApproxConfig { mantissa_bits: 0, ..VlpApproxConfig::default() },
            VlpApproxConfig { lut_min_exp: 10, lut_max_exp: 0, ..VlpApproxConfig::default() },
        ];
        for cfg in invalid {
            assert!(cfg.validate().is_err(), "{cfg:?}");
        }
        assert!(VlpApproxConfig::default().validate().is_ok());
    }

    #[test]
    fn lut_size_scales_with_window_and_mantissa() {
        let small = NonlinearLut::build(
            NonlinearOp::Softmax,
            VlpApproxConfig {
                mantissa_bits: 2,
                lut_min_exp: -3,
                lut_max_exp: 4,
                window_size: 8,
                strategy: WindowStrategy::AnchorMax,
            },
        );
        let large = NonlinearLut::build(
            NonlinearOp::Softmax,
            VlpApproxConfig {
                mantissa_bits: 4,
                lut_min_exp: -6,
                lut_max_exp: 5,
                window_size: 8,
                strategy: WindowStrategy::AnchorMax,
            },
        );
        assert!(large.size_bits() > small.size_bits());
    }
}
