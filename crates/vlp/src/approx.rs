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

use mugi_numerics::fields::{FloatFields, Special};
use mugi_numerics::nonlinear::NonlinearOp;
use std::fmt;

/// How the sliding window places itself inside the full LUT window for each
/// mapping (a batch of inputs processed together).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
#[derive(Clone, Copy, Debug, PartialEq)]
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

    /// Validates invariants; returns the first one violated.
    pub fn validate(&self) -> Result<(), VlpConfigError> {
        if !(1..=7).contains(&self.mantissa_bits) {
            return Err(VlpConfigError::MantissaBits(self.mantissa_bits));
        }
        if self.lut_min_exp > self.lut_max_exp {
            return Err(VlpConfigError::InvertedLut {
                lut_min_exp: self.lut_min_exp,
                lut_max_exp: self.lut_max_exp,
            });
        }
        if self.window_size == 0 {
            return Err(VlpConfigError::ZeroWindow);
        }
        if self.window_size > self.lut_exponents() {
            return Err(VlpConfigError::WindowTooWide {
                window_size: self.window_size,
                lut_exponents: self.lut_exponents(),
            });
        }
        Ok(())
    }
}

/// Why a [`VlpApproxConfig`] is invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VlpConfigError {
    /// `mantissa_bits` is outside `1..=7`.
    MantissaBits(u8),
    /// The LUT window's lowest exponent exceeds its highest.
    InvertedLut {
        /// Lowest stored exponent.
        lut_min_exp: i32,
        /// Highest stored exponent.
        lut_max_exp: i32,
    },
    /// `window_size` is zero.
    ZeroWindow,
    /// The sliding window is wider than the stored LUT window.
    WindowTooWide {
        /// Sliding-window size in exponents.
        window_size: usize,
        /// Exponents stored in the full LUT window.
        lut_exponents: usize,
    },
}

impl fmt::Display for VlpConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VlpConfigError::MantissaBits(bits) => {
                write!(f, "mantissa_bits must be in 1..=7, got {bits}")
            }
            VlpConfigError::InvertedLut { lut_min_exp, lut_max_exp } => {
                write!(f, "lut_min_exp {lut_min_exp} must not exceed lut_max_exp {lut_max_exp}")
            }
            VlpConfigError::ZeroWindow => write!(f, "window_size must be non-zero"),
            VlpConfigError::WindowTooWide { window_size, lut_exponents } => {
                write!(f, "window_size {window_size} exceeds stored LUT exponents {lut_exponents}")
            }
        }
    }
}

impl std::error::Error for VlpConfigError {}

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
    /// Flat row-major storage: row `sign * mantissas + mantissa`, one column
    /// per exponent from `lut_min_exp` up.
    entries: Vec<f32>,
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
        let mut entries = Vec::with_capacity(signs * mantissas * config.lut_exponents());
        for sign_idx in 0..signs {
            // For the single-sign (non-positive) case the stored sign is negative.
            let sign = if signs == 1 { true } else { sign_idx == 1 };
            for m in 0..mantissas {
                for e in config.lut_min_exp..=config.lut_max_exp {
                    let frac = 1.0 + m as f32 / mantissas as f32;
                    let magnitude = frac * 2f32.powi(e);
                    let x = if sign { -magnitude } else { magnitude };
                    entries.push(op.eval(x));
                }
            }
        }
        NonlinearLut { op, config, entries, signs }
    }

    /// The nonlinear op this LUT approximates.
    pub fn op(&self) -> NonlinearOp {
        self.op
    }

    /// The configuration used to build the LUT.
    pub fn config(&self) -> &VlpApproxConfig {
        &self.config
    }

    /// Number of stored entries (rows × exponents).
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Looks up the row for a (sign, mantissa) pair.
    ///
    /// # Panics
    /// Panics if the mantissa is out of range for the configured width.
    pub fn row(&self, sign: bool, mantissa: u8) -> &[f32] {
        assert!(
            (mantissa as usize) < 1 << self.config.mantissa_bits,
            "mantissa {mantissa} out of range"
        );
        let exps = self.config.lut_exponents();
        let start = self.row_index(sign, mantissa) * exps;
        &self.entries[start..start + exps]
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

    /// Index of the row of a (sign, mantissa) pair; a single-sign LUT has
    /// only the negative rows.
    #[inline]
    fn row_index(&self, sign: bool, mantissa: u8) -> usize {
        let sign_idx = usize::from(sign && self.signs == 2);
        (sign_idx << self.config.mantissa_bits) + mantissa as usize
    }

    /// The entry of an in-range (sign, mantissa, exponent), read straight
    /// from the flat storage.
    #[inline]
    fn stored(&self, sign: bool, mantissa: u8, exponent: i32) -> f32 {
        let column = (exponent - self.config.lut_min_exp) as usize;
        self.entries[self.row_index(sign, mantissa) * self.config.lut_exponents() + column]
    }
}

/// The sliding window chosen for one mapping: a contiguous range of exponents
/// of length `window_size` within the full LUT window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    select_window_iter(config, exponents.iter().copied())
}

/// [`select_window`] over exponents produced on the fly. A
/// [`Fixed`](WindowStrategy::Fixed) strategy never draws from `exponents`.
pub fn select_window_iter(
    config: &VlpApproxConfig,
    exponents: impl IntoIterator<Item = i32>,
) -> SlidingWindow {
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
            let max = exponents.into_iter().max().unwrap_or(full_hi);
            clamp_lo(max.min(full_hi) - size + 1)
        }
        WindowStrategy::AnchorMin => {
            let min = exponents.into_iter().min().unwrap_or(full_lo);
            clamp_lo(min.max(full_lo))
        }
    }
}

/// Per-call counts of a VLP approximation. Its cycles are priced by
/// `mugi-arch` (`Design::nonlinear_cycles`), not here.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ApproxStats {
    /// Number of elements approximated.
    pub elements: usize,
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
/// the counts of the mapping.
#[derive(Clone, Debug)]
pub struct VlpNonlinear {
    lut: NonlinearLut,
    /// Number of array rows available for mapping inputs in parallel. Each
    /// mapping selects its own window, so this decides the outputs as well
    /// as the mapping count.
    array_rows: usize,
    /// `op(0)`: the output for zero and underflowing inputs.
    at_zero: f32,
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
        VlpNonlinear { lut: NonlinearLut::build(op, config), array_rows, at_zero: op.eval(0.0) }
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
    /// outputs and the mapping counts.
    ///
    /// Inputs are processed in mappings of `array_rows` elements; each mapping
    /// selects its own sliding window (value-centric adaptation).
    ///
    /// # Panics
    /// Exp / softmax engines store only the non-positive half of the LUT
    /// (Section 4.1), so they panic on a positive, finite, non-zero input.
    pub fn apply(&self, inputs: &[f32]) -> (Vec<f32>, ApproxStats) {
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut stats = ApproxStats::default();
        self.apply_into(inputs, &mut outputs, &mut stats);
        (outputs, stats)
    }

    /// [`apply`](Self::apply) that appends the outputs to `outputs` and adds
    /// the counts to `stats`. Each mapping splits its inputs twice, once for
    /// the window and once for the outputs, so no field buffer is held.
    fn apply_into(&self, inputs: &[f32], outputs: &mut Vec<f32>, stats: &mut ApproxStats) {
        let config = self.lut.config();
        let bits = config.mantissa_bits;
        stats.elements += inputs.len();
        for mapping in inputs.chunks(self.array_rows) {
            let exponents = mapping
                .iter()
                .map(|&x| FloatFields::split_f32(x, bits))
                .filter(|f| !f.is_zero && f.special.is_none())
                .map(|f| f.exponent);
            let window = select_window_iter(config, exponents);
            outputs.extend(mapping.iter().map(|&x| {
                self.approximate_one(x, &FloatFields::split_f32(x, bits), &window, stats)
            }));
            stats.mappings += 1;
        }
    }

    /// Approximates the input `x`, split into `fields`, against a chosen
    /// window.
    #[inline]
    fn approximate_one(
        &self,
        x: f32,
        fields: &FloatFields,
        window: &SlidingWindow,
        stats: &mut ApproxStats,
    ) -> f32 {
        // Post-processing special paths (Section 4, PP block).
        if let Some(special) = fields.special {
            stats.specials += 1;
            return match special {
                Special::Nan => f32::NAN,
                Special::Infinity if fields.sign => 0.0,
                Special::Infinity => f32::INFINITY,
            };
        }
        if fields.is_zero {
            return self.at_zero;
        }
        let single_sign = self.lut.signs == 1;
        assert!(
            fields.sign || !single_sign,
            "{:?} engine stores only non-positive inputs, got {x}",
            self.op()
        );
        if fields.exponent < window.lo {
            stats.underflows += 1;
            // Exponent underflow: the magnitude is below everything the window
            // stores. The E-proc "underflows to 0" (Section 4 phase 1) — the
            // input is treated as zero, so exp/softmax emit 1 and SiLU/GELU
            // emit 0, which is also the numerically correct limit.
            return self.at_zero;
        }
        if fields.exponent > window.hi {
            stats.overflows += 1;
            return if single_sign {
                // Softmax overflow saturates to the largest stored value.
                self.lut.stored(fields.sign, fields.mantissa, window.hi)
            } else if fields.sign {
                // SiLU/GELU pass large magnitudes through: SiLU(x)→x for
                // x ≫ 0 and →0 for x ≪ 0 (the PP block reproduces the tails).
                0.0
            } else {
                fields.reconstruct()
            };
        }
        // `select_window` keeps every window inside the stored exponents.
        self.lut.stored(fields.sign, fields.mantissa, fields.exponent)
    }

    /// Full softmax pipeline (Section 4.1): max subtraction, VLP exp
    /// approximation, accumulation of the exponentials in the output
    /// accumulator and a final reciprocal multiply in the vector array.
    ///
    /// Returns the probabilities and the counts of the exp approximation.
    pub fn softmax(&self, logits: &[f32]) -> (Vec<f32>, ApproxStats) {
        self.softmax_rows_checked(logits, logits.len().max(1))
    }

    /// Row-wise softmax over a row-major matrix of `cols` columns.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `cols`.
    pub fn softmax_rows(&self, data: &[f32], cols: usize) -> (Vec<f32>, ApproxStats) {
        assert!(cols > 0, "cols must be non-zero");
        assert_eq!(data.len() % cols, 0, "data length must be a multiple of cols");
        self.softmax_rows_checked(data, cols)
    }

    /// [`softmax`](Self::softmax) of every `cols`-wide row, through one
    /// shifted-row buffer; each row's exps are normalised where they were
    /// appended.
    fn softmax_rows_checked(&self, data: &[f32], cols: usize) -> (Vec<f32>, ApproxStats) {
        assert!(
            matches!(self.op(), NonlinearOp::Softmax | NonlinearOp::Exp),
            "softmax pipeline requires an exp/softmax engine"
        );
        let mut out = Vec::with_capacity(data.len());
        let mut stats = ApproxStats::default();
        let mut shifted = Vec::with_capacity(cols);
        for row in data.chunks(cols) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            shifted.clear();
            shifted.extend(row.iter().map(|&x| x - max));
            let start = out.len();
            self.apply_into(&shifted, &mut out, &mut stats);
            let exps = &mut out[start..];
            let sum: f32 = exps.iter().sum();
            if sum <= 0.0 || !sum.is_finite() {
                exps.fill(1.0 / row.len() as f32);
            } else {
                let inv = 1.0 / sum;
                exps.iter_mut().for_each(|e| *e *= inv);
            }
        }
        (out, stats)
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
        assert_eq!(lut.num_entries(), 8 * cfg.lut_exponents());
        // Entry (m=0, e=0) is exp(-1.0).
        let e = lut.entry(true, 0, 0).unwrap();
        assert!((e - (-1.0f32).exp()).abs() < 1e-6);
        // SiLU takes both signs: double the rows.
        let cfg = VlpApproxConfig::recommended_for(NonlinearOp::Silu);
        let lut = NonlinearLut::build(NonlinearOp::Silu, cfg);
        assert_eq!(lut.num_entries(), 16 * cfg.lut_exponents());
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

    /// The engine as it was written before the buffer-free kernel: a
    /// `Vec<Vec<f32>>` LUT, a field buffer and an exponent buffer per
    /// mapping, `clamp_exponent` and `Option` lookups, and three `Vec`s per
    /// softmax row. It is the oracle the kernel must match bit for bit.
    struct FieldBufferEngine {
        op: NonlinearOp,
        config: VlpApproxConfig,
        rows: Vec<Vec<f32>>,
        signs: usize,
        array_rows: usize,
    }

    impl FieldBufferEngine {
        fn new(op: NonlinearOp, config: VlpApproxConfig, array_rows: usize) -> Self {
            let signs = if op.inputs_non_positive() { 1 } else { 2 };
            let mantissas = 1usize << config.mantissa_bits;
            let mut rows = Vec::new();
            for sign_idx in 0..signs {
                let sign = if signs == 1 { true } else { sign_idx == 1 };
                for m in 0..mantissas {
                    let mut row = Vec::new();
                    for e in config.lut_min_exp..=config.lut_max_exp {
                        let frac = 1.0 + m as f32 / mantissas as f32;
                        let magnitude = frac * 2f32.powi(e);
                        row.push(op.eval(if sign { -magnitude } else { magnitude }));
                    }
                    rows.push(row);
                }
            }
            FieldBufferEngine { op, config, rows, signs, array_rows }
        }

        fn entry(&self, sign: bool, mantissa: u8, exponent: i32) -> Option<f32> {
            if exponent < self.config.lut_min_exp || exponent > self.config.lut_max_exp {
                return None;
            }
            let mantissas = 1usize << self.config.mantissa_bits;
            let sign_idx = if self.signs == 1 { 0 } else { usize::from(sign) };
            let idx = (exponent - self.config.lut_min_exp) as usize;
            Some(self.rows[sign_idx * mantissas + mantissa as usize][idx])
        }

        fn select_window(&self, exponents: &[i32]) -> SlidingWindow {
            let config = &self.config;
            let size = config.window_size as i32;
            let (full_lo, full_hi) = (config.lut_min_exp, config.lut_max_exp);
            let clamp_lo = |lo: i32| {
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

        fn apply(&self, inputs: &[f32]) -> (Vec<f32>, ApproxStats) {
            let config = self.config;
            let mut outputs = Vec::with_capacity(inputs.len());
            let mut stats = ApproxStats { elements: inputs.len(), ..ApproxStats::default() };
            let mut fields = Vec::new();
            let mut exponents = Vec::new();
            for mapping in inputs.chunks(self.array_rows) {
                fields.clear();
                fields.extend(
                    mapping.iter().map(|&x| FloatFields::split_f32(x, config.mantissa_bits)),
                );
                exponents.clear();
                exponents.extend(
                    fields.iter().filter(|f| !f.is_zero && f.special.is_none()).map(|f| f.exponent),
                );
                let window = self.select_window(&exponents);
                for f in &fields {
                    outputs.push(self.approximate_one(f, &window, &mut stats));
                }
                stats.mappings += 1;
            }
            (outputs, stats)
        }

        fn approximate_one(
            &self,
            fields: &FloatFields,
            window: &SlidingWindow,
            stats: &mut ApproxStats,
        ) -> f32 {
            let op = self.op;
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
                return op.eval(0.0);
            }
            if clamped.overflowed {
                stats.overflows += 1;
                return match op {
                    NonlinearOp::Exp | NonlinearOp::Softmax => self
                        .entry(fields.sign, fields.mantissa, window.hi)
                        .unwrap_or_else(|| op.eval(fields.reconstruct())),
                    NonlinearOp::Silu | NonlinearOp::Gelu => {
                        if fields.sign {
                            0.0
                        } else {
                            fields.reconstruct()
                        }
                    }
                };
            }
            self.entry(fields.sign, fields.mantissa, clamped.exponent)
                .unwrap_or_else(|| op.eval(fields.reconstruct()))
        }

        fn softmax(&self, logits: &[f32]) -> (Vec<f32>, ApproxStats) {
            if logits.is_empty() {
                return (Vec::new(), ApproxStats::default());
            }
            let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let shifted: Vec<f32> = logits.iter().map(|&x| x - max).collect();
            let (exps, stats) = self.apply(&shifted);
            let sum: f32 = exps.iter().sum();
            if sum <= 0.0 || !sum.is_finite() {
                return (vec![1.0 / logits.len() as f32; logits.len()], stats);
            }
            let inv = 1.0 / sum;
            (exps.iter().map(|&e| e * inv).collect(), stats)
        }

        fn softmax_rows(&self, data: &[f32], cols: usize) -> (Vec<f32>, ApproxStats) {
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
            }
            (out, total)
        }
    }

    /// Deterministic inputs spanning the LUT windows and far beyond them,
    /// with every edge the kernel special-cases mixed in: NaN, ±∞, ±0,
    /// subnormals and the largest finite BF16 (whose rounding carries and
    /// clamps). `non_positive` negates every positive finite value.
    fn kernel_inputs(len: usize, seed: u64, non_positive: bool) -> Vec<f32> {
        let edges = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(0x0001_0000),  // smallest BF16 subnormal
            -f32::from_bits(0x007F_0000), // largest BF16 subnormal, negated
            f32::from_bits(0x7F7F_0000),  // 0x7F7F, the carry-clamp edge
            -f32::from_bits(0x7F7F_0000),
            f32::from_bits(0x3FFF_0000), // 1.9921875 rounds up a binade
            -f32::from_bits(0x3FFF_0000),
        ];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let x = if i % 7 == 3 {
                    edges[(state >> 40) as usize % edges.len()]
                } else {
                    let exponent = (state >> 32) as i32 % 24 - 14;
                    let frac = 1.0 + (state & 0xFFFF) as f32 / 65536.0;
                    let sign = if state >> 63 == 1 { -1.0 } else { 1.0 };
                    sign * frac * 2f32.powi(exponent)
                };
                if non_positive && x > 0.0 && x.is_finite() {
                    -x
                } else {
                    x
                }
            })
            .collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    fn kernel_configs(op: NonlinearOp) -> Vec<VlpApproxConfig> {
        let base = VlpApproxConfig::recommended_for(op);
        let mut configs = vec![
            base,
            VlpApproxConfig { strategy: WindowStrategy::AnchorMin, ..base },
            VlpApproxConfig { strategy: WindowStrategy::Fixed(-3), ..base },
            VlpApproxConfig { strategy: WindowStrategy::Fixed(-40), ..base },
        ];
        for (mantissa_bits, strategy) in [
            (1, WindowStrategy::AnchorMax),
            (5, WindowStrategy::AnchorMin),
            (7, WindowStrategy::Fixed(0)),
        ] {
            configs.push(VlpApproxConfig {
                mantissa_bits,
                lut_min_exp: -9,
                lut_max_exp: 2,
                window_size: 5,
                strategy,
            });
        }
        configs
    }

    #[test]
    fn apply_matches_the_field_buffer_engine_bit_for_bit() {
        for op in [NonlinearOp::Silu, NonlinearOp::Gelu, NonlinearOp::Exp, NonlinearOp::Softmax] {
            for (c, config) in kernel_configs(op).into_iter().enumerate() {
                // Array widths that cut the input part-way, hold it whole,
                // or map one element at a time.
                for array_rows in [1, 5, 32, 256, 1000] {
                    let engine = VlpNonlinear::with_array_rows(op, config, array_rows);
                    let oracle = FieldBufferEngine::new(op, config, array_rows);
                    for len in [0, 1, 31, 300] {
                        let inputs = kernel_inputs(
                            len,
                            (c * 1000 + len) as u64,
                            op != NonlinearOp::Silu && op != NonlinearOp::Gelu,
                        );
                        let (out, stats) = engine.apply(&inputs);
                        let (want, want_stats) = oracle.apply(&inputs);
                        let case = format!("{op:?} config {c} rows {array_rows} len {len}");
                        assert_eq!(bits(&out), bits(&want), "{case}");
                        assert_eq!(stats, want_stats, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn softmax_rows_match_the_field_buffer_engine_bit_for_bit() {
        for op in [NonlinearOp::Softmax, NonlinearOp::Exp] {
            for (c, config) in kernel_configs(op).into_iter().enumerate() {
                for array_rows in [3, 16, 32, 256] {
                    let engine = VlpNonlinear::with_array_rows(op, config, array_rows);
                    let oracle = FieldBufferEngine::new(op, config, array_rows);
                    for cols in [1, 7, 32, 40] {
                        let mut data = kernel_inputs(cols * 9, (c * 100 + cols) as u64, false);
                        // One row all -inf (NaN after the shift, so uniform),
                        // one row all zero.
                        data[..cols].fill(f32::NEG_INFINITY);
                        data[cols..2 * cols].fill(0.0);
                        let case = format!("{op:?} config {c} rows {array_rows} cols {cols}");
                        let (out, stats) = engine.softmax_rows(&data, cols);
                        let (want, want_stats) = oracle.softmax_rows(&data, cols);
                        assert_eq!(bits(&out), bits(&want), "{case}");
                        assert_eq!(stats, want_stats, "{case}");
                        let (out, stats) = engine.softmax(&data[2 * cols..]);
                        let (want, want_stats) = oracle.softmax(&data[2 * cols..]);
                        assert_eq!(bits(&out), bits(&want), "{case} (softmax)");
                        assert_eq!(stats, want_stats, "{case} (softmax)");
                    }
                    assert_eq!(engine.softmax(&[]), oracle.softmax(&[]));
                    assert_eq!(engine.softmax_rows(&[], 4), oracle.softmax_rows(&[], 4));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "Exp engine stores only non-positive inputs, got 0.5")]
    fn single_sign_engine_rejects_positive_inputs() {
        let engine =
            VlpNonlinear::new(NonlinearOp::Exp, VlpApproxConfig::recommended_for(NonlinearOp::Exp));
        engine.apply(&[-1.0, 0.5]);
    }

    #[test]
    fn single_sign_engine_accepts_zero_and_specials_of_either_sign() {
        let engine = VlpNonlinear::new(
            NonlinearOp::Softmax,
            VlpApproxConfig::recommended_for(NonlinearOp::Softmax),
        );
        let (out, stats) = engine.apply(&[0.0, -0.0, f32::INFINITY, f32::NAN, -2.0]);
        assert_eq!(&out[..3], &[1.0, 1.0, f32::INFINITY]);
        assert!(out[3].is_nan());
        assert_eq!(stats.specials, 2);
    }

    #[test]
    fn config_validation_errors() {
        let invalid = [
            (
                VlpApproxConfig { window_size: 50, ..VlpApproxConfig::default() },
                VlpConfigError::WindowTooWide { window_size: 50, lut_exponents: 12 },
                "window_size 50 exceeds stored LUT exponents 12",
            ),
            (
                VlpApproxConfig { mantissa_bits: 0, ..VlpApproxConfig::default() },
                VlpConfigError::MantissaBits(0),
                "mantissa_bits must be in 1..=7, got 0",
            ),
            (
                VlpApproxConfig { lut_min_exp: 10, lut_max_exp: 0, ..VlpApproxConfig::default() },
                VlpConfigError::InvertedLut { lut_min_exp: 10, lut_max_exp: 0 },
                "lut_min_exp 10 must not exceed lut_max_exp 0",
            ),
            (
                VlpApproxConfig { window_size: 0, ..VlpApproxConfig::default() },
                VlpConfigError::ZeroWindow,
                "window_size must be non-zero",
            ),
        ];
        for (cfg, error, message) in invalid {
            assert_eq!(cfg.validate(), Err(error), "{cfg:?}");
            assert_eq!(error.to_string(), message);
        }
        assert_eq!(VlpApproxConfig::default().validate(), Ok(()));
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
        assert!(large.num_entries() > small.num_entries());
    }
}
