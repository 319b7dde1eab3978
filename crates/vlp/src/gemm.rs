//! Functional VLP GEMM with cycle accounting.
//!
//! Two mappings are modelled (Section 4.2 of the paper):
//!
//! * **Carat mapping** — batched activations on the array rows (temporally
//!   coded), weights broadcast on the columns. Designed for large-batch,
//!   low-precision (FP8) symmetric GEMM. With BF16 activations the temporal
//!   sweep would balloon from 8 to 128 cycles, which is the format mismatch
//!   Mugi fixes.
//! * **Mugi mapping** — the transpose: INT4 weights / quantized KV entries on
//!   the rows (temporally coded over an 8-cycle sweep thanks to the 3-bit
//!   magnitude), BF16 activations / query tokens broadcast on the columns.
//!   Small batches plus a GQA group of 8 queries exactly fill the 8 columns.
//!
//! The functional output is exact with respect to the (de)quantized operands:
//! VLP is not an approximation for GEMM, only for nonlinear operations.

use crate::reuse::ReuseStats;
use mugi_numerics::quant::QuantizedMatrix;
use mugi_numerics::tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Which operand is mapped to the temporally-coded array rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingKind {
    /// Carat: activations on rows (batch dimension across rows).
    CaratActivationRows,
    /// Mugi: INT4 weights / KV entries on rows, activations on columns.
    MugiWeightRows,
}

/// Static configuration of a VLP GEMM array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VlpGemmConfig {
    /// Array height (number of rows, the temporally-coded dimension).
    pub height: usize,
    /// Array width (number of columns, the broadcast dimension). The paper
    /// fixes this to 8 to match the 3-bit magnitude sweep.
    pub width: usize,
    /// Magnitude bits of the temporally-coded operand (3 for INT4 weights,
    /// 3 for FP8 mantissa, 7 for BF16 mantissa on Carat).
    pub magnitude_bits: u32,
    /// Mapping direction.
    pub mapping: MappingKind,
}

impl VlpGemmConfig {
    /// The Mugi configuration from Table 2: `height`×8 array, INT4 rows.
    pub fn mugi(height: usize) -> Self {
        VlpGemmConfig { height, width: 8, magnitude_bits: 3, mapping: MappingKind::MugiWeightRows }
    }

    /// The Carat configuration from Table 2 (FP8 activations on rows).
    pub fn carat(height: usize) -> Self {
        VlpGemmConfig {
            height,
            width: 8,
            magnitude_bits: 3,
            mapping: MappingKind::CaratActivationRows,
        }
    }

    /// Length of one temporal sweep in cycles.
    pub fn sweep_cycles(&self) -> u64 {
        1u64 << self.magnitude_bits
    }
}

impl Default for VlpGemmConfig {
    fn default() -> Self {
        VlpGemmConfig::mugi(256)
    }
}

/// Execution statistics of one VLP GEMM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GemmStats {
    /// Total cycles, assuming output-stationary tiling with no stalls.
    pub cycles: u64,
    /// Number of output tiles processed.
    pub tiles: u64,
    /// Fraction of PE-cycles doing useful work (0..=1).
    pub utilization: f64,
    /// Low-level value-reuse accounting aggregated over all tiles.
    pub reuse: ReuseStats,
}

/// A functional VLP GEMM engine.
#[derive(Clone, Debug)]
pub struct VlpGemm {
    config: VlpGemmConfig,
}

impl VlpGemm {
    /// Creates an engine with the given configuration.
    ///
    /// # Panics
    /// Panics if the array dimensions are zero or the magnitude width is not
    /// in `1..=7`.
    pub fn new(config: VlpGemmConfig) -> Self {
        assert!(config.height > 0 && config.width > 0, "array dimensions must be non-zero");
        assert!((1..=7).contains(&config.magnitude_bits), "magnitude_bits must be in 1..=7");
        VlpGemm { config }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &VlpGemmConfig {
        &self.config
    }

    /// Asymmetric BF16–INT4 GEMM: `activations (m×k) × weightsᵀ` where
    /// `weights` is a quantized `n×k` matrix (each output feature is one row,
    /// as stored by WOQ checkpoints). Returns the `m×n` output and stats.
    ///
    /// Functionally the result equals `activations × dequantize(weights)ᵀ`
    /// (dequantization is performed by the vector array after the integer
    /// GEMM, exactly as the paper describes); the cycle accounting follows the
    /// configured mapping.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn gemm_bf16_int4(
        &self,
        activations: &Matrix,
        weights: &QuantizedMatrix,
    ) -> (Matrix, GemmStats) {
        let k = activations.cols();
        assert_eq!(
            k,
            weights.cols(),
            "inner dimensions must agree: activations k={k}, weights k={}",
            weights.cols()
        );
        let m = activations.rows();
        let n = weights.rows();
        // Functional result: integer GEMM against the INT4 codes then a
        // per-group rescale — identical maths to dequantize-then-GEMM because
        // dequantization is affine per group.
        let dequant = weights.dequantize();
        let output = activations.matmul(&dequant.transpose());
        let stats = self.stats_for(m, n, k);
        (output, stats)
    }

    /// Cycle/utilization model for an `m×n×k` GEMM on this array.
    ///
    /// Output-stationary dataflow: each output tile of `height × width`
    /// elements is produced by `k` outer-product steps, each taking one
    /// temporal sweep. Tiles along the temporally-coded dimension use the
    /// array rows, tiles along the broadcast dimension use the columns.
    pub fn stats_for(&self, m: usize, n: usize, k: usize) -> GemmStats {
        let (row_dim, col_dim) = match self.config.mapping {
            // Carat: activations (m) on rows, weights/features (n) on columns.
            MappingKind::CaratActivationRows => (m, n),
            // Mugi: weights / KV entries (n) on rows, activations (m) on columns.
            MappingKind::MugiWeightRows => (n, m),
        };
        let row_tiles = row_dim.div_ceil(self.config.height).max(1) as u64;
        let col_tiles = col_dim.div_ceil(self.config.width).max(1) as u64;
        let tiles = row_tiles * col_tiles;
        let sweep = self.config.sweep_cycles();
        let cycles = tiles * k as u64 * sweep;
        // Utilization: useful MACs / (PEs * sweeps). Each sweep performs one
        // outer-product step over the occupied sub-array.
        let useful = (m * n * k) as f64;
        let provisioned =
            (self.config.height * self.config.width) as f64 * (tiles * k as u64) as f64;
        let utilization = if provisioned > 0.0 { (useful / provisioned).min(1.0) } else { 0.0 };
        // Subscriptions count temporal spike (latch) events, which belong to
        // the temporally-coded dimension: each of the `row_dim` coded values
        // spikes once per K-step sweep, and one spike serves every broadcast
        // column of the tile simultaneously — that sharing is the value-level
        // parallelism. Column tiles are separate sweep passes, so the coded
        // values re-spike once per column tile. Multiplications avoided count
        // what a conventional datapath would execute: one multiply per useful
        // MAC. The two were previously both set to `m*n*k`, double-counting
        // spikes once per broadcast column and hiding the mapping-dependent
        // reuse factor (`multiplications_avoided / subscriptions`).
        let subscriptions = row_dim as u64 * k as u64 * col_tiles;
        GemmStats {
            cycles,
            tiles,
            utilization,
            reuse: ReuseStats {
                cycles,
                accumulations: cycles * self.config.width as u64,
                subscriptions,
                multiplications_avoided: (m * n * k) as u64,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi_numerics::quant::weight_only_quantize;
    use mugi_numerics::tensor::pseudo_random_matrix;

    #[test]
    fn bf16_int4_gemm_matches_dequantized_reference() {
        let activations = pseudo_random_matrix(8, 64, 1, 1.0);
        let weights = pseudo_random_matrix(16, 64, 2, 0.5);
        let q = weight_only_quantize(&weights, 32);
        let engine = VlpGemm::new(VlpGemmConfig::mugi(128));
        let (out, stats) = engine.gemm_bf16_int4(&activations, &q);
        let reference = activations.matmul(&q.dequantize().transpose());
        assert!(out.max_abs_diff(&reference) < 1e-5);
        assert!(stats.cycles > 0);
        assert!(stats.utilization > 0.0 && stats.utilization <= 1.0);
    }

    #[test]
    fn mugi_mapping_fills_columns_with_small_batch() {
        // Batch of 8 activations (GQA group) on a Mugi array: columns full.
        let engine = VlpGemm::new(VlpGemmConfig::mugi(128));
        let stats = engine.stats_for(8, 4096, 4096);
        assert!(stats.utilization > 0.99, "utilization {}", stats.utilization);
        // The same workload on the Carat mapping wastes most of the rows
        // because only 8 of 128 rows are occupied by the batch.
        let carat = VlpGemm::new(VlpGemmConfig::carat(128));
        let carat_stats = carat.stats_for(8, 4096, 4096);
        assert!(carat_stats.utilization < 0.1);
    }

    #[test]
    fn reuse_accounting_follows_temporal_dimension() {
        // Regression for the double-count where `subscriptions` and
        // `multiplications_avoided` were both `m*n*k` regardless of mapping.
        // Mugi maps the n=256 weights on the temporally-coded rows (2 row
        // tiles of 128) and the m=8 activations on the broadcast columns
        // (1 column tile): one spike per coded weight per K-step.
        let mugi = VlpGemm::new(VlpGemmConfig::mugi(128));
        let s = mugi.stats_for(8, 256, 64).reuse;
        assert_eq!(s.subscriptions, 256 * 64);
        assert_eq!(s.multiplications_avoided, 8 * 256 * 64);
        // The reuse factor is the shared broadcast width (8 columns).
        assert_eq!(s.multiplications_avoided / s.subscriptions, 8);
        // The two mappings now account differently: with m=3 activations the
        // Mugi mapping still spikes every weight once per K-step (partially
        // filled columns), while Carat puts the 3 activations on the rows and
        // re-spikes them across 256/8 = 32 column tiles.
        let m_stats = mugi.stats_for(3, 256, 64).reuse;
        let carat = VlpGemm::new(VlpGemmConfig::carat(128));
        let c_stats = carat.stats_for(3, 256, 64).reuse;
        assert_eq!(m_stats.subscriptions, 256 * 64);
        assert_eq!(c_stats.subscriptions, 3 * 64 * 32);
        assert_ne!(m_stats.subscriptions, c_stats.subscriptions);
        assert_eq!(m_stats.multiplications_avoided, c_stats.multiplications_avoided);
    }

    #[test]
    fn cycle_count_follows_tiling() {
        let engine = VlpGemm::new(VlpGemmConfig::mugi(128));
        // n=256 weights -> 2 row tiles; m=8 activations -> 1 column tile.
        let stats = engine.stats_for(8, 256, 64);
        assert_eq!(stats.tiles, 2);
        assert_eq!(stats.cycles, 2 * 64 * 8);
    }

    #[test]
    fn bf16_rows_would_inflate_sweep() {
        // The format-customization argument: a 7-bit mantissa on the
        // temporally-coded dimension needs a 128-cycle sweep.
        let bf16_rows = VlpGemmConfig {
            height: 128,
            width: 8,
            magnitude_bits: 7,
            mapping: MappingKind::CaratActivationRows,
        };
        assert_eq!(bf16_rows.sweep_cycles(), 128);
        assert_eq!(VlpGemmConfig::mugi(128).sweep_cycles(), 8);
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn mismatched_dimensions_rejected() {
        let engine = VlpGemm::new(VlpGemmConfig::default());
        let a = pseudo_random_matrix(2, 8, 1, 1.0);
        let w = weight_only_quantize(&pseudo_random_matrix(4, 16, 2, 1.0), 16);
        let _ = engine.gemm_bf16_int4(&a, &w);
    }

    #[test]
    #[should_panic(expected = "array dimensions must be non-zero")]
    fn zero_array_rejected() {
        VlpGemm::new(VlpGemmConfig {
            height: 0,
            width: 8,
            magnitude_bits: 3,
            mapping: MappingKind::MugiWeightRows,
        });
    }
}
