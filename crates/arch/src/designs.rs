//! The evaluated hardware designs (Table 2 of the paper).
//!
//! Every design is composed from the modules in [`crate::modules`] and exposes
//! the same interface to the performance model: area breakdown, leakage, GEMM
//! throughput (cycles for an `m×k×n` GEMM with a given weight precision) and
//! nonlinear throughput (cycles for a batch of nonlinear elements).

use crate::cost::{CostModel, NonlinearCycleCosts};
use crate::modules::{
    AccumulatorBank, FifoBank, NonlinearUnit, PeArray, PeKind, Sram, TemporalConverterBank,
    VectorUnit,
};
use mugi_workloads::ops::GemmOp;

/// Which nonlinear implementation a design uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NonlinearMethod {
    /// VLP approximation on the shared compute array (Mugi).
    VlpShared,
    /// Dedicated directly-indexed LUTs (Mugi-L).
    DirectLut,
    /// Precise iterative computation on a vector array.
    Precise,
    /// Taylor-series approximation on a vector array.
    Taylor,
    /// Piecewise-linear approximation on a vector array.
    Pwl,
}

impl NonlinearMethod {
    /// Cycles per element on a single lane.
    pub fn cycles_per_element(self, costs: &NonlinearCycleCosts) -> u64 {
        match self {
            NonlinearMethod::VlpShared => costs.vlp_sweep,
            NonlinearMethod::DirectLut => costs.direct_lut,
            NonlinearMethod::Precise => costs.precise,
            NonlinearMethod::Taylor => costs.taylor,
            NonlinearMethod::Pwl => costs.pwl,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            NonlinearMethod::VlpShared => "VLP",
            NonlinearMethod::DirectLut => "LUT",
            NonlinearMethod::Precise => "Precise",
            NonlinearMethod::Taylor => "Taylor",
            NonlinearMethod::Pwl => "PWL",
        }
    }
}

/// The design families of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// Mugi: VLP array shared between GEMM and nonlinear approximation.
    Mugi,
    /// Mugi-L: VLP array for GEMM plus dedicated LUTs for nonlinear ops.
    MugiL,
    /// Carat (modified for BF16-INT4 as described in Section 5.2.2).
    Carat,
    /// Systolic array of BF16 MACs (weight stationary).
    SystolicArray,
    /// SIMD array (adder trees) of BF16 MACs.
    SimdArray,
    /// Systolic array with FIGNA FP-INT PEs.
    SystolicFigna,
    /// SIMD array with FIGNA FP-INT PEs.
    SimdFigna,
    /// Tensor core (8×16×16 MACs per cycle, fully pipelined).
    TensorCore,
    /// Standalone precise vector array (nonlinear-only baseline, Figure 11).
    VectorArrayPrecise,
    /// Standalone approximate vector array using a Taylor series.
    VectorArrayTaylor,
    /// Standalone approximate vector array using PWL.
    VectorArrayPwl,
}

impl DesignKind {
    /// Short label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            DesignKind::Mugi => "Mugi",
            DesignKind::MugiL => "Mugi-L",
            DesignKind::Carat => "Carat",
            DesignKind::SystolicArray => "SA",
            DesignKind::SimdArray => "SD",
            DesignKind::SystolicFigna => "SA-F",
            DesignKind::SimdFigna => "SD-F",
            DesignKind::TensorCore => "Tensor",
            DesignKind::VectorArrayPrecise => "VA-FP",
            DesignKind::VectorArrayTaylor => "VA-Taylor",
            DesignKind::VectorArrayPwl => "VA-PWL",
        }
    }

    /// Whether this design is VLP-based (8-column array, weights on rows).
    pub fn is_vlp(self) -> bool {
        matches!(self, DesignKind::Mugi | DesignKind::MugiL | DesignKind::Carat)
    }

    /// Whether this is a standalone vector array (nonlinear-only baseline).
    pub fn is_vector_array(self) -> bool {
        matches!(
            self,
            DesignKind::VectorArrayPrecise
                | DesignKind::VectorArrayTaylor
                | DesignKind::VectorArrayPwl
        )
    }
}

/// Configuration of one single-node design instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DesignConfig {
    /// Which design family.
    pub kind: DesignKind,
    /// Array height (rows). For vector arrays this is the lane count.
    pub height: usize,
    /// Array width (columns). Fixed to 8 for VLP designs, equal to height for
    /// square MAC arrays, 16 for the tensor core.
    pub width: usize,
    /// On-chip SRAM per buffer (input / weight / output), in KiB.
    pub sram_kib: f64,
    /// Nonlinear method.
    pub nonlinear: NonlinearMethod,
}

impl DesignConfig {
    /// Mugi with the given array height (Table 2: 32–256 rows, 8 columns,
    /// 64 KiB SRAMs).
    pub fn mugi(height: usize) -> Self {
        DesignConfig {
            kind: DesignKind::Mugi,
            height,
            width: 8,
            sram_kib: 64.0,
            nonlinear: NonlinearMethod::VlpShared,
        }
    }

    /// Mugi-L: VLP GEMM array plus dedicated LUT nonlinear hardware.
    pub fn mugi_l(height: usize) -> Self {
        DesignConfig {
            nonlinear: NonlinearMethod::DirectLut,
            kind: DesignKind::MugiL,
            ..Self::mugi(height)
        }
    }

    /// Carat with the given array height; nonlinear ops fall back to a
    /// Taylor-series vector array (Carat has no native nonlinear support).
    pub fn carat(height: usize) -> Self {
        DesignConfig {
            kind: DesignKind::Carat,
            height,
            width: 8,
            sram_kib: 64.0,
            nonlinear: NonlinearMethod::Taylor,
        }
    }

    /// Square systolic array of BF16 MACs with a precise nonlinear vector
    /// array.
    pub fn systolic(dim: usize) -> Self {
        DesignConfig {
            kind: DesignKind::SystolicArray,
            height: dim,
            width: dim,
            sram_kib: 64.0,
            nonlinear: NonlinearMethod::Precise,
        }
    }

    /// Square SIMD array of BF16 MACs.
    pub fn simd(dim: usize) -> Self {
        DesignConfig { kind: DesignKind::SimdArray, ..Self::systolic(dim) }
    }

    /// Systolic array with FIGNA PEs.
    pub fn systolic_figna(dim: usize) -> Self {
        DesignConfig { kind: DesignKind::SystolicFigna, ..Self::systolic(dim) }
    }

    /// SIMD array with FIGNA PEs.
    pub fn simd_figna(dim: usize) -> Self {
        DesignConfig { kind: DesignKind::SimdFigna, ..Self::systolic(dim) }
    }

    /// Tensor core: 8×16×16 MAC operations per cycle, 1 MiB SRAM (Table 2).
    pub fn tensor_core() -> Self {
        DesignConfig {
            kind: DesignKind::TensorCore,
            height: 16,
            width: 16,
            sram_kib: 1024.0,
            nonlinear: NonlinearMethod::Precise,
        }
    }

    /// Standalone vector array for nonlinear-only comparisons (Figure 11).
    pub fn vector_array(lanes: usize, method: NonlinearMethod) -> Self {
        let kind = match method {
            NonlinearMethod::Precise | NonlinearMethod::VlpShared | NonlinearMethod::DirectLut => {
                DesignKind::VectorArrayPrecise
            }
            NonlinearMethod::Taylor => DesignKind::VectorArrayTaylor,
            NonlinearMethod::Pwl => DesignKind::VectorArrayPwl,
        };
        DesignConfig { kind, height: lanes, width: 1, sram_kib: 64.0, nonlinear: method }
    }

    /// Short display label, e.g. `Mugi (256)`.
    pub fn label(&self) -> String {
        format!("{} ({})", self.kind.label(), self.height)
    }
}

/// Area breakdown of a single node, matching Figure 13's categories.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AreaBreakdown {
    /// Compute PE array.
    pub pe_mm2: f64,
    /// Temporal converters.
    pub tc_mm2: f64,
    /// Output accumulators.
    pub accumulator_mm2: f64,
    /// FIFOs.
    pub fifo_mm2: f64,
    /// Dedicated nonlinear hardware.
    pub nonlinear_mm2: f64,
    /// Vector array (dequantization / scaling / division).
    pub vector_mm2: f64,
    /// On-chip SRAM.
    pub sram_mm2: f64,
}

impl AreaBreakdown {
    /// Total node area.
    pub fn total_mm2(&self) -> f64 {
        self.pe_mm2
            + self.tc_mm2
            + self.accumulator_mm2
            + self.fifo_mm2
            + self.nonlinear_mm2
            + self.vector_mm2
            + self.sram_mm2
    }

    /// Logic-only area (everything but SRAM), used for leakage.
    pub fn logic_mm2(&self) -> f64 {
        self.total_mm2() - self.sram_mm2
    }
}

/// A fully-elaborated single-node design.
#[derive(Clone, Debug)]
pub struct Design {
    config: DesignConfig,
    cost: CostModel,
    nonlinear_costs: NonlinearCycleCosts,
    pe_array: PeArray,
    breakdown: AreaBreakdown,
    vector_lanes: usize,
    nonlinear_lanes: usize,
}

impl Design {
    /// Elaborates a design from its configuration under the default cost
    /// model.
    pub fn new(config: DesignConfig) -> Self {
        Self::with_cost_model(config, CostModel::default_45nm(), NonlinearCycleCosts::default())
    }

    /// Elaborates a design with an explicit cost model (used by ablations).
    ///
    /// # Panics
    /// Panics if the array dimensions are zero.
    pub fn with_cost_model(
        config: DesignConfig,
        cost: CostModel,
        nonlinear_costs: NonlinearCycleCosts,
    ) -> Self {
        assert!(config.height > 0 && config.width > 0, "array dimensions must be non-zero");
        let pe_kind = match config.kind {
            DesignKind::Mugi | DesignKind::MugiL | DesignKind::Carat => PeKind::Vlp,
            DesignKind::SystolicArray | DesignKind::SimdArray => PeKind::MacBf16,
            DesignKind::SystolicFigna | DesignKind::SimdFigna => PeKind::Figna,
            DesignKind::TensorCore => PeKind::MacInt,
            DesignKind::VectorArrayPrecise
            | DesignKind::VectorArrayTaylor
            | DesignKind::VectorArrayPwl => PeKind::MacBf16,
        };
        // Tensor core: 8x16x16 = 2048 MAC lanes.
        let (pe_h, pe_w) = match config.kind {
            DesignKind::TensorCore => (128, 16),
            _ => (config.height, config.width),
        };
        let pe_array = PeArray { kind: pe_kind, height: pe_h, width: pe_w };
        // Vector lanes: VLP designs scale the vector unit with the array width
        // (8); MAC arrays keep a width-sized vector unit; vector arrays ARE
        // the vector unit.
        let vector_lanes = if config.kind.is_vector_array() { config.height } else { config.width };
        let nonlinear_lanes = if config.kind.is_vector_array() { config.height } else { 16 };

        let tc = match config.kind {
            DesignKind::Mugi | DesignKind::MugiL | DesignKind::Carat => {
                TemporalConverterBank { count: config.height }
            }
            _ => TemporalConverterBank { count: 0 },
        };
        let accumulators = match config.kind {
            // Output-stationary VLP designs accumulate per column.
            DesignKind::Mugi | DesignKind::MugiL | DesignKind::Carat => {
                AccumulatorBank { count: config.width * 2 }
            }
            // Weight-stationary arrays need a column of output accumulators.
            DesignKind::SystolicArray | DesignKind::SystolicFigna => {
                AccumulatorBank { count: config.width }
            }
            DesignKind::SimdArray | DesignKind::SimdFigna => {
                AccumulatorBank { count: config.width }
            }
            DesignKind::TensorCore => AccumulatorBank { count: 16 * 8 },
            _ => AccumulatorBank { count: config.height },
        };
        let fifo = match config.kind {
            DesignKind::Mugi | DesignKind::MugiL => {
                FifoBank::mugi_style(config.height, config.width, 16)
            }
            DesignKind::Carat => FifoBank::carat_style(config.height, config.width, 16),
            DesignKind::SystolicArray | DesignKind::SystolicFigna => {
                // Skew/deskew registers along both edges.
                FifoBank { total_bits: (2 * config.height * config.width) as u64 * 16 / 4 }
            }
            DesignKind::SimdArray | DesignKind::SimdFigna => {
                FifoBank { total_bits: (config.height * 16) as u64 }
            }
            DesignKind::TensorCore => FifoBank { total_bits: 2048 * 16 },
            _ => FifoBank { total_bits: (config.height * 16) as u64 },
        };
        let nonlinear_unit = match config.nonlinear {
            NonlinearMethod::VlpShared => NonlinearUnit::none(),
            NonlinearMethod::DirectLut => NonlinearUnit::direct_lut(config.height, 1024, 8, &cost),
            NonlinearMethod::Precise => NonlinearUnit::none(),
            NonlinearMethod::Taylor => NonlinearUnit::taylor(nonlinear_lanes, 9, &cost),
            NonlinearMethod::Pwl => NonlinearUnit::pwl(nonlinear_lanes, 22, &cost),
        };
        // Non-VLP GEMM designs additionally carry a standalone nonlinear
        // vector array (the paper's point: they cannot reuse the GEMM array).
        let standalone_nonlinear_lanes =
            if config.kind.is_vlp() || config.kind.is_vector_array() { 0 } else { 16 };
        let vector = VectorUnit { lanes: vector_lanes + standalone_nonlinear_lanes };
        // Three on-chip buffers (input / weight / output).
        let sram = Sram { kib: config.sram_kib * 3.0 };
        let breakdown = AreaBreakdown {
            pe_mm2: pe_array.area_mm2(&cost),
            tc_mm2: tc.area_mm2(&cost),
            accumulator_mm2: accumulators.area_mm2(&cost),
            fifo_mm2: fifo.area_mm2(&cost),
            nonlinear_mm2: nonlinear_unit.total_area_mm2(&cost),
            vector_mm2: vector.area_mm2(&cost),
            sram_mm2: sram.area_mm2(&cost),
        };
        Design {
            config,
            cost,
            nonlinear_costs,
            pe_array,
            breakdown,
            vector_lanes: vector.lanes,
            nonlinear_lanes,
        }
    }

    /// The configuration this design was elaborated from.
    pub fn config(&self) -> &DesignConfig {
        &self.config
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Node area breakdown (Figure 13).
    pub fn area_breakdown(&self) -> &AreaBreakdown {
        &self.breakdown
    }

    /// Total node area in mm².
    pub fn area_mm2(&self) -> f64 {
        self.breakdown.total_mm2()
    }

    /// Node leakage power in mW.
    pub fn leakage_mw(&self) -> f64 {
        self.cost.logic_leakage_mw(self.breakdown.logic_mm2())
            + self.cost.sram_leakage_mw(self.config.sram_kib * 3.0)
    }

    /// Effective multiply-accumulate throughput (MACs per cycle) for a GEMM of
    /// `m` activation rows, accounting for the utilization effects the paper
    /// describes (Section 6.2): VLP designs peak at a batch/group of 8 filling
    /// their 8 columns; square MAC arrays under-utilise one dimension when the
    /// batch is smaller than the array width; the tensor core needs 16 rows.
    pub fn effective_macs_per_cycle(&self, m: usize, n: usize) -> f64 {
        match self.config.kind {
            DesignKind::Mugi | DesignKind::MugiL | DesignKind::Carat => {
                // One outer-product step per 8-cycle sweep over height×8 PEs.
                let row_fill = (n as f64 / self.config.height as f64).min(1.0);
                let col_fill = (m as f64 / self.config.width as f64).min(1.0);
                self.config.height as f64 * row_fill * col_fill
            }
            DesignKind::SystolicArray
            | DesignKind::SimdArray
            | DesignKind::SystolicFigna
            | DesignKind::SimdFigna => {
                // Weight-stationary square array: the batch dimension streams
                // across the array width; a batch smaller than the width
                // leaves columns idle.
                let col_fill = (m as f64 / self.config.width as f64).min(1.0);
                let row_fill = (n as f64 / self.config.height as f64).min(1.0);
                (self.config.height * self.config.width) as f64 * col_fill * row_fill
            }
            DesignKind::TensorCore => {
                // 8x16x16 MACs per cycle; needs 16 activation rows to fill.
                let fill = (m as f64 / 16.0).min(1.0);
                2048.0 * fill
            }
            _ => {
                // Vector arrays are not GEMM engines; one MAC per lane.
                self.config.height as f64 * (m as f64 / self.config.height as f64).min(1.0)
            }
        }
    }

    /// Cycles to execute one GEMM op (all repeats included).
    ///
    /// Repeated instances of the same GEMM (one per attention / KV head) are
    /// packed across the array's output-feature dimension, exactly as the
    /// paper maps "both attention head and batch across rows": a per-head
    /// output width smaller than the array height does not strand rows as
    /// long as there are enough heads to fill them.
    pub fn gemm_cycles(&self, gemm: &GemmOp) -> u64 {
        let n_aggregate = gemm.n.saturating_mul(gemm.repeats.max(1));
        let per_cycle = self.effective_macs_per_cycle(gemm.m, n_aggregate).max(1e-9);
        let cycles =
            (gemm.total_macs() as f64 / per_cycle / gemm.repeats.max(1) as f64).ceil() as u64;
        // Weight-stationary designs pay a pipeline fill per tile column; VLP
        // designs pay the sweep latency once per tile. Both are small next to
        // the streaming time; include them for fidelity.
        let fill = match self.config.kind {
            DesignKind::SystolicArray | DesignKind::SystolicFigna => self.config.height as u64,
            DesignKind::Mugi | DesignKind::MugiL | DesignKind::Carat => {
                self.nonlinear_costs.vlp_sweep
            }
            _ => 4,
        };
        (cycles + fill) * gemm.repeats as u64
    }

    /// Dynamic energy in pJ for one GEMM op (all repeats included): PE compute
    /// plus SRAM traffic for weights and activations plus vector-array
    /// dequantization when the weights are sub-byte.
    pub fn gemm_energy_pj(&self, gemm: &GemmOp) -> f64 {
        let macs = gemm.total_macs();
        let pe = self.pe_array.energy_pj(&self.cost, macs);
        let sram_bytes = (gemm.weight_bytes() + gemm.activation_bytes()) * gemm.repeats as u64;
        let sram = sram_bytes as f64 * self.cost.sram_energy_pj_per_byte;
        let dequant_ops =
            if gemm.weight_bits < 16 { (gemm.m * gemm.n * gemm.repeats) as u64 } else { 0 };
        let vector = dequant_ops as f64 * self.cost.vector_lane_energy_pj;
        let accumulate = macs as f64 * 0.1 * self.cost.accumulator_energy_pj;
        pe + sram + vector + accumulate
    }

    /// Cycles to execute `elements` nonlinear element evaluations (softmax
    /// normalisation handled by the caller as extra vector ops).
    pub fn nonlinear_cycles(&self, elements: u64) -> u64 {
        match self.config.nonlinear {
            NonlinearMethod::VlpShared => {
                // The whole VLP array processes `height` elements per sweep.
                let per_mapping = self.config.height as u64;
                let mappings = elements.div_ceil(per_mapping.max(1));
                mappings * self.nonlinear_costs.vlp_sweep + self.config.width as u64
            }
            NonlinearMethod::DirectLut => {
                // One element per lane-group per cycle, 8 lanes share a LUT.
                let lanes = (self.config.height / 8).max(1) as u64;
                elements.div_ceil(lanes)
            }
            method => {
                let lanes = self.nonlinear_lanes.max(1) as u64;
                let per_element = method.cycles_per_element(&self.nonlinear_costs);
                elements.div_ceil(lanes) * per_element
            }
        }
    }

    /// Dynamic energy in pJ for `elements` nonlinear element evaluations.
    pub fn nonlinear_energy_pj(&self, elements: u64) -> f64 {
        match self.config.nonlinear {
            NonlinearMethod::VlpShared => {
                // LUT row read (SRAM) shared across the array + subscription.
                let sram_bytes = elements.div_ceil(self.config.height.max(1) as u64)
                    * self.nonlinear_costs.vlp_sweep
                    * (self.config.width as u64 * 2);
                elements as f64 * (self.cost.vlp_pe_energy_pj + self.cost.pp_energy_pj)
                    + sram_bytes as f64 * self.cost.sram_energy_pj_per_byte
            }
            NonlinearMethod::DirectLut => {
                elements as f64 * (self.cost.sram_energy_pj_per_byte * 2.0 + self.cost.pp_energy_pj)
            }
            NonlinearMethod::Precise => {
                elements as f64
                    * self.nonlinear_costs.precise as f64
                    * self.cost.vector_lane_energy_pj
            }
            NonlinearMethod::Taylor => {
                elements as f64
                    * self.nonlinear_costs.taylor as f64
                    * self.cost.vector_lane_energy_pj
            }
            NonlinearMethod::Pwl => elements as f64 * 2.0 * self.cost.vector_lane_energy_pj,
        }
    }

    /// Number of vector-array lanes available for scaling / division.
    pub fn vector_lanes(&self) -> usize {
        self.vector_lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi_workloads::ops::GemmKind;

    fn decode_proj_gemm(m: usize) -> GemmOp {
        GemmOp {
            kind: GemmKind::Projection,
            m,
            k: 4096,
            n: 4096,
            activation_bits: 16,
            weight_bits: 4,
            repeats: 1,
        }
    }

    #[test]
    fn mugi_peaks_at_batch_8_while_sa16_needs_16() {
        let mugi = Design::new(DesignConfig::mugi(256));
        let sa = Design::new(DesignConfig::systolic(16));
        // At batch 8 Mugi is fully utilised; SA 16x16 is half idle.
        assert!((mugi.effective_macs_per_cycle(8, 4096) - 256.0).abs() < 1e-9);
        assert!((sa.effective_macs_per_cycle(8, 4096) - 128.0).abs() < 1e-9);
        // At batch 16 both saturate.
        assert!((sa.effective_macs_per_cycle(16, 4096) - 256.0).abs() < 1e-9);
        assert!((mugi.effective_macs_per_cycle(16, 4096) - 256.0).abs() < 1e-9);
    }

    #[test]
    fn mugi_batches_up_to_8_fill_the_columns_for_free() {
        // The transposed mapping puts the batch on the 8 broadcast columns,
        // so any batch up to 8 costs the cycles of batch 1; batch 16 needs
        // a second pass.
        let mugi = Design::new(DesignConfig::mugi(128));
        let batch_1 = mugi.gemm_cycles(&decode_proj_gemm(1));
        for m in 2..=8 {
            assert_eq!(mugi.gemm_cycles(&decode_proj_gemm(m)), batch_1, "batch {m}");
        }
        assert!(mugi.gemm_cycles(&decode_proj_gemm(16)) > batch_1);
    }

    #[test]
    fn mugi_roughly_doubles_sa_throughput_on_small_batch_gemm() {
        let mugi = Design::new(DesignConfig::mugi(256));
        let sa = Design::new(DesignConfig::systolic(16));
        let gemm = decode_proj_gemm(8);
        let ratio = sa.gemm_cycles(&gemm) as f64 / mugi.gemm_cycles(&gemm) as f64;
        assert!(ratio > 1.7 && ratio < 2.3, "ratio {ratio}");
    }

    #[test]
    fn vlp_gemm_energy_is_lower_than_mac_arrays() {
        let mugi = Design::new(DesignConfig::mugi(256));
        let sa = Design::new(DesignConfig::systolic(16));
        let sa_f = Design::new(DesignConfig::systolic_figna(16));
        let gemm = decode_proj_gemm(8);
        assert!(mugi.gemm_energy_pj(&gemm) < sa.gemm_energy_pj(&gemm));
        assert!(sa_f.gemm_energy_pj(&gemm) < sa.gemm_energy_pj(&gemm));
    }

    #[test]
    fn area_breakdown_matches_structure() {
        let mugi = Design::new(DesignConfig::mugi(256));
        let carat = Design::new(DesignConfig::carat(256));
        let mugi_l = Design::new(DesignConfig::mugi_l(256));
        // Carat pays much more FIFO area than Mugi at the same height.
        assert!(carat.area_breakdown().fifo_mm2 > 3.0 * mugi.area_breakdown().fifo_mm2);
        // Mugi-L pays for LUT hardware that Mugi does not need.
        assert!(mugi_l.area_breakdown().nonlinear_mm2 > mugi.area_breakdown().nonlinear_mm2);
        // Mugi has no dedicated nonlinear hardware at all.
        assert_eq!(mugi.area_breakdown().nonlinear_mm2, 0.0);
        // SRAM dominates the node area for all designs (as in the paper).
        assert!(mugi.area_breakdown().sram_mm2 / mugi.area_mm2() > 0.5);
    }

    #[test]
    fn node_areas_are_in_paper_ballpark() {
        // Table 3 on-chip areas: Mugi(128) 2.16, Mugi(256) 3.10, Carat(256)
        // 3.84, SA(16) 2.58 mm². We accept +-40% on absolutes.
        let area = |cfg| Design::new(cfg).area_mm2();
        let mugi128 = area(DesignConfig::mugi(128));
        let mugi256 = area(DesignConfig::mugi(256));
        let carat256 = area(DesignConfig::carat(256));
        let sa16 = area(DesignConfig::systolic(16));
        assert!(mugi128 > 1.3 && mugi128 < 3.0, "Mugi(128) {mugi128}");
        assert!(mugi256 > 1.8 && mugi256 < 4.3, "Mugi(256) {mugi256}");
        assert!(carat256 > mugi256, "Carat should exceed Mugi at the same height");
        assert!(sa16 > 1.5 && sa16 < 3.6, "SA(16) {sa16}");
    }

    #[test]
    fn mugi_area_scales_sublinearly_vs_systolic_quadratic() {
        let mugi_ratio = Design::new(DesignConfig::mugi(256)).area_breakdown().logic_mm2()
            / Design::new(DesignConfig::mugi(128)).area_breakdown().logic_mm2();
        let sa_ratio = Design::new(DesignConfig::systolic(32)).area_breakdown().logic_mm2()
            / Design::new(DesignConfig::systolic(16)).area_breakdown().logic_mm2();
        // Doubling Mugi's height roughly doubles logic; doubling a square
        // array's dimension roughly quadruples it.
        assert!(mugi_ratio < 2.3, "mugi ratio {mugi_ratio}");
        assert!(sa_ratio > 3.0, "sa ratio {sa_ratio}");
    }

    #[test]
    fn nonlinear_throughput_ordering_matches_figure_11() {
        let elements = 1_000_000u64;
        let mugi = Design::new(DesignConfig::mugi(128)).nonlinear_cycles(elements);
        let va_precise = Design::new(DesignConfig::vector_array(16, NonlinearMethod::Precise))
            .nonlinear_cycles(elements);
        let va_taylor = Design::new(DesignConfig::vector_array(16, NonlinearMethod::Taylor))
            .nonlinear_cycles(elements);
        let va_pwl = Design::new(DesignConfig::vector_array(16, NonlinearMethod::Pwl))
            .nonlinear_cycles(elements);
        // Mugi >> PWL > Taylor > precise in throughput (i.e. fewer cycles).
        assert!(mugi < va_pwl && va_pwl < va_taylor && va_taylor < va_precise);
        // Mugi vs precise vector array: the paper reports ~45x; accept 20–80x.
        let speedup = va_precise as f64 / mugi as f64;
        assert!(speedup > 20.0 && speedup < 80.0, "speedup {speedup}");
        // Mugi vs Taylor ~10x (accept 5–20), vs PWL ~5x (accept 2–10).
        let vs_taylor = va_taylor as f64 / mugi as f64;
        let vs_pwl = va_pwl as f64 / mugi as f64;
        assert!(vs_taylor > 5.0 && vs_taylor < 20.0, "vs taylor {vs_taylor}");
        assert!(vs_pwl > 2.0 && vs_pwl < 10.0, "vs pwl {vs_pwl}");
    }

    #[test]
    fn nonlinear_energy_ordering() {
        let elements = 100_000u64;
        let mugi = Design::new(DesignConfig::mugi(128)).nonlinear_energy_pj(elements);
        let precise = Design::new(DesignConfig::vector_array(16, NonlinearMethod::Precise))
            .nonlinear_energy_pj(elements);
        let taylor = Design::new(DesignConfig::vector_array(16, NonlinearMethod::Taylor))
            .nonlinear_energy_pj(elements);
        assert!(mugi < taylor && taylor < precise);
        assert!(precise / mugi > 50.0);
    }

    #[test]
    fn labels_and_predicates() {
        assert_eq!(DesignKind::Mugi.label(), "Mugi");
        assert_eq!(DesignConfig::mugi(256).label(), "Mugi (256)");
        assert!(DesignKind::Carat.is_vlp());
        assert!(!DesignKind::SystolicArray.is_vlp());
        assert!(DesignKind::VectorArrayPwl.is_vector_array());
        assert_eq!(NonlinearMethod::Taylor.label(), "Taylor");
        assert_eq!(DesignConfig::tensor_core().sram_kib, 1024.0);
    }

    #[test]
    fn leakage_positive_and_scales_with_size() {
        let small = Design::new(DesignConfig::mugi(32));
        let large = Design::new(DesignConfig::mugi(256));
        assert!(small.leakage_mw() > 0.0);
        assert!(large.leakage_mw() > small.leakage_mw());
    }

    #[test]
    fn tensor_core_has_highest_raw_throughput() {
        let tensor = Design::new(DesignConfig::tensor_core());
        let mugi = Design::new(DesignConfig::mugi(256));
        assert!(
            tensor.effective_macs_per_cycle(16, 8192) > mugi.effective_macs_per_cycle(16, 8192)
        );
        // But it needs a large batch to fill: at batch 8 it loses half.
        assert!(
            tensor.effective_macs_per_cycle(8, 8192) < tensor.effective_macs_per_cycle(16, 8192)
        );
    }

    #[test]
    #[should_panic(expected = "array dimensions must be non-zero")]
    fn zero_dimensions_rejected() {
        Design::new(DesignConfig { height: 0, ..DesignConfig::mugi(128) });
    }
}
