//! Per-module area / energy / leakage cost model.
//!
//! The paper obtains module metrics from 45 nm synthesis at 400 MHz plus
//! CACTI7 for memories. That toolchain is not available here, so this module
//! provides a documented constant table whose *ratios* follow the standard
//! circuit-level relationships every comparison in the evaluation relies on:
//!
//! * a VLP processing element has no multiplier (just a subscription latch,
//!   an AND gate and an OR-tree tap), so it is roughly an order of magnitude
//!   smaller and lower-energy than a floating-point MAC;
//! * FIGNA FP-INT PEs sit between integer and BF16 MACs;
//! * SRAM area/energy grow with capacity (CACTI-like square-root banking
//!   behaviour for area, linear for leakage);
//! * FIFOs cost area per bit of storage plus mux overhead, which is what makes
//!   Carat's per-row double-buffered FIFOs expensive at large array sizes.
//!
//! Every experiment reports *normalised* numbers, so only these ratios matter
//! for reproducing the paper's trends; the absolute values are calibrated to
//! land in the same order of magnitude as the paper's Figure 13 breakdowns.

use serde::{Deserialize, Serialize};

/// Technology / circuit constants used by every design model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Clock frequency in Hz (400 MHz in the paper).
    pub frequency_hz: f64,

    // --- Processing elements (area in mm^2, energy in pJ per operation) ----
    /// VLP PE: temporal-subscription latch + AND + OR tap + partial-sum wire.
    pub vlp_pe_area_mm2: f64,
    /// VLP PE energy per subscribed product.
    pub vlp_pe_energy_pj: f64,
    /// BF16 multiply-accumulate PE (systolic / SIMD baseline).
    pub mac_bf16_area_mm2: f64,
    /// Energy per BF16 MAC.
    pub mac_bf16_energy_pj: f64,
    /// FIGNA-style FP-INT PE (integer datapath preserving FP accuracy).
    pub figna_pe_area_mm2: f64,
    /// Energy per FIGNA FP-INT MAC.
    pub figna_pe_energy_pj: f64,
    /// INT4 multiply-accumulate (tensor-core style low-precision lane).
    pub mac_int_area_mm2: f64,
    /// Energy per INT MAC.
    pub mac_int_energy_pj: f64,

    // --- Support modules ---------------------------------------------------
    /// Temporal converter (counter compare + spike generation), per row.
    pub tc_area_mm2: f64,
    /// Energy per temporal conversion.
    pub tc_energy_pj: f64,
    /// Output accumulator (BF16 adder + register), per column.
    pub accumulator_area_mm2: f64,
    /// Energy per accumulation.
    pub accumulator_energy_pj: f64,
    /// FIFO storage cost per bit.
    pub fifo_area_mm2_per_bit: f64,
    /// FIFO energy per bit pushed or popped.
    pub fifo_energy_pj_per_bit: f64,
    /// Vector-array lane (BF16 multiplier + adder) for scaling/dequant/divide.
    pub vector_lane_area_mm2: f64,
    /// Energy per vector-lane operation.
    pub vector_lane_energy_pj: f64,
    /// Post-processing unit (special-value mux + sign conversion), per row.
    pub pp_area_mm2: f64,
    /// Energy per post-processing event.
    pub pp_energy_pj: f64,
    /// Comparator / segment-select logic for PWL, per lane.
    pub pwl_select_area_mm2: f64,
    /// Coefficient register file for Taylor, per lane.
    pub taylor_regs_area_mm2: f64,

    // --- Memories -----------------------------------------------------------
    /// SRAM area per KiB (CACTI-like 45 nm single-port estimate).
    pub sram_area_mm2_per_kb: f64,
    /// SRAM read/write energy per byte.
    pub sram_energy_pj_per_byte: f64,
    /// SRAM leakage per KiB in mW.
    pub sram_leakage_mw_per_kb: f64,
    /// Logic leakage per mm^2 of logic area in mW.
    pub logic_leakage_mw_per_mm2: f64,

    // --- Interconnect / off-chip --------------------------------------------
    /// NoC router + link area per node.
    pub noc_router_area_mm2: f64,
    /// NoC energy per byte per hop.
    pub noc_energy_pj_per_byte_hop: f64,
    /// HBM access energy per byte.
    pub hbm_energy_pj_per_byte: f64,
    /// HBM bandwidth in bytes per second (256 GB/s in the paper).
    pub hbm_bandwidth_bytes_per_s: f64,
}

impl CostModel {
    /// The default 45 nm / 400 MHz calibration used throughout the
    /// reproduction.
    pub fn default_45nm() -> Self {
        CostModel {
            frequency_hz: 400e6,
            vlp_pe_area_mm2: 9.0e-5,
            vlp_pe_energy_pj: 0.12,
            mac_bf16_area_mm2: 1.1e-3,
            mac_bf16_energy_pj: 1.3,
            figna_pe_area_mm2: 8.0e-4,
            figna_pe_energy_pj: 0.95,
            mac_int_area_mm2: 3.0e-4,
            mac_int_energy_pj: 0.4,
            tc_area_mm2: 1.2e-4,
            tc_energy_pj: 0.05,
            accumulator_area_mm2: 4.0e-4,
            accumulator_energy_pj: 0.45,
            fifo_area_mm2_per_bit: 1.4e-6,
            fifo_energy_pj_per_bit: 0.006,
            vector_lane_area_mm2: 1.4e-3,
            vector_lane_energy_pj: 1.6,
            pp_area_mm2: 1.0e-4,
            pp_energy_pj: 0.06,
            pwl_select_area_mm2: 6.0e-4,
            taylor_regs_area_mm2: 3.0e-4,
            sram_area_mm2_per_kb: 9.0e-3,
            sram_energy_pj_per_byte: 1.2,
            sram_leakage_mw_per_kb: 0.06,
            logic_leakage_mw_per_mm2: 55.0,
            noc_router_area_mm2: 0.12,
            noc_energy_pj_per_byte_hop: 0.9,
            hbm_energy_pj_per_byte: 7.0,
            hbm_bandwidth_bytes_per_s: 256e9,
        }
    }

    /// SRAM area for a capacity in KiB, with a mild super-linear banking term
    /// (CACTI shows decoder/periphery overheads growing with capacity).
    pub fn sram_area_mm2(&self, kib: f64) -> f64 {
        self.sram_area_mm2_per_kb * kib * (1.0 + 0.02 * (kib / 64.0).max(0.0))
    }

    /// SRAM leakage power in mW for a capacity in KiB.
    pub fn sram_leakage_mw(&self, kib: f64) -> f64 {
        self.sram_leakage_mw_per_kb * kib
    }

    /// Leakage power in mW for `logic_area` mm^2 of logic.
    pub fn logic_leakage_mw(&self, logic_area_mm2: f64) -> f64 {
        self.logic_leakage_mw_per_mm2 * logic_area_mm2
    }

    /// Converts a cycle count into seconds at the configured frequency.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.frequency_hz
    }

    /// Energy (J) from a picojoule total.
    pub fn pj_to_joules(pj: f64) -> f64 {
        pj * 1e-12
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::default_45nm()
    }
}

/// Nonlinear-method cycle costs on a baseline vector array (per element, per
/// lane). This table is the one place that knows the baselines' latencies:
/// the performance model reads it, and `mugi-approx` models only their values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NonlinearCycleCosts {
    /// Precise iterative implementation (Section 5.2.2: 44 cycles).
    pub precise: u64,
    /// Taylor series with Horner's rule (one MAC per degree, 9 degrees).
    pub taylor: u64,
    /// Piecewise-linear: comparator tree over 22 segments plus a MAC.
    pub pwl: u64,
    /// Direct LUT (Mugi-L): index + banked read.
    pub direct_lut: u64,
    /// VLP approximation steady-state cycles per mapping (the mantissa sweep).
    pub vlp_sweep: u64,
}

impl Default for NonlinearCycleCosts {
    fn default() -> Self {
        NonlinearCycleCosts { precise: 44, taylor: 9, pwl: 5, direct_lut: 1, vlp_sweep: 8 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_follow_circuit_intuition() {
        let c = CostModel::default_45nm();
        // A VLP PE is about an order of magnitude smaller and cheaper than a
        // BF16 MAC — the core of the paper's efficiency claim.
        assert!(c.mac_bf16_area_mm2 / c.vlp_pe_area_mm2 > 8.0);
        assert!(c.mac_bf16_energy_pj / c.vlp_pe_energy_pj > 8.0);
        // FIGNA sits between INT and BF16 MACs.
        assert!(c.figna_pe_area_mm2 < c.mac_bf16_area_mm2);
        assert!(c.figna_pe_area_mm2 > c.mac_int_area_mm2);
        assert!(c.figna_pe_energy_pj < c.mac_bf16_energy_pj);
    }

    #[test]
    fn sram_model_is_monotone_and_superlinear() {
        let c = CostModel::default_45nm();
        let a64 = c.sram_area_mm2(64.0);
        let a128 = c.sram_area_mm2(128.0);
        assert!(a128 > 2.0 * a64 * 0.99);
        assert!(a128 < 2.5 * a64);
        assert!(c.sram_leakage_mw(128.0) > c.sram_leakage_mw(64.0));
        // 192 KiB of on-chip SRAM (three 64 KiB buffers) is around 1.7–2 mm²,
        // in line with the paper's node areas being SRAM-dominated.
        let node_sram = c.sram_area_mm2(192.0);
        assert!(node_sram > 1.4 && node_sram < 2.4, "node SRAM {node_sram}");
    }

    #[test]
    fn time_and_energy_conversions() {
        let c = CostModel::default_45nm();
        assert!((c.cycles_to_seconds(400_000_000) - 1.0).abs() < 1e-9);
        assert!((CostModel::pj_to_joules(1e12) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nonlinear_cycle_costs_match_paper_baselines() {
        let n = NonlinearCycleCosts::default();
        assert_eq!(n.precise, 44);
        assert_eq!(n.taylor, 9);
        assert_eq!(n.pwl, 5);
        assert_eq!(n.direct_lut, 1);
        assert_eq!(n.vlp_sweep, 8);
    }

    #[test]
    fn leakage_scales_with_area() {
        let c = CostModel::default_45nm();
        assert!(c.logic_leakage_mw(2.0) > c.logic_leakage_mw(1.0));
        assert_eq!(c.logic_leakage_mw(0.0), 0.0);
    }
}
