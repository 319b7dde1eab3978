//! Ablation experiments for Mugi's design choices (value-centric sliding
//! window, mantissa rounding width, buffer organisation), plus the
//! discussion-section extensions (Section 7.1): MoE workloads and HBM
//! bandwidth sensitivity. EXPERIMENTS.md's "Binary → paper artifact" table
//! lists them under the `ablation` binary.
//!
//! These go beyond the paper's figures: they quantify *why* each Mugi design
//! choice matters by removing it and re-measuring.

use crate::experiments::Preset;
use crate::report::{fmt_num, fmt_ratio, TextTable};
use mugi_arch::cost::CostModel;
use mugi_arch::designs::{Design, DesignConfig};
use mugi_arch::hbm::Hbm;
use mugi_arch::modules::FifoBank;
use mugi_arch::perf::PerfModel;
use mugi_numerics::error::rmse;
use mugi_numerics::nonlinear::NonlinearOp;
use mugi_vlp::approx::{VlpApproxConfig, VlpNonlinear, WindowStrategy};
use mugi_vlp::temporal::sweep_cycles;
use mugi_workloads::distributions::DistributionProfile;
use mugi_workloads::models::ModelId;
use mugi_workloads::moe::{generate_moe_trace, MoeConfig};
use mugi_workloads::ops::{OpTrace, Phase};
use serde::{Deserialize, Serialize};

/// One row of the sliding-window ablation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowAblationRow {
    /// Window placement description.
    pub window: String,
    /// RMSE of the exp approximation against the exact reference on profiled
    /// softmax inputs.
    pub rmse: f32,
    /// Fraction of inputs that fell outside the sliding window.
    pub out_of_window: f32,
}

/// Ablation: value-centric sliding window (adaptive / fixed / mis-placed).
pub fn ablation_window(preset: Preset) -> Vec<WindowAblationRow> {
    let samples = preset.profile_samples();
    let inputs = DistributionProfile::for_model(ModelId::Llama2_7b, NonlinearOp::Softmax, 0.5)
        .sample(samples, 77);
    let exact: Vec<f32> = inputs.iter().map(|&x| x.exp()).collect();
    let base = VlpApproxConfig::recommended_for(NonlinearOp::Exp);
    let configs = vec![
        ("adaptive (AnchorMax)".to_string(), base),
        (
            "fixed lo = -4".to_string(),
            VlpApproxConfig { strategy: WindowStrategy::Fixed(-4), ..base },
        ),
        (
            "fixed lo = 0".to_string(),
            VlpApproxConfig { strategy: WindowStrategy::Fixed(0), ..base },
        ),
        (
            "mis-placed lo = -12".to_string(),
            VlpApproxConfig {
                lut_min_exp: -14,
                lut_max_exp: -5,
                strategy: WindowStrategy::Fixed(-12),
                ..base
            },
        ),
    ];
    configs
        .into_iter()
        .map(|(label, cfg)| {
            let engine = VlpNonlinear::new(NonlinearOp::Exp, cfg);
            let (approx, stats) = engine.apply(&inputs);
            WindowAblationRow {
                window: label,
                rmse: rmse(&exact, &approx),
                out_of_window: (stats.underflows + stats.overflows) as f32 / inputs.len() as f32,
            }
        })
        .collect()
}

/// Renders the window ablation.
pub fn ablation_window_table(rows: &[WindowAblationRow]) -> TextTable {
    let mut t = TextTable::new(
        "Ablation — value-centric sliding window (exp on profiled softmax inputs)",
        &["window", "rmse", "out-of-window"],
    );
    for r in rows {
        t.add_row(vec![
            r.window.clone(),
            fmt_num(r.rmse as f64),
            format!("{:.1}%", r.out_of_window * 100.0),
        ]);
    }
    t
}

/// One row of the mantissa-width ablation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MantissaAblationRow {
    /// Mantissa bits kept by input approximation.
    pub bits: u8,
    /// Temporal sweep length in cycles (throughput cost).
    pub sweep_cycles: u64,
    /// RMSE of the SiLU approximation on profiled FFN inputs.
    pub rmse: f32,
}

/// Ablation: mantissa rounding width (accuracy vs sweep length).
pub fn ablation_mantissa(preset: Preset) -> Vec<MantissaAblationRow> {
    let samples = preset.profile_samples();
    let inputs = DistributionProfile::for_model(ModelId::Llama2_7b, NonlinearOp::Silu, 0.5)
        .sample(samples, 78);
    let exact: Vec<f32> = inputs.iter().map(|&x| mugi_numerics::nonlinear::silu(x)).collect();
    (2u8..=5)
        .map(|bits| {
            let cfg = VlpApproxConfig {
                mantissa_bits: bits,
                ..VlpApproxConfig::recommended_for(NonlinearOp::Silu)
            };
            let engine = VlpNonlinear::new(NonlinearOp::Silu, cfg);
            let (approx, _) = engine.apply(&inputs);
            MantissaAblationRow {
                bits,
                sweep_cycles: sweep_cycles(bits as u32),
                rmse: rmse(&exact, &approx),
            }
        })
        .collect()
}

/// Renders the mantissa ablation.
pub fn ablation_mantissa_table(rows: &[MantissaAblationRow]) -> TextTable {
    let mut t = TextTable::new(
        "Ablation — mantissa rounding width (SiLU accuracy vs temporal sweep length)",
        &["mantissa bits", "sweep cycles", "rmse"],
    );
    for r in rows {
        t.add_row(vec![r.bits.to_string(), r.sweep_cycles.to_string(), fmt_num(r.rmse as f64)]);
    }
    t
}

/// One row of the buffer-organisation ablation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BufferAblationRow {
    /// Array height.
    pub height: usize,
    /// Carat-style FIFO area (mm²).
    pub carat_mm2: f64,
    /// Mugi-style FIFO area (mm²).
    pub mugi_mm2: f64,
}

impl BufferAblationRow {
    /// Area reduction factor.
    pub fn reduction(&self) -> f64 {
        if self.mugi_mm2 > 0.0 {
            self.carat_mm2 / self.mugi_mm2
        } else {
            0.0
        }
    }
}

/// Ablation: buffer minimisation (broadcast + output-buffer leaning) versus
/// the Carat FIFO organisation, across array heights.
pub fn ablation_buffers(_preset: Preset) -> Vec<BufferAblationRow> {
    let cost = CostModel::default_45nm();
    [32usize, 64, 128, 256]
        .iter()
        .map(|&h| BufferAblationRow {
            height: h,
            carat_mm2: FifoBank::carat_style(h, 8, 16).area_mm2(&cost),
            mugi_mm2: FifoBank::mugi_style(h, 8, 16).area_mm2(&cost),
        })
        .collect()
}

/// Renders the buffer ablation.
pub fn ablation_buffers_table(rows: &[BufferAblationRow]) -> TextTable {
    let mut t = TextTable::new(
        "Ablation — buffer organisation (Carat FIFOs vs Mugi broadcast + leaned output buffer)",
        &["height", "carat mm2", "mugi mm2", "reduction"],
    );
    for r in rows {
        t.add_row(vec![
            r.height.to_string(),
            fmt_num(r.carat_mm2),
            fmt_num(r.mugi_mm2),
            fmt_ratio(r.reduction()),
        ]);
    }
    t
}

/// One row of the HBM-bandwidth sensitivity study.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BandwidthRow {
    /// Off-chip bandwidth in GB/s.
    pub bandwidth_gb_s: f64,
    /// Decode throughput in tokens/s.
    pub tokens_per_second: f64,
    /// Whether the workload became memory-bound.
    pub memory_bound: bool,
}

/// Extension study: sensitivity of Mugi (256) decode throughput to the
/// off-chip bandwidth (the paper fixes 256 GB/s and asserts compute-boundness;
/// this sweep finds where that assumption breaks).
pub fn ablation_bandwidth(preset: Preset) -> Vec<BandwidthRow> {
    let trace =
        OpTrace::generate(&ModelId::Llama2_70b.config(), Phase::Decode, 8, 4096, true, true);
    let bandwidths: Vec<f64> = match preset {
        Preset::Quick => vec![2.0, 64.0, 256.0],
        Preset::Full => vec![2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0],
    };
    bandwidths
        .into_iter()
        .map(|gb| {
            let design = Design::new(DesignConfig::mugi(256));
            let hbm = Hbm { bandwidth_bytes_per_s: gb * 1e9, energy_pj_per_byte: 7.0 };
            let model = PerfModel::with_hbm(design, hbm);
            let node = model.run_trace(&trace);
            let perf = model.evaluate(&trace);
            BandwidthRow {
                bandwidth_gb_s: gb,
                tokens_per_second: perf.tokens_per_second,
                memory_bound: node.memory_bound,
            }
        })
        .collect()
}

/// Renders the bandwidth sensitivity study.
pub fn ablation_bandwidth_table(rows: &[BandwidthRow]) -> TextTable {
    let mut t = TextTable::new(
        "Extension — HBM bandwidth sensitivity, Mugi (256), Llama 2 70B GQA decode",
        &["bandwidth GB/s", "tokens/s", "memory bound"],
    );
    for r in rows {
        t.add_row(vec![
            fmt_num(r.bandwidth_gb_s),
            fmt_num(r.tokens_per_second),
            r.memory_bound.to_string(),
        ]);
    }
    t
}

/// One row of the MoE extension study.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MoeRow {
    /// Design label.
    pub design: String,
    /// Dense decode throughput (tokens/s).
    pub dense_tokens_per_s: f64,
    /// MoE decode throughput (tokens/s).
    pub moe_tokens_per_s: f64,
    /// MoE / dense energy-per-token ratio.
    pub energy_ratio: f64,
}

/// Extension study (Section 7.1): MoE layers on Mugi vs the systolic baseline.
/// The conjecture is that Mugi's advantages carry over because the MoE layer
/// is still dominated by small-batch BF16-INT4 GEMMs plus softmax gating.
pub fn ablation_moe(_preset: Preset) -> Vec<MoeRow> {
    let dense_cfg = ModelId::Llama2_7b.config();
    let moe_cfg = MoeConfig { num_experts: 8, top_k: 2, expert_ffn_dim: dense_cfg.ffn_dim };
    let dense_trace = OpTrace::generate(&dense_cfg, Phase::Decode, 8, 4096, true, true);
    let moe_trace = generate_moe_trace(&dense_cfg, &moe_cfg, Phase::Decode, 8, 4096, true, true);
    [("Mugi (256)", DesignConfig::mugi(256)), ("SA (16)", DesignConfig::systolic(16))]
        .into_iter()
        .map(|(label, cfg)| {
            let model = PerfModel::new(Design::new(cfg));
            let dense = model.evaluate(&dense_trace);
            let moe = model.evaluate(&moe_trace);
            MoeRow {
                design: label.to_string(),
                dense_tokens_per_s: dense.tokens_per_second,
                moe_tokens_per_s: moe.tokens_per_second,
                energy_ratio: moe.energy_per_token_uj / dense.energy_per_token_uj.max(1e-30),
            }
        })
        .collect()
}

/// Renders the MoE extension study.
pub fn ablation_moe_table(rows: &[MoeRow]) -> TextTable {
    let mut t = TextTable::new(
        "Extension — MoE (8 experts, top-2) vs dense Llama 2 7B decode",
        &["design", "dense tok/s", "MoE tok/s", "MoE/dense energy per token"],
    );
    for r in rows {
        t.add_row(vec![
            r.design.clone(),
            fmt_num(r.dense_tokens_per_s),
            fmt_num(r.moe_tokens_per_s),
            fmt_ratio(r.energy_ratio),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_ablation_misplaced_window_is_much_worse() {
        let rows = ablation_window(Preset::Quick);
        let adaptive = rows.iter().find(|r| r.window.contains("adaptive")).unwrap();
        let misplaced = rows.iter().find(|r| r.window.contains("mis-placed")).unwrap();
        assert!(
            misplaced.rmse > 5.0 * adaptive.rmse,
            "adaptive {} misplaced {}",
            adaptive.rmse,
            misplaced.rmse
        );
        assert!(misplaced.out_of_window > adaptive.out_of_window);
        assert!(!ablation_window_table(&rows).is_empty());
    }

    #[test]
    fn mantissa_ablation_accuracy_improves_with_bits() {
        let rows = ablation_mantissa(Preset::Quick);
        assert_eq!(rows.len(), 4);
        for pair in rows.windows(2) {
            assert!(
                pair[1].rmse <= pair[0].rmse * 1.05,
                "{} bits {} vs {} bits {}",
                pair[0].bits,
                pair[0].rmse,
                pair[1].bits,
                pair[1].rmse
            );
            assert_eq!(pair[1].sweep_cycles, pair[0].sweep_cycles * 2);
        }
        assert!(!ablation_mantissa_table(&rows).is_empty());
    }

    #[test]
    fn buffer_ablation_matches_paper_scale() {
        let rows = ablation_buffers(Preset::Quick);
        let h128 = rows.iter().find(|r| r.height == 128).unwrap();
        assert!(h128.reduction() > 3.0 && h128.reduction() < 6.0);
        // Reduction grows with array height (Carat scales super-linearly).
        let h256 = rows.iter().find(|r| r.height == 256).unwrap();
        assert!(h256.reduction() > h128.reduction());
        assert!(!ablation_buffers_table(&rows).is_empty());
    }

    #[test]
    fn bandwidth_ablation_finds_memory_bound_knee() {
        let rows = ablation_bandwidth(Preset::Quick);
        // Lowest bandwidth is memory bound, highest is not, and throughput is
        // non-decreasing in bandwidth.
        assert!(rows.first().unwrap().memory_bound);
        assert!(!rows.last().unwrap().memory_bound);
        for pair in rows.windows(2) {
            assert!(pair[1].tokens_per_second >= pair[0].tokens_per_second * 0.999);
        }
        assert!(!ablation_bandwidth_table(&rows).is_empty());
    }

    #[test]
    fn moe_extension_preserves_mugi_advantage() {
        let rows = ablation_moe(Preset::Quick);
        let mugi = rows.iter().find(|r| r.design.starts_with("Mugi")).unwrap();
        let sa = rows.iter().find(|r| r.design.starts_with("SA")).unwrap();
        // Mugi stays faster on the MoE variant too.
        assert!(mugi.moe_tokens_per_s > sa.moe_tokens_per_s);
        // MoE costs more energy per token than dense on both designs (top-2
        // experts double the FFN work).
        assert!(mugi.energy_ratio > 1.2);
        assert!(sa.energy_ratio > 1.2);
        assert!(!ablation_moe_table(&rows).is_empty());
    }
}
