//! Architecture-side experiments: Figures 11–14, 16 and Table 3.

use crate::experiments::{decode_trace, Preset};
use crate::report::{fmt_num, fmt_ratio, TextTable};
use mugi_arch::designs::{Design, DesignConfig, NonlinearMethod};
use mugi_arch::noc::NocConfig;
use mugi_arch::perf::{CategoryBreakdown, NonlinearPerformance, PerfModel, WorkloadPerformance};
use mugi_workloads::models::ModelId;

/// Geometric mean helper (the paper geomeans across Llama 2 models).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-30).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

// ---------------------------------------------------------------------------
// Figure 11: iso-area nonlinear comparison
// ---------------------------------------------------------------------------

/// One design's nonlinear performance at a given sequence length.
#[derive(Clone, Debug, PartialEq)]
pub struct NonlinearComparisonRow {
    /// Design label.
    pub design: String,
    /// Nonlinear op group ("SM" for softmax, "SiLU" for the activation).
    pub op: String,
    /// Sequence length.
    pub seq_len: usize,
    /// Raw metrics.
    pub perf: NonlinearPerformance,
    /// Throughput normalised to the precise vector array at the same seq len.
    pub norm_throughput: f64,
    /// Energy efficiency normalised to the precise vector array.
    pub norm_energy_eff: f64,
    /// Power efficiency normalised to the precise vector array.
    pub norm_power_eff: f64,
}

/// Figure 11: iso-area comparison of nonlinear throughput / energy efficiency
/// / power efficiency across sequence lengths, geometric-meaned across the
/// Llama 2 models, batch 8. All values are normalised to the 16-lane precise
/// vector array.
pub fn fig11_nonlinear_comparison(preset: Preset) -> Vec<NonlinearComparisonRow> {
    let designs: Vec<(String, DesignConfig)> = vec![
        ("Mugi (128)".into(), DesignConfig::mugi(128)),
        ("Mugi (256)".into(), DesignConfig::mugi(256)),
        ("Carat (128)".into(), DesignConfig::carat(128)),
        ("Carat (256)".into(), DesignConfig::carat(256)),
        ("VA-FP (16)".into(), DesignConfig::vector_array(16, NonlinearMethod::Precise)),
        ("VA-Taylor (16)".into(), DesignConfig::vector_array(16, NonlinearMethod::Taylor)),
        ("VA-PWL (16)".into(), DesignConfig::vector_array(16, NonlinearMethod::Pwl)),
    ];
    let batch = 8usize;
    let mut rows = Vec::new();
    for seq in preset.sequence_lengths() {
        for op_label in ["SM", "SiLU"] {
            // Element counts geomeaned across the Llama models.
            let element_counts: Vec<u64> = ModelId::llama_models()
                .iter()
                .map(|m| {
                    let cfg = m.config();
                    if op_label == "SM" {
                        (batch * cfg.attention_heads * seq) as u64
                    } else {
                        (batch * cfg.ffn_dim) as u64
                    }
                })
                .collect();
            // Baseline: precise vector array.
            let baseline_cfg = DesignConfig::vector_array(16, NonlinearMethod::Precise);
            let baseline = geo_nonlinear(&baseline_cfg, &element_counts);
            for (label, cfg) in &designs {
                let perf = geo_nonlinear(cfg, &element_counts);
                rows.push(NonlinearComparisonRow {
                    design: label.clone(),
                    op: op_label.to_string(),
                    seq_len: seq,
                    perf,
                    norm_throughput: perf.throughput_elements_per_s
                        / baseline.throughput_elements_per_s.max(1e-30),
                    norm_energy_eff: perf.elements_per_uj / baseline.elements_per_uj.max(1e-30),
                    norm_power_eff: perf.elements_per_s_per_w
                        / baseline.elements_per_s_per_w.max(1e-30),
                });
            }
        }
    }
    rows
}

fn geo_nonlinear(cfg: &DesignConfig, element_counts: &[u64]) -> NonlinearPerformance {
    let model = PerfModel::new(Design::new(*cfg));
    let perfs: Vec<NonlinearPerformance> =
        element_counts.iter().map(|&e| model.evaluate_nonlinear(e)).collect();
    NonlinearPerformance {
        cycles: perfs.iter().map(|p| p.cycles).sum::<u64>() / perfs.len().max(1) as u64,
        throughput_elements_per_s: geometric_mean(
            &perfs.iter().map(|p| p.throughput_elements_per_s).collect::<Vec<_>>(),
        ),
        elements_per_uj: geometric_mean(
            &perfs.iter().map(|p| p.elements_per_uj).collect::<Vec<_>>(),
        ),
        elements_per_s_per_w: geometric_mean(
            &perfs.iter().map(|p| p.elements_per_s_per_w).collect::<Vec<_>>(),
        ),
        area_mm2: perfs.first().map(|p| p.area_mm2).unwrap_or(0.0),
    }
}

/// Renders Figure 11 rows.
pub fn fig11_table(rows: &[NonlinearComparisonRow]) -> TextTable {
    let mut t = TextTable::new(
        "Figure 11 — iso-area nonlinear comparison (normalised to VA-FP 16)",
        &["design", "op", "seq", "norm tput", "norm energy eff", "norm power eff"],
    );
    for r in rows {
        t.add_row(vec![
            r.design.clone(),
            r.op.clone(),
            r.seq_len.to_string(),
            fmt_ratio(r.norm_throughput),
            fmt_ratio(r.norm_energy_eff),
            fmt_ratio(r.norm_power_eff),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 12: iso-area GEMM comparison per layer kind
// ---------------------------------------------------------------------------

/// One design's GEMM performance for one model and GEMM category.
#[derive(Clone, Debug, PartialEq)]
pub struct GemmComparisonRow {
    /// Design label.
    pub design: String,
    /// Model evaluated.
    pub model: ModelId,
    /// Whether this is the GQA variant of the model.
    pub gqa: bool,
    /// GEMM category ("Projection/FFN" or "Attention").
    pub category: String,
    /// Throughput normalised to the 16×16 systolic array.
    pub norm_throughput: f64,
    /// Energy efficiency normalised to the 16×16 systolic array.
    pub norm_energy_eff: f64,
    /// Power efficiency normalised to the 16×16 systolic array.
    pub norm_power_eff: f64,
}

/// The standard single-node design sweep used in Figures 12–16.
pub fn standard_designs() -> Vec<(String, DesignConfig)> {
    vec![
        ("Mugi (128)".into(), DesignConfig::mugi(128)),
        ("Mugi (256)".into(), DesignConfig::mugi(256)),
        ("Carat (128)".into(), DesignConfig::carat(128)),
        ("Carat (256)".into(), DesignConfig::carat(256)),
        ("SA (16)".into(), DesignConfig::systolic(16)),
        ("SA-F (16)".into(), DesignConfig::systolic_figna(16)),
        ("SD (16)".into(), DesignConfig::simd(16)),
        ("SD-F (16)".into(), DesignConfig::simd_figna(16)),
    ]
}

/// Figure 12: iso-area comparison of projection / attention / FFN GEMM
/// execution across Llama 2 models (batch 8, sequence 4096), normalised to
/// the 16×16 systolic array.
pub fn fig12_gemm_comparison(preset: Preset) -> Vec<GemmComparisonRow> {
    let seq = 4096usize;
    let batch = 8usize;
    let models: Vec<(ModelId, bool)> = match preset {
        Preset::Quick => vec![(ModelId::Llama2_7b, false), (ModelId::Llama2_70b, true)],
        Preset::Full => vec![
            (ModelId::Llama2_7b, false),
            (ModelId::Llama2_13b, false),
            (ModelId::Llama2_70b, false),
            (ModelId::Llama2_70b, true),
        ],
    };
    let mut rows = Vec::new();
    for (model, gqa) in models {
        let trace = decode_trace(model, batch, seq);
        for category in ["Projection/FFN", "Attention"] {
            let metrics = |cfg: &DesignConfig| -> (f64, f64, f64) {
                let design = Design::new(*cfg);
                let perf = PerfModel::new(design.clone());
                let node = perf.run_trace(&trace);
                let (cycles, energy) = match category {
                    "Attention" => {
                        (node.cycle_breakdown.attention, node.energy_breakdown.attention)
                    }
                    _ => (
                        node.cycle_breakdown.projection + node.cycle_breakdown.ffn,
                        node.energy_breakdown.projection + node.energy_breakdown.ffn,
                    ),
                };
                let runtime_s = cycles / design.cost_model().frequency_hz;
                let throughput = 1.0 / runtime_s.max(1e-30);
                let energy_eff = 1.0 / energy.max(1e-30);
                let power_eff = throughput / (energy * 1e-12 / runtime_s.max(1e-30)).max(1e-30);
                (throughput, energy_eff, power_eff)
            };
            let baseline = metrics(&DesignConfig::systolic(16));
            for (label, cfg) in standard_designs() {
                let m = metrics(&cfg);
                rows.push(GemmComparisonRow {
                    design: label,
                    model,
                    gqa,
                    category: category.to_string(),
                    norm_throughput: m.0 / baseline.0,
                    norm_energy_eff: m.1 / baseline.1,
                    norm_power_eff: m.2 / baseline.2,
                });
            }
        }
    }
    rows
}

/// Renders Figure 12 rows.
pub fn fig12_table(rows: &[GemmComparisonRow]) -> TextTable {
    let mut t = TextTable::new(
        "Figure 12 — iso-area GEMM comparison (normalised to SA 16)",
        &["design", "model", "GQA", "category", "norm tput", "norm energy eff", "norm power eff"],
    );
    for r in rows {
        t.add_row(vec![
            r.design.clone(),
            r.model.name().to_string(),
            r.gqa.to_string(),
            r.category.clone(),
            fmt_ratio(r.norm_throughput),
            fmt_ratio(r.norm_energy_eff),
            fmt_ratio(r.norm_power_eff),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 3: end-to-end single node / scaled-up / NoC comparison
// ---------------------------------------------------------------------------

/// One row of Table 3.
#[derive(Clone, Debug, PartialEq)]
pub struct EndToEndRow {
    /// Grouping ("SN", "SN-S" or "NoC").
    pub group: String,
    /// Design label (includes NoC shape when applicable).
    pub design: String,
    /// Tokens per second.
    pub tokens_per_second: f64,
    /// On-chip area in mm².
    pub area_mm2: f64,
    /// Energy efficiency (tokens per µJ, reported as in Table 3's
    /// Tokens/s/µJ normalised form).
    pub tokens_per_uj: f64,
    /// Power efficiency (tokens/s/W).
    pub tokens_per_s_per_w: f64,
}

/// Table 3: end-to-end comparison on Llama 2 70B with GQA, batch 8,
/// sequence 4096 — single node, scaled-up single node, and NoC groups.
pub fn table3_end_to_end(preset: Preset) -> Vec<EndToEndRow> {
    let trace = decode_trace(ModelId::Llama2_70b, 8, 4096);
    let mut rows = Vec::new();
    let mut push = |group: &str, label: String, cfg: DesignConfig, noc: NocConfig| {
        let perf = PerfModel::new(Design::new(cfg)).evaluate_noc(&trace, noc);
        rows.push(EndToEndRow {
            group: group.to_string(),
            design: label,
            tokens_per_second: perf.tokens_per_second,
            area_mm2: perf.area_mm2,
            tokens_per_uj: perf.tokens_per_uj,
            tokens_per_s_per_w: perf.tokens_per_s_per_w,
        });
    };

    // Single node.
    for (label, cfg) in standard_designs() {
        push("SN", label, cfg, NocConfig::single());
    }
    // Scaled-up single nodes and the tensor core.
    if preset == Preset::Full {
        let dim = 64usize;
        push("SN-S", format!("SA ({dim})"), DesignConfig::systolic(dim), NocConfig::single());
        push(
            "SN-S",
            format!("SA-F ({dim})"),
            DesignConfig::systolic_figna(dim),
            NocConfig::single(),
        );
        push("SN-S", format!("SD ({dim})"), DesignConfig::simd(dim), NocConfig::single());
        push("SN-S", format!("SD-F ({dim})"), DesignConfig::simd_figna(dim), NocConfig::single());
    }
    push("SN-S", "Tensor".to_string(), DesignConfig::tensor_core(), NocConfig::single());
    // NoC group.
    let mesh = NocConfig::mesh_4x4();
    push("NoC", "4x4 Mugi (256)".to_string(), DesignConfig::mugi(256), mesh);
    push("NoC", "4x4 Carat (256)".to_string(), DesignConfig::carat(256), mesh);
    push("NoC", "4x4 SA (16)".to_string(), DesignConfig::systolic(16), mesh);
    if preset == Preset::Full {
        push("NoC", "4x4 SA-F (16)".to_string(), DesignConfig::systolic_figna(16), mesh);
        push("NoC", "4x4 SD (16)".to_string(), DesignConfig::simd(16), mesh);
        push("NoC", "4x4 SD-F (16)".to_string(), DesignConfig::simd_figna(16), mesh);
        push(
            "NoC",
            "2x1 Tensor".to_string(),
            DesignConfig::tensor_core(),
            NocConfig { rows: 2, cols: 1 },
        );
    }
    rows
}

/// Renders Table 3 rows.
pub fn table3_table(rows: &[EndToEndRow]) -> TextTable {
    let mut t = TextTable::new(
        "Table 3 — end-to-end comparison, Llama 2 70B (GQA), batch 8, seq 4096",
        &["group", "design", "tokens/s", "area mm2", "tokens/uJ", "tokens/s/W"],
    );
    for r in rows {
        t.add_row(vec![
            r.group.clone(),
            r.design.clone(),
            fmt_num(r.tokens_per_second),
            fmt_num(r.area_mm2),
            fmt_num(r.tokens_per_uj),
            fmt_num(r.tokens_per_s_per_w),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 13: area and power breakdown
// ---------------------------------------------------------------------------

/// One design's area / power breakdown row.
#[derive(Clone, Debug, PartialEq)]
pub struct BreakdownRow {
    /// Design label.
    pub design: String,
    /// Component name (PE, TC, Acc, FIFO, Nonlinear, Vector, SRAM).
    pub component: String,
    /// Component area in mm².
    pub area_mm2: f64,
}

/// Figure 13: array-level area breakdown of the standard designs (plus
/// Mugi-L), matching the categories of the paper's stacked bars.
pub fn fig13_breakdown(_preset: Preset) -> Vec<BreakdownRow> {
    let mut designs = standard_designs();
    designs.push(("Mugi-L (256)".into(), DesignConfig::mugi_l(256)));
    let mut rows = Vec::new();
    for (label, cfg) in designs {
        let design = Design::new(cfg);
        let b = design.area_breakdown();
        for (component, area) in [
            ("PE", b.pe_mm2),
            ("TC", b.tc_mm2),
            ("Acc", b.accumulator_mm2),
            ("FIFO", b.fifo_mm2),
            ("Nonlinear", b.nonlinear_mm2),
            ("Vector", b.vector_mm2),
            ("SRAM", b.sram_mm2),
        ] {
            rows.push(BreakdownRow {
                design: label.clone(),
                component: component.to_string(),
                area_mm2: area,
            });
        }
    }
    rows
}

/// Renders Figure 13 rows.
pub fn fig13_table(rows: &[BreakdownRow]) -> TextTable {
    let mut t = TextTable::new(
        "Figure 13 — node area breakdown (mm²)",
        &["design", "component", "area mm2"],
    );
    for r in rows {
        t.add_row(vec![r.design.clone(), r.component.clone(), fmt_num(r.area_mm2)]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 14: batch-size sweep
// ---------------------------------------------------------------------------

/// One (design, batch, seq) point of the Figure 14 sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchSweepRow {
    /// Design label.
    pub design: String,
    /// Batch size.
    pub batch: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Normalised throughput (vs the 8×8 systolic array at batch 1).
    pub norm_throughput: f64,
    /// Normalised energy per token (vs the same baseline).
    pub norm_energy_per_token: f64,
}

/// Figure 14: throughput and energy-per-token versus batch size and sequence
/// length, geometric mean over the Llama 2 models, normalised to an 8×8
/// systolic array at batch 1.
pub fn fig14_batch_sweep(preset: Preset) -> Vec<BatchSweepRow> {
    let designs: Vec<(String, DesignConfig)> = vec![
        ("Mugi (64)".into(), DesignConfig::mugi(64)),
        ("Mugi (256)".into(), DesignConfig::mugi(256)),
        ("Carat (64)".into(), DesignConfig::carat(64)),
        ("Carat (256)".into(), DesignConfig::carat(256)),
        ("SA (8)".into(), DesignConfig::systolic(8)),
        ("SA (16)".into(), DesignConfig::systolic(16)),
        ("SA-F (16)".into(), DesignConfig::systolic_figna(16)),
        ("SD (16)".into(), DesignConfig::simd(16)),
    ];
    let models = match preset {
        Preset::Quick => vec![ModelId::Llama2_7b],
        Preset::Full => ModelId::llama_models().to_vec(),
    };
    let mut rows = Vec::new();
    for seq in preset.sequence_lengths() {
        // Baseline: SA 8x8 at batch 1.
        let baseline = geo_workload(&DesignConfig::systolic(8), &models, 1, seq);
        for (label, cfg) in &designs {
            for &batch in &preset.batch_sizes() {
                let perf = geo_workload(cfg, &models, batch, seq);
                rows.push(BatchSweepRow {
                    design: label.clone(),
                    batch,
                    seq_len: seq,
                    norm_throughput: perf.0 / baseline.0.max(1e-30),
                    norm_energy_per_token: perf.1 / baseline.1.max(1e-30),
                });
            }
        }
    }
    rows
}

fn geo_workload(cfg: &DesignConfig, models: &[ModelId], batch: usize, seq: usize) -> (f64, f64) {
    let perf_model = PerfModel::new(Design::new(*cfg));
    let perfs: Vec<WorkloadPerformance> =
        models.iter().map(|m| perf_model.evaluate(&decode_trace(*m, batch, seq))).collect();
    let tputs: Vec<f64> = perfs.iter().map(|p| p.tokens_per_second).collect();
    let energies: Vec<f64> = perfs.iter().map(|p| p.energy_per_token_uj).collect();
    (geometric_mean(&tputs), geometric_mean(&energies))
}

/// Renders Figure 14 rows.
pub fn fig14_table(rows: &[BatchSweepRow]) -> TextTable {
    let mut t = TextTable::new(
        "Figure 14 — batch-size sweep (normalised to SA 8x8 at batch 1)",
        &["design", "seq", "batch", "norm tput", "norm energy/token"],
    );
    for r in rows {
        t.add_row(vec![
            r.design.clone(),
            r.seq_len.to_string(),
            r.batch.to_string(),
            fmt_ratio(r.norm_throughput),
            fmt_ratio(r.norm_energy_per_token),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 16: latency breakdown
// ---------------------------------------------------------------------------

/// One design's normalised latency breakdown for one model.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyBreakdownRow {
    /// Design label.
    pub design: String,
    /// Model evaluated.
    pub model: ModelId,
    /// Whether GQA applies.
    pub gqa: bool,
    /// Cycle breakdown normalised to the Mugi (256) total for that model.
    pub normalized: CategoryBreakdown,
}

/// Figure 16: end-to-end latency breakdown per category, normalised to
/// Mugi (256)'s total for each model.
pub fn fig16_latency_breakdown(preset: Preset) -> Vec<LatencyBreakdownRow> {
    let models: Vec<(ModelId, bool)> = match preset {
        Preset::Quick => vec![(ModelId::Llama2_7b, false), (ModelId::Llama2_70b, true)],
        Preset::Full => vec![
            (ModelId::Llama2_7b, false),
            (ModelId::Llama2_13b, false),
            (ModelId::Llama2_70b, false),
            (ModelId::Llama2_70b, true),
        ],
    };
    let designs: Vec<(String, DesignConfig)> = vec![
        ("Mugi (256)".into(), DesignConfig::mugi(256)),
        ("Carat (256)".into(), DesignConfig::carat(256)),
        ("SA (16)".into(), DesignConfig::systolic(16)),
        ("Taylor VA".into(), DesignConfig::vector_array(16, NonlinearMethod::Taylor)),
        ("PWL VA".into(), DesignConfig::vector_array(16, NonlinearMethod::Pwl)),
    ];
    let mut rows = Vec::new();
    for (model, gqa) in models {
        let trace = decode_trace(model, 8, 4096);
        let mugi_total = PerfModel::new(Design::new(DesignConfig::mugi(256)))
            .run_trace(&trace)
            .cycle_breakdown
            .total();
        for (label, cfg) in &designs {
            let node = PerfModel::new(Design::new(*cfg)).run_trace(&trace);
            rows.push(LatencyBreakdownRow {
                design: label.clone(),
                model,
                gqa,
                normalized: node.cycle_breakdown.scale(1.0 / mugi_total.max(1e-30)),
            });
        }
    }
    rows
}

/// Renders Figure 16 rows.
pub fn fig16_table(rows: &[LatencyBreakdownRow]) -> TextTable {
    let mut t = TextTable::new(
        "Figure 16 — normalised end-to-end latency breakdown (vs Mugi 256 total)",
        &["design", "model", "GQA", "projection", "attention", "ffn", "nonlinear", "total"],
    );
    for r in rows {
        t.add_row(vec![
            r.design.clone(),
            r.model.name().to_string(),
            r.gqa.to_string(),
            fmt_num(r.normalized.projection),
            fmt_num(r.normalized.attention),
            fmt_num(r.normalized.ffn),
            fmt_num(r.normalized.nonlinear),
            fmt_num(r.normalized.total()),
        ]);
    }
    t
}

/// Convenience: end-to-end workload performance of one design on one model.
pub fn evaluate_design(
    cfg: DesignConfig,
    model: ModelId,
    batch: usize,
    seq: usize,
) -> WorkloadPerformance {
    PerfModel::new(Design::new(cfg)).evaluate(&decode_trace(model, batch, seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0, 9.0]) - 6.0).abs() < 1e-9);
        assert!((geometric_mean(&[5.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fig11_quick_shape_matches_paper() {
        let rows = fig11_nonlinear_comparison(Preset::Quick);
        assert!(!rows.is_empty());
        // Mugi (128) softmax throughput gain over VA-FP should be large
        // (paper: ~45x) and constant across sequence lengths.
        let mugi_sm: Vec<&NonlinearComparisonRow> =
            rows.iter().filter(|r| r.design == "Mugi (128)" && r.op == "SM").collect();
        assert!(mugi_sm.iter().all(|r| r.norm_throughput > 20.0));
        let first = mugi_sm[0].norm_throughput;
        assert!(mugi_sm.iter().all(|r| (r.norm_throughput - first).abs() / first < 0.2));
        // VA-FP rows are exactly 1.0 by construction.
        assert!(rows
            .iter()
            .filter(|r| r.design == "VA-FP (16)")
            .all(|r| (r.norm_throughput - 1.0).abs() < 1e-9));
        assert!(!fig11_table(&rows).is_empty());
    }

    #[test]
    fn fig12_quick_mugi_wins_projection_ffn() {
        let rows = fig12_gemm_comparison(Preset::Quick);
        let mugi_proj: Vec<&GemmComparisonRow> = rows
            .iter()
            .filter(|r| r.design == "Mugi (256)" && r.category == "Projection/FFN")
            .collect();
        assert!(mugi_proj.iter().all(|r| r.norm_throughput > 1.5), "{mugi_proj:?}");
        // SA(16) is the normalisation baseline.
        assert!(rows
            .iter()
            .filter(|r| r.design == "SA (16)")
            .all(|r| (r.norm_throughput - 1.0).abs() < 1e-9));
        assert!(!fig12_table(&rows).is_empty());
    }

    #[test]
    fn table3_quick_headline_ratios() {
        let rows = table3_end_to_end(Preset::Quick);
        let find = |label: &str| rows.iter().find(|r| r.design == label).unwrap();
        let mugi = find("Mugi (256)");
        let sa = find("SA (16)");
        let ratio = mugi.tokens_per_second / sa.tokens_per_second;
        assert!(ratio > 1.5 && ratio < 3.0, "throughput ratio {ratio}");
        assert!(mugi.tokens_per_uj > sa.tokens_per_uj * 1.8);
        // NoC rows scale throughput by roughly the node count.
        let noc_mugi = find("4x4 Mugi (256)");
        assert!(noc_mugi.tokens_per_second > mugi.tokens_per_second * 10.0);
        assert!(!table3_table(&rows).is_empty());
    }

    #[test]
    fn fig13_breakdown_structure() {
        let rows = fig13_breakdown(Preset::Quick);
        let total = |design: &str| -> f64 {
            rows.iter().filter(|r| r.design == design).map(|r| r.area_mm2).sum()
        };
        assert!(total("Carat (256)") > total("Mugi (256)"));
        assert!(total("Mugi-L (256)") > total("Mugi (256)"));
        let mugi_nl: f64 = rows
            .iter()
            .filter(|r| r.design == "Mugi (256)" && r.component == "Nonlinear")
            .map(|r| r.area_mm2)
            .sum();
        assert_eq!(mugi_nl, 0.0);
        assert!(!fig13_table(&rows).is_empty());
    }

    #[test]
    fn fig14_quick_mugi_saturates_at_batch_8() {
        let rows = fig14_batch_sweep(Preset::Quick);
        let get = |design: &str, batch: usize, seq: usize| {
            rows.iter()
                .find(|r| r.design == design && r.batch == batch && r.seq_len == seq)
                .map(|r| r.norm_throughput)
                .unwrap()
        };
        let seq = Preset::Quick.sequence_lengths()[0];
        // Mugi 256 gains little from batch 8 -> 32; SA 16 keeps gaining.
        let mugi_gain = get("Mugi (256)", 32, seq) / get("Mugi (256)", 8, seq);
        let sa_gain = get("SA (16)", 32, seq) / get("SA (16)", 8, seq);
        assert!(mugi_gain < 1.3, "mugi gain {mugi_gain}");
        assert!(sa_gain > 1.3, "sa gain {sa_gain}");
        assert!(!fig14_table(&rows).is_empty());
    }

    #[test]
    fn fig16_quick_nonlinear_share() {
        let rows = fig16_latency_breakdown(Preset::Quick);
        let mugi = rows.iter().find(|r| r.design == "Mugi (256)").unwrap();
        // Mugi's own total is 1.0 by normalisation.
        assert!((mugi.normalized.total() - 1.0).abs() < 1e-6);
        let sa = rows.iter().find(|r| r.design == "SA (16)" && r.model == mugi.model).unwrap();
        assert!(sa.normalized.total() > 1.4, "SA total {}", sa.normalized.total());
        // Mugi's nonlinear share is tiny.
        assert!(mugi.normalized.nonlinear < 0.05);
        assert!(!fig16_table(&rows).is_empty());
    }
}
