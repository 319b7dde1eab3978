//! Integration tests that run every experiment driver end to end on the quick
//! preset and sanity-check the shape of each result against the paper.

use mugi::experiments::accuracy::{
    fig04_profiling, fig04_table, fig07_per_layer_tuning, fig07_table, fig08_relative_error,
    fig08_table,
};
use mugi::experiments::architecture::{
    fig11_nonlinear_comparison, fig11_table, fig12_gemm_comparison, fig12_table, fig13_breakdown,
    fig13_table, fig14_batch_sweep, fig14_table, fig16_latency_breakdown, fig16_table,
    table3_end_to_end, table3_table,
};
use mugi::experiments::sustainability::{
    fig15_carbon, fig15_table, fig17_noc_scaling, fig17_table,
};
use mugi::experiments::Preset;
use mugi_workloads::models::ModelId;

#[test]
fn fig04_driver_runs_and_renders() {
    let rows = fig04_profiling(Preset::Quick);
    assert!(rows.len() >= 6);
    let table = fig04_table(&rows).render();
    assert!(table.contains("Figure 4"));
    assert!(table.contains("Llama 2 7B"));
}

#[test]
fn fig07_driver_improves_or_keeps_quality() {
    let trace = fig07_per_layer_tuning(Preset::Quick, ModelId::Llama2_7b);
    assert!(!trace.layers.is_empty());
    for pair in trace.layers.windows(2) {
        assert!(pair[1].quality <= pair[0].quality + 1e-5);
    }
    assert!(fig07_table(&trace).render().contains("Figure 7"));
}

#[test]
fn fig08_driver_covers_all_ops_and_methods() {
    let rows = fig08_relative_error(Preset::Quick);
    let methods: std::collections::BTreeSet<&str> =
        rows.iter().map(|r| r.method.as_str()).collect();
    for m in ["VLP", "PWL", "Taylor", "PA", "DirectLUT"] {
        assert!(methods.contains(m), "missing method {m}");
    }
    assert!(fig08_table(&rows).render().contains("Figure 8"));
}

#[test]
fn fig11_driver_mugi_dominates_vector_arrays() {
    let rows = fig11_nonlinear_comparison(Preset::Quick);
    for r in rows.iter().filter(|r| r.design.starts_with("Mugi")) {
        assert!(r.norm_throughput > 10.0, "{}: {}", r.design, r.norm_throughput);
        assert!(r.norm_energy_eff > 5.0);
    }
    assert!(fig11_table(&rows).render().contains("Figure 11"));
}

#[test]
fn fig12_driver_attention_vs_projection_shape() {
    let rows = fig12_gemm_comparison(Preset::Quick);
    // For the GQA model, Mugi's attention advantage is modest ("slightly
    // better") while projection/FFN roughly doubles.
    let proj = rows
        .iter()
        .find(|r| r.design == "Mugi (256)" && r.gqa && r.category == "Projection/FFN")
        .unwrap();
    let attn = rows
        .iter()
        .find(|r| r.design == "Mugi (256)" && r.gqa && r.category == "Attention")
        .unwrap();
    assert!(proj.norm_throughput > 1.5);
    assert!(attn.norm_throughput >= 0.9);
    assert!(proj.norm_throughput >= attn.norm_throughput * 0.9);
    assert!(fig12_table(&rows).render().contains("Figure 12"));
}

#[test]
fn table3_driver_group_structure() {
    let rows = table3_end_to_end(Preset::Quick);
    assert!(rows.iter().any(|r| r.group == "SN"));
    assert!(rows.iter().any(|r| r.group == "SN-S"));
    assert!(rows.iter().any(|r| r.group == "NoC"));
    // Areas are positive and the NoC group has the largest areas.
    let max_sn = rows.iter().filter(|r| r.group == "SN").map(|r| r.area_mm2).fold(0.0, f64::max);
    let min_noc =
        rows.iter().filter(|r| r.group == "NoC").map(|r| r.area_mm2).fold(f64::INFINITY, f64::min);
    assert!(min_noc > max_sn);
    assert!(table3_table(&rows).render().contains("Table 3"));
}

#[test]
fn fig13_driver_component_totals_match_design_totals() {
    let rows = fig13_breakdown(Preset::Quick);
    let mugi_total: f64 =
        rows.iter().filter(|r| r.design == "Mugi (256)").map(|r| r.area_mm2).sum();
    let direct =
        mugi_arch::designs::Design::new(mugi_arch::designs::DesignConfig::mugi(256)).area_mm2();
    assert!((mugi_total - direct).abs() / direct < 1e-9);
    assert!(fig13_table(&rows).render().contains("Figure 13"));
}

#[test]
fn fig14_driver_energy_per_token_falls_with_batch_for_mugi() {
    let rows = fig14_batch_sweep(Preset::Quick);
    let seq = Preset::Quick.sequence_lengths()[0];
    let e = |batch: usize| {
        rows.iter()
            .find(|r| r.design == "Mugi (256)" && r.batch == batch && r.seq_len == seq)
            .unwrap()
            .norm_energy_per_token
    };
    assert!(e(8) < e(1), "batch 8 should be more energy efficient than batch 1");
    assert!(fig14_table(&rows).render().contains("Figure 14"));
}

#[test]
fn fig15_and_fig17_drivers_render() {
    let rows = fig15_carbon(Preset::Quick);
    assert!(fig15_table(&rows).render().contains("Figure 15"));
    let rows = fig17_noc_scaling(Preset::Quick);
    assert!(fig17_table(&rows).render().contains("Figure 17"));
    // Mugi's NoC energy efficiency advantage persists at the mesh level.
    let mugi = rows.iter().find(|r| r.design == "Mugi (256)").unwrap();
    let sa = rows.iter().find(|r| r.design == "SA (16)").unwrap();
    assert!(mugi.norm_energy_eff > sa.norm_energy_eff);
}

#[test]
fn fig16_driver_nonlinear_negligible_on_mugi_visible_on_baselines() {
    let rows = fig16_latency_breakdown(Preset::Quick);
    let mugi = rows.iter().find(|r| r.design == "Mugi (256)" && !r.gqa).unwrap();
    let taylor = rows.iter().find(|r| r.design == "Taylor VA" && !r.gqa).unwrap();
    assert!(mugi.normalized.nonlinear < 0.05);
    assert!(taylor.normalized.nonlinear > mugi.normalized.nonlinear);
    assert!(fig16_table(&rows).render().contains("Figure 16"));
}
