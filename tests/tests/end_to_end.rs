//! End-to-end integration tests spanning every crate of the workspace: the
//! functional VLP pipeline, the architecture model, the experiment drivers and
//! the headline claims of the paper.

use mugi::experiments::accuracy::{best_perplexity, fig06_accuracy_sweep, Method};
use mugi::experiments::architecture::{evaluate_design, table3_end_to_end};
use mugi::experiments::sustainability::fig15_carbon;
use mugi::experiments::Preset;
use mugi::MugiAccelerator;
use mugi_arch::designs::{Design, DesignConfig};
use mugi_arch::noc::NocConfig;
use mugi_arch::perf::PerfModel;
use mugi_carbon::{footprint_for_tokens, CarbonModel};
use mugi_numerics::nonlinear::{softmax, NonlinearOp};
use mugi_numerics::tensor::pseudo_random_matrix;
use mugi_workloads::models::ModelId;
use mugi_workloads::ops::{OpTrace, Phase};

/// A full functional decode "attention step" built only from the public API:
/// WOQ projection GEMM, KVQ attention GEMM, VLP softmax, VLP SiLU — checked
/// against the exact reference at every stage.
#[test]
fn functional_attention_step_matches_reference_within_tolerance() {
    let accel = MugiAccelerator::new(128);
    // hidden = array height so the weight rows exactly fill the Mugi array.
    let hidden = 128usize;
    let seq = 32usize;
    let batch = 8usize;

    // Projection: activations (batch x hidden) x Wq^T (hidden x hidden).
    let activations = pseudo_random_matrix(batch, hidden, 1, 0.5);
    let wq = pseudo_random_matrix(hidden, hidden, 2, 0.2);
    let q_weights = accel.quantize_weights(&wq);
    let (queries, cost) = accel.gemm(&activations, &q_weights);
    assert_eq!(queries.rows(), batch);
    // Batch 8 fills the 8 Mugi columns: it costs no more cycles than one row.
    let (_, one_row) = accel.gemm(&pseudo_random_matrix(1, hidden, 1, 0.5), &q_weights);
    assert_eq!(cost.cycles, one_row.cycles, "batch 8 should fill the Mugi columns");
    let reference_q = activations.matmul(&q_weights.dequantize().transpose());
    assert!(queries.max_abs_diff(&reference_q) < 1e-4);

    // Attention scores against a quantized KV cache.
    let keys = pseudo_random_matrix(seq, hidden, 3, 0.2);
    let kv = mugi_numerics::quant::kv_cache_quantize(&keys, hidden);
    let (scores, _) = accel.gemm(&queries, &kv);
    assert_eq!(scores.cols(), seq);

    // VLP softmax per query row, compared with the exact softmax.
    for r in 0..scores.rows() {
        let (probs, _) = accel.softmax(scores.row(r));
        let exact = softmax(scores.row(r));
        let max_err = probs.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-3);
        assert!(max_err < 0.05, "row {r} max err {max_err}");
    }

    // FFN activation.
    let ffn_in: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) / 32.0).collect();
    let (silu_out, _) = accel.activation(NonlinearOp::Silu, &ffn_in);
    for (x, y) in ffn_in.iter().zip(&silu_out) {
        let exact = mugi_numerics::nonlinear::silu(*x);
        assert!((y - exact).abs() <= 0.08 * x.abs() + 0.15, "x={x} y={y} exact={exact}");
    }
}

/// The headline Table 3 claim: Mugi(256) beats SA(16) on Llama 2 70B (GQA) in
/// throughput, energy efficiency and power efficiency, and the NoC scales it.
#[test]
fn headline_table3_claims_hold() {
    let rows = table3_end_to_end(Preset::Quick);
    let get = |label: &str| rows.iter().find(|r| r.design == label).cloned().unwrap();
    let mugi = get("Mugi (256)");
    let sa = get("SA (16)");
    let carat = get("Carat (256)");
    assert!(mugi.tokens_per_second / sa.tokens_per_second > 1.5);
    assert!(mugi.tokens_per_uj / sa.tokens_per_uj > 1.8);
    assert!(mugi.tokens_per_s_per_w / sa.tokens_per_s_per_w > 1.0);
    // Mugi and Carat are throughput-comparable; Mugi is smaller and cheaper.
    assert!((mugi.tokens_per_second / carat.tokens_per_second - 1.0).abs() < 0.3);
    assert!(mugi.area_mm2 < carat.area_mm2);
    // NoC scaling.
    let noc = get("4x4 Mugi (256)");
    assert!(noc.tokens_per_second > mugi.tokens_per_second * 12.0);
}

/// The accuracy claim of Figure 6 on the proxy metric: the exact backend is
/// the floor and VLP is competitive with the best baseline.
#[test]
fn accuracy_ordering_holds_on_proxy_metric() {
    let rows = fig06_accuracy_sweep(Preset::Quick, ModelId::WhisperTiny);
    let exact = best_perplexity(&rows, Method::Exact).unwrap();
    let vlp = best_perplexity(&rows, Method::Vlp).unwrap();
    let pwl = best_perplexity(&rows, Method::Pwl).unwrap();
    let taylor = best_perplexity(&rows, Method::Taylor).unwrap();
    assert!(exact <= vlp + 1e-4);
    assert!(vlp <= pwl.min(taylor) * 1.2);
}

/// The sustainability claim of Figure 15: Mugi has the lowest total carbon.
#[test]
fn carbon_claim_holds() {
    let rows = fig15_carbon(Preset::Quick);
    for gqa in [false, true] {
        let subset: Vec<_> = rows.iter().filter(|r| r.gqa == gqa).collect();
        if subset.is_empty() {
            continue;
        }
        let mugi = subset.iter().find(|r| r.design == "Mugi (256)").unwrap();
        for r in &subset {
            assert!(
                r.norm_total() >= mugi.norm_total() - 1e-9,
                "{} beats Mugi on carbon",
                r.design
            );
        }
    }
}

/// WOQ + KVQ shrink memory footprint by ~4x without changing results beyond
/// the quantization error itself (cross-crate: numerics + workloads + arch).
#[test]
fn quantization_reduces_memory_and_preserves_throughput_model() {
    let cfg = ModelId::Llama2_7b.config();
    let full = OpTrace::generate(&cfg, Phase::Decode, 8, 4096, false, false);
    let quant = OpTrace::generate(&cfg, Phase::Decode, 8, 4096, true, true);
    assert_eq!(full.layer_weight_bytes() / quant.layer_weight_bytes(), 4);
    let design = Design::new(DesignConfig::mugi(256));
    let full_perf = PerfModel::new(design.clone()).evaluate(&full);
    let quant_perf = PerfModel::new(design).evaluate(&quant);
    // Quantization reduces energy per token (less SRAM/HBM traffic).
    assert!(quant_perf.energy_per_token_uj < full_perf.energy_per_token_uj);
}

/// The accelerator facade and the raw perf model agree.
#[test]
fn facade_matches_perf_model() {
    let accel = MugiAccelerator::new(256);
    let via_facade = accel.estimate_llm_throughput(ModelId::Llama2_70b, 8, 4096);
    let via_perf = evaluate_design(DesignConfig::mugi(256), ModelId::Llama2_70b, 8, 4096);
    assert!((via_facade.tokens_per_second - via_perf.tokens_per_second).abs() < 1e-9);
    let noc =
        accel.estimate_llm_throughput_noc(ModelId::Llama2_70b, 8, 4096, NocConfig::mesh_4x4());
    assert!(noc.tokens_per_second > via_facade.tokens_per_second);
}

/// Carbon accounting composes with any design and workload without panicking
/// and produces self-consistent totals.
#[test]
fn carbon_accounting_is_consistent() {
    let carbon = CarbonModel::default_act();
    let trace =
        OpTrace::generate(&ModelId::WhisperLarge.config(), Phase::Decode, 8, 1500, true, true);
    for cfg in [DesignConfig::mugi(128), DesignConfig::systolic(16), DesignConfig::tensor_core()] {
        let perf = PerfModel::new(Design::new(cfg)).evaluate(&trace);
        let fp = footprint_for_tokens(&carbon, &perf, 100_000);
        assert!(fp.operational_g > 0.0);
        assert!(fp.embodied_g > 0.0);
        assert!((fp.total_g() - fp.operational_g - fp.embodied_g).abs() < 1e-9);
    }
}
