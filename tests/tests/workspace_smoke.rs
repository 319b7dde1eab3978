//! Workspace smoke test: asserts the quickstart path promised by the
//! `crates/core/src/lib.rs` crate docs (and `examples/quickstart.rs`) keeps
//! working — a softmax on the VLP array is a probability distribution and the
//! throughput estimator returns positive tokens/s.

use mugi::MugiAccelerator;
use mugi_numerics::tensor::pseudo_random_matrix;
use mugi_workloads::models::ModelId;

#[test]
fn quickstart_softmax_is_a_distribution() {
    let accel = MugiAccelerator::new(256);
    let (probs, stats) = accel.softmax(&[0.3, -1.0, 2.0]);
    assert_eq!(probs.len(), 3);
    assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-3, "softmax must sum to 1: {probs:?}");
    assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)), "probabilities in [0, 1]: {probs:?}");
    assert_eq!(stats.elements, 3);
}

#[test]
fn quickstart_throughput_estimate_is_positive() {
    let accel = MugiAccelerator::new(256);
    let perf = accel.estimate_llm_throughput(ModelId::Llama2_70b, 8, 4096);
    assert!(perf.tokens_per_second > 0.0, "tokens/s must be positive: {perf:?}");
}

#[test]
fn quickstart_gemm_matches_dense_reference() {
    let accel = MugiAccelerator::new(256);
    let activations = pseudo_random_matrix(8, 256, 1, 1.0);
    let weights = pseudo_random_matrix(512, 256, 2, 0.2);
    let quantized = accel.quantize_weights(&weights);
    let (output, cost) = accel.gemm(&activations, &quantized);
    let reference = activations.matmul(&quantized.dequantize().transpose());
    assert!(output.max_abs_diff(&reference) < 1e-3, "VLP GEMM must match the dense reference");
    assert!(cost.cycles > 0);
    assert!(accel.area_mm2() > 0.0);
}
