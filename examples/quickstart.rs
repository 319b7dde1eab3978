//! Quickstart: build a Mugi node, run an asymmetric BF16-INT4 GEMM, a VLP
//! softmax and a SiLU approximation, and estimate LLM decode throughput.
//!
//! Run with: `cargo run --example quickstart`

use mugi::MugiAccelerator;
use mugi_numerics::nonlinear::{silu, softmax, NonlinearOp};
use mugi_numerics::tensor::pseudo_random_matrix;
use mugi_workloads::models::ModelId;

fn main() {
    // A single Mugi node with 256 array rows (the paper's largest
    // single-node configuration).
    let accel = MugiAccelerator::new(256);
    println!("Mugi (256) node area: {:.2} mm^2", accel.area_mm2());

    // 1. Asymmetric BF16-INT4 GEMM with weight-only quantization.
    let activations = pseudo_random_matrix(8, 256, 1, 1.0); // batch 8, K=256
    let weights = pseudo_random_matrix(512, 256, 2, 0.2); // 512 output features
    let quantized = accel.quantize_weights(&weights);
    let (output, cost) = accel.gemm(&activations, &quantized);
    println!(
        "GEMM 8x256x512 (dequantize-then-GEMM): {} compute cycles, {} HBM cycles, {:.1} nJ",
        cost.cycles,
        cost.hbm_cycles,
        (cost.energy_pj + cost.hbm_energy_pj) / 1e3
    );
    let reference = activations.matmul(&quantized.dequantize().transpose());
    println!("  max |output - reference| = {:.2e}", output.max_abs_diff(&reference));

    // 2. VLP softmax approximation.
    let logits = vec![1.2, -0.3, 0.8, 2.5, -1.0, 0.0, 0.4, 1.9];
    let (probs, approx_stats) = accel.softmax(&logits);
    let exact = softmax(&logits);
    let max_err = probs.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
    println!(
        "Softmax over {} logits in {} mapping(s): max error vs exact {:.4}",
        logits.len(),
        approx_stats.mappings,
        max_err
    );

    // 3. VLP SiLU approximation (the Llama FFN activation).
    let inputs = vec![-2.0, -0.5, 0.0, 0.5, 2.0];
    let (approx, _) = accel.activation(NonlinearOp::Silu, &inputs);
    for (x, y) in inputs.iter().zip(&approx) {
        println!("  SiLU({x:5.2}) ~= {y:7.4}   (exact {:7.4})", silu(*x));
    }

    // 4. Architectural estimate: Llama 2 70B (GQA) decode at batch 8.
    let perf = accel.estimate_llm_throughput(ModelId::Llama2_70b, 8, 4096);
    println!(
        "Llama 2 70B (GQA) decode @ batch 8, seq 4096: {:.2} tokens/s, {:.1} uJ/token, {:.2} W",
        perf.tokens_per_second, perf.energy_per_token_uj, perf.average_power_w
    );
}
