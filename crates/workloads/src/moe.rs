//! Mixture-of-Experts (MoE) workload extension.
//!
//! Section 7.1 of the paper conjectures that Mugi generalises to MoE models,
//! whose layers add a softmax-based gating network and replace the dense FFN
//! with `num_experts` expert FFNs of which each token activates `top_k`.
//! This module extends the operator-trace generator with that structure so the
//! architecture model can evaluate the conjecture: gating adds a small
//! projection plus a softmax, and the FFN GEMMs shrink to the expert width but
//! repeat per activated expert.

use crate::models::ModelConfig;
use crate::ops::{GemmKind, GemmOp, NonlinearTrace, OpTrace, Phase, WorkloadOp};

/// Configuration of an MoE extension applied on top of a dense model config.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MoeConfig {
    /// Total number of experts per layer.
    pub num_experts: usize,
    /// Number of experts activated per token.
    pub top_k: usize,
    /// Hidden dimension of each expert FFN (usually smaller than the dense
    /// FFN dimension).
    pub expert_ffn_dim: usize,
}

impl MoeConfig {
    /// A Mixtral-like configuration: 8 experts, top-2 routing, expert FFN as
    /// wide as the dense model's FFN.
    pub fn mixtral_like(dense: &ModelConfig) -> Self {
        MoeConfig { num_experts: 8, top_k: 2, expert_ffn_dim: dense.ffn_dim }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_experts == 0 {
            return Err("num_experts must be non-zero".to_string());
        }
        if self.top_k == 0 || self.top_k > self.num_experts {
            return Err(format!("top_k {} must be in 1..={}", self.top_k, self.num_experts));
        }
        if self.expert_ffn_dim == 0 {
            return Err("expert_ffn_dim must be non-zero".to_string());
        }
        Ok(())
    }
}

/// Generates the operator trace of one MoE transformer layer: the attention
/// half is identical to the dense model; the FFN half becomes a gating
/// projection + gating softmax + `top_k` expert FFNs per token.
///
/// # Panics
/// Panics if the MoE configuration is invalid or `batch`/`seq_len` is zero.
pub fn generate_moe_trace(
    model: &ModelConfig,
    moe: &MoeConfig,
    phase: Phase,
    batch: usize,
    seq_len: usize,
    woq: bool,
    kvq: bool,
) -> OpTrace {
    moe.validate().expect("invalid MoE configuration");
    let mut trace = OpTrace::generate(model, phase, batch, seq_len, woq, kvq);
    let rows = match phase {
        Phase::Prefill => batch * seq_len,
        Phase::Decode => batch,
    };
    let d = model.hidden_dim;
    let weight_bits = if woq { 4 } else { 16 };

    // Remove the dense FFN GEMMs and the dense FFN activation; keep the
    // attention part (projections, attention GEMMs, softmax) untouched.
    trace.layer_ops.retain(|op| match op {
        WorkloadOp::Gemm(g) => g.kind != GemmKind::Ffn,
        WorkloadOp::Nonlinear(n) => n.op == mugi_numerics::nonlinear::NonlinearOp::Softmax,
    });

    // Gating network: a d × num_experts projection plus a softmax over the
    // expert logits for every token.
    trace.layer_ops.push(WorkloadOp::Gemm(GemmOp {
        kind: GemmKind::Projection,
        m: rows,
        k: d,
        n: moe.num_experts,
        activation_bits: 16,
        weight_bits,
        repeats: 1,
    }));
    trace.layer_ops.push(WorkloadOp::Nonlinear(NonlinearTrace {
        op: mugi_numerics::nonlinear::NonlinearOp::Softmax,
        elements: (rows * moe.num_experts) as u64,
        row_len: moe.num_experts,
        repeats: 1,
    }));

    // Expert FFNs: each token runs top_k experts. Modelled as top_k smaller
    // FFN GEMMs over the full token rows (each expert sees rows/num_experts
    // tokens on average; total MAC work equals rows * top_k expert FFNs).
    let up_repeats = if model.gated_ffn { 2 } else { 1 };
    trace.layer_ops.push(WorkloadOp::Gemm(GemmOp {
        kind: GemmKind::Ffn,
        m: rows,
        k: d,
        n: moe.expert_ffn_dim,
        activation_bits: 16,
        weight_bits,
        repeats: up_repeats * moe.top_k,
    }));
    trace.layer_ops.push(WorkloadOp::Gemm(GemmOp {
        kind: GemmKind::Ffn,
        m: rows,
        k: moe.expert_ffn_dim,
        n: d,
        activation_bits: 16,
        weight_bits,
        repeats: moe.top_k,
    }));
    trace.layer_ops.push(WorkloadOp::Nonlinear(NonlinearTrace {
        op: model.ffn_activation(),
        elements: (rows * moe.expert_ffn_dim) as u64,
        row_len: 1,
        repeats: moe.top_k,
    }));
    trace
}

/// Total expert-weight parameters per MoE layer (for memory-footprint
/// comparisons: all experts must be resident even though only `top_k` run).
pub fn moe_layer_weight_params(model: &ModelConfig, moe: &MoeConfig) -> u64 {
    let d = model.hidden_dim as u64;
    let f = moe.expert_ffn_dim as u64;
    let per_expert = if model.gated_ffn { 3 * d * f } else { 2 * d * f };
    per_expert * moe.num_experts as u64 + d * moe.num_experts as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelId;
    use mugi_numerics::nonlinear::NonlinearOp;

    fn dense() -> ModelConfig {
        ModelId::Llama2_7b.config()
    }

    #[test]
    fn moe_trace_has_gating_and_expert_ffns() {
        let cfg = dense();
        let moe = MoeConfig { num_experts: 8, top_k: 2, expert_ffn_dim: cfg.ffn_dim };
        let trace = generate_moe_trace(&cfg, &moe, Phase::Decode, 8, 4096, true, true);
        // Two softmaxes now: attention plus gating.
        let softmax_count =
            trace.nonlinears().iter().filter(|n| n.op == NonlinearOp::Softmax).count();
        assert_eq!(softmax_count, 2);
        // Gating softmax rows are num_experts wide.
        assert!(trace.nonlinears().iter().any(|n| n.op == NonlinearOp::Softmax && n.row_len == 8));
        // Expert FFN GEMMs repeat top_k times (x2 for the gated up projection).
        let ffn = trace.gemms_of_kind(GemmKind::Ffn);
        assert_eq!(ffn.len(), 2);
        assert_eq!(ffn[0].repeats, 4);
        assert_eq!(ffn[1].repeats, 2);
    }

    #[test]
    fn top2_moe_ffn_macs_are_double_dense() {
        let cfg = dense();
        let moe = MoeConfig::mixtral_like(&cfg);
        let dense_trace = OpTrace::generate(&cfg, Phase::Decode, 8, 4096, true, true);
        let moe_trace = generate_moe_trace(&cfg, &moe, Phase::Decode, 8, 4096, true, true);
        let ffn_macs = |t: &OpTrace| -> u64 {
            t.gemms_of_kind(GemmKind::Ffn).iter().map(|g| g.total_macs()).sum()
        };
        // Top-2 routing with same-width experts executes ~2x the dense FFN
        // compute (plus the negligible gating projection).
        let ratio = ffn_macs(&moe_trace) as f64 / ffn_macs(&dense_trace) as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
        // Attention MACs are unchanged.
        let attn = |t: &OpTrace| -> u64 {
            t.gemms_of_kind(GemmKind::Attention).iter().map(|g| g.total_macs()).sum()
        };
        assert_eq!(attn(&dense_trace), attn(&moe_trace));
    }

    #[test]
    fn moe_weight_footprint_counts_all_experts() {
        let cfg = dense();
        let moe = MoeConfig { num_experts: 8, top_k: 2, expert_ffn_dim: cfg.ffn_dim };
        let params = moe_layer_weight_params(&cfg, &moe);
        // 8 experts x 3 x d x f for the gated FFN.
        let expected =
            8 * 3 * cfg.hidden_dim as u64 * cfg.ffn_dim as u64 + cfg.hidden_dim as u64 * 8;
        assert_eq!(params, expected);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(MoeConfig { num_experts: 0, top_k: 1, expert_ffn_dim: 1 }.validate().is_err());
        assert!(MoeConfig { num_experts: 4, top_k: 5, expert_ffn_dim: 1 }.validate().is_err());
        assert!(MoeConfig { num_experts: 4, top_k: 2, expert_ffn_dim: 0 }.validate().is_err());
        assert!(MoeConfig { num_experts: 4, top_k: 2, expert_ffn_dim: 64 }.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid MoE configuration")]
    fn generate_rejects_invalid_config() {
        let cfg = dense();
        let bad = MoeConfig { num_experts: 2, top_k: 3, expert_ffn_dim: 64 };
        let _ = generate_moe_trace(&cfg, &bad, Phase::Decode, 1, 16, true, true);
    }
}
