//! Static model configurations (Table 1 of the paper).
//!
//! The table lists, for every studied model: layer count, attention-head and
//! KV-head counts (GQA when they differ), attention hidden dimension, FFN
//! hidden dimension and the sequence lengths used. Vision/audio models
//! (Whisper, SwinV2, ViViT) use GELU in their FFN; Llama uses SiLU (the gated
//! SwiGLU form, which doubles the first FFN projection).

/// Model family, which determines which activation the FFN uses and how the
/// per-layer activation distributions drift (see [`crate::distributions`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Llama 2 decoder-only LLM (SiLU / SwiGLU FFN).
    Llama2,
    /// Whisper encoder-decoder speech model (GELU FFN).
    Whisper,
    /// SwinV2 hierarchical vision transformer (GELU FFN).
    SwinV2,
    /// ViViT video transformer (GELU FFN).
    ViViT,
}

/// Identifier for every concrete model studied in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// Llama 2 7B.
    Llama2_7b,
    /// Llama 2 13B.
    Llama2_13b,
    /// Llama 2 70B (grouped-query attention, group size 8).
    Llama2_70b,
    /// Whisper tiny.
    WhisperTiny,
    /// Whisper large.
    WhisperLarge,
    /// SwinV2 tiny.
    Swinv2Tiny,
    /// SwinV2 large.
    Swinv2Large,
    /// ViViT base.
    VivitBase,
}

impl ModelId {
    /// All models of Table 1.
    pub fn all() -> [ModelId; 8] {
        [
            ModelId::Llama2_7b,
            ModelId::Llama2_13b,
            ModelId::Llama2_70b,
            ModelId::WhisperTiny,
            ModelId::WhisperLarge,
            ModelId::Swinv2Tiny,
            ModelId::Swinv2Large,
            ModelId::VivitBase,
        ]
    }

    /// The Llama 2 models used in the architecture evaluation (Figures 11–17).
    pub fn llama_models() -> [ModelId; 3] {
        [ModelId::Llama2_7b, ModelId::Llama2_13b, ModelId::Llama2_70b]
    }

    /// Human-readable name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::Llama2_7b => "Llama 2 7B",
            ModelId::Llama2_13b => "Llama 2 13B",
            ModelId::Llama2_70b => "Llama 2 70B",
            ModelId::WhisperTiny => "Whisper Tiny",
            ModelId::WhisperLarge => "Whisper Large",
            ModelId::Swinv2Tiny => "SwinV2 Tiny",
            ModelId::Swinv2Large => "SwinV2 Large",
            ModelId::VivitBase => "ViViT Base",
        }
    }

    /// The static configuration of this model (Table 1).
    pub fn config(self) -> ModelConfig {
        match self {
            ModelId::Llama2_7b => ModelConfig {
                id: self,
                family: ModelFamily::Llama2,
                layers: 32,
                attention_heads: 32,
                kv_heads: 32,
                hidden_dim: 4096,
                ffn_dim: 11008,
                default_seq_len: 4096,
                vocab_size: 32000,
                gated_ffn: true,
            },
            ModelId::Llama2_13b => ModelConfig {
                id: self,
                family: ModelFamily::Llama2,
                layers: 40,
                attention_heads: 40,
                kv_heads: 40,
                hidden_dim: 5120,
                ffn_dim: 13824,
                default_seq_len: 4096,
                vocab_size: 32000,
                gated_ffn: true,
            },
            ModelId::Llama2_70b => ModelConfig {
                id: self,
                family: ModelFamily::Llama2,
                layers: 80,
                attention_heads: 64,
                kv_heads: 8,
                hidden_dim: 8192,
                ffn_dim: 28672,
                default_seq_len: 4096,
                vocab_size: 32000,
                gated_ffn: true,
            },
            ModelId::WhisperTiny => ModelConfig {
                id: self,
                family: ModelFamily::Whisper,
                layers: 4,
                attention_heads: 6,
                kv_heads: 6,
                hidden_dim: 384,
                ffn_dim: 1536,
                default_seq_len: 1500,
                vocab_size: 51865,
                gated_ffn: false,
            },
            ModelId::WhisperLarge => ModelConfig {
                id: self,
                family: ModelFamily::Whisper,
                layers: 32,
                attention_heads: 20,
                kv_heads: 20,
                hidden_dim: 1280,
                ffn_dim: 5120,
                default_seq_len: 1500,
                vocab_size: 51865,
                gated_ffn: false,
            },
            ModelId::Swinv2Tiny => ModelConfig {
                id: self,
                family: ModelFamily::SwinV2,
                layers: 12,
                attention_heads: 24,
                kv_heads: 24,
                hidden_dim: 768,
                ffn_dim: 3072,
                default_seq_len: 4096,
                vocab_size: 1000,
                gated_ffn: false,
            },
            ModelId::Swinv2Large => ModelConfig {
                id: self,
                family: ModelFamily::SwinV2,
                layers: 24,
                attention_heads: 48,
                kv_heads: 48,
                hidden_dim: 1536,
                ffn_dim: 6144,
                default_seq_len: 4096,
                vocab_size: 1000,
                gated_ffn: false,
            },
            ModelId::VivitBase => ModelConfig {
                id: self,
                family: ModelFamily::ViViT,
                layers: 12,
                attention_heads: 12,
                kv_heads: 12,
                hidden_dim: 768,
                ffn_dim: 3072,
                default_seq_len: 3136,
                vocab_size: 400,
                gated_ffn: false,
            },
        }
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Static configuration of one transformer model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Which model this is.
    pub id: ModelId,
    /// Model family (determines the FFN activation).
    pub family: ModelFamily,
    /// Number of transformer layers.
    pub layers: usize,
    /// Number of attention (query) heads.
    pub attention_heads: usize,
    /// Number of key/value heads; smaller than `attention_heads` under GQA.
    pub kv_heads: usize,
    /// Model (attention) hidden dimension.
    pub hidden_dim: usize,
    /// FFN hidden dimension.
    pub ffn_dim: usize,
    /// Default sequence length used in the evaluation.
    pub default_seq_len: usize,
    /// Vocabulary (or class) size, used for the LM head / classifier GEMM.
    pub vocab_size: usize,
    /// Whether the FFN is gated (SwiGLU-style, doubling the up projection).
    pub gated_ffn: bool,
}

impl ModelConfig {
    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden_dim / self.attention_heads
    }

    /// GQA group size: how many query heads share one KV head.
    pub fn gqa_group_size(&self) -> usize {
        self.attention_heads / self.kv_heads.max(1)
    }

    /// Whether the model uses grouped-query attention.
    pub fn uses_gqa(&self) -> bool {
        self.gqa_group_size() > 1
    }

    /// The FFN activation used by this family.
    pub fn ffn_activation(&self) -> mugi_numerics::nonlinear::NonlinearOp {
        match self.family {
            ModelFamily::Llama2 => mugi_numerics::nonlinear::NonlinearOp::Silu,
            _ => mugi_numerics::nonlinear::NonlinearOp::Gelu,
        }
    }

    /// Total weight parameter count of the transformer blocks (projections
    /// plus FFN), excluding embeddings. Used by the memory-traffic model.
    pub fn block_params(&self) -> u64 {
        let d = self.hidden_dim as u64;
        let f = self.ffn_dim as u64;
        let kv_dim = (self.head_dim() * self.kv_heads) as u64;
        // Q, O projections are d×d; K, V projections are d×kv_dim under GQA.
        let attn = d * d * 2 + d * kv_dim * 2;
        let ffn = if self.gated_ffn { 3 * d * f } else { 2 * d * f };
        (attn + ffn) * self.layers as u64
    }

    /// Approximate total parameter count including the embedding / LM head.
    pub fn total_params(&self) -> u64 {
        self.block_params() + 2 * (self.vocab_size as u64) * (self.hidden_dim as u64)
    }

    /// Size in bytes of the KV cache for `seq_len` cached tokens at
    /// `bits_per_value` precision.
    pub fn kv_cache_bytes(&self, seq_len: usize, bits_per_value: usize) -> u64 {
        let per_token = 2 * self.kv_heads as u64 * self.head_dim() as u64; // K and V
        per_token * seq_len as u64 * self.layers as u64 * bits_per_value as u64 / 8
    }

    /// Layers profiled in the paper's Figure 4 (first / middle / last).
    pub fn profiled_layers(&self) -> Vec<usize> {
        if self.layers <= 2 {
            (0..self.layers).collect()
        } else {
            vec![0, self.layers / 2, self.layers - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi_numerics::nonlinear::NonlinearOp;

    #[test]
    fn table1_shapes_are_consistent() {
        for id in ModelId::all() {
            let cfg = id.config();
            assert!(cfg.layers > 0);
            assert_eq!(cfg.hidden_dim % cfg.attention_heads, 0, "{id}: head dim must divide");
            assert!(cfg.kv_heads <= cfg.attention_heads);
            assert_eq!(cfg.attention_heads % cfg.kv_heads, 0, "{id}: GQA group must divide");
            assert!(cfg.ffn_dim > cfg.hidden_dim);
        }
    }

    #[test]
    fn llama70b_uses_gqa_group_of_8() {
        let cfg = ModelId::Llama2_70b.config();
        assert!(cfg.uses_gqa());
        assert_eq!(cfg.gqa_group_size(), 8);
        assert!(!ModelId::Llama2_7b.config().uses_gqa());
    }

    #[test]
    fn ffn_activation_by_family() {
        assert_eq!(ModelId::Llama2_7b.config().ffn_activation(), NonlinearOp::Silu);
        assert_eq!(ModelId::WhisperLarge.config().ffn_activation(), NonlinearOp::Gelu);
        assert_eq!(ModelId::Swinv2Tiny.config().ffn_activation(), NonlinearOp::Gelu);
        assert_eq!(ModelId::VivitBase.config().ffn_activation(), NonlinearOp::Gelu);
    }

    #[test]
    fn parameter_counts_are_in_the_right_ballpark() {
        // Llama 2 7B has ~6.7B parameters; our block count plus embeddings
        // should land within 15% of 7B.
        let p7 = ModelId::Llama2_7b.config().total_params() as f64 / 1e9;
        assert!(p7 > 5.8 && p7 < 7.5, "7B estimate {p7}");
        let p13 = ModelId::Llama2_13b.config().total_params() as f64 / 1e9;
        assert!(p13 > 11.0 && p13 < 14.5, "13B estimate {p13}");
        let p70 = ModelId::Llama2_70b.config().total_params() as f64 / 1e9;
        assert!(p70 > 60.0 && p70 < 75.0, "70B estimate {p70}");
        // Ordering is preserved.
        assert!(p7 < p13 && p13 < p70);
    }

    #[test]
    fn kv_cache_scales_with_precision_and_length() {
        let cfg = ModelId::Llama2_7b.config();
        let bf16 = cfg.kv_cache_bytes(4096, 16);
        let int4 = cfg.kv_cache_bytes(4096, 4);
        assert_eq!(bf16 / int4, 4);
        assert_eq!(cfg.kv_cache_bytes(2048, 16) * 2, bf16);
        // 7B KV cache at 4096 tokens in BF16 is about 2 GiB.
        let gib = bf16 as f64 / (1u64 << 30) as f64;
        assert!(gib > 1.5 && gib < 2.5, "KV cache {gib} GiB");
    }

    #[test]
    fn gqa_shrinks_kv_cache() {
        let mha = ModelId::Llama2_13b.config().kv_cache_bytes(4096, 16);
        let gqa = ModelId::Llama2_70b.config().kv_cache_bytes(4096, 16);
        // 70B has more layers and a bigger hidden dim, but only 8 KV heads of
        // 128 dims; its cache per layer is much smaller than 13B's.
        let mha_per_layer = mha / 40;
        let gqa_per_layer = gqa / 80;
        assert!(gqa_per_layer < mha_per_layer);
    }

    #[test]
    fn profiled_layers_cover_first_middle_last() {
        let cfg = ModelId::Llama2_7b.config();
        assert_eq!(cfg.profiled_layers(), vec![0, 16, 31]);
        let tiny = ModelId::WhisperTiny.config();
        assert_eq!(tiny.profiled_layers(), vec![0, 2, 3]);
    }

    #[test]
    fn display_names() {
        assert_eq!(ModelId::Llama2_70b.to_string(), "Llama 2 70B");
        assert_eq!(ModelId::all().len(), 8);
        assert_eq!(ModelId::llama_models().len(), 3);
    }
}
