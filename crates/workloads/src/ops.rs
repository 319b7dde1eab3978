//! Per-layer operator traces: the GEMMs and nonlinear operations a transformer
//! layer performs, with their shapes, for prefill and decode phases.
//!
//! The architecture model (`mugi-arch`) consumes these traces to estimate
//! latency, energy and utilization for every design in the paper's evaluation
//! (Figures 11–17, Table 3).

use crate::models::ModelConfig;

/// Inference phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Prefill: all prompt tokens processed at once (large GEMMs).
    Prefill,
    /// Decode: one new token per request (small-batch GEMMs / GEMVs).
    Decode,
}

/// Which logical part of the layer a GEMM belongs to, matching the latency
/// breakdown categories of Figures 15 and 16.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GemmKind {
    /// Q/K/V/O projections.
    Projection,
    /// Attention score (`QKᵀ`) and value (`PV`) GEMMs against the KV cache.
    Attention,
    /// FFN up/gate/down projections.
    Ffn,
}

impl GemmKind {
    /// Display label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            GemmKind::Projection => "Projection",
            GemmKind::Attention => "Attention",
            GemmKind::Ffn => "FFN",
        }
    }
}

/// One homogeneous slice of a (possibly mixed) micro-batch: `batch` requests
/// in the same phase sharing a token count and a KV-cache context length.
///
/// A classic trace is a single slice; a continuous-batching scheduler
/// composes several (decode slots plus chunked-prefill slices) and hands
/// them to [`OpTrace::generate_mixed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BatchSlice {
    /// Inference phase of every request in the slice.
    pub phase: Phase,
    /// Number of requests in the slice.
    pub batch: usize,
    /// Tokens processed per request this step: the prompt (or prompt-chunk)
    /// length for prefill, the attended context length for decode.
    pub seq_len: usize,
    /// KV-cache entries each request attends to. Equals `seq_len` for the
    /// classic whole-prompt traces; a chunked prefill slice attends to the
    /// previously cached prefix plus its own chunk, so `kv_len > seq_len`.
    pub kv_len: usize,
}

impl BatchSlice {
    /// A slice whose attended context equals its token count (the classic
    /// whole-prompt prefill / full-context decode case).
    ///
    /// # Panics
    /// Panics if `batch` or `seq_len` is zero.
    pub fn new(phase: Phase, batch: usize, seq_len: usize) -> Self {
        assert!(batch > 0, "batch must be non-zero");
        assert!(seq_len > 0, "seq_len must be non-zero");
        BatchSlice { phase, batch, seq_len, kv_len: seq_len }
    }

    /// A prefill slice: `batch` prompts of `seq_len` tokens each.
    pub fn prefill(batch: usize, seq_len: usize) -> Self {
        BatchSlice::new(Phase::Prefill, batch, seq_len)
    }

    /// A decode slice: `batch` requests each generating one token against a
    /// `context` entry KV cache.
    pub fn decode(batch: usize, context: usize) -> Self {
        BatchSlice::new(Phase::Decode, batch, context)
    }

    /// Overrides the attended KV-cache length (chunked prefill attends to the
    /// already-cached prefix as well as its own chunk).
    ///
    /// # Panics
    /// Panics if `kv_len` is zero.
    pub fn with_kv_len(mut self, kv_len: usize) -> Self {
        assert!(kv_len > 0, "kv_len must be non-zero");
        self.kv_len = kv_len;
        self
    }

    /// Tokens this slice processes in one step: `batch × seq_len` for
    /// prefill, one per request for decode.
    pub fn tokens(&self) -> usize {
        match self.phase {
            Phase::Prefill => self.batch * self.seq_len,
            Phase::Decode => self.batch,
        }
    }
}

/// A single GEMM operation `A (m×k) × B (k×n)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GemmOp {
    /// Which part of the layer this GEMM implements.
    pub kind: GemmKind,
    /// Rows of the activation operand (batch × tokens, or batch × group for
    /// GQA attention).
    pub m: usize,
    /// Shared (reduction) dimension.
    pub k: usize,
    /// Columns of the weight / KV operand.
    pub n: usize,
    /// Bits per element of the activation operand (16 for BF16).
    pub activation_bits: usize,
    /// Bits per element of the weight / KV operand (4 under WOQ / KVQ, 16
    /// otherwise).
    pub weight_bits: usize,
    /// How many times this exact GEMM repeats in the layer (e.g. once per
    /// attention head or per KV head).
    pub repeats: usize,
}

impl GemmOp {
    /// Multiply-accumulate count for one instance.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Total MACs including repeats.
    pub fn total_macs(&self) -> u64 {
        self.macs() * self.repeats as u64
    }

    /// Bytes of weight/KV operand traffic for one instance.
    pub fn weight_bytes(&self) -> u64 {
        (self.k as u64 * self.n as u64 * self.weight_bits as u64).div_ceil(8)
    }

    /// Bytes of activation operand traffic for one instance.
    pub fn activation_bytes(&self) -> u64 {
        (self.m as u64 * self.k as u64 * self.activation_bits as u64).div_ceil(8)
    }
}

/// A nonlinear operation applied element-wise (or row-wise for softmax).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NonlinearTrace {
    /// The operation.
    pub op: mugi_numerics::nonlinear::NonlinearOp,
    /// Number of elements processed.
    pub elements: u64,
    /// Row length for softmax (the normalisation dimension); 1 for
    /// element-wise activations.
    pub row_len: usize,
    /// How many times the op repeats in the layer.
    pub repeats: usize,
}

impl NonlinearTrace {
    /// Total element count including repeats.
    pub fn total_elements(&self) -> u64 {
        self.elements * self.repeats as u64
    }
}

/// One operation of a workload trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorkloadOp {
    /// A GEMM.
    Gemm(GemmOp),
    /// A nonlinear operation.
    Nonlinear(NonlinearTrace),
}

/// A full per-layer operator trace plus workload metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct OpTrace {
    /// The model configuration the trace was generated from.
    pub model: ModelConfig,
    /// Inference phase.
    pub phase: Phase,
    /// Batch size (number of concurrent requests).
    pub batch: usize,
    /// Sequence length (context length for decode, prompt length for prefill).
    pub seq_len: usize,
    /// Whether weights are INT4 (weight-only quantization).
    pub woq: bool,
    /// Whether the KV cache is INT4 (KV-cache quantization).
    pub kvq: bool,
    /// The micro-batch slices the trace was composed from (a single slice for
    /// the classic [`OpTrace::generate`] traces).
    pub slices: Vec<BatchSlice>,
    /// Operations of one transformer layer, in execution order.
    pub layer_ops: Vec<WorkloadOp>,
}

impl OpTrace {
    /// Generates the operator trace for one transformer layer of `model`.
    ///
    /// * In `Prefill`, every GEMM sees `batch × seq_len` activation rows.
    /// * In `Decode`, projections/FFN see `batch` rows; attention GEMMs run
    ///   against the cached `seq_len` keys/values. Under GQA the group of
    ///   query heads sharing a KV head forms a small-batch GEMM of
    ///   `batch × group` rows (the utilisation-critical case for Mugi).
    ///
    /// # Panics
    /// Panics if `batch` or `seq_len` is zero.
    pub fn generate(
        model: &ModelConfig,
        phase: Phase,
        batch: usize,
        seq_len: usize,
        woq: bool,
        kvq: bool,
    ) -> Self {
        Self::generate_mixed(model, &[BatchSlice::new(phase, batch, seq_len)], woq, kvq)
    }

    /// Generates the operator trace of one transformer layer for a *mixed*
    /// micro-batch: the concatenation of each slice's operations in slice
    /// order. This is what a continuous-batching scheduler feeds the
    /// performance model — decode slots for in-flight requests composed with
    /// chunked-prefill slices for newly admitted ones.
    ///
    /// Trace-level metadata aggregates over the slices: `batch` is the total
    /// request count, `seq_len` the longest slice, and `phase` is `Prefill`
    /// only when every slice is prefill (a mixed batch is decode-dominant by
    /// convention).
    ///
    /// # Panics
    /// Panics if `slices` is empty or any slice has a zero dimension.
    pub fn generate_mixed(
        model: &ModelConfig,
        slices: &[BatchSlice],
        woq: bool,
        kvq: bool,
    ) -> Self {
        assert!(!slices.is_empty(), "slices must be non-empty");
        let mut ops = Vec::with_capacity(slices.len() * SLICE_OPS);
        for slice in slices {
            ops.extend(slice_ops(model, *slice, woq, kvq));
        }
        let batch = slices.iter().map(|s| s.batch).sum();
        let seq_len = slices.iter().map(|s| s.seq_len).max().unwrap_or(0);
        let phase = if slices.iter().all(|s| s.phase == Phase::Prefill) {
            Phase::Prefill
        } else {
            Phase::Decode
        };
        OpTrace {
            model: *model,
            phase,
            batch,
            seq_len,
            woq,
            kvq,
            slices: slices.to_vec(),
            layer_ops: ops,
        }
    }

    /// Prompt tokens processed by one execution of this trace across its
    /// prefill slices.
    pub fn prefill_tokens(&self) -> usize {
        self.slices.iter().filter(|s| s.phase == Phase::Prefill).map(|s| s.tokens()).sum()
    }

    /// Tokens per step used for throughput accounting: the decode tokens of
    /// a mixed batch, or — for a pure-prefill trace — the number of prompts,
    /// preserving the historical prompts-per-second meaning of prefill
    /// throughput.
    pub fn tokens_per_step(&self) -> usize {
        step_tokens(&self.slices)
    }

    /// Total MACs across all GEMMs of one layer.
    pub fn layer_macs(&self) -> u64 {
        self.layer_ops
            .iter()
            .map(|op| match op {
                WorkloadOp::Gemm(g) => g.total_macs(),
                WorkloadOp::Nonlinear(_) => 0,
            })
            .sum()
    }

    /// Total weight bytes read per layer (each weight is read once per layer
    /// under an output-stationary dataflow with sufficient on-chip reuse).
    pub fn layer_weight_bytes(&self) -> u64 {
        self.layer_ops
            .iter()
            .map(|op| match op {
                WorkloadOp::Gemm(g) => g.weight_bytes() * g.repeats as u64,
                WorkloadOp::Nonlinear(_) => 0,
            })
            .sum()
    }

    /// GEMM ops of a given kind.
    pub fn gemms_of_kind(&self, kind: GemmKind) -> Vec<GemmOp> {
        self.layer_ops
            .iter()
            .filter_map(|op| match op {
                WorkloadOp::Gemm(g) if g.kind == kind => Some(*g),
                _ => None,
            })
            .collect()
    }

    /// Nonlinear traces of the layer.
    pub fn nonlinears(&self) -> Vec<NonlinearTrace> {
        self.layer_ops
            .iter()
            .filter_map(|op| match op {
                WorkloadOp::Nonlinear(n) => Some(*n),
                _ => None,
            })
            .collect()
    }
}

/// Operations one micro-batch slice contributes to each layer: the Q/O and
/// K/V projections, the score and value attention GEMMs, the softmax, the
/// FFN up (+ gate) and down GEMMs and the FFN activation — six GEMMs and two
/// nonlinears.
pub const SLICE_OPS: usize = 8;

/// Tokens per step used for throughput accounting of a micro-batch made of
/// `slices`: its decode tokens (one per decode request), or — when every
/// slice is prefill — the number of prompts, preserving the historical
/// prompts-per-second meaning of prefill throughput.
pub fn step_tokens(slices: &[BatchSlice]) -> usize {
    let decode: usize = slices.iter().filter(|s| s.phase == Phase::Decode).map(|s| s.batch).sum();
    if decode > 0 {
        decode
    } else {
        slices.iter().map(|s| s.batch).sum()
    }
}

/// The per-layer operations of one micro-batch slice, in execution order;
/// a mixed trace is the concatenation of its slices' operations.
///
/// * In `Prefill`, every GEMM sees `batch × seq_len` activation rows.
/// * In `Decode`, projections/FFN see `batch` rows; attention GEMMs run
///   against the `kv_len` cached keys/values. Under GQA the group of query
///   heads sharing a KV head forms a small-batch GEMM of `batch × group`
///   rows (the utilisation-critical case for Mugi).
///
/// # Panics
/// Panics if any dimension of `slice` is zero.
pub fn slice_ops(
    model: &ModelConfig,
    slice: BatchSlice,
    woq: bool,
    kvq: bool,
) -> [WorkloadOp; SLICE_OPS] {
    assert!(slice.batch > 0, "batch must be non-zero");
    assert!(slice.seq_len > 0, "seq_len must be non-zero");
    assert!(slice.kv_len > 0, "kv_len must be non-zero");
    let BatchSlice { phase, batch, seq_len, kv_len } = slice;
    let d = model.hidden_dim;
    let head_dim = model.head_dim();
    let kv_dim = head_dim * model.kv_heads;
    let f = model.ffn_dim;
    let weight_bits = if woq { 4 } else { 16 };
    let kv_bits = if kvq { 4 } else { 16 };
    let rows = match phase {
        Phase::Prefill => batch * seq_len,
        Phase::Decode => batch,
    };
    // Under GQA the group of query heads sharing a KV head forms the
    // attention activation rows.
    let group = model.gqa_group_size();
    let attn_rows = match phase {
        Phase::Prefill => batch * seq_len * group,
        Phase::Decode => batch * group,
    };
    // Softmax over the attention scores: one row of `kv_len` per query
    // head per token.
    let softmax_rows = match phase {
        Phase::Prefill => batch as u64 * seq_len as u64 * model.attention_heads as u64,
        Phase::Decode => batch as u64 * model.attention_heads as u64,
    };
    let up_repeats = if model.gated_ffn { 2 } else { 1 };
    let gemm = |kind, m, k, n, weight_bits, repeats| {
        WorkloadOp::Gemm(GemmOp { kind, m, k, n, activation_bits: 16, weight_bits, repeats })
    };

    [
        // --- Projections: Q and O (d × d), K and V (d × kv_dim) ----------
        gemm(GemmKind::Projection, rows, d, d, weight_bits, 2),
        gemm(GemmKind::Projection, rows, d, kv_dim, weight_bits, 2),
        // --- Attention: score (Q Kᵀ) and value (P V) GEMMs per KV head ---
        gemm(GemmKind::Attention, attn_rows, head_dim, kv_len, kv_bits, model.kv_heads),
        gemm(GemmKind::Attention, attn_rows, kv_len, head_dim, kv_bits, model.kv_heads),
        WorkloadOp::Nonlinear(NonlinearTrace {
            op: mugi_numerics::nonlinear::NonlinearOp::Softmax,
            elements: softmax_rows * kv_len as u64,
            row_len: kv_len,
            repeats: 1,
        }),
        // --- FFN: up (+ gate) and down projections, then the activation
        // applied to the up-projection output --------------------------
        gemm(GemmKind::Ffn, rows, d, f, weight_bits, up_repeats),
        gemm(GemmKind::Ffn, rows, f, d, weight_bits, 1),
        WorkloadOp::Nonlinear(NonlinearTrace {
            op: model.ffn_activation(),
            elements: rows as u64 * f as u64,
            row_len: 1,
            repeats: 1,
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelId;
    use mugi_numerics::nonlinear::NonlinearOp;

    #[test]
    fn decode_trace_has_expected_structure() {
        let cfg = ModelId::Llama2_7b.config();
        let trace = OpTrace::generate(&cfg, Phase::Decode, 8, 4096, true, true);
        assert_eq!(trace.gemms_of_kind(GemmKind::Projection).len(), 2);
        assert_eq!(trace.gemms_of_kind(GemmKind::Attention).len(), 2);
        assert_eq!(trace.gemms_of_kind(GemmKind::Ffn).len(), 2);
        let nl = trace.nonlinears();
        assert_eq!(nl.len(), 2);
        assert_eq!(nl[0].op, NonlinearOp::Softmax);
        assert_eq!(nl[1].op, NonlinearOp::Silu);
    }

    #[test]
    fn woq_and_kvq_shrink_weight_traffic() {
        let cfg = ModelId::Llama2_7b.config();
        let full = OpTrace::generate(&cfg, Phase::Decode, 8, 4096, false, false);
        let quant = OpTrace::generate(&cfg, Phase::Decode, 8, 4096, true, true);
        assert_eq!(full.layer_weight_bytes() / quant.layer_weight_bytes(), 4);
        // MAC counts are unchanged by quantization.
        assert_eq!(full.layer_macs(), quant.layer_macs());
    }

    #[test]
    fn prefill_macs_scale_with_sequence_length() {
        let cfg = ModelId::Llama2_7b.config();
        let short = OpTrace::generate(&cfg, Phase::Prefill, 1, 128, true, true);
        let long = OpTrace::generate(&cfg, Phase::Prefill, 1, 256, true, true);
        // Projection/FFN GEMMs scale linearly; attention quadratically, so the
        // total grows by a factor between 2 and 4.
        let ratio = long.layer_macs() as f64 / short.layer_macs() as f64;
        assert!(ratio > 2.0 && ratio < 4.0, "ratio {ratio}");
    }

    #[test]
    fn gqa_reduces_attention_kv_repeats() {
        let mha = ModelId::Llama2_13b.config();
        let gqa = ModelId::Llama2_70b.config();
        let mha_trace = OpTrace::generate(&mha, Phase::Decode, 8, 4096, true, true);
        let gqa_trace = OpTrace::generate(&gqa, Phase::Decode, 8, 4096, true, true);
        let mha_attn = &mha_trace.gemms_of_kind(GemmKind::Attention)[0];
        let gqa_attn = &gqa_trace.gemms_of_kind(GemmKind::Attention)[0];
        assert_eq!(mha_attn.repeats, 40);
        assert_eq!(gqa_attn.repeats, 8);
        // Under GQA the per-KV-head activation rows are batch × group = 64,
        // a small-batch GEMM instead of 40 separate batch-8 GEMVs.
        assert_eq!(gqa_attn.m, 8 * 8);
        assert_eq!(mha_attn.m, 8);
    }

    #[test]
    fn decode_attention_scales_with_context_not_batch_rows() {
        let cfg = ModelId::Llama2_7b.config();
        let t1 = OpTrace::generate(&cfg, Phase::Decode, 8, 1024, true, true);
        let t2 = OpTrace::generate(&cfg, Phase::Decode, 8, 2048, true, true);
        let a1: u64 = t1.gemms_of_kind(GemmKind::Attention).iter().map(|g| g.total_macs()).sum();
        let a2: u64 = t2.gemms_of_kind(GemmKind::Attention).iter().map(|g| g.total_macs()).sum();
        assert_eq!(a2, a1 * 2);
        // Projection MACs do not change with context length in decode.
        let p1: u64 = t1.gemms_of_kind(GemmKind::Projection).iter().map(|g| g.total_macs()).sum();
        let p2: u64 = t2.gemms_of_kind(GemmKind::Projection).iter().map(|g| g.total_macs()).sum();
        assert_eq!(p1, p2);
    }

    #[test]
    fn nonlinear_elements_track_ffn_and_softmax() {
        let cfg = ModelId::Llama2_7b.config();
        let trace = OpTrace::generate(&cfg, Phase::Decode, 8, 4096, true, true);
        let nl = trace.nonlinears();
        // Softmax: batch * heads rows of seq_len.
        assert_eq!(nl[0].total_elements(), 8 * 32 * 4096);
        // SiLU: batch rows of ffn_dim.
        assert_eq!(nl[1].total_elements(), 8 * 11008);
    }

    #[test]
    fn single_slice_trace_equals_generate() {
        let cfg = ModelId::Llama2_70b.config();
        let a = OpTrace::generate(&cfg, Phase::Decode, 8, 4096, true, true);
        let b = OpTrace::generate_mixed(&cfg, &[BatchSlice::decode(8, 4096)], true, true);
        assert_eq!(a, b);
        assert_eq!(a.slices, vec![BatchSlice::decode(8, 4096)]);
    }

    #[test]
    fn mixed_trace_concatenates_slices() {
        let cfg = ModelId::Llama2_7b.config();
        let decode = OpTrace::generate(&cfg, Phase::Decode, 8, 1024, true, true);
        let prefill = OpTrace::generate(&cfg, Phase::Prefill, 1, 256, true, true);
        let mixed = OpTrace::generate_mixed(
            &cfg,
            &[BatchSlice::decode(8, 1024), BatchSlice::prefill(1, 256)],
            true,
            true,
        );
        assert_eq!(mixed.layer_ops.len(), decode.layer_ops.len() + prefill.layer_ops.len());
        assert_eq!(mixed.layer_macs(), decode.layer_macs() + prefill.layer_macs());
        assert_eq!(mixed.batch, 9);
        assert_eq!(mixed.seq_len, 1024);
        assert_eq!(mixed.phase, Phase::Decode);
        assert_eq!(mixed.prefill_tokens(), 256);
        assert_eq!(mixed.tokens_per_step(), 8);
    }

    #[test]
    fn every_slice_contributes_slice_ops_operations() {
        let cfg = ModelId::Llama2_70b.config();
        let slices = [
            BatchSlice::decode(8, 1024),
            BatchSlice::prefill(1, 128).with_kv_len(512),
            BatchSlice::decode(3, 64),
        ];
        for k in 1..=slices.len() {
            let trace = OpTrace::generate_mixed(&cfg, &slices[..k], true, false);
            assert_eq!(trace.layer_ops.len(), SLICE_OPS * k);
            let last = slice_ops(&cfg, slices[k - 1], true, false);
            assert_eq!(trace.layer_ops[SLICE_OPS * (k - 1)..], last);
        }
    }

    #[test]
    fn pure_prefill_tokens_per_step_counts_prompts() {
        let cfg = ModelId::Llama2_7b.config();
        let trace = OpTrace::generate(&cfg, Phase::Prefill, 4, 512, true, true);
        assert_eq!(trace.prefill_tokens(), 4 * 512);
        assert_eq!(trace.tokens_per_step(), 4);
    }

    #[test]
    fn chunked_prefill_attends_to_cached_prefix() {
        let cfg = ModelId::Llama2_7b.config();
        let chunk = BatchSlice::prefill(1, 128).with_kv_len(512);
        let trace = OpTrace::generate_mixed(&cfg, &[chunk], true, true);
        let attn = trace.gemms_of_kind(GemmKind::Attention);
        // The score GEMM runs against the whole cached context.
        assert_eq!(attn[0].n, 512);
        assert_eq!(attn[0].m, 128 * cfg.gqa_group_size());
        // Projections only process the chunk's own tokens.
        assert_eq!(trace.gemms_of_kind(GemmKind::Projection)[0].m, 128);
        assert_eq!(trace.prefill_tokens(), 128);
    }

    #[test]
    #[should_panic(expected = "slices must be non-empty")]
    fn empty_slices_rejected() {
        let cfg = ModelId::Llama2_7b.config();
        let _ = OpTrace::generate_mixed(&cfg, &[], true, true);
    }

    #[test]
    #[should_panic(expected = "batch must be non-zero")]
    fn zero_batch_rejected() {
        let cfg = ModelId::Llama2_7b.config();
        let _ = OpTrace::generate(&cfg, Phase::Decode, 0, 128, true, true);
    }

    #[test]
    fn gemm_byte_accounting() {
        let g = GemmOp {
            kind: GemmKind::Projection,
            m: 8,
            k: 4096,
            n: 4096,
            activation_bits: 16,
            weight_bits: 4,
            repeats: 1,
        };
        assert_eq!(g.macs(), 8 * 4096 * 4096);
        assert_eq!(g.weight_bytes(), 4096 * 4096 / 2);
        assert_eq!(g.activation_bytes(), 8 * 4096 * 2);
        assert_eq!(GemmKind::Ffn.label(), "FFN");
    }
}
