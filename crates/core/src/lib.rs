//! # mugi
//!
//! Facade crate of the Mugi reproduction (*Mugi: Value Level Parallelism For
//! Efficient LLMs*, ASPLOS 2026).
//!
//! It ties together the workspace crates into a user-facing API:
//!
//! * [`MugiAccelerator`] — a single-node Mugi instance that runs BF16–INT4
//!   GEMMs (dequantize-then-GEMM, priced by the `mugi-arch` model every
//!   figure reads), approximates nonlinear operations via VLP, and estimates
//!   latency / energy / area for full LLM workloads;
//! * [`experiments`] — one driver per table and figure of the paper's
//!   evaluation section, each with a `quick()` preset (seconds, used by tests)
//!   and a `full()` preset (used by the benchmark harness and EXPERIMENTS.md);
//! * [`report`] — small text-table helpers used by the drivers and the
//!   regeneration binaries.
//!
//! # Quickstart
//!
//! ```
//! use mugi::MugiAccelerator;
//! use mugi_numerics::tensor::pseudo_random_matrix;
//!
//! let accel = MugiAccelerator::new(256);
//! // A BF16–INT4 GEMM: the output and its cost on this node.
//! let activations = pseudo_random_matrix(8, 256, 1, 1.0);
//! let weights = accel.quantize_weights(&pseudo_random_matrix(512, 256, 2, 0.2));
//! let (output, cost) = accel.gemm(&activations, &weights);
//! assert_eq!((output.rows(), output.cols()), (8, 512));
//! assert!(cost.cycles > 0);
//! // Approximate a softmax on the VLP array.
//! let (probs, stats) = accel.softmax(&[0.3, -1.0, 2.0]);
//! assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-3);
//! assert_eq!(stats.elements, 3);
//! // Estimate decode throughput for Llama 2 70B with GQA, WOQ and KVQ.
//! let perf = accel.estimate_llm_throughput(
//!     mugi_workloads::models::ModelId::Llama2_70b, 8, 4096);
//! assert!(perf.tokens_per_second > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
mod memo;
pub mod report;

pub use mugi_approx as approx;
pub use mugi_arch as arch;
pub use mugi_carbon as carbon;
pub use mugi_numerics as numerics;
pub use mugi_vlp as vlp;
pub use mugi_workloads as workloads;

pub use crate::memo::shape_hash;
use crate::memo::ShapeCache;
use mugi_arch::designs::{Design, DesignConfig};
use mugi_arch::noc::NocConfig;
use mugi_arch::perf::{LayerCost, OpCost, PerfModel, WorkloadPerformance};
use mugi_numerics::nonlinear::NonlinearOp;
use mugi_numerics::quant::{weight_only_quantize, QuantizedMatrix};
use mugi_numerics::tensor::Matrix;
use mugi_vlp::approx::{ApproxStats, VlpApproxConfig, VlpNonlinear};
use mugi_workloads::models::ModelId;
use mugi_workloads::ops::{
    slice_ops, step_tokens, BatchSlice, GemmKind, GemmOp, WorkloadOp, SLICE_OPS,
};
use std::sync::{Arc, Mutex};

/// Key of the per-accelerator slice memo: one micro-batch slice on a model
/// under fixed quantization flags. Op costs do not depend on the NoC, which
/// only scales the folded totals, so one entry serves every mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct SliceKey {
    model: ModelId,
    slice: BatchSlice,
    woq: bool,
    kvq: bool,
}

/// The costs of one slice's layer operations, in op order.
type SliceCosts = [OpCost; SLICE_OPS];

/// Slices memoized per accelerator before the LRU half is evicted.
/// Long-stream continuous batching touches several thousand distinct slices
/// (decode widths × context buckets, prefill chunks), and an evicted slice
/// costs a fresh pricing of its eight ops to re-learn.
const SLICE_MEMO_CAP: usize = 16384;

/// A single-node Mugi accelerator: the paper's contribution wrapped in one
/// object that exposes functional execution (GEMM, nonlinear approximation)
/// and architectural estimation (throughput, energy, area, carbon).
///
/// Clones share the slice memo — the op costs of every micro-batch slice
/// estimated so far — so a serving runtime can hand clones to workers
/// without re-pricing them.
#[derive(Clone, Debug)]
pub struct MugiAccelerator {
    softmax_engine: VlpNonlinear,
    silu_engine: VlpNonlinear,
    gelu_engine: VlpNonlinear,
    /// The performance model of this node's design.
    perf: PerfModel,
    slice_memo: Arc<Mutex<ShapeCache<SliceKey, SliceCosts>>>,
}

impl MugiAccelerator {
    /// Creates a Mugi node with the given array height (32–256 in the paper)
    /// and the recommended VLP approximation windows.
    pub fn new(array_height: usize) -> Self {
        MugiAccelerator {
            softmax_engine: VlpNonlinear::with_array_rows(
                NonlinearOp::Softmax,
                VlpApproxConfig::recommended_for(NonlinearOp::Softmax),
                array_height,
            ),
            silu_engine: VlpNonlinear::with_array_rows(
                NonlinearOp::Silu,
                VlpApproxConfig::recommended_for(NonlinearOp::Silu),
                array_height,
            ),
            gelu_engine: VlpNonlinear::with_array_rows(
                NonlinearOp::Gelu,
                VlpApproxConfig::recommended_for(NonlinearOp::Gelu),
                array_height,
            ),
            perf: PerfModel::new(Design::new(DesignConfig::mugi(array_height))),
            slice_memo: Arc::new(Mutex::new(ShapeCache::with_cap(SLICE_MEMO_CAP))),
        }
    }

    /// The architectural configuration of this node.
    pub fn design_config(&self) -> &DesignConfig {
        self.perf.design().config()
    }

    /// Clock frequency of this node's cost model in Hz (used by the serving
    /// runtime to convert simulated cycles to wall-clock time).
    pub fn frequency_hz(&self) -> f64 {
        self.perf.design().cost_model().frequency_hz
    }

    /// Node area in mm² under the default cost model.
    pub fn area_mm2(&self) -> f64 {
        self.perf.design().area_mm2()
    }

    /// Quantizes a weight matrix for this accelerator (INT4 weight-only
    /// quantization with group size 128, the WOQ configuration of the paper).
    pub fn quantize_weights(&self, weights: &Matrix) -> QuantizedMatrix {
        weight_only_quantize(weights, 128)
    }

    /// Executes an asymmetric BF16–INT4 GEMM (`activations × weightsᵀ`, with
    /// `weights` a quantized `n×k` matrix) and returns the output with its
    /// cost on this node.
    ///
    /// VLP is exact for GEMM, so the output is dequantize-then-GEMM. The cost
    /// is the [`PerfModel::op_cost`] of the equivalent projection
    /// [`GemmOp`] (BF16 activations, INT4 weights, one repeat): the same
    /// model that prices every figure and serving step.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn gemm(&self, activations: &Matrix, weights: &QuantizedMatrix) -> (Matrix, OpCost) {
        let output = activations.matmul(&weights.dequantize().transpose());
        let op = GemmOp {
            kind: GemmKind::Projection,
            m: activations.rows(),
            k: activations.cols(),
            n: weights.rows(),
            activation_bits: 16,
            weight_bits: 4,
            repeats: 1,
        };
        (output, self.perf.op_cost(&WorkloadOp::Gemm(op)))
    }

    /// Approximates a softmax over `logits` using the VLP array.
    pub fn softmax(&self, logits: &[f32]) -> (Vec<f32>, ApproxStats) {
        self.softmax_engine.softmax(logits)
    }

    /// Approximates an element-wise activation (SiLU or GELU) on the VLP
    /// array.
    ///
    /// # Panics
    /// Panics if `op` is not SiLU or GELU.
    pub fn activation(&self, op: NonlinearOp, inputs: &[f32]) -> (Vec<f32>, ApproxStats) {
        match op {
            NonlinearOp::Silu => self.silu_engine.apply(inputs),
            NonlinearOp::Gelu => self.gelu_engine.apply(inputs),
            other => panic!("activation() expects SiLU or GELU, got {other:?}"),
        }
    }

    /// The op costs of one slice, priced and memoized on first use.
    fn slice_costs(&self, key: SliceKey) -> SliceCosts {
        let hash = shape_hash(&key);
        let hit = self.slice_memo.lock().expect("slice memo poisoned").get(hash, |k| *k == key);
        if let Some(costs) = hit {
            return costs;
        }
        // Price outside the lock, so a slice with a zero dimension panics
        // without poisoning the memo; a racing miss on the same slice
        // inserts the same pure-function result twice, harmlessly.
        let ops = slice_ops(&key.model.config(), key.slice, key.woq, key.kvq);
        let costs = ops.map(|op| self.perf.op_cost(&op));
        self.slice_memo
            .lock()
            .expect("slice memo poisoned")
            .insert(hash, key, costs, |k| *k == key);
        costs
    }

    /// Evaluates a micro-batch on `noc` by folding its slices' memoized op
    /// costs in op order — bit-identical to
    /// [`PerfModel::evaluate_noc`] on the composed
    /// [`OpTrace`](mugi_workloads::ops::OpTrace), without building one.
    fn estimate(
        &self,
        model: ModelId,
        slices: &[BatchSlice],
        woq: bool,
        kvq: bool,
        noc: NocConfig,
    ) -> WorkloadPerformance {
        assert!(!slices.is_empty(), "slices must be non-empty");
        let mut layer = LayerCost::default();
        for &slice in slices {
            for cost in &self.slice_costs(SliceKey { model, slice, woq, kvq }) {
                layer.add(cost);
            }
        }
        self.perf.evaluate_layer(&layer, model.config().layers, step_tokens(slices), noc)
    }

    /// Always 0: estimates fold memoized per-slice op costs and build no
    /// operator trace, so no trace cache exists. Kept for callers that
    /// still report it.
    pub fn trace_cache_entries(&self) -> usize {
        0
    }

    /// Number of micro-batch slices whose op costs are memoized (shared
    /// across clones).
    pub fn perf_cache_entries(&self) -> usize {
        self.slice_memo.lock().expect("slice memo poisoned").len()
    }

    /// Estimates decode throughput and efficiency for one of the paper's LLMs
    /// at the given batch size and context length (WOQ + KVQ enabled, as in
    /// the paper's main configuration). The slice's op costs are memoized,
    /// so repeated estimates — e.g. one per scheduler step — do not re-price
    /// it.
    pub fn estimate_llm_throughput(
        &self,
        model: ModelId,
        batch: usize,
        seq_len: usize,
    ) -> WorkloadPerformance {
        self.estimate_llm_throughput_noc(model, batch, seq_len, NocConfig::single())
    }

    /// Estimates throughput and efficiency on a multi-node NoC (op costs
    /// memoized as in
    /// [`estimate_llm_throughput`](Self::estimate_llm_throughput)).
    pub fn estimate_llm_throughput_noc(
        &self,
        model: ModelId,
        batch: usize,
        seq_len: usize,
        noc: NocConfig,
    ) -> WorkloadPerformance {
        self.estimate(model, &[BatchSlice::decode(batch, seq_len)], true, true, noc)
    }

    /// Evaluates one continuous-batching micro-batch — an arbitrary
    /// composition of decode slots and (chunked) prefill slices on `model` —
    /// under WOQ + KVQ, memoizing op costs per slice. This is the entry
    /// point the `mugi-runtime` executor drives once per scheduler step.
    ///
    /// # Panics
    /// Panics if `slices` is empty or contains a zero dimension.
    pub fn estimate_micro_batch(
        &self,
        model: ModelId,
        slices: &[BatchSlice],
    ) -> WorkloadPerformance {
        // `PerfModel::evaluate` is exactly `evaluate_noc` on the 1×1 mesh.
        self.estimate(model, slices, true, true, NocConfig::single())
    }

    /// Evaluates one continuous-batching micro-batch tiled across a NoC mesh
    /// of identical nodes (the paper's output-stationary multi-node
    /// dataflow): cycles shrink by the mesh's throughput multiplier while the
    /// NoC charges transfer energy for inter-node activation / accumulation
    /// movement. Op costs are memoized exactly as in
    /// [`estimate_micro_batch`](Self::estimate_micro_batch); with a 1×1 mesh
    /// the result is identical to the single-node estimate.
    ///
    /// # Panics
    /// Panics if `slices` is empty or contains a zero dimension.
    pub fn estimate_micro_batch_noc(
        &self,
        model: ModelId,
        slices: &[BatchSlice],
        noc: NocConfig,
    ) -> WorkloadPerformance {
        self.estimate(model, slices, true, true, noc)
    }

    /// The circuit-level cost model backing this node's estimates (used by
    /// the serving runtime to price NoC transfers between nodes).
    pub fn cost_model(&self) -> mugi_arch::cost::CostModel {
        *self.perf.design().cost_model()
    }
}

impl Default for MugiAccelerator {
    fn default() -> Self {
        MugiAccelerator::new(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi_numerics::tensor::pseudo_random_matrix;
    use mugi_workloads::ops::{OpTrace, Phase};
    use proptest::prelude::*;

    #[test]
    fn accelerator_end_to_end_smoke() {
        let accel = MugiAccelerator::new(128);
        let activations = pseudo_random_matrix(8, 64, 1, 1.0);
        let weights = pseudo_random_matrix(32, 64, 2, 0.5);
        let q = accel.quantize_weights(&weights);
        let (out, cost) = accel.gemm(&activations, &q);
        assert_eq!(out.rows(), 8);
        assert_eq!(out.cols(), 32);
        // The output is dequantize-then-GEMM, bit for bit.
        let reference = activations.matmul(&q.dequantize().transpose());
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&reference));
        // The cost is the arch model's price of the same projection GEMM.
        let op = GemmOp {
            kind: GemmKind::Projection,
            m: 8,
            k: 64,
            n: 32,
            activation_bits: 16,
            weight_bits: 4,
            repeats: 1,
        };
        let model = PerfModel::new(Design::new(*accel.design_config()));
        assert_eq!(cost, model.op_cost(&WorkloadOp::Gemm(op)));
        assert!(cost.cycles > 0);
        let (probs, _) = accel.softmax(&[0.5, -0.5, 1.5]);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-3);
        let (act, _) = accel.activation(NonlinearOp::Silu, &[1.0, -1.0]);
        assert_eq!(act.len(), 2);
        assert!(accel.area_mm2() > 0.0);
    }

    #[test]
    fn throughput_estimates_scale_with_noc() {
        let accel = MugiAccelerator::new(256);
        let single = accel.estimate_llm_throughput(ModelId::Llama2_70b, 8, 2048);
        let mesh =
            accel.estimate_llm_throughput_noc(ModelId::Llama2_70b, 8, 2048, NocConfig::mesh_4x4());
        assert!(mesh.tokens_per_second > single.tokens_per_second * 10.0);
    }

    #[test]
    #[should_panic(expected = "expects SiLU or GELU")]
    fn activation_rejects_softmax() {
        MugiAccelerator::new(64).activation(NonlinearOp::Softmax, &[0.0]);
    }

    #[test]
    fn slice_costs_are_memoized_per_slice() {
        let accel = MugiAccelerator::new(128);
        assert_eq!(accel.perf_cache_entries(), 0);
        let a = accel.estimate_llm_throughput(ModelId::Llama2_7b, 8, 2048);
        assert_eq!(accel.perf_cache_entries(), 1);
        // Same slice again: memo hit, identical result, no new entry.
        let b = accel.estimate_llm_throughput(ModelId::Llama2_7b, 8, 2048);
        assert_eq!(accel.perf_cache_entries(), 1);
        assert_eq!(a, b);
        // A different slice or model adds entries; clones share the memo.
        let clone = accel.clone();
        clone.estimate_llm_throughput(ModelId::Llama2_7b, 8, 4096);
        clone.estimate_llm_throughput(ModelId::Llama2_13b, 8, 2048);
        assert_eq!(accel.perf_cache_entries(), 3);
        // A micro-batch composed of memoized slices prices nothing new.
        let slices = [BatchSlice::decode(8, 4096), BatchSlice::decode(8, 2048)];
        accel.estimate_micro_batch(ModelId::Llama2_7b, &slices);
        assert_eq!(clone.perf_cache_entries(), 3);
    }

    #[test]
    fn micro_batch_estimate_matches_direct_evaluation() {
        let accel = MugiAccelerator::new(256);
        let slices = [BatchSlice::decode(8, 2048), BatchSlice::prefill(1, 128).with_kv_len(256)];
        let via_accel = accel.estimate_micro_batch(ModelId::Llama2_7b, &slices);
        let trace = OpTrace::generate_mixed(&ModelId::Llama2_7b.config(), &slices, true, true);
        let direct = PerfModel::new(Design::new(*accel.design_config())).evaluate(&trace);
        assert_eq!(via_accel, direct);
        // Repeating the micro-batch hits both slices' entries.
        assert_eq!(accel.estimate_micro_batch(ModelId::Llama2_7b, &slices), direct);
        assert_eq!(accel.perf_cache_entries(), 2);
    }

    #[test]
    fn clones_share_the_perf_memo_cache() {
        let accel = MugiAccelerator::new(128);
        let clone = accel.clone();
        assert_eq!(accel.perf_cache_entries(), 0);
        let via_clone = clone.estimate_llm_throughput(ModelId::Llama2_7b, 8, 1024);
        // The original observes the clone's insert (Arc-shared memo) and a
        // repeat estimate through it returns the bit-identical result.
        assert_eq!(accel.perf_cache_entries(), 1);
        let via_original = accel.estimate_llm_throughput(ModelId::Llama2_7b, 8, 1024);
        assert_eq!(via_clone, via_original);
        assert_eq!(accel.perf_cache_entries(), 1);
    }

    #[test]
    fn one_slice_entry_serves_every_noc() {
        let accel = MugiAccelerator::new(256);
        let slices = [BatchSlice::decode(8, 2048)];
        let single =
            accel.estimate_micro_batch_noc(ModelId::Llama2_7b, &slices, NocConfig::single());
        let mesh =
            accel.estimate_micro_batch_noc(ModelId::Llama2_7b, &slices, NocConfig::mesh_4x4());
        // Op costs do not depend on the NoC, so both meshes fold the same
        // memo entry and differ only in the final scaling.
        assert_eq!(accel.perf_cache_entries(), 1);
        assert!(mesh.tokens_per_second > single.tokens_per_second);
        let trace = OpTrace::generate_mixed(&ModelId::Llama2_7b.config(), &slices, true, true);
        let model = PerfModel::new(Design::new(*accel.design_config()));
        assert_eq!(single, model.evaluate_noc(&trace, NocConfig::single()));
        assert_eq!(mesh, model.evaluate_noc(&trace, NocConfig::mesh_4x4()));
        // The single-node convenience path is the `single()` estimate.
        assert_eq!(accel.estimate_micro_batch(ModelId::Llama2_7b, &slices), single);
        assert_eq!(accel.perf_cache_entries(), 1);
    }

    #[test]
    fn capped_slice_memo_keeps_its_hottest_slice() {
        // Regression for the wholesale-clear eviction bug: a steady-state
        // slice that hits between floods of cold one-off slices must survive
        // the cap, however many eviction rounds happen. A hit adds no entry
        // and a miss always changes the count, so an unchanged count after
        // estimating the hot slice proves it was still resident.
        let accel = MugiAccelerator::new(64);
        let cap = 32;
        accel.slice_memo.lock().unwrap().set_cap(cap);
        let hot = [BatchSlice::decode(16, 4096)];
        accel.estimate_micro_batch(ModelId::Llama2_7b, &hot);
        let hot_perf = accel.estimate_micro_batch(ModelId::Llama2_7b, &hot);
        for seq_len in 1..=4 * cap {
            accel.estimate_micro_batch(ModelId::Llama2_7b, &[BatchSlice::decode(1, seq_len)]);
            // Touch the hot slice every few cold inserts, like a scheduler
            // steadily stepping one resident batch shape.
            if seq_len % 8 == 0 {
                let before = accel.perf_cache_entries();
                assert_eq!(accel.estimate_micro_batch(ModelId::Llama2_7b, &hot), hot_perf);
                assert_eq!(
                    accel.perf_cache_entries(),
                    before,
                    "hot slice evicted after {seq_len} cold inserts"
                );
            }
        }
        assert!(accel.perf_cache_entries() <= cap);
    }

    #[test]
    #[should_panic(expected = "slices must be non-empty")]
    fn empty_micro_batch_rejected() {
        MugiAccelerator::new(64).estimate_micro_batch(ModelId::Llama2_7b, &[]);
    }

    #[test]
    fn zero_dimension_slice_panics_without_poisoning_the_memo() {
        let accel = MugiAccelerator::new(64);
        let bad = BatchSlice { batch: 0, ..BatchSlice::decode(1, 64) };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            accel.estimate_micro_batch(ModelId::Llama2_7b, &[bad])
        }));
        assert!(caught.is_err(), "a zero-batch slice must be rejected");
        assert_eq!(accel.perf_cache_entries(), 0);
        assert!(accel.estimate_llm_throughput(ModelId::Llama2_7b, 1, 64).tokens_per_second > 0.0);
    }

    prop_compose! {
        fn slice_strategy()(
            prefill in any::<bool>(),
            batch in 1usize..16,
            seq_len in 1usize..2048,
            extra_kv in 0usize..2048,
        ) -> BatchSlice {
            let phase = if prefill { Phase::Prefill } else { Phase::Decode };
            // `extra_kv > 0` attends to a cached prefix beyond the slice's
            // own tokens, as a chunked prefill does.
            BatchSlice::new(phase, batch, seq_len).with_kv_len(seq_len + extra_kv)
        }
    }

    /// Estimates `slices` on one node and on a 2×2 mesh, each checked bit
    /// for bit against evaluating the composed trace directly.
    fn check_against_trace(
        accel: &MugiAccelerator,
        model: ModelId,
        slices: &[BatchSlice],
        woq: bool,
        kvq: bool,
    ) -> Result<(), TestCaseError> {
        let trace = OpTrace::generate_mixed(&model.config(), slices, woq, kvq);
        let direct = PerfModel::new(Design::new(*accel.design_config()));
        for noc in [NocConfig::single(), NocConfig { rows: 2, cols: 2 }] {
            let folded = accel.estimate(model, slices, woq, kvq, noc);
            prop_assert_eq!(folded, direct.evaluate_noc(&trace, noc));
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn slice_folds_match_trace_evaluation(
            model in prop::sample::select(vec![
                ModelId::Llama2_7b,
                ModelId::Llama2_13b,
                ModelId::Llama2_70b,
            ]),
            slices in prop::collection::vec(slice_strategy(), 1..=20),
            woq in any::<bool>(),
            kvq in any::<bool>(),
        ) {
            let accel = MugiAccelerator::new(128);
            // Cold memo, then warm: the same bits either way.
            check_against_trace(&accel, model, &slices, woq, kvq)?;
            let memoized = accel.perf_cache_entries();
            check_against_trace(&accel, model, &slices, woq, kvq)?;
            // Reversed, the batch folds the same entries in another op
            // order and must still match its own trace.
            let reversed: Vec<BatchSlice> = slices.iter().rev().copied().collect();
            check_against_trace(&accel, model, &reversed, woq, kvq)?;
            prop_assert_eq!(accel.perf_cache_entries(), memoized);
        }
    }
}
