//! The performance model: runs a `mugi-workloads` operator trace on a design
//! and reports latency, energy, throughput and per-category breakdowns.
//!
//! This is the layer that produces the numbers behind Figures 11–17 and
//! Table 3. Each operator of a transformer layer (GEMMs and nonlinear ops)
//! is priced on its own ([`PerfModel::op_cost`]); one in-order fold
//! ([`LayerCost`]) sets the layer's compute against its double-buffered
//! weight fetches from HBM, and the result is scaled to the full model and,
//! optionally, to a multi-node NoC.

#![cfg_attr(
    not(test),
    warn(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use crate::cost::CostModel;
use crate::designs::Design;
use crate::hbm::Hbm;
use crate::noc::NocConfig;
use mugi_numerics::cast::{u64_from_f64, u64_from_usize};
use mugi_workloads::ops::{GemmKind, OpTrace, WorkloadOp};
use serde::{Deserialize, Serialize};

/// Per-category cycle and energy breakdown, following Figures 15/16.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CategoryBreakdown {
    /// Projection GEMMs.
    pub projection: f64,
    /// Attention GEMMs.
    pub attention: f64,
    /// FFN GEMMs.
    pub ffn: f64,
    /// Nonlinear operations.
    pub nonlinear: f64,
}

impl CategoryBreakdown {
    /// Total across categories.
    pub fn total(&self) -> f64 {
        self.projection + self.attention + self.ffn + self.nonlinear
    }

    /// Scales every category by a constant.
    pub fn scale(&self, s: f64) -> Self {
        CategoryBreakdown {
            projection: self.projection * s,
            attention: self.attention * s,
            ffn: self.ffn * s,
            nonlinear: self.nonlinear * s,
        }
    }

    /// Adds `value` to a GEMM kind's category, or to `nonlinear` for `None`.
    fn add(&mut self, kind: Option<GemmKind>, value: f64) {
        match kind {
            Some(GemmKind::Projection) => self.projection += value,
            Some(GemmKind::Attention) => self.attention += value,
            Some(GemmKind::Ffn) => self.ffn += value,
            None => self.nonlinear += value,
        }
    }
}

/// What one operator costs on a design: its compute cycles and dynamic
/// energy, the HBM fetch double-buffered behind it, and the activation bytes
/// a multi-node NoC moves for it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpCost {
    /// Breakdown category: the GEMM's kind, or `None` for a nonlinear op.
    pub gemm_kind: Option<GemmKind>,
    /// Compute cycles.
    pub cycles: u64,
    /// Dynamic compute energy in pJ.
    pub energy_pj: f64,
    /// HBM cycles fetching the op's weights / KV (zero for nonlinear ops).
    pub hbm_cycles: u64,
    /// HBM energy in pJ of that fetch.
    pub hbm_energy_pj: f64,
    /// Activation bytes moved between nodes on a NoC (zero for nonlinear
    /// ops).
    pub noc_bytes: u64,
}

/// Running totals of one layer's [`OpCost`]s.
///
/// [`add`](Self::add) accumulates every float one op at a time, so the
/// totals depend on op order only: folding cached per-op costs in trace
/// order is bit-identical to pricing the trace afresh. Pre-summing a group
/// of ops would not be — `(a + b) + (c + d)` rounds differently from
/// `((a + b) + c) + d`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerCost {
    cycle_breakdown: CategoryBreakdown,
    energy_breakdown: CategoryBreakdown,
    compute_cycles: u64,
    memory_cycles: u64,
    hbm_energy_pj: f64,
    noc_bytes: u64,
}

impl LayerCost {
    /// Folds in the next op of the layer.
    pub fn add(&mut self, op: &OpCost) {
        self.cycle_breakdown.add(op.gemm_kind, op.cycles as f64);
        self.energy_breakdown.add(op.gemm_kind, op.energy_pj);
        self.compute_cycles += op.cycles;
        self.memory_cycles += op.hbm_cycles;
        // Exact for nonlinear ops: the total starts at +0.0 and only grows,
        // and `x + 0.0 == x` for every such `x`.
        self.hbm_energy_pj += op.hbm_energy_pj;
        self.noc_bytes += op.noc_bytes;
    }
}

/// Performance of one node running one full model forward pass (all layers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NodePerformance {
    /// Total cycles for the whole model (decode: one token step).
    pub total_cycles: u64,
    /// Per-category cycle breakdown.
    pub cycle_breakdown: CategoryBreakdown,
    /// Total dynamic energy in pJ.
    pub dynamic_energy_pj: f64,
    /// Per-category dynamic-energy breakdown (pJ).
    pub energy_breakdown: CategoryBreakdown,
    /// Leakage energy in pJ over the run.
    pub leakage_energy_pj: f64,
    /// Off-chip (HBM) energy in pJ.
    pub hbm_energy_pj: f64,
    /// Whether any layer was memory-bound rather than compute-bound.
    pub memory_bound: bool,
    /// Compute-resource utilization over the makespan (0..=1).
    pub compute_utilization: f64,
}

/// Workload-level performance (tokens per second, efficiency metrics), the
/// quantities reported in Table 3.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkloadPerformance {
    /// Tokens generated per second (decode) or prompts per second (prefill).
    pub tokens_per_second: f64,
    /// Total node (or NoC) area in mm².
    pub area_mm2: f64,
    /// Energy per token in µJ.
    pub energy_per_token_uj: f64,
    /// Energy efficiency in tokens per second per µJ (Table 3's
    /// Tokens/s/µJ column is equivalent to 1 / energy-per-token scaled by
    /// throughput normalisation; we report tokens per µJ of energy).
    pub tokens_per_uj: f64,
    /// Average power in W.
    pub average_power_w: f64,
    /// Power efficiency in tokens per second per W.
    pub tokens_per_s_per_w: f64,
    /// Nodes the workload was tiled across (1 for a single-node evaluation).
    pub nodes: usize,
    /// Cycles one step takes with the workload tiled across the mesh:
    /// `node.total_cycles` derated by the NoC throughput multiplier (rounded
    /// up, so equal to `node.total_cycles` on a single node). This is the
    /// step latency a serving runtime should advance its clock by.
    pub effective_cycles: u64,
    /// NoC transfer energy in pJ for inter-node activation / accumulation
    /// movement (zero on a single node).
    pub noc_energy_pj: f64,
    /// Total energy in pJ across all nodes for one step: dynamic + HBM +
    /// leakage (scaled by node count) + NoC transfer.
    pub total_energy_pj: f64,
    /// Single-node performance the workload numbers were derived from.
    pub node: NodePerformance,
}

/// The performance model: one design plus its memory system.
#[derive(Clone, Debug)]
pub struct PerfModel {
    design: Design,
    hbm: Hbm,
}

impl PerfModel {
    /// Creates a performance model for `design` with the paper's HBM.
    pub fn new(design: Design) -> Self {
        let hbm = Hbm::paper_default(design.cost_model());
        PerfModel { design, hbm }
    }

    /// Creates a performance model with an explicit HBM configuration (used by
    /// the bandwidth-sensitivity ablation and to study memory-bound regimes).
    pub fn with_hbm(design: Design, hbm: Hbm) -> Self {
        PerfModel { design, hbm }
    }

    /// The design being modelled.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// What `op` costs on this design. Independent of the NoC, which only
    /// scales the folded totals, so a caller may cache op costs and fold
    /// them for any mesh.
    pub fn op_cost(&self, op: &WorkloadOp) -> OpCost {
        match op {
            WorkloadOp::Gemm(gemm) => {
                // Weight / KV fetch from HBM (double buffered, so it only
                // matters if it exceeds the compute time).
                let bytes = gemm.weight_bytes() * u64_from_usize(gemm.repeats);
                OpCost {
                    gemm_kind: Some(gemm.kind),
                    cycles: self.design.gemm_cycles(gemm),
                    energy_pj: self.design.gemm_energy_pj(gemm),
                    hbm_cycles: self
                        .hbm
                        .transfer_cycles(bytes, self.design.cost_model().frequency_hz),
                    hbm_energy_pj: self.hbm.transfer_energy_pj(bytes),
                    noc_bytes: gemm.activation_bytes() * u64_from_usize(gemm.repeats),
                }
            }
            WorkloadOp::Nonlinear(nl) => {
                let elements = nl.total_elements();
                OpCost {
                    gemm_kind: None,
                    cycles: self.design.nonlinear_cycles(elements),
                    energy_pj: self.design.nonlinear_energy_pj(elements),
                    hbm_cycles: 0,
                    hbm_energy_pj: 0.0,
                    noc_bytes: 0,
                }
            }
        }
    }

    /// The folded op costs of one layer of `trace`.
    fn layer_cost(&self, trace: &OpTrace) -> LayerCost {
        let mut layer = LayerCost::default();
        for op in &trace.layer_ops {
            layer.add(&self.op_cost(op));
        }
        layer
    }

    /// Runs one transformer layer's operator trace and scales it to the whole
    /// model, returning the node-level performance.
    pub fn run_trace(&self, trace: &OpTrace) -> NodePerformance {
        self.node_performance(&self.layer_cost(trace), trace.model.layers)
    }

    /// Scales one layer's folded costs to a `layers`-deep model on one node.
    ///
    /// Every compute op and every weight fetch is ready at cycle 0 and holds
    /// its resource exclusively, so each resource is busy for the sum of its
    /// ops and the layer takes as long as the busier one: the fetches are
    /// double-buffered behind compute unless they outlast it, in which case
    /// the layer is memory-bound.
    fn node_performance(&self, layer: &LayerCost, layers: usize) -> NodePerformance {
        let cost = self.design.cost_model();
        let layer_cycles = layer.compute_cycles.max(layer.memory_cycles);
        let layers = u64_from_usize(layers);
        let total_cycles = layer_cycles * layers;
        let memory_bound = layer.memory_cycles > layer.compute_cycles;
        let compute_utilization =
            if layer_cycles == 0 { 0.0 } else { layer.compute_cycles as f64 / layer_cycles as f64 }
                .min(1.0);

        let dynamic_energy_pj = layer.energy_breakdown.total() * layers as f64;
        let runtime_s = cost.cycles_to_seconds(total_cycles);
        let leakage_energy_pj = self.design.leakage_mw() * 1e-3 * runtime_s * 1e12;

        NodePerformance {
            total_cycles,
            cycle_breakdown: layer.cycle_breakdown.scale(layers as f64),
            dynamic_energy_pj,
            energy_breakdown: layer.energy_breakdown.scale(layers as f64),
            leakage_energy_pj,
            hbm_energy_pj: layer.hbm_energy_pj * layers as f64,
            memory_bound,
            compute_utilization,
        }
    }

    /// Full workload evaluation on a single node: decode throughput in
    /// tokens/s for the trace's batch size plus efficiency metrics.
    pub fn evaluate(&self, trace: &OpTrace) -> WorkloadPerformance {
        self.evaluate_noc(trace, NocConfig::single())
    }

    /// Full workload evaluation on a NoC of identical nodes. The model's
    /// layers are tiled evenly across nodes (the paper's output-stationary
    /// multi-node dataflow), so throughput scales by the NoC multiplier while
    /// the NoC adds area and transfer energy.
    pub fn evaluate_noc(&self, trace: &OpTrace, noc: NocConfig) -> WorkloadPerformance {
        self.evaluate_layer(
            &self.layer_cost(trace),
            trace.model.layers,
            trace.tokens_per_step(),
            noc,
        )
    }

    /// [`evaluate_noc`](Self::evaluate_noc) from one layer's folded costs: a
    /// `layers`-deep model producing `tokens_per_step` tokens per forward
    /// pass (see [`OpTrace::tokens_per_step`]).
    pub fn evaluate_layer(
        &self,
        layer: &LayerCost,
        layers: usize,
        tokens_per_step: usize,
        noc: NocConfig,
    ) -> WorkloadPerformance {
        let cost = self.design.cost_model();
        let node = self.node_performance(layer, layers);
        let nodes = noc.nodes() as f64;
        let speedup = noc.throughput_multiplier();
        let effective_cycles = node.total_cycles as f64 / speedup;
        let runtime_s = effective_cycles / cost.frequency_hz;
        let tokens_per_step = tokens_per_step as f64;
        let tokens_per_second = if runtime_s > 0.0 { tokens_per_step / runtime_s } else { 0.0 };

        // Energy: dynamic energy is workload-defined (unchanged by the NoC),
        // leakage scales with node count and runtime, NoC transfer energy
        // covers activation/output movement between nodes.
        let leakage_pj = self.design.leakage_mw() * 1e-3 * runtime_s * 1e12 * nodes;
        let noc_bytes = layer.noc_bytes * u64_from_usize(layers);
        let noc_energy_pj = noc.transfer_energy_pj(noc_bytes, cost);
        let total_energy_pj =
            node.dynamic_energy_pj + node.hbm_energy_pj + leakage_pj + noc_energy_pj;
        let energy_per_token_uj =
            if tokens_per_step > 0.0 { total_energy_pj * 1e-6 / tokens_per_step } else { 0.0 };
        let tokens_per_uj = if energy_per_token_uj > 0.0 { 1.0 / energy_per_token_uj } else { 0.0 };
        let average_power_w = if runtime_s > 0.0 {
            CostModel::pj_to_joules(total_energy_pj) / runtime_s
        } else {
            0.0
        };
        let tokens_per_s_per_w =
            if average_power_w > 0.0 { tokens_per_second / average_power_w } else { 0.0 };
        let area_mm2 = self.design.area_mm2() * nodes + noc.router_area_mm2(cost);

        WorkloadPerformance {
            tokens_per_second,
            area_mm2,
            energy_per_token_uj,
            tokens_per_uj,
            average_power_w,
            tokens_per_s_per_w,
            nodes: noc.nodes(),
            effective_cycles: u64_from_f64(effective_cycles.ceil()),
            noc_energy_pj,
            total_energy_pj,
            node,
        }
    }

    /// Nonlinear-only evaluation (Figure 11): cycles and energy to process
    /// `elements` nonlinear inputs on this design, expressed as throughput
    /// (elements per second), energy efficiency (elements per µJ) and power
    /// efficiency (elements per second per W).
    pub fn evaluate_nonlinear(&self, elements: u64) -> NonlinearPerformance {
        let cost = self.design.cost_model();
        let cycles = self.design.nonlinear_cycles(elements);
        let energy_pj = self.design.nonlinear_energy_pj(elements);
        let runtime_s = cost.cycles_to_seconds(cycles);
        let leakage_pj = self.design.leakage_mw() * 1e-3 * runtime_s * 1e12;
        let total_pj = energy_pj + leakage_pj;
        let throughput = if runtime_s > 0.0 { elements as f64 / runtime_s } else { 0.0 };
        let energy_eff = if total_pj > 0.0 { elements as f64 / (total_pj * 1e-6) } else { 0.0 };
        let power_w =
            if runtime_s > 0.0 { CostModel::pj_to_joules(total_pj) / runtime_s } else { 0.0 };
        let power_eff = if power_w > 0.0 { throughput / power_w } else { 0.0 };
        NonlinearPerformance {
            cycles,
            throughput_elements_per_s: throughput,
            elements_per_uj: energy_eff,
            elements_per_s_per_w: power_eff,
            area_mm2: self.design.area_mm2(),
        }
    }
}

/// Nonlinear-only performance metrics (Figure 11).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NonlinearPerformance {
    /// Total cycles.
    pub cycles: u64,
    /// Elements per second.
    pub throughput_elements_per_s: f64,
    /// Elements per µJ (energy efficiency).
    pub elements_per_uj: f64,
    /// Elements per second per watt (power efficiency).
    pub elements_per_s_per_w: f64,
    /// Node area (for iso-area normalisation).
    pub area_mm2: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{DesignConfig, NonlinearMethod};
    use mugi_workloads::models::ModelId;
    use mugi_workloads::ops::Phase;

    fn decode_trace(model: ModelId, batch: usize, seq: usize) -> OpTrace {
        OpTrace::generate(&model.config(), Phase::Decode, batch, seq, true, true)
    }

    #[test]
    fn mugi_beats_systolic_on_llama70b_gqa() {
        // The headline Table 3 comparison: Mugi(256) vs SA(16) on Llama 2 70B
        // with GQA, batch 8, sequence 4096: ~2x throughput, ~3x energy
        // efficiency, ~1.5x power efficiency.
        let trace = decode_trace(ModelId::Llama2_70b, 8, 4096);
        let mugi = PerfModel::new(Design::new(DesignConfig::mugi(256))).evaluate(&trace);
        let sa = PerfModel::new(Design::new(DesignConfig::systolic(16))).evaluate(&trace);
        let throughput_ratio = mugi.tokens_per_second / sa.tokens_per_second;
        let energy_ratio = mugi.tokens_per_uj / sa.tokens_per_uj;
        let power_ratio = mugi.tokens_per_s_per_w / sa.tokens_per_s_per_w;
        assert!(throughput_ratio > 1.5 && throughput_ratio < 3.0, "throughput {throughput_ratio}");
        assert!(energy_ratio > 1.8 && energy_ratio < 6.0, "energy {energy_ratio}");
        assert!(power_ratio > 1.0 && power_ratio < 3.0, "power {power_ratio}");
    }

    #[test]
    fn mugi_and_carat_have_similar_throughput_but_mugi_wins_energy() {
        let trace = decode_trace(ModelId::Llama2_70b, 8, 4096);
        let mugi = PerfModel::new(Design::new(DesignConfig::mugi(256))).evaluate(&trace);
        let carat = PerfModel::new(Design::new(DesignConfig::carat(256))).evaluate(&trace);
        let ratio = mugi.tokens_per_second / carat.tokens_per_second;
        assert!(ratio > 0.95 && ratio < 1.3, "throughput ratio {ratio}");
        assert!(mugi.tokens_per_uj > carat.tokens_per_uj);
        assert!(mugi.area_mm2 < carat.area_mm2);
    }

    #[test]
    fn nonlinear_latency_is_negligible_on_mugi_but_not_on_precise_va() {
        let trace = decode_trace(ModelId::Llama2_7b, 8, 4096);
        let mugi = PerfModel::new(Design::new(DesignConfig::mugi(256))).run_trace(&trace);
        let sa = PerfModel::new(Design::new(DesignConfig::systolic(16))).run_trace(&trace);
        let mugi_nl_share = mugi.cycle_breakdown.nonlinear / mugi.cycle_breakdown.total();
        let sa_nl_share = sa.cycle_breakdown.nonlinear / sa.cycle_breakdown.total();
        assert!(mugi_nl_share < 0.1, "mugi nonlinear share {mugi_nl_share}");
        assert!(sa_nl_share > mugi_nl_share);
    }

    #[test]
    fn throughput_peaks_at_batch_8_for_mugi_and_16_for_sa() {
        // Figure 14: Mugi's throughput saturates at a batch of 8 (its column
        // width), while a 16-wide systolic array keeps gaining until batch 16.
        let tokens_per_s = |cfg: DesignConfig, batch: usize| {
            let trace = decode_trace(ModelId::Llama2_7b, batch, 1024);
            PerfModel::new(Design::new(cfg)).evaluate(&trace).tokens_per_second
        };
        let mugi_gain =
            tokens_per_s(DesignConfig::mugi(256), 16) / tokens_per_s(DesignConfig::mugi(256), 8);
        let sa_gain = tokens_per_s(DesignConfig::systolic(16), 16)
            / tokens_per_s(DesignConfig::systolic(16), 8);
        assert!(mugi_gain < 1.2, "mugi gain {mugi_gain}");
        assert!(sa_gain > 1.6, "sa gain {sa_gain}");
    }

    #[test]
    fn noc_scaling_is_near_linear() {
        let trace = decode_trace(ModelId::Llama2_70b, 8, 4096);
        let model = PerfModel::new(Design::new(DesignConfig::mugi(256)));
        let single = model.evaluate(&trace);
        let mesh = model.evaluate_noc(&trace, NocConfig::mesh_4x4());
        let speedup = mesh.tokens_per_second / single.tokens_per_second;
        assert!(speedup > 12.0 && speedup <= 16.0, "speedup {speedup}");
        assert!(mesh.area_mm2 > single.area_mm2 * 15.0);
        // The NoC evaluation exposes its energy composition: transfer energy
        // is zero on one node, nonzero on the mesh, and always part of the
        // total.
        assert_eq!(single.nodes, 1);
        assert_eq!(mesh.nodes, 16);
        assert_eq!(single.noc_energy_pj, 0.0);
        assert!(mesh.noc_energy_pj > 0.0);
        assert!(mesh.total_energy_pj > mesh.noc_energy_pj);
        let single_total = single.node.dynamic_energy_pj
            + single.node.hbm_energy_pj
            + single.node.leakage_energy_pj;
        assert!((single.total_energy_pj - single_total).abs() / single_total < 1e-9);
    }

    #[test]
    fn nonlinear_iso_area_ordering_matches_figure_11() {
        let elements = 8 * 32 * 4096u64; // one decode step of softmax inputs
        let eval = |cfg| PerfModel::new(Design::new(cfg)).evaluate_nonlinear(elements);
        let mugi = eval(DesignConfig::mugi(128));
        let va_fp = eval(DesignConfig::vector_array(16, NonlinearMethod::Precise));
        let va_taylor = eval(DesignConfig::vector_array(16, NonlinearMethod::Taylor));
        let va_pwl = eval(DesignConfig::vector_array(16, NonlinearMethod::Pwl));
        let speedup = mugi.throughput_elements_per_s / va_fp.throughput_elements_per_s;
        assert!(speedup > 20.0 && speedup < 80.0, "vs precise {speedup}");
        assert!(mugi.throughput_elements_per_s > va_pwl.throughput_elements_per_s);
        assert!(va_pwl.throughput_elements_per_s > va_taylor.throughput_elements_per_s);
        // The paper reports a ~480x energy-efficiency gain over the precise
        // vector array; our cost model (which charges Mugi full-node leakage
        // during the nonlinear phase) lands lower but still far above 10x.
        assert!(mugi.elements_per_uj > va_fp.elements_per_uj * 10.0);
        assert!(mugi.elements_per_s_per_w > va_fp.elements_per_s_per_w);
    }

    #[test]
    fn energy_breakdown_components_are_positive_and_consistent() {
        let trace = decode_trace(ModelId::Llama2_13b, 8, 2048);
        let node = PerfModel::new(Design::new(DesignConfig::mugi(128))).run_trace(&trace);
        assert!(node.total_cycles > 0);
        assert!(node.dynamic_energy_pj > 0.0);
        assert!(node.leakage_energy_pj > 0.0);
        assert!(node.hbm_energy_pj > 0.0);
        let sum = node.energy_breakdown.total();
        assert!((sum - node.dynamic_energy_pj).abs() / sum < 1e-9);
        assert!(node.compute_utilization > 0.0 && node.compute_utilization <= 1.0);
    }

    #[test]
    fn prefill_is_compute_bound_and_low_bandwidth_becomes_memory_bound() {
        let model = PerfModel::new(Design::new(DesignConfig::mugi(256)));
        let prefill =
            OpTrace::generate(&ModelId::Llama2_7b.config(), Phase::Prefill, 1, 512, true, true);
        let node = model.run_trace(&prefill);
        assert!(!node.memory_bound, "prefill should be compute bound");
        // With the paper's 256 GB/s the decode step is compute bound; throttle
        // the HBM by 100x and the same trace must be reported as memory bound.
        let decode = decode_trace(ModelId::Llama2_7b, 8, 4096);
        assert!(!model.run_trace(&decode).memory_bound);
        let throttled = PerfModel::with_hbm(
            Design::new(DesignConfig::mugi(256)),
            crate::hbm::Hbm { bandwidth_bytes_per_s: 2.56e9, energy_pj_per_byte: 7.0 },
        );
        assert!(throttled.run_trace(&decode).memory_bound, "throttled HBM should be memory bound");
    }

    #[test]
    fn mixed_batch_evaluation_counts_decode_tokens_and_pays_prefill_cycles() {
        // A continuous-batching micro-batch: 8 decode slots plus one 256-token
        // prefill chunk. Throughput must be accounted against the 8 decode
        // tokens only, while the prefill work still costs cycles, so the mixed
        // step is slower per token than the decode-only step.
        use mugi_workloads::ops::BatchSlice;
        let cfg = ModelId::Llama2_7b.config();
        let model = PerfModel::new(Design::new(DesignConfig::mugi(256)));
        let decode_only = OpTrace::generate_mixed(&cfg, &[BatchSlice::decode(8, 2048)], true, true);
        let mixed = OpTrace::generate_mixed(
            &cfg,
            &[BatchSlice::decode(8, 2048), BatchSlice::prefill(1, 256)],
            true,
            true,
        );
        assert_eq!(mixed.tokens_per_step(), 8);
        let decode_perf = model.evaluate(&decode_only);
        let mixed_perf = model.evaluate(&mixed);
        assert!(mixed_perf.node.total_cycles > decode_perf.node.total_cycles);
        assert!(mixed_perf.tokens_per_second < decode_perf.tokens_per_second);
        assert!(mixed_perf.tokens_per_second > 0.0);
        // Pure prefill still reports prompts per second.
        let prefill = OpTrace::generate(&cfg, Phase::Prefill, 4, 256, true, true);
        assert_eq!(prefill.tokens_per_step(), 4);
        assert!(model.evaluate(&prefill).tokens_per_second > 0.0);
    }

    fn gemm_cost(cycles: u64, hbm_cycles: u64) -> OpCost {
        OpCost {
            gemm_kind: Some(GemmKind::Ffn),
            cycles,
            energy_pj: 1.0,
            hbm_cycles,
            hbm_energy_pj: 0.5,
            noc_bytes: 8,
        }
    }

    #[test]
    fn compute_and_memory_overlap() {
        // A 100-cycle GEMM hides its 60-cycle fetch: the layer takes 100.
        let model = PerfModel::new(Design::new(DesignConfig::mugi(128)));
        let mut layer = LayerCost::default();
        layer.add(&gemm_cost(100, 60));
        let node = model.node_performance(&layer, 3);
        assert_eq!(node.total_cycles, 300);
        assert!(!node.memory_bound);
        assert_eq!(node.compute_utilization, 1.0);
        assert_eq!(node.cycle_breakdown.ffn, 300.0);
        assert_eq!(node.hbm_energy_pj, 1.5);
    }

    #[test]
    fn memory_bound_layer_detected() {
        // Fetches longer than their GEMMs set the layer time: four 100-cycle
        // fetches against four 20-cycle GEMMs take 400 cycles, compute busy
        // a fifth of them.
        let model = PerfModel::new(Design::new(DesignConfig::mugi(128)));
        let mut layer = LayerCost::default();
        for _ in 0..4 {
            layer.add(&gemm_cost(20, 100));
        }
        let node = model.node_performance(&layer, 1);
        assert_eq!(node.total_cycles, 400);
        assert!(node.memory_bound);
        assert!((node.compute_utilization - 0.2).abs() < 1e-12);
        // An empty layer takes no time and is not memory-bound.
        let empty = model.node_performance(&LayerCost::default(), 1);
        assert_eq!((empty.total_cycles, empty.memory_bound), (0, false));
        assert_eq!(empty.compute_utilization, 0.0);
    }

    #[test]
    fn workload_metrics_are_internally_consistent() {
        let trace = decode_trace(ModelId::Llama2_7b, 8, 1024);
        let perf = PerfModel::new(Design::new(DesignConfig::mugi(128))).evaluate(&trace);
        assert!(perf.tokens_per_second > 0.0);
        assert!(perf.energy_per_token_uj > 0.0);
        assert!((perf.tokens_per_uj * perf.energy_per_token_uj - 1.0).abs() < 1e-6);
        assert!(perf.average_power_w > 0.0);
        let implied = perf.tokens_per_second / perf.average_power_w;
        assert!((implied - perf.tokens_per_s_per_w).abs() / implied < 1e-6);
    }
}
