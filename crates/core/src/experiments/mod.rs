//! Experiment drivers: one per table / figure of the paper's evaluation.
//!
//! | Paper artefact | Driver |
//! |---|---|
//! | Figure 4 (input distributions) | [`accuracy::fig04_profiling`] |
//! | Figure 6 (accuracy heatmaps) | [`accuracy::fig06_accuracy_sweep`] |
//! | Figure 7 (per-layer tuning) | [`accuracy::fig07_per_layer_tuning`] |
//! | Figure 8 (relative error) | [`accuracy::fig08_relative_error`] |
//! | Figure 11 (iso-area nonlinear) | [`architecture::fig11_nonlinear_comparison`] |
//! | Figure 12 (iso-area GEMM) | [`architecture::fig12_gemm_comparison`] |
//! | Table 3 (end-to-end) | [`architecture::table3_end_to_end`] |
//! | Figure 13 (area/power breakdown) | [`architecture::fig13_breakdown`] |
//! | Figure 14 (batch sweep) | [`architecture::fig14_batch_sweep`] |
//! | Figure 15 (carbon) | [`sustainability::fig15_carbon`] |
//! | Figure 16 (latency breakdown) | [`architecture::fig16_latency_breakdown`] |
//! | Figure 17 (NoC scaling) | [`sustainability::fig17_noc_scaling`] |
//!
//! Every driver takes a [`Preset`]: `Quick` presets run in seconds and are
//! exercised by the integration tests; `Full` presets sweep the paper's
//! parameter ranges and back the numbers recorded in `EXPERIMENTS.md`.

pub mod ablations;
pub mod accuracy;
pub mod architecture;
pub mod sustainability;

use mugi_workloads::models::ModelId;
use mugi_workloads::ops::{OpTrace, Phase};
use serde::{Deserialize, Serialize};

/// Scope of an experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Preset {
    /// Reduced sweeps (seconds): used in CI / integration tests.
    Quick,
    /// Paper-scale sweeps: used by the regeneration binaries.
    Full,
}

impl Preset {
    /// Number of profiling samples per distribution.
    pub fn profile_samples(self) -> usize {
        match self {
            Preset::Quick => 4_000,
            Preset::Full => 50_000,
        }
    }

    /// Number of synthetic sequences for proxy-perplexity evaluation.
    pub fn eval_sequences(self) -> usize {
        match self {
            Preset::Quick => 1,
            Preset::Full => 4,
        }
    }

    /// Sequence lengths swept in architecture experiments.
    pub fn sequence_lengths(self) -> Vec<usize> {
        match self {
            Preset::Quick => vec![1024, 4096],
            Preset::Full => vec![128, 256, 512, 1024, 2048, 4096],
        }
    }

    /// Batch sizes swept in Figure 14.
    pub fn batch_sizes(self) -> Vec<usize> {
        match self {
            Preset::Quick => vec![1, 8, 32],
            Preset::Full => vec![1, 2, 4, 8, 16, 32],
        }
    }
}

/// The weight- and KV-quantised decode trace of one `model` layer at
/// `batch` × `seq`: the workload every architecture experiment prices.
fn decode_trace(model: ModelId, batch: usize, seq: usize) -> OpTrace {
    OpTrace::generate(&model.config(), Phase::Decode, batch, seq, true, true)
}
