//! # mugi-workloads
//!
//! LLM workload models for the Mugi reproduction.
//!
//! The paper evaluates Mugi on the transformer models of its Table 1
//! (Llama 2 7B/13B/70B, Whisper tiny/large, SwinV2 tiny/large, ViViT base).
//! This crate provides:
//!
//! * [`models`] — the static model configurations of Table 1 (layer counts,
//!   head counts, hidden/FFN dimensions, sequence lengths, GQA group sizes);
//! * [`ops`] — per-layer operator traces: projection / attention / FFN GEMMs
//!   and softmax / SiLU / GELU nonlinear operations with their shapes, for
//!   prefill and decode phases, with WOQ / KVQ / GQA variants;
//! * [`distributions`] — synthetic activation-distribution generators that
//!   substitute the paper's GPU profiling (Figure 4): per-op, per-model,
//!   per-layer-depth value and exponent histograms;
//! * [`mod@reference`] — a small pure-Rust transformer used to measure the
//!   end-to-end effect of nonlinear approximation (proxy perplexity for
//!   Figures 6 and 7).
//!
//! These substitutions are sound because every downstream experiment
//! consumes either operator *shapes* or input *distributions*, both of which
//! are faithfully reproduced here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod distributions;
pub mod models;
pub mod moe;
pub mod ops;
pub mod reference;

pub use models::{ModelConfig, ModelFamily, ModelId};
pub use ops::{GemmOp, NonlinearTrace, OpTrace, Phase, WorkloadOp};
