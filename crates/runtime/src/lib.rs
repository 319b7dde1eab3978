//! # mugi-runtime
//!
//! A simulated continuous-batching inference server on top of the Mugi
//! accelerator model: the serving layer that turns the paper's
//! accelerator-level wins into end-to-end request throughput.
//!
//! The pipeline, bottom to top:
//!
//! * [`request`] — [`Request`]s submitted by clients and the [`Session`]s
//!   that track per-session KV-cache state and latency milestones;
//! * [`kv`] — the paged KV cache: bounded per-node [`KvPool`]s of physical
//!   pages, per-session [`PageTable`]s, recompute-style preemption when a
//!   pool runs dry, and admission control (an unbounded pool, the default,
//!   disables all of it);
//! * [`scheduler`] — the continuous-batching [`Scheduler`]: decode-first
//!   micro-batches under `max_batch`/`token_budget` caps, chunked prefill,
//!   FCFS or shortest-prefill-first admission, round-robin across models,
//!   paging every batch against the target node's KV pool;
//! * [`placement`] — how micro-batches map onto a NoC mesh of nodes:
//!   [`Placement`] (data-parallel, sharded or prefill/decode-disaggregated
//!   over a [`NocConfig`](mugi::arch::noc::NocConfig)) plus the
//!   [`NodePool`] of per-node clocks; under disaggregation a completed
//!   prefill's KV pages migrate to a decode node over the NoC instead of
//!   being recomputed;
//! * [`executor`] — the [`Executor`] drives one or many
//!   [`MugiAccelerator`](mugi::MugiAccelerator) nodes over the scheduled
//!   micro-batches (priced from per-slice op costs), charges NoC energy
//!   and keeps per-request accounting. Its one decision loop serves
//!   pre-submitted traces and lazily streamed workloads alike
//!   ([`Executor::run_stream`]), landing completions and arrivals in
//!   `(time, seq)` order, and every run retires each session once it and
//!   all older ones have finished: the report keeps its statistics, and
//!   the folded mode ([`Executor::run_stream_folded`]) folds them instead,
//!   serving millions of requests in O(live sessions) memory;
//! * [`event`] — the [`EventQueue`] counters of that loop (plus a thin
//!   benchmark-facing wrapper);
//! * [`control`] — the adaptive control plane: a feedback controller
//!   sampled at batch-completion boundaries that re-rolls node roles toward
//!   the live prefill:decode demand split (quiescent handoffs), calibrates
//!   the projected-TTFT admission rate online, and places KV migrations by
//!   projected decode load — all off by default and bit-inert when off;
//! * [`stats`] — TTFT/TPOT/throughput per request plus p50/p95/p99
//!   aggregates in a [`RuntimeReport`], and the O(1) [`StatsFold`] /
//!   [`ScaleReport`] a folded run streams retired sessions into;
//! * [`workload`] — deterministic synthetic request streams — materialized
//!   via [`synthetic_requests`] or lazily via a [`WorkloadStream`] — with
//!   uniform-spread or open-loop Poisson [`ArrivalModel`]s;
//! * [`scenario`] — the run description: a [`Scenario`] names the lanes,
//!   scheduler, KV cache, control plane and placement of one engine, and
//!   [`Scenario::build`] is the one way to build an [`Executor`], returning
//!   a typed [`ConfigError`] for a configuration that breaks a rule.
//!
//! # Example
//!
//! ```
//! use mugi_runtime::{Request, Scenario};
//! use mugi_workloads::models::ModelId;
//!
//! let mut engine = Scenario::new(256).build().expect("the defaults are valid");
//! engine.submit(Request::new(ModelId::Llama2_7b, 128, 8));
//! engine.submit(Request::new(ModelId::Llama2_70b, 256, 4));
//! let report = engine.run();
//! assert_eq!(report.requests.len(), 2);
//! assert!(report.throughput_tokens_per_s > 0.0);
//! assert!(report.requests.iter().all(|r| r.ttft_s > 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(
    not(test),
    warn(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod control;
pub mod event;
pub mod executor;
pub mod kv;
pub mod placement;
pub mod request;
pub mod scenario;
pub mod scheduler;
pub mod stats;
pub mod workload;

pub use control::{ControlConfig, SloCalibrator};
pub use event::{EventEngine, EventQueue};
pub use executor::{Executor, ExecutorConfig};
pub use kv::{
    pages_for, AdmissionError, Extent, KvConfig, KvFreePages, KvPool, PageId, PageTable,
    PreemptionMode, SloConfig, KV_BITS,
};
pub use placement::{NodePool, Placement, PlacementPolicy, PoolRole};
pub use request::{Request, RequestId, Session, SessionArena, SessionState};
pub use scenario::{ConfigError, Scenario};
pub use scheduler::{
    BatchItem, DecodeOrder, MicroBatch, Migration, Scheduler, SchedulerConfig, SchedulingPolicy,
    SwapOut,
};
pub use stats::{KvStats, Percentiles, RequestStats, RuntimeReport, ScaleReport, StatsFold};
pub use workload::{
    phased_requests, synthetic_requests, ArrivalModel, WorkloadSpec, WorkloadStream,
};
