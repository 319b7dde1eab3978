//! # mugi-runtime
//!
//! A simulated continuous-batching inference server on top of the Mugi
//! accelerator model: the serving layer that turns the paper's
//! accelerator-level wins into end-to-end request throughput.
//!
//! The crate's surface is one facade:
//!
//! * *Describe a run.* A [`Scenario`] names the lanes, the
//!   [`SchedulerConfig`] ([`SchedulingPolicy`], [`DecodeOrder`]), the paged
//!   KV cache ([`KvConfig`], with its [`PreemptionMode`] and optional
//!   [`SloConfig`] admission bound), the adaptive [`ControlConfig`] and the
//!   [`Placement`] of nodes on a NoC mesh ([`PlacementPolicy`], each node's
//!   [`PoolRole`]). [`Scenario::build`] is the one way to build an
//!   [`Executor`]; it returns a typed [`ConfigError`] for a configuration
//!   that breaks a rule.
//! * *Feed it.* [`Request`]s are submitted one by one
//!   ([`Executor::try_submit`] reports an [`AdmissionError`]) or streamed:
//!   [`synthetic_requests`] and [`phased_requests`] materialize a workload,
//!   and a [`WorkloadStream`] generates one lazily from a [`WorkloadSpec`]
//!   and its [`ArrivalModel`]. [`pages_for`] and [`KV_BITS`] size a
//!   request's KV cache.
//! * *Run it.* [`Executor::step`], [`Executor::run`],
//!   [`Executor::run_stream`] and [`Executor::run_stream_folded`] drive one
//!   decision loop that lands completions and arrivals in `(time, seq)`
//!   order and retires each session once it and all older ones have
//!   finished.
//! * *Read the results.* A [`RuntimeReport`] keeps each retired request's
//!   [`RequestStats`], [`Percentiles`] of TTFT and TPOT, and the run's
//!   [`KvStats`]. The folded mode folds retired requests into a
//!   [`StatsFold`] and returns a [`ScaleReport`], serving millions of
//!   requests in O(live sessions) memory. Mid-run, the executor exposes
//!   live [`Session`]s ([`SessionState`], [`RequestId`]), each pool's
//!   [`KvFreePages`] and its [`EventQueue`] counters.
//!
//! Behind the facade, bottom to top: requests and the session arena; the
//! paged KV cache (bounded per-node pools of page extents, per-session page
//! tables, recompute- or swap-style preemption and admission control, all
//! disabled by the default unbounded pool); the continuous-batching
//! scheduler (decode-first micro-batches under `max_batch`/`token_budget`
//! caps, chunked prefill, FCFS or shortest-prefill-first admission,
//! round-robin across models); the placement of micro-batches on nodes,
//! where a completed prefill's KV pages migrate to a decode node over the
//! NoC under disaggregation; the executor, which prices each micro-batch on
//! [`MugiAccelerator`](mugi::MugiAccelerator) nodes and charges NoC energy;
//! the control plane, which re-rolls node roles toward the live
//! prefill:decode demand split, calibrates the SLO admission rate and
//! places migrations by decode load (all off by default and bit-inert when
//! off); and the statistics and workload generators. Each run is
//! deterministic and replayable bit for bit.
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
#![warn(unreachable_pub)]
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

mod control;
mod event;
mod executor;
mod kv;
mod placement;
mod request;
mod scenario;
mod scheduler;
mod stats;
mod workload;

pub use control::ControlConfig;
pub use event::EventQueue;
pub use executor::Executor;
pub use kv::{
    pages_for, AdmissionError, KvConfig, KvFreePages, PreemptionMode, SloConfig, KV_BITS,
};
pub use placement::{Placement, PlacementPolicy, PoolRole};
pub use request::{Request, RequestId, Session, SessionState};
pub use scenario::{ConfigError, Scenario};
pub use scheduler::{DecodeOrder, SchedulerConfig, SchedulingPolicy};
pub use stats::{KvStats, Percentiles, RequestStats, RuntimeReport, ScaleReport, StatsFold};
pub use workload::{
    phased_requests, synthetic_requests, ArrivalModel, WorkloadSpec, WorkloadStream,
};

// perfbench builds its engines below `Scenario`, and two integration tests
// drive the scheduler alone; these stay public, out of the documented
// surface, until they go through `Scenario` or become unit tests.
#[doc(hidden)]
pub use event::EventEngine;
#[doc(hidden)]
pub use executor::ExecutorConfig;
#[doc(hidden)]
pub use scheduler::Scheduler;
