//! # mugi-arch
//!
//! Cycle-level / event-based architecture and cost models for the Mugi
//! evaluation (Sections 5 and 6 of the paper).
//!
//! The paper's in-house simulator (built on the Carat artifact) solves the
//! mapping of nonlinear operations and GEMMs onto each hardware design and
//! reports area, leakage power, dynamic energy, cycle count and runtime, with
//! module-level metrics coming from 45 nm synthesis and CACTI. This crate
//! reproduces that methodology with a documented analytic cost table
//! ([`cost`]) in place of synthesis:
//!
//! * [`cost`] — per-module area / energy / leakage constants and the
//!   CACTI-like SRAM model;
//! * [`modules`] — hardware building blocks (PE arrays, temporal converters,
//!   SRAMs, FIFOs, accumulators, vector units, nonlinear units) with their
//!   area and power;
//! * [`designs`] — the evaluated designs of Table 2: Mugi, Mugi-L, Carat,
//!   systolic and SIMD arrays (with and without FIGNA PEs), tensor cores, and
//!   precise/approximate vector arrays;
//! * [`perf`] — the performance model: prices a `mugi-workloads` operator
//!   trace on a design op by op and reports cycles, energy and per-category
//!   breakdowns;
//! * [`noc`] — 2-D mesh NoC scaling model;
//! * [`hbm`] — off-chip memory bandwidth / energy model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod designs;
pub mod hbm;
pub mod modules;
pub mod noc;
pub mod perf;

pub use cost::CostModel;
pub use designs::{Design, DesignConfig, DesignKind, NonlinearMethod};
pub use noc::NocConfig;
pub use perf::{LayerCost, NodePerformance, OpCost, PerfModel, WorkloadPerformance};
