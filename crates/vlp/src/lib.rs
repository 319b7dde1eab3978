//! # mugi-vlp
//!
//! Value-level parallelism (VLP) — the algorithmic core of the Mugi paper.
//!
//! VLP replaces multipliers with *temporal coding*: an input value `i` is
//! converted into a spike at clock cycle `i` by a temporal converter, a shared
//! accumulator produces every possible product `c·w` as the counter `c` counts
//! up, and each lane *subscribes* to the product corresponding to its own
//! input when its spike fires (Section 2.1, Figure 2). Because the running
//! accumulation is shared by every lane in a row, values are *reused* across
//! lanes — hence value-level parallelism.
//!
//! This crate implements the functional side of VLP; the cycle, energy and
//! area of every operator come from `mugi-arch`:
//!
//! * [`temporal`] — the temporal sweep length of an `n`-bit magnitude;
//! * [`approx`] — the VLP nonlinear approximation of Section 3: LUT
//!   construction, value-centric sliding windows, the four-phase subscription
//!   engine and the full softmax pipeline;
//! * [`tuning`] — per-layer LUT window tuning (Figure 7).
//!
//! GEMM has no engine here: VLP is exact for GEMM, so the functional
//! BF16–INT4 GEMM is dequantize-then-`matmul` (`mugi::MugiAccelerator::gemm`).
//!
//! # Example
//!
//! ```
//! use mugi_vlp::approx::{VlpApproxConfig, VlpNonlinear};
//! use mugi_numerics::nonlinear::NonlinearOp;
//!
//! let cfg = VlpApproxConfig::recommended_for(NonlinearOp::Silu);
//! let engine = VlpNonlinear::new(NonlinearOp::Silu, cfg);
//! let (approx, _stats) = engine.apply(&[0.5, -1.25, 3.0]);
//! assert!((approx[0] - 0.5 / (1.0 + (-0.5f32).exp())).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod approx;
pub mod temporal;
pub mod tuning;

pub use approx::{VlpApproxConfig, VlpConfigError, VlpNonlinear};
