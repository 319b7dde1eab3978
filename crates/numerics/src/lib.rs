//! # mugi-numerics
//!
//! Numeric substrate for the Mugi reproduction (ASPLOS 2026, *Mugi: Value Level
//! Parallelism For Efficient LLMs*).
//!
//! This crate provides everything that is "below" the value-level-parallelism
//! algorithms:
//!
//! * bit-exact software implementations of the data formats the paper uses:
//!   [`bf16::Bf16`] and [`int4::Int4`];
//! * the sign/mantissa/exponent field split ([`fields::FloatFields`]) that the
//!   VLP nonlinear approximation is built on (Section 3.1 of the paper);
//! * exact reference implementations of the nonlinear operations the paper
//!   approximates — exp, sigmoid, tanh, erf, softmax, SiLU and GELU
//!   ([`nonlinear`]);
//! * weight-only quantization (WOQ) and KV-cache quantization (KVQ) with
//!   per-group scales ([`quant`]);
//! * a small dense [`tensor::Matrix`] type with reference GEMM used as the
//!   correctness oracle for VLP GEMM;
//! * error metrics used by the accuracy experiments ([`error`]).
//!
//! # Example
//!
//! ```
//! use mugi_numerics::bf16::Bf16;
//! use mugi_numerics::nonlinear::silu;
//!
//! let x = Bf16::from_f32(1.5);
//! // BF16 keeps only 7 mantissa bits, so the round trip is close but not exact.
//! assert!((x.to_f32() - 1.5).abs() < 1e-2);
//! assert!((silu(1.5) - 1.5 / (1.0 + (-1.5f32).exp())).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bf16;
pub mod cast;
pub mod error;
pub mod exec;
pub mod fields;
pub mod int4;
pub mod nonlinear;
pub mod quant;
pub mod tensor;

pub use bf16::Bf16;
pub use exec::ExecutionContext;
pub use fields::FloatFields;
pub use int4::Int4;
pub use tensor::Matrix;
