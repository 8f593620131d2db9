//! Differentiable tensor operations.
//!
//! Every op builds its output via `Tensor::from_op`, recording parents and a
//! backward closure. Ops are grouped by kind:
//!
//! - [`binary`]: elementwise same-shape arithmetic
//! - [`unary`]: elementwise maps and activations
//! - [`broadcast`]: row/column broadcasting arithmetic
//! - [`matmul`]: 2-D matrix products and transpose
//! - [`reduce`]: sums and means over axes
//! - [`shape`]: reshape, concatenation, slicing
//! - [`gather`]: row gathers and scatter-adds (embedding lookups, message
//!   passing)
//! - [`softmax`]: row softmax (plain and fused scale+mask), log-softmax and
//!   cross-entropy
//! - [`layernorm`]: fused layer normalization (forward + analytic backward
//!   as one graph node)
//! - [`kernels`]: raw blocked/threaded matmul kernels the ops dispatch to
//!   (public so benches and property tests can compare against the naive
//!   reference directly)
//!
//! The hot ops additionally dispatch between portable scalar loops and
//! AVX2+FMA SIMD implementations (the crate-private `simd` module) according
//! to the process-wide [`crate::backend::Backend`] setting.

pub mod binary;
pub mod broadcast;
pub mod gather;
pub mod kernels;
pub mod layernorm;
pub mod matmul;
pub mod reduce;
pub mod shape;
pub(crate) mod simd;
pub mod softmax;
pub mod unary;
