//! # akg-tensor
//!
//! Tensor and reverse-mode autograd substrate for the `adaptive-kg`
//! reproduction of *"Continuous GNN-based Anomaly Detection on Edge using
//! Efficient Adaptive Knowledge Graph Learning"* (DATE 2025).
//!
//! There is no Rust GNN/autograd ecosystem dependency here by design: the
//! paper's models are small (per-layer width 8, a short transformer), so this
//! crate implements exactly the operator set they need, with finite-difference
//! verified gradients ([`gradcheck`]).
//!
//! ## Layout
//!
//! - [`Tensor`]: row-major `f32` array with a recorded backward graph
//! - [`ops`]: differentiable operations (arithmetic, matmul, reductions,
//!   shape, gather/scatter, softmax/cross-entropy), with the raw
//!   blocked/threaded matmul kernels exposed in [`ops::kernels`]
//! - [`inference`] + [`workspace`]: the serving data plane — raw-slice
//!   forward ops writing into [`Workspace`]-pooled buffers, zero autograd
//!   bookkeeping and zero steady-state allocation, bit-identical per backend
//!   to the autograd ops (the training/adaptation plane stays on [`Tensor`])
//! - [`par`]: the [`Parallelism`] configuration and the scoped-thread worker
//!   pool the kernels use
//! - [`backend`]: the runtime-selected [`Backend`] (portable scalar kernels
//!   vs. AVX2+FMA SIMD kernels, detected at startup)
//! - [`quant`]: the int8 serving plane's representation — [`Precision`],
//!   [`QuantizedMatrix`] (symmetric per-row-scaled int8 weights), and the
//!   dynamic activation quantizer the q8 kernels consume
//! - [`nn`]: layers — [`nn::Linear`], [`nn::norm::BatchNorm1d`],
//!   [`nn::norm::LayerNorm`], [`nn::attention::TransformerEncoder`]
//! - [`optim`]: [`optim::Sgd`] and [`optim::AdamW`] (decoupled weight decay)
//! - [`init`]: seeded initializers
//! - [`gradcheck`]: numerical gradient verification
//!
//! ## Example
//!
//! ```
//! use akg_tensor::{Tensor, nn::{Linear, Module}, optim::{AdamW, Optimizer}};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let layer = Linear::new(2, 1, &mut rng);
//! let mut opt = AdamW::with_lr(layer.params(), 1e-2);
//! let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
//! for _ in 0..10 {
//!     opt.zero_grad();
//!     let loss = layer.forward(&x).square().sum_all();
//!     loss.backward();
//!     opt.step();
//! }
//! ```

#![warn(missing_docs)]

mod tensor;

pub mod backend;
pub mod gradcheck;
pub mod inference;
pub mod init;
pub mod nn;
pub mod ops;
pub mod optim;
pub mod par;
pub mod quant;
pub mod workspace;

pub use backend::Backend;
pub use gradcheck::{gradcheck, GradCheckReport};
pub use par::Parallelism;
pub use quant::{Precision, QuantizedMatrix};
pub use tensor::Tensor;
pub use workspace::{Workspace, WorkspaceStats};
