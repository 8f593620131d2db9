//! Neural-network layers built on the autograd [`Tensor`].
//!
//! The layer set is exactly what the paper's models need: [`Linear`] (the
//! dense sub-layer, Eq. 1, and the decision head, Eq. 5),
//! [`norm::BatchNorm1d`] / [`norm::LayerNorm`], and
//! [`attention::TransformerEncoder`] (the short-term temporal model). The
//! KG token-embedding table that continuous adaptation updates is plain
//! row data outside this module, trained through a `requires_grad` leaf.

pub mod attention;
pub mod norm;

use crate::init;
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// A trainable component exposing its parameters.
pub trait Module {
    /// All trainable parameters, in a stable order.
    fn params(&self) -> Vec<Tensor>;

    /// Freezes (or unfreezes) every parameter. Frozen parameters retain no
    /// gradients and are skipped by optimizers, but gradients still flow
    /// *through* them — exactly what the paper's adaptation phase needs when
    /// only KG token embeddings are trainable.
    fn set_frozen(&self, frozen: bool) {
        for p in self.params() {
            p.set_requires_grad(!frozen);
        }
    }

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(Tensor::numel).sum()
    }
}

/// A fully-connected layer `y = x W + b`.
///
/// Besides the autograd weight, the layer can carry a pre-quantized int8
/// copy of `W` ([`Linear::quantize_int8`]); while present, the *inference*
/// forward rides the exact-i32 q8 kernels ([`crate::quant`]) and the
/// autograd [`Linear::forward`] — the training/adaptation plane and the
/// divergence oracle — keeps reading the f32 weight.
#[derive(Debug)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    in_features: usize,
    out_features: usize,
    quantized: Option<crate::quant::QuantizedMatrix>,
}

impl Linear {
    /// Creates a linear layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let weight = init::xavier_uniform(in_features, out_features, rng).requires_grad(true);
        let bias = Tensor::zeros(&[out_features]).requires_grad(true);
        Linear { weight, bias, in_features, out_features, quantized: None }
    }

    /// Applies the layer to `[m, in_features]`, producing `[m, out_features]`.
    ///
    /// # Panics
    ///
    /// Panics if the input's column count mismatches `in_features`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            x.shape()[1],
            self.in_features,
            "Linear: input has {} features, expected {}",
            x.shape()[1],
            self.in_features
        );
        x.matmul(&self.weight).add_bias(&self.bias)
    }

    /// Inference-plane forward: applies the layer to the raw `[rows,
    /// in_features]` matrix `x`, writing `[rows, out_features]` into `out`
    /// with no autograd bookkeeping and no steady-state allocation.
    ///
    /// Without a quantized weight this is bit-identical to
    /// [`Linear::forward`] per backend (same dispatching matmul kernel,
    /// same per-element bias add). After [`Linear::quantize_int8`] the
    /// matmul rides the exact-i32 q8 kernels instead — bit-identical
    /// *across* backends, diverging from f32 only by the bounded
    /// quantization error documented in [`crate::quant`]. The bias add is
    /// always f32.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` length mismatches `rows` × the layer's
    /// feature counts.
    pub fn forward_infer(
        &self,
        x: &[f32],
        rows: usize,
        out: &mut [f32],
        ws: &mut crate::workspace::Workspace,
    ) {
        assert_eq!(
            x.len(),
            rows * self.in_features,
            "Linear::forward_infer: input is not rows × in_features"
        );
        assert_eq!(
            out.len(),
            rows * self.out_features,
            "Linear::forward_infer: out is not rows × out_features"
        );
        match &self.quantized {
            Some(qw) => crate::inference::matmul_q8_into(out, x, qw, rows, ws),
            None => self.weight.with_data(|w| {
                crate::inference::matmul_into(out, x, w, rows, self.in_features, self.out_features);
            }),
        }
        self.bias.with_data(|bv| crate::inference::add_bias_rows(out, bv, self.out_features));
    }

    /// (Re-)quantizes the current weight into the int8 serving copy. Call
    /// again after any weight mutation (training) or the copy goes stale —
    /// the autograd weight is the source of truth.
    pub fn quantize_int8(&mut self) {
        self.quantized = Some(self.weight.with_data(|w| {
            crate::quant::QuantizedMatrix::from_row_major(w, self.in_features, self.out_features)
        }));
    }

    /// Drops the int8 serving copy; inference returns to the f32 kernels.
    pub fn clear_int8(&mut self) {
        self.quantized = None;
    }

    /// Whether an int8 serving copy is present.
    pub fn is_quantized(&self) -> bool {
        self.quantized.is_some()
    }

    /// Bytes the *serving* weight matrix occupies: the int8 copy's codes +
    /// scales when quantized, the f32 storage otherwise. (Bias excluded —
    /// it stays f32 on both planes.)
    pub fn weight_matrix_bytes(&self) -> usize {
        match &self.quantized {
            Some(q) => q.bytes(),
            None => self.weight_matrix_bytes_f32(),
        }
    }

    /// Bytes of the f32 weight matrix (`in × out × 4`).
    pub fn weight_matrix_bytes_f32(&self) -> usize {
        self.in_features * self.out_features * std::mem::size_of::<f32>()
    }

    /// Bytes an int8 copy of the weight occupies (codes + per-channel
    /// scales), whether or not one is currently present.
    pub fn weight_matrix_bytes_int8(&self) -> usize {
        self.in_features * self.out_features + self.out_features * std::mem::size_of::<f32>()
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight tensor (shape `[in, out]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }
}

impl Module for Linear {
    fn params(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// A sequence of [`Linear`] layers with an activation between them; the
/// transformer's feed-forward block.
#[derive(Debug)]
pub struct FeedForward {
    lin1: Linear,
    lin2: Linear,
}

impl FeedForward {
    /// Creates a two-layer GELU MLP `dim -> hidden -> dim`.
    pub fn new(dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        FeedForward { lin1: Linear::new(dim, hidden, rng), lin2: Linear::new(hidden, dim, rng) }
    }

    /// Applies the block to `[m, dim]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.lin2.forward(&self.lin1.forward(x).gelu())
    }

    /// Inference-plane forward into `out` — the same linear → GELU → linear
    /// chain as [`FeedForward::forward`] over workspace-leased scratch,
    /// bit-identical per backend.
    ///
    /// # Panics
    ///
    /// Panics if `x`/`out` lengths mismatch `rows` × the block's widths.
    pub fn forward_infer(
        &self,
        x: &[f32],
        rows: usize,
        out: &mut [f32],
        ws: &mut crate::workspace::Workspace,
    ) {
        let mut hidden = ws.lease(rows * self.lin1.out_features());
        self.lin1.forward_infer(x, rows, &mut hidden, ws);
        crate::inference::gelu_inplace(&mut hidden);
        self.lin2.forward_infer(&hidden, rows, out, ws);
        ws.release(hidden);
    }

    /// Visits both linear layers (shared), in a stable order.
    pub fn visit_linears(&self, f: &mut dyn FnMut(&Linear)) {
        f(&self.lin1);
        f(&self.lin2);
    }

    /// Visits both linear layers (mutable), in a stable order — how the
    /// int8 plane reaches every weight matrix for (re-)quantization.
    pub fn visit_linears_mut(&mut self, f: &mut dyn FnMut(&mut Linear)) {
        f(&mut self.lin1);
        f(&mut self.lin2);
    }
}

impl Module for FeedForward {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.lin1.params();
        p.extend(self.lin2.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Optimizer, Sgd};
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(3, 5, &mut rng);
        let x = Tensor::zeros(&[2, 3]);
        assert_eq!(l.forward(&x).shape(), vec![2, 5]);
        assert_eq!(l.param_count(), 3 * 5 + 5);
    }

    #[test]
    fn linear_learns_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new(2, 2, &mut rng);
        let mut opt = Sgd::new(l.params(), 0.1);
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        for _ in 0..500 {
            opt.zero_grad();
            let y = l.forward(&x);
            let loss = y.sub(&x).square().mean_all();
            loss.backward();
            opt.step();
        }
        let y = l.forward(&x);
        let err = y.sub(&x).square().mean_all().item();
        assert!(err < 1e-3, "err {err}");
    }

    #[test]
    fn freezing_blocks_grad_retention_but_not_flow() {
        let x = Tensor::from_vec(vec![1.0], &[1, 1]).requires_grad(true);
        let mut rng = StdRng::seed_from_u64(2);
        let l = Linear::new(1, 1, &mut rng);
        l.set_frozen(true);
        let y = l.forward(&x).sum_all();
        y.backward();
        // frozen linear keeps no grad...
        assert!(l.params()[0].grad().is_none());
        // ...but the leaf upstream of it still receives one.
        assert!(x.grad().is_some());
    }

    /// A GNN-shaped stack over every op whose backward skips frozen
    /// parents (`matmul`, `add_bias`, `mul_bias` inside the composed
    /// instance norm, `matmul_t`), plus the grouped norm and ELU. Returns the
    /// input leaf's gradient and whether any parameter kept a gradient.
    fn leaf_grad_through_stack(frozen: bool) -> (Vec<u32>, bool) {
        let mut rng = StdRng::seed_from_u64(11);
        let (dense, head) = (Linear::new(32, 8, &mut rng), Linear::new(8, 8, &mut rng));
        let bn = norm::BatchNorm1d::new(8);
        let grouped = norm::BatchNorm1d::new(8);
        let data: Vec<f32> = (0..28 * 32).map(|i| ((i * 37 % 29) as f32 - 14.0) * 0.05).collect();
        let x = Tensor::from_vec(data, &[28, 32]).requires_grad(true);
        let modules: [&dyn Module; 4] = [&dense, &head, &bn, &grouped];
        for module in modules {
            module.set_frozen(frozen);
        }
        let h = grouped.forward_instance_grouped(&dense.forward(&x), 2).elu();
        let y = bn.forward_instance(&head.forward(&h)).matmul_t(head.weight());
        let w: Vec<f32> = (0..y.numel()).map(|i| (i as f32 * 0.37).cos()).collect();
        y.mul(&Tensor::from_vec(w, &y.shape())).square().sum_all().backward();
        let kept = modules.iter().flat_map(|m| m.params()).any(|p| p.grad().is_some());
        (x.grad().unwrap().iter().map(|v| v.to_bits()).collect(), kept)
    }

    #[test]
    fn leaf_gradient_is_bitwise_equal_with_weights_frozen_or_tracked() {
        use crate::backend::{backend, set_backend, Backend};
        let _guard = crate::backend::test_lock();
        let prev = backend();
        for b in [Backend::Scalar, Backend::Simd] {
            set_backend(b);
            let (tracked, kept) = leaf_grad_through_stack(false);
            assert!(kept, "{b:?}: tracked weights got no gradient");
            let (frozen, kept) = leaf_grad_through_stack(true);
            assert!(!kept, "{b:?}: a frozen weight kept a gradient");
            assert_eq!(frozen, tracked, "{b:?}: freezing the weights moved the leaf gradient");
        }
        set_backend(prev);
    }

    #[test]
    fn quantized_linear_infer_tracks_f32_within_bound() {
        let _guard = crate::backend::test_lock();
        let mut rng = StdRng::seed_from_u64(7);
        let mut l = Linear::new(24, 10, &mut rng);
        let rows = 4;
        let x: Vec<f32> = (0..rows * 24).map(|i| ((i * 13 % 23) as f32 - 11.0) * 0.09).collect();
        let mut ws = crate::workspace::Workspace::new();
        let mut f32_out = vec![0.0f32; rows * 10];
        l.forward_infer(&x, rows, &mut f32_out, &mut ws);
        assert_eq!(l.weight_matrix_bytes(), l.weight_matrix_bytes_f32());
        l.quantize_int8();
        assert!(l.is_quantized());
        assert_eq!(l.weight_matrix_bytes(), l.weight_matrix_bytes_int8());
        assert!(l.weight_matrix_bytes_f32() as f64 / l.weight_matrix_bytes_int8() as f64 > 3.0);
        let mut q8_out = vec![0.0f32; rows * 10];
        l.forward_infer(&x, rows, &mut q8_out, &mut ws);
        // Small layer, normalized activations: the quantization error stays
        // far below the signal.
        for (i, (q, f)) in q8_out.iter().zip(&f32_out).enumerate() {
            assert!((q - f).abs() < 0.05, "[{i}] int8 {q} vs f32 {f}");
            assert_ne!(*f, 0.0, "degenerate test: f32 output is zero");
        }
        // clear_int8 restores the exact f32 path.
        l.clear_int8();
        let mut back = vec![0.0f32; rows * 10];
        l.forward_infer(&x, rows, &mut back, &mut ws);
        assert_eq!(back, f32_out);
    }

    #[test]
    fn feed_forward_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let ff = FeedForward::new(4, 16, &mut rng);
        let x = Tensor::zeros(&[3, 4]);
        assert_eq!(ff.forward(&x).shape(), vec![3, 4]);
    }
}
