//! Fused layer normalization: forward, gradient, and parameter gradients as
//! a single graph node.
//!
//! The composed formulation (`mean_axis1` → `add_col` → `square` →
//! `mean_axis1` → `add_scalar` → `sqrt` → `recip` → `mul_col` → `mul_bias`
//! → `add_bias`) records nine ops and captures roughly six `[m, n]`-sized
//! intermediate buffers per forward. The fused op does two passes over one
//! buffer, captures only the normalized activations plus the per-row
//! inverse standard deviations, and computes the full analytic backward in
//! one sweep. Its forward arithmetic follows the composed chain
//! element-for-element, so switching `nn::norm::LayerNorm` to the fused op
//! changed no eval-mode output bit.
//!
//! Under the SIMD backend the row reductions (mean, variance, and the two
//! backward means) run through the shared lane-parallel primitives in
//! `ops::simd` — the same functions `sum_axis1` uses, so the fused op stays
//! bit-identical to the composed chain *within* each backend even though
//! the two backends round the reductions differently.

use crate::ops::simd;
use crate::tensor::Tensor;

/// Layer normalization over each `n`-wide row of `x`, in place — the one
/// kernel behind both [`Tensor::layer_norm`] and the inference plane's
/// [`layer_norm_rows_inplace`](crate::inference::layer_norm_rows_inplace),
/// so the two planes are bit-identical per backend by construction. When
/// `saved` is given it receives what the backward reads: the normalized
/// activations `x̂` (`[rows, n]`) and each row's `1/σ` (`[rows]`); without
/// it neither is stored.
pub(crate) fn layer_norm_slice(
    x: &mut [f32],
    n: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    mut saved: Option<(&mut [f32], &mut [f32])>,
) {
    let inv_n = 1.0 / n as f32;
    for (r, row) in x.chunks_exact_mut(n).enumerate() {
        let mean = simd::row_sum(row) * inv_n;
        // x + (-mean) is bitwise x - mean, which lets the centering share
        // the lane-exact add primitive.
        simd::inplace_add_scalar(row, -mean);
        let var = simd::row_dot_nofma(row, row) * inv_n;
        let is = 1.0 / (var + eps).sqrt();
        if let Some((xhat, inv_std)) = saved.as_mut() {
            inv_std[r] = is;
            let xhat = &mut xhat[r * n..(r + 1) * n];
            for (c, v) in row.iter_mut().enumerate() {
                xhat[c] = *v * is;
                *v = xhat[c] * gamma[c] + beta[c];
            }
        } else {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (*v * is) * gamma[c] + beta[c];
            }
        }
    }
}

impl Tensor {
    /// Fused layer normalization over the columns of each row of an
    /// `[m, n]` tensor: `y = (x − μ_r) / √(σ²_r + eps) · gamma + beta`,
    /// with per-row mean `μ_r` and biased variance `σ²_r`.
    ///
    /// This is the kernel behind [`crate::nn::norm::LayerNorm`]; gradients
    /// flow to `self`, `gamma`, and `beta`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or `gamma`/`beta` are not `[n]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use akg_tensor::Tensor;
    /// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
    /// let y = x.layer_norm(&Tensor::ones(&[3]), &Tensor::zeros(&[3]), 1e-5).to_vec();
    /// let mean: f32 = y.iter().sum::<f32>() / 3.0;
    /// assert!(mean.abs() < 1e-6); // row is centered...
    /// assert!(y[2] > y[1] && y[1] > y[0]); // ...and order-preserving
    /// ```
    pub fn layer_norm(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        let shape = self.shape();
        assert_eq!(shape.len(), 2, "layer_norm: expected 2-D tensor, got {shape:?}");
        let (m, n) = (shape[0], shape[1]);
        assert_eq!(gamma.shape(), vec![n], "layer_norm: gamma must be [n]");
        assert_eq!(beta.shape(), vec![n], "layer_norm: beta must be [n]");
        assert!(n > 0, "layer_norm: rows must be non-empty");

        let gamma_v = gamma.to_vec();
        let beta_v = beta.to_vec();
        let inv_n = 1.0 / n as f32;
        let mut data = self.to_vec();

        let tracked = self.is_tracked() || gamma.is_tracked() || beta.is_tracked();
        // Normalized activations x̂ (pre-gamma/beta) and each row's 1/σ,
        // saved by the forward kernel for backward.
        let mut xhat = vec![0.0f32; if tracked { m * n } else { 0 }];
        let mut inv_std = vec![0.0f32; if tracked { m } else { 0 }];
        let saved = tracked.then_some((&mut xhat[..], &mut inv_std[..]));
        layer_norm_slice(&mut data, n, &gamma_v, &beta_v, eps, saved);

        Tensor::from_op(
            data,
            &[m, n],
            vec![self.clone(), gamma.clone(), beta.clone()],
            Box::new(move |g| {
                let mut dx = vec![0.0f32; m * n];
                let mut dgamma = vec![0.0f32; n];
                let mut dbeta = vec![0.0f32; n];
                // dh = dL/dx̂ = g · gamma, materialized once per row; the two
                // row means below are the mean-subtraction and variance
                // terms of the layer-norm Jacobian.
                let mut dh = vec![0.0f32; n];
                for r in 0..m {
                    let gr = &g[r * n..(r + 1) * n];
                    let xr = &xhat[r * n..(r + 1) * n];
                    simd::vmul_into(&mut dh, gr, &gamma_v);
                    let mean_dh = simd::row_sum(&dh) * inv_n;
                    let mean_dh_xhat = simd::row_dot_nofma(&dh, xr) * inv_n;
                    simd::add_prod_assign(&mut dgamma, gr, xr);
                    simd::vadd_assign(&mut dbeta, gr);
                    simd::layernorm_bwd_dx_row(
                        &mut dx[r * n..(r + 1) * n],
                        &dh,
                        xr,
                        mean_dh,
                        mean_dh_xhat,
                        inv_std[r],
                    );
                }
                vec![dx, dgamma, dbeta]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::gradcheck;

    /// The composed-op formulation the fused kernel replaces, kept as the
    /// reference implementation for equivalence tests.
    fn layer_norm_composed(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        let mean = x.mean_axis1();
        let centered = x.add_col(&mean.neg());
        let var = centered.square().mean_axis1();
        let inv_std = var.add_scalar(eps).sqrt().recip();
        centered.mul_col(&inv_std).mul_bias(gamma).add_bias(beta)
    }

    #[test]
    fn fused_forward_is_bit_identical_to_composed() {
        let _guard = crate::backend::test_lock();
        let x = Tensor::from_vec(
            vec![1.0, -2.5, 3.25, 0.125, 7.5, -0.75, 2.0, 4.5, -1.0, 0.5, 0.25, -3.5],
            &[3, 4],
        );
        let gamma = Tensor::from_vec(vec![1.5, 0.5, -1.0, 2.0], &[4]);
        let beta = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.0], &[4]);
        let fused = x.layer_norm(&gamma, &beta, 1e-5).to_vec();
        let composed = layer_norm_composed(&x, &gamma, &beta, 1e-5).to_vec();
        assert_eq!(fused, composed, "fused forward must match the composed chain exactly");
    }

    #[test]
    fn fused_backward_matches_finite_differences() {
        let x =
            Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.25, -0.75], &[2, 3]).requires_grad(true);
        let gamma = Tensor::from_vec(vec![1.2, 0.8, -0.5], &[3]).requires_grad(true);
        let beta = Tensor::from_vec(vec![0.0, 0.1, -0.1], &[3]).requires_grad(true);
        let report = gradcheck(
            &[x, gamma, beta],
            |ls| ls[0].layer_norm(&ls[1], &ls[2], 1e-5).square().sum_all(),
            1e-2,
        );
        assert!(report.passes(2e-2), "max rel error {}", report.max_rel_error);
    }

    #[test]
    fn fused_backward_matches_composed_backward() {
        let data = vec![0.3, 1.7, -0.9, 2.1, 0.05, -1.3, 0.8, 0.8];
        let gamma_d = vec![1.0, -0.5, 2.0, 0.25];
        let beta_d = vec![0.5, 0.0, -0.5, 1.0];

        let x1 = Tensor::from_vec(data.clone(), &[2, 4]).requires_grad(true);
        let g1 = Tensor::from_vec(gamma_d.clone(), &[4]).requires_grad(true);
        let b1 = Tensor::from_vec(beta_d.clone(), &[4]).requires_grad(true);
        x1.layer_norm(&g1, &b1, 1e-5).square().sum_all().backward();

        let x2 = Tensor::from_vec(data, &[2, 4]).requires_grad(true);
        let g2 = Tensor::from_vec(gamma_d, &[4]).requires_grad(true);
        let b2 = Tensor::from_vec(beta_d, &[4]).requires_grad(true);
        layer_norm_composed(&x2, &g2, &b2, 1e-5).square().sum_all().backward();

        for (pair, name) in [((x1, x2), "dx"), ((g1, g2), "dgamma"), ((b1, b2), "dbeta")] {
            let (fused, composed) = (pair.0.grad().unwrap(), pair.1.grad().unwrap());
            for (f, c) in fused.iter().zip(&composed) {
                assert!((f - c).abs() < 1e-4, "{name}: {f} vs {c}");
            }
        }
    }

    #[test]
    fn untracked_input_skips_backward_capture() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let y = x.layer_norm(&Tensor::ones(&[2]), &Tensor::zeros(&[2]), 1e-5);
        assert!(!y.is_tracked());
    }

    #[test]
    #[should_panic(expected = "gamma must be [n]")]
    fn rejects_mismatched_gamma() {
        let x = Tensor::zeros(&[2, 3]);
        let _ = x.layer_norm(&Tensor::ones(&[2]), &Tensor::zeros(&[3]), 1e-5);
    }
}
