//! Normalization layers: [`BatchNorm1d`] (the GNN layer's normalizer, Eq. 4)
//! and [`LayerNorm`] (the temporal transformer's normalizer).

use crate::nn::Module;
use crate::ops::simd;
use crate::tensor::Tensor;

/// Batch normalization over the rows of an `[m, n]` input (per-feature
/// statistics across the m "batch" rows — for the hierarchical GNN the rows
/// are graph nodes).
///
/// The layer always normalizes with the *current* batch's statistics
/// (instance-style normalization): each forward pass is one graph whose
/// node rows are the "batch", so global running statistics would change the
/// function the model was trained as.
#[derive(Debug)]
pub struct BatchNorm1d {
    gamma: Tensor,
    beta: Tensor,
    eps: f32,
    features: usize,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer for `features`-wide inputs.
    pub fn new(features: usize) -> Self {
        BatchNorm1d {
            gamma: Tensor::ones(&[features]).requires_grad(true),
            beta: Tensor::zeros(&[features]).requires_grad(true),
            eps: 1e-5,
            features,
        }
    }

    /// Instance-statistics forward: normalizes with the *current* batch's
    /// statistics through `&self` — the form a shared, immutable-after-build
    /// serving engine needs. Fully differentiable.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 2-D `[_, features]` or has a single row
    /// (undefined variance).
    pub fn forward_instance(&self, x: &Tensor) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 2, "BatchNorm1d: expected 2-D input");
        assert_eq!(s[1], self.features, "BatchNorm1d: feature mismatch");
        assert!(s[0] > 1, "BatchNorm1d: the batch must have >1 rows");
        let mean = x.mean_axis0();
        let centered = x.add_bias(&mean.neg());
        let var = centered.square().mean_axis0();
        let inv_std = var.add_scalar(self.eps).sqrt().recip();
        centered.mul_bias(&inv_std).mul_bias(&self.gamma).add_bias(&self.beta)
    }

    /// Grouped instance normalization: the input is `groups` independent
    /// row-blocks of equal height stacked into one `[groups * rows,
    /// features]` matrix (one KG's node rows replicated per frame of a
    /// batch), and each block is normalized with *its own* batch
    /// statistics.
    ///
    /// Bit-identical per block to calling [`BatchNorm1d::forward_instance`]
    /// on that block alone: the forward is the shared raw body
    /// ([`instance_norm_grouped_into`](crate::inference::instance_norm_grouped_into))
    /// the inference plane also runs, which evaluates mean, variance and
    /// normalization with the same operations in the same accumulation
    /// order (rows ascending, `sum * (1/m)`, `1 / sqrt(var + eps)`).
    ///
    /// Differentiable: when `x`, `gamma` or `beta` is tracked the op records
    /// one fused analytic backward (per block, the batch-norm Jacobian over
    /// that block's rows; `gamma`/`beta` gradients summed over all blocks),
    /// capturing only the input. Untracked calls capture nothing.
    /// [`BatchNorm1d::forward_instance`] stays the composed single-block
    /// oracle: per block the gradients agree up to summation order.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 2-D `[groups * rows, features]`, if the row
    /// count is not divisible by `groups`, or if any block has fewer than two
    /// rows.
    pub fn forward_instance_grouped(&self, x: &Tensor, groups: usize) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 2, "BatchNorm1d: expected 2-D input");
        assert_eq!(s[1], self.features, "BatchNorm1d: feature mismatch");
        assert!(groups > 0, "BatchNorm1d: need at least one group");
        assert!(
            s[0].is_multiple_of(groups),
            "BatchNorm1d: {} rows not divisible into {groups} groups",
            s[0]
        );
        let m = s[0] / groups;
        assert!(m > 1, "BatchNorm1d: the batch must have >1 rows");
        let n = self.features;
        let mut out = vec![0.0f32; x.numel()];
        let mut mean = vec![0.0f32; n];
        let mut var = vec![0.0f32; n];
        let mut inv_std = vec![0.0f32; n];
        x.with_data(|a| {
            self.forward_instance_grouped_raw(
                a,
                groups,
                &mut out,
                &mut mean,
                &mut var,
                &mut inv_std,
            )
        });
        if !(x.is_tracked() || self.gamma.is_tracked() || self.beta.is_tracked()) {
            return Tensor::from_vec(out, &s);
        }
        let input = x.to_vec();
        let gamma = self.gamma.to_vec();
        let eps = self.eps;
        Tensor::from_op(
            out,
            &s,
            vec![x.clone(), self.gamma.clone(), self.beta.clone()],
            Box::new(move |g| grouped_instance_norm_backward(g, &input, groups, n, &gamma, eps)),
        )
    }

    /// Inference-plane grouped instance normalization: the shared raw body
    /// behind [`BatchNorm1d::forward_instance_grouped`] over
    /// workspace-leased scratch — no tensors, no allocation, bit-identical
    /// per backend (it *is* the same code).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`BatchNorm1d::forward_instance_grouped`], or if `out` length
    /// mismatches `x`.
    pub fn forward_instance_grouped_infer(
        &self,
        x: &[f32],
        groups: usize,
        out: &mut [f32],
        ws: &mut crate::workspace::Workspace,
    ) {
        let n = self.features;
        let mut mean = ws.lease(n);
        let mut var = ws.lease(n);
        let mut inv_std = ws.lease(n);
        self.forward_instance_grouped_raw(x, groups, out, &mut mean, &mut var, &mut inv_std);
        ws.release(mean);
        ws.release(var);
        ws.release(inv_std);
    }

    /// The one grouped-normalization body both planes run.
    fn forward_instance_grouped_raw(
        &self,
        x: &[f32],
        groups: usize,
        out: &mut [f32],
        mean: &mut [f32],
        var: &mut [f32],
        inv_std: &mut [f32],
    ) {
        self.gamma.with_data(|gamma| {
            self.beta.with_data(|beta| {
                crate::inference::instance_norm_grouped_into(
                    out,
                    x,
                    groups,
                    self.features,
                    gamma,
                    beta,
                    self.eps,
                    mean,
                    var,
                    inv_std,
                );
            })
        });
    }
}

impl Module for BatchNorm1d {
    fn params(&self) -> Vec<Tensor> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// The fused backward of [`BatchNorm1d::forward_instance_grouped`]: for
/// each block of `m` rows, with `x̂` the block normalized to zero mean and
/// unit variance and `s_g = Σ_r g`, `s_gx = Σ_r g·x̂` per feature,
/// `dx = γ/σ · (g − s_g/m − x̂·s_gx/m)`; `dγ = Σ s_gx` and `dβ = Σ s_g` over
/// all blocks. `x̂` and `1/σ` come from the shared forward body with unit
/// scale and zero shift, so the statistics are the forward's own. Under the
/// Simd backend one dispatched call runs the same per-element operations in
/// the same order (all lane-exact), so its result is bitwise this body's.
fn grouped_instance_norm_backward(
    g: &[f32],
    x: &[f32],
    groups: usize,
    n: usize,
    gamma: &[f32],
    eps: f32,
) -> Vec<Vec<f32>> {
    let mut dx = vec![0.0f32; x.len()];
    let mut dgamma = vec![0.0f32; n];
    let mut dbeta = vec![0.0f32; n];
    if simd::try_instance_norm_grouped_backward(
        &mut dx,
        &mut dgamma,
        &mut dbeta,
        g,
        x,
        groups,
        n,
        gamma,
        eps,
    ) {
        return vec![dx, dgamma, dbeta];
    }
    let m = x.len() / (groups * n);
    let inv_m = 1.0 / m as f32;
    let (ones, zeros) = (vec![1.0f32; n], vec![0.0f32; n]);
    let (mut mean, mut var, mut inv_std) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
    let mut xhat = vec![0.0f32; m * n];
    let (mut sg, mut sgx) = (vec![0.0f32; n], vec![0.0f32; n]);
    for b in 0..groups {
        let block = b * m * n..(b + 1) * m * n;
        crate::inference::instance_norm_grouped_into(
            &mut xhat,
            &x[block.clone()],
            1,
            n,
            &ones,
            &zeros,
            eps,
            &mut mean,
            &mut var,
            &mut inv_std,
        );
        let gb = &g[block.clone()];
        sg.fill(0.0);
        sgx.fill(0.0);
        for (gr, xr) in gb.chunks_exact(n).zip(xhat.chunks_exact(n)) {
            simd::vadd_assign(&mut sg, gr);
            simd::add_prod_assign(&mut sgx, gr, xr);
        }
        simd::vadd_assign(&mut dbeta, &sg);
        simd::vadd_assign(&mut dgamma, &sgx);
        for ((dr, gr), xr) in
            dx[block].chunks_exact_mut(n).zip(gb.chunks_exact(n)).zip(xhat.chunks_exact(n))
        {
            for c in 0..n {
                let centered = gr[c] - sg[c] * inv_m - xr[c] * sgx[c] * inv_m;
                dr[c] = gamma[c] * inv_std[c] * centered;
            }
        }
    }
    vec![dx, dgamma, dbeta]
}

/// Layer normalization across the columns of each row of an `[m, n]` input.
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Tensor,
    beta: Tensor,
    eps: f32,
    features: usize,
}

impl LayerNorm {
    /// Creates a layer-norm over `features`-wide rows.
    pub fn new(features: usize) -> Self {
        LayerNorm {
            gamma: Tensor::ones(&[features]).requires_grad(true),
            beta: Tensor::zeros(&[features]).requires_grad(true),
            eps: 1e-5,
            features,
        }
    }

    /// Applies normalization to `[m, n]` via the fused
    /// [`Tensor::layer_norm`] kernel (one graph node instead of nine, no
    /// intermediate `[m, n]` allocations).
    ///
    /// # Panics
    ///
    /// Panics if the input is not 2-D `[_, features]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 2, "LayerNorm: expected 2-D input");
        assert_eq!(s[1], self.features, "LayerNorm: feature mismatch");
        x.layer_norm(&self.gamma, &self.beta, self.eps)
    }

    /// Inference-plane forward: normalizes the raw `[rows, features]`
    /// matrix in place via
    /// [`layer_norm_rows_inplace`](crate::inference::layer_norm_rows_inplace)
    /// — the same fused arithmetic as [`LayerNorm::forward`], bit-identical
    /// per backend, with no graph node and no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of `features`.
    pub fn forward_infer(&self, x: &mut [f32]) {
        self.gamma.with_data(|gamma| {
            self.beta.with_data(|beta| {
                crate::inference::layer_norm_rows_inplace(x, self.features, gamma, beta, self.eps);
            })
        });
    }
}

impl Module for LayerNorm {
    fn params(&self) -> Vec<Tensor> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batchnorm_normalizes_training_batch() {
        let bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(vec![0.0, 10.0, 2.0, 20.0, 4.0, 30.0], &[3, 2]);
        let y = bn.forward_instance(&x);
        let out = y.to_vec();
        // each column should be zero-mean, unit-variance (biased)
        for c in 0..2 {
            let col: Vec<f32> = (0..3).map(|r| out[r * 2 + c]).collect();
            let mean: f32 = col.iter().sum::<f32>() / 3.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn batchnorm_grads_flow_to_gamma_beta() {
        let bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        let y = bn.forward_instance(&x).sum_all();
        y.backward();
        for p in bn.params() {
            assert!(p.grad().is_some());
        }
        assert!(x.grad().is_some());
    }

    #[test]
    #[should_panic(expected = "batch must have >1")]
    fn batchnorm_training_rejects_single_row() {
        let bn = BatchNorm1d::new(2);
        let _ = bn.forward_instance(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    fn instance_forward_is_differentiable() {
        let bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 5.0], &[2, 2]).requires_grad(true);
        bn.forward_instance(&x).sum_all().backward();
        assert!(x.grad().is_some());
        for p in bn.params() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    fn grouped_forward_is_bitwise_blockwise() {
        let _guard = crate::backend::test_lock();
        let bn = BatchNorm1d::new(3);
        // Two groups of 4 rows with very different scales per block.
        let mut data: Vec<f32> = (0..12).map(|i| (i as f32 * 0.37).cos()).collect();
        data.extend((0..12).map(|i| 50.0 + (i as f32 * 0.11).sin() * 9.0));
        let stacked = Tensor::from_vec(data.clone(), &[8, 3]);
        let grouped = bn.forward_instance_grouped(&stacked, 2).to_vec();
        for g in 0..2 {
            let block = Tensor::from_vec(data[g * 12..(g + 1) * 12].to_vec(), &[4, 3]);
            let solo = bn.forward_instance(&block).to_vec();
            assert_eq!(&grouped[g * 12..(g + 1) * 12], &solo[..], "group {g} not bit-identical");
        }
    }

    /// A layer with non-trivial `gamma`/`beta`, so their gradients and the
    /// `gamma` factor of `dx` are exercised.
    fn scaled_norm(features: usize) -> BatchNorm1d {
        let bn = BatchNorm1d::new(features);
        let params = bn.params();
        params[0]
            .update_data(|g| g.iter_mut().enumerate().for_each(|(c, v)| *v = 1.3 - 0.4 * c as f32));
        params[1]
            .update_data(|b| b.iter_mut().enumerate().for_each(|(c, v)| *v = 0.2 * c as f32 - 0.1));
        bn
    }

    /// Stacked `groups × 4` rows of 3 features, every block at its own
    /// scale and offset.
    fn grouped_input(groups: usize) -> Vec<f32> {
        (0..groups * 12)
            .map(|i| {
                let block = (i / 12) as f32;
                (i as f32 * 0.61).sin() * (1.0 + block) + 3.0 * block
            })
            .collect()
    }

    /// An upstream gradient that is not constant per column (a plain
    /// `sum_all` would give `dx = 0` through a normalization).
    fn weighted_loss(y: &Tensor) -> Tensor {
        let w: Vec<f32> = (0..y.numel()).map(|i| (i as f32 * 0.37).cos()).collect();
        y.mul(&Tensor::from_vec(w, &y.shape())).square().sum_all()
    }

    #[test]
    fn grouped_backward_matches_finite_differences() {
        use crate::gradcheck::gradcheck;
        for groups in [1, 3] {
            let bn = scaled_norm(3);
            let x = Tensor::from_vec(grouped_input(groups), &[groups * 4, 3]).requires_grad(true);
            let params = bn.params();
            let report = gradcheck(
                &[x, params[0].clone(), params[1].clone()],
                |ls| weighted_loss(&bn.forward_instance_grouped(&ls[0], groups)),
                1e-2,
            );
            assert!(report.passes(2e-2), "groups {groups}: max rel error {}", report.max_rel_error);
        }
    }

    /// `‖a − b‖ ≤ 1e-5 · ‖b‖`.
    fn assert_close(a: &[f32], b: &[f32], what: &str) {
        let diff = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt();
        let norm = b.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(diff <= 1e-5 * norm, "{what}: off by {diff} (norm {norm})");
    }

    #[test]
    fn grouped_backward_matches_composed_per_block() {
        use crate::backend::{backend, set_backend, Backend};
        let _guard = crate::backend::test_lock();
        let prev = backend();
        let groups = 3;
        let data = grouped_input(groups);
        for b in [Backend::Scalar, Backend::Simd] {
            set_backend(b);
            // fused: one op over the stacked blocks
            let fused_bn = scaled_norm(3);
            let x = Tensor::from_vec(data.clone(), &[groups * 4, 3]).requires_grad(true);
            weighted_loss(&fused_bn.forward_instance_grouped(&x, groups)).backward();
            // composed: each block through `forward_instance`, rejoined so
            // the loss sees the same upstream weights
            let composed_bn = scaled_norm(3);
            let blocks: Vec<Tensor> = data
                .chunks_exact(12)
                .map(|blk| Tensor::from_vec(blk.to_vec(), &[4, 3]).requires_grad(true))
                .collect();
            let outs: Vec<Tensor> =
                blocks.iter().map(|blk| composed_bn.forward_instance(blk)).collect();
            weighted_loss(&Tensor::concat_rows(&outs)).backward();

            let dx = x.grad().expect("stacked input got no gradient");
            for (g, blk) in blocks.iter().enumerate() {
                let want = blk.grad().expect("block got no gradient");
                assert_close(&dx[g * 12..(g + 1) * 12], &want, &format!("{b:?} dx block {g}"));
            }
            for (fused, composed) in fused_bn.params().iter().zip(composed_bn.params()) {
                assert_close(
                    &fused.grad().unwrap(),
                    &composed.grad().unwrap(),
                    &format!("{b:?} dparam"),
                );
            }
        }
        set_backend(prev);
    }

    #[test]
    fn grouped_untracked_input_records_no_backward() {
        let bn = BatchNorm1d::new(3);
        bn.set_frozen(true);
        let y = bn.forward_instance_grouped(&Tensor::from_vec(grouped_input(2), &[8, 3]), 2);
        assert!(!y.is_tracked());
        // a tracked input is enough to record the op, even with frozen params
        let x = Tensor::from_vec(grouped_input(2), &[8, 3]).requires_grad(true);
        assert!(bn.forward_instance_grouped(&x, 2).is_tracked());
    }

    #[test]
    fn grouped_infer_matches_grouped_forward_bitwise() {
        let _guard = crate::backend::test_lock();
        let bn = BatchNorm1d::new(3);
        let data: Vec<f32> = (0..24).map(|i| (i as f32 * 0.29).sin() * 4.0).collect();
        let reference = bn.forward_instance_grouped(&Tensor::from_vec(data.clone(), &[8, 3]), 2);
        let mut ws = crate::workspace::Workspace::new();
        let mut out = vec![0.0f32; 24];
        bn.forward_instance_grouped_infer(&data, 2, &mut out, &mut ws);
        assert_eq!(out, reference.to_vec());
    }

    #[test]
    fn layernorm_infer_matches_forward_bitwise() {
        let _guard = crate::backend::test_lock();
        let ln = LayerNorm::new(4);
        let data: Vec<f32> = (0..12).map(|i| (i as f32 * 0.77).cos() * 3.0).collect();
        let reference = ln.forward(&Tensor::from_vec(data.clone(), &[3, 4])).to_vec();
        let mut raw = data;
        ln.forward_infer(&mut raw);
        assert_eq!(raw, reference);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn grouped_forward_rejects_ragged_groups() {
        let bn = BatchNorm1d::new(2);
        let _ = bn.forward_instance_grouped(&Tensor::zeros(&[5, 2]), 2);
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let ln = LayerNorm::new(3);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 100.0, 200.0, 300.0], &[2, 3]);
        let y = ln.forward(&x).to_vec();
        for r in 0..2 {
            let row = &y[r * 3..(r + 1) * 3];
            let mean: f32 = row.iter().sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-4);
        }
        // scale invariance: both rows normalize to the same pattern
        for c in 0..3 {
            assert!((y[c] - y[3 + c]).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_grads_flow() {
        let ln = LayerNorm::new(2);
        let x = Tensor::from_vec(vec![1.0, 3.0], &[1, 2]).requires_grad(true);
        ln.forward(&x).sum_all().backward();
        assert!(x.grad().is_some());
        assert!(ln.params()[0].grad().is_some());
    }
}
