//! Row-wise softmax, log-softmax and cross-entropy loss.
//!
//! The fused op's forward is the inference plane's
//! [`softmax_rows_scaled_masked_inplace`] — one kernel for both planes. Its
//! scale, mask, max, and normalize steps run through the SIMD primitives
//! when the SIMD backend is active. Every one of those steps is
//! per-lane-exact (mul/add/max/div) and the exp+sum pass stays scalar, so
//! the softmax *forward* is bit-identical under both backends — only the
//! backward's `Σ g·y` reduction reorders (within the property-tested 1e-4).

use crate::inference::softmax_rows_scaled_masked_inplace;
use crate::ops::simd;
use crate::tensor::Tensor;

fn check_2d(x: &Tensor, op: &str) -> (usize, usize) {
    let shape = x.shape();
    assert_eq!(shape.len(), 2, "{op}: expected 2-D tensor, got {shape:?}");
    (shape[0], shape[1])
}

impl Tensor {
    /// Numerically-stable softmax over each row of an `[m, n]` tensor.
    ///
    /// Equivalent to [`Tensor::softmax_rows_scaled_masked`] with scale `1.0`
    /// and no mask.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn softmax_rows(&self) -> Tensor {
        self.softmax_rows_scaled_masked(1.0, None)
    }

    /// Fused `softmax(self · scale + mask)` over each row of an `[m, n]`
    /// tensor — attention's scale-mask-normalize sequence as a single graph
    /// node.
    ///
    /// The composed form `x.mul_scalar(scale).add_const(mask).softmax_rows()`
    /// allocates two intermediate `[m, n]` tensors and records three backward
    /// closures per call; the fused kernel does one pass over one buffer and
    /// records one closure (and skips the backward bookkeeping entirely when
    /// the input is untracked, e.g. during eval-mode scoring). The backward
    /// pass is the softmax Jacobian product followed by the scale:
    /// `dx = scale · y · (g − Σ g·y)` per row.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D, or if `mask` is given and its length
    /// is not `m·n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use akg_tensor::Tensor;
    /// let x = Tensor::from_vec(vec![0.0, 1.0, 8.0, 8.0], &[2, 2]);
    /// let mask = [0.0, -1e9, 0.0, 0.0]; // row 0 may only see column 0
    /// let y = x.softmax_rows_scaled_masked(0.5, Some(&mask)).to_vec();
    /// assert!((y[0] - 1.0).abs() < 1e-6 && y[1] < 1e-6);
    /// assert!((y[2] - 0.5).abs() < 1e-6);
    /// ```
    pub fn softmax_rows_scaled_masked(&self, scale: f32, mask: Option<&[f32]>) -> Tensor {
        let (m, n) = check_2d(self, "softmax_rows_scaled_masked");
        let mut data = self.to_vec();
        softmax_rows_scaled_masked_inplace(&mut data, m, n, scale, mask);
        // The backward closure needs the output; clone it only when gradients
        // can actually flow (eval-mode scoring skips the copy).
        let y = if self.is_tracked() { data.clone() } else { Vec::new() };
        Tensor::from_op(
            data,
            &[m, n],
            vec![self.clone()],
            Box::new(move |g| {
                // dx = scale * y * (g - sum(g*y)) per row
                let mut dx = vec![0.0f32; m * n];
                for r in 0..m {
                    let gr = &g[r * n..(r + 1) * n];
                    let yr = &y[r * n..(r + 1) * n];
                    let dot = simd::row_dot_nofma(gr, yr);
                    simd::softmax_bwd_row(&mut dx[r * n..(r + 1) * n], yr, gr, dot, scale);
                }
                vec![dx]
            }),
        )
    }

    /// Numerically-stable log-softmax over each row.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn log_softmax_rows(&self) -> Tensor {
        let (m, n) = check_2d(self, "log_softmax_rows");
        let a = self.to_vec();
        let mut data = vec![0.0f32; m * n];
        // The backward closure needs the softmax; materialize it only when
        // gradients can actually flow.
        let tracked = self.is_tracked();
        let mut soft = vec![0.0f32; if tracked { m * n } else { 0 }];
        for r in 0..m {
            let row = &a[r * n..(r + 1) * n];
            let max = simd::row_max(row);
            let mut sum = 0.0f32;
            for &v in row {
                sum += (v - max).exp();
            }
            let log_sum = sum.ln() + max;
            for c in 0..n {
                data[r * n + c] = row[c] - log_sum;
                if tracked {
                    soft[r * n + c] = (row[c] - log_sum).exp();
                }
            }
        }
        Tensor::from_op(
            data,
            &[m, n],
            vec![self.clone()],
            Box::new(move |g| {
                // dx = g - softmax * sum(g) per row
                let mut dx = vec![0.0f32; m * n];
                for r in 0..m {
                    let gsum: f32 = g[r * n..(r + 1) * n].iter().sum();
                    for c in 0..n {
                        dx[r * n + c] = g[r * n + c] - soft[r * n + c] * gsum;
                    }
                }
                vec![dx]
            }),
        )
    }

    /// Mean cross-entropy between row logits and integer class targets.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D, `targets.len()` mismatches the row
    /// count, or a target is out of range.
    pub fn cross_entropy(&self, targets: &[usize]) -> Tensor {
        let (m, n) = check_2d(self, "cross_entropy");
        assert_eq!(targets.len(), m, "cross_entropy: need one target per row");
        for &t in targets {
            assert!(t < n, "cross_entropy: target {t} out of range for {n} classes");
        }
        let log_probs = self.log_softmax_rows();
        // pick log p[target] per row via a constant one-hot mask
        let mut mask = vec![0.0f32; m * n];
        for (r, &t) in targets.iter().enumerate() {
            mask[r * n + t] = 1.0;
        }
        log_probs.mul_const(&mask).sum_all().mul_scalar(-1.0 / m as f32)
    }

    /// Mean cross-entropy against *soft* target distributions (one row of
    /// probabilities per example). Used for pseudo-label adaptation where
    /// label confidence is fractional.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch.
    pub fn cross_entropy_soft(&self, targets: &Tensor) -> Tensor {
        let (m, _n) = check_2d(self, "cross_entropy_soft");
        assert_eq!(self.shape(), targets.shape(), "cross_entropy_soft: shape mismatch");
        let t = targets.to_vec();
        self.log_softmax_rows().mul_const(&t).sum_all().mul_scalar(-1.0 / m as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 10.0, 10.0, 10.0], &[2, 3]);
        let y = x.softmax_rows().to_vec();
        let s0: f32 = y[0..3].iter().sum();
        let s1: f32 = y[3..6].iter().sum();
        assert!((s0 - 1.0).abs() < 1e-6);
        assert!((s1 - 1.0).abs() < 1e-6);
        assert!((y[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_invariant_to_shift() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let y = x.softmax_rows().to_vec();
        let xs = Tensor::from_vec(vec![101.0, 102.0], &[1, 2]);
        let ys = xs.softmax_rows().to_vec();
        assert!((y[0] - ys[0]).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[1, 3]);
        let a = x.log_softmax_rows().to_vec();
        let b: Vec<f32> = x.softmax_rows().to_vec().iter().map(|v| v.ln()).collect();
        for (ai, bi) in a.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_near_zero() {
        let x = Tensor::from_vec(vec![100.0, 0.0, 0.0], &[1, 3]);
        let loss = x.cross_entropy(&[0]);
        assert!(loss.item() < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_is_log_n() {
        let x = Tensor::from_vec(vec![0.0; 4], &[1, 4]);
        let loss = x.cross_entropy(&[2]);
        assert!((loss.item() - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let x = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]).requires_grad(true);
        let loss = x.cross_entropy(&[1]);
        loss.backward();
        let g = x.grad().unwrap();
        assert!((g[0] - 0.5).abs() < 1e-5);
        assert!((g[1] + 0.5).abs() < 1e-5);
    }

    #[test]
    fn soft_targets_match_hard_when_onehot() {
        let x = Tensor::from_vec(vec![0.3, -0.2, 1.0, 0.5, 0.5, 0.5], &[2, 3]);
        let hard = x.cross_entropy(&[2, 0]);
        let soft_targets = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0], &[2, 3]);
        let soft = x.cross_entropy_soft(&soft_targets);
        assert!((hard.item() - soft.item()).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_rejects_bad_target() {
        let x = Tensor::zeros(&[1, 2]);
        let _ = x.cross_entropy(&[5]);
    }
}
