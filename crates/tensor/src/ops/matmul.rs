//! 2-D matrix multiplication and transpose.
//!
//! Forward products dispatch between the in-order reference kernel (small
//! operands — bit-identical to the seed implementation) and the blocked,
//! panel-packed, multi-threaded kernel in [`kernels`](super::kernels) (large
//! operands). Backward passes never materialize a transpose: `dA = G·Bᵀ` and
//! `dB = Aᵀ·G` run through the transposed-input kernels
//! [`kernels::matmul_nt`](super::kernels::matmul_nt) /
//! [`kernels::matmul_tn`](super::kernels::matmul_tn) directly on the buffers
//! captured at forward time. A parent untracked when the product is built
//! (a frozen weight) gets no gradient computed, and the operand only its
//! gradient would read is never captured.

use crate::ops::kernels::{
    check_dims, matmul_blocked, matmul_ikj, matmul_nt, matmul_tn, BLOCKED_DISPATCH_THRESHOLD,
};
use crate::tensor::Tensor;

/// Row-major matrix product `[m,k] x [k,n] -> [m,n]` used both by the
/// forward pass and by the backward closures. Dispatches on problem size:
/// below [`BLOCKED_DISPATCH_THRESHOLD`] flops the in-order `ikj` kernel
/// runs (bit-identical to the seed), above it the blocked threaded kernel.
///
/// # Panics
///
/// Panics if `a.len() != m*k` or `b.len() != k*n` — the raw boundary
/// validates so shape bugs surface here instead of as silent garbage or an
/// out-of-bounds index deep inside a kernel.
pub(crate) fn matmul_raw(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    check_dims(a, b, m, k, n, "matmul_raw");
    if m * k * n >= BLOCKED_DISPATCH_THRESHOLD {
        matmul_blocked(a, b, m, k, n)
    } else {
        matmul_ikj(a, b, m, k, n)
    }
}

pub(crate) fn transpose_raw(a: &[f32], m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = a[i * n + j];
        }
    }
    out
}

impl Tensor {
    /// Matrix product of two 2-D tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let sa = self.shape();
        let sb = other.shape();
        assert_eq!(sa.len(), 2, "matmul: lhs must be 2-D, got {sa:?}");
        assert_eq!(sb.len(), 2, "matmul: rhs must be 2-D, got {sb:?}");
        assert_eq!(sa[1], sb[0], "matmul: inner dims {} vs {}", sa[1], sb[0]);
        let (m, k, n) = (sa[0], sa[1], sb[1]);
        let data = self.with_data(|a| other.with_data(|b| matmul_raw(a, b, m, k, n)));
        // dA reads only B and dB only A: keep the operand a tracked
        // parent's gradient needs, nothing for a frozen one.
        let (a_tracked, b_tracked) = (self.is_tracked(), other.is_tracked());
        let b = if a_tracked { other.to_vec() } else { Vec::new() };
        let a = if b_tracked { self.to_vec() } else { Vec::new() };
        Tensor::from_op(
            data,
            &[m, n],
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                // dA = G · Bᵀ and dB = Aᵀ · G via the transposed-input fast
                // paths: b ([k,n]) and a ([m,k]) are consumed as-is, no
                // transpose buffer is ever built.
                let da = if a_tracked { matmul_nt(g, &b, m, n, k) } else { Vec::new() };
                let db = if b_tracked { matmul_tn(&a, g, m, k, n) } else { Vec::new() };
                vec![da, db]
            }),
        )
    }

    /// Matrix product with a pre-transposed right-hand side:
    /// `self [m,k] × otherᵀ -> [m,n]` where `other` is stored `[n,k]`.
    ///
    /// Attention's `Q·Kᵀ` uses this to skip materializing `Kᵀ` (one fewer
    /// graph node and one fewer `[k,n]` allocation per head per forward).
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the `k` dimensions disagree.
    ///
    /// # Examples
    ///
    /// ```
    /// use akg_tensor::Tensor;
    /// let q = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
    /// let k = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]);
    /// let fast = q.matmul_t(&k);
    /// let slow = q.matmul(&k.transpose());
    /// assert_eq!(fast.to_vec(), slow.to_vec());
    /// ```
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let sa = self.shape();
        let sb = other.shape();
        assert_eq!(sa.len(), 2, "matmul_t: lhs must be 2-D, got {sa:?}");
        assert_eq!(sb.len(), 2, "matmul_t: rhs must be 2-D, got {sb:?}");
        assert_eq!(sa[1], sb[1], "matmul_t: inner dims {} vs {}", sa[1], sb[1]);
        let (m, k, n) = (sa[0], sa[1], sb[0]);
        // B stored transposed: [n, k]
        let data = self.with_data(|a| other.with_data(|bt| matmul_nt(a, bt, m, k, n)));
        let (a_tracked, b_tracked) = (self.is_tracked(), other.is_tracked());
        let bt = if a_tracked { other.to_vec() } else { Vec::new() };
        let a = if b_tracked { self.to_vec() } else { Vec::new() };
        Tensor::from_op(
            data,
            &[m, n],
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                // C = A·Bᵀ with B stored [n,k]:
                //   dA = G · B      ([m,n] × [n,k])
                //   dB = Gᵀ · A     ([n,m] × [m,k])
                let da = if a_tracked { matmul_raw(g, &bt, m, n, k) } else { Vec::new() };
                let db = if b_tracked { matmul_tn(g, &a, m, n, k) } else { Vec::new() };
                vec![da, db]
            }),
        )
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        let s = self.shape();
        assert_eq!(s.len(), 2, "transpose: expected 2-D tensor, got {s:?}");
        let (m, n) = (s[0], s[1]);
        let data = transpose_raw(&self.to_vec(), m, n);
        Tensor::from_op(
            data,
            &[n, m],
            vec![self.clone()],
            Box::new(move |g| vec![transpose_raw(g, n, m)]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        assert_eq!(a.matmul(&eye).to_vec(), a.to_vec());
    }

    #[test]
    fn matmul_gradients() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).requires_grad(true);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2, 1]).requires_grad(true);
        let c = a.matmul(&b); // [1,1] = 11
        assert_eq!(c.to_vec(), vec![11.0]);
        c.sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![3.0, 4.0]);
        assert_eq!(b.grad().unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose_with_grads() {
        let q =
            Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25, 1.5, -0.75], &[2, 3]).requires_grad(true);
        let k_data = vec![1.0, 0.5, -0.5, 2.0, 0.0, 1.0, -1.0, 0.5, 0.3, 0.3, 0.3, 0.3];
        let k = Tensor::from_vec(k_data, &[4, 3]).requires_grad(true);
        let fast = q.matmul_t(&k);
        assert_eq!(fast.shape(), vec![2, 4]);
        fast.square().sum_all().backward();
        let (gq_fast, gk_fast) = (q.grad().unwrap(), k.grad().unwrap());

        let q2 = Tensor::from_vec(q.to_vec(), &[2, 3]).requires_grad(true);
        let k2 = Tensor::from_vec(k.to_vec(), &[4, 3]).requires_grad(true);
        q2.matmul(&k2.transpose()).square().sum_all().backward();
        for (f, s) in fast.to_vec().iter().zip(q2.matmul(&k2.transpose()).to_vec()) {
            assert!((f - s).abs() < 1e-5);
        }
        for (f, s) in gq_fast.iter().zip(q2.grad().unwrap()) {
            assert!((f - s).abs() < 1e-4, "dQ mismatch {f} vs {s}");
        }
        for (f, s) in gk_fast.iter().zip(k2.grad().unwrap()) {
            assert!((f - s).abs() < 1e-4, "dK mismatch {f} vs {s}");
        }
    }

    #[test]
    fn large_matmul_crosses_blocked_dispatch() {
        // 64x64x64 = exactly the threshold: exercises the blocked path
        // through the public op, against the naive kernel.
        let dim = 64;
        let a: Vec<f32> = (0..dim * dim).map(|i| ((i % 13) as f32 - 6.0) * 0.05).collect();
        let b: Vec<f32> = (0..dim * dim).map(|i| ((i % 11) as f32 - 5.0) * 0.07).collect();
        let fast = Tensor::from_vec(a.clone(), &[dim, dim])
            .matmul(&Tensor::from_vec(b.clone(), &[dim, dim]))
            .to_vec();
        let reference = crate::ops::kernels::matmul_naive(&a, &b, dim, dim, dim);
        for (f, r) in fast.iter().zip(&reference) {
            assert!((f - r).abs() <= 1e-5 * r.abs().max(1.0), "{f} vs {r}");
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = a.transpose();
        assert_eq!(t.shape(), vec![3, 2]);
        assert_eq!(t.transpose().to_vec(), a.to_vec());
    }

    #[test]
    fn transpose_gradient_transposes_back() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        let mask = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], &[2, 2]);
        let y = a.transpose().mul(&mask).sum_all(); // selects a[0][0]
        y.backward();
        assert_eq!(a.grad().unwrap(), vec![1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "expected m*k")]
    fn matmul_raw_rejects_short_lhs() {
        // Regression: the raw boundary must validate slice lengths against
        // m/k/n instead of silently indexing out of bounds (or worse,
        // producing a plausible-looking partial product).
        let _ = matmul_raw(&[1.0; 5], &[1.0; 6], 2, 3, 2);
    }

    #[test]
    #[should_panic(expected = "expected k*n")]
    fn matmul_raw_rejects_short_rhs() {
        let _ = matmul_raw(&[1.0; 6], &[1.0; 5], 2, 3, 2);
    }
}
