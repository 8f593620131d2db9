//! Reductions: sums and means over all elements or one axis of a 2-D tensor.
//!
//! Row-wise sums (`sum_all`, `sum_axis1`) go through the crate's canonical
//! row-sum primitive — sequential under the scalar backend, lane-parallel
//! partial sums under SIMD. Column sums (`sum_axis0`) accumulate whole rows
//! with the lane-exact add, so they are bit-identical under both backends
//! (each column is still summed rows-ascending).

use crate::ops::simd;
use crate::tensor::Tensor;

impl Tensor {
    /// Sum of all elements, returned as a scalar tensor.
    pub fn sum_all(&self) -> Tensor {
        let n = self.numel();
        let s = simd::row_sum(&self.to_vec());
        Tensor::from_op(vec![s], &[1], vec![self.clone()], Box::new(move |g| vec![vec![g[0]; n]]))
    }

    /// Mean of all elements, returned as a scalar tensor.
    pub fn mean_all(&self) -> Tensor {
        let n = self.numel();
        self.sum_all().mul_scalar(1.0 / n as f32)
    }

    /// Column sums of an `[m, n]` tensor, producing `[n]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn sum_axis0(&self) -> Tensor {
        let s = self.shape();
        assert_eq!(s.len(), 2, "sum_axis0: expected 2-D tensor, got {s:?}");
        let (m, n) = (s[0], s[1]);
        let a = self.to_vec();
        let mut out = vec![0.0f32; n];
        for r in 0..m {
            simd::vadd_assign(&mut out, &a[r * n..(r + 1) * n]);
        }
        Tensor::from_op(
            out,
            &[n],
            vec![self.clone()],
            Box::new(move |g| {
                let mut dx = vec![0.0f32; m * n];
                for r in 0..m {
                    dx[r * n..(r + 1) * n].copy_from_slice(g);
                }
                vec![dx]
            }),
        )
    }

    /// Column means of an `[m, n]` tensor, producing `[n]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn mean_axis0(&self) -> Tensor {
        let m = self.shape()[0];
        self.sum_axis0().mul_scalar(1.0 / m as f32)
    }

    /// Row sums of an `[m, n]` tensor, producing `[m]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn sum_axis1(&self) -> Tensor {
        let s = self.shape();
        assert_eq!(s.len(), 2, "sum_axis1: expected 2-D tensor, got {s:?}");
        let (m, n) = (s[0], s[1]);
        let a = self.to_vec();
        let mut out = vec![0.0f32; m];
        for (r, o) in out.iter_mut().enumerate() {
            *o = simd::row_sum(&a[r * n..(r + 1) * n]);
        }
        Tensor::from_op(
            out,
            &[m],
            vec![self.clone()],
            Box::new(move |g| {
                let mut dx = vec![0.0f32; m * n];
                for r in 0..m {
                    for c in 0..n {
                        dx[r * n + c] = g[r];
                    }
                }
                vec![dx]
            }),
        )
    }

    /// Row means of an `[m, n]` tensor, producing `[m]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn mean_axis1(&self) -> Tensor {
        let n = self.shape()[1];
        self.sum_axis1().mul_scalar(1.0 / n as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_mean_all() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        assert_eq!(x.sum_all().item(), 10.0);
        assert_eq!(x.mean_all().item(), 2.5);
        let y = x.mean_all();
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![0.25; 4]);
    }

    #[test]
    fn axis0_reductions() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        assert_eq!(x.sum_axis0().to_vec(), vec![4.0, 6.0]);
        assert_eq!(x.mean_axis0().to_vec(), vec![2.0, 3.0]);
        x.sum_axis0().sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![1.0; 4]);
    }

    #[test]
    fn axis1_reductions() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        assert_eq!(x.sum_axis1().to_vec(), vec![3.0, 7.0]);
        assert_eq!(x.mean_axis1().to_vec(), vec![1.5, 3.5]);
    }

    #[test]
    fn sum_axis1_gradient_broadcast() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        // weight rows differently to check the broadcast
        let w = Tensor::from_vec(vec![1.0, 10.0], &[2]);
        x.sum_axis1().mul(&w).sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![1.0, 1.0, 10.0, 10.0]);
    }
}
