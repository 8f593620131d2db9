//! Elementwise binary operations on same-shape tensors, plus scalar variants.
//!
//! Forward maps (and the cheap backward maps) run through the lane-exact
//! SIMD primitives when the SIMD backend is active: add/sub/mul/div round
//! identically per lane and per scalar, so results match the scalar backend
//! bit-for-bit.

use crate::ops::simd;
use crate::tensor::Tensor;

fn assert_same_shape(a: &Tensor, b: &Tensor, op: &str) {
    assert_eq!(a.shape(), b.shape(), "{op}: shape mismatch {:?} vs {:?}", a.shape(), b.shape());
}

impl Tensor {
    /// Elementwise addition. Shapes must match exactly; see
    /// [`Tensor::add_bias`] for row broadcasting.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_same_shape(self, other, "add");
        let a = self.to_vec();
        let b = other.to_vec();
        let data = simd::vadd(&a, &b);
        Tensor::from_op(
            data,
            &self.shape(),
            vec![self.clone(), other.clone()],
            Box::new(move |g| vec![g.to_vec(), g.to_vec()]),
        )
    }

    /// Elementwise subtraction (`self - other`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_same_shape(self, other, "sub");
        let a = self.to_vec();
        let b = other.to_vec();
        let data = simd::vsub(&a, &b);
        Tensor::from_op(
            data,
            &self.shape(),
            vec![self.clone(), other.clone()],
            Box::new(move |g| vec![g.to_vec(), simd::vmul_scalar(g, -1.0)]),
        )
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_same_shape(self, other, "mul");
        let a = self.to_vec();
        let b = other.to_vec();
        let data = simd::vmul(&a, &b);
        let (ac, bc) = (a, b);
        Tensor::from_op(
            data,
            &self.shape(),
            vec![self.clone(), other.clone()],
            Box::new(move |g| vec![simd::vmul(g, &bc), simd::vmul(g, &ac)]),
        )
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let data = simd::vadd_scalar(&self.to_vec(), s);
        Tensor::from_op(
            data,
            &self.shape(),
            vec![self.clone()],
            Box::new(move |g| vec![g.to_vec()]),
        )
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        let data = simd::vmul_scalar(&self.to_vec(), s);
        Tensor::from_op(
            data,
            &self.shape(),
            vec![self.clone()],
            Box::new(move |g| vec![simd::vmul_scalar(g, s)]),
        )
    }

    /// Adds a constant (non-differentiable) array elementwise; useful for
    /// attention masks.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` mismatches the element count.
    pub fn add_const(&self, values: &[f32]) -> Tensor {
        assert_eq!(self.numel(), values.len(), "add_const length mismatch");
        let data = simd::vadd(&self.to_vec(), values);
        Tensor::from_op(
            data,
            &self.shape(),
            vec![self.clone()],
            Box::new(move |g| vec![g.to_vec()]),
        )
    }

    /// Elementwise multiply by a constant (non-differentiable) array.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` mismatches the element count.
    pub fn mul_const(&self, values: &[f32]) -> Tensor {
        assert_eq!(self.numel(), values.len(), "mul_const length mismatch");
        let data = simd::vmul(&self.to_vec(), values);
        let vc = values.to_vec();
        Tensor::from_op(
            data,
            &self.shape(),
            vec![self.clone()],
            Box::new(move |g| vec![simd::vmul(g, &vc)]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(v, &[n]).requires_grad(true)
    }

    #[test]
    fn add_forward_backward() {
        let a = leaf(vec![1.0, 2.0]);
        let b = leaf(vec![3.0, 4.0]);
        let c = a.add(&b).sum_all();
        assert_eq!(c.item(), 10.0);
        c.backward();
        assert_eq!(a.grad().unwrap(), vec![1.0, 1.0]);
        assert_eq!(b.grad().unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn sub_backward_negates() {
        let a = leaf(vec![5.0]);
        let b = leaf(vec![3.0]);
        let c = a.sub(&b);
        c.backward();
        assert_eq!(a.grad().unwrap(), vec![1.0]);
        assert_eq!(b.grad().unwrap(), vec![-1.0]);
    }

    #[test]
    fn mul_product_rule() {
        let a = leaf(vec![2.0, 3.0]);
        let b = leaf(vec![5.0, 7.0]);
        let c = a.mul(&b).sum_all();
        assert_eq!(c.item(), 31.0);
        c.backward();
        assert_eq!(a.grad().unwrap(), vec![5.0, 7.0]);
        assert_eq!(b.grad().unwrap(), vec![2.0, 3.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = leaf(vec![1.0, -1.0]);
        let y = a.mul_scalar(3.0).add_scalar(1.0).sum_all();
        assert_eq!(y.item(), 2.0);
        y.backward();
        assert_eq!(a.grad().unwrap(), vec![3.0, 3.0]);
    }

    #[test]
    fn const_ops_pass_gradients() {
        let a = leaf(vec![1.0, 2.0]);
        let y = a.mul_const(&[2.0, 0.5]).add_const(&[10.0, 10.0]).sum_all();
        assert_eq!(y.item(), 23.0);
        y.backward();
        assert_eq!(a.grad().unwrap(), vec![2.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_mismatch() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }
}
